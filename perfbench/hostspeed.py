"""Host-speed probe.

On a shared machine the same flight's host time swings by tens of percent
within seconds and by up to 2x over minutes, far more than the effects the
benchmark must resolve. The probe is a fixed ~1 ms kernel, independent of
the program under test, that the benchmark runs before every ``sense`` call
and after every set-up launch. A host time scaled by ``REFERENCE_S / probe
time`` measured around it is a time at a fixed reference speed.

The kernel is a toy tree search with the planner's interpreter mix:
Gaussian draws, float arithmetic, small slotted objects, tuple-keyed dict
growth, and a small numpy copy, count and stamp per step.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

# typical probe time on a shared 2-core Xeon VM (Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.001
EPISODES = 20
DEPTH = 6


class _State:
    __slots__ = ("x", "y", "z", "hit")

    def __init__(self, x, y, z, hit):
        self.x = x
        self.y = y
        self.z = z
        self.hit = hit


def kernel_seconds() -> float:
    """Host seconds taken by one pass of the fixed probe kernel."""
    rng = random.Random(0)
    cells = np.zeros((32, 160), dtype=np.uint8)
    nodes: dict = {}
    t0 = time.perf_counter()
    for _ in range(EPISODES):
        scratch = cells.copy()
        s = _State(rng.uniform(0.0, 60.0), rng.uniform(0.0, 6.0), 16.0, False)
        path: tuple = ()
        for _ in range(DEPTH):
            a = rng.randrange(7)
            x = s.x + (a - 3) * 1.1 + rng.gauss(0.0, 0.3)
            y = s.y + rng.gauss(0.0, 0.3)
            s = _State(x, y, s.z, x > 30.0)
            c0 = int(math.floor(x)) % 150
            block = scratch[4:12, c0:c0 + 8]
            seen = float(np.count_nonzero(block)) / block.size
            block[:] = 1
            path += ((a, int(math.floor(x / 2.0)), int(math.floor(y / 2.0))),)
            slot = nodes.get(path)
            if slot is None:
                nodes[path] = slot = [0, 0.0]
            r = -2.5 - 5.0 * seen + (25.0 if s.hit else 0.0)
            slot[0] += 1
            slot[1] += (r - slot[1]) / slot[0]
    return time.perf_counter() - t0
