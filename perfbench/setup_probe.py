"""Cold set-up as a user pays it: a fresh interpreter imports skysearch from
the checkout's src/, loads one scenario file and builds the first run setup.
Then, in the same process, it runs host speed probes and prints their total
time and their median, so the caller can take them out and scale the set-up
time to reference time.

    python3 perfbench/setup_probe.py <scenario file> <mode> <probes>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from skysearch import build_setup, load_scenario  # noqa: E402

build_setup(load_scenario(sys.argv[1]), sys.argv[2], 0)

t0 = time.perf_counter()
import statistics  # noqa: E402

from hostspeed import kernel_seconds  # noqa: E402

probes = [kernel_seconds() for _ in range(int(sys.argv[3]))]
# the first probe in a fresh interpreter runs cold
print(time.perf_counter() - t0, statistics.median(probes[1:]))
