"""Benchmark workloads: which scenario files each one flies, in which mode,
and the flight seeds it derives from the workload seed.

The program under test sees only scenario files and opaque integer flight
seeds. Scenario copies that differ from the shipped ones are written into
the benchmark's work directory before any flight starts.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

# desk-scale budget keys in the shipped .scn files; removing them leaves the
# SolverConfig/ModelConfig defaults (2000 particles, 4000 episodes, depth 30,
# ucb_c 100, obs_cell 0.5)
DESK_BUDGET_KEYS = ("episodes_per_step", "bootstrap_episodes", "max_depth",
                    "n_particles", "ucb_c", "obs_cell")
# a full-size flight caps at 12 real steps after the bootstrap tick (dt = 4 s)
FULLSIZE_T_MAX = 52.0
# gust arrivals per second in the windy l2 copy: a gust every ~20 s lasting
# ~5 s, so roughly a fifth of the frames are dropped
GUST_RATE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    scenarios: tuple[str, ...]   # scenario keys, flown in rotation
    core_flights: int            # fixed flights behind tally, digest and trace


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w for w in (
        Workload("offboard", "offboard", ("l1", "l2"), 6),
        Workload("hybrid", "hybrid", ("l1", "l2", "l2-gusts"), 6),
        Workload("fullsize", "offboard", ("l2-fullsize",), 3),
    )
}


def _strip_keys(text: str, keys) -> str:
    lines = [ln for ln in text.splitlines()
             if ln.split("#", 1)[0].partition("=")[0].strip() not in keys]
    return "\n".join(lines) + "\n"


def _gusty(text: str) -> str:
    out, n = re.subn(r"(?m)^wind\s*=.*$", f"wind = {GUST_RATE} 5.0", text)
    if n != 1:
        raise RuntimeError("l2.scn has no single 'wind' line to replace")
    return out


def _fullsize(text: str) -> str:
    return _strip_keys(text, DESK_BUDGET_KEYS + ("t_max",)) + f"t_max = {FULLSIZE_T_MAX}\n"


def scenario_files(shipped_dir: Path, work_dir: Path) -> dict[str, Path]:
    """Paths of every scenario a workload may fly, writing the derived
    copies into ``work_dir``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    l2_text = (shipped_dir / "l2.scn").read_text()
    derived = {"l2-gusts": _gusty(l2_text), "l2-fullsize": _fullsize(l2_text)}
    paths = {"l1": shipped_dir / "l1.scn", "l2": shipped_dir / "l2.scn"}
    for key, text in derived.items():
        path = work_dir / f"{key}.scn"
        path.write_text(text)
        paths[key] = path
    return paths


def flight_seeds(workload: Workload, seed: int):
    """Endless deterministic stream of (scenario key, flight seed). The
    first ``core_flights`` entries are the workload's fixed seed list;
    further entries fill the rest of a timed run."""
    rng = random.Random(f"perfbench/{workload.name}/{seed}")
    i = 0
    while True:
        yield workload.scenarios[i % len(workload.scenarios)], rng.getrandbits(48)
        i += 1
