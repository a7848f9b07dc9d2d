"""skysearch benchmark: seeded flights through the public entry points
``missions.build_setup`` and ``missions.execute_run``, one process, serial.

    python3 perfbench/run.py --workload offboard --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds:
the workload's fixed flights first, then further flights from the same
seed stream while time remains. ``--trace 1`` flies only the fixed flights,
once untraced and once with every layer wrapped from outside, and reports
the per-layer metrics, the fixed flights' throughput and quality, and the
tracing overhead. Both print the outcome tally and a sha256 over the fixed
flights' records, check every record, and end with one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value and
unit). The exit code is 0 only when every check passed. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from checks import record_violations
from hostspeed import REFERENCE_S, kernel_seconds
from tracing import Tracer, install, per_layer_metrics
from workloads import WORKLOADS, Workload, flight_seeds, scenario_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
SETUP_PROBES = 10         # host speed probes each set-up launch runs after its work
TOLERANCE_M = 2.0         # scoring radius, the CLI default
SELF_TIME_TOL = 0.01      # per-layer self times must cover a traced flight to 1 %


def load_program():
    """Import skysearch from this checkout's src/ and nowhere else."""
    pkg = SRC / "skysearch"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {pkg}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import skysearch
    if Path(skysearch.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported skysearch from {skysearch.__file__}, "
                         f"not {pkg}")
    return skysearch


@dataclass
class Flight:
    key: str
    seed: int
    rec: object | None
    wall_s: float                 # execute_run
    busy_s: float                 # build_setup + execute_run
    problems: list[str] = field(default_factory=list)
    # untraced step timing (StepClock), host seconds
    probe_s: list[float] = field(default_factory=list)
    decision_s: list[float] = field(default_factory=list)
    decision_ref_s: list[float] = field(default_factory=list)
    search_s: float = 0.0
    episodes: int = 0

    @property
    def scale(self) -> float:
        """Reference seconds per host second over this flight."""
        return REFERENCE_S / statistics.fmean(self.probe_s) if self.probe_s else 1.0


def fly(missions, scenario, mode: str, key: str, seed: int, flight=None) -> Flight:
    """Build and fly one setup. A passed ``flight`` collects step timings
    while it flies; its probe time is taken out of the flight's times."""
    flight = flight or Flight(key, seed, None, 0.0, 0.0)
    flight.key, flight.seed = key, seed
    t_setup = time.perf_counter()
    setup = missions.build_setup(scenario, mode, seed)
    t0 = time.perf_counter()
    try:
        flight.rec = missions.execute_run(setup)
    except Exception as exc:  # a flight that raises is a failed operation
        flight.problems.append(f"raised {type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    probes = sum(flight.probe_s)
    flight.wall_s, flight.busy_s = t1 - t0 - probes, t1 - t_setup - probes
    if flight.rec is not None:
        flight.problems += record_violations(flight.rec, setup, missions.OUTCOMES)
    return flight


class StepClock:
    """Untraced step timing. Wraps only the once-per-real-step calls
    ``sense``, ``plan_step`` and ``bootstrap`` at their ``missions``
    bindings: a few clock reads per decision, nothing per episode.

    A decision sample runs from the return of ``sense`` to the return of
    the next ``plan_step``, so it covers ``advance_belief`` and, when an
    inspection starts or the belief is rebuilt, ``initial_belief`` and
    ``bootstrap`` too. Search time and episodes (root visit deltas) are
    summed over ``plan_step`` and ``bootstrap``.

    Before each ``sense`` call, outside every decision sample, one host
    speed probe runs (see ``hostspeed``). A decision sample in reference
    time uses the mean of the probes just before and just after it.
    """

    def __init__(self, missions):
        self.missions = missions
        self.flight: Flight | None = None
        self.last_obs: float | None = None
        self.pending: float | None = None   # decision awaiting the probe after it
        self._originals: dict = {}

    def install(self) -> None:
        m = self.missions
        clock = time.perf_counter
        sense, plan_step, bootstrap = m.sense, m.plan_step, m.bootstrap

        def timed_sense(*args, **kwargs):
            probe = kernel_seconds()
            self._settle(probe)
            self.flight.probe_s.append(probe)
            obs = sense(*args, **kwargs)
            self.last_obs = clock()
            return obs

        def timed_plan_step(root, *args, **kwargs):
            visits = root.n_visits
            t0 = clock()
            action = plan_step(root, *args, **kwargs)
            t1 = clock()
            self.flight.search_s += t1 - t0
            self.flight.episodes += root.n_visits - visits
            if self.last_obs is not None:
                self.pending = t1 - self.last_obs
                self.flight.decision_s.append(self.pending)
                self.last_obs = None
            return action

        def timed_bootstrap(*args, **kwargs):
            t0 = clock()
            root = bootstrap(*args, **kwargs)
            self.flight.search_s += clock() - t0
            self.flight.episodes += root.n_visits
            return root

        self._originals = {"sense": sense, "plan_step": plan_step, "bootstrap": bootstrap}
        m.sense, m.plan_step, m.bootstrap = timed_sense, timed_plan_step, timed_bootstrap

    def _settle(self, probe_after: float | None) -> None:
        if self.pending is None:
            return
        probes = [self.flight.probe_s[-1]] + ([] if probe_after is None else [probe_after])
        self.flight.decision_ref_s.append(self.pending * REFERENCE_S / statistics.fmean(probes))
        self.pending = None

    def restore(self) -> None:
        for name, fn in self._originals.items():
            setattr(self.missions, name, fn)

    def fly(self, missions, scenario, mode: str, key: str, seed: int) -> Flight:
        """``fly`` with this flight's step timings attached."""
        self.flight = Flight(key, seed, None, 0.0, 0.0)
        self.last_obs = self.pending = None
        fly(missions, scenario, mode, key, seed, self.flight)
        self._settle(None)
        return self.flight


def measure_setup(scenario_path: Path, mode: str) -> tuple[float, float]:
    """Median time of fresh interpreters that import, load the scenario and
    build the first setup: (host seconds, reference seconds). Each child
    then runs host speed probes where it ran; their time is taken out of
    its wall time and their median scales it to reference time."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(scenario_path), mode,
           str(SETUP_PROBES)]
    host, ref = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probes_s, probe = (float(x) for x in proc.stdout.split())
        host.append(wall - probes_s)
        ref.append(host[-1] * REFERENCE_S / probe)
    return statistics.median(host), statistics.median(ref)


def digest(flights: list[Flight]) -> str:
    blob = json.dumps([f.rec.to_dict() if f.rec else None for f in flights], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def quality(compute_metrics, scenarios, flights: list[Flight]) -> dict[str, float]:
    """TP/FP percentages and the located-time mean over flights of several
    scenarios: ``compute_metrics`` per scenario (each has its own victims),
    pooled by run count and by ``n_timed``."""
    groups: dict[str, list] = {}
    for f in flights:
        if f.rec is not None:
            groups.setdefault(f.key, []).append(f.rec)
    runs = tp = fp = timed = 0
    time_sum = 0.0
    for key, recs in groups.items():
        m = compute_metrics(recs, scenarios[key].truth.victims, TOLERANCE_M)
        runs += m.runs
        tp += round(m.tp_pct * m.runs / 100.0)
        fp += round(m.fp_pct * m.runs / 100.0)
        timed += m.n_timed
        time_sum += m.time_mean_s * m.n_timed
    return {"tp_pct": 100.0 * tp / runs if runs else 0.0,
            "fp_pct": 100.0 * fp / runs if runs else 0.0,
            "sim_confirm_s": time_sum / timed if timed else 0.0}


def step_metrics(flights: list[Flight], scaled: bool) -> dict[str, tuple[float, str]]:
    """Throughput and latency over ``flights`` in host time or, when
    ``scaled``, in reference time."""
    def k(f):
        return f.scale if scaled else 1.0

    decisions = sorted(d * 1e3 for f in flights
                       for d in (f.decision_ref_s if scaled else f.decision_s))
    if len(decisions) < 2:
        raise RuntimeError(f"{len(decisions)} planner decision(s): too few to report latency")
    return {
        "flights_per_s": (len(flights) / sum(f.busy_s * k(f) for f in flights), "1/s"),
        "flight_ms_p50": (statistics.median(f.wall_s * k(f) for f in flights) * 1e3, "ms"),
        "decision_ms_p50": (statistics.median(decisions), "ms"),
        "decision_ms_p90": (statistics.quantiles(decisions, n=10)[-1], "ms"),
        "episodes_per_s": (sum(f.episodes for f in flights)
                           / sum(f.search_s * k(f) for f in flights), "1/s"),
    }


def fly_steps(missions, wl: Workload, scenarios, plan, deadline=None) -> list[Flight]:
    """Fly ``plan`` with the untraced step clock installed. With a
    ``deadline``, flights past the fixed ones start only while a typical
    flight still fits before it."""
    clock = StepClock(missions)
    flights: list[Flight] = []
    clock.install()
    try:
        for i, (key, fseed) in enumerate(plan):
            if deadline is not None and i >= wl.core_flights:
                typical = statistics.median(f.wall_s for f in flights)
                if time.perf_counter() + typical > deadline:
                    break
            flights.append(clock.fly(missions, scenarios[key], wl.mode, key, fseed))
    finally:
        clock.restore()
    return flights


def timed_run(sk, wl: Workload, scenarios, paths, seed: int, seconds: float):
    kernel_seconds()  # warm-up: the first pass runs cold
    setup_host_s, setup_s = measure_setup(paths[wl.scenarios[0]], wl.mode)
    flights = fly_steps(sk.missions, wl, scenarios, flight_seeds(wl, seed),
                        deadline=time.perf_counter() + seconds)
    ref = step_metrics(flights, scaled=True)
    host = step_metrics(flights, scaled=False)
    metrics = {"setup_s": (setup_s, "s"),
               "decision_ms_p90": ref["decision_ms_p90"],
               "episodes_per_s": ref["episodes_per_s"],
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    core = flights[:wl.core_flights]
    q = quality(sk.metrics.compute_metrics, scenarios, core)
    decisions = [d for f in flights for d in f.decision_s]
    p90 = host["decision_ms_p90"][0] / 1e3
    scales = [f.scale for f in flights]
    notes = [f"flights: {len(flights)} flown ({len(core)} fixed), "
             f"{sum(f.busy_s for f in flights):.2f} s busy",
             f"decisions: {len(decisions)} samples, {sum(d > p90 for d in decisions)} "
             f"beyond p90; episodes: {sum(f.episodes for f in flights)}",
             f"host speed: reference/host time {statistics.median(scales):.4f} "
             f"(flight median; min {min(scales):.4f}, max {max(scales):.4f}) "
             f"from {sum(len(f.probe_s) for f in flights)} probes",
             "reference time: " + " ".join(f"{n}={v:.6g}" for n, (v, _) in ref.items()),
             "host time: " + " ".join([f"setup_s={setup_host_s:.6g}"]
                                      + [f"{n}={v:.6g}" for n, (v, _) in host.items()]),
             f"quality (fixed flights, {TOLERANCE_M:g} m): tp_pct={q['tp_pct']:.6g} "
             f"fp_pct={q['fp_pct']:.6g} sim_confirm_s={q['sim_confirm_s']:.6g}"]
    return flights, core, metrics, notes, []


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(sk, wl: Workload, scenarios, seed: int):
    missions = sk.missions
    plan = list(islice(flight_seeds(wl, seed), wl.core_flights))
    plain = fly_steps(missions, wl, scenarios, plan)
    fixed = step_metrics(plain, scaled=True)

    tracer = Tracer()
    install(tracer)
    try:
        traced = []
        for i, (key, fseed) in enumerate(plan):
            tracer.flight = i
            traced.append(fly(missions, scenarios[key], wl.mode, key, fseed))
        tracer.flight = None
        q = quality(sk.metrics.compute_metrics, scenarios, traced)
    finally:
        tracer.restore()

    problems = []
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a.rec is not None and b.rec is not None and a.rec.to_dict() != b.rec.to_dict():
            b.problems.append("tracing changed the flight's record")
        layers = tracer.layer_self_ns(i)
        wall_ns = b.wall_s * 1e9
        if abs(sum(layers.values()) - wall_ns) > SELF_TIME_TOL * wall_ns:
            b.problems.append(f"layer self times sum to {sum(layers.values()) / 1e6:.3f} ms "
                              f"of a {wall_ns / 1e6:.3f} ms flight")
    missed = sorted(site for site, n in tracer.site_calls().items() if n == 0)
    if missed:
        problems.append(f"call sites never reached: {', '.join(missed)}")

    WORK.mkdir(parents=True, exist_ok=True)
    trace_path = WORK / f"trace-{wl.name}-{seed}.json"
    trace_path.write_text(json.dumps(tracer.dump()))

    overhead = sum(f.busy_s for f in traced) / sum(f.busy_s for f in plain)
    metrics = {name: fixed[name] for name in ("flights_per_s", "flight_ms_p50",
                                              "decision_ms_p50")}
    metrics.update({"tp_pct": (q["tp_pct"], "%"), "fp_pct": (q["fp_pct"], "%"),
                    "sim_confirm_s": (q["sim_confirm_s"], "sim_s")})
    metrics.update(per_layer_metrics(tracer, [f.rec for f in traced if f.rec is not None]))
    metrics["tracing.overhead_ratio"] = (overhead, "ratio")
    share = Counter()
    for i in range(len(traced)):
        share.update(tracer.layer_self_ns(i))
    total = sum(share.values()) or 1
    notes = [f"flights: {len(plan)} fixed, flown untraced then traced; host busy "
             f"{sum(f.busy_s for f in plain):.2f} s vs {sum(f.busy_s for f in traced):.2f} s",
             "self time by layer: " + ", ".join(
                 f"{layer} {100.0 * ns / total:.1f}%" for layer, ns in share.most_common()),
             f"trace written to {trace_path.relative_to(ROOT)}"]
    return plain + traced, traced, metrics, notes, problems


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = workloads[args.workload]

    sk = load_program()
    paths = scenario_files(SRC / "skysearch" / "scenarios", WORK)
    scenarios = {key: sk.load_scenario(paths[key]) for key in wl.scenarios}

    if args.trace:
        flights, core, metrics, notes, problems = traced_run(sk, wl, scenarios, args.seed)
    else:
        flights, core, metrics, notes, problems = timed_run(
            sk, wl, scenarios, paths, args.seed, args.seconds)

    tally = Counter(f.rec.outcome for f in core if f.rec is not None)
    failed = [f for f in flights if f.problems]
    print(f"perfbench workload={wl.name} mode={wl.mode} scenarios={','.join(wl.scenarios)} "
          f"seed={args.seed} trace={args.trace}")
    for line in notes:
        print(line)
    print("tally: " + " ".join(f"{k}={v}" for k, v in sorted(tally.items())))
    print(f"digest: sha256:{digest(core)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for f in failed:
        for p in f.problems:
            print(f"FAIL flight {f.key} seed {f.seed}: {p}", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct, "attempted": len(flights), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
