"""Command-line surface: single runs with full traces, seeded batches with
metrics, three-mode comparisons, heatmap export, and footprint debugging.

Exit codes: 0 success, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .configio import ConfigError
from .coverage import Rect
from .geometry import CameraIntrinsics, EnuPoint, footprint_corners_world, footprint_extent
from .metrics import (compute_metrics, export_heatmap, heatmap_shape, metrics_table,
                      write_heatmap_csv, write_heatmap_pgm, write_metrics_csv)
from .missions import RunRecord, build_setup, execute_run
from .world import Scenario, builtin_scenarios, load_scenario

OUT_ENV = "SKYSEARCH_OUT"
MODES = ("mission", "offboard", "hybrid")


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> Scenario:
    """The scenario file with ``--seed`` applied."""
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    return scenario


def run_batch(scenario: Scenario, mode: str, runs: int, seed: int, *,
              workers: int = 1) -> list[RunRecord]:
    """Run ``runs`` isolated flights; per-run seeds derive from the master
    seed and index, so results are identical however the batch is spread
    across workers. The pool never holds more processes than there are runs."""
    setups = [build_setup(scenario, mode, f"{seed}:{i}") for i in range(runs)]
    workers = min(workers, runs)
    if workers > 1:
        # spawn, not fork: a caller's thread (the test suite's scipy BLAS) may
        # hold a lock that a forked child copies without the thread itself
        import multiprocessing as mp
        with mp.get_context("spawn").Pool(workers) as pool:
            return pool.map(execute_run, setups)
    return [execute_run(s) for s in setups]


def write_records(path, records: list[RunRecord]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")


def write_trajectory_csv(path, rec: RunRecord) -> None:
    with open(path, "w") as fh:
        fh.write("t,x,y,z\n")
        for t, x, y, z in rec.trajectory:
            fh.write(f"{t:.3f},{x:.6f},{y:.6f},{z:.6f}\n")


def write_solver_trace_csv(path, rec: RunRecord) -> None:
    from .model import ActionCmd
    names = [a.name for a in ActionCmd]
    with open(path, "w") as fh:
        fh.write("t,action,particles,episodes,survival,"
                 + ",".join(f"q_{n}" for n in names) + "\n")
        for row in rec.solver_trace:
            qs = ",".join("" if q is None else f"{q:.3f}" for q in row["q"])
            fh.write(f"{row['t']:.3f},{row['action']},{row['particles']},"
                     f"{row['episodes']},{row['survival']:.4f},{qs}\n")


def _cmd_run(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    setup = build_setup(scenario, args.mode, scenario.seed)
    rec = execute_run(setup)
    write_trajectory_csv(out / "trajectory.csv", rec)
    with open(out / "record.json", "w") as fh:
        json.dump(rec.to_dict(), fh, sort_keys=True, indent=1)
    if rec.solver_trace:
        write_solver_trace_csv(out / "solver_trace.csv", rec)
    m = compute_metrics([rec], scenario.truth.victims, args.tolerance)
    write_metrics_csv(out / "metrics.csv", [m])
    print(f"{rec.mode} run seed={rec.seed}: {rec.outcome} in {rec.elapsed_s:.0f} s, "
          f"{len(rec.recorded)} coordinate(s) recorded, coverage {rec.coverage:.2f}")
    print(metrics_table([m]))
    return 0


def _cmd_batch(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    records = run_batch(scenario, args.mode, args.runs, scenario.seed,
                        workers=args.workers)
    write_records(out / f"records_{args.mode}.jsonl", records)
    m = compute_metrics(records, scenario.truth.victims, args.tolerance)
    write_metrics_csv(out / "metrics.csv", [m])
    print(metrics_table([m]))
    return 0


def _cmd_compare(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    rows = []
    for mode in MODES:
        records = run_batch(scenario, mode, args.runs, scenario.seed,
                            workers=args.workers)
        write_records(out / f"records_{mode}.jsonl", records)
        rows.append(compute_metrics(records, scenario.truth.victims, args.tolerance))
    write_metrics_csv(out / "metrics.csv", rows)
    print(metrics_table(rows))
    return 0


def _cmd_heatmap(args) -> int:
    scenario = _load(args)
    margin = 2.0
    s = scenario.cfg.survey
    bounds = Rect(s.x_min - margin, s.y_min - margin, s.x_max + margin, s.y_max + margin)
    try:  # before any flight: the batch is lost when the heatmap cannot be built
        heatmap_shape(bounds, args.cell)
    except ValueError as exc:
        raise ConfigError(f"--cell: {exc}") from None
    out = _out_dir(args)
    records = run_batch(scenario, args.mode, args.runs, scenario.seed,
                        workers=args.workers)
    write_records(out / f"records_{args.mode}.jsonl", records)
    counts, xs, ys = export_heatmap(records, bounds, cell=args.cell)
    write_heatmap_csv(out / f"heatmap_{args.mode}.csv", counts, xs, ys)
    write_heatmap_pgm(out / f"heatmap_{args.mode}.pgm", counts)
    print(f"heatmap over {sum(map(sum, counts))} recorded coordinate(s) "
          f"written to {out / f'heatmap_{args.mode}.csv'}")
    return 0


def _cmd_footprint(args) -> int:
    cam = CameraIntrinsics(pitch=args.pitch, roll=args.roll)
    l_top, l_bottom, l_left, l_right = footprint_extent(args.z, cam)
    fp = footprint_corners_world(EnuPoint(args.x, args.y, args.z), args.yaw, cam)
    print(f"extents at z={args.z}: top={l_top:.4f} bottom={l_bottom:.4f} "
          f"left={l_left:.4f} right={l_right:.4f}")
    print(f"size: {l_right - l_left:.4f} x {l_top - l_bottom:.4f} m, "
          f"area {fp.area():.4f} m^2")
    for i, (cx, cy) in enumerate(fp.corners):
        print(f"corner[{i}]: ({cx:.4f}, {cy:.4f})")
    return 0


def _checked(kind, ok, rule: str):
    """An argparse type: ``kind(text)`` that must pass ``ok``, else exit 2 naming ``rule``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_at_least_one = _checked(int, lambda n: n >= 1, "at least 1")
_tolerance = _checked(float, lambda v: 0.0 <= v < math.inf, "finite and at least 0")
_cell = _checked(float, lambda v: 0.0 < v < math.inf, "finite and above 0")


def _add_common(p: argparse.ArgumentParser, with_mode: bool = True) -> None:
    p.add_argument("--scenario", default="l1",
                   help=f"built-in name ({', '.join(builtin_scenarios())}) or file path")
    if with_mode:
        p.add_argument("--mode", choices=MODES, default="mission")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: scenario file seed, else 0)")
    p.add_argument("--out", default=None,
                   help=f"output directory (default $" + OUT_ENV + " or ./out)")
    p.add_argument("--tolerance", type=_tolerance, default=2.0,
                   help="radius in metres for a coordinate to count as the true location")


def _add_batch(p: argparse.ArgumentParser) -> None:
    p.add_argument("--runs", type=_at_least_one, default=5)
    p.add_argument("--workers", type=_at_least_one, default=1,
                   help="process pool size (at least 1, capped at the run count)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skysearch",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="one episode with full trace files")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("batch", help="N seeded runs of one mode plus metrics")
    _add_common(p)
    _add_batch(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("compare", help="mission vs offboard vs hybrid side by side")
    _add_common(p, with_mode=False)
    _add_batch(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("heatmap", help="batch plus a 2D histogram of recorded coordinates")
    _add_common(p)
    _add_batch(p)
    p.add_argument("--cell", type=_cell, default=1.0, help="heatmap cell size in metres")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("footprint", help="print the camera footprint for a pose")
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--z", type=float, default=16.0)
    p.add_argument("--yaw", type=float, default=0.0)
    p.add_argument("--pitch", type=float, default=0.0)
    p.add_argument("--roll", type=float, default=0.0)
    p.set_defaults(func=_cmd_footprint)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
