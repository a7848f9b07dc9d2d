#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against this checkout.

    python3 scripts/bench_pairs.py --parent HEAD~1 --seeds 501-510 --out BENCH_5.json

The parent ref is exported with ``git archive`` into a temporary directory,
so the repository's own git state is never touched. For each workload that
``BENCHMARK.json`` lists and each seed, ``perfbench/run.py --trace 0`` runs
once on each side for the benchmark's ``run_seconds``, one after the other
in a fresh interpreter; which side runs first alternates from pair to pair.
The output holds every run's end-to-end metrics, outcome tally, record
digest and fixed-flight quality (``tp_pct``, ``fp_pct``, ``sim_confirm_s``),
each side's quality means, the failed runs per side, and per metric each
side's median and quartiles, the pairs the change won and lost (direction
from ``BENCHMARK.json``), whether the gain rule holds (at least nine tenths of
all pairs won, no more failed runs than the parent, and the medians further
apart than the parent's quartile spread) and whether the change's median is
worse than the parent's by more than the metric's bound.

After the pairs, each workload gets one traced run per side
(``--trace 1 --seconds 5`` on the first seed) under ``traced``: its exit code,
tally, digest, ``FAIL`` lines and the per-layer counts (the ``count`` metrics
of ``BENCHMARK.json``), the counts that moved between the sides, and
``traced_match``, true when both traced runs passed with the same tally and
digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
# the fixed flights' quality line of a run, e.g.
# "quality (fixed flights, 2 m): tp_pct=50 fp_pct=10 sim_confirm_s=120.5"
QUALITY_PREFIX = "quality (fixed flights, "
QUALITY = ("tp_pct", "fp_pct", "sim_confirm_s")
TRACE_SECONDS = 5


def parse_seeds(text: str) -> list[int]:
    """``501-510`` or ``3,7,11``; an empty list or a reversed range is an error."""
    if "-" in text:
        lo, hi = text.split("-")
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(s) for s in text.split(",")]
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} names no seed (a range runs low-high)")
    return seeds


def export_ref(ref: str, dest: Path) -> str:
    """Unpack the tree of ``ref`` into ``dest``; returns the commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = dest / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                       stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return commit


def parse_output(stdout: str) -> dict:
    """Tally, digest, fixed-flight quality, correctness and end-to-end metrics
    from one run's standard output; ``correct`` is false when its closing JSON
    summary is missing or malformed."""
    out = {}
    lines = stdout.splitlines()
    for line in lines:
        if line.startswith("tally: "):
            out["tally"] = line[len("tally: "):]
        elif line.startswith("digest: "):
            out["digest"] = line[len("digest: "):]
        elif line.startswith(QUALITY_PREFIX):
            fields = dict(f.split("=") for f in line.partition("): ")[2].split())
            out["quality"] = {name: float(fields[name]) for name in QUALITY}
    try:
        summary = json.loads(lines[-1])
        out["correct"] = summary["correct"]
        out["metrics"] = {k: v["value"] for k, v in summary["metrics"].items()}
    except (IndexError, ValueError, KeyError):
        out["correct"] = False
    return out


def parse_traced(stdout: str, stderr: str, counts: list[str]) -> dict:
    """``parse_output`` of a traced run with its ``FAIL`` lines and, in place
    of the metrics, the per-layer ``counts``; a run that printed a ``FAIL``
    line is not correct."""
    out = parse_output(stdout)
    out["fail_lines"] = [line for line in stderr.splitlines() if line.startswith("FAIL")]
    out["correct"] = out["correct"] and not out["fail_lines"]
    metrics = out.pop("metrics", {})
    out["counts"] = {name: metrics[name] for name in counts if name in metrics}
    return out


def run_once(side: Path, workload: str, seed: int, seconds: float,
             counts: list[str] | None = None) -> dict:
    """One benchmark run: its exit code, wall time and parsed output. Given
    the per-layer ``counts`` to keep, the run is traced (``parse_traced``)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0" if counts is None else "1"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True,
                          timeout=20 * seconds + 300)
    parsed = (parse_output(proc.stdout) if counts is None
              else parse_traced(proc.stdout, proc.stderr, counts))
    out = {"exit": proc.returncode, "wall_s": round(time.perf_counter() - t0, 2), **parsed}
    if not out["correct"]:
        out["stderr_tail"] = proc.stderr[-2000:]
    return out


def compare_traced(traced: dict) -> dict:
    """The two sides' traced runs, the counts that moved between them and
    whether both passed with the same tally and digest."""
    parent, change = traced["parent"], traced["change"]
    moved = {name: [parent["counts"].get(name), change["counts"].get(name)]
             for name in sorted(parent["counts"].keys() | change["counts"].keys())
             if parent["counts"].get(name) != change["counts"].get(name)}
    match = (ok(parent) and ok(change) and parent.get("tally") == change.get("tally")
             and parent.get("digest") == change.get("digest"))
    return {"traced": {**traced, "counts_moved": moved}, "traced_match": match}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4, method="inclusive")


def ok(run: dict) -> bool:
    """A run that exited 0 and reported correct results."""
    return run["exit"] == 0 and run["correct"]


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Failed runs per side and, per metric, medians, quartiles, pair wins and
    the gain and bound rules.

    Every pair run counts towards the win share: a pair the change failed is
    a loss, and one only the parent failed is no win. A gain never holds when
    the change failed more runs than the parent.
    """
    failed = {side: sum(not ok(p[side]) for p in pairs) for side in ("parent", "change")}
    metrics = {}
    for name, meta in spec.items():
        sign = 1.0 if meta["better"] == "higher" else -1.0
        wins = losses = 0
        for p in pairs:
            if not ok(p["change"]):
                losses += 1
            elif ok(p["parent"]):
                d = sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name])
                wins += d > 0
                losses += d < 0
        entry = {"unit": meta["unit"], "better": meta["better"], "bound": meta["bound"],
                 "pairs": len(pairs), "change_wins": wins, "change_losses": losses,
                 "gain_holds": False, "within_bound": False}
        metrics[name] = entry
        parent = [p["parent"]["metrics"][name] for p in pairs if ok(p["parent"])]
        change = [p["change"]["metrics"][name] for p in pairs if ok(p["change"])]
        if not parent or not change:
            continue
        pq, cq = quartiles(parent), quartiles(change)
        pm, cm = statistics.median(parent), statistics.median(change)
        worse_by = sign * (pm - cm) / pm if pm else 0.0
        entry.update({
            "parent": parent, "change": change,
            "parent_median": pm, "change_median": cm,
            "parent_quartiles": pq, "change_quartiles": cq,
            "change_vs_parent": (cm - pm) / pm if pm else 0.0,
            "gain_holds": (failed["change"] <= failed["parent"]
                           and wins >= WIN_SHARE * len(pairs)
                           and sign * (cm - pm) > pq[2] - pq[0]),
            "worse_by": worse_by,
            "within_bound": worse_by <= meta["bound"],
        })
    return {"failed_runs": failed, "metrics": metrics}


def quality_means(pairs: list[dict]) -> dict:
    """Per side, the mean of each fixed-flight quality figure over the runs
    that printed one; the draws of a changed model show up here next to speed."""
    means = {}
    for side in ("parent", "change"):
        runs = [p[side]["quality"] for p in pairs if "quality" in p[side]]
        means[side] = {name: statistics.mean(q[name] for q in runs) if runs else None
                       for name in QUALITY}
        means[side]["runs"] = len(runs)
    return means


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="one seed per pair: 501-510 or 3,7,11")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    seeds = args.seeds
    result = {"parent_ref": args.parent, "seconds": seconds, "seeds": seeds,
              "command": "perfbench/run.py --workload W --seed N "
                         f"--seconds {seconds:g} --trace 0",
              "traced_command": f"perfbench/run.py --workload W --seed {seeds[0]} "
                                f"--seconds {TRACE_SECONDS} --trace 1",
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        result["parent_commit"] = export_ref(args.parent, Path(tmp))
        sides = {"parent": Path(tmp) / "tree", "change": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], workload, seed, seconds)
                pair["same_tally"] = pair["parent"].get("tally") == pair["change"].get("tally")
                pair["same_digest"] = (pair["parent"].get("digest")
                                       == pair["change"].get("digest"))
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} episodes_per_s="
                    f"{pair[side].get('metrics', {}).get('episodes_per_s', float('nan')):.0f}"
                    for side in order), file=sys.stderr)
            traced = {side: run_once(sides[side], workload, seeds[0], TRACE_SECONDS, counts)
                      for side in ("parent", "change")}
            result["workloads"][workload] = {
                "runs": pairs,
                "tally_and_digest_match": all(p["same_tally"] and p["same_digest"]
                                              for p in pairs),
                **summarize(pairs, spec),
                "quality_means": quality_means(pairs),
                **compare_traced(traced),
            }
            # written after every workload, so a cut run keeps what finished
            args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
