"""Run-level accuracy metrics and spatial exports for batches of flights.

A run scores a true positive when any coordinate it recorded falls within
the tolerance radius of a victim's true position, a false positive when it
recorded any coordinate farther than the tolerance from every victim, and
a false negative when nothing it recorded was near the victim. A single
run can be both a TP and an FP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coverage import Rect
from .missions import RunRecord
from .model import MAX_RASTER_CELLS


@dataclass
class Metrics:
    mode: str
    runs: int
    tp_pct: float
    fp_pct: float
    fn_pct: float
    time_mean_s: float
    time_sd_s: float
    time_se_s: float
    n_timed: int


def _time_stats(times: list[float]) -> tuple[float, float, float, int]:
    n = len(times)
    if n == 0:
        return math.nan, math.nan, math.nan, 0
    times = sorted(times)  # fixed summation order: permutation invariance
    mean = sum(times) / n
    if n == 1:
        return mean, 0.0, 0.0, 1
    var = sum((x - mean) ** 2 for x in times) / (n - 1)
    sd = math.sqrt(var)
    return mean, sd, sd / math.sqrt(n), n


def compute_metrics(records: list[RunRecord], victims: list[tuple[float, float, float]],
                    tolerance_m: float = 2.0) -> Metrics:
    """Score a batch of runs of one mode against the true victim layout.

    Elapsed-time statistics are taken over the runs that confirmed a
    victim; if none did (the survey baseline never confirms anything),
    they fall back to all runs so fixed-length surveys still report their
    duration.
    """
    if not records:
        raise ValueError("cannot compute metrics over zero runs")
    if not 0.0 <= tolerance_m < math.inf:
        raise ValueError(f"tolerance must be finite and at least 0, got {tolerance_m}")
    tp = fp = fn = 0
    for rec in records:
        hit = any(
            math.hypot(x - vx, y - vy) <= tolerance_m
            for x, y in rec.recorded for vx, vy, _ in victims)
        false_hit = any(
            all(math.hypot(x - vx, y - vy) > tolerance_m for vx, vy, _ in victims)
            for x, y in rec.recorded)
        if victims:
            tp += hit
            fn += not hit
        fp += false_hit
    n = len(records)
    confirmed = [r.elapsed_s for r in records if r.outcome == "Confirmed"]
    times = confirmed if confirmed else [r.elapsed_s for r in records]
    mean, sd, se, n_timed = _time_stats(times)
    return Metrics(mode=records[0].mode, runs=n, tp_pct=100.0 * tp / n,
                   fp_pct=100.0 * fp / n, fn_pct=100.0 * fn / n,
                   time_mean_s=mean, time_sd_s=sd, time_se_s=se, n_timed=n_timed)


def metrics_table(rows: list[Metrics]) -> str:
    hdr = f"{'mode':<10}{'runs':>6}{'TP%':>8}{'FP%':>8}{'FN%':>8}{'mean s':>10}{'SD s':>9}{'SE s':>9}"
    lines = [hdr, "-" * len(hdr)]
    for m in rows:
        lines.append(f"{m.mode:<10}{m.runs:>6}{m.tp_pct:>8.1f}{m.fp_pct:>8.1f}"
                     f"{m.fn_pct:>8.1f}{m.time_mean_s:>10.2f}{m.time_sd_s:>9.2f}"
                     f"{m.time_se_s:>9.2f}")
    return "\n".join(lines)


def write_metrics_csv(path, rows: list[Metrics]) -> None:
    with open(path, "w") as fh:
        fh.write("mode,runs,tp_pct,fp_pct,fn_pct,time_mean_s,time_sd_s,time_se_s,n_timed\n")
        for m in rows:
            fh.write(f"{m.mode},{m.runs},{m.tp_pct:.6f},{m.fp_pct:.6f},{m.fn_pct:.6f},"
                     f"{m.time_mean_s:.6f},{m.time_sd_s:.6f},{m.time_se_s:.6f},{m.n_timed}\n")


def heatmap_shape(bounds: Rect, cell: float) -> tuple[int, int]:
    """Rows and columns of the heatmap over ``bounds``; ``ValueError`` unless
    ``cell`` is finite and positive and gives at most ``MAX_RASTER_CELLS``."""
    if not 0 < cell < math.inf:
        raise ValueError(f"heatmap cell size must be finite and positive, got {cell}")
    try:
        nx = max(1, int(math.ceil(bounds.width / cell)))
        ny = max(1, int(math.ceil(bounds.height / cell)))
    except OverflowError:  # an extent over a tiny cell that overflows to inf
        ny = nx = math.inf
    if not ny * nx <= MAX_RASTER_CELLS:
        raise ValueError(f"a heatmap cell of {cell:g} m over {bounds.width:g} x {bounds.height:g}"
                         f" m needs {ny * nx:.3g} cells, more than {MAX_RASTER_CELLS:.0e}")
    return ny, nx


def export_heatmap(records: list[RunRecord], bounds: Rect, cell: float = 1.0
                   ) -> tuple[list[list[int]], list[float], list[float]]:
    """2D histogram of every recorded victim coordinate across runs.

    Returns (counts, x_centres, y_centres); counts is indexed [iy][ix].
    Coordinates outside the bounds are clipped into the border cells so no
    record is silently dropped.
    """
    ny, nx = heatmap_shape(bounds, cell)
    counts = [[0] * nx for _ in range(ny)]
    for rec in records:
        for x, y in rec.recorded:
            ix = min(max(int((x - bounds.x_min) / cell), 0), nx - 1)
            iy = min(max(int((y - bounds.y_min) / cell), 0), ny - 1)
            counts[iy][ix] += 1
    xs = [bounds.x_min + (i + 0.5) * cell for i in range(nx)]
    ys = [bounds.y_min + (i + 0.5) * cell for i in range(ny)]
    return counts, xs, ys


def write_heatmap_csv(path, counts: list[list[int]], xs: list[float], ys: list[float]) -> None:
    with open(path, "w") as fh:
        fh.write("x,y,count\n")
        for y, row in zip(ys, counts):
            for x, n in zip(xs, row):
                fh.write(f"{x:.3f},{y:.3f},{n}\n")


def write_heatmap_pgm(path, counts: list[list[int]]) -> None:
    peak = max((n for row in counts for n in row), default=0)
    scale = 255.0 / peak if peak else 0.0
    with open(path, "w") as fh:
        fh.write(f"P2\n{len(counts[0])} {len(counts)}\n255\n")
        for row in reversed(counts):
            fh.write(" ".join(str(int(n * scale)) for n in row) + "\n")
