"""Output checks applied to every flight record the benchmark produces."""

from __future__ import annotations


def record_violations(rec, setup, outcomes) -> list[str]:
    """Every way ``rec`` breaks the flight invariants; empty when it is sound.

    Coordinates must lie inside the survey rectangle inflated by the flight
    loops' own out-of-bounds margin (one tick of travel plus ``roi_slack``).
    The only pose allowed beyond it is the last one of an ``OutOfBounds``
    flight, which is how that outcome is detected.
    """
    cfg = setup.cfg
    bad = []
    if rec.outcome not in outcomes:
        bad.append(f"outcome {rec.outcome!r} not in {outcomes}")
    times = [row[0] for row in rec.trajectory]
    if any(b <= a for a, b in zip(times, times[1:])):
        bad.append("trajectory times do not strictly increase")
    if not rec.elapsed_s <= cfg.t_max + cfg.dt:
        bad.append(f"elapsed_s {rec.elapsed_s} > t_max + dt = {cfg.t_max + cfg.dt}")
    if not 0.0 <= rec.coverage <= 1.0:
        bad.append(f"coverage {rec.coverage} outside [0, 1]")
    box = cfg.survey
    tol = cfg.speed * cfg.dt + cfg.roi_slack

    def inside(x, y):
        return (box.x_min - tol <= x <= box.x_max + tol
                and box.y_min - tol <= y <= box.y_max + tol)

    poses = [(x, y) for _, x, y, _ in rec.trajectory]
    if rec.outcome == "OutOfBounds" and poses:
        if inside(*poses[-1]):
            bad.append("OutOfBounds flight ends inside the survey margin")
        poses = poses[:-1]
    points = (poses + list(rec.recorded)
              + [(x, y) for _, x, y, _ in rec.detections]
              + [(x, y) for _, x, y, _ in rec.confirmations])
    outside = [p for p in points if not inside(*p)]
    if outside:
        bad.append(f"{len(outside)} coordinate(s) outside the survey rectangle "
                   f"inflated by {tol} m, first {outside[0]}")
    return bad
