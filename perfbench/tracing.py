"""Per-layer tracing from outside the program.

The tracer replaces the program's functions at their call bindings with
timing wrappers and puts the originals back on ``restore``. Each call
pushes a frame; on return its duration is added to the parent frame's child
time, so a frame's self time is its duration minus the time its children
cover. Calls that happen once per real step or less (the flight, planning,
belief updates, sensing, scoring) are kept as spans with a name, start,
end, parent span and flight id. Hot inner calls, which run hundreds of
thousands of times per flight, are only aggregated into call count, total
and self time per (flight, binding, parent, grandparent), so memory stays
bounded.

Wrapper bookkeeping that runs between a parent's clock reads and a child's
is charged to the parent's self time; the traced run reports the overall
tracing overhead next to the per-layer figures.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []    # frames: [name, parent name, child ns, span id]
        self.agg: dict[tuple, list] = {}   # (flight, site, parent, grandparent) -> [calls, total ns, self ns]
        self.spans: list[tuple] = []   # (id, name, start ns, end ns, parent id, flight)
        self.counters: Counter = Counter()
        self.flight = None
        self.site_names: dict[str, str] = {}
        self._span_ids = itertools.count()
        self._patches: list[tuple] = []

    def patch(self, owner, attr: str, name: str, *, span: bool = False,
              before=None, after=None) -> None:
        """Wrap ``owner.attr`` (a module global or a class attribute)."""
        original = owner.__dict__[attr]
        site = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        self.site_names[site] = name
        setattr(owner, attr, self._wrapper(original, site, name, span, before, after))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, site, name, span, before, after):
        stack, agg, spans = self.stack, self.agg, self.spans
        clock = time.perf_counter_ns
        span_ids = self._span_ids
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                pname, gname, parent_span = parent[0], parent[1], parent[3]
            else:
                pname = gname = parent_span = None
            span_id = next(span_ids) if span else parent_span
            frame = [name, pname, 0, span_id]
            pre = before(args) if before is not None else None
            result = failure = None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failure = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                key = (tracer.flight, site, pname, gname)
                slot = agg.get(key)
                if slot is None:
                    agg[key] = [1, dur, dur - frame[2]]
                else:
                    slot[0] += 1
                    slot[1] += dur
                    slot[2] += dur - frame[2]
                if span:
                    spans.append((span_id, name, t0, t1, parent_span, tracer.flight))
                if after is not None:
                    after(pre, args, result, failure)

        return wrapper

    # -- summaries -----------------------------------------------------

    def by_name(self) -> dict[str, list]:
        """name -> [calls, total ns, self ns] over every flight and parent."""
        out: dict[str, list] = {}
        for (_, site, _, _), (calls, total, self_ns) in self.agg.items():
            slot = out.setdefault(self.site_names[site], [0, 0, 0])
            slot[0] += calls
            slot[1] += total
            slot[2] += self_ns
        return out

    def site_calls(self) -> Counter:
        calls: Counter = Counter({site: 0 for site in self.site_names})
        for (_, site, _, _), slot in self.agg.items():
            calls[site] += slot[0]
        return calls

    def layer_self_ns(self, flight) -> dict[str, int]:
        """Self time of each layer (name prefix) inside one flight."""
        out: Counter = Counter()
        for (f, site, _, _), slot in self.agg.items():
            if f == flight:
                out[self.site_names[site].split(".")[0]] += slot[2]
        return dict(out)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` whose parent or grandparent is ``ancestor``."""
        return sum(slot[0] for (_, site, parent, grand), slot in self.agg.items()
                   if self.site_names[site] == name and ancestor in (parent, grand))

    def dump(self) -> dict:
        return {
            "spans": [dict(zip(("id", "name", "start_ns", "end_ns", "parent", "flight"), s))
                      for s in self.spans],
            "aggregates": [{"flight": f, "site": site, "name": self.site_names[site],
                            "parent": p, "grandparent": g, "calls": c,
                            "total_ns": t, "self_ns": s}
                           for (f, site, p, g), (c, t, s) in self.agg.items()],
        }


def install(tracer: Tracer) -> None:
    """Wrap every binding through which a flight reaches a layer function.

    ``missions`` imports the solver and model entry points, ``sense`` and
    ``footprint_extent`` by name; ``model`` and ``world`` call
    ``transition``, ``reward`` and ``footprint_extent`` through their own
    module globals; the model, coverage, occupancy and wind methods are
    patched on their classes.
    """
    from skysearch import coverage, metrics, missions, model, solver, world

    c = tracer.counters
    collapse = solver.BeliefCollapseError

    def plan_after(pre, args, result, exc):
        c["episodes"] += args[0].n_visits - pre

    def bootstrap_after(pre, args, result, exc):
        if result is not None:
            c["episodes"] += result.n_visits

    def advance_after(pre, args, result, exc):
        c["particles_advanced"] += pre
        if isinstance(exc, collapse):
            c["collapses"] += 1
        elif result is not None:
            c["advances"] += 1
            c["survival_sum"] += result.belief.survival_rate
            c["reused"] += result.n_visits > 0

    def sense_after(pre, args, result, exc):
        if result is not None:
            c["detections"] += bool(result.detected)

    def step_after(pre, args, result, exc):
        if result is not None:
            c["terminal"] += bool(result[3])

    def snapshot_after(pre, args, result, exc):
        if result is not None:
            c["snapshot_bytes"] += result.nbytes

    t = tracer
    t.patch(missions, "execute_run", "missions.flight", span=True)
    t.patch(missions, "plan_step", "solver.plan_step", span=True,
            before=lambda a: a[0].n_visits, after=plan_after)
    t.patch(missions, "bootstrap", "solver.bootstrap", span=True, after=bootstrap_after)
    t.patch(missions, "advance_belief", "solver.advance_belief", span=True,
            before=lambda a: len(a[0].belief.particles), after=advance_after)
    t.patch(missions, "initial_belief", "model.initial_belief", span=True)
    t.patch(missions, "sense", "world.sense", span=True, after=sense_after)
    t.patch(missions, "transition", "model.transition")
    t.patch(missions, "footprint_extent", "geometry.footprint_extent")
    t.patch(model, "transition", "model.transition")
    t.patch(model, "reward", "model.reward")
    t.patch(model, "footprint_extent", "geometry.footprint_extent")
    t.patch(world, "footprint_extent", "geometry.footprint_extent")
    t.patch(model.GenerativeModel, "step", "model.step", after=step_after)
    t.patch(model.GenerativeModel, "resimulate", "model.resimulate")
    t.patch(model.GenerativeModel, "reinvigorate", "model.reinvigorate")
    t.patch(coverage.CoverageMap, "snapshot", "coverage.snapshot", after=snapshot_after)
    t.patch(coverage.CoverageMap, "rect_overlap", "coverage.rect_overlap")
    t.patch(coverage.CoverageMap, "stamp_rect", "coverage.stamp_rect")
    t.patch(coverage.CoverageMap, "coverage_ratio", "coverage.coverage_ratio")
    t.patch(world.OccupancyGrid, "occupied", "world.occupied")
    t.patch(world.WindProcess, "active", "world.wind_active")
    t.patch(metrics, "compute_metrics", "metrics.compute_metrics", span=True)


def _per(a, b):
    return a / b if b else 0.0


def per_layer_metrics(tracer: Tracer, records) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, name -> (value, unit)."""
    n = tracer.by_name()
    c = tracer.counters

    def calls(name):
        return n.get(name, [0, 0, 0])[0]

    def mean(name, col, scale):   # col 1 = total, 2 = self
        slot = n.get(name, [0, 0, 0])
        return _per(slot[col], slot[0]) / scale

    search_ns = n.get("solver.plan_step", [0, 0])[1] + n.get("solver.bootstrap", [0, 0])[1]
    flights = len(records)
    return {
        "solver.plan_step.calls": (calls("solver.plan_step"), "count"),
        "solver.plan_step.self_ms": (mean("solver.plan_step", 2, 1e6), "ms"),
        "solver.episodes": (c["episodes"], "count"),
        "solver.episode_us": (_per(search_ns, c["episodes"]) / 1e3, "us"),
        "solver.bootstrap.calls": (calls("solver.bootstrap"), "count"),
        "solver.bootstrap_ms": (mean("solver.bootstrap", 1, 1e6), "ms"),
        "solver.advance_belief.calls": (calls("solver.advance_belief"), "count"),
        "solver.advance_belief.self_ms": (mean("solver.advance_belief", 2, 1e6), "ms"),
        "solver.advance_us_per_particle": (
            _per(n.get("solver.advance_belief", [0, 0])[1], c["particles_advanced"]) / 1e3,
            "us"),
        "solver.survivor_ratio": (_per(c["survival_sum"], c["advances"]), "ratio"),
        "solver.subtree_reuse_ratio": (_per(c["reused"], c["advances"]), "ratio"),
        "solver.collapses": (c["collapses"], "count"),
        "model.step.calls": (calls("model.step"), "count"),
        "model.step.self_ns": (mean("model.step", 2, 1), "ns"),
        "model.terminal_ratio": (_per(c["terminal"], calls("model.step")), "ratio"),
        "model.transition.calls": (calls("model.transition"), "count"),
        "model.transition_ns": (mean("model.transition", 1, 1), "ns"),
        "model.reward_ns": (mean("model.reward", 1, 1), "ns"),
        "model.resimulate.calls": (calls("model.resimulate"), "count"),
        "model.resimulate.self_ns": (mean("model.resimulate", 2, 1), "ns"),
        "model.reinvigorate.calls": (calls("model.reinvigorate"), "count"),
        "model.reinvigorate_ns": (mean("model.reinvigorate", 1, 1), "ns"),
        "model.initial_belief_ms": (mean("model.initial_belief", 1, 1e6), "ms"),
        "coverage.snapshot.calls": (calls("coverage.snapshot"), "count"),
        "coverage.snapshot_ns": (mean("coverage.snapshot", 1, 1), "ns"),
        "coverage.snapshot_bytes": (_per(c["snapshot_bytes"], calls("coverage.snapshot")),
                                    "bytes"),
        "coverage.rect_overlap.calls": (calls("coverage.rect_overlap"), "count"),
        "coverage.rect_overlap_ns": (mean("coverage.rect_overlap", 1, 1), "ns"),
        "coverage.stamp_rect.calls": (calls("coverage.stamp_rect"), "count"),
        "coverage.stamp_rect_ns": (mean("coverage.stamp_rect", 1, 1), "ns"),
        "coverage.coverage_ratio.calls": (calls("coverage.coverage_ratio"), "count"),
        "coverage.coverage_ratio_ns": (mean("coverage.coverage_ratio", 1, 1), "ns"),
        "geometry.footprint_extent.calls": (calls("geometry.footprint_extent"), "count"),
        "geometry.footprint_extent.per_model_step": (
            _per(tracer.calls_under("geometry.footprint_extent", "model.step"),
                 calls("model.step")), "ratio"),
        "geometry.footprint_extent_ns": (mean("geometry.footprint_extent", 1, 1), "ns"),
        "world.sense.calls": (calls("world.sense"), "count"),
        "world.sense_us": (mean("world.sense", 1, 1e3), "us"),
        "world.detect_ratio": (_per(c["detections"], calls("world.sense")), "ratio"),
        "world.occupied.calls": (calls("world.occupied"), "count"),
        "world.occupied_ns": (mean("world.occupied", 1, 1), "ns"),
        "world.wind_active.calls": (calls("world.wind_active"), "count"),
        "missions.flight.self_ms": (mean("missions.flight", 2, 1e6), "ms"),
        "missions.real_steps": (_per(sum(len(r.trajectory) - 1 for r in records), flights),
                                "count"),
        "metrics.compute_metrics_ms": (mean("metrics.compute_metrics", 1, 1e6), "ms"),
    }
