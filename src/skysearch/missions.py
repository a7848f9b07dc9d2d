"""The three flight modes driving the UAV through the simulated world.

mission  - lawnmower waypoint survey, detector logging raw positives
offboard - pure planner flight from an all-area victim belief
hybrid   - lawnmower survey that pauses for a planner-driven inspection
           whenever the detector reports something, then resumes

Each run is one flight object that owns its RNG streams, wind, coverage
map, record, pose and clock, so batches can fan out across processes
without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from random import Random

from .coverage import CoverageMap, Rect
from .geometry import CameraIntrinsics, EnuPoint, footprint_extent
from .model import (ActionCmd, GenerativeModel, ModelConfig, PomdpState, RewardParams,
                    action_displacement, initial_belief, transition)
from .solver import SolverConfig, advance_belief, bootstrap, plan_step
from .world import DetectorProfile, Scenario, WindProcess, sense

OUTCOMES = ("Confirmed", "SurveyCompleteNoVictim", "Timeout", "Crash", "OutOfBounds")

# hybrid inspections
CONFIRM_SUPPRESS_RADIUS = 2.0  # a detection this close to a recorded coordinate is no news
INSPECT_STEP_CAP = 28          # real planner steps per inspection
DISCARD_PRESENT_MASS = 0.05    # discard the detection below this victim-present mass
INSPECT_PRIOR = 0.8            # victim-present prior seeding an inspection


@dataclass
class RunRecord:
    """Everything one simulated flight produced."""

    mode: str
    seed: str
    outcome: str = "Timeout"
    elapsed_s: float = 0.0
    trajectory: list[tuple[float, float, float, float]] = field(default_factory=list)
    detections: list[tuple[float, float, float, float]] = field(default_factory=list)
    recorded: list[tuple[float, float]] = field(default_factory=list)
    confirmations: list[tuple[float, float, float, float]] = field(default_factory=list)
    mode_events: list[tuple[float, str]] = field(default_factory=list)
    coverage: float = 0.0
    solver_trace: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field but ``solver_trace``, which has its own file."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "solver_trace"}

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """Inverse of ``to_dict``, with list rows back as tuples. A missing
        ``coverage`` or ``mode_events`` takes its default; any other missing
        field raises ``KeyError``."""
        values = {}
        for f in fields(cls):
            if f.name == "solver_trace" or (f.name in ("coverage", "mode_events")
                                            and f.name not in d):
                continue
            value = d[f.name]
            values[f.name] = [tuple(row) for row in value] if isinstance(value, list) else value
        return cls(**values)


def lawnmower_waypoints(survey: Rect, cam: CameraIntrinsics, overlap: float = 0.30,
                        altitude: float = 16.0) -> list[EnuPoint]:
    """Survey waypoints at constant altitude: boustrophedon legs parallel
    to the survey's long axis, flown at ``ModelConfig.speed``.

    Lane spacing is the cross-track footprint width shrunk by the requested
    overlap; the whole swath is centred so the stamped union covers the
    rectangle while every leg stays inside it. A survey narrower than one
    footprint gets a single centred leg.
    """
    if survey.width <= 0 or survey.height <= 0:
        raise ValueError("survey rectangle is degenerate")
    l_top, l_bottom, l_left, l_right = footprint_extent(altitude, cam)
    along_x = survey.width >= survey.height
    cross = (l_top - l_bottom) if along_x else (l_right - l_left)
    spacing = cross * (1.0 - overlap)
    cross_size = survey.height if along_x else survey.width
    cross_min = survey.y_min if along_x else survey.x_min
    if cross_size <= cross:
        lanes = [cross_min + cross_size / 2.0]
    else:
        n = int(math.ceil((cross_size - cross) / spacing)) + 1
        swath = (n - 1) * spacing + cross
        first = cross_min + cross_size / 2.0 - swath / 2.0 + cross / 2.0
        lanes = [first + i * spacing for i in range(n)]
    lo, hi = (survey.x_min, survey.x_max) if along_x else (survey.y_min, survey.y_max)
    waypoints = []
    for i, lane in enumerate(lanes):
        ends = (lo, hi) if i % 2 == 0 else (hi, lo)
        for e in ends:
            waypoints.append(EnuPoint(e, lane, altitude) if along_x
                             else EnuPoint(lane, e, altitude))
    return waypoints


class _Follower:
    """Moves along a waypoint polyline by a fixed distance per tick."""

    def __init__(self, waypoints: list[EnuPoint]):
        self.wps = waypoints
        self.idx = 0
        self.pos = waypoints[0]
        self.done = len(waypoints) < 2

    def advance(self, dist: float) -> EnuPoint:
        x, y, z = self.pos.x, self.pos.y, self.pos.z
        while dist > 0 and self.idx < len(self.wps) - 1:
            tgt = self.wps[self.idx + 1]
            seg = math.dist((x, y, z), (tgt.x, tgt.y, tgt.z))
            if seg <= dist + 1e-12:
                x, y, z = tgt.x, tgt.y, tgt.z
                self.idx += 1
                dist -= seg
            else:
                f = dist / seg
                x += f * (tgt.x - x)
                y += f * (tgt.y - y)
                z += f * (tgt.z - z)
                dist = 0.0
        if self.idx >= len(self.wps) - 1:
            self.done = True
        self.pos = EnuPoint(x, y, z)
        return self.pos


def _stamp_swept(cov: CoverageMap, cam: CameraIntrinsics, p0: EnuPoint, p1: EnuPoint) -> None:
    """Stamp the corridor the camera swept between two poses."""
    d = math.dist((p0.x, p0.y, p0.z), (p1.x, p1.y, p1.z))
    k = max(1, int(math.ceil(d / cov.cell_size)))
    for i in range(1, k + 1):
        f = i / k
        x = p0.x + f * (p1.x - p0.x)
        y = p0.y + f * (p1.y - p0.y)
        z = p0.z + f * (p1.z - p0.z)
        l_top, l_bottom, l_left, l_right = footprint_extent(max(z, 1e-6), cam)
        cov.stamp_rect(x + l_left, y + l_bottom, x + l_right, y + l_top)


def _near_any(x: float, y: float, coords: list[tuple[float, float]], radius: float) -> bool:
    return any(math.hypot(x - cx, y - cy) <= radius for cx, cy in coords)


@dataclass
class RunSetup:
    """One run's fully resolved configuration."""

    scenario: Scenario
    mode: str
    seed: str
    cfg: ModelConfig
    solver_cfg: SolverConfig
    params: RewardParams
    cam: CameraIntrinsics
    profile: DetectorProfile


def build_setup(scenario: Scenario, mode: str, seed) -> RunSetup:
    if mode not in ("mission", "offboard", "hybrid"):
        raise ValueError(f"unknown flight mode {mode!r}")
    return RunSetup(scenario=scenario, mode=mode, seed=str(seed), cfg=scenario.cfg,
                    solver_cfg=scenario.solver, params=RewardParams(),
                    cam=CameraIntrinsics(), profile=scenario.detector_profile())


def execute_run(setup: RunSetup) -> RunRecord:
    """Fly one run in its own flight object and return its record."""
    flight = _Flight(setup)
    if setup.mode == "offboard":
        return flight.offboard()
    return flight.survey()


def _inside(pose: EnuPoint, box: Rect, inflate: float) -> bool:
    return (box.x_min - inflate <= pose.x <= box.x_max + inflate
            and box.y_min - inflate <= pose.y <= box.y_max + inflate)


def _allowed_actions(pose: EnuPoint, cfg: ModelConfig, cam: CameraIntrinsics) -> list[int]:
    """Actions whose nominal set-point the motion server would accept
    (inside the survey box and altitude band). Hover always qualifies."""
    box = cfg.survey
    allowed = []
    for a in ActionCmd:
        dx, dy, dz = action_displacement(a, pose.z, cam, cfg)
        nx, ny, nz = pose.x + dx, pose.y + dy, pose.z + dz
        if (box.x_min <= nx <= box.x_max and box.y_min <= ny <= box.y_max
                and cfg.z_min <= nz <= cfg.z_max):
            allowed.append(int(a))
    return allowed or [int(ActionCmd.HOVER)]


# planner-loop events that end an offboard flight; the rest are Timeout
_OFFBOARD_OUTCOMES = {"confirmed": "Confirmed", "survey_done": "SurveyCompleteNoVictim",
                      "crash": "Crash", "out": "OutOfBounds"}


class _Flight:
    """One run: its setup, the ``:world``/``:solver``/``:wind`` RNG streams,
    the wind process, the coverage map, the record, and the pose and clock.

    Every mode moves through the same tick (``move``), senses through the
    same call (``observe``) and ends through ``finish``. Mission and hybrid
    share the survey loop and differ only in the detection policy; offboard
    and hybrid inspections share the planner loop.
    """

    def __init__(self, setup: RunSetup):
        cfg, truth = setup.cfg, setup.scenario.truth
        self.setup, self.cfg, self.truth = setup, cfg, truth
        self.rec = RunRecord(mode=setup.mode, seed=setup.seed)
        self.rng_world = Random(f"{setup.seed}:world")
        self.rng_solver = Random(f"{setup.seed}:solver")
        self.wind = WindProcess(truth.wind_rate, truth.wind_mean_duration,
                                Random(f"{setup.seed}:wind"))
        self.cov = CoverageMap(cfg.survey, cell_size=cfg.obs_cell)
        self.step = cfg.speed * cfg.dt
        self.inflate = self.step + cfg.roi_slack
        self.pose = self.prev = None
        self.t = 0.0

    # -- shared pieces ---------------------------------------------------

    def start(self, pose: EnuPoint, event: str) -> None:
        """Place the UAV at its start pose at t = 0 and stamp its first view."""
        self.pose = pose
        self.rec.trajectory.append((self.t, pose.x, pose.y, pose.z))
        self.rec.mode_events.append((self.t, event))
        _stamp_swept(self.cov, self.setup.cam, pose, pose)

    def move(self, pose: EnuPoint) -> None:
        """One tick: advance the clock, stamp the swept corridor, log the pose."""
        self.prev, self.pose = self.pose, pose
        self.t += self.cfg.dt
        _stamp_swept(self.cov, self.setup.cam, self.prev, pose)
        self.rec.trajectory.append((self.t, pose.x, pose.y, pose.z))

    def observe(self):
        """The detector's report on the tick that just ended."""
        setup, cfg = self.setup, self.cfg
        return sense(self.pose, setup.cam, self.truth, setup.profile, self.rng_world,
                     prev_pose=self.prev, wind=self.wind, t0=self.t - cfg.dt, t1=self.t,
                     est_noise_xy=cfg.est_noise_xy, est_noise_z=cfg.est_noise_z)

    def finish(self, outcome: str, done_event: bool) -> RunRecord:
        rec = self.rec
        rec.outcome = outcome
        if done_event:
            rec.mode_events.append((self.t, f"Done({outcome})"))
        rec.elapsed_s = self.t
        rec.coverage = self.cov.coverage_ratio()
        return rec

    # -- survey loop (mission, hybrid) -----------------------------------

    def survey(self) -> RunRecord:
        """Fly the lawnmower plan. Mission logs every detection at or above
        the minimum confidence as a recorded victim coordinate (the
        baseline's raw behaviour); hybrid pauses for an inspection on each
        fresh detection the pass itself does not confirm."""
        setup, cfg = self.setup, self.cfg
        hybrid = setup.mode == "hybrid"
        follow = _Follower(lawnmower_waypoints(cfg.survey, setup.cam, altitude=cfg.z_max))
        self.start(follow.pos, "MissionLeg")
        on_detection = self._inspect if hybrid else self._log
        while True:
            self.move(follow.advance(self.step))
            pose = self.pose
            if self.truth.obstacles.occupied(pose.x, pose.y, pose.z):
                return self.finish("Crash", False)
            if not _inside(pose, cfg.survey, self.inflate):
                return self.finish("OutOfBounds", False)
            event = on_detection(self.observe())
            if event == "crash":
                return self.finish("Crash", False)
            if event == "timeout" or follow.done or self.t >= cfg.t_max:
                break
        timed_out = event == "timeout" or not follow.done
        # mission counts its log only once the plan is flown; hybrid counts
        # any confirmation
        if self.rec.recorded and (hybrid or not timed_out):
            return self.finish("Confirmed", hybrid)
        return self.finish("Timeout" if timed_out else "SurveyCompleteNoVictim", hybrid)

    def _log(self, obs) -> None:
        if obs.detected and obs.zeta >= self.cfg.zeta_min:
            self.rec.detections.append((self.t, obs.pv_x, obs.pv_y, obs.zeta))
            self.rec.recorded.append((obs.pv_x, obs.pv_y))

    def _inspect(self, obs) -> str | None:
        """Hybrid detection policy. A fresh detection (not near an already
        confirmed coordinate) is confirmed on the pass when it clears the
        bar; otherwise a planner inspection over a camera-footprint patch
        centred on it runs, then the UAV returns to the pause point. No
        inspection starts and no return leg moves once the clock has run
        out. Returns ``timeout`` or ``crash`` when the flight must end."""
        setup, cfg, rec = self.setup, self.cfg, self.rec
        if not (obs.detected and obs.zeta >= cfg.zeta_min) or _near_any(
                obs.pv_x, obs.pv_y, rec.recorded, CONFIRM_SUPPRESS_RADIUS):
            return None
        rec.detections.append((self.t, obs.pv_x, obs.pv_y, obs.zeta))
        if obs.zeta >= cfg.zeta:
            rec.confirmations.append((self.t, obs.pv_x, obs.pv_y, obs.zeta))
            rec.recorded.append((obs.pv_x, obs.pv_y))
            return None
        if self.t >= cfg.t_max:
            return "timeout"
        resume = self.pose
        rec.mode_events.append((self.t, "HybridInspecting"))
        l_top, l_bottom, l_left, l_right = footprint_extent(resume.z, setup.cam)
        region = Rect(obs.pv_x + l_left, obs.pv_y + l_bottom,
                      obs.pv_x + l_right, obs.pv_y + l_top)
        event = self.plan(region, INSPECT_PRIOR, detection=(obs.pv_x, obs.pv_y, obs.zeta),
                          max_steps=INSPECT_STEP_CAP, discard_mass=DISCARD_PRESENT_MASS)
        if event in ("timeout", "crash"):
            return event
        # every other inspection end resumes the survey; the return leg
        # keeps the detector running but skips the crash and bounds checks
        back = _Follower([self.pose, resume])
        while not back.done and self.t < cfg.t_max:
            self.move(back.advance(self.step))
            self.observe()
        rec.mode_events.append((self.t, "MissionLeg"))
        return "timeout" if self.t >= cfg.t_max else None

    # -- planner loop (offboard, hybrid inspections) ---------------------

    def offboard(self) -> RunRecord:
        """Planner-only flight: all-area victim belief, plan/act/sense loop
        until confirmation, survey completion or the clock."""
        survey = self.cfg.survey
        inset = min(1.0, survey.width / 4, survey.height / 4)
        self.start(EnuPoint(survey.x_min + inset, survey.y_min + inset, self.cfg.z_max),
                   "OffboardPlanning")
        event = self.plan(survey, 1.0)
        return self.finish(_OFFBOARD_OUTCOMES.get(event, "Timeout"), True)

    def plan(self, region: Rect, victim_prior: float, *, detection: tuple | None = None,
             max_steps: int = 1 << 30, discard_mass: float | None = None) -> str:
        """Run the plan/act/sense/update loop from the current pose until a
        terminal event: ``confirmed``, ``discarded``, ``cap``, ``timeout``,
        ``crash``, ``out`` or ``survey_done``. The model refills the belief
        after every real step, so it never runs empty."""
        setup, cfg, rec, scfg = self.setup, self.cfg, self.rec, self.setup.solver_cfg
        model = GenerativeModel(cfg, setup.params, setup.cam,
                                occupancy=self.truth.obstacles, cov_map=self.cov,
                                prior_region=region, victim_prior=max(victim_prior, 1e-9))
        belief = initial_belief(cfg, scfg.n_particles, self.rng_solver,
                                start=self.pose, region=region,
                                victim_present_prior=victim_prior, detection=detection)
        root = bootstrap(model, belief, scfg, self.rng_solver)
        # while the belief holds a detection, closing in: spend more episodes,
        # exploit harder and look just far enough ahead that the
        # altitude-bonus gradient is not drowned by random-rollout noise; the
        # remaining decision is a short descend-and-centre corridor
        boosted = max(1, int(scfg.episodes_per_step * scfg.engaged_boost))
        engaged_cfg = replace(scfg, episodes_per_step=boosted, ucb_c=scfg.ucb_c / 3.0,
                              max_depth=min(scfg.max_depth, 4))
        self.t += cfg.dt  # offline bootstrap tick
        steps = 0
        while True:
            if self.t >= cfg.t_max:
                return "timeout"
            if steps >= max_steps:
                return "cap"
            allowed = _allowed_actions(self.pose, cfg, setup.cam)
            particles = root.belief.particles
            engaged = sum(p.f_dct for p in particles) >= 0.25 * len(particles)
            visits = root.n_visits
            action = plan_step(root, model, engaged_cfg if engaged else scfg, self.rng_solver,
                               allowed=allowed)
            episodes = root.n_visits - visits  # the episodes run, fewer under step_seconds
            planned_q = root.q_values()
            n_particles = len(root.belief.particles)
            pose = self.pose
            state = PomdpState(pose.x, pose.y, pose.z, victim_present=False)
            state = transition(state, ActionCmd(action), cfg, setup.cam,
                               None, self.rng_world, geofence=True)  # crash checked below
            self.move(EnuPoint(state.x, state.y, state.z))
            steps += 1
            if self.truth.obstacles.occupied(state.x, state.y, state.z):
                return "crash"
            if not _inside(self.pose, cfg.survey, self.inflate):
                return "out"
            obs = self.observe()
            if obs.detected and obs.zeta >= cfg.zeta_min:
                rec.detections.append((self.t, obs.pv_x, obs.pv_y, obs.zeta))
            if obs.detected and obs.zeta >= cfg.zeta:
                rec.confirmations.append((self.t, obs.pv_x, obs.pv_y, obs.zeta))
                rec.recorded.append((obs.pv_x, obs.pv_y))
                return "confirmed"
            root = advance_belief(root, action, obs, model, scfg, self.rng_solver)
            belief_now = root.belief
            rec.solver_trace.append({
                "t": self.t, "action": ActionCmd(action).name,
                "q": [round(q, 3) if q == q else None for q in planned_q],
                "particles": n_particles, "episodes": episodes,
                "survival": round(belief_now.survival_rate, 4)})
            if discard_mass is not None:
                # the victim-present mass after the refill: reinvigorated
                # particles are observation-consistent, so a missed detection
                # drains it and a positive one restores it
                particles = belief_now.particles
                present = sum(p.victim_present for p in particles)
                if present / len(particles) < discard_mass:
                    return "discarded"
            if self.cov.coverage_ratio() >= cfg.coverage_done:
                return "survey_done"
