"""POMDP formulation of the search-and-detect problem.

State, action and observation spaces, the transition and reward functions,
and the generative observation model the tree-search planner samples from.
All functions are pure given an explicit RNG handle.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from dataclasses import dataclass, field
from enum import IntEnum
from random import Random
from typing import NamedTuple

from .coverage import CoverageMap, Rect
from .geometry import CameraIntrinsics, EnuPoint, footprint_extent
from .solver import ParticleBelief


def _load_normal_table(path: str) -> array:
    """The 2**16 float64 quantiles stored little-endian at ``path``; a missing
    file or one of the wrong size raises ``RuntimeError`` naming the path."""
    size = 8 << 16
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise RuntimeError(f"cannot read the normal table {path}: {exc.strerror}") from None
    if len(data) != size:
        raise RuntimeError(f"the normal table {path} holds {len(data)} bytes, "
                           f"not {size}")
    table = array("d")
    table.frombytes(data)
    if sys.byteorder == "big":
        table.byteswap()
    return table


# All model noise is ``_NORMAL[rng.getrandbits(16)] * sigma``: one table read
# instead of a ``random.gauss`` call, which cost about a quarter of planner
# time. The table holds the standard-normal quantiles at ``(i + 0.5) / 2**16``
# (the lower half from ``statistics.NormalDist().inv_cdf``, the upper half
# its mirror); its standard deviation is 0.99999 and its largest entry 4.3249.
# It ships as package data: computing it cost every cold start about 15 ms.
# ``reference_normal_quantiles`` in ``tests/test_model.py`` is the generator,
# and a test pins the file to it byte for byte. The world's detector
# (``world.sense``) stands in for reality and keeps ``random.gauss``.
_NORMAL = _load_normal_table(os.path.join(os.path.dirname(__file__), "normal_quantiles.bin"))


class ActionCmd(IntEnum):
    """The seven position commands. Enum order is the deterministic
    tie-break order used by the planner."""

    FORWARD = 0   # +x
    BACKWARD = 1  # -x
    LEFT = 2      # +y
    RIGHT = 3     # -y
    UP = 4
    DOWN = 5
    HOVER = 6


# the members by position and as plain globals: ``ActionCmd(a)`` and
# ``ActionCmd.HOVER`` each cost a few hundred ns, paid on every planner step
_ACTIONS = tuple(ActionCmd)
_FORWARD, _BACKWARD, _LEFT, _RIGHT, _UP, _DOWN, _HOVER = _ACTIONS
# ``_tuple_new(PomdpState, fields)`` skips the NamedTuple's Python-level ``__new__``
_tuple_new = tuple.__new__
_floor, _ceil = math.floor, math.ceil  # floor and ceil of a float already give an int


class PomdpState(NamedTuple):
    """UAV pose plus mission flags and the victim hypothesis, as an
    immutable named tuple, which is cheap to build: the planner builds one
    per imagined move.

    ``victim_present`` marks whether this hypothesis contains a victim at
    all: the belief needs an explicit absence hypothesis so that a potential
    victim can be discarded after fruitless inspection. ``victim_x/y`` are
    meaningful only when ``victim_present`` is true.
    """

    x: float
    y: float
    z: float
    f_crash: bool = False
    f_roi: bool = False
    f_dct: bool = False
    victim_x: float = 0.0
    victim_y: float = 0.0
    victim_present: bool = True
    c_v: float = 0.0


@dataclass(frozen=True, slots=True)
class Observation:
    """What the UAV perceives after a step: estimated own position,
    detection flag with victim position and confidence (only on positive
    detections), and the obstacle-ahead flag."""

    pu_x: float
    pu_y: float
    pu_z: float
    detected: bool
    pv_x: float | None = None
    pv_y: float | None = None
    zeta: float | None = None
    obstacle_ahead: bool = False


@dataclass(frozen=True)
class RewardParams:
    """Reward constants; defaults are the flight-tested values."""

    crash: float = -50.0
    out: float = -25.0
    detect: float = 25.0
    confirm: float = 50.0
    action: float = -2.5
    fov: float = -5.0


@dataclass
class ModelConfig:
    """Mission and model constants.

    Defaults reproduce the survey configuration: 16 m ceiling, 5.25 m
    floor, 2 m climb step, 40 % frame overlap, 10 % / 85 % confidence
    thresholds, 0.95 discount, 4 s ticks, 10 min flight budget.
    """

    z_max: float = 16.0
    z_min: float = 5.25
    climb_step: float = 2.0
    overlap: float = 0.40          # desired frame overlap for horizontal steps
    zeta_min: float = 0.10
    zeta: float = 0.85
    gamma: float = 0.95
    dt: float = 4.0
    t_max: float = 600.0
    survey: Rect = field(default_factory=lambda: Rect(0.0, 0.0, 60.0, 6.0))
    conf_bin: float = 0.05         # observation confidence bin width
    obs_cell: float = 0.5          # observation position bin (coverage cell)
    move_noise_xy: float = 0.3     # per-step position noise, metres
    move_noise_z: float = 0.2
    est_noise_xy: float = 0.1      # position-estimate noise, metres
    est_noise_z: float = 0.05
    roi_slack: float = 0.5         # tolerance before a pose counts as out of limits
    paper_literal_confidence: bool = False
    speed: float = 2.0             # waypoint-following speed, m/s
    coverage_done: float = 0.995   # survey considered complete at this ratio

    def __post_init__(self) -> None:
        if not self.z_min < self.z_max:
            raise ValueError("z_min must be below z_max")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("discount factor gamma must be in (0, 1]")
        if not 0.0 <= self.zeta_min < self.zeta <= 1.0:
            raise ValueError("need 0 <= zeta_min < zeta <= 1")
        if not self.dt > 0.0:
            raise ValueError("tick length dt must be positive")
        if not self.t_max > 0.0:
            raise ValueError("flight budget t_max must be positive")
        if not (self.survey.width > 0.0 and self.survey.height > 0.0):
            raise ValueError("survey must have a positive width and height")
        if not 0.0 < self.coverage_done <= 1.0:
            raise ValueError("survey completion ratio coverage_done must be in (0, 1]")
        if not self.roi_slack >= 0.0:
            raise ValueError("out-of-limits tolerance roi_slack must not be negative")
        if not self.conf_bin > 0.0:
            raise ValueError("confidence bin width conf_bin must be positive")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError(f"frame overlap fraction overlap must be in [0, 1), "
                             f"got {self.overlap}")
        if not self.speed > 0.0:
            raise ValueError("waypoint-following speed must be positive")
        if not self.climb_step > 0.0:
            raise ValueError("vertical step climb_step must be positive")
        if not self.obs_cell > 0.0:
            raise ValueError("observation cell obs_cell must be positive")
        for name in ("move_noise_xy", "move_noise_z", "est_noise_xy", "est_noise_z"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"noise scale {name} must not be negative, "
                                 f"got {getattr(self, name)}")
        # the coverage raster spans the survey plus the map margin on each
        # side; raster_shape raises past coverage.MAX_RASTER_CELLS cells
        CoverageMap.raster_shape(self.survey, self.obs_cell)

    def d_w(self) -> float:
        """Manhattan diagonal of the survey area (maximum exploration
        distance)."""
        return self.survey.width + self.survey.height


# ---------------------------------------------------------------------------
# confidence models

def confidence_proximity(d_uv: float, cfg: ModelConfig) -> float:
    """Default modeled detection confidence: grows as the UAV closes in,
    from zeta_min at (or beyond) the altitude ceiling to 1.0 at the floor."""
    d = min(max(d_uv, cfg.z_min), cfg.z_max)
    return cfg.zeta_min + (1.0 - cfg.zeta_min) * (cfg.z_max - d) / (cfg.z_max - cfg.z_min)


def confidence_paper_literal(d_uv: float, cfg: ModelConfig) -> float:
    """Alternate confidence model that grows with distance, the opposite
    direction to the default. Kept selectable for comparison; clamped into
    [0, 1] so state invariants hold outside the altitude band."""
    raw = (1.0 - cfg.zeta_min) * (d_uv - cfg.z_min + cfg.zeta_min) / (cfg.z_max - cfg.z_min)
    return min(max(raw, 0.0), 1.0)


def confidence_model(cfg: ModelConfig):
    """The confidence curve ``cfg`` selects, as a function of ``(d_uv, cfg)``."""
    return confidence_paper_literal if cfg.paper_literal_confidence else confidence_proximity


def modeled_confidence(d_uv: float, cfg: ModelConfig) -> float:
    return confidence_model(cfg)(d_uv, cfg)


# ---------------------------------------------------------------------------
# core operations

def action_displacement(a: ActionCmd, z: float, cam: CameraIntrinsics,
                        cfg: ModelConfig) -> tuple[float, float, float]:
    """Commanded displacement of ``a`` at altitude ``z``. A horizontal step
    is the footprint length along its axis times ``1 - overlap``, so
    consecutive frames keep the configured overlap."""
    if a >= _UP:  # UP, DOWN and HOVER
        if a == _HOVER:
            return 0.0, 0.0, 0.0
        return 0.0, 0.0, cfg.climb_step if a == _UP else -cfg.climb_step
    if z <= 0:
        raise ValueError(f"altitude must be positive, got {z}")
    top, bottom, left, right = cam.extent_1m
    keep = 1.0 - cfg.overlap  # ``overlap`` is range-checked by ModelConfig
    if a == _FORWARD:
        return (z * right - z * left) * keep, 0.0, 0.0
    if a == _BACKWARD:
        return -((z * right - z * left) * keep), 0.0, 0.0
    if a == _LEFT:
        return 0.0, (z * top - z * bottom) * keep, 0.0
    return 0.0, -((z * top - z * bottom) * keep), 0.0


def transition(s: PomdpState, a: ActionCmd, cfg: ModelConfig, cam: CameraIntrinsics,
               occupancy, rng: Random, geofence: bool = False) -> PomdpState:
    """One motion step: commanded displacement plus position noise, then
    flag recomputation. ``geofence`` clamps the commanded set-point into the
    flying limits the way the motion server does on the real vehicle; the
    planner's imagined transitions leave it off so breaching the limits
    stays a terminal failure it can reason about.
    """
    x, y, z, _, _, _, vx, vy, present, _ = s
    dx, dy, dz = action_displacement(a, z, cam, cfg)
    nx, ny, nz = x + dx, y + dy, z + dz
    box = cfg.survey
    if geofence:
        nx = min(max(nx, box.x_min), box.x_max)
        ny = min(max(ny, box.y_min), box.y_max)
        nz = min(max(nz, cfg.z_min), cfg.z_max)
    sigma_xy, sigma_z = cfg.move_noise_xy, cfg.move_noise_z
    bits = rng.getrandbits
    if sigma_xy > 0.0:
        nx += _NORMAL[bits(16)] * sigma_xy
        ny += _NORMAL[bits(16)] * sigma_xy
    if sigma_z > 0.0:
        nz += _NORMAL[bits(16)] * sigma_z
    slack = cfg.roi_slack  # out of the flying limits by more than the slack
    f_roi = (nx < box.x_min - slack or nx > box.x_max + slack
             or ny < box.y_min - slack or ny > box.y_max + slack
             or nz < cfg.z_min - slack or nz > cfg.z_max + slack)
    # nothing is occupied at or above the grid's top, where most poses are
    f_crash = (occupancy is not None and nz < occupancy.top_z
               and occupancy.occupied(nx, ny, nz))
    f_dct = False
    c_v = 0.0
    if present and not f_crash and not f_roi:
        # ``footprint_extent(max(nz, 1e-6), cam)``, multiplied out inline
        top, bottom, left, right = cam.extent_1m
        h = 1e-6 if nz < 1e-6 else nz
        if nx + h * left <= vx <= nx + h * right and ny + h * bottom <= vy <= ny + h * top:
            f_dct = True
            c_v = modeled_confidence(abs(nx - vx) + abs(ny - vy) + nz, cfg)
    return _tuple_new(PomdpState, (nx, ny, nz, f_crash, f_roi, f_dct, vx, vy, present, c_v))


def reward(state: PomdpState, a: ActionCmd, eps: float, d_v: float, d_w: float,
           params: RewardParams, cfg: ModelConfig) -> float:
    """Reward for arriving in ``state`` by action ``a``.

    Branch order is normative: crash, then out-of-limits, then detection
    (altitude bonus, confirmation bonus on a Down with confidence past the
    threshold), otherwise the exploration costs (action, altitude,
    horizontal distance, footprint overlap).
    """
    if state.f_crash:
        return params.crash
    if state.f_roi:
        return params.out
    alt_frac = (state.z - cfg.z_min) / (cfg.z_max - cfg.z_min)
    if state.f_dct:
        r = params.detect
        r += params.detect * (1.0 - alt_frac)
        if state.c_v >= cfg.zeta and a == _DOWN:
            r += params.confirm
        return r
    r = params.action
    r -= params.detect * (1.0 - alt_frac)
    r -= params.detect * (1.0 - 0.5 ** (4.0 * d_v / d_w))
    r += params.fov * eps
    return r


def zeta_bin(zeta: float, cfg: ModelConfig) -> int:
    return int(round(zeta / cfg.conf_bin))


def obs_key(obs: Observation, cfg: ModelConfig) -> tuple:
    """Discretized identity of an observation for tree branching and belief
    rejection: position bins at coverage-cell size, confidence bins of
    ``conf_bin`` width."""
    cell = cfg.obs_cell
    if obs.detected:
        det = (int(math.floor(obs.pv_x / cell)), int(math.floor(obs.pv_y / cell)),
               zeta_bin(obs.zeta, cfg))
    else:
        det = None
    return (int(math.floor(obs.pu_x / cell)), int(math.floor(obs.pu_y / cell)),
            int(math.floor(obs.pu_z / cell)), det, obs.obstacle_ahead)


def initial_belief(cfg: ModelConfig, n_particles: int, rng: Random, *,
                   start: EnuPoint, region: Rect | None = None,
                   victim_present_prior: float = 1.0,
                   detection: tuple[float, float, float] | None = None) -> ParticleBelief:
    """Build the starting belief for a planning episode.

    Victim hypotheses are uniform over ``region``: the whole survey
    rectangle for a full-area search, or a footprint-sized rectangle round
    the detection for an inspection triggered mid-survey. UAV positions
    concentrate at the known start pose. ``detection`` seeds every particle
    with an already registered detection (position x, y and confidence).
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if region is None:
        region = cfg.survey
    particles = []
    append = particles.append
    bits, uniform = rng.getrandbits, rng.random
    sigma_xy, sigma_z = cfg.est_noise_xy, cfg.est_noise_z
    sx, sy, sz = start.x, start.y, start.z
    for _ in range(n_particles):
        ux = sx + _NORMAL[bits(16)] * sigma_xy
        uy = sy + _NORMAL[bits(16)] * sigma_xy
        uz = sz + _NORMAL[bits(16)] * sigma_z
        present = uniform() < victim_present_prior
        vx, vy = _sample_region(region, rng)
        if detection is not None and present:
            dx, dy, dzeta = detection
            vx = dx + _NORMAL[bits(16)] * sigma_xy
            vy = dy + _NORMAL[bits(16)] * sigma_xy
            append(PomdpState(ux, uy, uz, False, False, True, vx, vy, True, dzeta))
        else:
            append(PomdpState(ux, uy, uz, False, False, False, vx, vy, present, 0.0))
    return ParticleBelief(particles)


def _sample_region(region: Rect, rng: Random) -> tuple[float, float]:
    return (rng.uniform(region.x_min, region.x_max),
            rng.uniform(region.y_min, region.y_max))


# ---------------------------------------------------------------------------
# generative model facade for the tree-search planner

class GenerativeModel:
    """Bundles transition, observation and reward into the single sampler
    the planner needs. The model owns its imagined coverage: one scratch
    `CoverageMap`, a `snapshot` of the live map taken when the model is
    built, which every live ``step`` stamps so imagined futures never
    pollute the real map. ``new_scratch`` resets it to the live map at the
    start of each search episode.

    Assumes zero yaw (no heading actions), which keeps every footprint an
    axis-aligned rectangle. ``step`` is the planner's imagined step fused
    into one call (see its docstring). Tests in ``tests/test_model.py`` pin
    each inlined piece to its reference, draw for draw:
    ``test_step_matches_reference_composition`` and
    ``test_step_matches_reference_on_drawn_poses`` (both confidence curves,
    ``obs_cell`` 0.5 and 2.0) compare whole steps with ``transition``, the
    reference observation's ``obs_key``, ``is_terminal``'s rule and
    ``CoverageMap``'s overlap and stamp;
    ``test_inline_key_matches_reference_observation`` pins ``_observe_key``,
    and ``test_belief_update_moves_as_the_search_does`` pins the step's key
    to it. ``step`` calls ``reward`` and ``resimulate`` calls ``transition``
    through this module's globals rather than inline: the benchmark's tracer
    (``perfbench/tracing.py``) wraps those two bindings, and a traced run
    fails when a wrapped call site is never reached.

    ``prior_region`` and ``victim_prior`` describe where victim hypotheses
    live when the belief has to be reinvigorated: the survey rectangle for
    a full-area search, a footprint-sized rectangle round the triggering
    detection for an inspection.
    """

    # chance that an undetected in-view hypothesis is dropped during
    # reinvigoration, i.e. roughly the real detector's per-call recall
    MISS_PRUNE = 0.85

    def __init__(self, cfg: ModelConfig, params: RewardParams, cam: CameraIntrinsics,
                 occupancy=None, cov_map: CoverageMap | None = None,
                 prior_region: Rect | None = None,
                 victim_prior: float = 1.0):
        self.cfg = cfg
        self.params = params
        self.cam = cam
        self.occupancy = occupancy
        self.cov_map = (cov_map if cov_map is not None
                        else CoverageMap(cfg.survey, cell_size=cfg.obs_cell))
        self.prior_region = prior_region if prior_region is not None else cfg.survey
        self.victim_prior = victim_prior
        self.n_actions = len(ActionCmd)
        self.gamma = cfg.gamma
        self.d_w = cfg.d_w()
        # detection branch tops out at detect + detect + confirm
        self.max_abs_reward = max(abs(params.crash), abs(params.out),
                                  2.0 * params.detect + params.confirm)
        # the constants ``transition`` reads on every call, bound once for ``step``
        self._extent = cam.extent_1m  # unpacking raises HorizonError for an unbounded view
        self._keep, self._climb = 1.0 - cfg.overlap, cfg.climb_step
        self._move_noise = cfg.move_noise_xy, cfg.move_noise_z
        box, slack = cfg.survey, cfg.roi_slack
        self._limits = (box.x_min - slack, box.x_max + slack, box.y_min - slack,
                        box.y_max + slack, cfg.z_min - slack, cfg.z_max + slack)
        # and the ones ``_observe_key`` reads; its pose estimate takes one
        # 32-bit word per noisy axis, the detection two more
        self._cell, self._conf_bin = cfg.obs_cell, cfg.conf_bin
        self._est_noise = cfg.est_noise_xy, cfg.est_noise_z
        self._pose_bits = 32 * ((2 if cfg.est_noise_xy > 0 else 0) + (cfg.est_noise_z > 0))
        # and the ones of the terminal rule and the proximity confidence
        # curve; ``_proximity`` is None when the paper-literal curve, a call
        # through ``_confidence``, is selected
        self._zeta = cfg.zeta
        self._confidence = confidence_model(cfg)
        self._proximity = (None if cfg.paper_literal_confidence else
                           (cfg.zeta_min, 1.0 - cfg.zeta_min, cfg.z_min, cfg.z_max,
                            cfg.z_max - cfg.z_min))
        # and the scratch raster's geometry and its block-mask cache, shared
        # with the live map, for the window ``step`` reads and stamps
        scratch = self._scratch = self.cov_map.snapshot()
        self._raster = (scratch.origin_x, scratch.origin_y, scratch.cell_size,
                        scratch.nx, scratch.ny)
        self._blocks = scratch._blocks

    def new_scratch(self) -> CoverageMap:
        """Reset the scratch map to the live map and return it."""
        scratch = self._scratch
        scratch.cells = self.cov_map.cells
        return scratch

    def _observe_key(self, s2: PomdpState, a: ActionCmd, rng: Random) -> tuple:
        """The key ``resimulate`` gives: ``obs_key`` of the modeled
        observation of ``s2`` (``generate_observation`` in the tests), drawn
        in its order without building the Observation. ``step`` inlines the
        same body."""
        cell = self._cell
        sigma_xy, sigma_z = self._est_noise
        bits = rng.getrandbits
        floor = math.floor  # floor and round of a float already give an int
        x, y, z = s2.x, s2.y, s2.z
        ox = x + (_NORMAL[bits(16)] * sigma_xy if sigma_xy > 0 else 0.0)
        oy = y + (_NORMAL[bits(16)] * sigma_xy if sigma_xy > 0 else 0.0)
        oz = z + (_NORMAL[bits(16)] * sigma_z if sigma_z > 0 else 0.0)
        if s2.f_dct:
            pv_x = s2.victim_x + _NORMAL[bits(16)] * sigma_xy
            pv_y = s2.victim_y + _NORMAL[bits(16)] * sigma_xy
            det = (floor(pv_x / cell), floor(pv_y / cell), round(s2.c_v / self._conf_bin))
        else:
            det = None
        obstacle = False
        occ = self.occupancy
        # a step sweeps no lower than one climb step down, nothing is
        # occupied at or above the grid's top, and no step is swept at or
        # below the ground
        if occ is not None and z - self._climb < occ.top_z and z > 0.0:
            dx, dy, dz = action_displacement(a, z, self.cam, self.cfg)
            obstacle = occ.ahead(x, y, z, dx, dy, dz)
        return floor(ox / cell), floor(oy / cell), floor(oz / cell), det, obstacle

    def step(self, s: PomdpState, a: int, rng: Random, keyed: bool = True):
        """Sample (next state, observation key, reward, terminal).

        One imagined step in one call: ``transition``'s motion, the proximity
        confidence curve (the paper-literal curve stays a call), the terminal
        rule of ``is_terminal``, the key of ``_observe_key`` and the scratch
        window of ``CoverageMap._rect_mask`` (one ``|`` stamps it, one ``&``
        reads its overlap) are written out with their float operations and
        draw order. One footprint serves the detection test and the window.
        A rollout (``keyed`` false) or terminal step keeps the key's draws but
        returns ``None``. Only ``reward``'s exploration branch reads the
        footprint overlap and the victim distance, so a detecting step skips
        them. Every live step stamps the scratch map: the episode's later
        imagined steps read it."""
        cfg = self.cfg
        act = _ACTIONS[a]
        x, y, z, _, _, _, vx, vy, present, _ = s
        top, bottom, left, right = self._extent
        if act >= _UP:  # UP, DOWN and HOVER
            dx = dy = 0.0
            dz = 0.0 if act == _HOVER else (self._climb if act == _UP else -self._climb)
        elif z <= 0:
            raise ValueError(f"altitude must be positive, got {z}")
        elif act <= _BACKWARD:
            dx = (z * right - z * left) * self._keep
            dx, dy, dz = (dx if act == _FORWARD else -dx), 0.0, 0.0
        else:
            dy = (z * top - z * bottom) * self._keep
            dx, dy, dz = 0.0, (dy if act == _LEFT else -dy), 0.0
        x, y, z = x + dx, y + dy, z + dz
        sigma_xy, sigma_z = self._move_noise
        bits = rng.getrandbits
        if sigma_xy > 0.0:
            x += _NORMAL[bits(16)] * sigma_xy
            y += _NORMAL[bits(16)] * sigma_xy
        if sigma_z > 0.0:
            z += _NORMAL[bits(16)] * sigma_z
        x_lo, x_hi, y_lo, y_hi, z_lo, z_hi = self._limits
        f_roi = x < x_lo or x > x_hi or y < y_lo or y > y_hi or z < z_lo or z > z_hi
        occ = self.occupancy
        f_crash = occ is not None and z < occ.top_z and occ.occupied(x, y, z)
        f_dct, c_v = False, 0.0
        live = not (f_crash or f_roi)
        if live:
            # ``footprint_extent(max(z, 1e-6), cam)``, multiplied out inline
            h = 1e-6 if z < 1e-6 else z
            x0, x1 = x + h * left, x + h * right
            y0, y1 = y + h * bottom, y + h * top
            if present and x0 <= vx <= x1 and y0 <= vy <= y1:
                f_dct = True
                d = abs(x - vx) + abs(y - vy) + z
                if self._proximity is None:
                    c_v = self._confidence(d, cfg)
                else:  # ``confidence_proximity(d, cfg)``
                    zeta_min, gain, z_min, z_max, span = self._proximity
                    d = z_min if d < z_min else (z_max if d > z_max else d)
                    c_v = zeta_min + gain * (z_max - d) / span
        s2 = _tuple_new(PomdpState, (x, y, z, f_crash, f_roi, f_dct, vx, vy, present, c_v))
        terminal = c_v >= self._zeta or f_crash or f_roi
        if terminal or not keyed:  # draw the words the key would, in one call
            bits(self._pose_bits + 64 if f_dct else self._pose_bits)
            key = None
        else:  # ``_observe_key(s2, act, rng)``
            cell = self._cell
            sigma_xy, sigma_z = self._est_noise
            ox = x + (_NORMAL[bits(16)] * sigma_xy if sigma_xy > 0 else 0.0)
            oy = y + (_NORMAL[bits(16)] * sigma_xy if sigma_xy > 0 else 0.0)
            oz = z + (_NORMAL[bits(16)] * sigma_z if sigma_z > 0 else 0.0)
            if f_dct:
                pv_x = vx + _NORMAL[bits(16)] * sigma_xy
                pv_y = vy + _NORMAL[bits(16)] * sigma_xy
                det = (_floor(pv_x / cell), _floor(pv_y / cell), round(c_v / self._conf_bin))
            else:
                det = None
            obstacle = False
            if occ is not None and z - self._climb < occ.top_z and z > 0.0:
                dx, dy, dz = action_displacement(act, z, self.cam, cfg)
                obstacle = occ.ahead(x, y, z, dx, dy, dz)
            key = _floor(ox / cell), _floor(oy / cell), _floor(oz / cell), det, obstacle
        d_w = self.d_w
        eps, d_v = 0.0, d_w
        if live:
            # the cells whose centres lie in the footprint, clipped to the raster
            x_org, y_org, size, nx, ny = self._raster
            c0 = _ceil((x0 - x_org) / size - 0.5)
            c1 = _floor((x1 - x_org) / size - 0.5)
            r0 = _ceil((y0 - y_org) / size - 0.5)
            r1 = _floor((y1 - y_org) / size - 0.5)
            c0, r0 = (c0 if c0 > 0 else 0), (r0 if r0 > 0 else 0)
            c1, r1 = (c1 if c1 < nx else nx - 1), (r1 if r1 < ny else ny - 1)
            if c0 > c1 or r0 > r1:
                eps = 1.0  # a view of no cell counts as fully seen
            else:
                rows, cols = r1 - r0 + 1, c1 - c0 + 1
                block = self._blocks.get((rows, cols))
                scratch = self._scratch
                if block is None:
                    block = scratch.block_mask(rows, cols)
                mask = block << (r0 * nx + c0)
                cells = scratch.cells
                scratch.cells = cells | mask
                if not f_dct:
                    eps = (cells & mask).bit_count() / (rows * cols)
            if not f_dct and present:
                d_v = abs(x - vx) + abs(y - vy)
        r = reward(s2, act, eps, d_v, d_w, self.params, cfg)
        return s2, key, r, terminal

    def resimulate(self, s: PomdpState, a: int, rng: Random):
        """Transition + observation only, for belief rejection filtering."""
        act = _ACTIONS[a]
        s2 = transition(s, act, self.cfg, self.cam, self.occupancy, rng)
        return s2, self._observe_key(s2, act, rng)

    def obs_key_of(self, obs: Observation) -> tuple:
        return obs_key(obs, self.cfg)

    def is_terminal(self, s: PomdpState) -> bool:
        """Terminal when confidence passes the confirmation threshold or the
        UAV crashed or left the flying limits. The clock and survey
        completion belong to the flight loops. ``step`` inlines the same rule
        for the state it reaches."""
        return s.c_v >= self.cfg.zeta or s.f_crash or s.f_roi

    def reinvigorate(self, obs: Observation, donors, n: int, rng: Random) -> list:
        """``n`` fresh particles consistent with the real observation.

        The UAV pose snaps to the position estimate. On a detection the
        victim hypothesis sits near the reported position with the observed
        confidence. On a miss the hypothesis is inherited from a donor
        particle (jittered) or, rarely, redrawn from the prior region; a
        donor hypothesis the camera is currently looking at survives only
        with the complement of its modeled detection confidence, since one
        missed frame set is weak evidence of absence. When no candidate
        survives, the consistent explanation is that no victim is there.

        The particles are drawn one after another, each as a call per
        particle would draw it; the observation's footprint and the
        constants are bound once per refill. A donor is drawn with
        ``Random.randrange``'s bounded draw, inlined.
        """
        cfg = self.cfg
        bits, uniform = rng.getrandbits, rng.random
        sigma_xy, sigma_z = cfg.est_noise_xy, cfg.est_noise_z
        pu_x, pu_y, pu_z = obs.pu_x, obs.pu_y, obs.pu_z
        detected, pv_x, pv_y, zeta = obs.detected, obs.pv_x, obs.pv_y, obs.zeta
        if not detected:
            l_top, l_bottom, l_left, l_right = footprint_extent(max(pu_z, 1e-6), self.cam)
            x0, x1 = pu_x + l_left, pu_x + l_right
            y0, y1 = pu_y + l_bottom, pu_y + l_top
        confidence, zeta_min = self._confidence, cfg.zeta_min
        prior, region, prune = self.victim_prior, self.prior_region, self.MISS_PRUNE
        n_donors = len(donors)
        k = n_donors.bit_length()
        fresh = []
        append = fresh.append
        for _ in range(n):
            ux = pu_x + _NORMAL[bits(16)] * sigma_xy
            uy = pu_y + _NORMAL[bits(16)] * sigma_xy
            uz = pu_z + _NORMAL[bits(16)] * sigma_z
            vx = None
            if detected:
                # a detection is credible to the extent its confidence matches
                # what the model expects at that range; a weak return from
                # close up points at a lookalike, not a victim
                expected = max(confidence(abs(ux - pv_x) + abs(uy - pv_y) + uz, cfg), zeta_min)
                if uniform() < min(zeta / expected, 1.0):
                    vx = pv_x + _NORMAL[bits(16)] * sigma_xy
                    vy = pv_y + _NORMAL[bits(16)] * sigma_xy
                    if n_donors and uniform() < 0.7:
                        # average the fresh report with an earlier hypothesis
                        # so repeated detections contract the position spread
                        i = bits(k)
                        while i >= n_donors:
                            i = bits(k)
                        donor = donors[i]
                        if donor.victim_present and donor.f_dct:
                            vx = 0.5 * (donor.victim_x + vx) + _NORMAL[bits(16)] * 0.1
                            vy = 0.5 * (donor.victim_y + vy) + _NORMAL[bits(16)] * 0.1
                    append(_tuple_new(PomdpState, (ux, uy, uz, False, False, True,
                                                   vx, vy, True, zeta)))
                    continue
            elif uniform() < prior:
                for _ in range(30):
                    if n_donors and uniform() < 0.9:
                        i = bits(k)
                        while i >= n_donors:
                            i = bits(k)
                        donor = donors[i]
                        if not donor.victim_present:
                            continue
                        vx = donor.victim_x + _NORMAL[bits(16)] * 0.25
                        vy = donor.victim_y + _NORMAL[bits(16)] * 0.25
                    else:
                        vx, vy = _sample_region(region, rng)
                    break
                # in view yet not detected: usually the spot is clear, but one
                # missed call is not proof (the victim may have entered the
                # view only for the last few frames)
                if vx is not None and not (x0 <= vx <= x1 and y0 <= vy <= y1
                                           and uniform() < prune):
                    append(_tuple_new(PomdpState, (ux, uy, uz, False, False, False,
                                                   vx, vy, True, 0.0)))
                    continue
            append(_tuple_new(PomdpState, (ux, uy, uz, False, False, False,
                                           0.0, 0.0, False, 0.0)))
        return fresh
