"""Ground-truth world and stochastic detector standing in for the field
site, the camera stream and the CNN: victims with occlusion, a
person-lookalike distractor, a 3D obstacle grid, and wind-induced frame
dropout.

The detector fires per frame; an observation call aggregates the frames
streamed since the previous call (spread along the flown segment), so the
reported confidence is the positive-detection frequency over that window.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from random import Random

from .configio import ConfigError, parse_kv_file
from .coverage import CoverageMap, Rect
from .geometry import CameraIntrinsics, EnuPoint, footprint_extent
from .model import ModelConfig, Observation
from .solver import SolverConfig

_SCENARIO_DIR = Path(__file__).parent / "scenarios"
MAX_BOX_CELLS = 10**6  # bounds the cells one obstacle box may fill
MIN_GUST_CYCLE_S = 0.1  # shortest mean gust arrival-plus-duration a scenario may ask for


class OccupancyGrid:
    """Sparse 3D occupancy: a set of occupied cells. Lookups outside any
    recorded cell are free."""

    def __init__(self, cell_size: float = 1.0):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self._cells: set[tuple[int, int, int]] = set()
        self.top_z = -math.inf  # upper edge of the tallest occupied cell

    def _key(self, x: float, y: float, z: float) -> tuple[int, int, int]:
        c = self.cell_size
        return (int(math.floor(x / c)), int(math.floor(y / c)), int(math.floor(z / c)))

    def add_box(self, x: float, y: float, z: float,
                dx: float, dy: float, dz: float) -> None:
        c = self.cell_size
        rx, ry, rz = (range(int(math.floor(p / c)), int(math.ceil((p + d) / c)))
                      for p, d in ((x, dx), (y, dy), (z, dz)))
        if math.prod(max(0, r.stop - r.start) for r in (rx, ry, rz)) > MAX_BOX_CELLS:
            raise ValueError(f"obstacle box spans more than {MAX_BOX_CELLS} cells")
        for ix in rx:
            for iy in ry:
                for iz in rz:
                    self._cells.add((ix, iy, iz))
                    self.top_z = max(self.top_z, (iz + 1) * c)

    def occupied(self, x: float, y: float, z: float) -> bool:
        if z >= self.top_z:
            return False
        return self._key(x, y, z) in self._cells

    def ahead(self, x: float, y: float, z: float,
              dx: float, dy: float, dz: float) -> bool:
        """Any occupied cell along the segment swept by the displacement.
        A zero displacement degenerates to the current cell."""
        if min(z, z + dz) >= self.top_z:
            return False
        length = math.sqrt(dx * dx + dy * dy + dz * dz)
        if length == 0.0:
            return self.occupied(x, y, z)
        steps = max(1, int(math.ceil(length / (0.5 * self.cell_size))))
        for i in range(1, steps + 1):
            f = i / steps
            if self.occupied(x + f * dx, y + f * dy, z + f * dz):
                return True
        return False

    def __len__(self) -> int:
        return len(self._cells)


class WindProcess:
    """Gusts arrive as a Poisson process and last exponentially long;
    every camera frame inside a gust is dropped."""

    def __init__(self, rate_per_s: float, mean_duration_s: float, rng: Random):
        self.rate = max(0.0, rate_per_s)
        self.mean_duration = max(1e-9, mean_duration_s)
        self._rng = rng
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._horizon = 0.0

    def _extend(self, t: float) -> None:
        while self._horizon <= t:
            if self.rate <= 0.0:
                self._horizon = math.inf
                return
            gap = self._rng.expovariate(self.rate)
            start = self._horizon + gap
            duration = self._rng.expovariate(1.0 / self.mean_duration)
            self._starts.append(start)
            self._ends.append(start + duration)
            self._horizon = start + duration

    def active(self, t: float) -> bool:
        self._extend(t)
        i = bisect.bisect_right(self._starts, t) - 1
        return i >= 0 and t < self._ends[i]


@dataclass(frozen=True)
class DetectorProfile:
    """Per-frame response of the vision pipeline.

    The base detection probability falls off linearly with UAV-victim
    distance from ``p_ceil`` close up to ``p_floor`` at ``far_range``
    (1.25x the survey ceiling by default). Occlusion bites at survey
    distance and fades as the UAV closes in below ``occl_free_dist``, which
    is what lets an inspection confirm a partly hidden victim.
    """

    modality: str = "rgb"
    frames_per_call: int = 10
    sigma_loc: float = 0.5
    p_floor: float = 0.05
    p_ceil: float = 0.98
    near_range: float = 5.25
    far_range: float = 20.0
    occl_free_dist: float = 5.25
    occl_full_dist: float = 16.0

    def __post_init__(self) -> None:
        if self.frames_per_call < 1:
            raise ValueError("frames_per_call must be at least 1")
        if not 0.0 <= self.p_floor <= self.p_ceil <= 1.0:
            raise ValueError("need 0 <= p_floor <= p_ceil <= 1")
        if not self.near_range < self.far_range:
            raise ValueError("need near_range < far_range")
        if not self.occl_free_dist < self.occl_full_dist:
            raise ValueError("need occl_free_dist < occl_full_dist")

    def base_p(self, d_uv: float) -> float:
        p = (self.far_range - d_uv) / (self.far_range - self.near_range)
        return min(max(p, self.p_floor), self.p_ceil)

    def effective_occlusion(self, d_uv: float, occlusion: float) -> float:
        span = self.occl_full_dist - self.occl_free_dist
        ramp = min(max((d_uv - self.occl_free_dist) / span, 0.0), 1.0)
        return occlusion * ramp

    def per_frame_p(self, d_uv: float, occlusion: float) -> float:
        """True-detection probability for one frame; monotone non-increasing
        in both distance and occlusion."""
        return self.base_p(d_uv) * (1.0 - self.effective_occlusion(d_uv, occlusion))


def thermal_profile(**overrides) -> DetectorProfile:
    """Thermal payload variant: same response curve, tighter localization
    (heat blobs centre well) and no illumination dependence to model."""
    kwargs = {"modality": "thermal", "sigma_loc": 0.3}
    kwargs.update(overrides)
    return DetectorProfile(**kwargs)


@dataclass
class GroundTruth:
    """Everything that exists in the simulated world."""

    victims: list[tuple[float, float, float]] = field(default_factory=list)       # x, y, occlusion
    distractors: list[tuple[float, float, float]] = field(default_factory=list)   # x, y, fp rate
    obstacles: OccupancyGrid = field(default_factory=OccupancyGrid)
    wind_rate: float = 0.0          # gusts per second
    wind_mean_duration: float = 5.0

    def __post_init__(self) -> None:
        for _, _, occ in self.victims:
            if not 0.0 <= occ <= 1.0:
                raise ValueError("victim occlusion fraction must be in [0, 1]")
        for _, _, rate in self.distractors:
            if not 0.0 <= rate <= 1.0:
                raise ValueError("distractor false-positive rate must be in [0, 1]")


def sense(pose: EnuPoint, cam: CameraIntrinsics, truth: GroundTruth,
          profile: DetectorProfile, rng: Random, *,
          prev_pose: EnuPoint | None = None, wind: WindProcess | None = None,
          t0: float = 0.0, t1: float | None = None,
          est_noise_xy: float = 0.1, est_noise_z: float = 0.05) -> Observation:
    """One observation call: stream ``frames_per_call`` frames along the
    segment from the previous pose, fire each visible target per its
    per-frame probability, and report the target with the highest
    positive-detection frequency.
    """
    prev = pose if prev_pose is None else prev_pose
    end_t = t0 if t1 is None else t1
    n = profile.frames_per_call
    n_victims = len(truth.victims)
    targets = truth.victims + truth.distractors
    hits = [0] * len(targets)
    for i in range(1, n + 1):
        f = i / n
        ft = t0 + f * (end_t - t0)
        if wind is not None and wind.active(ft):
            continue  # gust: frame dropped for every target
        fx = prev.x + f * (pose.x - prev.x)
        fy = prev.y + f * (pose.y - prev.y)
        fz = prev.z + f * (pose.z - prev.z)
        l_top, l_bottom, l_left, l_right = footprint_extent(max(fz, 1e-6), cam)
        for k, (tx, ty, third) in enumerate(targets):
            if not (fx + l_left <= tx <= fx + l_right
                    and fy + l_bottom <= ty <= fy + l_top):
                continue
            if k < n_victims:
                # slant range: what actually shrinks the target in the frame
                d_uv = math.sqrt((fx - tx) ** 2 + (fy - ty) ** 2 + fz * fz)
                p = profile.per_frame_p(d_uv, third)
            else:
                p = third  # distractor false-positive rate, range independent
            if rng.random() < p:
                hits[k] += 1
    best = -1
    best_hits = 0
    for k, h in enumerate(hits):
        if h > best_hits:
            best_hits = h
            best = k
    ox = pose.x + (rng.gauss(0.0, est_noise_xy) if est_noise_xy > 0 else 0.0)
    oy = pose.y + (rng.gauss(0.0, est_noise_xy) if est_noise_xy > 0 else 0.0)
    oz = pose.z + (rng.gauss(0.0, est_noise_z) if est_noise_z > 0 else 0.0)
    obstacle = truth.obstacles.ahead(pose.x, pose.y, pose.z,
                                     pose.x - prev.x, pose.y - prev.y, pose.z - prev.z)
    if best < 0:
        return Observation(ox, oy, oz, False, obstacle_ahead=obstacle)
    tx, ty, _ = targets[best]
    pv_x = tx + rng.gauss(0.0, profile.sigma_loc)
    pv_y = ty + rng.gauss(0.0, profile.sigma_loc)
    return Observation(ox, oy, oz, True, pv_x, pv_y, best_hits / n, obstacle)


# ---------------------------------------------------------------------------
# scenario files

@dataclass
class Scenario:
    """A declarative world plus the typed model, solver and detector
    settings from its file. ``cfg.survey`` is the survey rectangle."""

    name: str
    truth: GroundTruth
    cfg: ModelConfig
    solver: SolverConfig
    seed: int = 0
    modality: str = "rgb"
    detector_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.modality not in ("rgb", "thermal"):
            raise ValueError(f"modality must be rgb or thermal, got {self.modality!r}")

    def detector_profile(self) -> DetectorProfile:
        if self.modality == "thermal":
            return thermal_profile(**self.detector_overrides)
        return DetectorProfile(**self.detector_overrides)


def builtin_scenarios() -> list[str]:
    return sorted(p.stem for p in _SCENARIO_DIR.glob("*.scn"))


def _bool(token: str) -> bool:
    low = token.lower()
    if low not in ("true", "yes", "on", "false", "no", "off"):
        raise ValueError(f"expected true/yes/on or false/no/off, got {token!r}")
    return low in ("true", "yes", "on")


def _finite(token: str) -> float:
    if not math.isfinite(value := float(token)):
        raise ValueError(f"expected a finite number, got {token!r}")
    return value


# the scenario file schema. Table rows: key -> tokens per row, each a finite
# float; repeated rows are a list, and for survey and wind the last row wins.
_TABLES = {"survey": 4, "victim": 3, "distractor": 3, "obstacle": 6, "wind": 2}
# single-token keys: key -> (section, field, converter). Model and solver
# fields go by name, detector fields with a ``detector_`` prefix; a field
# whose declared type has no converter (``survey``, ``modality``) is no key.
_CONVERT = {"bool": _bool, "int": int, "float": _finite, "float | None": _finite}
_KEYS = {"name": ("scenario", "name", str), "seed": ("scenario", "seed", int),
         "modality": ("scenario", "modality", str),
         **{prefix + f.name: (section, f.name, _CONVERT[f.type])
            for section, cls, prefix in (("model", ModelConfig, ""),
                                         ("solver", SolverConfig, ""),
                                         ("detector", DetectorProfile, "detector_"))
            for f in fields(cls) if f.type in _CONVERT}}


def load_scenario(name_or_path: str | Path) -> Scenario:
    """Load a scenario by built-in name (``l1``, ``l2``) or file path. A
    built-in name loads the built-in unless a file of that name exists.

    The only place scenario text becomes values: every key is checked
    against the schema above and converted by its field's declared type.
    An unknown key, a wrong token count, a failed conversion or a rejected
    value raises ``ConfigError`` naming the file and the key.
    """
    path = Path(name_or_path)
    known = builtin_scenarios()
    if not path.is_file() and str(name_or_path) in known:
        path = _SCENARIO_DIR / f"{name_or_path}.scn"
    elif not path.exists():
        raise ConfigError(f"no scenario named {name_or_path!r} "
                          f"(built-ins: {', '.join(known)})")
    tables: dict[str, list[tuple[float, ...]]] = {}
    values = {"scenario": {"name": path.stem}, "model": {}, "solver": {}, "detector": {}}
    for key, rows in parse_kv_file(path).items():
        try:
            if key not in _TABLES and key not in _KEYS:
                raise ValueError("unknown key")
            want = _TABLES.get(key, 1)
            for row in rows:
                if len(row) != want:
                    raise ValueError(f"expected {want} value(s), got {len(row)}")
            if key in _TABLES:
                tables[key] = [tuple(map(_finite, row)) for row in rows]
            else:
                section, name, convert = _KEYS[key]
                for (token,) in rows:  # a repeated key: the last row wins
                    values[section][name] = convert(token)
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from None
    if "survey" not in tables:
        raise ConfigError(f"{path}: scenario must define 'survey = xmin ymin xmax ymax'")
    try:
        cfg = ModelConfig(survey=Rect(*tables["survey"][-1]), **values["model"])
        truth = GroundTruth(victims=tables.get("victim", []),
                            distractors=tables.get("distractor", []))
        if "wind" in tables:
            rate, duration = tables["wind"][-1]
            truth.wind_rate, truth.wind_mean_duration = rate, duration
            if rate < 0.0 or duration <= 0.0:
                raise ValueError(f"wind: needs a rate >= 0 and a mean duration > 0, "
                                 f"got {rate:g} and {duration:g}")
            # the gust process draws one gust per mean cycle of simulated time
            cycle = 1.0 / rate + duration if rate > 0.0 else math.inf
            if not cycle >= MIN_GUST_CYCLE_S:
                raise ValueError(f"wind: a mean gust cycle (1/rate + mean duration) of "
                                 f"{cycle:.3g} s is below {MIN_GUST_CYCLE_S} s")
        scenario = Scenario(truth=truth, cfg=cfg, solver=SolverConfig(**values["solver"]),
                            detector_overrides=values["detector"], **values["scenario"])
        scenario.detector_profile()  # checks the detector fields
        survey = cfg.survey
        for vx, vy, _ in truth.victims + truth.distractors:
            if not survey.contains(vx, vy):
                raise ValueError(f"target ({vx}, {vy}) outside the survey area")
        # obstacles must lie in the flown volume grown by the coverage margin
        m = CoverageMap.MARGIN
        lo = (survey.x_min - m, survey.y_min - m, -m)
        hi = (survey.x_max + m, survey.y_max + m, cfg.z_max + m)
        for box in tables.get("obstacle", []):
            if not all(a <= p <= p + d <= b for a, p, d, b in zip(lo, box[:3], box[3:], hi)):
                raise ValueError(f"obstacle {box} needs a non-negative size and must lie "
                                 f"within {m} m of the survey area and below z_max + {m} m")
            truth.obstacles.add_box(*box)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return scenario
