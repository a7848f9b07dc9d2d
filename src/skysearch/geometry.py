"""Camera footprint geometry and local-frame coordinate helpers.

Everything downstream (planner, simulator, coverage raster) works in a
local ENU frame: x east, y north, z up, metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class HorizonError(ValueError):
    """Raised when a camera ray points at or above the horizon, so the
    ground footprint would be unbounded."""


class _Unbounded:
    """The extents of a camera that sees the horizon: unpacking them raises."""
    def __iter__(self):
        raise HorizonError("camera ray at or above horizon: footprint unbounded")


@dataclass(frozen=True, slots=True)
class EnuPoint:
    """Point in the local east-north-up frame (metres)."""

    x: float
    y: float
    z: float = 0.0


@dataclass(frozen=True)
class CameraIntrinsics:
    """Downward-pointing camera described by its lens geometry.

    ``pitch`` tilts the view about the camera's horizontal axis (affects the
    along-y extents), ``roll`` about the other axis (affects the along-x
    extents); both are radians from straight down.

    ``extent_1m`` is ``footprint_extent`` at 1 m: every extent is linear in
    altitude. Unpacking it raises ``HorizonError`` if the view is unbounded.
    """

    lens_width_mm: float = 2.06
    lens_height_mm: float = 1.52
    focal_mm: float = 4.7
    pitch: float = 0.0
    roll: float = 0.0

    def __post_init__(self) -> None:
        # written so that NaN fails each test
        if not all(0.0 < v < math.inf
                   for v in (self.focal_mm, self.lens_width_mm, self.lens_height_mm)):
            raise ValueError("lens dimensions and focal length must be finite and positive")
        if not (abs(self.pitch) < math.pi / 2 and abs(self.roll) < math.pi / 2):
            raise ValueError("camera tilt angles must be finite and below 90 degrees")
        tan_h = self.lens_height_mm / (2.0 * self.focal_mm)
        tan_w = self.lens_width_mm / (2.0 * self.focal_mm)
        ha_h, ha_w = math.atan(tan_h), math.atan(tan_w)
        if self.pitch == 0.0 and self.roll == 0.0:
            unit = (tan_h, -tan_h, -tan_w, tan_w)
        elif abs(self.pitch) + ha_h >= math.pi / 2 or abs(self.roll) + ha_w >= math.pi / 2:
            unit = _Unbounded()
        else:
            unit = (math.tan(self.pitch + ha_h), math.tan(self.pitch - ha_h),
                    math.tan(self.roll - ha_w), math.tan(self.roll + ha_w))
        object.__setattr__(self, "extent_1m", unit)


@dataclass(frozen=True)
class Footprint:
    """Ground quadrilateral seen by the camera: 4 corners at z = 0,
    counterclockwise order."""

    corners: tuple[tuple[float, float], ...]

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [c[0] for c in self.corners]
        ys = [c[1] for c in self.corners]
        return min(xs), min(ys), max(xs), max(ys)

    def area(self) -> float:
        s = 0.0
        cs = self.corners
        for i in range(len(cs)):
            x1, y1 = cs[i]
            x2, y2 = cs[(i + 1) % len(cs)]
            s += x1 * y2 - x2 * y1
        return 0.5 * abs(s)


def footprint_extent(altitude: float, cam: CameraIntrinsics) -> tuple[float, float, float, float]:
    """Signed ground-plane extents (top, bottom, left, right) of the view.

    Top/bottom come from the height half-angle combined with the pitch,
    left/right from the width half-angle combined with the roll. Each value
    is the signed offset from the sub-camera point; for a straight-down
    camera top/right are positive and bottom/left their negatives.
    """
    if not 0 < altitude < math.inf:
        raise ValueError(f"altitude must be finite and positive, got {altitude}")
    top, bottom, left, right = cam.extent_1m
    return altitude * top, altitude * bottom, altitude * left, altitude * right


def footprint_corners_world(uav: EnuPoint, yaw: float, cam: CameraIntrinsics) -> Footprint:
    """Footprint corners translated (and rotated by the UAV yaw) into the
    world frame. With ``yaw = 0`` this is a pure translation of the
    camera-frame corners."""
    l_top, l_bottom, l_left, l_right = footprint_extent(uav.z, cam)
    local = ((l_right, l_top), (l_left, l_top), (l_left, l_bottom), (l_right, l_bottom))
    c, s = math.cos(yaw), math.sin(yaw)
    world = tuple((uav.x + c * lx - s * ly, uav.y + s * lx + c * ly) for lx, ly in local)
    # geometric CCW ordering regardless of extent signs under large tilts
    cx = sum(p[0] for p in world) / 4.0
    cy = sum(p[1] for p in world) / 4.0
    ordered = tuple(sorted(world, key=lambda p: math.atan2(p[1] - cy, p[0] - cx)))
    return Footprint(ordered)


_TWO_PI = 2.0 * math.pi


def point_in_footprint(x: float, y: float, fp: Footprint) -> bool:
    """Sum-of-angles containment test, boundary inclusive.

    The angles subtended at (x, y) by consecutive corner pairs sum to
    +/-2*pi for interior points and ~0 outside; a 1e-9 rad tolerance keeps
    points exactly on an edge inside.
    """
    total = 0.0
    cs = fp.corners
    n = len(cs)
    for i in range(n):
        ax = cs[i][0] - x
        ay = cs[i][1] - y
        j = (i + 1) % n
        bx = cs[j][0] - x
        by = cs[j][1] - y
        cross = ax * by - ay * bx
        dot = ax * bx + ay * by
        if cross == 0.0 and dot <= 0.0:
            return True  # on an edge (or a corner)
        total += math.atan2(cross, dot)
    return abs(total) >= _TWO_PI - 1e-9
