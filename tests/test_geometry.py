"""Footprint geometry against independent oracles."""

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from skysearch.geometry import (CameraIntrinsics, EnuPoint, Footprint, HorizonError,
                                footprint_corners_world, footprint_extent, point_in_footprint)

CAM = CameraIntrinsics()  # survey camera: 2.06 x 1.52 mm lens, f = 4.7 mm
HALF_ANGLE_H = math.atan(1.52 / (2 * 4.7))  # half view angle across the lens height


def half_plane_contains(x, y, corners):
    """Independent convex-polygon test: point is left of every CCW edge."""
    n = len(corners)
    for i in range(n):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % n]
        if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < -1e-12:
            return False
    return True


class TestFootprintExtent:
    def test_survey_altitude_extents(self):
        # hand oracle for a straight-down camera: z*w/(2f), z*h/(2f)
        l_top, l_bottom, l_left, l_right = footprint_extent(16.0, CAM)
        assert l_right == pytest.approx(16.0 * 2.06 / (2 * 4.7), abs=1e-9)
        assert l_top == pytest.approx(16.0 * 1.52 / (2 * 4.7), abs=1e-9)
        assert l_left == -l_right
        assert l_bottom == -l_top

    def test_published_dimensions(self):
        l_top, l_bottom, l_left, l_right = footprint_extent(16.0, CAM)
        assert round(l_right - l_left, 4) == 7.0128
        assert round(l_top - l_bottom, 4) == 5.1745

    def test_extents_collapse_near_ground(self):
        l_top, l_bottom, l_left, l_right = footprint_extent(1e-9, CAM)
        assert max(abs(v) for v in (l_top, l_bottom, l_left, l_right)) < 1e-8

    def test_horizon_ray_rejected(self):
        tilted = CameraIntrinsics(pitch=math.pi / 2 - HALF_ANGLE_H + 1e-4)
        with pytest.raises(HorizonError):
            footprint_extent(16.0, tilted)

    def test_zero_altitude_rejected(self):
        with pytest.raises(ValueError):
            footprint_extent(0.0, CAM)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_altitude_rejected(self, z):
        # ``nan <= 0`` is false, so NaN extents once came back
        with pytest.raises(ValueError, match="finite"):
            footprint_extent(z, CAM)

    @pytest.mark.parametrize("field", ["pitch", "roll", "focal_mm", "lens_width_mm",
                                       "lens_height_mm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_camera_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            CameraIntrinsics(**{field: value})

    def test_pitched_camera_asymmetric(self):
        tilted = CameraIntrinsics(pitch=0.2)
        l_top, l_bottom, _, _ = footprint_extent(10.0, tilted)
        assert l_top == pytest.approx(10.0 * math.tan(0.2 + HALF_ANGLE_H))
        assert l_bottom == pytest.approx(10.0 * math.tan(0.2 - HALF_ANGLE_H))
        assert l_top > -l_bottom


class TestFootprintCorners:
    def test_axis_aligned_at_zero_yaw(self):
        fp = footprint_corners_world(EnuPoint(0.0, 0.0, 16.0), 0.0, CAM)
        xs = sorted({round(c[0], 9) for c in fp.corners})
        ys = sorted({round(c[1], 9) for c in fp.corners})
        assert xs[1] - xs[0] == pytest.approx(7.0128, abs=1e-4)
        assert ys[1] - ys[0] == pytest.approx(5.1745, abs=1e-4)

    def test_pure_translation(self):
        base = footprint_corners_world(EnuPoint(0.0, 0.0, 16.0), 0.0, CAM)
        moved = footprint_corners_world(EnuPoint(10.0, 5.0, 16.0), 0.0, CAM)
        shifted = {(round(x + 10.0, 9), round(y + 5.0, 9)) for x, y in base.corners}
        assert {(round(x, 9), round(y, 9)) for x, y in moved.corners} == shifted

    def test_quarter_turn_preserves_area_and_rotates_corners(self):
        base = footprint_corners_world(EnuPoint(0.0, 0.0, 16.0), 0.0, CAM)
        turned = footprint_corners_world(EnuPoint(0.0, 0.0, 16.0), math.pi / 2, CAM)
        rotated = {(round(-y, 6), round(x, 6)) for x, y in base.corners}
        assert {(round(x, 6), round(y, 6)) for x, y in turned.corners} == rotated
        assert turned.area() == pytest.approx(base.area(), rel=1e-12)

    def test_area_identity(self):
        # straight-down footprint area is z^2 * w * h / f^2
        for z in (5.25, 8.0, 16.0):
            fp = footprint_corners_world(EnuPoint(3.0, -2.0, z), 0.0, CAM)
            assert fp.area() == pytest.approx(z * z * 2.06 * 1.52 / 4.7 ** 2, rel=1e-9)

    @given(yaw=st.floats(-math.pi, math.pi), z=st.floats(1.0, 30.0))
    @settings(max_examples=50)
    def test_rotate_then_unrotate_is_identity(self, yaw, z):
        pose = EnuPoint(1.0, 2.0, z)
        once = footprint_corners_world(pose, yaw, CAM)
        # rotating corners back about the pose centre recovers the yaw-0 set
        base = footprint_corners_world(pose, 0.0, CAM)
        c, s = math.cos(-yaw), math.sin(-yaw)
        undone = {(round(pose.x + c * (x - pose.x) - s * (y - pose.y), 6),
                   round(pose.y + s * (x - pose.x) + c * (y - pose.y), 6))
                  for x, y in once.corners}
        assert undone == {(round(x, 6), round(y, 6)) for x, y in base.corners}


class TestPointInFootprint:
    FP = footprint_corners_world(EnuPoint(0.0, 0.0, 16.0), 0.0, CAM)

    def test_nadir_point_inside(self):
        assert point_in_footprint(0.0, 0.0, self.FP)

    def test_millimetre_outside_edge(self):
        x_edge = 16.0 * 2.06 / (2 * 4.7)
        assert not point_in_footprint(x_edge + 0.001, 0.0, self.FP)
        assert point_in_footprint(x_edge - 0.001, 0.0, self.FP)

    def test_boundary_counts_as_inside(self):
        # use the footprint's own corner coordinates so the probe point is
        # exactly on the boundary, not a float-rounding hair outside it
        x_edge = max(c[0] for c in self.FP.corners)
        y_edge = max(c[1] for c in self.FP.corners)
        assert point_in_footprint(x_edge, 0.0, self.FP)
        assert point_in_footprint(x_edge, y_edge, self.FP)
        assert point_in_footprint(0.0, y_edge, self.FP)

    def test_agrees_with_half_plane_oracle_bulk(self):
        rng = Random(20240817)
        fp = footprint_corners_world(EnuPoint(2.0, 1.0, 16.0), 0.7, CAM)
        for _ in range(10_000):
            x = rng.uniform(-8.0, 12.0)
            y = rng.uniform(-7.0, 9.0)
            assert point_in_footprint(x, y, fp) == half_plane_contains(x, y, fp.corners)

    @given(x=st.floats(-10, 10), y=st.floats(-10, 10),
           yaw=st.floats(-math.pi, math.pi), z=st.floats(2.0, 25.0))
    @settings(max_examples=200)
    def test_agrees_with_half_plane_oracle_property(self, x, y, yaw, z):
        fp = footprint_corners_world(EnuPoint(0.0, 0.0, z), yaw, CAM)
        assert point_in_footprint(x, y, fp) == half_plane_contains(x, y, fp.corners)
