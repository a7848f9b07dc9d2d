"""Coverage raster: stamping, overlap fraction, coverage ratio."""

import math
from random import Random

import numpy as np
import pytest

from skysearch.coverage import CoverageMap, Rect
from skysearch.geometry import CameraIntrinsics, EnuPoint, footprint_corners_world

CAM = CameraIntrinsics()


def fresh_map():
    return CoverageMap(Rect(0.0, 0.0, 60.0, 6.0), cell_size=0.5)


def fp_at(x, y, z=16.0, yaw=0.0):
    return footprint_corners_world(EnuPoint(x, y, z), yaw, CAM)


class TestRect:
    def test_survey_manhattan_diagonal(self):
        # the reward's d_w: Manhattan distance across the 60 x 6 m survey
        assert Rect(0.0, 0.0, 60.0, 6.0).manhattan_diagonal() == 66.0


class TestRaster:
    def test_shape_adds_the_margin_on_each_side(self):
        cov = fresh_map()
        assert CoverageMap.MARGIN == 10.0
        assert (cov.ny, cov.nx) == CoverageMap.raster_shape(cov.survey, 0.5) == (52, 160)
        assert (cov.origin_x, cov.origin_y) == (-10.0, -10.0)


class TestStamp:
    def test_cell_count_matches_area(self):
        cov = fresh_map()
        fp = fp_at(30.0, 3.0)
        cov.stamp_footprint(fp)
        n = int(np.count_nonzero(cov.cells))
        area_cells = fp.area() / cov.cell_size ** 2
        perimeter_band = 2 * (7.02 + 5.18) / cov.cell_size  # one-cell boundary strip
        assert abs(n - area_cells) <= perimeter_band

    def test_idempotent(self):
        cov = fresh_map()
        fp = fp_at(10.0, 2.0)
        cov.stamp_footprint(fp)
        once = cov.cells.copy()
        cov.stamp_footprint(fp)
        assert np.array_equal(cov.cells, once)

    def test_fully_outside_is_noop(self):
        cov = fresh_map()
        cov.stamp_footprint(fp_at(500.0, 500.0))
        assert not cov.cells.any()

    def test_never_clears_cells(self):
        cov = fresh_map()
        rng = Random(3)
        prev = 0
        for _ in range(50):
            cov.stamp_footprint(fp_at(rng.uniform(0, 60), rng.uniform(0, 6),
                                      rng.uniform(5.5, 16)))
            now = int(np.count_nonzero(cov.cells))
            assert now >= prev
            prev = now

    def test_rotated_stamp_matches_query(self):
        cov = fresh_map()
        fp = fp_at(20.0, 3.0, yaw=0.61)
        cov.stamp_footprint(fp)
        assert cov.overlap_fraction(fp) == 1.0


class TestOverlapFraction:
    def test_fresh_ground_is_zero(self):
        cov = fresh_map()
        assert cov.overlap_fraction(fp_at(30.0, 3.0)) == 0.0

    def test_stamped_ground_is_one_exactly(self):
        cov = fresh_map()
        fp = fp_at(30.0, 3.0)
        cov.stamp_footprint(fp)
        assert cov.overlap_fraction(fp) == 1.0

    def test_half_overlap(self):
        cov = fresh_map()
        # stamp everything west of the split, query a footprint centred on it
        cov.stamp_rect(-10.0, -10.0, 30.0, 16.0)
        fp = fp_at(30.0, 3.0)
        eps = cov.overlap_fraction(fp)
        tol = 2 * cov.cell_size / 7.0128
        assert abs(eps - 0.5) <= tol

    def test_degenerate_footprint_counts_seen(self):
        cov = fresh_map()
        assert cov.overlap_fraction(fp_at(500.0, 500.0)) == 1.0

    def test_monotone_under_restamps(self):
        cov = fresh_map()
        rng = Random(11)
        fp = fp_at(12.0, 2.0)
        prev = cov.overlap_fraction(fp)
        for _ in range(20):
            cov.stamp_footprint(fp_at(rng.uniform(5, 20), rng.uniform(0, 6)))
            now = cov.overlap_fraction(fp)
            assert now >= prev - 1e-12
            prev = now

    def test_random_sequences_stay_in_unit_interval(self):
        cov = fresh_map()
        rng = Random(99)
        for _ in range(300):
            fp = fp_at(rng.uniform(-5, 65), rng.uniform(-3, 9), rng.uniform(4, 16),
                       rng.uniform(-math.pi, math.pi))
            eps = cov.overlap_fraction(fp)
            assert 0.0 <= eps <= 1.0
            if rng.random() < 0.5:
                cov.stamp_footprint(fp)
                assert cov.overlap_fraction(fp) == 1.0

    def test_snapshot_isolates_search(self):
        cov = fresh_map()
        fp = fp_at(30.0, 3.0)
        scratch = cov.snapshot()
        cov.stamp_footprint(fp, scratch)
        assert cov.overlap_fraction(fp, scratch) == 1.0
        assert cov.overlap_fraction(fp) == 0.0  # the live map never saw it


class TestCoverageRatio:
    def test_fresh_map_zero(self):
        assert fresh_map().coverage_ratio() == 0.0

    def test_single_stamp_ratio(self):
        cov = fresh_map()
        fp = fp_at(30.0, 3.0)
        cov.stamp_footprint(fp)
        expected = fp.area() / (60.0 * 6.0)
        assert cov.coverage_ratio() == pytest.approx(expected, rel=0.12)

    def test_rect_helpers_match_polygon_path(self):
        cov = fresh_map()
        fp = fp_at(15.0, 3.0)
        x0, y0, x1, y1 = fp.bbox()
        cov.stamp_rect(x0, y0, x1, y1)
        assert cov.overlap_fraction(fp) == 1.0
        assert cov.rect_overlap(x0, y0, x1, y1) == 1.0
