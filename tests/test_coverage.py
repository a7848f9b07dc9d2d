"""Coverage raster: stamping, overlap fraction, coverage ratio."""

import math
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from skysearch.coverage import CoverageMap, Rect
from skysearch.geometry import CameraIntrinsics, EnuPoint, footprint_corners_world
from skysearch.model import ModelConfig

CAM = CameraIntrinsics()


def fresh_map():
    return CoverageMap(Rect(0.0, 0.0, 60.0, 6.0), cell_size=0.5)


def seen_count(cells):
    return cells.bit_count()


def fp_at(x, y, z=16.0, yaw=0.0):
    return footprint_corners_world(EnuPoint(x, y, z), yaw, CAM)


class TestRect:
    def test_survey_manhattan_diagonal(self):
        # the reward's d_w: Manhattan distance across the 60 x 6 m survey
        assert ModelConfig(survey=Rect(0.0, 0.0, 60.0, 6.0)).d_w() == 66.0


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
        n = seen_count(cov.cells)
        area_cells = fp.area() / cov.cell_size ** 2
        perimeter_band = 2 * (7.02 + 5.18) / cov.cell_size  # one-cell boundary strip
        assert abs(n - area_cells) <= perimeter_band

    def test_idempotent(self):
        cov = fresh_map()
        fp = fp_at(10.0, 2.0)
        cov.stamp_footprint(fp)
        once = cov.cells
        cov.stamp_footprint(fp)
        assert cov.cells == once

    def test_fully_outside_is_noop(self):
        cov = fresh_map()
        cov.stamp_footprint(fp_at(500.0, 500.0))
        assert cov.cells == 0

    def test_never_clears_cells(self):
        cov = fresh_map()
        rng = Random(3)
        prev = 0
        for _ in range(50):
            cov.stamp_footprint(fp_at(rng.uniform(0, 60), rng.uniform(0, 6),
                                      rng.uniform(5.5, 16)))
            now = seen_count(cov.cells)
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
        scratch.stamp_footprint(fp)
        assert scratch.overlap_fraction(fp) == 1.0
        assert cov.overlap_fraction(fp) == 0.0  # the live map never saw it
        assert scratch._blocks is cov._blocks  # one block-mask cache for both


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


class TestAgainstCellCentreOracle:
    """Every raster operation against a brute-force set of seen cells.

    The rule the raster implements: a cell is under an axis-aligned
    rectangle [x0, x1] x [y0, y1] when its centre lies inside it, edges
    included, and under a yawed footprint when its centre lies inside the
    footprint's bounding box and on the inner side of every edge, within
    -1e-12 of the half-plane test. Coordinates are multiples of 1/64 m, so
    the rectangle comparisons are exact and centres land on edges.
    """

    SURVEY = Rect(0.0, 0.0, 10.0, 4.0)

    @staticmethod
    def centres(cov):
        return ([(ix, cov.origin_x + (ix + 0.5) * cov.cell_size) for ix in range(cov.nx)],
                [(iy, cov.origin_y + (iy + 0.5) * cov.cell_size) for iy in range(cov.ny)])

    @classmethod
    def rect_cells(cls, cov, x0, y0, x1, y1):
        xs, ys = cls.centres(cov)
        return {(iy, ix) for iy, cy in ys if y0 <= cy <= y1
                for ix, cx in xs if x0 <= cx <= x1}

    @classmethod
    def quad_cells(cls, cov, fp):
        x0, y0, x1, y1 = fp.bbox()
        cs = fp.corners
        edges = list(zip(cs, cs[1:] + cs[:1]))
        return {(iy, ix) for iy, ix in cls.rect_cells(cov, x0, y0, x1, y1)
                if all((bx - ax) * (cov.origin_y + (iy + 0.5) * cov.cell_size - ay)
                       - (by - ay) * (cov.origin_x + (ix + 0.5) * cov.cell_size - ax)
                       >= -1e-12 for (ax, ay), (bx, by) in edges)}

    @staticmethod
    def as_set(cov, cells):
        assert 0 <= cells < 1 << cov.ny * cov.nx  # no bit past the last cell
        return {divmod(i, cov.nx) for i in range(cov.ny * cov.nx) if cells >> i & 1}

    @staticmethod
    def fraction(seen, under, empty):
        return len(seen & under) / len(under) if under else empty

    metres = st.integers(-16 * 64, 26 * 64).map(lambda k: k / 64)
    boxes = st.tuples(metres, metres, metres, metres).map(
        lambda v: ("box", (min(v[0], v[2]), min(v[1], v[3]), max(v[0], v[2]), max(v[1], v[3]))))
    # yaw 0 gives an axis-aligned footprint; the other yaws stay clear of it
    footprints = st.builds(
        lambda x, y, z, yaw: ("yawed" if yaw else "upright",
                              footprint_corners_world(EnuPoint(x, y, z), yaw, CAM)),
        metres, metres, st.integers(4 * 64, 16 * 64).map(lambda k: k / 64),
        st.one_of(st.just(0.0), st.floats(0.05, math.pi / 2 - 0.05)))
    fused = boxes.map(lambda box: ("fused", box[1]))  # overlap_then_stamp
    # (kind, shape, stamp the scratch instead of the live map), or a new scratch
    ops = st.one_of(st.tuples(st.one_of(boxes, fused, footprints), st.booleans()).map(
        lambda t: (*t[0], t[1])), st.just(("snapshot", None, None)))

    @settings(max_examples=80, deadline=None)
    @given(cell=st.sampled_from([0.5, 2.0]), ops=st.lists(ops, min_size=1, max_size=10))
    # fused calls off the map, between two cell centres, then over stamped cells
    @example(cell=2.0, ops=[("fused", (-16.0, -16.0, -12.0, 26.0), False),
                            ("fused", (1.25, 1.25, 1.75, 3.0), True),
                            ("box", (0.0, 0.0, 4.0, 4.0), True),
                            ("fused", (2.0, -1.0, 8.0, 3.0), True)])
    def test_operations_match_the_oracle(self, cell, ops):
        cov = CoverageMap(self.SURVEY, cell_size=cell)
        s = self.SURVEY
        survey = self.rect_cells(cov, s.x_min, s.y_min, s.x_max, s.y_max)
        scratch, live, mine = cov.snapshot(), set(), set()
        for kind, shape, on_scratch in ops:
            before = self.as_set(cov, cov.cells)
            if kind == "snapshot":
                scratch, mine = cov.snapshot(), set(live)
                assert scratch.nbytes == cov.ny * math.ceil(cov.nx / 8)
            else:
                target, seen = (scratch, mine) if on_scratch else (cov, live)
                if kind == "box":
                    under = self.rect_cells(cov, *shape)
                    assert target.rect_overlap(*shape) == self.fraction(seen, under, 1.0)
                    target.stamp_rect(*shape)
                elif kind == "fused":
                    under = self.rect_cells(cov, *shape)
                    eps = target.overlap_then_stamp(*shape)
                    assert eps == self.fraction(seen, under, 1.0)
                else:
                    under = (self.quad_cells(cov, shape) if kind == "yawed"
                             else self.rect_cells(cov, *shape.bbox()))
                    assert target.overlap_fraction(shape) == self.fraction(seen, under, 1.0)
                    target.stamp_footprint(shape)
                seen |= under
            after = self.as_set(cov, cov.cells)
            assert before <= after  # cells never clear
            assert after == live  # a scratch stamp never reaches the live map
            assert self.as_set(cov, scratch.cells) == mine
            assert cov.coverage_ratio() == self.fraction(live, survey, 0.0)
