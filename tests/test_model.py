"""POMDP model: reward transcription, confidence curves, transition,
observation generation and belief construction."""

import copy
import itertools
import math
import re
import sys
from array import array
from dataclasses import replace
from pathlib import Path
from random import Random
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from skysearch import model
from skysearch.coverage import CoverageMap, Rect
from skysearch.geometry import (CameraIntrinsics, EnuPoint, footprint_corners_world,
                                footprint_extent)
from skysearch.model import (ActionCmd, GenerativeModel, ModelConfig, Observation,
                             PomdpState, RewardParams, action_displacement,
                             confidence_paper_literal, confidence_proximity,
                             generate_observation, initial_belief,
                             modeled_confidence, obs_key, reward, transition)
from skysearch.world import OccupancyGrid, load_scenario

CAM = CameraIntrinsics()
CFG = ModelConfig()
RP = RewardParams()
D_W = 66.0
L1_GRID = load_scenario("l1").truth.obstacles  # a 1.5 m box and a 5 m tree


def state(z=16.0, crash=False, roi=False, dct=False, c_v=0.0, x=0.0, y=0.0):
    return PomdpState(x, y, z, crash, roi, dct, 0.0, 0.0, True, c_v)


class TestReward:
    def test_crash_cost(self):
        assert reward(state(crash=True), ActionCmd.HOVER, 0, 0, D_W, RP, CFG) == -50.0

    def test_out_of_limits_cost(self):
        assert reward(state(roi=True), ActionCmd.HOVER, 0, 0, D_W, RP, CFG) == -25.0

    def test_branch_order_crash_wins(self):
        s = PomdpState(0, 0, 5.25, True, True, True, 0, 0, True, 0.99)
        assert reward(s, ActionCmd.DOWN, 0, 0, D_W, RP, CFG) == -50.0
        s2 = PomdpState(0, 0, 5.25, False, True, True, 0, 0, True, 0.99)
        assert reward(s2, ActionCmd.DOWN, 0, 0, D_W, RP, CFG) == -25.0

    def test_confirmed_detection_at_floor(self):
        s = state(z=5.25, dct=True, c_v=0.9)
        assert reward(s, ActionCmd.DOWN, 0, 0, D_W, RP, CFG) == 100.0

    def test_confirm_bonus_needs_down(self):
        s = state(z=5.25, dct=True, c_v=0.9)
        assert reward(s, ActionCmd.HOVER, 0, 0, D_W, RP, CFG) == 50.0

    def test_explore_floor_near_victim(self):
        assert reward(state(z=5.25), ActionCmd.FORWARD, 0.0, 0.0, D_W, RP, CFG) == -27.5

    def test_explore_ceiling_far_victim_full_overlap(self):
        assert reward(state(z=16.0), ActionCmd.FORWARD, 1.0, D_W, D_W, RP, CFG) == -30.9375

    def test_pure_function_bit_exact(self):
        s = state(z=11.37)
        args = (s, ActionCmd.LEFT, 0.371, 23.93, D_W, RP, CFG)
        assert reward(*args) == reward(*args)

    def test_more_overlap_always_worse(self):
        vals = [reward(state(), ActionCmd.FORWARD, e, 30.0, D_W, RP, CFG)
                for e in [i / 20 for i in range(21)]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_detection_reward_non_increasing_in_altitude(self):
        vals = [reward(state(z=z, dct=True), ActionCmd.HOVER, 0, 0, D_W, RP, CFG)
                for z in [5.25 + i for i in range(11)]]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_distance_cost_range(self):
        base = reward(state(), ActionCmd.FORWARD, 0.0, 0.0, D_W, RP, CFG)
        far = reward(state(), ActionCmd.FORWARD, 0.0, D_W, D_W, RP, CFG)
        assert far - base == pytest.approx(-25.0 * (1 - 0.5 ** 4))
        mid = reward(state(), ActionCmd.FORWARD, 0.0, 0.5 * D_W, D_W, RP, CFG)
        assert base > mid > far

    def test_scaled_params_scale_reward(self):
        k = 3.7
        rp2 = RewardParams(crash=-50 * k, out=-25 * k, detect=25 * k,
                           confirm=50 * k, action=-2.5 * k, fov=-5 * k)
        for s, a, e, dv in [(state(), ActionCmd.FORWARD, 0.3, 12.0),
                            (state(z=6, dct=True, c_v=0.9), ActionCmd.DOWN, 0, 0)]:
            assert reward(s, a, e, dv, D_W, rp2, CFG) == pytest.approx(
                k * reward(s, a, e, dv, D_W, RP, CFG))

    @given(x=st.floats(-1.0, 61.0), y=st.floats(-1.0, 7.0), z=st.floats(4.75, 16.5),
           c_v=st.floats(0.0, 1.0), a=st.sampled_from(list(ActionCmd)),
           eps=st.floats(0.0, 1.0), d_v=st.floats())
    def test_detection_reward_reads_neither_overlap_nor_distance(self, x, y, z, c_v, a,
                                                                  eps, d_v):
        # GenerativeModel.step skips both on a detecting step
        s = state(x=x, y=y, z=z, dct=True, c_v=c_v)
        assert reward(s, a, eps, d_v, D_W, RP, CFG) == reward(s, a, 0.0, D_W, D_W, RP, CFG)


class TestConfidenceModels:
    def test_paper_literal_value(self):
        assert confidence_paper_literal(16.0, CFG) == pytest.approx(
            0.9 * (16 - 5.25 + 0.1) / 10.75)

    def test_proximity_endpoints(self):
        assert confidence_proximity(5.25, CFG) == pytest.approx(1.0)
        assert confidence_proximity(16.0, CFG) == pytest.approx(0.1)
        assert confidence_proximity(40.0, CFG) == pytest.approx(0.1)

    def test_default_non_increasing_literal_non_decreasing(self):
        ds = [5.25 + i * (16 - 5.25) / 49 for i in range(50)]
        prox = [confidence_proximity(d, CFG) for d in ds]
        lit = [confidence_paper_literal(d, CFG) for d in ds]
        assert all(a >= b for a, b in zip(prox, prox[1:]))
        assert all(a <= b for a, b in zip(lit, lit[1:]))

    def test_mode_switch(self):
        lit_cfg = replace(CFG, paper_literal_confidence=True)
        assert modeled_confidence(10.0, CFG) == confidence_proximity(10.0, CFG)
        assert modeled_confidence(10.0, lit_cfg) == confidence_paper_literal(10.0, lit_cfg)

    def test_literal_clamped_to_unit_interval(self):
        assert 0.0 <= confidence_paper_literal(100.0, CFG) <= 1.0
        assert 0.0 <= confidence_paper_literal(0.0, CFG) <= 1.0


class TestState:
    def test_fields_cannot_be_assigned(self):
        s = PomdpState(1.0, 2.0, 10.0)
        with pytest.raises(AttributeError):
            s.x = 5.0
        with pytest.raises(AttributeError):
            s.victim_present = False

    def test_keyword_construction_and_defaults(self):
        s = PomdpState(x=1.0, y=2.0, z=10.0, c_v=0.5)
        assert s == PomdpState(1.0, 2.0, 10.0, False, False, False, 0.0, 0.0, True, 0.5)
        assert hash(s) == hash(PomdpState(1.0, 2.0, 10.0, c_v=0.5))


def reference_normal_quantiles() -> array:
    """The 2**16 standard-normal quantiles at the cell midpoints
    ``(i + 0.5) / 2**16``, in increasing order. The lower half comes from the
    inverse CDF and the upper half mirrors it, so the table is exactly
    symmetric about zero. ``model`` loads this table from its package data
    file; on a little-endian host, ``.tobytes()`` of it is that file."""
    n = 1 << 16
    table = array("d", map(NormalDist().inv_cdf, ((i + 0.5) / n for i in range(n // 2))))
    upper = table[::-1]
    table.extend(-z for z in upper)
    return table


TABLE_FILE = Path(model.__file__).with_name("normal_quantiles.bin")


def little_endian_bytes(table: array) -> bytes:
    if sys.byteorder == "big":
        table = array("d", table)
        table.byteswap()
    return table.tobytes()


class TestNormalTable:
    """The quantile table every model noise draw reads."""

    def test_matches_the_reference_generator(self):
        want = little_endian_bytes(reference_normal_quantiles())
        assert little_endian_bytes(model._NORMAL) == want
        assert TABLE_FILE.read_bytes() == want

    @pytest.mark.parametrize("size", [0, 8, 8 * 2 ** 16 - 1, 8 * 2 ** 16 + 8])
    def test_wrong_size_raises_naming_the_file(self, tmp_path, size):
        path = tmp_path / "short.bin"
        path.write_bytes(TABLE_FILE.read_bytes()[:size].ljust(size, b"\0"))
        with pytest.raises(RuntimeError, match=f"{re.escape(str(path))} holds {size} bytes"):
            model._load_normal_table(str(path))

    def test_missing_file_raises_naming_it(self, tmp_path):
        path = tmp_path / "gone.bin"
        with pytest.raises(RuntimeError, match=re.escape(str(path))):
            model._load_normal_table(str(path))

    def test_big_endian_host_swaps_the_bytes(self, tmp_path, monkeypatch):
        # no big-endian host runs the suite: a byteswapped copy of the file
        # read with ``sys.byteorder`` patched must give the same table
        table = array("d", model._NORMAL)
        table.byteswap()
        path = tmp_path / "big.bin"
        path.write_bytes(table.tobytes())
        monkeypatch.setattr(sys, "byteorder", "big")
        assert model._load_normal_table(str(path)) == model._NORMAL

    def test_size_order_and_symmetry(self):
        z = model._NORMAL
        assert len(z) == 2 ** 16
        assert all(a < b for a, b in zip(z, z[1:]))
        assert all(z[i] == -z[-1 - i] for i in range(len(z)))

    def test_spread_and_tails(self):
        z = np.asarray(model._NORMAL)
        assert abs(z.std() - 1.0) < 2e-5
        assert 4.32 <= z.max() <= 4.33

    def test_hover_displacement_is_normal(self):
        rng = Random(11)
        s = state(z=12.0, x=30.0, y=3.0)
        dx = [transition(s, ActionCmd.HOVER, CFG, CAM, None, rng).x - s.x
              for _ in range(20_000)]
        assert stats.kstest(dx, "norm", args=(0.0, CFG.move_noise_xy)).pvalue > 0.01


class TestTransition:
    QUIET = replace(CFG, move_noise_xy=0.0, move_noise_z=0.0)

    def test_hover_identity_without_noise(self):
        s = state(z=12.0, x=5.0, y=3.0)
        s2 = transition(s, ActionCmd.HOVER, self.QUIET, CAM, None, Random(0))
        assert (s2.x, s2.y, s2.z) == (s.x, s.y, s.z)

    def test_down_lands_exactly_on_floor(self):
        s = state(z=CFG.z_min + CFG.climb_step, x=30.0, y=3.0)
        s2 = transition(s, ActionCmd.DOWN, self.QUIET, CAM, None, Random(0))
        assert s2.z == CFG.z_min
        assert not s2.f_roi
        s3 = transition(s2, ActionCmd.DOWN, self.QUIET, CAM, None, Random(0))
        assert s3.f_roi

    def test_horizontal_steps_use_overlap_rule(self):
        s = state(z=16.0, x=30.0, y=3.0)
        s2 = transition(s, ActionCmd.FORWARD, self.QUIET, CAM, None, Random(0))
        assert s2.x - s.x == pytest.approx(7.012765957446809 * 0.6)
        s3 = transition(s, ActionCmd.LEFT, self.QUIET, CAM, None, Random(0))
        assert s3.y - s.y == pytest.approx(5.174468085106382 * 0.6)

    def test_flying_into_obstacle_crashes(self):
        grid = OccupancyGrid()
        grid.add_box(33.0, 2.0, 0.0, 3.0, 3.0, 20.0)
        s = state(z=12.0, x=30.5, y=3.0)
        s2 = transition(s, ActionCmd.FORWARD, self.QUIET, CAM, grid, Random(0))
        assert s2.f_crash

    @given(x=st.floats(28.0, 29.6), y=st.floats(4.8, 6.4), z=st.floats(3.5, 6.0),
           a=st.sampled_from(list(ActionCmd)), seed=st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_crash_flag_is_grid_occupancy(self, x, y, z, a, seed):
        # around the top of l1's 5 m tree
        s2 = transition(state(z=z, x=x, y=y), a, CFG, CAM, L1_GRID, Random(seed))
        assert s2.f_crash == L1_GRID.occupied(s2.x, s2.y, s2.z)

    def test_exit_survey_box_raises_flag(self):
        s = state(z=16.0, x=59.0, y=3.0)
        s2 = transition(s, ActionCmd.FORWARD, self.QUIET, CAM, None, Random(0))
        assert s2.f_roi

    def test_geofence_clamps_to_limits(self):
        s = state(z=16.0, x=59.0, y=3.0)
        s2 = transition(s, ActionCmd.FORWARD, self.QUIET, CAM, None, Random(0),
                        geofence=True)
        assert s2.x == 60.0
        assert not s2.f_roi

    def test_detection_coupling(self):
        cfg = self.QUIET
        s = PomdpState(10.0, 3.0, 16.0, victim_x=11.0, victim_y=3.5,
                       victim_present=True)
        s2 = transition(s, ActionCmd.HOVER, cfg, CAM, None, Random(0))
        assert s2.f_dct
        d = abs(s2.x - 11.0) + abs(s2.y - 3.5) + s2.z
        assert s2.c_v == pytest.approx(modeled_confidence(d, cfg))
        far = PomdpState(10.0, 3.0, 16.0, victim_x=50.0, victim_y=3.0,
                         victim_present=True)
        assert not transition(far, ActionCmd.HOVER, cfg, CAM, None, Random(0)).f_dct


class TestObservation:
    def test_zeta_lands_on_bins(self):
        s2 = PomdpState(10.0, 3.0, 16.0, f_dct=True, victim_x=10.5, victim_y=3.0,
                        victim_present=True, c_v=0.37)
        obs = generate_observation(s2, ActionCmd.HOVER, CAM, CFG, None, Random(4))
        assert obs.detected
        assert obs.zeta == pytest.approx(round(obs.zeta / 0.05) * 0.05)

    def test_no_victim_no_detection(self):
        s2 = PomdpState(10.0, 3.0, 16.0, victim_present=False)
        obs = generate_observation(s2, ActionCmd.HOVER, CAM, CFG, None, Random(4))
        assert not obs.detected and obs.pv_x is None and obs.zeta is None

    def test_obstacle_ahead_flag(self):
        grid = OccupancyGrid()
        grid.add_box(12.0, 2.5, 0.0, 2.0, 1.0, 20.0)
        s2 = PomdpState(10.0, 3.0, 12.0, victim_present=False)
        obs = generate_observation(s2, ActionCmd.FORWARD, CAM, CFG, grid, Random(4))
        assert obs.obstacle_ahead
        obs2 = generate_observation(s2, ActionCmd.BACKWARD, CAM, CFG, grid, Random(4))
        assert not obs2.obstacle_ahead

    @given(x=st.floats(2, 58), y=st.floats(0.5, 5.5), z=st.floats(5.5, 16.0),
           vx=st.floats(0, 60), vy=st.floats(0, 6),
           a=st.sampled_from(list(ActionCmd)), seed=st.integers(0, 10_000),
           edge=st.sampled_from([None, -1e-9, 1e-9]))
    @example(x=28.5, y=5.5, z=16.0, vx=0.0, vy=0.0, a=ActionCmd.DOWN, seed=0, edge=-1e-9)
    @example(x=28.5, y=5.5, z=16.0, vx=0.0, vy=0.0, a=ActionCmd.DOWN, seed=0, edge=1e-9)
    @settings(max_examples=120, deadline=None)
    def test_inline_key_matches_reference_observation(self, x, y, z, vx, vy, a, seed, edge):
        # the planner's inlined observation key must be the reference
        # generate_observation + obs_key pipeline, draw for draw, with the
        # obstacle-ahead test run against l1's obstacles; bins finer than
        # the noise so that a reordered draw shows
        cfg = replace(CFG, obs_cell=0.02)
        model = GenerativeModel(cfg, RP, CAM, occupancy=L1_GRID)
        s2 = transition(PomdpState(x, y, z, victim_x=vx, victim_y=vy,
                                   victim_present=True),
                        a, cfg, CAM, L1_GRID, Random(seed))
        if edge is not None:
            # one climb step above the grid top, give or take 1e-9 m: the
            # highest pose whose Down step still sweeps an occupied cell
            s2 = s2._replace(x=x, y=y, z=L1_GRID.top_z + cfg.climb_step + edge)
        key_fast = model._observe_key(s2, a, Random(seed + 1))
        obs = generate_observation(s2, a, CAM, cfg, L1_GRID, Random(seed + 1))
        assert key_fast == obs_key(obs, cfg)
        if edge is not None and a == ActionCmd.DOWN and L1_GRID.occupied(x, y, 4.5):
            assert key_fast[-1] == (edge < 0)  # over the 5 m tree

    @given(x=st.floats(-2, 62), y=st.floats(-2, 8), z=st.floats(0.5, 18.0),
           victim_in_view=st.booleans(), a=st.sampled_from(list(ActionCmd)),
           seed=st.integers(0, 2**32), est_noise_xy=st.sampled_from([0.0, 0.1, 3.0]),
           est_noise_z=st.sampled_from([0.0, 0.05, 2.0]))
    # the motion noise carries this pose below the ground, where the key's
    # obstacle probe raised on the horizontal step length
    @example(x=0.0, y=0.0, z=0.5, victim_in_view=False, a=ActionCmd.FORWARD, seed=8952443,
             est_noise_xy=0.0, est_noise_z=0.0)
    @settings(max_examples=150, deadline=None)
    def test_an_unkeyed_step_takes_exactly_the_keys_draws(self, x, y, z, victim_in_view, a,
                                                          seed, est_noise_xy, est_noise_z):
        # the unkeyed step draws the key's words in one call; the reference
        # draws the motion, then builds the key
        cfg = replace(CFG, est_noise_xy=est_noise_xy, est_noise_z=est_noise_z)
        model = GenerativeModel(cfg, RP, CAM, occupancy=L1_GRID)
        s = PomdpState(x, y, z, victim_x=x if victim_in_view else x + 100.0, victim_y=y,
                       victim_present=True)
        skipped, keyed = Random(seed), Random(seed)
        model.step(s, a, skipped, False)
        model._observe_key(transition(s, a, cfg, CAM, L1_GRID, keyed), a, keyed)
        assert skipped.getstate() == keyed.getstate()


def reference_step(s, a, cfg, scratch, rng, keyed=True):
    """``GenerativeModel.step`` composed from the reference pieces:
    transition, the full observation and its key (always drawn, reported
    only on a keyed step that does not end the episode), the footprint
    overlap and stamp on ``scratch``, then the reward."""
    act = ActionCmd(a)
    s2 = transition(s, act, cfg, CAM, L1_GRID, rng)
    key = obs_key(generate_observation(s2, act, CAM, cfg, L1_GRID, rng), cfg)
    terminal = s2.c_v >= cfg.zeta or s2.f_crash or s2.f_roi
    if not keyed or terminal:
        key = None
    eps, d_v = 0.0, cfg.d_w()
    if not (s2.f_crash or s2.f_roi):
        fp = footprint_corners_world(EnuPoint(s2.x, s2.y, s2.z), 0.0, CAM)
        eps = scratch.overlap_fraction(fp)
        scratch.stamp_footprint(fp)
        if s2.victim_present:
            d_v = abs(s2.x - s2.victim_x) + abs(s2.y - s2.victim_y)
    r = reward(s2, act, eps, d_v, cfg.d_w(), RP, cfg)
    return s2, key, r, terminal


class TestGenerativeStep:
    # start states that land in each branch of the step: into the 5 m tree,
    # past the survey edge, a hypothesis without a victim, a victim in view
    STARTS = {
        "crash": PomdpState(28.8, 5.6, 4.6, victim_x=10.0, victim_y=3.0),
        "out": PomdpState(59.5, 3.0, 12.0, victim_x=10.0, victim_y=3.0),
        "absent": PomdpState(20.0, 3.0, 10.0, victim_present=False),
        "detect": PomdpState(30.0, 3.0, 8.0, victim_x=30.5, victim_y=3.2),
    }

    @staticmethod
    def branch(s):
        if s.f_crash:
            return "crash"
        if s.f_roi:
            return "out"
        return "detect" if s.f_dct else ("absent" if not s.victim_present else "miss")

    def test_new_scratch_resets_its_view_to_the_live_map(self):
        # the model keeps one scratch map; each call resets it, so a stamp
        # made in one episode is gone in the next episode
        cov = CoverageMap(CFG.survey, cell_size=CFG.obs_cell)
        cov.stamp_rect(10.0, 1.0, 14.0, 5.0)
        model = GenerativeModel(CFG, RP, CAM, cov_map=cov)
        first = model.new_scratch()
        first.stamp_rect(40.0, 1.0, 44.0, 5.0)
        assert first.cells != cov.cells
        assert cov.rect_overlap(40.0, 1.0, 44.0, 5.0) == 0.0
        second = model.new_scratch()
        assert second.cells == cov.cells
        assert second.rect_overlap(40.0, 1.0, 44.0, 5.0) == 0.0
        cov.stamp_rect(20.0, 1.0, 24.0, 5.0)  # the live map moves on between plans
        assert model.new_scratch().cells == cov.cells

    def test_default_coverage_map_uses_obs_cell(self):
        # at the default 0.5 m cells this survey needs 2.46e7, past the raster bound
        cfg = replace(CFG, survey=Rect(0.0, 0.0, 6000.0, 1000.0), obs_cell=2.0)
        model = GenerativeModel(cfg, RP, CAM)
        assert model.cov_map.cell_size == 2.0
        assert model.cov_map.survey == cfg.survey

    @pytest.mark.parametrize("kind", STARTS)
    def test_step_matches_reference_composition(self, kind):
        # a rollout's unkeyed step must leave everything, the RNG included,
        # as the keyed step would, and report no key
        cfg = replace(CFG, obs_cell=2.0)
        cov = CoverageMap(cfg.survey, cell_size=cfg.obs_cell)
        model = GenerativeModel(cfg, RP, CAM, occupancy=L1_GRID, cov_map=cov)
        reached = set()
        for seed, a, keyed in itertools.product(range(12), range(model.n_actions),
                                                (True, False)):
            fast_rng, ref_rng = Random(seed), Random(seed)
            fast, ref = model.new_scratch(), cov.snapshot()
            s = self.STARTS[kind]
            for _ in range(2):  # the second step overlaps the first stamp
                got = model.step(s, a, fast_rng, keyed)
                assert got == reference_step(s, a, cfg, ref, ref_rng, keyed)
                assert fast == ref
                assert (got[1] is None) == (not keyed or got[3])
                reached.add(self.branch(got[0]))
                if got[3]:
                    break
                s = got[0]
            assert fast_rng.getstate() == ref_rng.getstate()
        assert kind in reached

    def test_detection_on_a_stamped_scratch_matches_reference(self):
        # the step skips the overlap a detection never reads; here that
        # overlap would be non-zero, and every output must still match
        cfg = replace(CFG, obs_cell=2.0)
        cov = CoverageMap(cfg.survey, cell_size=cfg.obs_cell)
        model = GenerativeModel(cfg, RP, CAM, occupancy=L1_GRID, cov_map=cov)
        s = self.STARTS["detect"]
        seen_before = 0
        for seed, a, keyed in itertools.product(range(12), range(model.n_actions),
                                                (True, False)):
            fast, ref = model.new_scratch(), cov.snapshot()
            for scratch in (fast, ref):  # the left half of the start view
                scratch.stamp_rect(s.x - 2.0, s.y - 2.0, s.x, s.y + 2.0)
            before = copy.copy(fast)
            fast_rng, ref_rng = Random(seed), Random(seed)
            got = model.step(s, a, fast_rng, keyed)
            assert got == reference_step(s, a, cfg, ref, ref_rng, keyed)
            assert fast == ref
            assert fast_rng.getstate() == ref_rng.getstate()
            s2 = got[0]
            if s2.f_dct:
                l_top, l_bottom, l_left, l_right = footprint_extent(s2.z, CAM)
                seen_before += before.rect_overlap(s2.x + l_left, s2.y + l_bottom,
                                                   s2.x + l_right, s2.y + l_top) > 0.0
        assert seen_before > 0

    # poses over and around l1's 5 m tree and 1.5 m box, and along each
    # survey edge, the floor and the ceiling: (x, y, z) ranges
    REGIONS = [((26.0, 31.5), (3.5, 7.5), (3.0, 7.5)), ((42.0, 50.0), (0.0, 4.5), (0.5, 4.0)),
               ((-1.0, 1.0), (-1.0, 7.0), (4.5, 17.0)), ((59.0, 61.0), (-1.0, 7.0), (4.5, 17.0)),
               ((-1.0, 61.0), (-1.0, 1.0), (4.5, 17.0)), ((-1.0, 61.0), (5.0, 7.0), (4.5, 17.0)),
               ((-1.0, 61.0), (-1.0, 7.0), (4.5, 5.75)), ((-1.0, 61.0), (-1.0, 7.0), (15.5, 17.0))]
    poses = st.sampled_from(REGIONS).flatmap(
        lambda r: st.tuples(*(st.floats(lo, hi) for lo, hi in r)))
    # the victim hypothesis as an offset from the pose, or no victim
    victims = st.one_of(st.none(), st.tuples(st.floats(-4.0, 4.0), st.floats(-3.0, 3.0)))
    configs = st.builds(
        lambda cell, mxy, mz, exy, ez, literal: replace(
            CFG, obs_cell=cell, move_noise_xy=mxy, move_noise_z=mz, est_noise_xy=exy,
            est_noise_z=ez, paper_literal_confidence=literal),
        st.sampled_from([0.5, 2.0]), st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 0.2]),
        st.sampled_from([0.0, 0.1]), st.sampled_from([0.0, 0.05]), st.booleans())

    @staticmethod
    def drawn_start(pose, victim):
        x, y, z = pose
        if victim is None:
            return PomdpState(x, y, z, victim_present=False)
        return PomdpState(x, y, z, victim_x=x + victim[0], victim_y=y + victim[1])

    @settings(max_examples=300, deadline=None)
    @given(pose=poses, victim=victims, a=st.integers(0, 6), keyed=st.booleans(), cfg=configs,
           stamp=st.one_of(st.none(), st.tuples(*[st.floats(-6.0, 6.0)] * 2,
                                                 *[st.floats(0.0, 8.0)] * 2)),
           seed=st.integers(0, 2**32))
    # flown into the tree without noise; a victim in view at the floor
    @example(pose=(28.0, 5.6, 4.6), victim=(5.0, 0.0), a=0, keyed=True, stamp=None, seed=0,
             cfg=replace(CFG, move_noise_xy=0.0, move_noise_z=0.0))
    @example(pose=(30.0, 3.0, 7.25), victim=(0.5, 0.2), a=5, keyed=True,
             stamp=(-2.0, -2.0, 2.0, 4.0), seed=0, cfg=replace(CFG, obs_cell=0.5))
    def test_step_matches_reference_on_drawn_poses(self, pose, victim, a, keyed, cfg, stamp,
                                                   seed):
        cov = CoverageMap(cfg.survey, cell_size=cfg.obs_cell)
        model = GenerativeModel(cfg, RP, CAM, occupancy=L1_GRID, cov_map=cov)
        s = self.drawn_start(pose, victim)
        fast, ref = model.new_scratch(), cov.snapshot()
        if stamp is not None:  # part of the ground round the pose already seen
            x0, y0 = s.x + stamp[0], s.y + stamp[1]
            for scratch in (fast, ref):
                scratch.stamp_rect(x0, y0, x0 + stamp[2], y0 + stamp[3])
        fast_rng, ref_rng = Random(seed), Random(seed)
        got = model.step(s, a, fast_rng, keyed)
        assert got == reference_step(s, a, cfg, ref, ref_rng, keyed)
        assert fast == ref
        assert fast_rng.getstate() == ref_rng.getstate()

    @settings(max_examples=300, deadline=None)
    @given(pose=poses, victim=victims, a=st.integers(0, 6), cfg=configs,
           seed=st.integers(0, 2**32))
    def test_belief_update_moves_as_the_search_does(self, pose, victim, a, cfg, seed):
        # resimulate (the belief update) and a keyed step (the search) share
        # one motion and observation model, draw for draw
        model = GenerativeModel(cfg, RP, CAM, occupancy=L1_GRID)
        s = self.drawn_start(pose, victim)
        belief_rng, search_rng = Random(seed), Random(seed)
        s2, key = model.resimulate(s, a, belief_rng)
        t2, t_key, _, terminal = model.step(s, a, search_rng, True)
        assert s2 == t2
        if not terminal:
            assert key == t_key
        assert belief_rng.getstate() == search_rng.getstate()


def reference_reinvigorate(model, obs, donors, rng):
    """One fresh particle, as ``GenerativeModel.reinvigorate`` drew each
    particle of a refill in a call of its own, with ``Random.randrange``."""
    cfg = model.cfg
    bits, uniform, randrange = rng.getrandbits, rng.random, rng.randrange
    ux = obs.pu_x + model_normal(bits) * cfg.est_noise_xy
    uy = obs.pu_y + model_normal(bits) * cfg.est_noise_xy
    uz = obs.pu_z + model_normal(bits) * cfg.est_noise_z
    if obs.detected:
        d_obs = abs(ux - obs.pv_x) + abs(uy - obs.pv_y) + uz
        expected = max(modeled_confidence(d_obs, cfg), cfg.zeta_min)
        if uniform() < min(obs.zeta / expected, 1.0):
            vx = obs.pv_x + model_normal(bits) * cfg.est_noise_xy
            vy = obs.pv_y + model_normal(bits) * cfg.est_noise_xy
            if donors and uniform() < 0.7:
                donor = donors[randrange(len(donors))]
                if donor.victim_present and donor.f_dct:
                    vx = 0.5 * (donor.victim_x + vx) + model_normal(bits) * 0.1
                    vy = 0.5 * (donor.victim_y + vy) + model_normal(bits) * 0.1
            return PomdpState(ux, uy, uz, False, False, True, vx, vy, True, obs.zeta)
        return PomdpState(ux, uy, uz, False, False, False, 0.0, 0.0, False, 0.0)
    l_top, l_bottom, l_left, l_right = footprint_extent(max(obs.pu_z, 1e-6), model.cam)
    x0, x1 = obs.pu_x + l_left, obs.pu_x + l_right
    y0, y1 = obs.pu_y + l_bottom, obs.pu_y + l_top
    if uniform() < model.victim_prior:
        vx = vy = None
        for _ in range(30):
            if donors and uniform() < 0.9:
                donor = donors[randrange(len(donors))]
                if not donor.victim_present:
                    continue
                vx = donor.victim_x + model_normal(bits) * 0.25
                vy = donor.victim_y + model_normal(bits) * 0.25
            else:
                region = model.prior_region
                vx = rng.uniform(region.x_min, region.x_max)
                vy = rng.uniform(region.y_min, region.y_max)
            break
        if vx is not None:
            if x0 <= vx <= x1 and y0 <= vy <= y1 and uniform() < model.MISS_PRUNE:
                return PomdpState(ux, uy, uz, False, False, False, 0.0, 0.0, False, 0.0)
            return PomdpState(ux, uy, uz, False, False, False, vx, vy, True, 0.0)
    return PomdpState(ux, uy, uz, False, False, False, 0.0, 0.0, False, 0.0)


def model_normal(bits):
    return model._NORMAL[bits(16)]


class TestReinvigorate:
    # the batched refill against one reference call per particle
    DONOR = st.builds(
        lambda dx, dy, present, dct: PomdpState(30.0 + dx, 3.0 + dy, 10.0, False, False, dct,
                                                30.0 + dx, 3.0 + dy, present,
                                                0.5 if dct else 0.0),
        st.floats(-8.0, 8.0), st.floats(-4.0, 4.0), st.booleans(), st.booleans())
    DONORS = st.one_of(st.just([]),
                       st.lists(DONOR.map(lambda p: p._replace(victim_present=False)),
                                min_size=1, max_size=8),
                       st.lists(DONOR, min_size=1, max_size=8))
    OBSERVATIONS = st.one_of(
        st.builds(lambda x, y, z: Observation(x, y, z, False),
                  st.floats(26.0, 34.0), st.floats(0.0, 6.0), st.floats(0.5, 18.0)),
        st.builds(lambda x, y, z, dx, dy, zeta: Observation(x, y, z, True, x + dx, y + dy,
                                                            zeta),
                  st.floats(26.0, 34.0), st.floats(0.0, 6.0), st.floats(0.5, 18.0),
                  st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(0.0, 1.0)))

    @staticmethod
    def assert_refill_matches_reference(gm, obs, donors, n, seed):
        rng, ref_rng = Random(seed), Random(seed)
        fresh = gm.reinvigorate(obs, donors, n, rng)
        assert fresh == [reference_reinvigorate(gm, obs, donors, ref_rng) for _ in range(n)]
        assert all(type(p) is PomdpState for p in fresh)
        assert rng.getstate() == ref_rng.getstate()

    @settings(max_examples=200, deadline=None)
    @given(obs=OBSERVATIONS, donors=DONORS, n=st.integers(0, 40),
           prior=st.floats(0.0, 1.0), inspection=st.booleans(), literal=st.booleans(),
           noise=st.sampled_from([(0.1, 0.05), (0.0, 0.0), (2.0, 1.0)]),
           seed=st.integers(0, 2**32))
    def test_batch_equals_one_reference_call_per_particle(self, obs, donors, n, prior,
                                                          inspection, literal, noise, seed):
        cfg = replace(CFG, paper_literal_confidence=literal, est_noise_xy=noise[0],
                      est_noise_z=noise[1])
        # an inspection's prior region is one footprint round the detection
        region = Rect(28.0, 1.0, 33.0, 5.0) if inspection else None
        gm = GenerativeModel(cfg, RP, CAM, prior_region=region, victim_prior=prior)
        self.assert_refill_matches_reference(gm, obs, donors, n, seed)

    @pytest.mark.parametrize("detected", [False, True])
    def test_donor_draw_is_random_randrange(self, detected):
        # donors far apart and all present, so each fresh hypothesis names
        # the donor it came from; one donor list of each length 1..300
        gm = GenerativeModel(CFG, RP, CAM)
        obs = (Observation(30.0, 3.0, 6.0, True, 30.0, 3.0, 1.0) if detected
               else Observation(30.0, 3.0, 6.0, False))
        for m in range(1, 301):
            donors = [PomdpState(30.0, 3.0, 6.0, False, False, True, 1000.0 * i, 0.0, True,
                                 0.5) for i in range(m)]
            self.assert_refill_matches_reference(gm, obs, donors, 20, m)


class TestTerminal:
    # the model's terminal rule; the flight loops own the clock and survey
    # completion (see test_missions)
    MODEL = GenerativeModel(CFG, RP, CAM)

    def test_confidence_threshold_boundary(self):
        assert self.MODEL.is_terminal(state(dct=True, c_v=0.85))
        assert not self.MODEL.is_terminal(state(dct=True, c_v=0.8499))

    def test_fresh_state_not_terminal(self):
        assert not self.MODEL.is_terminal(state())

    def test_flags_and_clock(self):
        assert self.MODEL.is_terminal(state(crash=True))
        assert self.MODEL.is_terminal(state(roi=True))


class TestInitialBelief:
    def test_full_area_belief_spans_survey(self):
        belief = initial_belief(CFG, 2000, Random(1), start=EnuPoint(1, 1, 16))
        xs = [p.victim_x for p in belief.particles]
        ys = [p.victim_y for p in belief.particles]
        assert 0 <= min(xs) < 1.0 and 59.0 < max(xs) <= 60
        assert 0 <= min(ys) < 0.2 and 5.8 < max(ys) <= 6

    def test_footprint_belief_stays_inside(self):
        # an inspection's region: one camera footprint centred on the detection
        l_top, l_bottom, l_left, l_right = footprint_extent(16.0, CAM)
        region = Rect(30 + l_left, 3 + l_bottom, 30 + l_right, 3 + l_top)
        belief = initial_belief(CFG, 500, Random(2), start=EnuPoint(30, 3, 16),
                                region=region)
        assert all(region.contains(p.victim_x, p.victim_y) for p in belief.particles)

    def test_uniform_mean_near_centre(self):
        n = 4000
        belief = initial_belief(CFG, n, Random(3), start=EnuPoint(1, 1, 16))
        mean_x = sum(p.victim_x for p in belief.particles) / n
        se_x = (60 / math.sqrt(12)) / math.sqrt(n)
        assert abs(mean_x - 30.0) < 3 * se_x

    def test_uav_particles_at_start(self):
        start = EnuPoint(5.0, 2.0, 16.0)
        belief = initial_belief(CFG, 300, Random(4), start=start)
        assert all(abs(p.x - 5.0) < 1.0 and abs(p.y - 2.0) < 1.0
                   for p in belief.particles)

    def test_detection_seed(self):
        belief = initial_belief(CFG, 300, Random(5), start=EnuPoint(5, 2, 16),
                                victim_present_prior=0.8, detection=(6.0, 2.5, 0.3))
        present = [p for p in belief.particles if p.victim_present]
        assert all(p.f_dct and p.c_v == 0.3 for p in present)
        assert all(abs(p.victim_x - 6.0) < 1.0 for p in present)
        frac = len(present) / 300
        assert 0.68 < frac < 0.92

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            initial_belief(CFG, 0, Random(0), start=EnuPoint(0, 0, 16))


class TestConfigIO:
    def test_model_config_from_file(self, tmp_path):
        p = tmp_path / "m.scn"
        p.write_text("zeta = 0.9\nsurvey = 0 0 10 10\ngamma = 0.9\nn_particles = 40\n")
        sc = load_scenario(p)
        assert sc.cfg.zeta == 0.9 and sc.cfg.gamma == 0.9
        assert sc.cfg.survey == Rect(0, 0, 10, 10)
        assert sc.solver.n_particles == 40 and isinstance(sc.solver.n_particles, int)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(z_min=20.0)
        with pytest.raises(ValueError):
            ModelConfig(gamma=0.0)
        with pytest.raises(ValueError):
            ModelConfig(zeta=0.05)  # below zeta_min

    # each loaded and flew nonsense: no coverage, a 4 s flight, a survey
    # complete at once, a flight that never confirmed, a confidence of -1
    @pytest.mark.parametrize("bad", [{"survey": Rect(0.0, 0.0, 0.0, 6.0)},
                                     {"survey": Rect(0.0, 0.0, 60.0, 0.0)},
                                     {"t_max": 0.0}, {"t_max": -10.0},
                                     {"coverage_done": 0.0}, {"coverage_done": 1.5},
                                     {"roi_slack": -3.0}, {"zeta_min": -1.0}])
    def test_out_of_range_value_rejected_naming_it(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ModelConfig(**bad)


class TestActionSpace:
    def test_seven_commands(self):
        assert len(ActionCmd) == 7

    def test_vertical_and_hover_displacements(self):
        assert action_displacement(ActionCmd.UP, 16, CAM, CFG) == (0, 0, 2.0)
        assert action_displacement(ActionCmd.DOWN, 16, CAM, CFG) == (0, 0, -2.0)
        assert action_displacement(ActionCmd.HOVER, 16, CAM, CFG) == (0, 0, 0)

    def test_horizontal_scale_with_altitude(self):
        dx16 = action_displacement(ActionCmd.FORWARD, 16, CAM, CFG)[0]
        dx8 = action_displacement(ActionCmd.FORWARD, 8, CAM, CFG)[0]
        assert dx8 == pytest.approx(dx16 / 2)
