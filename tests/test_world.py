"""Simulated detector, wind dropout, occupancy and scenario files."""

import math
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skysearch.configio import ConfigError
from skysearch.geometry import CameraIntrinsics, EnuPoint
from skysearch.missions import build_setup
from skysearch.world import (DetectorProfile, GroundTruth, OccupancyGrid, WindProcess,
                             builtin_scenarios, load_scenario, sense, thermal_profile)

CAM = CameraIntrinsics()


def perfect_profile(**kw):
    """Detector that fires on every in-view frame."""
    kw.setdefault("p_floor", 1.0)
    kw.setdefault("p_ceil", 1.0)
    return DetectorProfile(**kw)


class TestSense:
    def test_frequency_of_seven_in_ten(self):
        # fly a segment placed so exactly 7 of the 10 frames see the victim
        truth = GroundTruth(victims=[(0.0, 0.0, 0.0)])
        obs = sense(EnuPoint(5.8, 0.0, 16.0), CAM, truth, perfect_profile(), Random(0),
                    prev_pose=EnuPoint(-4.2, 0.0, 16.0))
        assert obs.detected
        assert obs.zeta == 0.7

    def test_victim_outside_footprint(self):
        truth = GroundTruth(victims=[(100.0, 0.0, 0.0)])
        obs = sense(EnuPoint(0, 0, 16), CAM, truth, perfect_profile(), Random(0))
        assert not obs.detected and obs.zeta is None

    def test_certain_detector_hovering(self):
        truth = GroundTruth(victims=[(0.5, 0.2, 0.0)])
        for n in (1, 10, 25):
            obs = sense(EnuPoint(0, 0, 16), CAM, truth,
                        perfect_profile(frames_per_call=n), Random(1))
            assert obs.zeta == 1.0

    def test_distractor_frequency_matches_binomial(self):
        truth = GroundTruth(distractors=[(0.0, 0.0, 0.3)])
        rng = Random(42)
        total = 0.0
        n = 10_000
        for _ in range(n):
            obs = sense(EnuPoint(0, 0, 16), CAM, truth, DetectorProfile(), rng)
            total += obs.zeta or 0.0
        assert abs(total / n - 0.3) < 0.01

    def test_highest_frequency_target_reported(self):
        # victim fires every frame, distractor rarely: report the victim
        truth = GroundTruth(victims=[(1.0, 0.0, 0.0)], distractors=[(-1.0, 0.0, 0.05)])
        obs = sense(EnuPoint(0, 0, 16), CAM, truth, perfect_profile(), Random(3))
        assert obs.zeta == 1.0
        assert abs(obs.pv_x - 1.0) < 3.0

    def test_wind_drops_everything(self):
        truth = GroundTruth(victims=[(0.0, 0.0, 0.0)])
        wind = WindProcess(1e9, 1e9, Random(0))
        obs = sense(EnuPoint(0, 0, 16), CAM, truth, perfect_profile(), Random(0),
                    wind=wind, t0=10.0, t1=14.0)
        assert not obs.detected

    def test_localization_noise_scale(self):
        truth = GroundTruth(victims=[(0.0, 0.0, 0.0)])
        rng = Random(5)
        errs = []
        prof = perfect_profile(sigma_loc=0.5)
        for _ in range(2000):
            obs = sense(EnuPoint(0, 0, 16), CAM, truth, prof, rng)
            errs.append(math.hypot(obs.pv_x, obs.pv_y))
        mean_err = sum(errs) / len(errs)
        assert abs(mean_err - 0.5 * math.sqrt(math.pi / 2)) < 0.05

    def test_expected_confidence_non_increasing_with_distance(self):
        truth = GroundTruth(victims=[(0.0, 0.0, 0.0)])
        rng = Random(8)
        means = []
        for z in (6.0, 9.0, 12.0, 15.0):
            s = 0.0
            for _ in range(3000):
                obs = sense(EnuPoint(0, 0, z), CAM, truth, DetectorProfile(), rng)
                s += obs.zeta or 0.0
            means.append(s / 3000)
        assert all(a >= b - 0.005 for a, b in zip(means, means[1:]))

    def test_never_detects_empty_world(self):
        truth = GroundTruth()
        rng = Random(6)
        for _ in range(200):
            obs = sense(EnuPoint(30, 3, 10), CAM, truth, DetectorProfile(), rng)
            assert not obs.detected

    def test_reproducible_with_seed(self):
        truth = GroundTruth(victims=[(0.4, 0.1, 0.3)], distractors=[(1.0, -1.0, 0.2)])
        a = [sense(EnuPoint(0, 0, 14), CAM, truth, DetectorProfile(), Random(77))
             for _ in range(1)][0]
        b = sense(EnuPoint(0, 0, 14), CAM, truth, DetectorProfile(), Random(77))
        assert a == b


class TestDetectorProfile:
    def test_default_curve_anchors(self):
        p = DetectorProfile()
        assert p.per_frame_p(20.0, 0.0) == 0.05
        assert p.per_frame_p(5.25, 0.0) == 0.98
        assert p.per_frame_p(16.0, 0.0) == pytest.approx((20 - 16) / (20 - 5.25))

    def test_monotone_in_distance_and_occlusion(self):
        p = DetectorProfile()
        ds = [5.25 + i * 0.5 for i in range(30)]
        for occ in (0.0, 0.3, 0.7):
            vals = [p.per_frame_p(d, occ) for d in ds]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
        for d in ds:
            occs = [p.per_frame_p(d, o) for o in (0.0, 0.25, 0.5, 0.75, 1.0)]
            assert all(a >= b for a, b in zip(occs, occs[1:]))

    def test_occlusion_fades_close_up(self):
        p = DetectorProfile()
        assert p.effective_occlusion(16.0, 0.5) == 0.5
        assert p.effective_occlusion(5.25, 0.5) == 0.0
        assert 0.0 < p.effective_occlusion(10.0, 0.5) < 0.5

    def test_thermal_variant(self):
        t = thermal_profile()
        assert t.modality == "thermal"
        assert t.sigma_loc < DetectorProfile().sigma_loc
        assert t.per_frame_p(10.0, 0.2) == DetectorProfile().per_frame_p(10.0, 0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorProfile(frames_per_call=0)
        with pytest.raises(ValueError):
            DetectorProfile(p_floor=0.9, p_ceil=0.5)
        with pytest.raises(ValueError):
            GroundTruth(victims=[(0, 0, 1.5)])


class TestWind:
    def test_zero_rate_never_active(self):
        wind = WindProcess(0.0, 5.0, Random(0))
        assert not any(wind.active(t) for t in range(0, 1000, 7))

    def test_huge_rate_always_active(self):
        wind = WindProcess(1e9, 5.0, Random(1))
        frac = sum(wind.active(t * 0.5) for t in range(2000)) / 2000
        assert frac > 0.99

    def test_renewal_long_run_fraction(self):
        wind = WindProcess(1 / 60.0, 5.0, Random(2))
        n = 80_000
        frac = sum(wind.active(i * 0.5) for i in range(n)) / n
        assert abs(frac - 5.0 / 65.0) < 0.01


class TestOccupancy:
    def test_empty_grid_free(self):
        grid = OccupancyGrid()
        assert not grid.ahead(0, 0, 10, 5, 0, 0)

    def test_cell_directly_ahead(self):
        grid = OccupancyGrid()
        grid.add_box(2.0, -0.5, 9.0, 1.0, 1.0, 2.0)
        assert grid.ahead(0, 0, 10, 4, 0, 0)
        assert not grid.ahead(0, 0, 10, -4, 0, 0)  # behind

    def test_zero_displacement_checks_own_cell(self):
        grid = OccupancyGrid()
        grid.add_box(0.0, 0.0, 9.0, 1.0, 1.0, 2.0)
        assert grid.ahead(0.5, 0.5, 9.5, 0, 0, 0)
        assert not grid.ahead(5.0, 5.0, 9.5, 0, 0, 0)

    def test_altitude_shortcut_consistent(self):
        grid = OccupancyGrid()
        grid.add_box(10.0, 2.0, 0.0, 1.0, 1.0, 5.0)
        assert grid.top_z == 5.0
        assert not grid.occupied(10.5, 2.5, 6.0)
        assert grid.occupied(10.5, 2.5, 4.0)


class TestScenarios:
    def test_builtins_present(self):
        names = builtin_scenarios()
        assert "l1" in names and "l2" in names

    def test_l1_layout(self):
        sc = load_scenario("l1")
        assert sc.cfg.survey.width == 60.0 and sc.cfg.survey.height == 6.0
        assert sc.truth.victims[0][2] == 0.0  # in the open
        assert any(rate == pytest.approx(0.05) for _, _, rate in sc.truth.distractors)
        assert len(sc.truth.obstacles) > 0

    def test_l2_occlusion(self):
        sc = load_scenario("l2")
        assert sc.truth.victims[0][2] == pytest.approx(0.5)

    def test_detector_overrides_applied(self):
        sc = load_scenario("l1")
        prof = sc.detector_profile()
        assert prof.near_range == pytest.approx(9.5)
        assert prof.far_range == pytest.approx(18.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            load_scenario("nowhere")

    def test_target_outside_survey_rejected(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("survey = 0 0 10 10\nvictim = 50 50 0\n")
        with pytest.raises(ConfigError):
            load_scenario(bad)

    def test_missing_survey_rejected(self, tmp_path):
        bad = tmp_path / "bad2.scn"
        bad.write_text("victim = 5 5 0\n")
        with pytest.raises(ConfigError):
            load_scenario(bad)

    def test_custom_file_with_thermal(self, tmp_path):
        f = tmp_path / "t.scn"
        f.write_text("survey = 0 0 20 10\nvictim = 5 5 0\nmodality = thermal\n"
                     "detector_sigma_loc = 0.2\n")
        sc = load_scenario(f)
        prof = sc.detector_profile()
        assert prof.modality == "thermal"
        assert prof.sigma_loc == 0.2


# key -> tokens a valid line carries; the last six are misspelled or not keys
FUZZ_KEYS = {"survey": 4, "victim": 3, "distractor": 3, "obstacle": 6, "wind": 2,
             "name": 1, "seed": 1, "modality": 1, "dt": 1, "zeta": 1,
             "t_max": 1, "paper_literal_confidence": 1, "n_particles": 1, "ucb_c": 1,
             "step_seconds": 1, "detector_p_floor": 1, "detector_frames_per_call": 1,
             "detector_near_range": 1, "episode_per_step": 1, "reward_crash": 1,
             "detector_modality": 1, "Survey": 1, "survey_": 4, "origin": 2}
FUZZ_TOKENS = st.one_of(
    st.sampled_from(["0", "0.5", "1", "2", "5", "10", "16", "30"]),
    st.sampled_from(["-5", "20.5", "1e9", "nan", "inf", "abc", "true", "off", "rgb",
                     "thermal"]),
    st.text(alphabet="0123456789.-+eE_xn", min_size=1, max_size=6))


@st.composite
def scenario_line(draw):
    key = draw(st.sampled_from(sorted(FUZZ_KEYS)))
    # mostly the right token count, so that lines get past the count check
    n = draw(st.sampled_from([FUZZ_KEYS[key]] * 3 + [draw(st.integers(1, 7))]))
    return f"{key} = " + " ".join(draw(st.lists(FUZZ_TOKENS, min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(scenario_line(), max_size=4))
def test_fuzzed_scenario_loads_or_raises_config_error(tmp_path, lines):
    path = tmp_path / "fuzz.scn"
    path.write_text("survey = 0 0 60 6\n" + "\n".join(lines) + "\n")
    try:
        sc = load_scenario(path)
    except ConfigError:
        return
    build_setup(sc, "offboard", 0)
