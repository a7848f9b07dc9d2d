"""Flight modes: survey planning, the three run loops, determinism."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import skysearch
from skysearch.coverage import Rect
from skysearch.geometry import CameraIntrinsics, EnuPoint, footprint_extent
from skysearch.missions import (DISCARD_PRESENT_MASS, INSPECT_PRIOR, INSPECT_STEP_CAP,
                                OUTCOMES, RunRecord, _Flight, build_setup, execute_run,
                                lawnmower_waypoints)
from skysearch.solver import SolverConfig
from skysearch.world import GroundTruth, OccupancyGrid, load_scenario

CAM = CameraIntrinsics()


def make_scenario(victims=(), distractors=(), wind=(0.0, 5.0), survey=None,
                  detector=None):
    sc = load_scenario("l1")
    truth = GroundTruth(victims=list(victims), distractors=list(distractors),
                        obstacles=OccupancyGrid(), wind_rate=wind[0],
                        wind_mean_duration=wind[1])
    return replace(sc, name="test", truth=truth,
                   cfg=sc.cfg if survey is None else replace(sc.cfg, survey=survey),
                   detector_overrides=dict(sc.detector_overrides) if detector is None
                   else detector)


def lanes(waypoints):
    """Cross-track positions of the legs of an along-x survey."""
    return sorted({wp.y for wp in waypoints})


class TestLawnmower:
    def test_survey_area_two_lanes(self):
        wps = lawnmower_waypoints(Rect(0, 0, 60, 6), CAM, overlap=0.30, altitude=16)
        ys = lanes(wps)
        assert len(ys) == 2
        assert ys[1] - ys[0] == pytest.approx(5.174468085106382 * 0.7)
        assert all(0 <= wp.y <= 6 for wp in wps)
        assert all(wp.z == 16 for wp in wps)

    def test_zero_overlap_full_width_spacing(self):
        ys = lanes(lawnmower_waypoints(Rect(0, 0, 60, 12), CAM, overlap=0.0, altitude=16))
        assert ys[1] - ys[0] == pytest.approx(5.174468085106382)

    def test_square_lane_count(self):
        wps = lawnmower_waypoints(Rect(0, 0, 100, 100), CAM, overlap=0.30, altitude=16)
        spacing = 5.174468085106382 * 0.7
        assert len(lanes(wps)) == math.ceil(100 / spacing)

    def test_narrow_survey_single_centred_leg(self):
        wps = lawnmower_waypoints(Rect(0, 0, 40, 3), CAM, overlap=0.30, altitude=16)
        assert lanes(wps) == [1.5]

    def test_serpentine_order(self):
        wps = lawnmower_waypoints(Rect(0, 0, 60, 6), CAM)
        xs = [wp.x for wp in wps]
        assert xs == [0, 60, 60, 0]

    def test_degenerate_survey_rejected(self):
        with pytest.raises(ValueError):
            lawnmower_waypoints(Rect(0, 0, 0, 0), CAM)


class TestMissionMode:
    def test_empty_world_full_coverage_no_detections(self):
        rec = execute_run(build_setup(make_scenario(), "mission", 0))
        assert rec.outcome == "SurveyCompleteNoVictim"
        assert rec.detections == [] and rec.recorded == []
        assert rec.coverage >= 0.99

    def test_visible_victim_logged_near_truth(self):
        sc = make_scenario(victims=[(12.0, 1.2, 0.0)],
                           detector={"p_floor": 0.9, "p_ceil": 0.98})
        hits = 0
        for seed in range(20):
            rec = execute_run(build_setup(sc, "mission", seed))
            hits += any(math.hypot(x - 12.0, y - 1.2) <= 2.0 for x, y in rec.recorded)
        assert hits >= 19

    def test_endless_gusts_suppress_all_detections(self):
        sc = make_scenario(victims=[(12.0, 1.2, 0.0)], wind=(1e9, 1e9),
                           detector={"p_floor": 0.9, "p_ceil": 0.98})
        rec = execute_run(build_setup(sc, "mission", 1))
        assert rec.detections == []

    def test_trajectory_stays_near_survey(self):
        rec = execute_run(build_setup(make_scenario(), "mission", 2))
        for _, x, y, _ in rec.trajectory:
            assert -8.5 <= x <= 68.5 and -8.5 <= y <= 14.5

    def test_bit_identical_reruns(self):
        sc = load_scenario("l1")
        a = execute_run(build_setup(sc, "mission", 7))
        b = execute_run(build_setup(sc, "mission", 7))
        assert a.to_dict() == b.to_dict()


class TestOffboardMode:
    def test_no_victim_times_out_or_completes(self):
        sc = make_scenario()
        rec = execute_run(build_setup(sc, "offboard", 3))
        assert rec.outcome in ("Timeout", "SurveyCompleteNoVictim")
        assert rec.recorded == []

    def test_tiny_threshold_confirms_on_first_detection(self):
        sc = make_scenario(victims=[(12.0, 1.2, 0.0)],
                           detector={"p_floor": 0.9, "p_ceil": 0.98})
        sc.cfg = replace(sc.cfg, zeta=1e-9, zeta_min=0.0)
        rec = execute_run(build_setup(sc, "offboard", 4))
        assert rec.outcome == "Confirmed"
        assert len(rec.detections) == 1  # the first detection ended the run

    def test_confirmation_confidence_at_threshold(self):
        sc = load_scenario("l1")
        rec = execute_run(build_setup(sc, "offboard", 5))
        if rec.outcome == "Confirmed":
            assert rec.confirmations[-1][3] >= 0.85

    def test_wall_clock_trace_counts_the_episodes_run(self):
        # under step_seconds the search stops at its first 64-episode check
        # past the deadline, far short of the configured budget
        sc = make_scenario()
        sc.cfg = replace(sc.cfg, t_max=40.0)
        sc.solver = replace(sc.solver, step_seconds=0.01, episodes_per_step=10**6)
        rec = execute_run(build_setup(sc, "offboard", 2))
        assert len(rec.solver_trace) >= 5
        for row in rec.solver_trace:
            assert 64 <= row["episodes"] < 10**6

    @pytest.mark.parametrize("mode", ["mission", "offboard", "hybrid"])
    def test_first_tick_into_an_obstacle_crashes(self, mode):
        # one box fills the whole flying band, so the first real tick ends in it
        sc = make_scenario()
        sc.truth.obstacles.add_box(-10.0, -10.0, 0.0, 80.0, 26.0, 20.0)
        rec = execute_run(build_setup(sc, mode, 0))
        assert rec.outcome == "Crash"
        assert len(rec.trajectory) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_first_tick_out_of_bounds_ends_the_flight(self, seed):
        # 50 m of motion noise carries the first real tick far past the
        # survey grown by one step and the slack
        sc = load_scenario("l1")
        cfg = sc.cfg = replace(sc.cfg, move_noise_xy=50.0)
        rec = execute_run(build_setup(sc, "offboard", seed))
        assert rec.outcome == "OutOfBounds"
        assert len(rec.trajectory) == 2
        _, x, y, _ = rec.trajectory[-1]
        grow, box = cfg.speed * cfg.dt + cfg.roi_slack, cfg.survey
        assert not (box.x_min - grow <= x <= box.x_max + grow
                    and box.y_min - grow <= y <= box.y_max + grow)
        assert rec.mode_events[-1][1] == "Done(OutOfBounds)"

    def test_bit_identical_reruns(self):
        sc = load_scenario("l1")
        a = execute_run(build_setup(sc, "offboard", 11))
        b = execute_run(build_setup(sc, "offboard", 11))
        assert a.to_dict() == b.to_dict()


class TestHybridMode:
    def test_no_targets_identical_trajectory_to_mission(self):
        sc = make_scenario()
        m = execute_run(build_setup(sc, "mission", 6))
        h = execute_run(build_setup(sc, "hybrid", 6))
        assert h.trajectory == m.trajectory
        assert [e for _, e in h.mode_events if e == "HybridInspecting"] == []

    def test_single_firing_distractor_one_inspection_zero_confirms(self):
        # rate tuned so the lone distractor trips the detector about once
        sc = make_scenario(distractors=[(30.0, 1.2, 0.04)])
        for seed in range(40):
            rec = execute_run(build_setup(sc, "hybrid", f"one:{seed}"))
            inspections = sum(1 for _, e in rec.mode_events if e == "HybridInspecting")
            if inspections == 1:
                assert rec.confirmations == []
                assert rec.recorded == []
                break
        else:
            pytest.fail("no seed produced exactly one inspection")

    def test_inspections_bracketed_by_survey_legs(self):
        sc = load_scenario("l1")
        for seed in range(6):
            rec = execute_run(build_setup(sc, "hybrid", seed))
            names = [e for _, e in rec.mode_events if not e.startswith("Done")]
            assert names[0] == "MissionLeg"
            for i, name in enumerate(names):
                if name == "HybridInspecting":
                    assert names[i - 1] == "MissionLeg"
                    assert i + 1 < len(names) and names[i + 1] == "MissionLeg"

    def test_confirmed_runs_record_confidence_and_slow_down(self):
        sc = load_scenario("l1")
        confirmed = []
        for seed in range(8):
            m = execute_run(build_setup(sc, "mission", seed))
            h = execute_run(build_setup(sc, "hybrid", seed))
            if h.outcome == "Confirmed":
                assert all(z >= 0.85 for _, _, _, z in h.confirmations)
                confirmed.append((h.elapsed_s, m.elapsed_s))
        assert confirmed, "no hybrid run confirmed across 8 seeds"
        assert all(ht > mt for ht, mt in confirmed)

    # each ended at t_max + 6 s: an inspection started on the tick that
    # crossed t_max (l1), and the return leg moved once after it (l2)
    @pytest.mark.parametrize("name, seed", [("l1", "h:1"), ("l2", "h:9")])
    def test_clock_run_out_ends_the_flight(self, name, seed):
        sc = load_scenario(name)
        sc.cfg = replace(sc.cfg, t_max=50.0)
        rec = execute_run(build_setup(sc, "hybrid", seed))
        assert rec.elapsed_s <= sc.cfg.t_max + sc.cfg.dt
        assert all(t < sc.cfg.t_max for t, e in rec.mode_events if e == "HybridInspecting")

    def test_bit_identical_reruns(self):
        sc = load_scenario("l1")
        a = execute_run(build_setup(sc, "hybrid", 13))
        b = execute_run(build_setup(sc, "hybrid", 13))
        assert a.to_dict() == b.to_dict()

    @staticmethod
    def inspect_distractor(seed, discard_mass):
        """One inspection, as ``_inspect`` starts it, of a lone lookalike
        under the UAV at survey altitude; returns its end event and record."""
        sc = make_scenario(distractors=[(30.0, 3.0, 0.04)])
        flight = _Flight(build_setup(sc, "hybrid", seed))
        flight.start(EnuPoint(30.0, 3.0, 16.0), "MissionLeg")
        l_top, l_bottom, l_left, l_right = footprint_extent(16.0, CAM)
        region = Rect(30.0 + l_left, 3.0 + l_bottom, 30.0 + l_right, 3.0 + l_top)
        event = flight.plan(region, INSPECT_PRIOR, detection=(30.0, 3.0, 0.1),
                            max_steps=INSPECT_STEP_CAP, discard_mass=discard_mass)
        return event, flight.rec

    @pytest.mark.parametrize("seed", ["d:0", "d:1", "d:2"])
    def test_inspection_of_a_lookalike_is_discarded(self, seed):
        # misses drain the victim-present mass below the bar before the
        # step cap; without a bar the same flight never ends that way
        event, rec = self.inspect_distractor(seed, DISCARD_PRESENT_MASS)
        assert event == "discarded"
        assert len(rec.solver_trace) < INSPECT_STEP_CAP
        event_free, rec_free = self.inspect_distractor(seed, None)
        assert event_free != "discarded"
        # reading the mass draws nothing: both flights agree up to the discard
        assert rec_free.solver_trace[:len(rec.solver_trace)] == rec.solver_trace


class TestRunRecord:
    def test_round_trip(self):
        sc = load_scenario("l1")
        rec = execute_run(build_setup(sc, "mission", 21))
        again = RunRecord.from_dict(rec.to_dict())
        assert again.to_dict() == rec.to_dict()

    def test_from_dict_rows_defaults_and_required_keys(self):
        d = {"mode": "hybrid", "seed": "3", "outcome": "Timeout", "elapsed_s": 8.0,
             "trajectory": [[0.0, 1.0, 2.0, 16.0]], "detections": [], "recorded": [[1.0, 2.0]],
             "confirmations": []}
        rec = RunRecord.from_dict(d)
        assert rec.trajectory == [(0.0, 1.0, 2.0, 16.0)] and rec.recorded == [(1.0, 2.0)]
        assert (rec.coverage, rec.mode_events, rec.solver_trace) == (0.0, [], [])
        assert set(rec.to_dict()) == set(d) | {"coverage", "mode_events"}
        for key in ("mode", "seed", "outcome", "elapsed_s"):
            with pytest.raises(KeyError):
                RunRecord.from_dict({k: v for k, v in d.items() if k != key})

    def test_elapsed_within_budget(self):
        sc = load_scenario("l1")
        for mode in ("mission", "offboard", "hybrid"):
            rec = execute_run(build_setup(sc, mode, 22))
            assert rec.elapsed_s <= 600.0 + 4.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_setup(load_scenario("l1"), "glide", 0)


L1 = load_scenario("l1")


@st.composite
def short_flight(draw):
    """An l1 flight of 5-40 s with a drawn world and tiny planner budgets."""
    unit = st.floats(0.0, 1.0)
    survey = L1.cfg.survey
    x, y = st.floats(survey.x_min, survey.x_max), st.floats(survey.y_min, survey.y_max)
    truth = GroundTruth(victims=[(draw(x), draw(y), draw(unit))],
                        distractors=[(draw(x), draw(y), draw(unit))],
                        obstacles=L1.truth.obstacles,
                        wind_rate=draw(st.one_of(st.just(0.0), st.floats(0.001, 1.0))),
                        wind_mean_duration=draw(st.floats(0.5, 20.0)))
    cfg = replace(L1.cfg, t_max=draw(st.floats(5.0, 40.0)),
                  zeta=draw(st.floats(L1.cfg.zeta_min + 0.01, 1.0)))
    solver = SolverConfig(n_particles=draw(st.integers(1, 40)),
                          episodes_per_step=draw(st.integers(1, 16)),
                          bootstrap_episodes=draw(st.integers(1, 16)),
                          max_depth=draw(st.integers(1, 3)))
    return replace(L1, truth=truth, cfg=cfg, solver=solver)


@settings(max_examples=100, deadline=None)
@given(sc=short_flight(), seed=st.integers(0, 2**32))
def test_fuzzed_short_flights_keep_the_record_invariants(sc, seed):
    cfg = sc.cfg
    for mode in ("mission", "offboard", "hybrid"):
        rec = execute_run(build_setup(sc, mode, seed))
        assert rec.outcome in OUTCOMES
        times = [row[0] for row in rec.trajectory]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert 0.0 <= rec.coverage <= 1.0
        assert rec.elapsed_s <= cfg.t_max + cfg.dt
        for row in rec.solver_trace:
            assert row["particles"] == sc.solver.n_particles
            assert 0.0 <= row["survival"] <= 1.0


def test_offboard_setup_does_not_import_numpy():
    # the planner's cold start is paid in flight, and numpy's import alone
    # used to be most of it; the suite itself imports numpy, hence a subprocess
    src = str(Path(skysearch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, skysearch\n"
            "from skysearch.missions import build_setup\n"
            "from skysearch.world import load_scenario\n"
            "build_setup(load_scenario('l1'), 'offboard', '0:0')\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
