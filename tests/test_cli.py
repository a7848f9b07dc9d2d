"""Command-line surface: subcommands, exit codes, reproducible outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skysearch import cli
from skysearch.missions import RunRecord

SCENARIOS = Path(cli.__file__).parent / "scenarios"


def run_cli(args, tmp_path, sub="run"):
    return cli.cli_main([sub, "--out", str(tmp_path)] + args)


def read_jsonl(path) -> list[RunRecord]:
    return [RunRecord.from_dict(json.loads(line)) for line in path.read_text().splitlines()]


class TestRun:
    def test_mission_run_writes_trace(self, tmp_path, capsys):
        code = cli.cli_main(["run", "--scenario", "l1", "--mode", "mission",
                             "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "record.json").exists()
        assert (tmp_path / "metrics.csv").exists()
        out = capsys.readouterr().out
        assert "mission run seed=7" in out

    def test_offboard_run_writes_solver_trace(self, tmp_path):
        code = cli.cli_main(["run", "--scenario", "l1", "--mode", "offboard",
                             "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        trace = (tmp_path / "solver_trace.csv").read_text().splitlines()
        assert trace[0].startswith("t,action,particles,episodes,survival,q_FORWARD")
        assert len(trace) > 1

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.cli_main(["run", "--scenario", "l1", "--mode", "mission",
                                 "--seed", "7", "--out", str(out)]) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "record.json").read_bytes() == (b / "record.json").read_bytes()

    def test_a_run_removes_the_trace_an_earlier_run_left(self, tmp_path):
        # a mission run writes no solver trace; the offboard run's stayed
        # beside the mission record and read as its trace
        for mode, seed in (("offboard", "3"), ("mission", "7")):
            assert cli.cli_main(["run", "--scenario", "l1", "--mode", mode, "--seed", seed,
                                 "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "metrics.csv", "record.json", "trajectory.csv"]

    def test_paper_literal_confidence_scenario_key(self, tmp_path):
        # the distance-increasing confidence model is picked in the scenario
        # file; at seed 1 it flies the l1 offboard run differently
        records = []
        for i, extra in enumerate(["", "paper_literal_confidence = true\n"]):
            scn = tmp_path / f"l1_{i}.scn"
            scn.write_text((SCENARIOS / "l1.scn").read_text() + extra)
            out = tmp_path / f"out_{i}"
            assert cli.cli_main(["run", "--scenario", str(scn), "--mode", "offboard",
                                 "--seed", "1", "--out", str(out)]) == 0
            records.append((out / "record.json").read_bytes())
        assert records[0] != records[1]


class TestBatchAndCompare:
    def test_batch_metrics_csv(self, tmp_path, capsys):
        code = cli.cli_main(["batch", "--scenario", "l1", "--mode", "mission",
                             "--runs", "5", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "records_mission.jsonl").exists()
        text = (tmp_path / "metrics.csv").read_text()
        assert text.startswith("mode,runs,")
        assert "mission,5," in text
        assert "TP%" in capsys.readouterr().out

    def test_records_round_trip(self, tmp_path):
        cli.cli_main(["batch", "--scenario", "l1", "--mode", "mission",
                      "--runs", "3", "--seed", "2", "--out", str(tmp_path)])
        records = read_jsonl(tmp_path / "records_mission.jsonl")
        assert len(records) == 3
        assert all(r.mode == "mission" for r in records)

    def test_metrics_recomputed_from_export_match(self, tmp_path):
        from skysearch.metrics import compute_metrics
        from skysearch.world import load_scenario
        cli.cli_main(["batch", "--scenario", "l1", "--mode", "mission",
                      "--runs", "4", "--seed", "3", "--out", str(tmp_path)])
        records = read_jsonl(tmp_path / "records_mission.jsonl")
        sc = load_scenario("l1")
        m = compute_metrics(records, sc.truth.victims, 2.0)
        row = (tmp_path / "metrics.csv").read_text().strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(m.tp_pct)
        assert float(row[3]) == pytest.approx(m.fp_pct)

    def test_batch_removes_the_records_a_compare_left(self, tmp_path):
        # the offboard and hybrid records stayed beside a one-row metrics.csv
        for args in (["compare"], ["batch", "--mode", "mission"]):
            assert cli.cli_main(args + ["--scenario", "l1", "--runs", "1",
                                        "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "metrics.csv", "records_mission.jsonl"]

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_worker_pool_matches_serial(self, mode):
        from skysearch.world import load_scenario
        sc = load_scenario("l1")
        serial = cli.run_batch(sc, mode, 2, 9, workers=1)
        pooled = cli.run_batch(sc, mode, 2, 9, workers=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]

    def test_pool_never_larger_than_the_batch(self, monkeypatch):
        import multiprocessing
        sizes = []

        class SerialPool:
            def __init__(self, n):
                sizes.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(x) for x in items]

        class Context:
            Pool = SerialPool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
        from skysearch.world import load_scenario
        records = cli.run_batch(load_scenario("l1"), "mission", 2, 9, workers=64)
        assert sizes == [2] and len(records) == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        code = cli.cli_main(["batch", "--scenario", "l1", "--runs", "1",
                             "--workers", workers, "--out", str(tmp_path)])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "records_mission.jsonl").exists()

    def test_run_takes_no_workers(self, tmp_path, capsys):
        # a single flight has nothing to spread across a pool
        code = cli.cli_main(["run", "--scenario", "l1", "--workers", "2",
                             "--out", str(tmp_path)])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "record.json").exists()

    def test_heatmap_command(self, tmp_path):
        code = cli.cli_main(["heatmap", "--scenario", "l1", "--mode", "mission",
                             "--runs", "3", "--seed", "4", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "heatmap_mission.csv").exists()
        assert (tmp_path / "heatmap_mission.pgm").exists()


class TestWrite:
    @staticmethod
    def broken():
        yield "half a file\n"
        raise RuntimeError("render failed")

    def test_a_failed_write_removes_the_files_of_that_call_only(self, tmp_path):
        (tmp_path / "earlier.csv").write_text("kept\n")
        with pytest.raises(RuntimeError, match="render failed"):
            cli._write(tmp_path, {"a.csv": ["a\n"], "b.csv": self.broken(), "c.csv": ["c\n"]})
        assert [p.name for p in tmp_path.iterdir()] == ["earlier.csv"]

    def test_a_none_entry_removes_an_earlier_file(self, tmp_path):
        (tmp_path / "stale.csv").write_text("old\n")
        cli._write(tmp_path, {"a.csv": ["a\n"], "stale.csv": None, "gone.csv": None})
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_a_stale_file_that_cannot_be_removed_undoes_the_write(self, tmp_path,
                                                                 monkeypatch):
        (tmp_path / "stale.csv").write_text("old\n")
        unlink = Path.unlink

        def refuse_stale(path, missing_ok=False):
            if path.name == "stale.csv":
                raise PermissionError(13, "Permission denied", str(path))
            unlink(path, missing_ok)
        monkeypatch.setattr(Path, "unlink", refuse_stale)
        with pytest.raises(PermissionError):
            cli._write(tmp_path, {"a.csv": ["a\n"], "stale.csv": None})
        assert [p.name for p in tmp_path.iterdir()] == ["stale.csv"]

    def test_a_failed_clean_up_keeps_the_original_error(self, tmp_path, monkeypatch):
        def unlink(path, missing_ok=False):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(Path, "unlink", unlink)
        with pytest.raises(RuntimeError, match="render failed"):
            cli._write(tmp_path, {"a.csv": ["a\n"], "b.csv": self.broken()})


class TestFootprintCommand:
    def test_prints_dimensions(self, capsys):
        assert cli.cli_main(["footprint", "--z", "16"]) == 0
        out = capsys.readouterr().out
        assert "7.0128" in out and "5.1745" in out

    # each printed NaN or inf extents and exited 0
    @pytest.mark.parametrize("flag, value", [("--z", "nan"), ("--z", "inf"),
                                             ("--pitch", "nan"), ("--roll", "nan"),
                                             ("--x", "inf"), ("--y", "nan"),
                                             ("--yaw", "nan")])
    def test_non_finite_input_rejected(self, capsys, flag, value):
        assert cli.cli_main(["footprint", flag, value]) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and not captured.out


class TestExitCodes:
    def test_unknown_flag(self):
        assert cli.cli_main(["batch", "--nonsense"]) == 2

    def test_unknown_subcommand(self):
        assert cli.cli_main(["fly"]) == 2

    def test_unknown_scenario(self, tmp_path, capsys):
        code = cli.cli_main(["run", "--scenario", "mars", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def run_with_override(tmp_path, mode, line):
        scn = tmp_path / "bad.scn"
        scn.write_text((SCENARIOS / "l1.scn").read_text() + line + "\n")
        return cli.cli_main(["run", "--scenario", str(scn), "--mode", mode,
                             "--seed", "1", "--out", str(tmp_path / "out")])

    # id -> (mode, line appended to l1.scn); the error must name the line's key
    BAD_LINES = {
        "dt": ("mission", "dt = 0"),  # a zero tick would never advance the clock
        "conf_bin": ("offboard", "conf_bin = 0"),
        "misspelled": ("offboard", "episode_per_step = 1"),
        "ucb_c": ("offboard", "ucb_c = -5"),
        "step_seconds": ("offboard", "step_seconds = 0"),
        "reinvig_frac": ("offboard", "reinvig_frac = 1.5"),
        "engaged_boost": ("offboard", "engaged_boost = 0"),
        "reward": ("offboard", "reward_crash = -100"),
        "int_field": ("offboard", "n_particles = 20.5"),
        "float_field": ("offboard", "zeta = abc"),
        "obstacle_tokens": ("offboard", "obstacle = 1 2 3"),
        "survey_tokens": ("offboard", "survey = 0 0 60"),
        "obstacle_huge": ("offboard", "obstacle = 0 0 0 1e9 1e9 1e9"),
        "obstacle_negative": ("offboard", "obstacle = 10 1 0 -1 1 1"),
        # flown by a mission; offboard failed only mid-flight
        "overlap_high": ("mission", "overlap = 1.5"),
        "overlap_negative": ("mission", "overlap = -0.5"),
        # 0 hovered until t_max, -2 ended every flight at once
        "speed_zero": ("mission", "speed = 0"),
        "speed_negative": ("offboard", "speed = -2"),
        "climb_step": ("offboard", "climb_step = 0"),  # Up/Down hovered
        "wind": ("offboard", "wind = 1e9 1e-9"),  # a gust every ~2 ns of sim time
        # both were clamped by WindProcess without a word
        "wind_rate_negative": ("offboard", "wind = -1 5"),
        "wind_duration_negative": ("offboard", "wind = 0.01 -50"),
        "survey_huge": ("mission", "survey = 0 0 1e9 1e9"),  # a raw allocation error
        "survey_overflow": ("mission", "survey = -1e308 0 1e308 10"),  # width is inf
        "origin": ("offboard", "origin = -27.4 152.9"),  # the key was read but never used
        # transition and _observe_key skipped the noise; reinvigorate drew with it
        "move_noise_negative": ("offboard", "move_noise_xy = -0.3"),
        "move_noise_z_negative": ("offboard", "move_noise_z = -0.2"),
        "est_noise_negative": ("offboard", "est_noise_xy = -1"),
        "est_noise_z_negative": ("offboard", "est_noise_z = -0.05"),
        # an OverflowError traceback once a step engaged
        "engaged_boost_overflow": ("offboard", "engaged_boost = 1e308"),
        # each flew nonsense: 600 s for coverage 0.00, a 4 s flight, a survey
        # complete at 8 s, and (both) a timeout in place of a confirmation
        "survey_zero_width": ("offboard", "survey = 0 0 0 6"),
        "survey_negative": ("offboard", "survey = 10 0 0 6"),  # named neither key nor row
        "t_max": ("offboard", "t_max = -10"),
        "coverage_done": ("offboard", "coverage_done = 0"),
        "roi_slack": ("offboard", "roi_slack = -3"),
        "zeta_min": ("offboard", "zeta_min = -1"),
    }

    @pytest.mark.parametrize("case", BAD_LINES)
    def test_bad_input_rejected(self, tmp_path, capsys, case):
        mode, line = self.BAD_LINES[case]
        assert self.run_with_override(tmp_path, mode, line) == 2
        err = capsys.readouterr().err
        # the key must be named in the message, not only in the file's path
        message = err.replace(str(tmp_path / "bad.scn"), "")
        assert err.startswith("error:") and line.partition("=")[0].strip() in message

    def test_zero_area_survey_rejected_before_any_flight(self, tmp_path, capsys,
                                                         monkeypatch):
        # with no target to fall outside it, it loaded, and offboard flew
        # 600 s for coverage 0.00; the survey row above fails on l1's targets
        def fly(setup):
            raise AssertionError("a flight started")
        monkeypatch.setattr(cli, "execute_run", fly)
        scn = tmp_path / "flat.scn"
        scn.write_text("survey = 0 0 0 6\n")
        code = cli.cli_main(["run", "--scenario", str(scn), "--mode", "offboard",
                             "--out", str(tmp_path / "out")])
        assert code == 2
        assert "survey must have a positive width" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["ucb_c", "engaged_boost", "step_seconds"])
    def test_non_finite_solver_setting_rejected_before_any_flight(self, tmp_path, capsys,
                                                                  monkeypatch, key):
        # ucb_c = inf flew without a word, engaged_boost = inf ended in a raw
        # OverflowError, and step_seconds = inf searched forever
        def fly(setup):
            raise AssertionError("a flight started")
        monkeypatch.setattr(cli, "execute_run", fly)
        assert self.run_with_override(tmp_path, "offboard", f"{key} = inf") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("cell", ["0", "-1"])
    def test_heatmap_nonpositive_cell_rejected(self, tmp_path, capsys, cell):
        # 0 divided by zero and -1 wrote a 1x1 heatmap
        code = cli.cli_main(["heatmap", "--scenario", "l1", "--runs", "1", "--cell", cell,
                             "--out", str(tmp_path)])
        assert code == 2
        assert "cell" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["1e-6", "1e-320"])
    def test_heatmap_cell_count_bounded_before_any_flight(self, tmp_path, capsys,
                                                          monkeypatch, cell):
        # both flew the batch and wrote its records first; 1e-6 then died
        # allocating PiB of counts, 1e-320 overflowed the column count to inf
        def fly(setup):
            raise AssertionError("a flight started")
        monkeypatch.setattr(cli, "execute_run", fly)
        code = cli.cli_main(["heatmap", "--scenario", "l1", "--runs", "1", "--cell", cell,
                             "--out", str(tmp_path)])
        assert code == 2
        assert "--cell" in capsys.readouterr().err
        assert not list(tmp_path.glob("records_*.jsonl"))

    # id -> (subcommand, flag, value); each used to pass argument parsing
    BAD_NUMBERS = {
        "tolerance_nan": ("batch", "--tolerance", "nan"),  # every flight scored a miss
        "tolerance_negative": ("batch", "--tolerance", "-1"),  # FP 100 %
        "tolerance_inf": ("run", "--tolerance", "inf"),
        "runs_zero": ("batch", "--runs", "0"),
        "runs_text": ("compare", "--runs", "five"),
        "cell_zero": ("heatmap", "--cell", "0"),  # failed after flying the batch
        "cell_inf": ("heatmap", "--cell", "inf"),  # a 1x1 heatmap centred at inf
        "cell_nan": ("heatmap", "--cell", "nan"),
    }

    @pytest.mark.parametrize("case", BAD_NUMBERS)
    def test_bad_number_rejected_before_any_flight(self, tmp_path, capsys, monkeypatch,
                                                   case):
        def fly(setup):
            raise AssertionError("a flight started")
        monkeypatch.setattr(cli, "execute_run", fly)
        sub, flag, value = self.BAD_NUMBERS[case]
        out = tmp_path / "out"
        code = cli.cli_main([sub, "--scenario", "l1", "--out", str(out), flag, value])
        assert code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()  # no records file, no heatmap

    @staticmethod
    def run_process(args, cwd):
        # a fresh interpreter, so an uncaught error shows as a traceback
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, "-m", "skysearch.cli"] + args, cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=60)

    # id -> (arguments, the path the error must name); each ended in a raw
    # FileExistsError, NotADirectoryError or IsADirectoryError
    BAD_PATHS = {
        "run_out_is_a_file": (["run", "--scenario", "l1", "--out", "afile"], "afile"),
        "batch_out_below_a_file": (["batch", "--scenario", "l1", "--runs", "1",
                                    "--out", "afile/sub"], "afile/sub"),
        # the output files themselves, written after the flights
        "run_record_is_a_directory": (["run", "--scenario", "l1", "--mode", "mission",
                                       "--seed", "1", "--out", "full"], "full/record.json"),
        "batch_records_is_a_directory": (["batch", "--scenario", "l1", "--mode", "mission",
                                          "--runs", "1", "--out", "full"],
                                         "full/records_mission.jsonl"),
        # a later file in the way: the files written before it must not stay behind
        "batch_metrics_is_a_directory": (["batch", "--scenario", "l1", "--mode", "mission",
                                          "--runs", "1", "--out", "late"],
                                         "late/metrics.csv"),
        "compare_offboard_is_a_directory": (["compare", "--scenario", "l1", "--runs", "1",
                                             "--out", "late"],
                                            "late/records_offboard.jsonl"),
        "scenario_is_a_directory": (["run", "--scenario", "adir", "--out", "out"], "adir"),
        "scenario_not_utf8": (["run", "--scenario", "latin1.scn", "--out", "out"],
                              "latin1.scn"),
    }

    @pytest.mark.parametrize("case", BAD_PATHS)
    def test_bad_path_exits_2_naming_it(self, tmp_path, case):
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        for name in ("full/record.json", "full/records_mission.jsonl", "late/metrics.csv",
                     "late/records_offboard.jsonl"):
            (tmp_path / name).mkdir(parents=True)
        (tmp_path / "latin1.scn").write_bytes("name = caf\xe9\n".encode("latin-1"))
        made = sorted(tmp_path.rglob("*"))
        args, named = self.BAD_PATHS[case]
        done = self.run_process(args, tmp_path)
        assert done.returncode == 2
        assert done.stderr.startswith("error:") and named in done.stderr
        assert "Traceback" not in done.stderr
        assert sorted(tmp_path.rglob("*")) == made  # no partial run left behind

    # each loaded; the offboard run ended in an OverflowError traceback, the
    # hybrid one in an AssertionError, the missions exited 0 with nonsense
    @pytest.mark.parametrize("mode, line", [("offboard", "move_noise_xy = inf"),
                                            ("hybrid", "detector_sigma_loc = nan"),
                                            ("mission", "dt = inf"),
                                            ("mission", "speed = inf")])
    def test_non_finite_scenario_float_exits_2(self, tmp_path, mode, line):
        (tmp_path / "bad.scn").write_text((SCENARIOS / "l1.scn").read_text() + line + "\n")
        done = self.run_process(["run", "--scenario", "bad.scn", "--mode", mode,
                                 "--seed", "1", "--out", "out"], tmp_path)
        assert done.returncode == 2
        assert done.stderr.startswith("error: bad.scn: " + line.partition(" ")[0])
        assert "Traceback" not in done.stderr

    def test_unreadable_scenario_exits_2(self, tmp_path, capsys):
        scn = tmp_path / "locked.scn"
        scn.write_text((SCENARIOS / "l1.scn").read_text())
        scn.chmod(0)
        if os.access(scn, os.R_OK):
            pytest.skip("this user reads files whatever their mode")
        code = cli.cli_main(["run", "--scenario", str(scn), "--out", str(tmp_path / "out")])
        assert code == 2
        assert str(scn) in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert cli.cli_main(["--help"]) == 0

    def test_out_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
        assert cli.cli_main(["run", "--scenario", "l1", "--mode", "mission",
                             "--seed", "1"]) == 0
        assert (tmp_path / "envout" / "record.json").exists()
