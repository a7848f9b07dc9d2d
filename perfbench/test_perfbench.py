"""The benchmark's own tests: every workload at minimal size prints every
metric BENCHMARK.json names, with its unit; seeded runs repeat exactly; the
output checks and the source guard work.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from itertools import islice

import pytest

import run
from checks import record_violations
from workloads import FULLSIZE_T_MAX, GUST_RATE, WORKLOADS, flight_seeds, scenario_files

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# minimal fixed-flight counts; hybrid keeps one flight per scenario so at
# least one of them stops for an inspection and reaches the planner
MINIMAL = {"offboard": 1, "hybrid": 3, "fullsize": 1}
SMALL = {name: replace(wl, core_flights=MINIMAL[name]) for name, wl in WORKLOADS.items()}


def bench(capsys, workload, seed=0, trace=0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                     "--trace", str(trace)], workloads=SMALL)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_its_unit(capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, result = bench(capsys, workload, trace=trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
            # the ungated end-to-end figures are printed as text
            for name in ("flights_per_s", "flight_ms_p50", "decision_ms_p50",
                         "tp_pct", "fp_pct", "sim_confirm_s"):
                assert any(f" {name}=" in ln for ln in lines), name


def test_same_seed_repeats_counts_tally_and_digest(capsys):
    def fixed(lines, result):
        counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
        return counts, [ln for ln in lines if ln.startswith(("tally:", "digest:"))]

    first = fixed(*bench(capsys, "offboard", seed=5, trace=1)[1:])
    again = fixed(*bench(capsys, "offboard", seed=5, trace=1)[1:])
    timed = fixed(*bench(capsys, "offboard", seed=5, trace=0)[1:])
    assert first == again
    assert first[1] == timed[1]
    assert first[0]["solver.episodes"] > 0


def test_workload_seed_changes_flight_seeds():
    wl = WORKLOADS["offboard"]
    a = list(islice(flight_seeds(wl, 1), 8))
    assert a == list(islice(flight_seeds(wl, 1), 8))
    assert {s for _, s in a}.isdisjoint(s for _, s in islice(flight_seeds(wl, 2), 8))


def test_derived_scenarios():
    sk = run.load_program()
    paths = scenario_files(run.SRC / "skysearch" / "scenarios", run.WORK)
    l2 = sk.load_scenario(paths["l2"])
    gusts = sk.load_scenario(paths["l2-gusts"])
    assert l2.truth.wind_rate == 0.0 and gusts.truth.wind_rate == GUST_RATE
    assert gusts.truth.victims == l2.truth.victims
    full = sk.build_setup(sk.load_scenario(paths["l2-fullsize"]), "offboard", 0)
    assert full.solver_cfg == sk.SolverConfig()
    assert full.cfg.obs_cell == sk.ModelConfig().obs_cell
    assert full.cfg.t_max == FULLSIZE_T_MAX


def test_output_checks_flag_each_violation():
    sk = run.load_program()
    setup = sk.build_setup(sk.load_scenario("l1"), "mission", 0)
    rec = sk.execute_run(setup)
    assert record_violations(rec, setup, sk.missions.OUTCOMES) == []
    bad = sk.RunRecord.from_dict(rec.to_dict())
    bad.outcome = "Lost"
    bad.elapsed_s = setup.cfg.t_max + 2 * setup.cfg.dt
    bad.coverage = 1.5
    bad.trajectory = bad.trajectory + [bad.trajectory[-1]]
    bad.recorded = [(500.0, 3.0)]
    problems = record_violations(bad, setup, sk.missions.OUTCOMES)
    assert len(problems) == 5


def test_fails_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "offboard",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
