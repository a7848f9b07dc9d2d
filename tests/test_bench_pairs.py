"""The pair tally and gain rule of scripts/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"episodes_per_s": {"unit": "1/s", "better": "higher", "bound": 0.2}}


def run(value=None):
    """A run with ``episodes_per_s = value``, or a failed one for None."""
    if value is None:
        return {"exit": 1, "correct": False}
    return {"exit": 0, "correct": True, "metrics": {"episodes_per_s": value}}


def pairs(parent, change):
    return [{"parent": run(a), "change": run(b)} for a, b in zip(parent, change)]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]


def test_ten_wins_hold():
    out = bench_pairs.summarize(pairs(PARENT, [v + 10 for v in PARENT]), SPEC)
    m = out["metrics"]["episodes_per_s"]
    assert out["failed_runs"] == {"parent": 0, "change": 0}
    assert (m["pairs"], m["change_wins"], m["gain_holds"]) == (10, 10, True)


def test_failed_change_run_is_a_loss_and_voids_the_gain():
    change = [v + 10 for v in PARENT[:9]] + [None]
    out = bench_pairs.summarize(pairs(PARENT, change), SPEC)
    m = out["metrics"]["episodes_per_s"]
    assert out["failed_runs"] == {"parent": 0, "change": 1}
    assert (m["pairs"], m["change_wins"], m["change_losses"]) == (10, 9, 1)
    assert not m["gain_holds"]


def test_pairs_with_failures_stay_in_the_denominator():
    # all eight compared pairs won, but that is 8 of 10; the change failed
    # fewer runs than the parent
    parent = PARENT[:8] + [None, None]
    change = [v + 10 for v in PARENT[:8]] + [110.0, None]
    out = bench_pairs.summarize(pairs(parent, change), SPEC)
    m = out["metrics"]["episodes_per_s"]
    assert out["failed_runs"] == {"parent": 2, "change": 1}
    assert (m["pairs"], m["change_wins"], m["change_losses"]) == (10, 8, 1)
    assert not m["gain_holds"]


@pytest.mark.parametrize("seeds", ["510-501", ""])
def test_empty_or_reversed_seed_list_rejected(tmp_path, capsys, seeds):
    # 510-501 used to parse to no seed at all and write a zero-pair result
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--seeds", seeds, "--out", str(out)])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


STDOUT = """perfbench workload=hybrid mode=hybrid scenarios=l1,l2,l2gust seed=701 trace=0
flights: 12 flown (9 fixed), 31.20 s busy
quality (fixed flights, 2 m): tp_pct=55.5556 fp_pct=11.1111 sim_confirm_s=143.25
tally: Confirmed=6 SurveyCompleteNoVictim=3
digest: sha256:abc
  episodes_per_s = 14000 1/s
{"correct": true, "attempted": 12, "failed": 0, "metrics": {"episodes_per_s": {"value": 14000.0, "unit": "1/s"}}}
"""


def test_parse_output_reads_quality_tally_and_metrics():
    out = bench_pairs.parse_output(STDOUT)
    assert out["quality"] == {"tp_pct": 55.5556, "fp_pct": 11.1111, "sim_confirm_s": 143.25}
    assert out["tally"] == "Confirmed=6 SurveyCompleteNoVictim=3"
    assert out["digest"] == "sha256:abc"
    assert out["correct"] and out["metrics"] == {"episodes_per_s": 14000.0}
    assert bench_pairs.parse_output("crashed before printing")["correct"] is False


def test_quality_means_per_side():
    def side(tp):
        return {"quality": {"tp_pct": tp, "fp_pct": 0.0, "sim_confirm_s": 100.0}}

    ps = [{"parent": side(40.0), "change": side(50.0)},
          {"parent": side(60.0), "change": {"exit": 1, "correct": False}}]
    means = bench_pairs.quality_means(ps)
    assert means["parent"] == {"tp_pct": 50.0, "fp_pct": 0.0, "sim_confirm_s": 100.0,
                               "runs": 2}
    assert means["change"]["tp_pct"] == 50.0 and means["change"]["runs"] == 1


TRACED_STDOUT = STDOUT.replace("trace=0", "trace=1").replace(
    "  episodes_per_s = 14000 1/s\n",
    "  model.step.calls = 500 count\n  coverage.rect_overlap.calls = 200 count\n").replace(
    '"metrics": {"episodes_per_s": {"value": 14000.0, "unit": "1/s"}}',
    '"metrics": {"model.step.calls": {"value": 500, "unit": "count"}, '
    '"coverage.rect_overlap.calls": {"value": 200, "unit": "count"}}')
COUNTS = ["model.step.calls", "coverage.rect_overlap.calls", "world.sense.calls"]


def test_traced_output_with_a_fail_line_is_not_correct():
    # the closing JSON may still read correct; a FAIL line on stderr outweighs it
    fail = "FAIL call sites never reached: coverage.rect_overlap\n"
    out = bench_pairs.parse_traced(TRACED_STDOUT, fail, COUNTS)
    assert out["correct"] is False
    assert out["fail_lines"] == [fail.strip()]
    assert out["counts"] == {"model.step.calls": 500, "coverage.rect_overlap.calls": 200}
    clean = bench_pairs.parse_traced(TRACED_STDOUT, "", COUNTS)
    assert clean["correct"] and clean["fail_lines"] == []


def test_traced_match_and_moved_counts():
    def traced(overlaps, fail=""):
        return {"exit": 1 if fail else 0, **bench_pairs.parse_traced(
            TRACED_STDOUT.replace("200", str(overlaps)), fail, COUNTS)}

    out = bench_pairs.compare_traced({"parent": traced(200), "change": traced(80)})
    assert out["traced_match"]
    assert out["traced"]["counts_moved"] == {"coverage.rect_overlap.calls": [200, 80]}
    failed = bench_pairs.compare_traced(
        {"parent": traced(200), "change": traced(200, "FAIL tracing changed a record\n")})
    assert not failed["traced_match"] and failed["traced"]["counts_moved"] == {}
