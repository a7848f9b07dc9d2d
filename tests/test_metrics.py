"""Run-level metrics, statistics oracles and spatial exports."""

import json
import math
from random import Random

import numpy as np
import pytest

from skysearch.coverage import Rect
from skysearch.metrics import (compute_metrics, export_heatmap, heatmap_csv, heatmap_pgm,
                               metrics_csv, metrics_table)
from skysearch.missions import RunRecord

VICTIMS = [(10.0, 3.0, 0.0)]


def rec(coords, outcome="Confirmed", elapsed=100.0, mode="mission"):
    r = RunRecord(mode=mode, seed="0", outcome=outcome, elapsed_s=elapsed)
    r.recorded = list(coords)
    return r


class TestComputeMetrics:
    def test_all_on_target(self):
        records = [rec([(10.2, 3.1)]) for _ in range(5)]
        m = compute_metrics(records, VICTIMS)
        assert (m.tp_pct, m.fp_pct, m.fn_pct) == (100.0, 0.0, 0.0)

    def test_one_run_also_logs_the_car(self):
        records = [rec([(10.2, 3.1)]) for _ in range(4)]
        records.append(rec([(10.2, 3.1), (45.0, 2.0)]))
        m = compute_metrics(records, VICTIMS)
        assert (m.tp_pct, m.fp_pct, m.fn_pct) == (100.0, 20.0, 0.0)

    def test_empty_run_is_a_miss(self):
        m = compute_metrics([rec([]), rec([(10.0, 3.0)])], VICTIMS)
        assert m.tp_pct == 50.0 and m.fn_pct == 50.0 and m.fp_pct == 0.0

    @pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        # nan scored every run a miss and -1 every coordinate a false positive
        with pytest.raises(ValueError, match="tolerance"):
            compute_metrics([rec([(10.0, 3.0)])], VICTIMS, tolerance)

    def test_tp_plus_fn_is_total(self):
        rng = Random(1)
        records = []
        for _ in range(37):
            coords = [(rng.uniform(0, 60), rng.uniform(0, 6))
                      for _ in range(rng.randrange(3))]
            records.append(rec(coords))
        m = compute_metrics(records, VICTIMS)
        assert m.tp_pct + m.fn_pct == pytest.approx(100.0)

    def test_hand_time_statistics(self):
        records = [rec([(10, 3)], elapsed=100.0), rec([(10, 3)], elapsed=200.0)]
        m = compute_metrics(records, VICTIMS)
        assert m.time_mean_s == pytest.approx(150.0)
        assert m.time_sd_s == pytest.approx(70.71067811865476)
        assert m.time_se_s == pytest.approx(50.0)
        assert m.time_se_s == m.time_sd_s / math.sqrt(2)

    def test_time_stats_prefer_confirmed_runs(self):
        records = [rec([(10, 3)], elapsed=100.0),
                   rec([], outcome="Timeout", elapsed=600.0)]
        m = compute_metrics(records, VICTIMS)
        assert m.time_mean_s == 100.0 and m.n_timed == 1

    def test_time_stats_fall_back_to_all_runs(self):
        records = [rec([], outcome="SurveyCompleteNoVictim", elapsed=60.0),
                   rec([], outcome="SurveyCompleteNoVictim", elapsed=70.0)]
        m = compute_metrics(records, VICTIMS)
        assert m.time_mean_s == pytest.approx(65.0) and m.n_timed == 2

    def test_permutation_invariant(self):
        rng = Random(2)
        records = [rec([(rng.uniform(0, 60), rng.uniform(0, 6))], elapsed=rng.random() * 500)
                   for _ in range(25)]
        m1 = compute_metrics(records, VICTIMS)
        rng.shuffle(records)
        m2 = compute_metrics(records, VICTIMS)
        assert m1 == m2

    def test_tolerance_radius(self):
        records = [rec([(12.4, 3.0)])]
        loose = compute_metrics(records, VICTIMS, tolerance_m=3.0)
        tight = compute_metrics(records, VICTIMS, tolerance_m=2.0)
        assert loose.tp_pct == 100.0 and tight.tp_pct == 0.0
        assert tight.fp_pct == 100.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], VICTIMS)


class TestHeatmap:
    BOUNDS = Rect(0, 0, 10, 10)

    @pytest.mark.parametrize("cell", [0.0, -1.0, math.inf, math.nan])
    def test_cell_must_be_finite_and_positive(self, cell):
        # inf gave a 1x1 heatmap whose cell centre is inf
        with pytest.raises(ValueError, match="cell"):
            export_heatmap([rec([(4.5, 6.5)])], self.BOUNDS, cell=cell)

    def test_cell_count_is_bounded(self):
        # 1e-4 m over 10 x 10 m is 1e10 counts; the bound rejects it unallocated
        with pytest.raises(ValueError, match="cells"):
            export_heatmap([rec([(4.5, 6.5)])], self.BOUNDS, cell=1e-4)

    def test_zero_records_all_zero(self):
        counts, xs, ys = export_heatmap([rec([])], self.BOUNDS, cell=1.0)
        assert (len(counts), len(counts[0])) == (10, 10)
        assert sum(map(sum, counts)) == 0

    def test_point_mass_single_cell(self):
        counts, _, _ = export_heatmap([rec([(4.5, 6.5)]) for _ in range(9)],
                                      self.BOUNDS, cell=1.0)
        assert sum(map(sum, counts)) == 9
        assert counts[6][4] == 9

    def test_two_clusters_two_components(self):
        from scipy import ndimage
        rng = Random(3)
        records = []
        for _ in range(40):
            records.append(rec([(2.0 + rng.gauss(0, 0.3), 2.0 + rng.gauss(0, 0.3)),
                                (8.0 + rng.gauss(0, 0.3), 8.0 + rng.gauss(0, 0.3))]))
        counts, _, _ = export_heatmap(records, self.BOUNDS, cell=1.0)
        _, n = ndimage.label(np.asarray(counts) >= 3)
        assert n == 2

    def test_csv_and_pgm_outputs(self):
        counts, xs, ys = export_heatmap([rec([(4.5, 6.5)])], self.BOUNDS, cell=1.0)
        rows = "".join(heatmap_csv(counts, xs, ys)).strip().splitlines()
        assert rows[0] == "x,y,count"
        assert len(rows) == 1 + 100
        assert sum(int(r.rsplit(",", 1)[1]) for r in rows[1:]) == 1
        assert "".join(heatmap_pgm(counts)).splitlines()[0] == "P2"


class TestTableAndCsv:
    def test_csv_round_trip_matches_memory(self):
        records = [rec([(10.2, 3.1)], elapsed=120.0) for _ in range(4)]
        m = compute_metrics(records, VICTIMS)
        header, row = "".join(metrics_csv([m])).strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["tp_pct"]) == m.tp_pct
        assert float(vals["time_mean_s"]) == pytest.approx(m.time_mean_s)
        assert int(vals["runs"]) == m.runs

    def test_table_renders(self):
        m = compute_metrics([rec([(10, 3)])], VICTIMS)
        text = metrics_table([m])
        assert "TP%" in text and "mission" in text
