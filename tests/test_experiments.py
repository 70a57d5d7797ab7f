import math
from dataclasses import replace

import numpy as np
import pytest

from lfpp.config import default_config
from lfpp.experiments import (
    EXPERIMENTS,
    crossing_series,
    default_test_function,
    run_circle_average_bm,
    run_diameter_tail,
    run_dufresne_check,
    run_geodesic_ball_overlap,
    run_holder_scan,
    run_locality_check,
    run_scaling_relation_check,
    run_suite,
    run_tube_distance,
    run_weyl_check,
    simulate_bm_integral,
    suite_summary_rows,
    weyl_ratio_ladder,
    bm_integral_cdf,
)
from lfpp.field import DETERMINISTIC, GridSpec, LatticeField
from lfpp.metric import EDGE_WEIGHTED, VERTEX_SUM
from lfpp.params import LqgParams

PARAMS = LqgParams.pure_gravity()


def config(**overrides):
    return replace(default_config(), **overrides)


def constant_sampler(value=0.0):
    def sampler(spec, seed):
        return LatticeField(spec=spec, values=np.full((spec.n, spec.n), value),
                            kind=DETERMINISTIC)

    return sampler


class TestWeyl:
    def test_small_run_passes(self):
        rep = run_weyl_check(PARAMS, config(master_seed=4), queries=8, replicas=2)
        assert rep.passed
        assert rep.name == "weyl-check"
        assert len(rep.checks) == 4
        by_name = {c["metric"]: c for c in rep.checks}
        assert by_name["sandwich_violations"]["value"] == 0.0
        assert by_name["constant_shift_rel_error"]["value"] <= 1e-12
        assert rep.metrics["max_reweight_ratio"] <= 1.0 + 1e-12

    def test_zero_perturbation_is_identity(self):
        n = 128
        rep = run_weyl_check(PARAMS, config(master_seed=5), queries=6, replicas=1,
                             f_values=np.zeros((n, n)))
        assert rep.passed
        # f = 0: the perturbed metric is the base metric; the ratio compares
        # a search total against a fold-left re-costing, so allow rounding
        assert rep.metrics["max_reweight_ratio"] <= 1.0 + 1e-12
        assert rep.metrics["min_reweight_ratio"] == pytest.approx(1.0, rel=1e-12)
        assert rep.metrics["f_oscillation"] == 0.0

    def test_ratio_ladder_bound_holds(self):
        out = weyl_ratio_ladder(PARAMS, config(master_seed=6),
                                eps_list=(2 ** -3, 2 ** -4), replicas=2, queries=4,
                                n=128, side=2.05)
        assert out["bound_violations"][0] == 0
        gaps = out["mollification_gap"]
        assert gaps[0] > gaps[1] > 0.0
        xi = PARAMS.xi
        # violations == 0 is the binding statement; re-derive it from the gaps
        assert np.all(out["max_abs_ratio_dev"] <= np.expm1(xi * gaps) * (1 + 1e-6) + 1e-12)

    def test_default_test_function_range(self):
        spec = GridSpec(n=32, spacing=2.0 / 31, origin=(-1.0, -1.0))
        f = default_test_function(spec)
        assert f.max() <= 1.0 and f.min() >= -1.0
        assert f.shape == (32, 32)


class TestLocality:
    def test_small_run_passes(self):
        rep = run_locality_check(PARAMS, config(master_seed=7), replicas=2,
                                 queries=5, gap_replicas=3)
        assert rep.passed
        assert rep.metrics["changed_internal_distances"] == 0.0
        assert rep.metrics["gap_monotone_replicas"] == 3.0


class TestScalingRelation:
    def test_small_run_passes(self):
        rep = run_scaling_relation_check(PARAMS, config(master_seed=8), replicas=1, pairs=5)
        assert rep.passed
        assert rep.metrics["constant_field_max_gap"] <= 1e-12
        assert rep.metrics["vertex_sum_max_abs_gap"] <= 1e-12
        assert rep.metrics["edge_weighted_min_gap"] >= -0.03


class TestCrossing:
    n, side = 64, 2.2
    square = (-0.5, -0.5, 1.0)

    def series(self, params, strides, master_seed=11, workers=1):
        s = self.side / (self.n - 1)
        return crossing_series(params, self.n, self.side, [4 * s, 2 * s], strides, 3,
                               master_seed, self.square, workers=workers)

    def lattice_width(self, stride):
        """Columns of the stride-coarsened centered lattice inside the square,
        and the physical width between the outer two."""
        step = stride * self.side / (self.n - 1)
        xs = -self.side / 2 + step * np.arange((self.n - 1) // stride + 1)
        x0, _, a = self.square
        cols = np.nonzero((xs >= x0) & (xs <= x0 + a))[0]
        return cols.size, (cols[-1] - cols[0]) * step

    def test_unit_weights_give_lattice_width(self):
        out = self.series(LqgParams.degenerate(), {EDGE_WEIGHTED: [1, 1], VERTEX_SUM: [1, 1]})
        columns, width = self.lattice_width(1)
        np.testing.assert_allclose(out[EDGE_WEIGHTED].medians, width, rtol=1e-12)
        np.testing.assert_array_equal(out[VERTEX_SUM].medians, float(columns))
        for ser in out.values():
            np.testing.assert_array_equal(ser.iqr, 0.0)
            assert ser.statistic_kind == "crossing"
            assert ser.replicas == 3

    def test_stride_coarsens_lattice(self):
        out = self.series(LqgParams.degenerate(), {EDGE_WEIGHTED: [2, 1]})
        assert set(out) == {EDGE_WEIGHTED}
        (_, coarse), (_, fine) = self.lattice_width(2), self.lattice_width(1)
        assert coarse < fine
        np.testing.assert_allclose(out[EDGE_WEIGHTED].medians, [coarse, fine], rtol=1e-12)

    def test_series_deterministic_in_master_seed(self):
        strides = {VERTEX_SUM: [2, 1], EDGE_WEIGHTED: [1, 1]}
        a = self.series(PARAMS, strides, master_seed=7)
        b = self.series(PARAMS, strides, master_seed=7)
        c = self.series(PARAMS, strides, master_seed=8)
        for conv in strides:
            np.testing.assert_array_equal(a[conv].medians, b[conv].medians)
            np.testing.assert_array_equal(a[conv].iqr, b[conv].iqr)
            assert not np.array_equal(a[conv].medians, c[conv].medians)

    def test_worker_count_does_not_change_results(self):
        strides = {VERTEX_SUM: [2, 1], EDGE_WEIGHTED: [1, 1]}
        a = self.series(PARAMS, strides, workers=1)
        b = self.series(PARAMS, strides, workers=2)
        for conv in strides:
            np.testing.assert_array_equal(a[conv].medians, b[conv].medians)
            np.testing.assert_array_equal(a[conv].iqr, b[conv].iqr)


class TestDiameterTail:
    def test_worker_count_does_not_change_results(self):
        cfg = config(master_seed=9, workers=1)
        a = run_diameter_tail(PARAMS, cfg, replicas=4)
        b = run_diameter_tail(PARAMS, replace(cfg, workers=2), replicas=4)
        assert "hill_index" in a.metrics
        assert a.metrics == b.metrics


class TestDufresne:
    def test_alpha_at_or_above_q_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            run_dufresne_check(PARAMS, config(), alphas=(PARAMS.q,), n_samples=10)

    def test_nonpositive_drift_rejected(self):
        with pytest.raises(ValueError, match="drift"):
            simulate_bm_integral(0.0, 4, 0)

    def test_cdf_monotone(self):
        x = np.linspace(0.05, 50.0, 200)
        cdf = bm_integral_cdf(x, 3.0)
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[0] < 0.01 and cdf[-1] > 0.9


class TestDegenerateOracles:
    def test_circle_average_bm_flags_deterministic_input(self):
        rep = run_circle_average_bm(PARAMS, config(master_seed=1), replicas=3,
                                    sampler=constant_sampler(2.0))
        assert rep.passed
        assert rep.checks[0]["kind"] == "not-applicable"
        assert rep.metrics["degenerate"] == 1.0

    def test_diameter_tail_flags_constant_field(self):
        rep = run_diameter_tail(PARAMS, config(master_seed=2), replicas=3,
                                constant_value=0.7)
        assert rep.passed
        assert rep.checks[0]["kind"] == "not-applicable"

    def test_tube_ratios_exactly_one_on_flat_field(self):
        rep = run_tube_distance(PARAMS, config(master_seed=3), replicas=2,
                                min_fraction=0.0, sampler=constant_sampler())
        assert rep.passed
        for k, v in rep.metrics.items():
            if k.startswith("median_ratio_width_"):
                # the straight segment is the geodesic inside every tube
                assert v == 1.0
        assert rep.metrics["strictly_increasing_fraction"] == 0.0

    def test_tube_width_below_spacing_rejected(self):
        with pytest.raises(ValueError, match="width"):
            run_tube_distance(PARAMS, config(), replicas=1, widths=(2 ** -3, 2 ** -12))

    def test_holder_exponents_near_one_on_flat_field(self):
        rep = run_holder_scan(PARAMS, config(master_seed=4), fields=1,
                              sources_per_field=1, directions=8,
                              sampler=constant_sampler())
        # unit weights: distances are chamfer, exponent 1 up to lattice rounding
        assert rep.metrics["median_local_exponent"] == pytest.approx(1.0, abs=0.05)
        assert rep.metrics["min_local_exponent"] > 0.9
        assert rep.metrics["max_local_exponent"] < 1.1

    def test_ball_overlap_flat_field_superlinear(self):
        rep = run_geodesic_ball_overlap(PARAMS, config(master_seed=5), replicas=1,
                                        targets=5, sampler=constant_sampler())
        assert rep.passed
        assert rep.metrics["median_area_exponent"] > 1.0


class TestSuitePlumbing:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_suite(PARAMS, config(), names=["nope"])

    def test_registry_names(self):
        assert set(EXPERIMENTS) == {
            "crossing-exponent", "weyl-check", "locality-check", "scaling-relation",
            "circle-average-bm", "dufresne-check", "holder-scan", "tube-distance",
            "geodesic-ball-overlap", "diameter-tail",
        }

    def test_report_to_dict_and_summary_rows(self):
        rep = run_circle_average_bm(PARAMS, config(master_seed=1), replicas=3,
                                    sampler=constant_sampler(1.0))
        d = rep.to_dict()
        assert set(d) == {"name", "settings", "metrics", "checks", "passed",
                          "runtime_seconds"}
        rows = suite_summary_rows([rep])
        assert len(rows) == len(rep.checks)
        assert rows[0]["experiment"] == "circle-average-bm"
        assert set(rows[0]) == {"experiment", "metric", "value", "target",
                                "tolerance", "pass", "seconds"}
