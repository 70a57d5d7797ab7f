import concurrent.futures
import copy
import csv
import inspect
import json
import math
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lfpp import experiments
from lfpp.config import default_config
from lfpp.experiments import (
    CHECK_RULES,
    EXPERIMENTS,
    Protocol,
    _check,
    _crossing_replica,
    _pool_map,
    _shifted,
    _weyl_replica,
    default_test_function,
    run_suite,
    simulate_bm_integral,
    bm_integral_cdf,
)
from lfpp.field import DETERMINISTIC, WHOLE_PLANE, GridSpec, LatticeField, sample_whole_plane_gff
from lfpp.io import write_suite_summary_csv
from lfpp.metric import EDGE_WEIGHTED, VERTEX_SUM, MetricProblem
from lfpp.mollify import mollify_heat
from lfpp.params import LqgParams
from lfpp.scaling import fit_loglog
from lfpp.seeds import replica_seed

PARAMS = LqgParams.pure_gravity()


def config(**overrides):
    return replace(default_config(), **overrides)


@pytest.fixture
def flat(monkeypatch):
    """The protocols sample the zero field: every weight exp(xi * 0.0) is
    exactly 1, so the metric is the unit-weight lattice metric."""
    def zero_field(spec, seed):
        return LatticeField(spec=spec, values=np.zeros((spec.n, spec.n)), kind=WHOLE_PLANE, seed=seed)

    monkeypatch.setattr(experiments, "sample_whole_plane_gff", zero_field)


def weyl_ratio_ladder(params, config, eps_list=(2 ** -4, 2 ** -5, 2 ** -6),
                      replicas=5, queries=10, n=512, side=2.05):
    """Smooth-perturbation ratio across smoothing scales.

    Compares the metric of the smoothed composite field h + f (where the
    metric sees the mollified f) against the metric with the exact e^(xi*f)
    reweighting.  Every vertex weight of the two metrics differs by at most
    the factor e^(xi * sup|f - f_eps|), so the log of the distance ratio is
    bounded both ways by xi times that sup-gap, computed directly; the gap
    shrinks with eps for smooth f, and the ratio deviation must follow.
    """
    xi = params.xi
    spec = GridSpec.centered(n, side / (n - 1))
    f = default_test_function(spec)
    base = LatticeField(spec=spec, values=f, kind=DETERMINISTIC)
    gaps = np.array([
        float(np.abs(mollify_heat(base, e).values - f).max()) for e in eps_list
    ])
    rng = np.random.default_rng(replica_seed(config.master_seed, 444))
    max_dev = np.zeros(len(eps_list))
    bound_violations = 0
    per_query = max(1, queries // replicas)
    for rep in range(replicas):
        h = sample_whole_plane_gff(spec, replica_seed(config.master_seed, rep))
        hf = LatticeField(spec=spec, values=h.values + f, kind=h.kind)
        pts = [(tuple(int(x) for x in rng.integers(0, n, 2)),
                tuple(int(x) for x in rng.integers(0, n, 2)))
               for _ in range(per_query)]
        for a, eps in enumerate(eps_list):
            mf = mollify_heat(h, eps)
            pert_prob = MetricProblem(mollify_heat(hf, eps), params, config.convention)
            ref_prob = MetricProblem(_shifted(mf, f), params, config.convention)
            for z, w in pts:
                if z == w:
                    continue
                ratio = pert_prob.distance(z, w).distance / ref_prob.distance(z, w).distance
                max_dev[a] = max(max_dev[a], abs(ratio - 1.0))
                if abs(math.log(ratio)) > xi * gaps[a] * (1 + 1e-9) + 1e-12:
                    bound_violations += 1
    return {
        "eps": np.array(list(eps_list)),
        "mollification_gap": gaps,
        "max_abs_ratio_dev": max_dev,
        "bound_violations": np.array([bound_violations]),
    }


class TestWeyl:
    def test_small_run_passes(self):
        rep = EXPERIMENTS["weyl-check"](PARAMS, config(master_seed=4, replicas=2))
        assert rep.passed
        assert rep.name == "weyl-check"
        assert len(rep.checks) == 4
        by_name = {c["metric"]: c for c in rep.checks}
        assert by_name["sandwich_violations"]["value"] == 0.0
        assert by_name["constant_shift_rel_error"]["value"] <= 1e-12
        assert rep.metrics["max_reweight_ratio"] <= 1.0

    def test_zero_perturbation_is_identity(self):
        n = 128
        spec = GridSpec.centered(n, 2.05 / (n - 1))
        # one replica, six query pairs per convention, drawn as the protocol draws them
        points = np.random.default_rng(replica_seed(5, 999)).integers(0, n, size=(1, 2, 6, 2, 2))
        rows = _weyl_replica(0, params=PARAMS, spec=spec, master_seed=5, f=np.zeros((n, n)),
                             c_shift=1.5, points=points)
        assert rows.shape[0] > 0
        d0, dc, df, recost = rows.T
        # f = 0: the perturbed metric is the base metric, and a geodesic
        # recosts to its distance exactly
        assert np.array_equal(df, d0)
        assert np.array_equal(recost, df)
        np.testing.assert_allclose(dc, math.exp(1.5 * PARAMS.xi) * d0, rtol=1e-12, atol=0.0)

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

    @pytest.mark.parametrize("fault, failing", [
        ("shift", "constant_shift_rel_error"),
        ("sandwich", "sandwich_violations"),
        ("recost", "geodesic_reweight_max_ratio"),
    ])
    def test_reduce_flags_planted_rows(self, fault, failing):
        # reduce reads raw (d0, dc, df, recost) rows: an exact row passes
        # every check, and one faulty row fails the check that reads it
        _, _, reduce = EXPERIMENTS["weyl-check"].plan(PARAMS, config(), 1)
        e = math.exp(PARAMS.xi * 1.5)
        exact = np.array([[1.0, e, 1.0, 1.0]])
        _, _, checks = reduce([exact])
        assert all(c["passed"] for c in checks)
        f = default_test_function(GridSpec.centered(128, 2.05 / 127))
        f_hi = math.exp(PARAMS.xi * f.max())
        row = {"shift": [1.0, e * (1 + 1e-9), 1.0, 1.0],
               "sandwich": [1.0, e, 2.0 * f_hi, 2.0 * f_hi],
               "recost": [1.0, e, 1.0, 0.5]}[fault]
        _, metrics, checks = reduce([exact, np.array([row])])
        assert [c["metric"] for c in checks if not c["passed"]] == [failing]
        if fault == "sandwich":
            assert metrics["sandwich_violations"] == 1


class TestLocality:
    def test_small_run_passes(self):
        rep = EXPERIMENTS["locality-check"](PARAMS, config(master_seed=7, replicas=2))
        assert rep.passed
        assert rep.metrics["changed_internal_distances"] == 0.0
        assert rep.metrics["gap_monotone_replicas"] == 2.0

    @pytest.mark.parametrize("after, changed", [(2.0, 0), (2.5, 1)])
    def test_reduce_counts_planted_changes(self, after, changed):
        # reduce reads each pair's distances before and after the outside
        # replacement: one unequal row is one changed distance
        _, _, reduce = EXPERIMENTS["locality-check"].plan(PARAMS, config(), 1)
        dist = np.array([[1.0, 1.0], [2.0, after]])
        _, metrics, checks = reduce([(dist, [0.4, 0.3, 0.2, 0.1])])
        by_name = {c["metric"]: c for c in checks}
        assert metrics["changed_internal_distances"] == changed
        assert by_name["changed_internal_distances"]["passed"] == (changed == 0)
        assert by_name["gap_monotone_replicas"]["passed"]


class TestScalingRelation:
    def test_small_run_passes(self):
        rep = EXPERIMENTS["scaling-relation"](PARAMS, config(master_seed=8, replicas=1))
        assert rep.passed
        assert rep.metrics["constant_field_max_gap"] <= 1e-12
        assert rep.metrics["vertex_sum_max_abs_gap"] <= 1e-12
        assert rep.metrics["edge_weighted_min_gap"] >= -0.03

    def test_linear_field_band_ignores_config_convention(self):
        # under vertex-sum the identity is exact for every field, so the
        # linear field's band is checked edge-weighted whatever the config says
        default, vertex_sum = (EXPERIMENTS["scaling-relation"](PARAMS, config(replicas=1, convention=conv))
                               for conv in (EDGE_WEIGHTED, VERTEX_SUM))
        assert vertex_sum.metrics["linear_field_max_gap"] == default.metrics["linear_field_max_gap"]
        assert default.metrics["linear_field_max_gap"] > 1e-9


class TestCrossing:
    n, side = 64, 2.2
    square = (-0.5, -0.5, 1.0)

    def replicas(self, params, ladders, master_seed=11, workers=1):
        """Three crossing replicas at two scales: (replica, convention, scale)."""
        s = self.side / (self.n - 1)
        spec = GridSpec.centered(self.n, s)
        replica = partial(_crossing_replica, params=params, spec=spec, master_seed=master_seed,
                          eps_list=(4 * s, 2 * s), ladders=ladders, square=self.square)
        return np.array(_pool_map(replica, range(3), workers))

    def lattice_width(self, stride):
        """Columns of the stride-coarsened centered lattice inside the square,
        and the physical width between the outer two."""
        step = stride * self.side / (self.n - 1)
        xs = -self.side / 2 + step * np.arange((self.n - 1) // stride + 1)
        x0, _, a = self.square
        cols = np.nonzero((xs >= x0) & (xs <= x0 + a))[0]
        return cols.size, (cols[-1] - cols[0]) * step

    def test_unit_weights_give_lattice_width(self, flat):
        out = self.replicas(PARAMS, ((EDGE_WEIGHTED, [1, 1]), (VERTEX_SUM, [1, 1])))
        columns, width = self.lattice_width(1)
        assert out.shape == (3, 2, 2)
        np.testing.assert_allclose(out[:, 0], width, rtol=1e-12)
        np.testing.assert_array_equal(out[:, 1], float(columns))

    def test_stride_coarsens_lattice(self, flat):
        out = self.replicas(PARAMS, ((EDGE_WEIGHTED, [2, 1]),))
        assert out.shape == (3, 1, 2)
        (_, coarse), (_, fine) = self.lattice_width(2), self.lattice_width(1)
        assert coarse < fine
        np.testing.assert_allclose(out[:, 0], [[coarse, fine]] * 3, rtol=1e-12)

    def test_series_deterministic_in_master_seed(self):
        ladders = ((VERTEX_SUM, [2, 1]), (EDGE_WEIGHTED, [1, 1]))
        a = self.replicas(PARAMS, ladders, master_seed=7)
        b = self.replicas(PARAMS, ladders, master_seed=7)
        c = self.replicas(PARAMS, ladders, master_seed=8)
        np.testing.assert_array_equal(a, b)
        for conv in range(len(ladders)):
            assert not np.array_equal(np.median(a[:, conv], axis=0), np.median(c[:, conv], axis=0))

    def test_worker_count_does_not_change_results(self):
        ladders = ((VERTEX_SUM, [2, 1]), (EDGE_WEIGHTED, [1, 1]))
        np.testing.assert_array_equal(self.replicas(PARAMS, ladders, workers=1),
                                      self.replicas(PARAMS, ladders, workers=2))


class TestScaleRatio:
    def test_unit_weights_give_lattice_widths(self, flat):
        rep = EXPERIMENTS["scale-ratio"](PARAMS, config(replicas=2))
        s = rep.settings["side"] / (rep.settings["n"] - 1)
        # unit weights: the statistic is the crossing width of the snapped
        # square, floor(r/s - 1/2) lattice steps
        for r in rep.settings["r_values"]:
            want = math.floor(r / s - 0.5) * s
            assert rep.metrics[f"median_r_{r:g}"] == pytest.approx(want, rel=1e-12)
        assert rep.metrics["slope"] == pytest.approx(1.0, abs=0.06)


class TestDufresne:
    def test_nonpositive_drift_rejected(self):
        with pytest.raises(ValueError, match="drift"):
            simulate_bm_integral(0.0, 4, 0)

    def test_cdf_monotone(self):
        x = np.linspace(0.05, 50.0, 200)
        cdf = bm_integral_cdf(x, 3.0)
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[0] < 0.01 and cdf[-1] > 0.9


class TestDegenerateOracles:
    def test_diameter_tail_flags_constant_field(self, flat):
        rep = EXPERIMENTS["diameter-tail"](PARAMS, config(master_seed=2, replicas=3))
        # every diameter is the same, so the sample has no upper tail
        assert rep.metrics["hill_index"] == math.inf
        assert not rep.passed

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_diameter_tail_rejects_too_few_replicas(self, replicas):
        # one replica used to read as a deterministic diameter and pass;
        # two failed deep inside the Hill estimator
        with pytest.raises(ValueError, match="diameter-tail"):
            EXPERIMENTS["diameter-tail"](PARAMS, config(replicas=replicas))

    def test_circle_average_rejects_one_replica(self):
        # one replica has no increment variance
        with pytest.raises(ValueError, match="circle-average-bm"):
            EXPERIMENTS["circle-average-bm"](PARAMS, config(replicas=1))

    def test_tube_ratios_exactly_one_on_flat_field(self, flat):
        rep = EXPERIMENTS["tube-distance"](PARAMS, config(master_seed=3, replicas=2))
        for k, v in rep.metrics.items():
            if k.startswith("median_ratio_width_"):
                # the straight segment is the geodesic inside every tube
                assert v == 1.0
        # so no replica's ratio strictly grows, and the check fails
        assert rep.metrics["strictly_increasing_fraction"] == 0.0
        assert not rep.passed

    def test_holder_exponents_near_one_on_flat_field(self, flat):
        rep = EXPERIMENTS["holder-scan"](PARAMS, config(master_seed=4, replicas=1))
        # unit weights: distances are chamfer, exponent 1 up to lattice rounding
        assert rep.metrics["median_local_exponent"] == pytest.approx(1.0, abs=0.05)
        assert rep.metrics["min_local_exponent"] > 0.9
        assert rep.metrics["max_local_exponent"] < 1.1

    def test_ball_overlap_flat_field_superlinear(self, flat):
        rep = EXPERIMENTS["geodesic-ball-overlap"](PARAMS, config(master_seed=5, replicas=1))
        assert rep.passed
        assert rep.metrics["median_area_exponent"] > 1.0


class TestSuitePlumbing:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_suite(PARAMS, config(), names=["nope"])

    def test_every_name_checked_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setitem(EXPERIMENTS, "dufresne-check", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="unknown experiment 'no-such'; known: "):
            run_suite(PARAMS, config(), ["dufresne-check", "no-such"])
        assert calls == []

    def test_repeated_name_rejected_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setitem(EXPERIMENTS, "weyl-check", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="experiment 'weyl-check' is named twice"):
            run_suite(PARAMS, config(), ["weyl-check", "dufresne-check", "weyl-check"])
        assert calls == []

    def test_runtime_seconds_reads_the_monotonic_clock(self, monkeypatch):
        ticks = iter([100.0, 102.5])
        monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        protocol = Protocol("clock", 1, lambda params, cfg, size: (abs, 0, lambda outputs: ({}, {}, [])))
        assert protocol(PARAMS, config()).runtime_seconds == 2.5

    def test_registry_names(self):
        assert set(EXPERIMENTS) == {
            "crossing-exponent", "scale-ratio", "weyl-check", "locality-check", "scaling-relation",
            "circle-average-bm", "dufresne-check", "holder-scan", "tube-distance",
            "geodesic-ball-overlap", "diameter-tail",
        }

    def test_report_to_dict_and_summary_rows(self, tmp_path):
        rep = EXPERIMENTS["circle-average-bm"](PARAMS, config(master_seed=1, replicas=3))
        d = rep.to_dict()
        assert set(d) == {"name", "settings", "metrics", "checks", "passed",
                          "runtime_seconds"}
        path = tmp_path / "suite.csv"
        write_suite_summary_csv(str(path), [rep])
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == len(rep.checks)
        assert rows[0]["experiment"] == "circle-average-bm"
        assert set(rows[0]) == {"experiment", "metric", "value", "target",
                                "tolerance", "kind", "pass", "seconds"}
        assert [r["kind"] for r in rows] == [c["kind"] for c in rep.checks]


    def test_pool_starts_no_more_workers_than_tasks(self, monkeypatch):
        # a recording stand-in for the executor, so no process is started
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert _pool_map(abs, [-1, -2], 512) == [1, 2]
        assert _pool_map(abs, [-1, -2, -3, -4, -5], 2) == [1, 2, 3, 4, 5]
        assert started == [2, 2]

    def test_registry_keys_are_record_names(self):
        for name, protocol in EXPERIMENTS.items():
            assert protocol.name == name

    def test_every_protocol_takes_params_and_config(self):
        # config.replicas is the one size input: no protocol has keywords
        for name, protocol in EXPERIMENTS.items():
            assert list(inspect.signature(protocol).parameters) == ["params", "config"], name


# small enough to be quick, large enough for the diameter's Hill estimate
REPLICAS = 3


@pytest.fixture(scope="module", params=sorted(EXPERIMENTS))
def small_reports(request):
    """One protocol at REPLICAS replicas: its reports on 1 and on 2 workers."""
    cfg = config(master_seed=9, replicas=REPLICAS)
    return [EXPERIMENTS[request.param](PARAMS, replace(cfg, workers=w)) for w in (1, 2)]


def test_workers_do_not_change_reports(small_reports):
    reports = [rep.to_dict() for rep in small_reports]
    for rep in reports:
        del rep["runtime_seconds"]
    assert reports[0] == reports[1]


def same(a, b) -> bool:
    """Exact equality through nested dicts, lists, tuples and arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def test_reduce_is_pure(small_reports):
    """A protocol's reducer depends on the ordered replica outputs alone:
    rerun on the same outputs it returns the same report body and leaves
    the outputs as they were.  A replica depends on its index alone: the
    last one, run by itself, returns what the runner's map returned."""
    report = small_reports[0]
    cfg = config(master_seed=9, replicas=REPLICAS)
    replica, count, reduce = EXPERIMENTS[report.name].plan(PARAMS, cfg, REPLICAS)
    outputs = _pool_map(replica, range(count), 2)
    assert same(replica(count - 1), outputs[-1])
    kept = copy.deepcopy(outputs)
    first, second = reduce(outputs), reduce(outputs)
    assert same(first, second)
    assert same(outputs, kept)
    settings, metrics, checks = first
    assert (settings, checks) == (report.settings, report.checks)
    assert {k: float(v) for k, v in metrics.items()} == report.metrics


def test_replicas_size_every_protocol(small_reports):
    rep = small_reports[0]
    settings = rep.settings
    if rep.name == "dufresne-check":
        recorded = settings["n_samples"]
    elif rep.name == "holder-scan":
        recorded = settings["fields"]
    else:
        recorded = settings["replicas"]
    assert recorded == REPLICAS
    if rep.name == "locality-check":
        assert settings["gap_replicas"] == REPLICAS


# The six check kinds, restated here so the tests do not read the rule
# table they check: v is the value, t the target, tol the tolerance (0 when
# the row records none).
KIND_RULES = {
    "two-sided": lambda v, t, tol: abs(v - t) <= tol,
    "one-sided-upper": lambda v, t, tol: v <= t + tol,
    "one-sided-lower": lambda v, t, tol: v >= t - tol,
    "strict-upper": lambda v, t, tol: v < t + tol,
    "strict-lower": lambda v, t, tol: v > t - tol,
    "property": lambda v, t, tol: v == t,
}


def test_readme_kind_table_lists_every_check_kind():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| `kind` | passes when |") + 2
    kinds = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        kinds.append(line.split("|")[1].strip().strip("`"))
    assert sorted(kinds) == sorted(CHECK_RULES)


def test_readme_library_example_runs(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert text.count("```python\n") == 1
    example = text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    distance, length = capsys.readouterr().out.split()
    assert math.isfinite(float(distance)) and int(length) > 1


@pytest.mark.parametrize("kind, target, tolerance, edge, at, above, below", [
    ("two-sided", 1.0, 0.25, 1.25, True, False, True),
    ("two-sided", 1.0, 0.25, 0.75, True, True, False),
    ("one-sided-upper", 1.0, 0.25, 1.25, True, False, True),
    ("one-sided-lower", 1.0, 0.25, 0.75, True, True, False),
    ("strict-upper", 1.0, 0.25, 1.25, False, False, True),
    ("strict-lower", 1.0, 0.25, 0.75, False, True, False),
    ("one-sided-upper", 1.0, None, 1.0, True, False, True),
    ("strict-lower", 1.0, None, 1.0, False, True, False),
    ("property", 3.0, 0.0, 3.0, True, False, False),
])
def test_check_rule_at_threshold(kind, target, tolerance, edge, at, above, below):
    """Non-strict kinds pass at their threshold and strict kinds fail there;
    one ulp past it on either side decides the rest."""
    def passed(value):
        row = _check("m", value, target, tolerance, kind)
        assert row["kind"] == kind
        return row["passed"]

    assert passed(edge) is at
    assert passed(np.nextafter(edge, math.inf)) is above
    assert passed(np.nextafter(edge, -math.inf)) is below


def test_check_rows_recompute_from_json(small_reports):
    report = json.loads(json.dumps(small_reports[0].to_dict()))
    for row in report["checks"]:
        assert row["kind"] in KIND_RULES, row
        tol = 0.0 if row["tolerance"] is None else row["tolerance"]
        assert row["passed"] == KIND_RULES[row["kind"]](row["value"], row["target"], tol), row
    assert report["passed"] == all(row["passed"] for row in report["checks"])
