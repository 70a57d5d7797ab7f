"""End-to-end quantitative acceptance runs.

Each test exercises one documented target of the metric family at full
protocol size and prints a single PASS/FAIL line with the measured value.
Master seeds are pinned so every run is bit-reproducible; expensive
protocols run once per module through session fixtures.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from lfpp.config import default_config
from lfpp.experiments import EXPERIMENTS
from lfpp.params import LqgParams

from oracle_paths import compile_paths, enumerate_simple_paths, lattice_distance, min_path_cost

PARAMS = LqgParams.pure_gravity()


def config(**overrides):
    # worker count never changes a report (test_workers_do_not_change_reports)
    return replace(default_config(), workers=min(2, os.cpu_count() or 1), **overrides)


def emit(num, desc, value, target, tolerance, passed):
    status = "PASS" if passed else "FAIL"
    tgt = "-" if target is None else f"{target:.4g}"
    tol = "-" if tolerance is None else f"{tolerance:.3g}"
    print(f"[criterion {num:>3}] {status}: {desc}: value={value:.6g} target={tgt} tol={tol}")


def check_of(report, metric):
    for c in report.checks:
        if c["metric"] == metric:
            return c
    raise KeyError(metric)


@pytest.fixture(scope="module")
def crossing_report():
    return EXPERIMENTS["crossing-exponent"](PARAMS, config(replicas=100, master_seed=12345))


@pytest.fixture(scope="module")
def weyl_report():
    return EXPERIMENTS["weyl-check"](PARAMS, config(master_seed=12))


@pytest.fixture(scope="module")
def locality_report():
    return EXPERIMENTS["locality-check"](PARAMS, config(master_seed=1000))


def test_crossing_exponent_vertex_sum(crossing_report):
    c = check_of(crossing_report, "slope_vertex_sum")
    emit(1, "vertex-sum crossing exponent", c["value"], c["target"], c["tolerance"], c["passed"])
    assert c["passed"]


def test_crossing_exponent_edge_weighted(crossing_report):
    c = check_of(crossing_report, "slope_edge_weighted")
    emit(2, "edge-weighted crossing exponent", c["value"], c["target"], c["tolerance"], c["passed"])
    assert c["passed"]


def test_scale_ratio_exponent():
    report = EXPERIMENTS["scale-ratio"](PARAMS, config(replicas=100, master_seed=2024))
    c = check_of(report, "slope")
    emit(3, "normalized crossing scale exponent", c["value"], c["target"], c["tolerance"],
         c["passed"])
    assert c["passed"]


def test_weyl_constant_shift(weyl_report):
    c = check_of(weyl_report, "constant_shift_rel_error")
    emit(4, "constant-shift relative error", c["value"], c["target"], c["tolerance"], c["passed"])
    assert c["passed"]


def test_weyl_sandwich(weyl_report):
    c = check_of(weyl_report, "sandwich_violations")
    emit(5, "smooth-shift sandwich violations", c["value"], 0.0, 0.0, c["passed"])
    assert c["passed"]


def test_locality(locality_report):
    c = check_of(locality_report, "changed_internal_distances")
    emit(6, "internal distances changed by far-field edits", c["value"], 0.0, 0.0, c["passed"])
    assert c["passed"]


def test_mollifier_gap_monotone(locality_report):
    c = check_of(locality_report, "gap_monotone_replicas")
    emit(7, "replicas with strictly shrinking mollifier gap", c["value"], c["target"], 0.0,
         c["passed"])
    assert c["passed"]


def test_scaling_relation():
    report = EXPERIMENTS["scaling-relation"](PARAMS, config(master_seed=50))
    for c in report.checks:
        emit(8, f"rescaling identity: {c['metric']}", c["value"], c["target"], c["tolerance"],
             c["passed"])
    assert report.passed


def test_circle_average_brownian_motion():
    report = EXPERIMENTS["circle-average-bm"](PARAMS, config(master_seed=303))
    for c in report.checks:
        emit(9, f"circle-average walk: {c['metric']}", c["value"], c["target"], c["tolerance"],
             c["passed"])
    assert report.passed


def test_dufresne_identity():
    report = EXPERIMENTS["dufresne-check"](PARAMS, config(master_seed=99))
    for c in report.checks:
        emit(10, f"exponential-BM integral law: {c['metric']}", c["value"], c["target"],
             c["tolerance"], c["passed"])
    assert report.passed


def test_holder_bracket():
    report = EXPERIMENTS["holder-scan"](PARAMS, config(master_seed=500))
    for c in report.checks:
        emit(11, f"local distance exponents: {c['metric']}", c["value"], c["target"],
             c["tolerance"], c["passed"])
    assert report.passed


def test_diameter_tail():
    report = EXPERIMENTS["diameter-tail"](PARAMS, config(master_seed=600))
    for c in report.checks:
        emit(12, f"diameter upper tail: {c['metric']}", c["value"], c["target"],
             c["tolerance"], c["passed"])
    assert report.passed


def test_oracle_equivalence():
    shapes = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4))
    draws = 1000
    rng = np.random.default_rng(8)
    mismatches = 0
    total = 0
    for shape in shapes:
        src = (0, 0)
        dst = (shape[0] - 1, shape[1] - 1)
        trie = compile_paths(shape, enumerate_simple_paths(shape, src, dst))
        for _ in range(draws):
            w = np.exp(rng.normal(0.0, 1.0, shape))
            for convention in ("vertex-sum", "edge-weighted"):
                got = lattice_distance(w, 0.73, convention, src, dst)
                want = min_path_cost(w, 0.73, convention, src, trie)
                total += 1
                if got != want:
                    mismatches += 1
    passed = mismatches == 0
    emit(13, f"search vs exhaustive enumeration over {total} cases", mismatches, 0.0, 0.0, passed)
    assert passed


def test_tube_distance_monotone():
    report = EXPERIMENTS["tube-distance"](PARAMS, config(master_seed=700))
    c = check_of(report, "strictly_increasing_fraction")
    emit("14a", "tube-confined ratio strictly increasing", c["value"], 0.9, None, c["passed"])
    assert report.passed


def test_geodesic_ball_overlap_superlinear():
    report = EXPERIMENTS["geodesic-ball-overlap"](PARAMS, config(master_seed=800))
    c = check_of(report, "median_area_exponent")
    emit("14b", "geodesic / ball-boundary overlap exponent", c["value"], 1.0, None, c["passed"])
    assert report.passed
