"""End-to-end quantitative acceptance runs.

Each test exercises one documented target of the metric family at full
protocol size and prints a single PASS/FAIL line with the measured value.
Master seeds are pinned (``pinned.REPORTS``) so every run is
bit-reproducible, and each report runs once per session, shared by its
tests and by its comparison with ``pinned_reports.json``.
"""

import functools
import json
import warnings

import numpy as np
import pytest

from lfpp.experiments import EXPERIMENTS

import pinned
from oracle_paths import compile_paths, enumerate_simple_paths, lattice_distance, min_path_cost

run = functools.cache(pinned.run_report)


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


def test_crossing_exponent_vertex_sum():
    report = run("crossing-exponent")
    c = check_of(report, "slope_vertex_sum")
    emit(1, "vertex-sum crossing exponent", c["value"], c["target"], c["tolerance"], c["passed"])
    assert c["passed"]


def test_crossing_exponent_edge_weighted():
    report = run("crossing-exponent")
    c = check_of(report, "slope_edge_weighted")
    emit(2, "edge-weighted crossing exponent", c["value"], c["target"], c["tolerance"], c["passed"])
    assert c["passed"]


def test_scale_ratio_exponent():
    report = run("scale-ratio")
    c = check_of(report, "slope")
    emit(3, "normalized crossing scale exponent", c["value"], c["target"], c["tolerance"],
         c["passed"])
    assert c["passed"]


def test_weyl_constant_shift():
    report = run("weyl-check")
    c = check_of(report, "constant_shift_rel_error")
    emit(4, "constant-shift relative error", c["value"], c["target"], c["tolerance"], c["passed"])
    assert c["passed"]


def test_weyl_sandwich():
    report = run("weyl-check")
    c = check_of(report, "sandwich_violations")
    emit(5, "smooth-shift sandwich violations", c["value"], 0.0, 0.0, c["passed"])
    assert c["passed"]


def test_locality():
    report = run("locality-check")
    c = check_of(report, "changed_internal_distances")
    emit(6, "internal distances changed by far-field edits", c["value"], 0.0, 0.0, c["passed"])
    assert c["passed"]


def test_mollifier_gap_monotone():
    report = run("locality-check")
    c = check_of(report, "gap_monotone_replicas")
    emit(7, "replicas with strictly shrinking mollifier gap", c["value"], c["target"], 0.0,
         c["passed"])
    assert c["passed"]


def test_scaling_relation():
    report = run("scaling-relation")
    for c in report.checks:
        emit(8, f"rescaling identity: {c['metric']}", c["value"], c["target"], c["tolerance"],
             c["passed"])
    assert report.passed


def test_circle_average_brownian_motion():
    report = run("circle-average-bm")
    for c in report.checks:
        emit(9, f"circle-average walk: {c['metric']}", c["value"], c["target"], c["tolerance"],
             c["passed"])
    assert report.passed


def test_dufresne_identity():
    report = run("dufresne-check")
    for c in report.checks:
        emit(10, f"exponential-BM integral law: {c['metric']}", c["value"], c["target"],
             c["tolerance"], c["passed"])
    assert report.passed


def test_holder_bracket():
    report = run("holder-scan")
    for c in report.checks:
        emit(11, f"local distance exponents: {c['metric']}", c["value"], c["target"],
             c["tolerance"], c["passed"])
    assert report.passed


def test_diameter_tail():
    report = run("diameter-tail")
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
    report = run("tube-distance")
    c = check_of(report, "strictly_increasing_fraction")
    emit("14a", "tube-confined ratio strictly increasing", c["value"], 0.9, None, c["passed"])
    assert report.passed


def test_geodesic_ball_overlap_superlinear():
    report = run("geodesic-ball-overlap")
    c = check_of(report, "median_area_exponent")
    emit("14b", "geodesic / ball-boundary overlap exponent", c["value"], 1.0, None, c["passed"])
    assert report.passed


PINNED = json.loads(pinned.REPORTS_FILE.read_text())


def test_every_protocol_is_pinned():
    assert set(EXPERIMENTS) == set(pinned.REPORTS) == set(PINNED["reports"])


@pytest.mark.parametrize("name", list(pinned.REPORTS))
def test_report_matches_pinned(name):
    """Each fresh report equals its committed entry bit for bit, types
    included; under other library versions, only its portable part."""
    got, want = pinned.report_entry(run(name)), PINNED["reports"][name]
    if pinned.versions() != PINNED["versions"]:
        warnings.warn(f"pinned under {PINNED['versions']}, running {pinned.versions()}: "
                      "comparing pass flags, property rows and 1e-12 rows only")
        got, want = pinned.portable(got), pinned.portable(want)
    assert pinned.mismatch(got, want) is None, pinned.mismatch(got, want)
