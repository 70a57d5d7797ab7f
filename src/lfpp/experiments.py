"""Verification experiments: each protocol checks one quantitative or
structural property of the weighted-lattice metric family and returns an
ExperimentReport with named metrics, targets, and a pass flag.

Protocol geometry (window sizes, ladders, query counts, tolerances) is
pinned here so reports are reproducible bit-for-bit from the config.  Every
protocol is a ``Protocol`` record called as ``protocol(params, config)``;
``config.replicas`` is its only size input, and ``None`` keeps the
protocol's pinned size.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import RunConfig
from .field import (
    DETERMINISTIC,
    GridSpec,
    LatticeField,
    circle_average,
    sample_whole_plane_gff,
    sample_zero_boundary_gff,
)
from .metric import (
    EDGE_WEIGHTED,
    VERTEX_SUM,
    MetricProblem,
    geodesic_tube_areas,
)
from .mollify import (
    mollify_heat,
    mollify_heat_ladder,
    mollify_truncated,
    subsample,
)
from .params import LqgParams
from .scaling import fit_loglog, hill_estimator
from .seeds import replica_seed


@dataclass
class ExperimentReport:
    name: str
    settings: Dict[str, object]
    metrics: Dict[str, float]
    checks: List[Dict[str, object]]
    passed: bool
    runtime_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


# What "passed" means for each check kind, as a rule on the row's own
# (value, target, tolerance), a missing tolerance counting as 0: any row can
# be recomputed from its JSON.
CHECK_RULES: Dict[str, Callable[[float, Optional[float], float], bool]] = {
    "two-sided": lambda v, t, tol: abs(v - t) <= tol,
    "one-sided-upper": lambda v, t, tol: v <= t + tol,
    "one-sided-lower": lambda v, t, tol: v >= t - tol,
    "strict-upper": lambda v, t, tol: v < t + tol,
    "strict-lower": lambda v, t, tol: v > t - tol,
    "property": lambda v, t, tol: v == t,
}


def _check(metric: str, value: float, target: Optional[float], tolerance: Optional[float],
           kind: str = "two-sided") -> Dict[str, object]:
    row = {
        "metric": metric,
        "value": float(value),
        "target": None if target is None else float(target),
        "tolerance": None if tolerance is None else float(tolerance),
        "kind": kind,
    }
    tol = 0.0 if row["tolerance"] is None else row["tolerance"]
    row["passed"] = bool(CHECK_RULES[kind](row["value"], row["target"], tol))
    return row


Plan = Tuple[Callable[[int], object], int, Callable[[list], Tuple[dict, dict, List[dict]]]]


@dataclass(frozen=True)
class Protocol:
    """One protocol as data: its name, its pinned size and its plan.

    ``plan(params, config, size)`` computes the protocol's geometry and its
    field-independent draws once, and returns ``(replica, count, reduce)``.
    ``replica`` is a ``functools.partial`` of a module-level function over
    that shared data and the master seed, so it can be mapped over worker
    processes; ``replica(k)`` is replica k's output for k in
    ``range(count)``, a function of its index alone, which derives its own
    seeds from ``replica_seed(master_seed, k, ...)``.  ``reduce`` is a pure
    function of the ordered replica outputs, so it can be rerun on any of
    them.
    """

    name: str
    size: int
    plan: Callable[[LqgParams, RunConfig, int], Plan]

    def __call__(self, params: LqgParams, config: RunConfig) -> ExperimentReport:
        """Run the protocol at ``config.replicas``, or at its pinned size."""
        t0 = time.perf_counter()
        size = self.size if config.replicas is None else config.replicas
        replica, count, reduce = self.plan(params, config, size)
        settings, metrics, checks = reduce(_pool_map(replica, range(count), config.workers))
        return ExperimentReport(
            name=self.name,
            settings=settings,
            metrics={k: float(v) for k, v in metrics.items()},
            checks=checks,
            passed=all(c["passed"] for c in checks),
            runtime_seconds=time.perf_counter() - t0,
        )


def _pool_map(fn: Callable, indices: Sequence, workers: int) -> list:
    """Deterministic map of a replica over its indices, optionally parallel:
    the outputs come back in the order of ``indices``."""
    if workers <= 1 or len(indices) <= 1:
        return [fn(k) for k in indices]
    from concurrent.futures import ProcessPoolExecutor  # loaded on first use: serial runs skip it

    # the pool starts all its workers at the first submit, so no more than there are replicas
    with ProcessPoolExecutor(max_workers=min(workers, len(indices))) as pool:
        return list(pool.map(fn, indices))


# -- crossing exponent ---------------------------------------------------------


def _crossing_replica(k: int, params, spec, master_seed, eps_list, ladders, square) -> np.ndarray:
    out = np.empty((len(ladders), len(eps_list)))
    # one field at a time: no name holds the sample, which the ladder drops
    # after its transform; it yields one scale at a time, and no problem
    # outlives its crossing
    for a, mf in enumerate(mollify_heat_ladder(sample_whole_plane_gff(spec, replica_seed(master_seed, k)),
                                                    eps_list)):
        for c, (convention, strides) in enumerate(ladders):
            out[c, a] = MetricProblem(subsample(mf, strides[a]), params, convention).crossing_distance(square)
    return out


def _plan_crossing_exponent(params: LqgParams, config: RunConfig, replicas: int) -> Plan:
    """Slope of log median crossing distance against log scale.

    The path-count convention (vertex-sum) lives on the lattice whose step
    tracks the scale; the length-element convention (edge-weighted) keeps
    the finest lattice and only the smoothing scale varies.  One field per
    replica is sampled and mollified once per scale for both conventions,
    and reused across the whole ladder, which cancels the replica's common
    large-scale factor out of the fitted slope.
    """
    n, side = 512, 2.02
    tolerance = 0.07
    s = side / (n - 1)
    square = (-0.5, -0.5, 1.0)
    ms = range(4, -1, -1)
    eps_list = tuple(2 * (2 ** m) * s for m in ms)
    # (convention, lattice stride at each scale)
    ladders = ((VERTEX_SUM, [2 ** m for m in ms]), (EDGE_WEIGHTED, [1] * len(eps_list)))
    spec = GridSpec.centered(n, s)
    settings = {"n": n, "side": side, "replicas": replicas, "master_seed": config.master_seed}

    def reduce(outputs):
        # one row of medians per convention, across the scales
        fit_vs, fit_ew = (fit_loglog(eps_list, medians) for medians in np.median(outputs, axis=0))
        checks = [
            _check("slope_vertex_sum", fit_vs.slope, -params.xi_q, tolerance),
            _check("slope_edge_weighted", fit_ew.slope, 1.0 - params.xi_q, tolerance),
        ]
        metrics = {
            "slope_vertex_sum": fit_vs.slope,
            "stderr_vertex_sum": fit_vs.stderr,
            "slope_edge_weighted": fit_ew.slope,
            "stderr_edge_weighted": fit_ew.stderr,
        }
        return settings, metrics, checks

    return partial(_crossing_replica, params=params, spec=spec, master_seed=config.master_seed,
                   eps_list=eps_list, ladders=ladders, square=square), replicas, reduce


# -- window-scale ratio ------------------------------------------------------------


def _scale_ratio_replica(k: int, params, spec, master_seed, eps, r_values) -> np.ndarray:
    f = sample_whole_plane_gff(spec, replica_seed(master_seed, k))
    prob = MetricProblem(mollify_heat(f, eps), params, EDGE_WEIGHTED)
    return np.array([
        math.exp(-params.xi * circle_average(f, (0.0, 0.0), r)) * prob.crossing_distance((0.0, 0.0, r))
        for r in r_values
    ])


def _plan_scale_ratio(params: LqgParams, config: RunConfig, replicas: int) -> Plan:
    """Slope of the normalized crossing statistic against the window scale.

    Per replica and window r: exp(-xi*h_r(0)) * crossing distance of the
    square (0, r)^2, with h_r(0) the circle average about the origin.  The
    mollification scale stays fixed while the window scales, so the slope of
    log median against log r estimates xi*Q.
    """
    n, side = 512, 4.1
    spec = GridSpec.centered(n, side / (n - 1))
    eps = 2 * spec.spacing
    r_values = (1.0, 0.5, 0.25, 0.125)
    tolerance = 0.10
    settings = {"n": n, "side": side, "eps": eps, "r_values": list(r_values),
                "replicas": replicas, "master_seed": config.master_seed}

    def reduce(outputs):
        medians = np.median(outputs, axis=0)
        fit = fit_loglog(r_values, medians)
        metrics = {"slope": fit.slope, "stderr": fit.stderr}
        for r, m in zip(r_values, medians):
            metrics[f"median_r_{r:g}"] = m
        checks = [
            _check("slope", fit.slope, params.xi_q, tolerance),
        ]
        return settings, metrics, checks

    return partial(_scale_ratio_replica, params=params, spec=spec, master_seed=config.master_seed,
                   eps=eps, r_values=r_values), replicas, reduce


# -- Weyl scaling --------------------------------------------------------------


def _shifted(mf: LatticeField, delta: np.ndarray) -> LatticeField:
    values = mf.values + delta
    values.setflags(write=False)
    return LatticeField(spec=mf.spec, values=values, kind=mf.kind, seed=mf.seed)


def default_test_function(spec: GridSpec) -> np.ndarray:
    xx, yy = spec.mesh()
    return np.cos(2.0 * math.pi * xx) * np.cos(2.0 * math.pi * yy)


def _weyl_replica(k: int, params, spec, master_seed, f, f_lo, f_hi, osc, c_shift,
                  points) -> Tuple[float, int, float, float, int]:
    """One field's constant-shift error, sandwich violations, reweight-ratio
    range and lower-bound violations; ``points[k, c]`` holds the query pairs
    for the c-th convention; ``f_lo`` and ``f_hi`` are the min/max factors
    exp(xi*f) and ``osc`` the oscillation of ``f``."""
    xi = params.xi
    mf = mollify_heat(sample_whole_plane_gff(spec, replica_seed(master_seed, k)), 2 * spec.spacing)
    max_shift_err = 0.0
    sandwich_violations = 0
    min_ratio = math.inf
    max_ratio = -math.inf
    lower_bound_violations = 0
    for conv, pairs in zip((VERTEX_SUM, EDGE_WEIGHTED), points[k]):
        base_prob = MetricProblem(mf, params, conv)
        shift_prob = MetricProblem(_shifted(mf, np.full((spec.n, spec.n), c_shift)), params, conv)
        pert_prob = MetricProblem(_shifted(mf, f), params, conv)
        for z, w in pairs:
            z, w = tuple(int(x) for x in z), tuple(int(x) for x in w)
            if z == w:
                continue
            res = base_prob.distance(z, w)
            d0 = res.distance
            dc = shift_prob.distance_value(z, w)
            max_shift_err = max(max_shift_err, abs(dc - math.exp(xi * c_shift) * d0)
                                / (math.exp(xi * c_shift) * d0))
            df = pert_prob.distance_value(z, w)
            if not (f_lo * d0 * (1 - 1e-12) <= df <= f_hi * d0 * (1 + 1e-12)):
                sandwich_violations += 1
            # the unperturbed geodesic, re-costed under the perturbed weights,
            # upper-bounds the perturbed distance
            ratio = df / pert_prob.path_cost(res.path)
            min_ratio = min(min_ratio, ratio)
            max_ratio = max(max_ratio, ratio)
            if ratio < math.exp(-xi * osc) * (1 - 1e-12):
                lower_bound_violations += 1
    return max_shift_err, sandwich_violations, min_ratio, max_ratio, lower_bound_violations


def _plan_weyl_check(params: LqgParams, config: RunConfig, replicas: int) -> Plan:
    """Conformal-factor checks: constant shifts rescale distances exactly,
    smooth perturbations are sandwiched by the min/max factor, and the
    perturbed distance stays below the reweighted unperturbed geodesic."""
    n, side = 128, 2.05
    per_query = 5
    spec = GridSpec.centered(n, side / (n - 1))
    f = default_test_function(spec)
    f_lo, f_hi = math.exp(params.xi * f.min()), math.exp(params.xi * f.max())
    osc = float(f.max() - f.min())
    c_shift = 1.5
    # (replica, convention, query, endpoint, axis): the draws do not depend
    # on the fields, so one batch keeps the sequential order
    rng = np.random.default_rng(replica_seed(config.master_seed, 999))
    points = rng.integers(0, n, size=(replicas, 2, per_query, 2, 2))
    settings = {"n": n, "side": side, "queries": per_query * replicas, "replicas": replicas,
                "master_seed": config.master_seed, "constant_shift": c_shift}

    def reduce(outputs):
        errs, sandwich, lows, highs, lower = np.array(outputs).T
        max_shift_err = errs.max()
        sandwich_violations = sandwich.sum()
        min_ratio, max_ratio = lows.min(), highs.max()
        lower_bound_violations = lower.sum()
        checks = [
            _check("constant_shift_rel_error", max_shift_err, 0.0, 1e-12, kind="one-sided-upper"),
            _check("sandwich_violations", sandwich_violations, 0.0, 0.0, kind="property"),
            _check("geodesic_reweight_max_ratio", max_ratio, 1.0, 1e-12, kind="one-sided-upper"),
            _check("geodesic_reweight_lower_violations", lower_bound_violations, 0.0, 0.0, kind="property"),
        ]
        metrics = {"constant_shift_rel_error": max_shift_err,
                   "sandwich_violations": sandwich_violations,
                   "min_reweight_ratio": min_ratio,
                   "max_reweight_ratio": max_ratio,
                   "f_oscillation": osc}
        return settings, metrics, checks

    return partial(_weyl_replica, params=params, spec=spec, master_seed=config.master_seed, f=f,
                   f_lo=f_lo, f_hi=f_hi, osc=osc, c_shift=c_shift, points=points), replicas, reduce


# -- locality and mollifier gap -------------------------------------------------


def _locality_replica(k: int, params, spec, master_seed, eps, convention, domain, outside_buffer,
                      pairs, gap_eps) -> Tuple[int, List[float]]:
    """One replica's two measurements.

    First, the query pairs whose internal distance moved when the base
    field was replaced outside the buffer: by zeros on even replicas, and by
    an independent fresh field (the stronger perturbation) on odd ones.
    Second, on a third field, the sup-gap between the full and truncated
    mollifications at each scale of ``gap_eps``.
    """
    base = sample_zero_boundary_gff(spec, replica_seed(master_seed, k)).values
    if k % 2 == 0:
        repl_values = np.zeros_like(base)
    else:
        repl_values = sample_zero_boundary_gff(spec, replica_seed(master_seed, k, 1)).values
    perturbed_vals = base.copy()
    perturbed_vals[outside_buffer] = repl_values[outside_buffer]
    perturbed_vals.setflags(write=False)
    p1, p2 = (
        MetricProblem(mollify_truncated(LatticeField(spec=spec, values=v, kind=DETERMINISTIC), eps),
                      params, convention, mask=domain)
        for v in (base, perturbed_vals)
    )
    changed = sum(p1.distance_value(a, b) != p2.distance_value(a, b) for a, b in pairs[k])
    g = sample_zero_boundary_gff(spec, replica_seed(master_seed, k, 2))
    gaps = [
        float(np.abs(mollify_heat(g, e).values - mollify_truncated(g, e).values).max())
        for e in gap_eps
    ]
    return changed, gaps


def _plan_locality_check(params: LqgParams, config: RunConfig, replicas: int) -> Plan:
    """Internal distances in a subdomain must not move at all when the base
    field is replaced outside the truncated kernel's support buffer; the
    sup-gap between the full and truncated mollifications must shrink with
    the scale.  ``config.replicas`` sizes both measurements."""
    from scipy import ndimage  # loaded on first use: only this check and tube areas need it

    n = 128
    queries = 100
    eps = 2 ** -4
    gap_eps = (2 ** -3, 2 ** -4, 2 ** -5, 2 ** -6)
    spec = GridSpec(n=n, spacing=2 ** -7)
    s = spec.spacing
    radius = math.sqrt(eps)
    cx, cy = spec.center
    xx, yy = spec.mesh()
    domain = (np.abs(xx - cx) <= 0.2) & (np.abs(yy - cy) <= 0.2)
    dist_to_domain = ndimage.distance_transform_edt(~domain, sampling=s)
    outside_buffer = dist_to_domain > radius + 2 * s
    domain_vertices = np.argwhere(domain)
    # (replica, query, endpoint): field-independent draws, batched in order
    rng = np.random.default_rng(replica_seed(config.master_seed, 777))
    pairs = domain_vertices[rng.integers(len(domain_vertices), size=(replicas, queries, 2))]
    settings = {"n": n, "eps": eps, "replicas": replicas, "queries": queries,
                "gap_replicas": replicas, "master_seed": config.master_seed,
                "convention": config.convention}

    def reduce(outputs):
        changed = sum(c for c, _ in outputs)
        # one row of sup-gaps per replica across the ladder
        gap_rows = np.array([gaps for _, gaps in outputs])
        monotone = int(np.sum(np.all(gap_rows[:, :-1] > gap_rows[:, 1:], axis=1)))
        checks = [
            _check("changed_internal_distances", changed, 0.0, 0.0, kind="property"),
            _check("gap_monotone_replicas", monotone, replicas, 0.0, kind="property"),
        ]
        metrics = {
            "changed_internal_distances": changed,
            "gap_monotone_replicas": monotone,
        }
        for j, e in enumerate(gap_eps):
            metrics[f"median_gap_eps_{e:g}"] = float(np.median(gap_rows[:, j]))
        return settings, metrics, checks

    return partial(_locality_replica, params=params, spec=spec, master_seed=config.master_seed,
                   eps=eps, convention=config.convention, domain=domain,
                   outside_buffer=outside_buffer, pairs=pairs, gap_eps=gap_eps), replicas, reduce


# -- scaling relation ------------------------------------------------------------


def scaling_relation_gaps(field: LatticeField, mf: LatticeField, params: LqgParams, convention: str,
                          pairs: int, rng: np.random.Generator, r: int = 2) -> np.ndarray:
    """Signed relative gaps (LHS - RHS)/RHS of the rescaling identity.

    ``mf`` is the heat mollification of ``field`` (h) at scale eps.  LHS:
    distances from one coarse source under the rescaled field
    h(r.) - h_r(0) at scale eps/r, on the stride-r grid with coordinates
    divided by r; h_r(0) is the unit-circle average of h(r.) under that
    grid's quadrature.  Smoothing commutes exactly with the coordinate
    rescaling, so the smoothed values are ``mf`` subsampled onto the coarse
    grid, which avoids the aliasing a direct coarse-grid convolution of the
    rough field would introduce.  RHS: distances under the original field at
    scale eps from the corresponding fine source, normalized by the
    recentering factor (and by 1/r for the edge-weighted convention, whose
    costs carry the physical length element; the vertex-sum convention is
    spacing-free).
    """
    xi = params.xi
    sub = subsample(mf, r)
    ox, oy = field.spec.origin
    coarse = GridSpec(n=sub.spec.n, spacing=field.spec.spacing, origin=(ox / r, oy / r))
    c = circle_average(LatticeField(spec=coarse, values=field.values[::r, ::r], kind=field.kind),
                       (0.0, 0.0), 1.0)
    lhs_values = sub.values - c
    lhs_values.setflags(write=False)
    lhs_prob = MetricProblem(LatticeField(spec=coarse, values=lhs_values, kind=sub.kind, seed=sub.seed),
                             params, convention)
    if convention == VERTEX_SUM:
        rhs_prob = MetricProblem(sub, params, convention)
        factor = math.exp(-xi * c)
        stretch = 1
    else:
        rhs_prob = MetricProblem(mf, params, convention)
        factor = math.exp(-xi * c) / r
        stretch = r
    nc = coarse.n
    z = tuple(int(x) for x in rng.integers(nc // 8, nc - nc // 8, 2))
    lhs_d = lhs_prob.multi_source_distance([z])
    rhs_d = rhs_prob.multi_source_distance([(z[0] * stretch, z[1] * stretch)])
    gaps = []
    while len(gaps) < pairs:
        w = tuple(int(x) for x in rng.integers(nc // 8, nc - nc // 8, 2))
        if w == z:
            continue
        lhs = float(lhs_d[w])
        rhs = factor * float(rhs_d[w[0] * stretch, w[1] * stretch])
        gaps.append((lhs - rhs) / rhs)
    return np.array(gaps)


def _scaling_relation_replica(k: int, params, spec, master_seed, eps, pairs,
                              r) -> Tuple[np.ndarray, np.ndarray]:
    """One field's vertex-sum and edge-weighted relative gaps."""
    field = sample_whole_plane_gff(spec, replica_seed(master_seed, k))
    mf = mollify_heat(field, eps)
    return tuple(
        scaling_relation_gaps(field, mf, params, conv, pairs,
                              np.random.default_rng(replica_seed(master_seed, k, key)), r)
        for conv, key in ((VERTEX_SUM, 3), (EDGE_WEIGHTED, 4))
    )


def _plan_scaling_relation(params: LqgParams, config: RunConfig, replicas: int) -> Plan:
    """The grid-rescaling identity: exact for a constant field and, under
    vertex-sum, for every field; within a band under edge-weighted, for the
    sampled fields and for a deterministic linear field."""
    n, side = 512, 4.1
    pairs = 50
    band = 0.03
    spec = GridSpec.centered(n, side / (n - 1))
    eps = 2 ** -4
    r = 2

    # constant field: identity exact for both conventions
    const_values = np.full((n, n), 1.3)
    const_values.setflags(write=False)
    const = LatticeField(spec=spec, values=const_values, kind=DETERMINISTIC)
    const_mf = mollify_heat(const, eps)
    const_gap = 0.0
    for conv in (VERTEX_SUM, EDGE_WEIGHTED):
        g = scaling_relation_gaps(const, const_mf, params, conv, 10, np.random.default_rng(0), r)
        const_gap = max(const_gap, float(np.abs(g).max()))

    # deterministic linear field pins a reference band, edge-weighted: under
    # vertex-sum the identity is exact for every field, so the band could not fail
    xx, _ = spec.mesh()
    xx.setflags(write=False)
    linear = LatticeField(spec=spec, values=xx, kind=DETERMINISTIC)
    lin_gap = float(np.abs(
        scaling_relation_gaps(linear, mollify_heat(linear, eps), params, EDGE_WEIGHTED, 20,
                              np.random.default_rng(1), r)
    ).max())

    settings = {"n": n, "side": side, "eps": eps, "r": r, "replicas": replicas, "pairs": pairs,
                "master_seed": config.master_seed}

    def reduce(outputs):
        gaps_vs, gaps_ew = (np.concatenate(g) for g in zip(*outputs))
        checks = [
            _check("constant_field_max_gap", const_gap, 0.0, 1e-12, kind="one-sided-upper"),
            _check("vertex_sum_max_abs_gap", float(np.abs(gaps_vs).max()), 0.0, 1e-12, kind="one-sided-upper"),
            _check("edge_weighted_min_gap", float(gaps_ew.min()), 0.0, band, kind="one-sided-lower"),
            _check("linear_field_max_gap", lin_gap, 0.0, band, kind="one-sided-upper"),
        ]
        metrics = {
            "constant_field_max_gap": const_gap,
            "linear_field_max_gap": lin_gap,
            "vertex_sum_max_abs_gap": float(np.abs(gaps_vs).max()),
            "edge_weighted_min_gap": float(gaps_ew.min()),
            "edge_weighted_max_gap": float(gaps_ew.max()),
        }
        return settings, metrics, checks

    return partial(_scaling_relation_replica, params=params, spec=spec, master_seed=config.master_seed,
                   eps=eps, pairs=pairs, r=r), replicas, reduce


# -- circle-average Brownian motion ----------------------------------------------


def _circle_average_replica(k: int, spec, master_seed, radii) -> List[float]:
    h = sample_whole_plane_gff(spec, replica_seed(master_seed, k))
    return [circle_average(h, (0.0, 0.0), rr) for rr in radii]


def _plan_circle_average_bm(params: LqgParams, config: RunConfig, replicas: int) -> Plan:
    """Circle averages about the center must perform a unit-diffusivity
    random walk in log scale: dyadic increments have variance log 2 and
    disjoint increments are uncorrelated."""
    if replicas < 2:
        raise ValueError("circle-average-bm needs at least 2 replicas for its increment variances")
    n, side = 512, 4.1
    spec = GridSpec.centered(n, side / (n - 1))
    radii = [1.0, 0.5, 0.25, 0.125, 0.0625]
    settings = {"n": n, "side": side, "replicas": replicas, "radii": radii,
                "master_seed": config.master_seed}

    def reduce(outputs):
        inc = np.diff(np.array(outputs), axis=1)
        ratios = inc.var(axis=0, ddof=1) / math.log(2.0)
        corr = np.corrcoef(inc.T)
        max_corr = float(np.abs(corr[np.triu_indices(inc.shape[1], 1)]).max())
        checks = [
            _check("min_variance_ratio", float(ratios.min()), 1.0, 0.15, kind="one-sided-lower"),
            _check("max_variance_ratio", float(ratios.max()), 1.0, 0.15, kind="one-sided-upper"),
            _check("max_disjoint_increment_corr", max_corr, 0.0, 0.1, kind="strict-upper"),
        ]
        metrics = {"max_disjoint_increment_corr": max_corr,
                   "first_increment_variance": float(inc[:, 0].var(ddof=1))}
        for j in range(len(ratios)):
            metrics[f"variance_ratio_{j}"] = float(ratios[j])
        return settings, metrics, checks

    return partial(_circle_average_replica, spec=spec, master_seed=config.master_seed,
                   radii=radii), replicas, reduce


# -- exponential Brownian integral -----------------------------------------------


_BM_DT = 1e-3  # Euler step of simulate_bm_integral


def simulate_bm_integral(drift: float, n_samples: int, seed: int) -> np.ndarray:
    """Euler samples of the perpetual integral int_0^inf e^(B_s - drift*s) ds,
    truncated at the horizon max(40, 60/drift), where the remaining mass is
    negligible."""
    if drift <= 0.0:
        raise ValueError("drift must be positive for the integral to converge")
    dt = _BM_DT
    horizon = max(40.0, 60.0 / drift)
    rng = np.random.default_rng(seed)
    nsteps = int(round(horizon / dt))
    b = np.zeros(n_samples)
    x = np.zeros(n_samples)
    # per-step buffers, written in place; standard_normal(out=) draws the
    # same stream as standard_normal(n_samples)
    z = np.empty(n_samples)
    tmp = np.empty(n_samples)
    sdt = math.sqrt(dt)
    decay = 0.0
    for _ in range(nsteps):
        np.exp(np.subtract(b, decay, out=tmp), out=tmp)
        tmp *= dt
        x += tmp
        rng.standard_normal(out=z)
        z *= sdt
        b += z
        decay += drift * dt
    return x


def bm_integral_cdf(x: np.ndarray, shape: float) -> np.ndarray:
    """CDF of the integral's law: the reciprocal 2/X is Gamma(shape)."""
    from scipy import stats  # loaded on first use: importing it doubles every CLI start

    return stats.gamma.sf(2.0 / np.asarray(x, dtype=np.float64), shape)


def _dufresne_task(k: int, drifts, n_samples, master_seed) -> float:
    """KS distance of the k-th drift's Euler samples from the closed-form law."""
    from scipy import stats

    x = simulate_bm_integral(drifts[k], n_samples, replica_seed(master_seed, k))
    return float(stats.kstest(x, lambda v: bm_integral_cdf(v, 2.0 * drifts[k])).statistic)


def _plan_dufresne_check(params: LqgParams, config: RunConfig, n_samples: int) -> Plan:
    """Exponential-BM integral distribution against its closed-form law, at
    the drifts (q - alpha)/xi for alpha in (0, gamma).  ``config.replicas``
    is the sample count per drift, and the drifts are the replicas: the
    plan's count is ``len(drifts)``, and replica k samples drift k."""
    alphas = (0.0, params.gamma)
    drifts = [(params.q - alpha) / params.xi for alpha in alphas]
    settings = {"alphas": list(alphas), "n_samples": n_samples, "dt": _BM_DT,
                "master_seed": config.master_seed}

    def reduce(outputs):
        checks = []
        metrics = {}
        for idx, (drift, ks) in enumerate(zip(drifts, outputs)):
            metrics[f"ks_alpha_{idx}"] = ks
            metrics[f"tail_exponent_alpha_{idx}"] = 2.0 * drift
            checks.append(_check(f"ks_alpha_{idx}", ks, 0.0, 0.05, kind="strict-upper"))
        return settings, metrics, checks

    return (partial(_dufresne_task, drifts=drifts, n_samples=n_samples, master_seed=config.master_seed),
            len(drifts), reduce)


# -- Hoelder scan -----------------------------------------------------------------


def _holder_replica(k: int, params, spec, master_seed, eps, sources, directions, seps) -> List[float]:
    """Local exponents of field k, from each of its sources along each direction."""
    n = spec.n
    mf = mollify_heat(sample_whole_plane_gff(spec, replica_seed(master_seed, k)), eps)
    prob = MetricProblem(mf, params, EDGE_WEIGHTED)
    exponents = []
    for u in sources[k]:
        d = prob.multi_source_distance([u])
        ux, uy = spec.point(*u)
        for th in np.linspace(0.0, 2.0 * math.pi, directions, endpoint=False):
            pts = []
            for sep in seps:
                vi = spec.nearest(ux + sep * math.cos(th), uy + sep * math.sin(th))
                if not (0 <= vi[0] < n and 0 <= vi[1] < n):
                    break
                vx, vy = spec.point(*vi)
                pts.append((math.hypot(vx - ux, vy - uy), float(d[vi])))
            else:
                (r0, d0) = pts[0]
                for (r1, d1) in pts[1:]:
                    exponents.append(math.log(d1 / d0) / math.log(r1 / r0))
    return exponents


def _plan_holder_scan(params: LqgParams, config: RunConfig, fields: int) -> Plan:
    """Local distance exponents log D / log |u-v| over ~10^3 point pairs.

    Each pair's exponent is measured against the same pair's unit-separation
    distance, which cancels the point-to-point normalization constant.
    ``config.replicas`` is the number of fields.
    """
    xi, q = params.xi, params.q
    n, side = 512, 2.05
    sources_per_field, directions = 2, 28
    spec = GridSpec.centered(n, side / (n - 1))
    eps = 2 * spec.spacing
    seps = (1.0, 2 ** -3, 2 ** -4)
    lo_edge = xi * (q - 2.0) - 0.05
    hi_edge = xi * (q + 2.0) + 0.3
    # (field, source, axis): field-independent draws, batched in order
    rng = np.random.default_rng(replica_seed(config.master_seed, 123))
    sources = rng.integers(n // 2 - 20, n // 2 + 20, size=(fields, sources_per_field, 2))

    def reduce(outputs):
        exponents = np.concatenate(outputs)
        med = float(np.median(exponents))
        lo = float(exponents.min())
        hi = float(exponents.max())
        checks = [
            _check("median_local_exponent", med, params.xi_q, 0.15),
            _check("min_local_exponent", lo, lo_edge, None, kind="one-sided-lower"),
            _check("max_local_exponent", hi, hi_edge, None, kind="one-sided-upper"),
        ]
        settings = {"n": n, "side": side, "eps": eps, "separations": list(seps), "fields": fields,
                    "pairs": int(exponents.size), "master_seed": config.master_seed}
        metrics = {"median_local_exponent": med, "min_local_exponent": lo,
                   "max_local_exponent": hi, "pairs": exponents.size}
        return settings, metrics, checks

    return partial(_holder_replica, params=params, spec=spec, master_seed=config.master_seed, eps=eps,
                   sources=sources, directions=directions, seps=seps), fields, reduce


# -- tube-confined distances -------------------------------------------------------


def _tube_replica(k: int, params, spec, master_seed, eps, convention, u, v, seg_dist, widths) -> np.ndarray:
    """Ratios (tube-internal distance / ambient distance), one per width."""
    mf = mollify_heat(sample_whole_plane_gff(spec, replica_seed(master_seed, k)), eps)
    ambient = MetricProblem(mf, params, convention).distance_value(u, v)
    return np.array([
        MetricProblem(mf, params, convention, mask=seg_dist <= w).distance_value(u, v) / ambient
        for w in widths
    ])


def _plan_tube_distance(params: LqgParams, config: RunConfig, replicas: int) -> Plan:
    """Distance confined to a shrinking tube around a segment, against the
    ambient distance; the ratio should strictly grow as the tube narrows."""
    n, side = 256, 2.05
    widths = [2 ** -3, 2 ** -4, 2 ** -5, 2 ** -6]  # widest first, all above the spacing
    min_fraction = 0.9
    spec = GridSpec.centered(n, side / (n - 1))
    eps = 2 * spec.spacing
    xx, yy = spec.mesh()
    seg_dist = np.where(np.abs(xx) <= 0.5, np.abs(yy), np.hypot(np.abs(xx) - 0.5, yy))
    u, v = spec.nearest(-0.5, 0.0), spec.nearest(0.5, 0.0)
    settings = {"n": n, "side": side, "eps": eps, "widths": list(widths),
                "replicas": replicas, "master_seed": config.master_seed,
                "convention": config.convention}

    def reduce(outputs):
        all_ratios = np.array(outputs)
        strict = int(np.sum(np.all(all_ratios[:, :-1] < all_ratios[:, 1:], axis=1)))
        median_ratios = np.median(all_ratios, axis=0)
        growth_fit = fit_loglog(widths, median_ratios)
        fraction = strict / replicas
        checks = [
            _check("strictly_increasing_fraction", fraction, 1.0, 1.0 - min_fraction, kind="one-sided-lower"),
        ]
        metrics = {"strictly_increasing_fraction": fraction,
                   "ratio_growth_exponent": growth_fit.slope}
        for j, w in enumerate(widths):
            metrics[f"median_ratio_width_{w:g}"] = float(median_ratios[j])
        return settings, metrics, checks

    return partial(_tube_replica, params=params, spec=spec, master_seed=config.master_seed, eps=eps,
                   convention=config.convention, u=u, v=v, seg_dist=seg_dist, widths=widths), replicas, reduce


# -- geodesic / ball-boundary overlap ------------------------------------------------


def _ball_overlap_replica(k: int, params, spec, master_seed, eps, convention, targets, ladder) -> float:
    """Fitted exponent of the geodesic / ball-boundary overlap area against
    the neighborhood width, averaged over targets outside the half-radius
    ball.  The targets are drawn from the field, so each replica owns its
    generator."""
    n, s = spec.n, spec.spacing
    mf = mollify_heat(sample_whole_plane_gff(spec, replica_seed(master_seed, k)), eps)
    prob = MetricProblem(mf, params, convention)
    center = (n // 2, n // 2)
    dall = prob.multi_source_distance([center])
    finite = np.isfinite(dall)
    radius = 0.5 * float(dall[finite].max())
    ball = prob.metric_ball(center, radius)
    outside = np.argwhere(~ball.membership & finite)
    rng = np.random.default_rng(replica_seed(master_seed, k, 55))
    pick = rng.choice(len(outside), size=min(targets, len(outside)), replace=False)
    geodesics = prob.geodesics(center, [outside[t] for t in pick])
    areas = geodesic_tube_areas(s, (n, n), [g.path for g in geodesics], ball.boundary, ladder)
    return fit_loglog(ladder, areas / len(pick)).slope


def _plan_geodesic_ball_overlap(params: LqgParams, config: RunConfig, replicas: int) -> Plan:
    """Area near both a geodesic and the metric-ball boundary must vanish
    super-linearly in the neighborhood width."""
    n, side = 256, 2.05
    targets = 20
    spec = GridSpec.centered(n, side / (n - 1))
    eps = 2 * spec.spacing
    ladder = [2 ** -2, 2 ** -3, 2 ** -4, 2 ** -5]
    settings = {"n": n, "side": side, "eps": eps, "replicas": replicas, "targets": targets,
                "ladder": ladder, "master_seed": config.master_seed,
                "convention": config.convention}

    def reduce(outputs):
        exponents = np.array(outputs)
        med = float(np.median(exponents))
        checks = [
            _check("median_area_exponent", med, 1.0, None, kind="strict-lower"),
        ]
        metrics = {"median_area_exponent": med, "min_area_exponent": float(exponents.min()),
                   "max_area_exponent": float(exponents.max())}
        return settings, metrics, checks

    return partial(_ball_overlap_replica, params=params, spec=spec, master_seed=config.master_seed,
                   eps=eps, convention=config.convention, targets=targets, ladder=ladder), replicas, reduce


# -- diameter tail ----------------------------------------------------------------


def _diameter_replica(k: int, params, spec, master_seed, convention) -> float:
    xx, yy = spec.mesh()
    square = (np.abs(xx) <= 0.5) & (np.abs(yy) <= 0.5)
    mf = mollify_heat(sample_whole_plane_gff(spec, replica_seed(master_seed, k)), 2 * spec.spacing)
    prob = MetricProblem(mf, params, convention, mask=square)
    d0 = prob.multi_source_distance([np.argwhere(square)[0]])
    d0w = np.where(np.isfinite(d0) & square, d0, -1.0)
    far = np.unravel_index(int(np.argmax(d0w)), d0w.shape)
    d1 = prob.multi_source_distance([far])
    return float(d1[np.isfinite(d1) & square].max())


def _plan_diameter_tail(params: LqgParams, config: RunConfig, replicas: int) -> Plan:
    """Upper tail index of the internal diameter of the unit square.

    The diameter is approximated by a two-sweep pass (farthest point from an
    anchor, then farthest point from that): a bounded-factor surrogate, which
    leaves the tail index unchanged.  The tail estimator itself is validated
    on a synthetic Pareto sample with the same target index.
    """
    n, side = 256, 2.05
    if replicas < 3:
        raise ValueError("diameter-tail needs at least 3 replicas for its Hill estimate")
    spec = GridSpec.centered(n, side / (n - 1))
    target = 4.0 * params.d / params.gamma ** 2
    settings = {"n": n, "side": side, "replicas": replicas, "master_seed": config.master_seed,
                "convention": config.convention}
    replica = partial(_diameter_replica, params=params, spec=spec, master_seed=config.master_seed,
                      convention=config.convention)
    # estimator self-check on a synthetic heavy-tail sample of known index
    rng = np.random.default_rng(replica_seed(config.master_seed, 31337))
    hill_synthetic = hill_estimator(rng.pareto(target, 20_000) + 1.0)

    def reduce(outputs):
        vals = np.array(outputs)
        median = float(np.median(vals))
        hill = hill_estimator(vals / median)
        checks = [
            _check("hill_index", hill, target, 0.4 * target),
            _check("hill_synthetic", hill_synthetic, target, 0.5),
        ]
        metrics = {"hill_index": hill, "hill_synthetic": hill_synthetic,
                   "diameter_median": median}
        return settings, metrics, checks

    return replica, replicas, reduce


# -- suite ------------------------------------------------------------------------


EXPERIMENTS: Dict[str, Protocol] = {p.name: p for p in (
    Protocol("crossing-exponent", 50, _plan_crossing_exponent),
    Protocol("scale-ratio", 50, _plan_scale_ratio),
    Protocol("weyl-check", 20, _plan_weyl_check),
    Protocol("locality-check", 20, _plan_locality_check),
    Protocol("scaling-relation", 20, _plan_scaling_relation),
    Protocol("circle-average-bm", 200, _plan_circle_average_bm),
    Protocol("dufresne-check", 10_000, _plan_dufresne_check),
    Protocol("holder-scan", 10, _plan_holder_scan),
    Protocol("tube-distance", 50, _plan_tube_distance),
    Protocol("geodesic-ball-overlap", 20, _plan_geodesic_ball_overlap),
    Protocol("diameter-tail", 500, _plan_diameter_tail),
)}


def run_suite(params: LqgParams, config: RunConfig,
              names: Optional[Sequence[str]] = None) -> List[ExperimentReport]:
    chosen = list(EXPERIMENTS) if names is None else list(names)
    for i, name in enumerate(chosen):  # every name, before the first protocol runs
        if name not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ValueError(f"unknown experiment {name!r}; known: {known}")
        if name in chosen[:i]:
            raise ValueError(f"experiment {name!r} is named twice")
    return [EXPERIMENTS[name](params, config) for name in chosen]

