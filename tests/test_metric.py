import dataclasses
import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from lfpp import metric
from lfpp.config import default_config
from lfpp.field import DETERMINISTIC, GridSpec, LatticeField, sample_whole_plane_gff
from lfpp.metric import (
    EDGE_WEIGHTED,
    OFFSETS,
    VERTEX_SUM,
    MetricBall,
    MetricProblem,
    _dijkstra,
    _read_path,
    _walk_back,
    build_lattice_graph,
    geodesic_tube_areas,
    set_distance,
)
from lfpp.mollify import mollify_heat
from lfpp.params import LqgParams

from oracle_paths import (
    compile_paths,
    cycle_separates,
    enumerate_simple_paths,
    lattice_distance,
    min_path_cost,
)

PARAMS = LqgParams.pure_gravity()
SQRT2 = math.sqrt(2.0)


def octile(spacing, a, b):
    """Chamfer (1, sqrt 2) distance between grid vertices, the exact value
    of the 8-neighbor shortest path under unit weights."""
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    lo, hi = min(dx, dy), max(dx, dy)
    return spacing * ((hi - lo) + SQRT2 * lo)


def zero_problem(n=64, side=1.0, convention=EDGE_WEIGHTED, mask=None):
    spec = GridSpec(n=n, spacing=side / (n - 1))
    mf = LatticeField(spec=spec, values=np.zeros((n, n)), kind=DETERMINISTIC)
    return MetricProblem(mf, PARAMS, convention, mask=mask)


def coo_reference_graph(mask, vertex_weight, spacing, convention):
    """The per-offset COO construction that ``build_lattice_graph`` replaced:
    one nonzero scan of the whole grid per offset, assembled into CSR by
    scipy.  Kept as the reference its CSR arrays must equal exactly."""
    mask = np.asarray(mask, dtype=bool)
    nr, nc = mask.shape
    w = np.asarray(vertex_weight, dtype=np.float64)
    ids = -np.ones((nr, nc), dtype=np.int64)
    act_i, act_j = np.nonzero(mask)
    ids[act_i, act_j] = np.arange(act_i.size)
    rows, cols, data = [], [], []
    for di, dj, ell in OFFSETS:
        i0s, i0e = max(0, -di), nr - max(0, di)
        j0s, j0e = max(0, -dj), nc - max(0, dj)
        src = mask[i0s:i0e, j0s:j0e]
        dst = mask[i0s + di : i0e + di, j0s + dj : j0e + dj]
        ii, jj = np.nonzero(src & dst)
        ii = ii + i0s
        jj = jj + j0s
        rows.append(ids[ii, jj])
        cols.append(ids[ii + di, jj + dj])
        if convention == VERTEX_SUM:
            data.append(w[ii + di, jj + dj])
        else:
            data.append(ell * spacing * np.sqrt(w[ii, jj] * w[ii + di, jj + dj]))
    nv = act_i.size
    coo = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
    return csr_matrix(coo, shape=(nv, nv)), ids


def nx_lattice(prob):
    """The masked 8-neighbor lattice of a problem as a networkx digraph,
    each edge priced from the vertex weights."""
    n, s, w = prob.n, prob.spacing, prob.vertex_weight
    g = nx.DiGraph()
    for u in map(tuple, np.argwhere(prob.mask)):
        g.add_node(u)
        for di, dj, ell in OFFSETS:
            v = (u[0] + di, u[1] + dj)
            if 0 <= v[0] < n and 0 <= v[1] < n and prob.mask[v]:
                cost = w[v] if prob.convention == VERTEX_SUM else ell * s * math.sqrt(w[u] * w[v])
                g.add_edge(u, v, weight=cost)
    return g


def nx_multi_source(g, prob, sources):
    """Distance from the nearest source, each source's own weight charged
    once under vertex-sum: one networkx Dijkstra per source."""
    out = {}
    for src in sources:
        base = prob.vertex_weight[src] if prob.convention == VERTEX_SUM else 0.0
        for v, d in nx.single_source_dijkstra_path_length(g, src).items():
            out[v] = min(out.get(v, math.inf), base + d)
    return out


def fewest_vertex_paths(mask, src, dst):
    """Every src -> dst path of the masked 8-neighbor lattice with the fewest
    vertices, from breadth-first hop counts and full enumeration."""
    n = mask.shape[0]

    def neighbors(v):
        return [(v[0] + di, v[1] + dj) for di, dj, _ in OFFSETS
                if 0 <= v[0] + di < n and 0 <= v[1] + dj < n and mask[v[0] + di, v[1] + dj]]

    hop, frontier = {src: 0}, [src]
    while frontier:
        later = []
        for v in frontier:
            for u in neighbors(v):
                if u not in hop:
                    hop[u] = hop[v] + 1
                    later.append(u)
        frontier = later

    def ending_at(v):
        if v == src:
            return [[v]]
        return [p + [v] for u in neighbors(v) if hop.get(u) == hop[v] - 1 for p in ending_at(u)]

    return ending_at(dst)


def random_problem(n, seed, convention, spacing=0.1):
    spec = GridSpec(n=n, spacing=spacing)
    rng = np.random.default_rng(seed)
    vals = rng.normal(0.0, 1.0, (n, n))
    mf = LatticeField(spec=spec, values=vals, kind=DETERMINISTIC)
    return MetricProblem(mf, PARAMS, convention)


class TestEnumerationEquivalence:
    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_small_grids_exact(self, convention):
        rng = np.random.default_rng(2)
        for shape in ((2, 2), (3, 3), (3, 4)):
            src = (0, 0)
            dst = (shape[0] - 1, shape[1] - 1)
            trie = compile_paths(shape, enumerate_simple_paths(shape, src, dst))
            for _ in range(30):
                w = np.exp(rng.normal(0.0, 1.0, shape))
                got = lattice_distance(w, 0.37, convention, src, dst)
                want = min_path_cost(w, 0.37, convention, src, trie)
                assert got == want


class TestChamferOracle:
    def test_zero_field_distances_are_octile(self):
        prob = zero_problem(n=32)
        d = prob.multi_source_distance([(5, 7)])
        s = prob.spacing
        for i in range(0, 32, 5):
            for j in range(0, 32, 7):
                assert d[i, j] == pytest.approx(octile(s, (5, 7), (i, j)), rel=1e-12, abs=1e-15)

    def test_unit_square_corner_to_corner(self):
        prob = zero_problem(n=64, side=1.0)
        res = prob.distance((0, 0), (63, 63))
        assert res.distance == pytest.approx(SQRT2, rel=1e-12)

    def test_vertex_sum_counts_path_vertices(self):
        prob = zero_problem(n=16, convention=VERTEX_SUM)
        res = prob.distance((0, 0), (0, 9))
        assert res.distance == 10.0  # both endpoints pay their weight
        assert prob.distance((3, 3), (3, 3)).distance == 1.0

    def test_metric_ball_equals_chamfer_ball(self):
        prob = zero_problem(n=64, side=1.0)
        s = prob.spacing
        center = (31, 31)
        radius = 0.2503  # strictly between attained chamfer values
        ball = prob.metric_ball(center, radius)
        expect = np.zeros((64, 64), dtype=bool)
        for i in range(64):
            for j in range(64):
                expect[i, j] = octile(s, center, (i, j)) <= radius
        np.testing.assert_array_equal(ball.membership, expect)
        assert ball.boundary.any()
        assert np.all(ball.membership[ball.boundary])

    def test_metric_ball_holds_membership_only(self):
        assert [f.name for f in dataclasses.fields(MetricBall)] == ["membership"]

    @pytest.mark.parametrize("radius", [-1.0, math.nan])
    def test_metric_ball_bad_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            zero_problem(n=16).metric_ball((3, 3), radius)

    def test_metric_ball_holds_each_vertex_at_its_distance(self):
        # vertex-sum charges the center: a sweep limit of the radius less that
        # charge rounded 20 of these 256 vertices out of their own ball
        prob = random_problem(16, 0, VERTEX_SUM)
        for v in np.ndindex(16, 16):
            assert prob.metric_ball((3, 4), prob.distance_value((3, 4), v)).membership[v]

    def test_metric_ball_infinite_radius_holds_everything(self):
        ball = zero_problem(n=16).metric_ball((3, 3), math.inf)
        assert ball.membership.all()


class TestQueries:
    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_geodesic_is_valid_and_reprices(self, convention):
        prob = random_problem(32, 3, convention)
        res = prob.distance((1, 2), (20, 17))
        assert res.path
        assert res.path[0] == (1, 2) and res.path[-1] == (20, 17)
        for u, v in zip(res.path[:-1], res.path[1:]):
            assert max(abs(u[0] - v[0]), abs(u[1] - v[1])) == 1
        assert prob.path_cost(res.path) == res.distance
        assert res.costs[-1] == res.distance
        prefixes = [prob.path_cost(res.path[: k + 1]) for k in range(len(res.path))]
        assert res.costs == prefixes

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_geodesics_equal_single_queries(self, convention):
        mask = np.ones((32, 32), dtype=bool)
        mask[8:10, :] = False  # (20, 5) cannot reach the rows above the wall
        prob = MetricProblem(random_problem(32, 9, convention).field, PARAMS, convention, mask=mask)
        targets = [(31, 0), (20, 17), (20, 5), (3, 3)]
        d = prob.multi_source_distance([(20, 5)])
        for got, w in zip(prob.geodesics((20, 5), targets), targets):
            assert got == prob.distance((20, 5), w)
            # bit for bit, the unreachable and zero-length queries included
            assert prob.distance_value((20, 5), w) == got.distance == d[w]
        assert prob.geodesics((20, 5), [(3, 3)])[0].path == []
        assert prob.distance_value((20, 5), (3, 3)) == math.inf
        with pytest.raises(ValueError, match="outside the mask"):
            prob.geodesics((20, 5), [(31, 0), (8, 0)])
        with pytest.raises(ValueError, match="outside the mask"):
            prob.distance_value((20, 5), (8, 0))

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_symmetry(self, convention):
        prob = random_problem(32, 4, convention)
        a = prob.distance((0, 0), (19, 11)).distance
        b = prob.distance((19, 11), (0, 0)).distance
        assert a == pytest.approx(b, rel=1e-12)

    def test_triangle_inequality(self):
        prob = random_problem(32, 5, EDGE_WEIGHTED)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x, y, z = [tuple(int(v) for v in rng.integers(0, 32, 2)) for _ in range(3)]
            dxy = prob.distance(x, y).distance
            dyz = prob.distance(y, z).distance
            dxz = prob.distance(x, z).distance
            assert dxz <= dxy + dyz + 1e-12

    def test_multi_source_is_min_over_sources(self):
        prob = random_problem(16, 7, EDGE_WEIGHTED)
        sources = [(0, 0), (15, 15), (3, 12)]
        d = prob.multi_source_distance(sources)
        for tgt in ((8, 8), (1, 14), (15, 0)):
            want = min(prob.distance(s, tgt).distance for s in sources)
            assert d[tgt] == pytest.approx(want, rel=1e-12)

    def test_multi_source_vertex_sum_charges_source_once(self):
        prob = random_problem(16, 8, VERTEX_SUM)
        d = prob.multi_source_distance([(2, 2)])
        assert d[2, 2] == pytest.approx(prob.vertex_weight[2, 2], rel=1e-12)
        # a repeated source is still charged once
        np.testing.assert_array_equal(prob.multi_source_distance([(2, 2), (2, 2)]), d)

    def test_masked_vertex_rejected(self):
        mask = np.ones((64, 64), dtype=bool)
        mask[10, 10] = False
        prob = zero_problem(n=64, mask=mask)
        with pytest.raises(ValueError):
            prob.distance((10, 10), (0, 0))
        with pytest.raises(ValueError, match=r"vertex \(10, 10\) is outside the mask"):
            prob.multi_source_distance([(0, 0), (10, 10)])

    def test_path_cost_rejects_vertex_outside_grid(self):
        prob = random_problem(8, 1, EDGE_WEIGHTED)
        with pytest.raises(ValueError, match=r"vertex \(-1, 0\) is outside the grid"):
            prob.path_cost([(0, 0), (-1, 0)])
        # queries share the check, so an index past the edge no longer wraps
        with pytest.raises(ValueError, match=r"vertex \(0, -1\) is outside the grid"):
            prob.distance((0, 0), (0, -1))

    def test_multi_source_checks_its_sources(self):
        prob = random_problem(8, 1, EDGE_WEIGHTED)
        # a negative index must not wrap to a sweep from (7, 0), and an index
        # past the edge or a float must fail before any graph is built
        for v in ((-1, 0), (8, 0)):
            with pytest.raises(ValueError, match=rf"vertex \({v[0]}, 0\) is outside the grid"):
                prob.multi_source_distance([(0, 0), v])
        with pytest.raises(TypeError):
            prob.multi_source_distance([(1.5, 0)])
        with pytest.raises(TypeError):
            prob.distance((0, 0), (1.5, 0))

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_numpy_vertices_equal_tuples(self, convention):
        prob = random_problem(8, 2, convention)
        z, w = np.array([1, 2]), (np.int64(5), np.int64(6))
        res = prob.distance((1, 2), (5, 6))
        assert prob.distance(z, w) == res
        assert prob.geodesics(z, [w]) == [res]
        assert prob.distance_value(z, w) == res.distance
        assert prob.path_cost(np.array(res.path)) == prob.path_cost(res.path)
        np.testing.assert_array_equal(prob.multi_source_distance(np.array([z])),
                                      prob.multi_source_distance([(1, 2)]))
        np.testing.assert_array_equal(prob.metric_ball(z, res.distance).membership,
                                      prob.metric_ball((1, 2), res.distance).membership)

    def test_path_cost_rejects_vertex_outside_mask(self):
        mask = np.ones((8, 8), dtype=bool)
        mask[1, 1] = False
        prob = MetricProblem(random_problem(8, 1, VERTEX_SUM).field, PARAMS, VERTEX_SUM, mask=mask)
        with pytest.raises(ValueError, match=r"vertex \(1, 1\) is outside the mask"):
            prob.path_cost([(0, 0), (1, 1), (2, 2)])

    @pytest.mark.parametrize("src, dst", [((0, 0), (6, 7)), ((7, 6), (0, 1)), ((5, 0), (1, 7))])
    def test_ties_break_to_lexicographically_smallest_predecessor(self, src, dst):
        # on a zero field a vertex-sum path costs its vertex count exactly, so
        # every fewest-vertex path ties; the hole moves later ids off i*n + j
        mask = np.ones((8, 8), dtype=bool)
        mask[2, 2:4] = False
        mask[4, 4] = False
        prob = zero_problem(n=8, convention=VERTEX_SUM, mask=mask)
        assert prob.ids[7, 7] != 7 * 8 + 7
        paths = fewest_vertex_paths(mask, src, dst)
        assert len(paths) > 1
        res = prob.distance(src, dst)
        assert res.path == min(paths, key=lambda p: p[::-1])
        assert res.distance == len(res.path)

    def test_disconnected_mask_unreachable(self):
        mask = np.ones((16, 16), dtype=bool)
        mask[8, :] = False  # horizontal wall splits the grid
        # wall must block diagonals too: make it two rows thick
        mask[7, :] = False
        prob = zero_problem(n=16, mask=mask)
        res = prob.distance((0, 0), (15, 15))
        assert res.path == [] and res.distance == math.inf

    def test_internal_distance_detour(self):
        # a one-vertex-wide corridor forces the geodesic along a known path
        n = 16
        mask = np.zeros((n, n), dtype=bool)
        mask[0, :] = True       # along +y
        mask[:, n - 1] = True   # then along +x
        prob = zero_problem(n=n, side=1.5, mask=mask)
        res = prob.distance((0, 0), (n - 1, n - 1))
        s = prob.spacing
        # straight runs on both legs with a single diagonal at the corner
        want = 2 * (n - 2) * s + SQRT2 * s
        assert res.distance == pytest.approx(want, rel=1e-12)

    def test_internal_vs_ambient(self):
        prob = random_problem(32, 9, EDGE_WEIGHTED)
        sub = np.zeros((32, 32), dtype=bool)
        sub[:8, :] = True
        amb = prob.distance((0, 0), (7, 23)).distance
        internal = MetricProblem(prob.field, PARAMS, EDGE_WEIGHTED, mask=sub).distance((0, 0), (7, 23)).distance
        assert internal >= amb - 1e-15


@st.composite
def masked_grids(draw, sizes=(8, 16, 32)):
    """A random field on a grid with holes, under either convention, and
    three mask vertices drawn with replacement."""
    n = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) >= draw(st.floats(0.0, 0.4))
    assume(mask.any())
    mf = LatticeField(spec=GridSpec(n=n, spacing=0.1), values=rng.normal(0.0, 1.0, (n, n)),
                      kind=DETERMINISTIC)
    convention = draw(st.sampled_from([VERTEX_SUM, EDGE_WEIGHTED]))
    vertices = np.argwhere(mask)[rng.integers(0, np.count_nonzero(mask), 3)]
    return MetricProblem(mf, PARAMS, convention, mask=mask), [tuple(map(int, v)) for v in vertices]


def moved(prob, values, mask):
    """The problem's metric on a mapped field and mask, spacing kept."""
    spec = GridSpec(n=values.shape[0], spacing=prob.spacing)
    return MetricProblem(LatticeField(spec=spec, values=values, kind=DETERMINISTIC), PARAMS,
                         prob.convention, mask=mask)


class TestMetricAxioms:
    """The weak-LQG axioms and the lattice's symmetries on random masked
    grids.  Symmetries compare distances only, never paths: ties between
    paths follow vertex ids, which a symmetry reorders."""

    @given(case=masked_grids())
    @settings(max_examples=40, deadline=None)
    def test_distances_equal_under_square_symmetries(self, case):
        prob, (x, _, _) = case
        d = prob.multi_source_distance([x])
        source = np.zeros(prob.mask.shape, dtype=bool)
        source[x] = True
        for k in range(4):
            for flip in (False, True):
                def sym(a):
                    return np.rot90(a.T if flip else a, k)
                image = moved(prob, sym(prob.field.values), sym(prob.mask))
                np.testing.assert_array_equal(image.multi_source_distance(np.argwhere(sym(source))),
                                              sym(d))

    @given(case=masked_grids(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_distances_equal_under_embedding(self, case, data):
        prob, (x, _, _) = case
        n = prob.n
        di, dj = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
        values, mask = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n), dtype=bool)
        values[di : di + n, dj : dj + n] = prob.field.values
        mask[di : di + n, dj : dj + n] = prob.mask
        got = moved(prob, values, mask).multi_source_distance([(x[0] + di, x[1] + dj)])
        np.testing.assert_array_equal(got[di : di + n, dj : dj + n], prob.multi_source_distance([x]))

    @given(case=masked_grids())
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, case):
        # a path x -> y -> z exists at the cost d(x, y) + d(y, z), less the
        # weight of y under vertex-sum, which both legs pay; 1e-12 relative
        # covers the roundoff of adding the legs' totals
        prob, (x, y, _) = case
        dx, dy = prob.multi_source_distance([x]), prob.multi_source_distance([y])
        overlap = prob.vertex_weight[y] if prob.convention == VERTEX_SUM else 0.0
        assert np.all(dx <= (dx[y] + dy - overlap) * (1 + 1e-12))

    @given(case=masked_grids())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_to_roundoff(self, case):
        prob, (x, y, _) = case
        assert prob.distance_value(x, y) == pytest.approx(prob.distance_value(y, x), rel=1e-12)

    @given(case=masked_grids(), c=st.floats(-3.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_constant_shift_rescales_distances(self, case, c):
        prob, (x, _, _) = case
        shifted = moved(prob, prob.field.values + c, prob.mask)
        d, ds = prob.multi_source_distance([x]), shifted.multi_source_distance([x])
        reached = np.isfinite(d)
        np.testing.assert_array_equal(np.isfinite(ds), reached)
        factor = math.exp(PARAMS.xi * c)
        np.testing.assert_allclose(ds[reached], factor * d[reached], rtol=1e-12, atol=0.0)

    @given(case=masked_grids(sizes=(8, 16)), scale=st.sampled_from([None, 0.0, 0.5, 1.0, math.inf]))
    @settings(max_examples=50, deadline=None)
    def test_metric_ball_thresholds_distance_values(self, case, scale):
        # a radius that is some vertex's distance (None) puts that vertex on
        # the ball's edge; the others are fractions of the farthest distance,
        # or inf, whose ball is every reachable vertex and no other
        prob, (c, v, _) = case
        values = np.full((prob.n, prob.n), np.inf)
        for w in np.argwhere(prob.mask):
            values[tuple(w)] = prob.distance_value(c, tuple(w))
        if scale is None:
            s = values[v]
        elif scale == math.inf:
            s = scale
        else:
            s = scale * values[np.isfinite(values)].max()
        np.testing.assert_array_equal(prob.metric_ball(c, s).membership, np.isfinite(values) & (values <= s))

    @given(case=masked_grids(), scale=st.sampled_from([None, 0.0, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_grid_point_and_ball_queries_agree(self, case, scale):
        # one distance from a vertex, whichever query reads it: bit for bit,
        # under vertex-sum too, where the source's charge is a separate term
        prob, (x, y, z) = case
        d = {v: prob.multi_source_distance([v]) for v in (x, y, z)}
        for w in (x, y, z):
            assert d[x][w] == prob.distance_value(x, w)
            assert d[y][w] == prob.distance_value(y, w)
        finite = d[x][np.isfinite(d[x])]
        s = d[x][y] if scale is None else scale * finite.max()
        # s is inf when y lies in another component: the ball still holds
        # only finite distances
        np.testing.assert_array_equal(prob.metric_ball(x, s).membership, np.isfinite(d[x]) & (d[x] <= s))
        np.testing.assert_array_equal(prob.multi_source_distance([x, y, z]),
                                      np.minimum.reduce(list(d.values())))

    @given(case=masked_grids(), seed=st.integers(0, 2**32 - 1), holes=st.floats(0.0, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_shrinking_the_mask_never_shortens(self, case, seed, holes):
        prob, (x, y, _) = case
        submask = prob.mask & (np.random.default_rng(seed).random(prob.mask.shape) >= holes)
        submask[x] = submask[y] = True
        inner = MetricProblem(prob.field, PARAMS, prob.convention, mask=submask)
        assert np.all(inner.multi_source_distance([x]) >= prob.multi_source_distance([x]))
        assert inner.distance_value(x, y) >= prob.distance_value(x, y)

    @given(case=masked_grids(), scale=st.sampled_from([0.0, 0.3, 0.7, math.inf]))
    @settings(max_examples=50, deadline=None)
    def test_metric_ball_boundary_is_members_beside_a_non_member(self, case, scale):
        prob, (c, _, _) = case
        d = prob.multi_source_distance([c])
        ball = prob.metric_ball(c, scale * d[np.isfinite(d)].max() if scale < math.inf else scale)
        member, n = ball.membership, prob.n
        expect = np.zeros((n, n), dtype=bool)
        for i, j in np.argwhere(member):
            for di, dj, _ in OFFSETS:
                a, b = i + di, j + dj
                if not (0 <= a < n and 0 <= b < n and member[a, b]):
                    expect[i, j] = True
        assert ball.boundary.dtype == bool
        np.testing.assert_array_equal(ball.boundary, expect)

    @given(case=masked_grids())
    @settings(max_examples=40, deadline=None)
    def test_geodesics_recost_to_their_costs(self, case):
        prob, (x, y, z) = case
        for res in prob.geodesics(x, [y, z]):
            if res.path:
                assert prob.path_cost(res.path) == res.distance
                assert res.costs == [prob.path_cost(res.path[: k + 1]) for k in range(len(res.path))]


class TestCrossing:
    def test_constant_zero_edge_weighted(self):
        # square aligned with the lattice: crossing = its physical width
        prob = zero_problem(n=64, side=1.0)
        val = prob.crossing_distance((0.0, 0.0, 1.0))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_constant_zero_vertex_sum_counts_columns(self):
        prob = zero_problem(n=64, side=1.0, convention=VERTEX_SUM)
        val = prob.crossing_distance((0.0, 0.0, 1.0))
        assert val == 64.0

    def test_sub_square(self):
        prob = zero_problem(n=64, side=1.0)
        val = prob.crossing_distance((0.25, 0.25, 0.5))
        # columns snap to the lattice, so allow one spacing of slack
        assert val == pytest.approx(0.5, abs=2 * prob.spacing)

    def test_degenerate_square_rejected(self):
        prob = zero_problem()
        with pytest.raises(ValueError):
            prob.crossing_distance((0.0, 0.0, 0.0))

    @pytest.mark.parametrize("square", [(0.0, 0.0, math.nan), (0.0, 0.0, math.inf),
                                        (math.nan, 0.0, 0.5), (0.0, -math.inf, 0.5)])
    def test_non_finite_square_rejected(self, square):
        with pytest.raises(ValueError, match="degenerate square"):
            zero_problem().crossing_distance(square)

    def test_unreachable_crossing_rejected(self):
        # a wall two columns thick, so no diagonal step crosses it either
        mask = np.ones((16, 16), dtype=bool)
        mask[7:9, :] = False
        prob = zero_problem(n=16, mask=mask)
        with pytest.raises(ValueError, match=r"square \(0\.0, 0\.0, 1\.0\)"):
            prob.crossing_distance((0.0, 0.0, 1.0))

    @pytest.mark.parametrize("square", [(1.5, 0.0, 0.4), (0.2, -0.9, 0.5), (-3.0, -3.0, 1.0)])
    def test_square_off_the_grid_rejected(self, square):
        prob = zero_problem(n=16)
        with pytest.raises(ValueError, match="misses the mask"):
            prob.crossing_distance(square)


def square_vertices(prob, square):
    """The mask vertices within a square, by the rule crossing_distance
    documents, evaluated on the whole grid."""
    x0, y0, side = square
    tol = 1e-9 * prob.spacing
    xs = prob.field.spec.origin[0] + prob.spacing * np.arange(prob.n)
    ys = prob.field.spec.origin[1] + prob.spacing * np.arange(prob.n)
    in_x = (xs >= x0 - tol) & (xs <= x0 + side + tol)
    in_y = (ys >= y0 - tol) & (ys <= y0 + side + tol)
    return in_x[:, None] & in_y[None, :] & prob.mask


def crossing_or_inf(prob, square):
    try:
        return prob.crossing_distance(square)
    except ValueError as exc:
        assert "no left-to-right crossing" in str(exc)
        return math.inf


@st.composite
def masked_squares(draw):
    """A random field on a grid with holes, and a square that may stick out
    past any grid edge.  Its corner and far side fall on a lattice line,
    between two, or within roundoff of one, where the tolerance decides."""
    n = draw(st.sampled_from([8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacing = 0.1
    spec = GridSpec(n=n, spacing=spacing, origin=(-0.3, 0.2))
    mask = rng.random((n, n)) >= draw(st.floats(0.0, 0.4))
    mf = LatticeField(spec=spec, values=rng.normal(0.0, 1.0, (n, n)), kind=DETERMINISTIC)
    convention = draw(st.sampled_from([VERTEX_SUM, EDGE_WEIGHTED]))
    jitter = st.sampled_from([0.0, 0.4, 1e-12, -1e-12])
    corner = [o + spacing * (draw(st.integers(-n // 2, n)) + draw(jitter)) for o in spec.origin]
    side = spacing * (draw(st.integers(1, 3 * n // 2)) + draw(jitter))
    return MetricProblem(mf, PARAMS, convention, mask=mask), (corner[0], corner[1], side)


class TestCrossingProperties:
    @given(case=masked_squares())
    @settings(max_examples=80, deadline=None)
    def test_equals_restricted_multi_source(self, case):
        # the window-first sweep against the whole-grid one: the whole grid's
        # square vertices, with a zero-weight all-mask row inserted just
        # above the left side, swept from that row and read on the right
        prob, square = case
        sub = square_vertices(prob, square)
        if not sub.any():
            with pytest.raises(ValueError, match="misses the mask"):
                prob.crossing_distance(square)
            return
        cols = np.nonzero(sub.any(axis=1))[0]
        mask = np.insert(sub, cols[0], True, axis=0)
        weight = np.insert(prob.vertex_weight, cols[0], 0.0, axis=0)
        graph, ids = build_lattice_graph(mask, weight, prob.spacing, prob.convention)
        d = _dijkstra(graph, int(ids[cols[0], 0]))
        want = float(d[ids[cols[-1] + 1][sub[cols[-1]]]].min())
        assert crossing_or_inf(prob, square) == want

    @given(case=masked_squares(), seed=st.integers(0, 2**32 - 1), holes=st.floats(0.0, 0.5))
    @settings(max_examples=80, deadline=None)
    def test_submask_never_shortens_crossing(self, case, seed, holes):
        # locality's monotonicity: fewer vertices, no shorter crossing.  The
        # square's two sides are kept whole, so sources and targets stay put.
        prob, square = case
        sub = square_vertices(prob, square)
        assume(sub.any())
        cols = np.nonzero(sub.any(axis=1))[0]
        submask = prob.mask & (np.random.default_rng(seed).random(prob.mask.shape) >= holes)
        submask[cols[[0, -1]]] = prob.mask[cols[[0, -1]]]
        inner = MetricProblem(prob.field, PARAMS, prob.convention, mask=submask)
        assert crossing_or_inf(inner, square) >= crossing_or_inf(prob, square)


class TestNetworkxOracle:
    """Sweeps against networkx on random masked grids whose mask's bounding
    box sits off-centre, so the builder's crop and the crossing's
    zero-weight entry row are both exercised."""

    @staticmethod
    def _cases(convention):
        rng = np.random.default_rng(41)
        for _ in range(4):
            n = int(rng.choice([16, 32]))  # GridSpec takes powers of two
            i0, j0 = (int(v) for v in rng.integers(1, n // 3, 2))
            i1, j1 = (int(v) for v in rng.integers(n // 2 + 3, n, 2))
            mask = np.zeros((n, n), dtype=bool)
            mask[i0:i1, j0:j1] = rng.random((i1 - i0, j1 - j0)) < 0.85
            spec = GridSpec(n=n, spacing=0.1)
            mf = LatticeField(spec=spec, values=rng.normal(0.0, 1.0, (n, n)), kind=DETERMINISTIC)
            yield rng, MetricProblem(mf, PARAMS, convention, mask=mask)

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_multi_source_distance(self, convention):
        for rng, prob in self._cases(convention):
            active = np.argwhere(prob.mask)
            sources = [tuple(int(x) for x in active[k]) for k in rng.choice(len(active), 3, replace=False)]
            d = prob.multi_source_distance(sources)
            want = nx_multi_source(nx_lattice(prob), prob, sources)
            assert not np.isfinite(d[~prob.mask]).any()
            for v in map(tuple, active):
                if v in want:
                    assert d[v] == pytest.approx(want[v], rel=1e-12)
                else:
                    assert d[v] == math.inf

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_crossing_distance(self, convention):
        for rng, prob in self._cases(convention):
            n = prob.n
            x0, y0 = rng.uniform(0.0, 0.4 * n * prob.spacing, 2)
            side = rng.uniform(0.4, 0.55) * n * prob.spacing
            xs = prob.spacing * np.arange(n)
            in_x = (xs >= x0) & (xs <= x0 + side)
            in_y = (xs >= y0) & (xs <= y0 + side)
            sub = in_x[:, None] & in_y[None, :] & prob.mask
            if not sub.any():
                continue
            cols = np.nonzero(sub.any(axis=1))[0]
            left = [(int(cols[0]), int(j)) for j in np.nonzero(sub[cols[0]])[0]]
            right = [(int(cols[-1]), int(j)) for j in np.nonzero(sub[cols[-1]])[0]]
            inner = nx_lattice(prob).subgraph(map(tuple, np.argwhere(sub)))
            dist = nx_multi_source(inner, prob, left)
            want = min(dist.get(v, math.inf) for v in right)
            if math.isfinite(want):
                assert prob.crossing_distance((x0, y0, side)) == pytest.approx(want, rel=1e-12)
            else:
                with pytest.raises(ValueError):
                    prob.crossing_distance((x0, y0, side))


class TestAnnulusCycle:
    def _setup(self, convention):
        n = 128
        spec = GridSpec(n=n, spacing=2.0 / (n - 1), origin=(-1.0, -1.0))
        mf = LatticeField(spec=spec, values=np.zeros((n, n)), kind=DETERMINISTIC)
        return MetricProblem(mf, PARAMS, convention)

    def test_constant_field_cycle_cost_and_separation(self):
        prob = self._setup(EDGE_WEIGHTED)
        res = prob.distance_around_annulus((0.0, 0.0), 0.3, 0.7)
        assert res.path
        assert res.path[0] == res.path[-1]  # closed cycle
        # separating curve must be at least the inner circumference and at
        # most a snug lattice octagon around it
        assert 2 * math.pi * 0.3 * 0.99 <= res.distance <= 7.0 * 0.3
        n = prob.n
        assert cycle_separates(prob.mask, res.path, [(n // 2, n // 2)], [(0, 0), (n - 1, n - 1)])

    def test_vertex_sum_counts_cycle_vertices(self):
        prob = self._setup(VERTEX_SUM)
        res = prob.distance_around_annulus((0.0, 0.0), 0.3, 0.7)
        assert res.distance == float(len(res.path) - 1)  # each distinct vertex once

    @staticmethod
    def _oracle_cases(convention):
        """(problem, centre, r1, r2) on random 32^2 fields; the last centre
        sits between two column-jc vertices, both inside the annulus, so the
        cut vertex next to z has a neighbour on the ray's column that is not
        cut."""
        n, s = 32, 0.1
        partial = np.zeros((n, n), dtype=bool)
        partial[4:28, 2:30] = True
        cases = [
            (11, None, (1.53, 1.58), 0.35, 1.2),
            (12, None, (1.21, 1.74), 0.25, 0.95),
            (13, partial, (1.47, 1.62), 0.3, 0.85),
            (14, None, (1.55, 1.51), 0.03, 0.9),
        ]
        for seed, mask, z, r1, r2 in cases:
            prob = random_problem(n, seed, convention, spacing=s)
            if mask is not None:
                prob = MetricProblem(prob.field, PARAMS, convention, mask=mask)
            yield prob, z, r1, r2

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_networkx_oracle(self, convention):
        for prob, z, r1, r2 in self._oracle_cases(convention):
            s = prob.spacing
            res = prob.distance_around_annulus(z, r1, r2)
            want, fires_column_rule = _nx_annulus_cycle(prob, z, r1, r2)
            assert res.path
            assert res.distance == pytest.approx(want, rel=1e-12)
            assert res.costs[-1] == res.distance
            assert fires_column_rule == (r1 < s)
            assert abs(winding_number(prob.field.spec, res.path, z)) == pytest.approx(1.0)
            if r1 < s:
                # no vertex lies inside the hole, so there is nothing to separate
                continue
            xx, yy = prob.field.spec.mesh()
            rad = np.hypot(xx - z[0], yy - z[1])
            inner = [tuple(v) for v in np.argwhere((rad < r1) & prob.mask)]
            outer = [tuple(v) for v in np.argwhere((rad > r2) & prob.mask)]
            assert inner and outer
            assert cycle_separates(prob.mask, res.path, inner, outer)

    def test_edge_weighted_cycle_recosts_exactly(self, monkeypatch):
        walked = []

        def recording_walk(graph, *args):
            walked.append(graph)
            return _walk_back(graph, *args)

        monkeypatch.setattr(metric, "_walk_back", recording_walk)
        for prob, z, r1, r2 in self._oracle_cases(EDGE_WEIGHTED):
            res = prob.distance_around_annulus(z, r1, r2)
            assert prob.path_cost(res.path) == res.distance
            assert res.costs == [prob.path_cost(res.path[: k + 1]) for k in range(len(res.path))]
            # the walk reads cost(u -> v) off row v: both graphs must equal
            # their transpose bit for bit
            assert (prob.graph != prob.graph.T).nnz == 0
            assert (walked[-1] != walked[-1].T).nnz == 0
        assert len(walked) == 4

    # a 0/1 field, one hex row per grid row, and an annulus with two cut
    # vertices whose cycles cost the same under vertex-sum; the outer one
    # has the lower bound, so it is swept first and the inner one must win
    # the tie, as it does in cut order
    TIE_ROWS = (0x7D1E, 0xE92E, 0x7BE1, 0x89CB, 0xCD9A, 0xBBA1, 0x6583, 0x1014,
                0x246B, 0x8FB5, 0x93A3, 0xF0BB, 0x9A8F, 0xDB30, 0x91E7, 0xC447)
    TIE_ANNULUS = ((1.0502, 0.7036), 0.2581, 0.6105)

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_pruned_search_matches_exhaustive_loop(self, convention, monkeypatch):
        # the lower-bound search returns the cycle of one sweep from every
        # cut vertex in cut order, the first cheapest kept: on the zero
        # field, whose cycles tie, on random fields and masks, and on the
        # tie field above
        seen, sweeps = [], []

        def recording_read(problem, graph, *args):
            seen.append((graph, args[-2]))
            return _read_path(problem, graph, *args)

        def counting_dijkstra(graph, source, **kwargs):
            sweeps.append(source)
            return _dijkstra(graph, source, **kwargs)

        monkeypatch.setattr(metric, "_read_path", recording_read)
        monkeypatch.setattr(metric, "_dijkstra", counting_dijkstra)
        rng = np.random.default_rng(21)
        zero = self._setup(convention)
        cases = [(zero, (0.0, 0.0), 0.3, 0.7), (zero, (0.0, 0.0), 0.05, 0.5)]
        for seed in range(6):
            prob = random_problem(32, seed, convention)
            mask = None if seed % 2 == 0 else rng.random((32, 32)) >= 0.15
            prob = MetricProblem(prob.field, PARAMS, convention, mask=mask)
            cases += [(prob, (1.6, 1.6), 0.8, 1.4), (prob, (1.6, 1.6), 0.15, 0.9)]
        bits = np.array([[(row >> (15 - j)) & 1 for j in range(16)] for row in self.TIE_ROWS], dtype=float)
        tie = LatticeField(spec=GridSpec(n=16, spacing=0.1), values=bits, kind=DETERMINISTIC)
        cases.append((MetricProblem(tie, PARAMS, convention), *self.TIE_ANNULUS))
        pruned = 0
        for prob, z, r1, r2 in cases:
            del sweeps[:]
            res = prob.distance_around_annulus(z, r1, r2)
            want, cut = _exhaustive_annulus_cycle(prob, *seen[-1])
            assert (res.path, res.costs) == (want.path, want.costs)
            # the bound's sweep, then at most one per cut vertex
            assert len(sweeps) <= cut + 1
            pruned += len(sweeps) < cut
        assert pruned > 0

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_hole_below_lattice_step_encloses_z(self, convention):
        # z sits between two column-jc vertices, (128, 128) and (129, 128),
        # both inside the annulus: the cycle has to pass beside z, not
        # step a+ -> (128, 128) -> a- and back
        cfg = default_config()
        spec, s = cfg.grid, cfg.grid.spacing
        z = (spec.origin[0] + 128.5 * s, spec.origin[1] + 128.1 * s)
        zero = LatticeField(spec=spec, values=np.zeros((spec.n, spec.n)), kind=DETERMINISTIC)
        prob = MetricProblem(zero, cfg.params, convention)
        res = prob.distance_around_annulus(z, 0.3 * s, 0.2)
        assert res.path[0] == res.path[-1]
        assert len(res.path) == 4
        assert abs(winding_number(spec, res.path, z)) == pytest.approx(1.0)

    def test_thin_annulus_rejected(self):
        prob = self._setup(EDGE_WEIGHTED)
        with pytest.raises(ValueError):
            prob.distance_around_annulus((0.0, 0.0), 0.3, 0.31)

    def test_bad_radii_rejected(self):
        prob = self._setup(EDGE_WEIGHTED)
        with pytest.raises(ValueError):
            prob.distance_around_annulus((0.0, 0.0), 0.7, 0.3)

    @pytest.mark.parametrize("z", [(0.0, 1e308), (1e308, 0.0)])
    def test_center_beyond_float_range_rejected(self, z):
        # an unbounded annulus reaches the grid from any center, but the
        # center's grid index overflows: a clear error, not an OverflowError
        prob = self._setup(EDGE_WEIGHTED)
        with pytest.raises(ValueError, match="too far from the grid"):
            prob.distance_around_annulus(z, 0.2, math.inf)


def _exhaustive_annulus_cycle(prob, graph, grid):
    """The cut graph's cycle by one limited sweep from every cut vertex's
    upper copy, in cut order, keeping the first strictly cheapest, and the
    number of cut vertices.  The lower copies are the ids past the annulus,
    each at its cut vertex's grid point."""
    first = {}
    for i, v in enumerate(zip(grid[0].tolist(), grid[1].tolist())):
        first.setdefault(v, i)
    nv = len(first)
    cut_ids = [first[v] for v in zip(grid[0][nv:].tolist(), grid[1][nv:].tolist())]
    best, best_k, best_d = math.inf, 0, np.full(graph.shape[0], np.inf)
    for k, src in enumerate(cut_ids):
        d = _dijkstra(graph, src, limit=best)
        if d[nv + k] < best:
            best, best_k, best_d = float(d[nv + k]), k, d
    return _read_path(prob, graph, best_d, cut_ids[best_k], nv + best_k, grid, 0.0), len(cut_ids)


def _nx_annulus_cycle(prob, z, r1, r2):
    """Cheapest separating cycle by brute force over the cut vertices, on a
    networkx cut-and-duplicate graph built edge by edge.

    Returns the distance and whether some edge joined a cut vertex to a
    non-cut vertex on the ray's column (the rule that puts it on the side of
    the ray that the column lies on).
    """
    spec, n = prob.field.spec, prob.n
    xx, yy = spec.mesh()
    rad = np.hypot(xx - z[0], yy - z[1])
    ann = (rad >= r1) & (rad <= r2) & prob.mask
    jc = min(max(int(round((z[1] - spec.origin[1]) / spec.spacing)), 0), n - 1)
    column_below = yy[0, jc] < z[1]
    cut = {(i, jc) for i in range(n) if ann[i, jc] and xx[i, jc] > z[0]}
    w = prob.vertex_weight
    g = nx.DiGraph()
    fires = False
    for u in map(tuple, np.argwhere(ann)):
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                v = (u[0] + di, u[1] + dj)
                if v == u or not (0 <= v[0] < n and 0 <= v[1] < n) or not ann[v]:
                    continue
                if prob.convention == VERTEX_SUM:
                    cost = w[v]
                else:
                    ell = SQRT2 if di and dj else 1.0
                    cost = ell * spec.spacing * math.sqrt(w[u] * w[v])
                lower = (("-", u) if u in cut else u, ("-", v) if v in cut else v)
                if u in cut and v in cut:
                    g.add_edge(u, v, weight=cost)
                    g.add_edge(*lower, weight=cost)
                elif u in cut or v in cut:
                    far = v if u in cut else u
                    # on the ray's column the edge passes beside z: it takes
                    # the side the column lies on
                    if far[1] < jc or (far[1] == jc and column_below):
                        g.add_edge(*lower, weight=cost)
                    else:
                        g.add_edge(u, v, weight=cost)
                    fires |= far[1] == jc
                else:
                    g.add_edge(u, v, weight=cost)
    best = math.inf
    for a in cut:
        try:
            best = min(best, nx.dijkstra_path_length(g, a, ("-", a)))
        except nx.NetworkXNoPath:
            pass
    return best, fires


def winding_number(spec, path, z):
    """Turns of a closed lattice path about the point z."""
    x = spec.origin[0] + spec.spacing * np.array([i for i, _ in path]) - z[0]
    y = spec.origin[1] + spec.spacing * np.array([j for _, j in path]) - z[1]
    turn = np.diff(np.arctan2(y, x))
    return float(np.sum((turn + np.pi) % (2 * np.pi) - np.pi) / (2 * np.pi))


class TestCycleSeparates:
    def test_cycle_through_inner_vertex_does_not_separate(self):
        # the two-edge walk a+ -> b -> a- around nothing, b the inner vertex
        mask = np.ones((256, 256), dtype=bool)
        cycle = [(129, 128), (128, 128), (129, 128)]
        assert not cycle_separates(mask, cycle, [(128, 128)], [(0, 0)])

    def test_empty_inner_set_rejected(self):
        mask = np.ones((8, 8), dtype=bool)
        with pytest.raises(ValueError, match="inner"):
            cycle_separates(mask, [(1, 1), (1, 2), (2, 2), (1, 1)], [], [(7, 7)])


class TestGeometryHelpers:
    def test_geodesic_tube_area(self):
        s = 0.1
        geo = [(16, j) for j in range(32)]        # horizontal line
        target = np.zeros((32, 32), dtype=bool)
        target[16, 31] = True
        (area,) = geodesic_tube_areas(s, [geo], target, [0.25])
        # vertices within 0.25 of both the line and the endpoint: a half
        # disk of radius 2.5 lattice steps around (16, 31), 13 vertices
        count = area / s ** 2
        assert count == 13
        with pytest.raises(ValueError):
            geodesic_tube_areas(s, [[]], target, [0.25])


    @pytest.mark.parametrize("seed", range(5))
    def test_set_distance_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        s = 0.3
        member = rng.random((12, 12)) < 0.1
        member[rng.integers(12), rng.integers(12)] = True
        got = set_distance(s, member)
        assert np.all(got[member] == 0.0)
        at = np.argwhere(member)
        for i, j in np.argwhere(~member):
            want = min(s * math.hypot(i - a, j - b) for a, b in at)
            assert got[i, j] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_geodesic_tube_areas_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        s, n = 0.1, 16
        # each width's square over s^2 lies strictly between sums of two
        # squares, so no vertex sits at a width's distance from either set
        widths = [s * 1.2, s * 1.7, s * 2.5, s * 3.1]
        steps = np.array([(di, dj) for di, dj, _ in OFFSETS])
        paths = []
        for _ in range(2):
            walk = rng.integers(n, size=2) + np.cumsum(steps[rng.integers(8, size=6)], axis=0)
            paths.append([tuple(v) for v in np.clip(walk, 0, n - 1).tolist()])
        target = rng.random((n, n)) < 0.05
        target[rng.integers(n), rng.integers(n)] = True

        def near(vertices, i, j, w):
            return any(s * math.hypot(i - a, j - b) <= w for a, b in vertices)

        want = np.zeros(len(widths))
        for k, w in enumerate(widths):
            for i in range(n):
                for j in range(n):
                    want[k] += sum(near(p, i, j, w) for p in paths) * near(np.argwhere(target), i, j, w)
        # counts are integers, so 1e-12 relative only forgives the products' roundoff
        np.testing.assert_allclose(geodesic_tube_areas(s, paths, target, widths), want * s**2, rtol=1e-12)


class TestGraphConstruction:
    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_matches_coo_reference(self, convention):
        rng = np.random.default_rng(17)
        masks = [np.ones((1, 9), dtype=bool), np.ones((9, 1), dtype=bool),
                 np.zeros((6, 5), dtype=bool), np.zeros((7, 7), dtype=bool)]
        masks[3][2, 5] = True  # a single vertex
        for _ in range(30):
            nr, nc = (int(v) for v in rng.integers(1, 25, 2))
            masks.append(rng.random((nr, nc)) < rng.uniform(0.3, 1.0))  # holes
            # a ragged blob off-centre in a larger grid
            m = np.zeros((nr + 6, nc + 4), dtype=bool)
            m[2 : 2 + nr, 3 : 3 + nc] = rng.random((nr, nc)) < 0.9
            masks.append(m)
        for mask in masks:
            w = np.exp(rng.normal(0.0, 1.0, mask.shape))
            g, ids = build_lattice_graph(mask, w, 0.07, convention)
            ref, ref_ids = coo_reference_graph(mask, w, 0.07, convention)
            assert g.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                got, want = getattr(g, name), getattr(ref, name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert ids.dtype == ref_ids.dtype
            np.testing.assert_array_equal(ids, ref_ids)

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_zero_weight_row_keeps_its_edges(self, convention):
        # crossing_distance enters a square through a row of weight 0: its
        # steps stay explicit 0.0 entries, and scipy sweeps them as edges
        w = np.exp(np.random.default_rng(5).normal(0.0, 1.0, (3, 6)))
        zero = w.copy()
        zero[0] = 0.0
        mask = np.ones(w.shape, dtype=bool)
        g, ids = build_lattice_graph(mask, zero, 0.1, convention)
        ref, _ = build_lattice_graph(mask, w, 0.1, convention)
        assert g.nnz == ref.nnz
        np.testing.assert_array_equal(g.indptr, ref.indptr)
        np.testing.assert_array_equal(g.indices, ref.indices)
        u = np.repeat(np.arange(g.shape[0]), np.diff(g.indptr))
        top = ids[0]
        along = np.isin(u, top) & np.isin(g.indices, top)
        out = np.isin(u, top) & ~along
        assert along.sum() == 10 and out.sum() == 16
        assert np.all(g.data[along] == 0.0)
        want_out = w[1][g.indices[out] - top.size] if convention == VERTEX_SUM else 0.0
        np.testing.assert_array_equal(g.data[out], want_out)
        d = _dijkstra(g, int(ids[0, 0]))
        np.testing.assert_array_equal(d[top], 0.0)
        np.testing.assert_array_equal(d[ids[1]], w[1] if convention == VERTEX_SUM else 0.0)

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_traced_peak_below_two_csr(self, convention):
        # rows are built in blocks straight into exact-size CSR arrays, so no
        # whole (h, w, 8) neighbor or weight array is held
        mask = np.ones((128, 128), dtype=bool)
        w = np.exp(np.random.default_rng(4).normal(0.0, 1.0, mask.shape))
        build_lattice_graph(mask, w, 0.07, convention)  # one-time allocations are not the build's
        tracemalloc.start()
        try:
            g, _ = build_lattice_graph(mask, w, 0.07, convention)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (g.data.nbytes + g.indices.nbytes + g.indptr.nbytes)

    def test_rectangular_shapes_supported(self):
        w = np.ones((3, 5))
        g, ids = build_lattice_graph(np.ones((3, 5), dtype=bool), w, 1.0, EDGE_WEIGHTED)
        assert g.shape == (15, 15)
        assert ids.max() == 14

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            build_lattice_graph(np.ones((3, 3), dtype=bool), np.ones((3, 3)), 1.0, "bogus")
        spec = GridSpec(n=8, spacing=0.1)
        mf = LatticeField(spec=spec, values=np.zeros((8, 8)), kind=DETERMINISTIC)
        with pytest.raises(ValueError):
            MetricProblem(mf, PARAMS, "bogus")

    def test_nonpositive_weights_rejected(self):
        spec = GridSpec(n=8, spacing=0.1)
        vals = np.zeros((8, 8))
        vals[0, 0] = 2000.0  # overflows exp into inf
        mf = LatticeField(spec=spec, values=vals, kind=DETERMINISTIC)
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            MetricProblem(mf, PARAMS, EDGE_WEIGHTED)

    def test_underflowing_weights_rejected(self):
        spec = GridSpec(n=8, spacing=0.1)
        vals = np.zeros((8, 8))
        vals[3, 4] = -2000.0  # underflows exp to 0
        mf = LatticeField(spec=spec, values=vals, kind=DETERMINISTIC)
        with np.errstate(under="ignore"), pytest.raises(ValueError, match="positive and finite"):
            MetricProblem(mf, PARAMS, VERTEX_SUM)

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_crossing_traced_peak_below_two_window_csr(self, convention, monkeypatch):
        # construction weights nothing and a crossing weights only its
        # window, so neither holds a full-grid weight or index array
        spec = GridSpec(n=256, spacing=2.02 / 255, origin=(-1.01, -1.01))
        mf = mollify_heat(sample_whole_plane_gff(spec, 6), 4 * spec.spacing)
        square = (-0.5, -0.5, 1.0)
        MetricProblem(mf, PARAMS, convention).crossing_distance(square)  # imports and first-use state
        builds = []

        def recorded(*args, **kwargs):
            built = build_lattice_graph(*args, **kwargs)
            builds.append(sum(a.nbytes for a in (built[0].data, built[0].indices, built[0].indptr)))
            return built

        monkeypatch.setattr("lfpp.metric.build_lattice_graph", recorded)
        tracemalloc.start()
        try:
            MetricProblem(mf, PARAMS, convention).crossing_distance(square)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(builds) == 1
        assert peak < 2 * builds[0], peak / builds[0]

    @pytest.mark.parametrize("log_threshold", [-1075 * math.log(2.0), math.log(np.finfo(float).max)],
                             ids=["underflow", "overflow"])
    def test_weights_rejected_exactly_when_exp_leaves_range(self, log_threshold):
        # construction checks only the extremes' weights; one vertex stepped
        # ulp by ulp through exp's underflow (near -745.13) or overflow
        # (709.78) must be rejected exactly when the full weight array holds
        # a 0 or an inf
        spec = GridSpec(n=8, spacing=0.1)
        xi = PARAMS.xi
        v = np.nextafter(log_threshold / xi, -np.inf)
        for _ in range(24):
            v = np.nextafter(v, -np.inf)
        outcomes = set()
        for _ in range(48):
            v = np.nextafter(v, np.inf)
            vals = np.zeros((8, 8))
            vals[5, 2] = v
            with np.errstate(over="ignore", under="ignore"):
                w = np.exp(xi * vals)
            bad = bool(np.any(w == 0.0) or np.any(w == np.inf))
            outcomes.add(bad)
            mf = LatticeField(spec=spec, values=vals, kind=DETERMINISTIC)
            with np.errstate(over="ignore", under="ignore"):
                if bad:
                    with pytest.raises(ValueError, match="positive and finite"):
                        MetricProblem(mf, PARAMS, EDGE_WEIGHTED)
                else:
                    MetricProblem(mf, PARAMS, EDGE_WEIGHTED)
        assert outcomes == {False, True}  # the steps cross the threshold

    def test_nan_value_rejected(self):
        # a non-finite value never reaches a problem: the field rejects it
        spec = GridSpec(n=8, spacing=0.1)
        for bad in (np.nan, np.inf, -np.inf):
            vals = np.zeros((8, 8))
            vals[6, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                LatticeField(spec=spec, values=vals, kind=DETERMINISTIC)

    def test_vertex_weight_is_exp_of_values(self):
        spec = GridSpec(n=16, spacing=0.1)
        vals = np.random.default_rng(12).normal(0.0, 2.0, (16, 16))
        prob = MetricProblem(LatticeField(spec=spec, values=vals, kind=DETERMINISTIC), PARAMS, VERTEX_SUM)
        assert np.array_equal(prob.vertex_weight, np.exp(PARAMS.xi * vals))
