"""Weighted shortest-path metrics on the 8-neighbor lattice.

A ``MetricProblem`` freezes a field (mollified or raw), coupling parameters,
a weight convention and a domain mask into a graph:

* ``vertex-sum``: a path pays e^(xi*h(v)) at every vertex it visits,
  endpoints included (so the one-vertex path already costs one weight).
  Realized as a directed graph where the edge u->v carries the weight of
  v, plus the source weight charged once.

* ``edge-weighted``: a path pays |u-v| * e^(xi*(h(u)+h(v))/2) per edge,
  the trapezoid rule for the continuum weighted length.

All queries run exact Dijkstra (scipy's C implementation) on the masked
graph; no heuristics.  Geodesics and annulus cycles are read off the swept
graph by one walk back from the target, stepping to the neighbor of smallest
row-major id, so lexicographically smallest, that reproduces the distance.
``path_cost`` folds a path's step costs, read off the same graph, as a sweep
from its first vertex does, so a geodesic recosts to its distance exactly.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .field import LatticeField
from .params import LqgParams

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

VERTEX_SUM = "vertex-sum"
EDGE_WEIGHTED = "edge-weighted"
CONVENTIONS = (VERTEX_SUM, EDGE_WEIGHTED)

SQRT2 = math.sqrt(2.0)

# 8-neighbor offsets in lexicographic (di, dj) order; third entry is the
# Euclidean step length in units of the lattice spacing.
OFFSETS = (
    (-1, -1, SQRT2),
    (-1, 0, 1.0),
    (-1, 1, SQRT2),
    (0, -1, 1.0),
    (0, 1, 1.0),
    (1, -1, SQRT2),
    (1, 0, 1.0),
    (1, 1, SQRT2),
)


# Rows of the mask's bounding box per block of build_lattice_graph.
_ROWS = 32


def _csr(arg, shape: Tuple[int, int]) -> csr_matrix:
    from scipy.sparse import csr_matrix  # loaded on first use: over 400 modules, most of a cold start
    return csr_matrix(arg, shape=shape)


def _dijkstra(graph: csr_matrix, source: int, **kwargs):
    """scipy's directed Dijkstra from one source vertex."""
    from scipy.sparse.csgraph import dijkstra  # loaded on first use, with scipy.sparse
    return dijkstra(graph, directed=True, indices=source, **kwargs)


def build_lattice_graph(
    mask: np.ndarray, vertex_weight: np.ndarray, spacing: float, convention: str,
) -> Tuple[csr_matrix, np.ndarray]:
    """Directed CSR graph of the masked 8-neighbor lattice.

    Vertex-sum edges u->v carry exp-weight of v (the source weight is
    charged separately, once per query); edge-weighted edges carry the
    Euclidean step length times the geometric mean of the endpoint weights.
    Vertex ids run row-major over the mask and each row lists its edges in
    ``OFFSETS`` order, which is ascending neighbor id.  Returns the graph
    and the vertex-id grid, -1 outside the mask.  Accepts any rectangular
    shape; grid validation lives upstream.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    mask = np.asarray(mask, dtype=bool)
    vertex_weight = np.asarray(vertex_weight)
    ids = np.full(mask.shape, -1, dtype=np.int64)
    nv = int(np.count_nonzero(mask))
    ids[mask] = np.arange(nv)  # boolean assignment runs row-major
    # Only the mask's bounding box is scanned.  Framing it with one ring of
    # id -1 makes every offset's neighbor block a plain slice.
    rows, cols = np.nonzero(mask.any(axis=1))[0], np.nonzero(mask.any(axis=0))[0]
    i0, i1, j0, j1 = (rows[0], rows[-1] + 1, cols[0], cols[-1] + 1) if nv else (0, 0, 0, 0)
    h, wd = i1 - i0, j1 - j0
    itype = np.int32 if 8 * nv < 2**31 else np.int64
    fid = np.full((h + 2, wd + 2), -1, dtype=itype)
    fid[1:-1, 1:-1] = ids[i0:i1, j0:j1]
    fw = np.ones((h + 2, wd + 2))
    fw[1:-1, 1:-1] = vertex_weight[i0:i1, j0:j1]
    inside = mask[i0:i1, j0:j1]
    degree = np.zeros((h, wd), dtype=itype)
    for di, dj, _ in OFFSETS:
        degree += fid[1 + di : 1 + di + h, 1 + dj : 1 + dj + wd] >= 0
    indptr = np.zeros(nv + 1, dtype=itype)
    np.cumsum(degree[inside], out=indptr[1:])
    del degree
    nnz = int(indptr[nv])
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=itype)
    # Each block of rows gathers its valid entries straight into its slice
    # of the CSR arrays, so no (h, wd, 8) array is ever held whole.
    at = 0
    for r0 in range(0, h, _ROWS):
        r1 = min(r0 + _ROWS, h)
        nbr = np.empty((r1 - r0, wd, len(OFFSETS)), dtype=itype)
        wgt = np.empty((r1 - r0, wd, len(OFFSETS)))
        wu = fw[1 + r0 : 1 + r1, 1:-1]
        for k, (di, dj, ell) in enumerate(OFFSETS):
            nbr[:, :, k] = fid[1 + di + r0 : 1 + di + r1, 1 + dj : 1 + dj + wd]
            wv = fw[1 + di + r0 : 1 + di + r1, 1 + dj : 1 + dj + wd]
            wgt[:, :, k] = wv if convention == VERTEX_SUM else ell * spacing * np.sqrt(wu * wv)
        valid = nbr >= 0
        valid &= inside[r0:r1, :, None]
        end = at + int(np.count_nonzero(valid))
        data[at:end] = wgt[valid]
        indices[at:end] = nbr[valid]
        at = end
    return _csr((data, indices, indptr), (nv, nv)), ids


@dataclass(frozen=True)
class PathResult:
    """A query's distance and path.  ``costs[k]`` is the cumulative cost at
    ``path[k]``, read off the Dijkstra distances, so ``costs[-1]`` is
    ``distance``; empty when the target is unreachable."""

    distance: float
    path: List[Tuple[int, int]]
    reached: bool
    costs: List[float]


@dataclass(frozen=True)
class MetricBall:
    membership: np.ndarray
    boundary: List[Tuple[int, int]]


class MetricProblem:
    """Immutable weighted-lattice metric; queries allocate private state."""

    def __init__(
        self,
        field: LatticeField,
        params: LqgParams,
        convention: str = EDGE_WEIGHTED,
        mask: Optional[np.ndarray] = None,
    ):
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        self.field = field
        self.params = params
        self.convention = convention
        self.n = field.spec.n
        self.spacing = field.spec.spacing
        mask = np.ones((self.n, self.n), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if mask.shape != (self.n, self.n):
            raise ValueError("mask shape does not match the field grid")
        self.mask = mask.copy()
        self.mask.setflags(write=False)
        # xi > 0 makes the weight monotone in the value, so the extremes
        # bound every weight; exp overflow or underflow of finite values fails
        lo, hi = self._weight(np.array([field.values.min(), field.values.max()]))
        if not (lo > 0.0 and hi < np.inf):
            raise ValueError("vertex weights must be positive and finite")

    def _weight(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.exp(np.multiply(self.params.xi, values, out=out), out=out)

    @functools.cached_property
    def vertex_weight(self) -> np.ndarray:
        return self._weight(self.field.values)

    # -- graph construction -------------------------------------------------

    @functools.cached_property
    def _lattice(self) -> Tuple[csr_matrix, np.ndarray]:
        return build_lattice_graph(self.mask, self.vertex_weight, self.spacing, self.convention)

    @property
    def graph(self) -> csr_matrix:
        return self._lattice[0]

    @property
    def ids(self) -> np.ndarray:
        return self._lattice[1]

    def _check_vertex(self, v: Tuple[int, int]) -> Tuple[int, int]:
        """Every query's vertex, as a pair of Python ints inside the grid and
        the mask; a numpy row or integer pair is accepted, a negative index
        that would wrap to the far edge is not."""
        i, j = map(operator.index, v)
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"vertex {(i, j)} is outside the grid")
        if not self.mask[i, j]:
            raise ValueError(f"vertex {(i, j)} is outside the mask")
        return i, j

    # -- elementary costs ----------------------------------------------------

    def _source_charge(self, z: Tuple[int, int]) -> float:
        """What every path from a checked z pays before its first step: z's
        own weight under vertex-sum, nothing under edge-weighted."""
        return float(self.vertex_weight[z]) if self.convention == VERTEX_SUM else 0.0

    def _reach(self, z: Tuple[int, int], limit: float = math.inf) -> np.ndarray:
        """Distances from a checked z as an (n, n) grid, inf outside the mask
        and beyond the limit: one sweep of the cached graph, z's charge added
        last.  Every distance query from a vertex reads this one rule."""
        out = np.full((self.n, self.n), np.inf)
        out[self.mask] = _dijkstra(self.graph, int(self.ids[z]), limit=limit)
        return out + self._source_charge(z)

    def path_cost(self, path: Sequence[Tuple[int, int]]) -> float:
        """A path's cost as a sweep from its first vertex folds it: the graph's
        step costs added in order from 0, then that vertex's charge."""
        if len(path) == 0:
            raise ValueError("empty path")
        path = [self._check_vertex(v) for v in path]
        at = np.array(path)
        if np.any(np.abs(np.diff(at, axis=0)).max(axis=1) != 1):
            raise ValueError("vertices are not 8-adjacent")
        ids = self.ids[at[:, 0], at[:, 1]]
        # cumsum adds in order, as a sweep does; np.sum would add pairwise
        steps = np.asarray(self.graph[ids[:-1], ids[1:]]).ravel() if len(path) > 1 else np.zeros(1)
        return float(np.cumsum(steps)[-1]) + self._source_charge(path[0])

    # -- queries ---------------------------------------------------------------

    def distance(self, z: Tuple[int, int], w: Tuple[int, int]) -> PathResult:
        """Exact shortest-path distance with the realized geodesic."""
        return self.geodesics(z, [w])[0]

    def distance_value(self, z: Tuple[int, int], w: Tuple[int, int]) -> float:
        """``distance(z, w).distance`` without reconstructing the geodesic
        (inf when w is unreachable)."""
        z, w = self._check_vertex(z), self._check_vertex(w)
        return float(self._reach(z)[w])

    def geodesics(self, z: Tuple[int, int], targets: Sequence[Tuple[int, int]]) -> List[PathResult]:
        """Distances and realized geodesics from z to each target, all read
        off one Dijkstra sweep from z."""
        z = self._check_vertex(z)
        zid = int(self.ids[z])
        wids = [int(self.ids[self._check_vertex(w)]) for w in targets]
        d = _dijkstra(self.graph, zid)
        base = self._source_charge(z)
        weight = self.vertex_weight[self.mask] if self.convention == VERTEX_SUM else None
        ai, aj = np.nonzero(self.mask)
        out = []
        for wid in wids:
            if not np.isfinite(d[wid]):
                out.append(PathResult(distance=math.inf, path=[], reached=False, costs=[]))
                continue
            chain = _walk_back(self.graph, d, zid, wid, weight)
            costs = (base + d[chain]).tolist()
            path = list(zip(ai[chain].tolist(), aj[chain].tolist()))
            out.append(PathResult(distance=costs[-1], path=path, reached=True, costs=costs))
        return out

    def multi_source_distance(self, sources: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Distances from a vertex set, as an (n, n) grid array: at each
        vertex, the nearest source's ``distance_value``, bit for bit."""
        if len(sources) == 0:
            raise ValueError("sources must be nonempty")
        sources = [self._check_vertex(v) for v in sources]
        return functools.reduce(np.minimum, map(self._reach, sources))

    def crossing_distance(self, square: Tuple[float, float, float]) -> float:
        """Left-to-right crossing distance of a square, paths inside the square.

        ``square`` is (x0, y0, side) in physical units.  Sources are the
        leftmost column of the square's vertex set, targets the rightmost.
        Raises ValueError when the square misses the mask or no target is
        reachable inside it.  Only the square's window of the grid is built,
        padded above its first row by an all-mask entry row of weight 0, and
        swept once from that row: walking it is free and entering the left
        side at s costs what a sweep from s charges, s's weight under
        vertex-sum and nothing under edge-weighted.
        """
        x0, y0, side = square
        if not (math.isfinite(x0) and math.isfinite(y0) and 0 < side < math.inf):
            raise ValueError("degenerate square")
        rows, cols = self._square_window(x0, y0, side)
        sub = self.mask[rows, cols]
        weight = np.zeros((sub.shape[0] + 1, sub.shape[1]))
        self._weight(self.field.values[rows, cols], out=weight[1:])
        graph, ids = build_lattice_graph(np.pad(sub, ((1, 0), (0, 0)), constant_values=True), weight,
                                         self.spacing, self.convention)
        del weight  # the sweep reads only the graph; a live window of weights raised peak RSS
        d = _dijkstra(graph, int(ids[0, 0]))
        val = float(np.min(d[ids[-1, sub[-1]]]))
        if not math.isfinite(val):
            raise ValueError(f"square {square} has no left-to-right crossing inside the mask")
        return val

    def _square_window(self, x0: float, y0: float, side: float) -> Tuple[slice, slice]:
        """Grid slices of the vertices within the square, its rows trimmed to
        the first and last holding a mask vertex (the left and right sides)."""
        tol = 1e-9 * self.spacing
        # each axis is increasing, so each span is one slice
        sx, sy = (slice(np.searchsorted(axis, lo - tol), np.searchsorted(axis, lo + side + tol, "right"))
                  for axis, lo in zip(self.field.spec.axes(), (x0, y0)))
        filled = np.nonzero(self.mask[sx, sy].any(axis=1))[0]
        if filled.size == 0:
            raise ValueError("square misses the mask")
        return slice(sx.start + filled[0], sx.start + filled[-1] + 1), sy

    def metric_ball(self, center: Tuple[int, int], s: float) -> MetricBall:
        """All vertices within metric distance s of the center: those whose
        ``distance_value`` from it is finite and at most s."""
        if not s >= 0:
            raise ValueError("radius must be >= 0")
        # a limit of s less the charge could round below a member's d
        d = self._reach(self._check_vertex(center), limit=s)
        member = np.isfinite(d) & (d <= s)
        return MetricBall(membership=member, boundary=_boundary_vertices(member))

    # -- annulus cycle -----------------------------------------------------------

    def distance_around_annulus(
        self, z: Tuple[float, float], r1: float, r2: float
    ) -> PathResult:
        """Minimal-cost lattice cycle in the annulus separating its boundaries.

        Cuts the annulus along the rightward horizontal ray from z,
        duplicates the cut vertices into an upper and a lower copy, and takes
        the cheapest shortest path joining the two copies of the same vertex.
        The returned path is the closed cycle (first vertex repeated last).
        """
        if not (0.0 < r1 < r2):
            raise ValueError("need 0 < r1 < r2")
        if (r2 - r1) / self.spacing < 3.0:
            raise ValueError("annulus too thin to contain a lattice cycle")
        spec = self.field.spec
        xs, ys = spec.axes()
        rad = np.hypot(xs[:, None] - z[0], ys - z[1])
        ann = (rad >= r1) & (rad <= r2) & self.mask
        if not ann.any():
            raise ValueError("annulus misses the mask")
        try:
            jc = min(max(spec.nearest(z[0], z[1])[1], 0), self.n - 1)
        except OverflowError:  # a grid index beyond float range: no column to cut along
            raise ValueError(f"annulus center {tuple(z)} lies too far from the grid") from None
        cut_i = np.nonzero(ann[:, jc] & (xs > z[0]))[0]
        if cut_i.size == 0:
            raise ValueError("cut ray misses the annulus")
        return _annulus_cycle(self, ann, jc, cut_i, bool(ys[jc] < z[1]))


def _walk_back(graph: csr_matrix, d: np.ndarray, src: int, tgt: int,
               vertex_weight: Optional[np.ndarray]) -> List[int]:
    """Ids of a shortest src -> tgt path, read back from tgt off a sweep's
    distances d from src: each step goes to the smallest id u in v's row with
    d[u] + cost(u -> v) == d[v] exactly.  The graph is structurally symmetric,
    so the row lists v's in-neighbors; cost(u -> v) is ``vertex_weight[v]``
    (vertex-sum) or, given None, the row's entry for u, which equals it in an
    edge-weighted graph, symmetric bit for bit."""
    indptr, indices, data = graph.indptr, graph.indices, graph.data
    path = [tgt]
    while path[-1] != src:
        v = path[-1]
        lo, hi = indptr[v], indptr[v + 1]
        u = indices[lo:hi]
        cost = data[lo:hi] if vertex_weight is None else vertex_weight[v]
        hit = u[d[u] + cost == d[v]]
        if hit.size == 0 or len(path) == graph.shape[0]:
            raise RuntimeError("no shortest path back to the source")
        path.append(int(hit.min()))
    return path[::-1]


def _boundary_vertices(member: np.ndarray) -> List[Tuple[int, int]]:
    """Members with at least one non-member 8-neighbor (grid edge counts)."""
    n = member.shape[0]
    interior = np.ones_like(member)
    padded = np.pad(member, 1, mode="constant", constant_values=False)
    for di, dj, _ in OFFSETS:
        interior &= padded[1 + di : 1 + di + n, 1 + dj : 1 + dj + n]
    bnd = member & ~interior
    return [tuple(v) for v in np.argwhere(bnd)]


def _annulus_cycle(problem: MetricProblem, ann, jc, cut_i, column_below: bool) -> PathResult:
    """Vertex-duplication reduction: shortest a+ -> a- path over cut vertices a.

    The cut vertices (cut_i, jc) keep their lattice ids as the upper copies
    a+ and get lower copies a- = nv + k, k their place in cut_i.  An edge
    with one end a on the cut stays on a+ when its other end lies above the
    ray (j > jc) and moves to a- when below; an edge along the cut runs on
    both copies.  An edge to a non-cut vertex on the ray's column passes
    beside z, so it goes to a- when that column lies below z
    (``column_below``) and to a+ otherwise.
    """
    g, ids = build_lattice_graph(ann, problem.vertex_weight, problem.spacing, problem.convention)
    ai, aj = np.nonzero(ann)
    nv = ai.size
    cut_ids = ids[cut_i, jc]
    dup = np.full(nv, -1, dtype=np.int64)
    dup[cut_ids] = nv + np.arange(cut_ids.size)
    coo = g.tocoo()
    u, v = coo.row, coo.col
    u_cut, v_cut = dup[u] >= 0, dup[v] >= 0
    side = aj[np.where(u_cut, v, u)] - jc  # of the far end; 0 when both ends are cut
    both = u_cut & v_cut
    move = (u_cut | v_cut) & ~both & ((side < 0) | ((side == 0) & column_below))
    du, dv = np.where(u_cut, dup[u], u), np.where(v_cut, dup[v], v)
    rows = np.concatenate([np.where(move, du, u), du[both]])
    cols = np.concatenate([np.where(move, dv, v), dv[both]])
    size = nv + cut_ids.size
    g = _csr((np.concatenate([coo.data, coo.data[both]]), (rows, cols)), (size, size))

    best, best_k, best_d = math.inf, -1, None
    for k, src in enumerate(cut_ids.tolist()):
        d = _dijkstra(g, src, limit=best)
        # edges charge their target, so d[nv + k] sums each distinct cycle
        # vertex once (vertex-sum) or each cycle edge once (edge-weighted)
        if d[nv + k] < best:
            best, best_k, best_d = float(d[nv + k]), k, d
    if best_d is None:
        return PathResult(distance=math.inf, path=[], reached=False, costs=[])
    grid_i = np.concatenate([ai, cut_i])
    grid_j = np.concatenate([aj, np.full(cut_i.size, jc)])
    weight = problem.vertex_weight[grid_i, grid_j] if problem.convention == VERTEX_SUM else None
    # closed: the first and last chain vertices are the two copies of a
    chain = _walk_back(g, best_d, int(cut_ids[best_k]), nv + best_k, weight)
    path = list(zip(grid_i[chain].tolist(), grid_j[chain].tolist()))
    return PathResult(distance=best, path=path, reached=True, costs=best_d[chain].tolist())


def geodesic_tube_areas(
    spec_spacing: float,
    shape: Tuple[int, int],
    geodesics: Sequence[Sequence[Tuple[int, int]]],
    target: Sequence[Tuple[int, int]],
    widths: Sequence[float],
) -> np.ndarray:
    """Lattice area of {within w of a geodesic} intersect {within w of the
    target set}, in physical units (vertex count * spacing^2), summed over
    the geodesics; one entry per width w.  Each vertex set's distance
    transform is computed once."""
    if len(target) == 0 or any(len(g) == 0 for g in geodesics):
        raise ValueError("geodesics and target must be nonempty")
    db = _set_distance(spec_spacing, shape, target)
    areas = np.zeros(len(widths))
    for geodesic in geodesics:
        da = _set_distance(spec_spacing, shape, geodesic)
        for a, w in enumerate(widths):
            areas[a] += float(np.count_nonzero((da <= w) & (db <= w))) * spec_spacing**2
    return areas


def _set_distance(spacing: float, shape: Tuple[int, int],
                  vertices: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Euclidean distance from every lattice vertex to the nearest listed one."""
    from scipy import ndimage  # loaded on first use: only tube areas and locality need it

    far = np.ones(shape, dtype=bool)
    far[tuple(np.asarray(vertices).T)] = False
    return ndimage.distance_transform_edt(far, sampling=spacing)
