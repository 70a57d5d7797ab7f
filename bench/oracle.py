"""Reference computations kept apart from the lfpp code they check.

Every function here works from plain arrays: its own 8-neighbour graph with
Dijkstra run by networkx, its own straight-row crossing bound, its own
4-connected flood fill, its own lattice ring and its own reader for the
LFPF field header.  Nothing here imports lfpp.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Iterable, List, Sequence, Tuple

import networkx as nx
import numpy as np

VERTEX_SUM = "vertex-sum"
EDGE_WEIGHTED = "edge-weighted"

# Undirected edge directions: each unordered neighbour pair appears once.
_HALF_OFFSETS = ((0, 1), (1, -1), (1, 0), (1, 1))
_SOURCE = -1

# Documented layout: magic "LFPF", version u16, n u32, spacing f64,
# origin 2 x f64, kind u8, seed u64, then n*n little-endian f64, row-major.
_LFPF_HEADER = struct.Struct("<4sHIdddBQ")


def read_lfpf(path: str) -> Tuple[dict, np.ndarray]:
    """Header fields and the value grid of an LFPF field file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, n, spacing, ox, oy, kind, seed = _LFPF_HEADER.unpack_from(raw, 0)
    payload = raw[_LFPF_HEADER.size:]
    if len(payload) != 8 * n * n:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, header says n = {n}")
    header = {"magic": magic, "version": version, "n": n, "spacing": spacing,
              "origin": (ox, oy), "kind": kind, "seed": seed}
    return header, np.frombuffer(payload, dtype="<f8").reshape(n, n)


class LatticeOracle:
    """8-neighbour lattice over ``mask`` with vertex weights exp(xi * values).

    vertex-sum: a path pays the weight of every vertex it visits, its first
    vertex included.  edge-weighted: a path pays |u - v| * spacing *
    sqrt(w(u) w(v)) per step, |u - v| being 1 or sqrt(2) lattice steps.
    """

    def __init__(self, values: np.ndarray, xi: float, spacing: float, convention: str,
                 mask: np.ndarray = None):
        if convention not in (VERTEX_SUM, EDGE_WEIGHTED):
            raise ValueError(f"unknown convention {convention!r}")
        values = np.asarray(values, dtype=np.float64)
        self.n = values.shape[0]
        self.mask = np.ones(values.shape, dtype=bool) if mask is None else np.asarray(mask, bool)
        self.spacing = spacing
        self.convention = convention
        self.weight = [float(x) for x in np.exp(xi * values).ravel()]
        n = self.n
        graph = nx.Graph()
        ii, jj = np.nonzero(self.mask)
        graph.add_nodes_from((ii * n + jj).tolist())
        for di, dj in _HALF_OFFSETS:
            a, b = ii + di, jj + dj
            ok = (a >= 0) & (a < n) & (b >= 0) & (b < n)
            ok[ok] = self.mask[a[ok], b[ok]]
            graph.add_edges_from(zip((ii[ok] * n + jj[ok]).tolist(), (a[ok] * n + b[ok]).tolist()))
        self.graph = graph

    def step(self, u: int, v: int) -> float:
        """Cost of the step u -> v between 8-adjacent flat vertex ids."""
        if self.convention == VERTEX_SUM:
            return self.weight[v]
        ui, uj = divmod(u, self.n)
        vi, vj = divmod(v, self.n)
        ell = math.sqrt(2.0) if (ui != vi and uj != vj) else 1.0
        return ell * self.spacing * math.sqrt(self.weight[u] * self.weight[v])

    def _edge_cost(self, u, v, _data):
        if v == _SOURCE:
            return None
        if u == _SOURCE:
            return self.weight[v] if self.convention == VERTEX_SUM else 0.0
        return self.step(u, v)

    def distances(self, sources: Iterable[Tuple[int, int]], cutoff: float = None) -> Dict[int, float]:
        """Distances from a vertex set (each source's own weight charged under
        vertex-sum), keyed by flat id i * n + j."""
        ids = [i * self.n + j for i, j in sources]
        self.graph.add_edges_from((_SOURCE, s) for s in ids)
        try:
            dist = nx.single_source_dijkstra_path_length(
                self.graph, _SOURCE, cutoff=cutoff, weight=self._edge_cost)
        finally:
            self.graph.remove_node(_SOURCE)
        dist.pop(_SOURCE)
        return dist

    def distance(self, z: Tuple[int, int], w: Tuple[int, int]) -> float:
        return self.distances([z])[w[0] * self.n + w[1]]

    def path_cost(self, path: Sequence[Tuple[int, int]]) -> float:
        ids = [i * self.n + j for i, j in path]
        total = self.weight[ids[0]] if self.convention == VERTEX_SUM else 0.0
        return total + sum(self.step(u, v) for u, v in zip(ids[:-1], ids[1:]))

    def cycle_cost(self, cycle: Sequence[Tuple[int, int]]) -> float:
        """Cost of a closed cycle given with its first vertex repeated last:
        every step once (edge-weighted), every distinct vertex once (vertex-sum)."""
        ids = [i * self.n + j for i, j in cycle]
        return sum(self.step(u, v) for u, v in zip(ids[:-1], ids[1:]))


def square_mask(n: int, spacing: float, origin: Tuple[float, float],
                square: Tuple[float, float, float]) -> np.ndarray:
    """Lattice vertices inside the closed square (x0, y0, side)."""
    x0, y0, side = square
    tol = 1e-9 * spacing
    xs = origin[0] + spacing * np.arange(n)
    ys = origin[1] + spacing * np.arange(n)
    in_x = (xs >= x0 - tol) & (xs <= x0 + side + tol)
    in_y = (ys >= y0 - tol) & (ys <= y0 + side + tol)
    return in_x[:, None] & in_y[None, :]


def crossing_distance(values: np.ndarray, xi: float, spacing: float, convention: str,
                      origin: Tuple[float, float], square: Tuple[float, float, float]) -> float:
    """Cheapest path inside the square from its left column to its right column."""
    mask = square_mask(values.shape[0], spacing, origin, square)
    oracle = LatticeOracle(values, xi, spacing, convention, mask)
    cols = np.nonzero(mask.any(axis=1))[0]
    left, right = int(cols[0]), int(cols[-1])
    dist = oracle.distances([(left, int(j)) for j in np.nonzero(mask[left])[0]])
    return min(dist[right * oracle.n + int(j)] for j in np.nonzero(mask[right])[0])


def straight_row_bound(values: np.ndarray, xi: float, spacing: float, convention: str,
                       origin: Tuple[float, float], square: Tuple[float, float, float]) -> float:
    """Cost of the cheapest straight lattice row across the square: an upper
    bound on its crossing distance."""
    mask = square_mask(values.shape[0], spacing, origin, square)
    cols = np.nonzero(mask.any(axis=1))[0]
    rows = np.nonzero(mask.any(axis=0))[0]
    w = np.exp(xi * values[cols[0]:cols[-1] + 1, rows[0]:rows[-1] + 1])
    if convention == VERTEX_SUM:
        per_row = w.sum(axis=0)
    else:
        per_row = (spacing * np.sqrt(w[:-1] * w[1:])).sum(axis=0)
    return float(per_row.min())


def flood_fill(open_cells: np.ndarray, start: Tuple[int, int]) -> np.ndarray:
    """Cells reachable from ``start`` through 4-adjacent open cells."""
    n0, n1 = open_cells.shape
    seen = np.zeros_like(open_cells, dtype=bool)
    if not open_cells[start]:
        return seen
    seen[start] = True
    stack = [start]
    while stack:
        i, j = stack.pop()
        for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if 0 <= a < n0 and 0 <= b < n1 and open_cells[a, b] and not seen[a, b]:
                seen[a, b] = True
                stack.append((a, b))
    return seen


def is_chain(path: Sequence[Tuple[int, int]]) -> bool:
    """Consecutive vertices are distinct and 8-adjacent."""
    return all(max(abs(u[0] - v[0]), abs(u[1] - v[1])) == 1 for u, v in zip(path[:-1], path[1:]))


def lattice_ring(n: int, spacing: float, origin: Tuple[float, float],
                 center: Tuple[float, float], radius: float) -> List[Tuple[int, int]]:
    """Closed 8-connected ring of nearest lattice vertices to the circle of
    ``radius`` about ``center``, first vertex repeated last."""
    steps = int(math.ceil(16.0 * math.pi * radius / spacing))
    ring: List[Tuple[int, int]] = []
    for k in range(steps + 1):
        t = 2.0 * math.pi * k / steps
        v = (int(round((center[0] + radius * math.cos(t) - origin[0]) / spacing)),
             int(round((center[1] + radius * math.sin(t) - origin[1]) / spacing)))
        if not ring or v != ring[-1]:
            ring.append(v)
    if not is_chain(ring):
        raise ValueError("ring sampling left a gap")
    return ring
