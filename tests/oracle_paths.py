"""Test-only oracles for the lattice metric.

Exhaustive shortest paths on small 8-neighbor grids: enumerate every
simple path between two vertices and take the float minimum of the
per-path costs, accumulating each path's cost in the same left-to-right
order the graph search uses, so agreement can be asserted bit-for-bit.
``lattice_distance`` is the graph-search side of that comparison, and
``cycle_separates`` checks that a cycle encloses what it should.
"""

import math

import numpy as np

from lfpp.metric import VERTEX_SUM, _dijkstra, build_lattice_graph

OFFSETS = (
    (-1, -1, math.sqrt(2.0)),
    (-1, 0, 1.0),
    (-1, 1, math.sqrt(2.0)),
    (0, -1, 1.0),
    (0, 1, 1.0),
    (1, -1, math.sqrt(2.0)),
    (1, 0, 1.0),
    (1, 1, math.sqrt(2.0)),
)


def enumerate_simple_paths(shape, src, dst):
    """All simple 8-neighbor paths src -> dst as lists of (i, j) vertices."""
    nr, nc = shape
    paths = []
    stack = [(src, [src], {src})]
    while stack:
        v, path, seen = stack.pop()
        if v == dst:
            paths.append(path)
            continue
        for di, dj, _ in OFFSETS:
            u = (v[0] + di, v[1] + dj)
            if 0 <= u[0] < nr and 0 <= u[1] < nc and u not in seen:
                stack.append((u, path + [u], seen | {u}))
    return paths


def compile_paths(shape, paths):
    """Fold the paths into a prefix trie for vectorized costing.

    Paths sharing a prefix share its trie nodes, so each prefix's cost is
    computed once per draw.  Returns (u_idx, v_idx, ell, levels): the
    directed lattice steps the paths take, as flat vertex indices and step
    lengths, and one (parent, step, ends) triple per step count.  Node k of
    level b extends node parent[k] of level b - 1 (the empty prefix for
    b = 0) by step step[k]; ends lists the level's nodes where a path ends.
    """
    _, nc = shape
    ell_of = {(di, dj): ell for di, dj, ell in OFFSETS}
    steps, levels, ends = {}, [], []
    for p in paths:
        node = 0
        for b, (u, v) in enumerate(zip(p[:-1], p[1:])):
            if b == len(levels):
                levels.append({})
                ends.append([])
            e = steps.setdefault((u, v), len(steps))
            node = levels[b].setdefault((node, e), len(levels[b]))
        ends[len(p) - 2].append(node)
    u_idx = np.array([u[0] * nc + u[1] for u, _ in steps], dtype=np.int64)
    v_idx = np.array([v[0] * nc + v[1] for _, v in steps], dtype=np.int64)
    ell = np.array([ell_of[(v[0] - u[0], v[1] - u[1])] for u, v in steps])
    compiled = []
    for level, end in zip(levels, ends):
        parent, step = np.array(list(level), dtype=np.int64).reshape(-1, 2).T
        compiled.append((parent, step, np.array(end, dtype=np.int64)))
    return u_idx, v_idx, ell, compiled


def min_path_cost(weights, spacing, convention, src, trie):
    """Float minimum over all enumerated paths, fold-left per path.

    Each trie node's cost is its parent's plus its step's, which is the
    same left-to-right sum the path's cost takes.  Vertex-sum paths
    accumulate the weight of every vertex entered, with the source's own
    weight added last (matching a search that starts its tentative distance
    at zero and charges the source separately).
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    u_idx, v_idx, ell, levels = trie
    if convention == "vertex-sum":
        step_cost = w[v_idx]
    else:
        step_cost = ell * spacing * np.sqrt(w[u_idx] * w[v_idx])
    best = math.inf
    cost = np.zeros(1)
    for parent, step, ends in levels:
        cost = cost[parent] + step_cost[step]
        if ends.size:
            best = min(best, float(cost[ends].min()))
    if convention == "vertex-sum":
        best = float(weights[src]) + best
    return best


def lattice_distance(weights, spacing, convention, src, dst):
    """Shortest-path distance on a fully-active rectangular weight grid.

    Thin wrapper over the same graph construction MetricProblem uses,
    callable on arbitrary (small) shapes: the reference entry point the
    exhaustive-enumeration equivalence tests exercise.
    """
    mask = np.ones(np.asarray(weights).shape, dtype=bool)
    graph, ids = build_lattice_graph(mask, weights, spacing, convention)
    d = _dijkstra(graph, int(ids[src]))
    base = float(weights[src]) if convention == VERTEX_SUM else 0.0
    return base + float(d[int(ids[dst])])


def cycle_separates(mask, cycle, inner, outer):
    """4-connected flood fill from the inner set, avoiding cycle vertices,
    must not reach the outer set.  (An 8-connected vertex cycle blocks
    4-connected flood, the standard lattice duality.)  A cycle through an
    inner vertex does not separate it."""
    if len(inner) == 0:
        raise ValueError("inner set must be nonempty")
    n = mask.shape[0]
    blocked = np.zeros_like(mask)
    for v in cycle:
        blocked[v] = True
    if any(blocked[v] for v in inner):
        return False
    visited = np.zeros_like(mask)
    stack = [v for v in inner if mask[v]]
    for v in stack:
        visited[v] = True
    while stack:
        i, j = stack.pop()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if 0 <= a < n and 0 <= b < n and mask[a, b] and not blocked[a, b] and not visited[a, b]:
                visited[a, b] = True
                stack.append((a, b))
    return not any(visited[v] for v in outer if 0 <= v[0] < n and 0 <= v[1] < n)
