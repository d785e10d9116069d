"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way (explicit loops,
exhaustive enumeration) so it can serve as an oracle for the optimised
code under test.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


def brute_off2(m) -> float:
    a = np.asarray(m, dtype=float)
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if i != j:
                total += a[i, j] ** 2
    return total


def brute_project(h, u) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    u = np.asarray(u, dtype=float)
    n = h.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                for l in range(n):
                    acc += u[k, i] * h[k, l] * u[l, j]
            out[i, j] = acc
    return out


def bfs_distances(adj, root: int) -> list:
    n = len(adj)
    dist = [math.inf] * n
    dist[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in range(n):
            if adj[v][w] > 0 and math.isinf(dist[w]):
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def bfs_usage_matrix(adj) -> np.ndarray:
    """Exact expected tree-usage proportion of every edge under the
    sampling scheme: root uniform over nodes, every non-root node picks
    its parent uniformly among neighbours one step closer to the root."""
    a = np.asarray(adj, dtype=float)
    n = a.shape[0]
    usage = np.zeros((n, n))
    for root in range(n):
        dist = bfs_distances(a, root)
        for v in range(n):
            if v == root or math.isinf(dist[v]):
                continue
            cands = [w for w in range(n) if a[v][w] > 0 and dist[w] == dist[v] - 1]
            share = 1.0 / (len(cands) * n)
            for w in cands:
                usage[v, w] += share
                usage[w, v] += share
    return usage


def bfs_root_tree_probability(adj, root: int, parent: dict) -> float:
    """Exact probability of drawing a specific parent map by BFS from
    ``root`` (zero if the map is not a valid BFS tree)."""
    a = np.asarray(adj, dtype=float)
    n = a.shape[0]
    dist = bfs_distances(a, root)
    prob = 1.0
    for v in range(n):
        if v == root or math.isinf(dist[v]):
            continue
        cands = [w for w in range(n) if a[v][w] > 0 and dist[w] == dist[v] - 1]
        if v not in parent or parent[v] not in cands:
            return 0.0
        prob *= 1.0 / len(cands)
    return prob


def temporal_reachable(events, n: int, root: int, start: float, horizon=None) -> set:
    """Time-respecting reachable set for event lists with distinct start
    times: one time-ordered pass, each event used once."""
    reached = {root}
    cutoff = math.inf if horizon is None else start + horizon
    for a, b, s, _e in sorted(events, key=lambda ev: ev[2]):
        if s < start or s >= cutoff:
            continue
        if a in reached and b not in reached:
            reached.add(b)
        elif b in reached and a not in reached:
            reached.add(a)
    return reached


def is_forest(n: int, edges) -> bool:
    """Union-find acyclicity check over undirected edges."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def tree_adjacency(n: int, parent) -> np.ndarray:
    """Dense 0/1 adjacency of a tree given as a child -> parent map,
    filled entry by entry from its set of undirected edges."""
    edges = {frozenset(edge) for edge in parent.items()}
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and frozenset((i, j)) in edges:
                out[i, j] = 1.0
    return out


def merge_intervals(pairs) -> list:
    """Union of possibly overlapping [start, end] intervals, merging
    abutting ones."""
    out = []
    for s, e in sorted(pairs):
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def slow_all_pairs_shortest(lengths) -> np.ndarray:
    """Dijkstra-free exhaustive all-pairs shortest paths (repeated
    relaxation until fixpoint)."""
    d = np.asarray(lengths, dtype=float).copy()
    n = d.shape[0]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    alt = d[i, k] + d[k, j]
                    if alt < d[i, j] - 1e-15:
                        d[i, j] = alt
                        changed = True
    return d


def count_density_modes(components, lo: float, hi: float, n_grid: int = 20001) -> int:
    """Number of local maxima of a 1-D Gaussian mixture density on [lo, hi].

    ``components`` holds (weight, mean, variance) triples.  The density
    is evaluated in log space, one grid point and one component at a
    time, so far tails that underflow to zero in linear space keep their
    shape and cannot produce spurious flat-then-rising peaks.  A run of
    equal values counts once; an end of the interval counts when the
    density falls away from it.
    """
    grid = [lo + (hi - lo) * i / (n_grid - 1) for i in range(n_grid)]
    logf = []
    for x in grid:
        terms = [
            math.log(w) - 0.5 * (math.log(2.0 * math.pi * v) + (x - mu) ** 2 / v)
            for w, mu, v in components
        ]
        top = max(terms)
        logf.append(top + math.log(sum(math.exp(t - top) for t in terms)))
    # collapse plateaus, then count points above both neighbours
    vals = [logf[0]]
    for f in logf[1:]:
        if f != vals[-1]:
            vals.append(f)
    if len(vals) == 1:
        return 1
    peaks = 0
    for i, f in enumerate(vals):
        left = vals[i - 1] if i > 0 else -math.inf
        right = vals[i + 1] if i + 1 < len(vals) else -math.inf
        if f > left and f > right:
            peaks += 1
    return peaks
