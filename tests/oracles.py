"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way (explicit loops,
exhaustive enumeration) so it can serve as an oracle for the optimised
code under test.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace

import numpy as np

from contactmodes.errors import ConvergenceError
from contactmodes.jointdiag import _GAIN_GUARD, JdResult, OrthoBasis, _round_layouts, eig_sym
from contactmodes.modes import (
    GaussComponent,
    ModeModel,
    _bic,
    _closed_form_k1,
    _kmeanspp_centers,
    _restart_seed,
    _variance_floor,
)
from contactmodes.seeds import derive_rng


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


def _reference_off2(stack) -> np.ndarray:
    s2 = stack * stack
    idx = np.arange(stack.shape[1])
    s2[:, idx, idx] = 0.0
    return s2.sum(axis=(1, 2))


def reference_joint_diagonalise(stack, tol: float = 1e-9, max_sweeps: int = 100) -> JdResult:
    """Joint diagonalisation swept on the dense stack itself, in one
    thread: the same warm start from the mean matrix, the same rounds of
    disjoint rotations and stopping rule, and each sample's diagonal and
    off2 read back from the rotated stack rather than from coordinates."""
    c = np.array(stack, dtype=float)
    n = c.shape[1]
    history = [float(_reference_off2(c).sum())]
    initial = history[0]
    # gains below eps^2 times the inputs' summed squared norm are round-off
    round_off = np.finfo(float).eps ** 2 * float((c * c).sum())
    u = np.eye(n)
    try:
        warm_u = eig_sym(c.mean(axis=0))[1].values.copy()
        warm_c = np.einsum("ki,mkl,lj->mij", warm_u, c, warm_u, optimize=True)
        warm_off = float(_reference_off2(warm_c).sum())
        if warm_off <= initial:
            u, c = warm_u, warm_c
            history.append(warm_off)
    except ConvergenceError:
        pass
    c = np.ascontiguousarray(c)  # the sums below follow the memory order
    idx = np.arange(n)
    # each round's pairs (p, q) sit in adjacent columns of its layout
    paired = 2 * (n // 2)
    rounds = [(order[0:paired:2], order[1:paired:2]) for order in _round_layouts(n)[0]]
    converged = False
    for _ in range(max_sweeps):
        rotations = 0
        guard = max(_GAIN_GUARD * max(history[-1], np.finfo(float).tiny), round_off)
        for pp, qq in rounds:
            h0 = c[:, pp, pp] - c[:, qq, qq]
            h1 = c[:, pp, qq] + c[:, qq, pp]
            g00 = (h0 * h0).sum(axis=0)
            g01 = (h0 * h1).sum(axis=0)
            g11 = (h1 * h1).sum(axis=0)
            ton = g00 - g11
            toff = 2.0 * g01
            r = np.hypot(ton, toff)
            active = (r - ton) / 4.0 > guard
            if not active.any():
                continue
            theta = 0.5 * np.arctan2(toff, ton + r)
            theta[(toff == 0.0) & (ton + r <= 0.0)] = math.pi / 4.0
            theta[~active] = 0.0
            # row p becomes cos * row p + sin * row q, row q becomes
            # cos * row q - sin * row p; then the same on the columns
            partner = idx.copy()
            partner[pp], partner[qq] = qq, pp
            cos_f = np.ones(n)
            sin_f = np.zeros(n)
            cos_f[pp] = cos_f[qq] = np.cos(theta)
            sin_f[pp] = np.sin(theta)
            sin_f[qq] = -np.sin(theta)
            c = cos_f[None, :, None] * c + sin_f[None, :, None] * c[:, partner, :]
            c = cos_f[None, None, :] * c + sin_f[None, None, :] * c[:, :, partner]
            u = cos_f[None, :] * u + sin_f[None, :] * u[:, partner]
            rotations += int(active.sum())
        if rotations == 0:
            converged = True
            break
        history.append(float(_reference_off2(c).sum()))
        if history[-2] - history[-1] < tol * initial:
            converged = True
            break
    avg_diag = np.einsum("mii->mi", c).mean(axis=0)
    order = np.argsort(-avg_diag, kind="stable")
    u = u[:, order]
    return JdResult(
        basis=OrthoBasis(u * np.where(u.sum(axis=0) < 0, -1.0, 1.0)),
        avg_diag=avg_diag[order],
        deviations=_reference_off2(c),
        off2_history=np.array(history),
        converged=converged,
    )


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


def reference_flood_tree(net, root: int, start: float, horizon=None, rng=None) -> tuple:
    """The documented flood, written plainly: walk the events at or after
    ``start`` in stored order, group by shared timestamp, stop before a
    group at or past ``start + horizon`` or once every node holds the
    message, and shuffle each group of two or more with
    ``rng.permutation`` (the only draw).  Returns ``(parent,
    infection_times, partial)``."""
    ev_a, ev_b, ev_start, _ = net.event_arrays
    cutoff = math.inf if horizon is None else start + horizon
    groups: list[list[int]] = []
    for k in range(len(ev_start)):
        if ev_start[k] < start:
            continue
        if groups and ev_start[groups[-1][0]] == ev_start[k]:
            groups[-1].append(k)
        else:
            groups.append([k])
    informed = {root}
    parent: dict = {}
    times = {root: start}
    for group in groups:
        t = ev_start[group[0]]
        if len(informed) == net.n_nodes or t >= cutoff:
            break
        if len(group) > 1 and rng is not None:
            group = [group[0] + int(d) for d in rng.permutation(len(group))]
        for k in group:
            a, b = int(ev_a[k]), int(ev_b[k])
            if (a in informed) == (b in informed):
                continue
            sender, receiver = (a, b) if a in informed else (b, a)
            informed.add(receiver)
            parent[receiver] = sender
            times[receiver] = float(t)
    return parent, times, len(informed) < net.n_nodes


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


def reference_aggregate_static(net, t0: float, t1: float) -> np.ndarray:
    """Static aggregation one event at a time, in event order; a point
    contact lasts one time step."""
    a = np.zeros((net.n_nodes, net.n_nodes))
    for i, j, start, end in zip(*(col.tolist() for col in net.event_arrays)):
        if end == start:
            end = start + net.granularity
        overlap = min(end, t1) - max(start, t0)
        if overlap > 0:
            a[i, j] += overlap
            a[j, i] += overlap
    return a / (t1 - t0)


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


def per_step_events(net, start_step: int, window_end: int):
    """Per-step expansion of a trace's contacts, one event per covered
    step in [start_step, window_end), as a loop over contacts and their
    steps followed by a stable sort by step; returns (step, a, b)."""
    a, b, start, end = net.event_arrays
    g = net.granularity
    if len(start):
        steps = np.floor((start - net.t_min) / g).astype(np.int64)
    else:
        steps = np.zeros(0, dtype=np.int64)
    ev_step = []
    ev_a = []
    ev_b = []
    for idx in range(len(start)):
        s0 = steps[idx]
        last = max(s0, int(math.ceil((end[idx] - net.t_min) / g - 1e-9)) - 1)
        for k in range(max(s0, start_step), min(last, window_end - 1) + 1):
            ev_step.append(k)
            ev_a.append(a[idx])
            ev_b.append(b[idx])
    order = np.argsort(np.asarray(ev_step, dtype=np.int64), kind="stable")
    ev_step = np.asarray(ev_step, dtype=np.int64)[order]
    ev_a = np.asarray(ev_a, dtype=np.int64)[order]
    ev_b = np.asarray(ev_b, dtype=np.int64)[order]
    return ev_step, ev_a, ev_b


_BIG = np.iinfo(np.int64).max // 4


def reference_sir_walk(net, seed_node: int, params, rng, per_step_contacts: bool = False):
    """One SIR outbreak walked event by event with an explicit
    susceptible/infectious/recovered state per node.

    Draws one uniform per window event, then one Poisson duration per
    node (none for an infinite mean).  Returns ``(s_of_t, i_of_t,
    r_of_t, reached)``.
    """
    n = net.n_nodes
    if not 0 <= seed_node < n:
        raise ValueError(f"seed node {seed_node} out of range for {n} nodes")
    a, b, start, end = net.event_arrays
    if len(start) and not net.t_min + params.start_step * net.granularity <= net.t_max:
        raise ValueError("start_step lies beyond the trace")

    g = net.granularity
    if len(start):
        steps = np.floor((start - net.t_min) / g).astype(np.int64)
    else:
        steps = np.zeros(0, dtype=np.int64)
    window_end = params.start_step + params.horizon
    if per_step_contacts:
        ev_step, ev_a, ev_b = per_step_events(net, params.start_step, window_end)
    else:
        lo = int(np.searchsorted(steps, params.start_step, side="left"))
        hi = int(np.searchsorted(steps, window_end, side="left"))
        ev_step = steps[lo:hi]
        ev_a = a[lo:hi]
        ev_b = b[lo:hi]

    uniforms = rng.random(len(ev_step))
    if math.isinf(params.recovery_mean):
        durations = np.full(n, params.horizon + 1, dtype=np.int64)
    else:
        durations = rng.poisson(params.recovery_mean, n).astype(np.int64)

    state = np.zeros(n, dtype=np.int8)  # 0 susceptible, 1 infectious, 2 recovered
    visible_from = np.full(n, _BIG, dtype=np.int64)  # snapshot index where the node stops counting as S
    recovery_step = np.full(n, _BIG, dtype=np.int64)
    state[seed_node] = 1
    visible_from[seed_node] = 0
    recovery_step[seed_node] = params.start_step + durations[seed_node]

    s_of_t = np.empty(params.horizon + 1, dtype=np.int64)
    s_count = n - 1
    cursor = 0

    for idx in range(len(ev_step)):
        k = int(ev_step[idx]) - params.start_step
        while cursor <= k:
            s_of_t[cursor] = s_count
            cursor += 1
        x, y = int(ev_a[idx]), int(ev_b[idx])
        step_abs = int(ev_step[idx])
        for v in (x, y):
            if state[v] == 1 and step_abs >= recovery_step[v]:
                state[v] = 2
        if state[x] > state[y]:
            x, y = y, x
        # after the swap x has the lower state; infection needs (S, I)
        if state[x] == 0 and state[y] == 1 and uniforms[idx] < params.p_transmit:
            state[x] = 1
            visible_from[x] = k + 1
            recovery_step[x] = step_abs + durations[x]
            s_count -= 1
    s_of_t[cursor:] = s_count

    ks = np.arange(params.horizon + 1)
    infected_ever = visible_from < _BIG
    rec_k = np.maximum(recovery_step - params.start_step, visible_from)
    not_s = infected_ever[:, None] & (visible_from[:, None] <= ks[None, :])
    recovered = infected_ever[:, None] & (rec_k[:, None] <= ks[None, :])
    i_of_t = (not_s & ~recovered).sum(axis=0)
    r_of_t = recovered.sum(axis=0)
    return s_of_t, i_of_t, r_of_t, frozenset(int(v) for v in np.flatnonzero(infected_ever))


def _reference_log_joint(x, weights, means, variances):
    diff2 = (x[None, None, :] - means[:, :, None]) ** 2
    return np.log(weights)[:, :, None] - 0.5 * (
        np.log(2.0 * math.pi * variances)[:, :, None] + diff2 / variances[:, :, None]
    )


def reference_posterior(lp):
    """Responsibilities and log-normaliser of a log-joint whose component
    axis is second to last: the max-shifted log-sum-exp, one exp, and the
    exponentials scaled by the reciprocal of their sum."""
    top = lp.max(axis=-2)
    e = np.exp(lp - top[..., None, :])
    total = e.sum(axis=-2)
    return e * (1.0 / total)[..., None, :], top + np.log(total)


def reference_em_restarts(x, k: int, seeds, max_iter: int, tol: float, direct: bool = False) -> tuple:
    """Batched EM over the restarts as each iteration's plain array
    expressions, gathering and scattering the active restarts on every
    iteration; returns ``(weights, means, variances, resp, ll)``.

    The E-step's log-joint is each component's three quadratic
    coefficients times the rows [1; xc; xc**2] of the sample centred at
    its mean, and the M-step's sums of r, r * xc and r * xc**2 are the
    responsibilities times the same rows.  ``direct`` computes both from
    the squared distances (x - mu)**2 instead, the textbook form."""
    m = len(x)
    r_count = len(seeds)
    floor = _variance_floor(x)
    global_var = max(float(np.var(x)), floor)
    weights = np.empty((r_count, k))
    means = np.empty((r_count, k))
    variances = np.empty((r_count, k))
    for r, seed in enumerate(seeds):
        centers = _kmeanspp_centers(x, k, derive_rng(seed, "gmm-init", k))
        hard = np.argmin((x[:, None] - centers[None, :]) ** 2, axis=1)
        for j in range(k):
            sel = x[hard == j]
            if len(sel) == 0:
                weights[r, j] = 1.0 / m
                means[r, j] = centers[j]
                variances[r, j] = global_var
            else:
                weights[r, j] = len(sel) / m
                means[r, j] = sel.mean()
                variances[r, j] = max(float(np.var(sel)), floor)
    weights /= weights.sum(axis=1, keepdims=True)

    center = float(x.mean())
    xc = x - center
    rows = np.stack([np.ones(m), xc, xc * xc])
    ll = np.full(r_count, -math.inf)
    resp = np.empty((r_count, k, m))
    active = np.arange(r_count)
    for it in range(max_iter + 1):
        w, var = weights[active], variances[active]
        if direct:
            lp = _reference_log_joint(x, w, means[active], var)
        else:
            mu = means[active] - center
            coef = np.stack([
                np.log(w) - 0.5 * (np.log(2.0 * math.pi * var) + mu * mu * (1.0 / var)),
                mu * (1.0 / var),
                -0.5 * (1.0 / var),
            ], axis=-1)
            lp = coef @ rows
        resp[active], norm = reference_posterior(lp)
        new_ll = norm.sum(axis=1)
        old_ll = ll[active]
        if np.any(new_ll < old_ll - 1e-9 * (1.0 + np.abs(old_ll))):
            raise ConvergenceError("EM log-likelihood decreased")
        ll[active] = new_ll
        active = active[~(new_ll - old_ll < tol * (1.0 + np.abs(new_ll)))]
        if len(active) == 0 or it == max_iter:
            break
        ra = resp[active]
        if direct:
            nk = np.maximum(ra.sum(axis=2), 1e-300)
            mu = (ra @ x) / nk
            means[active] = mu
            variances[active] = np.maximum(((x[None, None, :] - mu[:, :, None]) ** 2 * ra).sum(axis=2) / nk, floor)
        else:
            sums = ra @ rows.T
            nk = np.maximum(sums[:, :, 0], 1e-300)
            mu = sums[:, :, 1] / nk
            means[active] = mu + center
            variances[active] = np.maximum(sums[:, :, 2] / nk - mu * mu, floor)
        weights[active] = nk / m
    return weights, means, variances, resp, ll


def _reference_restart_model(x, k: int, fit: tuple, r: int):
    weights, means, variances, resp, ll = fit
    components = tuple(
        GaussComponent(float(w), float(mu), float(v)) for w, mu, v in zip(weights[r], means[r], variances[r])
    )
    return ModeModel(
        components=components,
        assignments=resp[r].argmax(axis=0),
        responsibilities=resp[r].T,
        bic=_bic(k, len(x), float(ll[r])),
        log_likelihood=float(ll[r]),
    )


def reference_fit_gmm_1d(deltas, k: int, seed: int = 0, max_iter: int = 200, tol: float = 1e-8):
    """``fit_gmm_1d`` on :func:`reference_em_restarts` (k >= 2)."""
    x = np.asarray(deltas, dtype=float).ravel()
    return _reference_restart_model(x, k, reference_em_restarts(x, k, [seed], max_iter, tol), 0)


def reference_select_modes(deltas, k_max: int = 8, seed: int = 0, n_restarts: int = 10, max_iter: int = 200,
                           tol: float = 1e-8):
    """Minimum-BIC mixture over k = 1..k_max, fitting one k after the
    other on :func:`reference_em_restarts`, ties broken on (BIC, k,
    restart index)."""
    x = np.asarray(deltas, dtype=float).ravel()
    k_cap = min(k_max, int(np.unique(x).size), len(x))
    best = _closed_form_k1(x)
    best_key = (best.bic, 1, 0)
    table = [(1, best.bic)]
    for k in range(2, k_cap + 1):
        seeds = [_restart_seed(seed, k, r) for r in range(n_restarts)]
        fit = reference_em_restarts(x, k, seeds, max_iter, tol)
        bics = _bic(k, len(x), fit[4])
        r = int(np.argmin(bics))  # first minimum: lowest restart index on ties
        key = (float(bics[r]), k, r)
        if key < best_key:
            best, best_key = _reference_restart_model(x, k, fit, r), key
        table.append((k, float(bics[r])))
    return replace(best, bic_table=tuple(table))
