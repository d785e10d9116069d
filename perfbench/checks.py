"""Output checks computed apart from the program.

Every check takes plain data (edge lists, arrays, file paths) and returns
a list of failure messages, empty when the output is correct.  Nothing
here calls the pipeline: bases are checked by recomputing C = U^T H U
from each tree's parent map, mixtures by re-evaluating the likelihood
with ``scipy.stats.norm``, flooding trees by a forward-in-time walk over
the events, and SIR curves by a slow reference walk.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import logsumexp
from scipy.stats import norm

JD_TOL = 1e-9  # deviations against 2 * edges, avg_diag against its scale
LL_TOL = 1e-9  # recomputed log-likelihood below the reported one, relative
SEGMENT_FLOOR = 0.80  # criterion 6


def check_jd(label, edges, n, basis, avg_diag, deviations, history):
    """Joint diagonalisation of 0/1 tree matrices.

    ``edges[i]`` is tree i's (parents, children) pair of int arrays.
    """
    fails = []
    u = np.asarray(basis, dtype=float)
    dev = np.asarray(deviations, dtype=float)
    hist = np.asarray(history, dtype=float)
    if u.shape != (n, n):
        return [f"{label}: basis has shape {u.shape}, expected ({n}, {n})"]
    if len(dev) != len(edges):
        return [f"{label}: {len(dev)} deviations for {len(edges)} trees"]
    orth = float(np.abs(u.T @ u - np.eye(n)).max())
    if not orth <= 1e-10:
        fails.append(f"{label}: basis not orthogonal, max |U^T U - I| = {orth:.3e}")
    two_e = np.array([2.0 * len(p) for p, _ in edges])
    off = np.empty(len(edges))
    diag = np.empty((len(edges), n))
    for i, (par, chi) in enumerate(edges):
        ua, ub = u[par], u[chi]
        c = ua.T @ ub
        c += c.T  # U^T H U for H = sum over edges of e_a e_b^T + e_b e_a^T
        d = np.diagonal(c)
        diag[i] = d
        off[i] = float((c * c).sum() - (d * d).sum())
    bad = np.flatnonzero(~(np.abs(dev - off) <= JD_TOL * np.maximum(two_e, 1.0)))
    if len(bad):
        i = bad[0]
        fails.append(f"{label}: {len(bad)} deviations disagree with U^T H U, tree {i}: {float(dev[i])!r} vs {float(off[i])!r}")
    bad = np.flatnonzero(~((dev >= 0.0) & (dev <= two_e * (1.0 + 1e-12))))
    if len(bad):
        fails.append(f"{label}: {len(bad)} deviations outside [0, 2 * edges], tree {bad[0]}: {float(dev[bad[0]])!r}")
    mean_diag = diag.mean(axis=0)
    err = float(np.abs(mean_diag - np.asarray(avg_diag, dtype=float)).max())
    if not err <= JD_TOL * (1.0 + float(np.abs(mean_diag).max())):
        fails.append(f"{label}: avg_diag differs from the mean projected diagonal by {err:.3e}")
    if len(hist) < 1 or not np.all(np.isfinite(hist)):
        fails.append(f"{label}: off2 history empty or not finite")
    elif not np.all(np.diff(hist) <= 0.0):
        fails.append(f"{label}: off2 history increases at sweep {int(np.argmax(np.diff(hist) > 0)) + 1}")
    elif abs(hist[0] - two_e.sum()) > JD_TOL * two_e.sum() or abs(hist[-1] - dev.sum()) > JD_TOL * two_e.sum():
        fails.append(f"{label}: off2 history ends {hist[0]!r}..{hist[-1]!r}, expected {two_e.sum()!r}..{dev.sum()!r}")
    return fails


def check_mixture(values, complete, components, assignments, bic_table, bic, log_likelihood, modes):
    """Deviation mixture: selection, posterior assignment, the
    log-likelihood and the partition of the batch into modes.

    ``complete`` flags the trees the mixture was fitted on;
    ``components`` is a list of (weight, mean, variance); ``modes`` a list
    of (component index, member indices), empty modes left out.

    The log-likelihood check is one-sided.  An EM restart stopped at its
    iteration limit reports the likelihood of the parameters before its
    last M-step, and EM never lowers the likelihood, so the recomputed
    value may exceed the reported one; it may not fall below it.
    """
    fails = []
    x = np.asarray(values, dtype=float)
    assign = np.asarray(assignments, dtype=int)
    w, mu, var = (np.array(col, dtype=float) for col in zip(*components))
    k = len(components)
    # a mode's members are exactly the trees assigned to its component,
    # and the modes together cover every tree once
    joined = np.sort(np.concatenate([np.asarray(m, dtype=int) for _, m in modes])) if modes else np.array([], int)
    if not np.array_equal(joined, np.arange(len(x))):
        fails.append("mixture: modes do not partition the batch")
    for j, members in modes:
        if not np.array_equal(np.sort(np.asarray(members, dtype=int)), np.flatnonzero(assign == j)):
            fails.append(f"mixture: members of mode {j} are not the trees assigned to it")
    best_bic, best_k = min((float(b), int(kk)) for kk, b in bic_table)
    if best_k != k or not abs(best_bic - bic) <= 1e-9 * (1.0 + abs(bic)):
        fails.append(f"mixture: selected k={k} with BIC {bic!r}, but the BIC table is minimal at k={best_k}")
    post = np.log(w)[None, :] + norm.logpdf(x[:, None], loc=mu[None, :], scale=np.sqrt(var)[None, :])
    moved = np.flatnonzero(post.argmax(axis=1) != assign)
    if len(moved):
        fails.append(f"mixture: {len(moved)} trees not in their maximum-posterior mode, first {moved[0]}")
    gap = likelihood_gap(x, complete, components, log_likelihood)
    if not gap >= -LL_TOL * (1.0 + abs(float(log_likelihood))):
        fails.append(f"mixture: log-likelihood recomputed over the complete trees, {float(log_likelihood) + gap!r}, "
                     f"is below the reported {float(log_likelihood)!r}")
    return fails


def likelihood_gap(values, complete, components, log_likelihood):
    """Log-likelihood of the fitted mixture over the complete trees,
    recomputed with ``scipy.stats.norm``, minus the one reported: zero
    for a restart that converged, positive for one stopped at its
    iteration limit."""
    x = np.asarray(values, dtype=float)[np.asarray(complete, dtype=bool)]
    w, mu, var = (np.array(col, dtype=float) for col in zip(*components))
    lp = np.log(w)[None, :] + norm.logpdf(x[:, None], loc=mu[None, :], scale=np.sqrt(var)[None, :])
    return float(logsumexp(lp, axis=1).sum()) - float(log_likelihood)


def distinct_edges(edges, n):
    """Number of distinct undirected edges the trees use; ``edges[i]`` is
    tree i's (parents, children) pair of int arrays."""
    keys = [np.minimum(p, c) * n + np.maximum(p, c) for p, c in edges]
    return int(len(np.unique(np.concatenate(keys)))) if keys else 0


def segment_accuracy(starts, assignments, segment_steps, n_segments, margin=50.0):
    """Criterion-6 rule: each schedule segment maps to its majority mode;
    the share of trees in their segment's mode, counted away from the
    switches."""
    starts = np.asarray(starts, dtype=float)
    assign = np.asarray(assignments, dtype=int)
    segment = np.minimum((starts // segment_steps).astype(int), n_segments - 1)
    champion = np.array([np.bincount(assign[segment == s], minlength=assign.max() + 1).argmax()
                         if np.any(segment == s) else -1 for s in range(n_segments)])
    switches = segment_steps * np.arange(1, n_segments)
    far = np.abs(starts[:, None] - switches[None, :]).min(axis=1, initial=np.inf) > margin
    return float((assign == champion[segment])[far].mean())


def check_segments(label, starts, assignments, segment_steps, n_segments):
    """Criterion-6 rule: at least ``SEGMENT_FLOOR`` of the trees away from
    the switches sit in their segment's majority mode.  Returns
    (failures, accuracy)."""
    acc = segment_accuracy(starts, assignments, segment_steps, n_segments)
    if not acc >= SEGMENT_FLOOR:
        return [f"{label}: segment-majority accuracy {acc:.4f} below {SEGMENT_FLOOR} away from the switches"], acc
    return [], acc


def _flood_bounds(ev_a, ev_b, ev_t, n, root, start):
    """Earliest arrival times of a flood from (root, start).

    At one timestamp the program delivers in some order, so a message may
    or may not pass along two events sharing a timestamp.  ``strict``
    lets only nodes informed before a timestamp send at it; ``weak`` lets
    a message cross any chain of events at one timestamp.  Every order the
    program may take lies between the two.
    """
    strict = {root: start}
    weak = {root: start}
    i = int(np.searchsorted(ev_t, start, side="left"))
    m = len(ev_t)
    while i < m and len(strict) < n:
        t = ev_t[i]
        j = i
        while j < m and ev_t[j] == t:
            j += 1
        group = [(int(ev_a[q]), int(ev_b[q])) for q in range(i, j)]
        new = {}
        for a, b in group:
            if (a in strict) != (b in strict):
                new.setdefault(b if a in strict else a, float(t))
        strict.update(new)
        grown = True
        while grown:
            grown = False
            for a, b in group:
                if (a in weak) != (b in weak):
                    weak[b if a in weak else a] = float(t)
                    grown = True
        i = j
    return strict, weak


def check_flood(ev_a, ev_b, ev_t, n, tree_id, root, start, parent, infection_times, reached, partial):
    """One flooding tree against the events it was drawn from."""
    label = f"sampling: tree {tree_id}"
    strict, weak = _flood_bounds(ev_a, ev_b, ev_t, n, root, start)
    reached = set(reached)
    fails = []
    if not (set(strict) <= reached <= set(weak)):
        fails.append(f"{label}: reached set is not the set reachable from node {root} at {start!r}")
    if partial != (len(reached) < n) or len(parent) != len(reached) - 1 or root in parent:
        fails.append(f"{label}: parent map or partial flag inconsistent with the reached set")
    for v in reached:
        tv = infection_times.get(v)
        if tv is None or not weak.get(v, math.inf) <= tv <= strict.get(v, math.inf):
            fails.append(f"{label}: node {v} informed at {tv!r}, earliest possible {weak.get(v)!r}")
            break
    for child, par in parent.items():
        t = infection_times.get(child)
        if par not in reached or t is None or infection_times.get(par, math.inf) > t:
            fails.append(f"{label}: edge {par}->{child} does not follow the flood")
            break
        lo = int(np.searchsorted(ev_t, t, side="left"))
        hi = int(np.searchsorted(ev_t, t, side="right"))
        pair = {par, child}
        if not any({int(ev_a[q]), int(ev_b[q])} == pair for q in range(lo, hi)):
            fails.append(f"{label}: edge {par}->{child} is no contact at {t!r}")
            break
    return fails


# --------------------------------------------------------------------------
# repro artefacts


def parse_batch(path):
    """(n_nodes, trees) from a batch file; each tree is
    (root, start, partial, parents, children)."""
    trees = []
    n_nodes = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#n_nodes="):
                n_nodes = int(line.split()[0].split("=")[1])
            elif line.startswith("T,"):
                _, root, start, partial = line.split(",")
                trees.append((int(root), float(start), partial == "1", [], []))
            elif line.startswith("E,"):
                _, par, child = line.split(",")
                trees[-1][3].append(int(par))
                trees[-1][4].append(int(child))
    return n_nodes, [(r, s, p, np.array(a, dtype=int), np.array(b, dtype=int)) for r, s, p, a, b in trees]


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def sir_reference(trace_rows, n, node, runs, seed, p, recovery_mean, start_step, horizon, derive_rng):
    """Mean susceptible curve of ``runs`` outbreaks from ``node``, walked
    event by event.

    Run r draws from ``derive_rng(seed, "sir", node, r)``: first one
    uniform per event in the window, then one Poisson duration per node.
    An event first retires endpoints whose infectious time is over, then
    infects a susceptible endpoint of an infectious one when its uniform
    falls below ``p``.  S at snapshot k counts nodes not infected in any
    step before ``start_step + k``.  Steps are whole time units from the
    first event, the granularity of the synthetic traces.
    """
    t_min = trace_rows[0][2]
    window = [(a, b, s) for a, b, s in ((a, b, math.floor(t - t_min)) for a, b, t in trace_rows)
              if start_step <= s < start_step + horizon]
    curves = np.empty((runs, horizon + 1))
    for r in range(runs):
        rng = derive_rng(seed, "sir", node, r)
        uniforms = rng.random(len(window))
        durations = rng.poisson(recovery_mean, n)
        infectious_until = {node: start_step + int(durations[node])}
        recovered = set()
        infected_at = {}
        for idx, (a, b, step) in enumerate(window):
            for v in (a, b):
                if v in infectious_until and step >= infectious_until[v]:
                    del infectious_until[v]
                    recovered.add(v)
            for src, dst in ((a, b), (b, a)):
                susceptible = dst not in infectious_until and dst not in recovered
                if src in infectious_until and susceptible and uniforms[idx] < p:
                    infectious_until[dst] = step + int(durations[dst])
                    infected_at[dst] = step
        for k in range(horizon + 1):
            curves[r, k] = n - 1 - sum(1 for s in infected_at.values() if s < start_step + k)
    return curves.mean(axis=0)


def artefact_hashes(out):
    """SHA-256 of every file under ``out``, the manifest's timestamp line
    left out."""
    hashes = {}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = b"\n".join(line for line in data.split(b"\n") if b"created_at" not in line)
            hashes[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return hashes


def check_repro(out, seed, derive_rng, sir_nodes=3):
    """Artefacts of one ``contactmodes repro`` run.  Returns (failures,
    quality figures)."""
    out = Path(out)
    fails = []
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()} - {"manifest.json"}
    if manifest.get("status") != "ok" or set(manifest.get("artefacts", ())) != written:
        fails.append(f"repro: manifest status {manifest.get('status')!r} or its artefact list is not the files written")
    cfg = json.loads((out / "config.json").read_text(encoding="utf-8"))

    n, trees = parse_batch(out / "sample" / "batch.txt")
    edges = [(par, chi) for _, _, _, par, chi in trees]
    jd = json.loads((out / "analyse" / "jd.json").read_text(encoding="utf-8"))
    fails += check_jd("repro jd.json", edges, n, jd["basis"], jd["avg_diag"], jd["deviations"], jd["off2_history"])

    report = json.loads((out / "analyse" / "report.json").read_text(encoding="utf-8"))
    rows = _read_csv(out / "analyse" / "samples.csv")
    values = np.array([float(r["delta"]) for r in rows])
    assign = np.array([int(r["mode"]) for r in rows])
    if not np.array_equal(values, np.asarray(jd["deviations"], dtype=float)):
        fails.append("repro: samples.csv deviations differ from jd.json")
    complete = [not partial for _, _, partial, _, _ in trees]
    components = [(c["weight"], c["mean"], c["variance"]) for c in report["components"]]
    fails += check_mixture(values, complete, components, assign, report["bic_table"], report["bic"],
                           report["log_likelihood"], [(m["index"], m["members"]) for m in report["modes"]])
    # the repro input is fixed, so the criterion-6 rule holds on every
    # operation alike (on `switching` it fails on some sampling seeds)
    segment_fails, accuracy = check_segments("repro", [t[1] for t in trees], assign, cfg["segment_steps"], 4)
    fails += segment_fails
    quality = {
        "sampling.distinct_edges": distinct_edges(edges, n),
        "modes.segment_accuracy": accuracy,
        "modes.ll_gap": likelihood_gap(values, complete, components, report["log_likelihood"]),
    }

    curves = {}
    for r in _read_csv(out / "sir" / "curves.csv"):
        curves.setdefault(int(r["seed_node"]), []).append(
            (float(r["mean_s"]), float(r["ci_low"]), float(r["ci_high"]))
        )
    n_sir = cfg["n_nodes"]
    half = {}
    for node, rows_ in sorted(curves.items()):
        mean, lo, hi = (np.array(col) for col in zip(*rows_))
        if mean[0] != n_sir - 1 or np.any(np.diff(mean) > 0) or np.any(lo > mean) or np.any(mean > hi):
            fails.append(f"repro: SIR curve of node {node} breaks S(0) = n - 1, monotone S or its band")
        below = np.flatnonzero(mean < 0.5 * n_sir)
        half[node] = int(below[0]) if len(below) else None
    ranking = json.loads((out / "sir" / "ranking.json").read_text(encoding="utf-8"))
    order = sorted(half, key=lambda v: (math.inf if half[v] is None else half[v], v))
    if ranking["order"] != order or ranking["half_time"] != {str(v): h for v, h in half.items()}:
        fails.append("repro: ranking.json disagrees with the half-times of curves.csv")

    trace = [(int(r["node_a"]), int(r["node_b"]), float(r["start"])) for r in _read_csv(out / "synth" / "trace.csv")]
    picked = np.random.default_rng([seed, 1]).choice(sorted(curves), size=min(sir_nodes, len(curves)), replace=False)
    for node in sorted(int(v) for v in picked):
        ref = sir_reference(trace, n_sir, node, cfg["runs"], cfg["seed"], cfg["p"], cfg["recovery_mean"],
                            cfg["start_step"], cfg["horizon"], derive_rng)
        if not np.array_equal(ref, np.array([row[0] for row in curves[node]])):
            fails.append(f"repro: mean SIR curve of node {node} differs from the reference walk")
    return fails, quality
