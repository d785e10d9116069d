"""Release acceptance gate.

Eleven numbered criteria covering the full pipeline: joint-diagonalisation
exactness and monotonicity, tree-usage weight recovery, route suppression,
a unimodal control on a homogeneous trace, mixture model selection on a
switching trace, boundary smear, bridge detection with SIR ranking,
Fiedler clustering, the numerics battery, and byte-level reproducibility
of the CLI pipeline.

Each test prints one ``[PASS]``/``[FAIL]`` line with the measured numbers
on the real stdout (bypassing pytest capture) before asserting, so the
tally is visible in any captured log.  All tolerances and budgets are
fixed here; the seeds are pinned so every number is reproducible.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

import conftest
from contactmodes import jointdiag as jd
from contactmodes.cli import main as cli_main
from contactmodes.clustering import fiedler_dendrogram, shortest_path_graph
from contactmodes.epidemic import default_params, ranking_table, sir_experiment
from contactmodes.generators import (
    default_switching_schedule,
    gen_random_contacts,
    gen_switching,
)
from contactmodes.jointdiag import eig_sym, off2, project, reconstruct_average
from contactmodes.modes import decompose, gamma_ks, submode_decompose
from contactmodes.network import StaticGraph, TemporalNetwork
from contactmodes.sampling import edge_preference, filter_batch, sample_batch
from contactmodes.seeds import derive_rng
from oracles import count_density_modes


_CAPSYS = None


@pytest.fixture(autouse=True)
def _route_announcements(capsys):
    """Let _announce bypass capture so the tally always reaches stdout."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _announce(ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {text}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


# ---------------------------------------------------------------------------
# criterion 1 — joint diagonalisation is exact on solvable sets


def test_criterion_01_jd_exact_on_commuting_sets():
    worst_ratio = worst_angle = worst_time = 0.0
    for trial in range(20):
        rng = derive_rng(1000 + trial, "commuting-set")
        basis, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        diags = rng.normal(size=(50, 10))
        stack = np.einsum("ik,mk,jk->mij", basis, diags, basis)
        stack = 0.5 * (stack + stack.transpose(0, 2, 1))
        t0 = time.perf_counter()
        res = jd.joint_diagonalise(stack, tol=1e-9, max_sweeps=100)
        worst_time = max(worst_time, time.perf_counter() - t0)
        assert res.converged
        worst_ratio = max(worst_ratio, res.off2_history[-1] / res.off2_history[0])
        overlap = np.abs(res.basis.values.T @ basis)
        perm = overlap.argmax(axis=0)
        assert sorted(perm.tolist()) == list(range(10)), "columns do not match up to permutation"
        dots = np.clip(overlap[perm, np.arange(10)], -1.0, 1.0)
        worst_angle = max(worst_angle, float(np.arccos(dots).max()))
    ok = worst_ratio <= 1e-8 and worst_angle < 1e-6 and worst_time < 5.0
    _announce(
        ok,
        "criterion 1: joint diagonalisation exact on 20/20 solvable sets "
        f"(worst off2 ratio {worst_ratio:.1e} <= 1e-8, worst basis angle "
        f"{worst_angle:.1e} < 1e-6, worst time {worst_time:.2f}s < 5s)",
    )
    assert worst_ratio <= 1e-8
    assert worst_angle < 1e-6
    assert worst_time < 5.0


# ---------------------------------------------------------------------------
# criteria 3 and 4 — exact tree-usage weights and preferred-route suppression
# on a 7-node graph whose breadth-first outcomes are exactly enumerable


TRI_TWIN_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6)]
# Exact per-edge usage proportions over all roots and tie-breaks, from a
# hand enumeration of the breadth-first outcomes on this graph.
TRI_TWIN_USAGE = {
    (0, 1): 2 / 7,
    (0, 2): 6 / 7,
    (1, 2): 6 / 7,
    (2, 3): 11 / 14,
    (2, 4): 11 / 14,
    (3, 5): 5 / 7,
    (4, 5): 5 / 7,
    (5, 6): 1.0,
}
TRI_TWIN_SEED = 3
PREFERRED_EDGE = (4, 5)


@pytest.fixture(scope="module")
def tri_twin_run():
    graph = StaticGraph.from_edges(7, TRI_TWIN_EDGES)
    t0 = time.perf_counter()
    batch = sample_batch(graph, 10_000, seed=TRI_TWIN_SEED)
    hbar = np.asarray(reconstruct_average(jd.joint_diagonalise(batch)))
    elapsed = time.perf_counter() - t0
    return batch, hbar, elapsed


def test_criterion_03_tree_usage_weights(tri_twin_run):
    _, hbar, elapsed = tri_twin_run
    worst = max(abs(float(hbar[e]) - u) for e, u in TRI_TWIN_USAGE.items())
    ok = worst <= 0.05 and elapsed < 30.0
    _announce(
        ok,
        "criterion 3: average-graph weights match exact usage on all 8 edges "
        f"(twin edge {float(hbar[2, 3]):.4f} vs 11/14 = {11 / 14:.4f}; "
        f"max |error| {worst:.4f} <= 0.05; m=10000 in {elapsed:.1f}s < 30s)",
    )
    assert worst <= 0.05
    assert elapsed < 30.0


def test_criterion_04_preferred_route_suppression(tri_twin_run):
    batch, hbar, _ = tri_twin_run
    i, j = PREFERRED_EDGE
    filtered = filter_batch(
        batch, edge_preference(i, j, 0.2), derive_rng(TRI_TWIN_SEED, "filter")
    )
    hbar_f = np.asarray(reconstruct_average(jd.joint_diagonalise(filtered)))
    factor = float(hbar[i, j]) / float(hbar_f[i, j])
    ok = factor >= 2.5
    _announce(
        ok,
        f"criterion 4: keeping 20% of trees through edge {PREFERRED_EDGE} drops its "
        f"weight {float(hbar[i, j]):.4f} -> {float(hbar_f[i, j]):.4f} "
        f"(factor {factor:.2f} >= 2.5)",
    )
    assert factor >= 2.5


# ---------------------------------------------------------------------------
# criterion 5 — unimodal control on a homogeneous random contact network
#
# A homogeneous trace should show one mode of behaviour.  A mode is a peak
# of the fitted deviation density, which is not the same as a mixture
# component: BIC splits any skewed unimodal sample into several Gaussians.
# The deviation of a complete tree is ||H||^2 - ||diag(U^T H U)||^2, i.e.
# 2 * n_edges minus a sum of about n - 1 squared projections, so it is the
# mirror image of that sum; the gamma fit is taken on the sum,
# 2 * n_edges - delta, over the complete trees.


@pytest.fixture(scope="module")
def unimodal_runs():
    rows = []
    elapsed = 0.0
    for s in range(10):
        t0 = time.perf_counter()
        net = gen_random_contacts(50, 0.05, 2000, seed=s)
        batch = sample_batch(net, 2000, seed=s)
        report = decompose(batch, k_max=8, seed=0, tol=1e-2, max_sweeps=100, n_restarts=5)
        deltas = report.deltas()
        complete = np.array([not t.partial for t in batch.samples])
        n_edges = np.array([t.n_edges for t in batch.samples])
        fit = gamma_ks((2 * n_edges - deltas)[complete])
        elapsed += time.perf_counter() - t0
        components = [(c.weight, c.mean, c.variance) for c in report.model.components]
        peaks = count_density_modes(components, float(deltas.min()), float(deltas.max()))
        rows.append((s, report.model.k, peaks, fit.p_value))
    return rows, elapsed


def test_criterion_05_unimodal_control(unimodal_runs):
    rows, elapsed = unimodal_runs
    ks = [k for _, k, _, _ in rows]
    peaks = [p for _, _, p, _ in rows]
    pvals = [p for _, _, _, p in rows]
    n_uni = sum(p == 1 for p in peaks)
    n_ks = sum(p >= 0.01 for p in pvals)
    ok = n_uni >= 8 and n_ks >= 8 and elapsed < 120.0
    _announce(
        ok,
        f"criterion 5: homogeneous control — one density mode in {n_uni}/10 seeds "
        f"(need >= 8; modes: {peaks}; BIC components: {ks}), gamma KS on "
        f"2*edges - delta p >= 0.01 in {n_ks}/10 (need >= 8; "
        f"p: {[f'{p:.3f}' for p in pvals]}), {elapsed:.0f}s < 120s",
    )
    assert n_uni >= 8, f"fitted deviation density unimodal in only {n_uni}/10 seeds"
    assert n_ks >= 8, f"gamma KS accepted in only {n_ks}/10 seeds"
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criteria 6 and 7 — mode recovery and boundary smear on the bundled
# 4-segment switching schedule


SEGMENT_STEPS = 700.0
SWITCH_BOUNDARIES = np.array([700.0, 1400.0, 2100.0])
BOUNDARY_MARGIN = 50.0


@pytest.fixture(scope="module")
def switching_run():
    schedule = default_switching_schedule()
    switching = gen_switching(schedule, seed=0)
    t0 = time.perf_counter()
    batch = sample_batch(switching.network, 4000, seed=7000)
    report = decompose(batch, k_max=8, seed=0, tol=1e-2, max_sweeps=100)
    elapsed = time.perf_counter() - t0
    starts = np.array([s.start_time for s in batch.samples])
    segment = np.minimum((starts // SEGMENT_STEPS).astype(int), 3)
    dist = np.abs(starts[:, None] - SWITCH_BOUNDARIES[None, :]).min(axis=1)
    far = dist > BOUNDARY_MARGIN
    assign = np.asarray(report.model.assignments)
    k = report.model.k
    # map each schedule segment to its majority mode; a sample counts as
    # correctly classified when its mode is its segment's majority mode
    champion = np.array(
        [np.bincount(assign[segment == s], minlength=k).argmax() for s in range(4)]
    )
    correct = assign == champion[segment]
    return {
        "report": report,
        "segment": segment,
        "far": far,
        "assign": assign,
        "correct": correct,
        "champion": champion,
        "k": k,
        "elapsed": elapsed,
    }


def test_criterion_06_switching_mode_recovery(switching_run):
    run = switching_run
    k = run["k"]
    far, correct = run["far"], run["correct"]
    acc_far = float(correct[far].mean())
    sub_note = "submode split not triggered (k=4)"
    sub_ok = True
    if k == 3:
        # the two tail segments collapse into one mode; recurse on it
        merged = int(run["champion"][2])
        sub_ok = run["champion"][3] == merged
        sub = submode_decompose(run["report"], merged, k_max=8, seed=0, tol=1e-2)
        members = np.asarray(run["report"].modes[merged].members)
        sub_assign = np.asarray(sub.model.assignments)
        seg = run["segment"][members]
        sub_champ = np.array(
            [
                np.bincount(sub_assign[seg == s], minlength=sub.model.k).argmax()
                for s in (2, 3)
            ]
        )
        sub_correct = sub_assign == np.where(seg == 2, sub_champ[0], sub_champ[1])
        sub_far = run["far"][members]
        sub_acc = float(sub_correct[sub_far].mean())
        sub_ok = sub_ok and sub.model.k == 2 and sub_acc >= 0.80
        sub_note = f"submodes k={sub.model.k} (need 2), alignment {sub_acc:.3f} >= 0.80"
    ok = k in (3, 4) and acc_far >= 0.80 and sub_ok and run["elapsed"] < 600.0
    _announce(
        ok,
        f"criterion 6: switching schedule — selected k={k} in {{3,4}}, majority-mode "
        f"accuracy {acc_far:.3f} >= 0.80 away from boundaries, {sub_note}, "
        f"{run['elapsed']:.0f}s < 600s",
    )
    assert k in (3, 4)
    assert acc_far >= 0.80
    assert sub_ok
    assert run["elapsed"] < 600.0


def test_criterion_07_boundary_smear(switching_run):
    run = switching_run
    far, correct = run["far"], run["correct"]
    mis_near = float(1.0 - correct[~far].mean())
    mis_far = float(1.0 - correct[far].mean())
    ok = mis_near > mis_far
    _announce(
        ok,
        f"criterion 7: misassignment near switches {mis_near:.4f} strictly exceeds "
        f"away-from-switch rate {mis_far:.4f}",
    )
    assert mis_near > mis_far


# ---------------------------------------------------------------------------
# criterion 2 — every joint-diagonalisation run in the suite has a
# non-increasing off2 history.  The session-wide guard in conftest fails
# any offending test on the spot; this test audits the accumulated record.
# It deliberately depends on the heavy fixtures so the audit covers them.


def test_criterion_02_off2_monotonicity(unimodal_runs, switching_run, tri_twin_run):
    histories = conftest.JD_HISTORIES
    bad = sum(bool(np.any(np.diff(h) > 0.0)) for h in histories)
    ok = bad == 0 and len(histories) >= 30
    _announce(
        ok,
        f"criterion 2: off2 history non-increasing in all {len(histories)} joint "
        f"diagonalisation runs recorded so far ({bad} violations; suite-wide "
        "guard stays active for the remaining tests)",
    )
    assert bad == 0
    assert len(histories) >= 30


# ---------------------------------------------------------------------------
# criterion 8 — bridge detection and SIR seed ranking on a planted
# two-clique contact network


BRIDGE = (3, 13)


def two_clique_bridge_net(
    seed: int = 0,
    steps: int = 600,
    p_member: float = 0.04,
    p_gateway: float = 0.30,
    bridge_period: int = 10,
    hot_tail: int = 30,
) -> TemporalNetwork:
    """Two 10-cliques joined only by the gateway edge (3, 13).

    Within each clique the gateway node meets other members far more
    often than members meet each other, the bridge fires every
    ``bridge_period`` steps, and over the final ``hot_tail`` steps the
    gateways and the bridge fire every step so that floods started near
    the end of the trace still span both cliques.
    """
    rng = derive_rng(seed, "bridge-net")
    cliques = (range(0, 10), range(10, 20))
    gateways = BRIDGE
    events = []
    for t in range(steps):
        ts = float(t)
        for clique, gate in zip(cliques, gateways):
            for i in clique:
                for j in clique:
                    if i >= j:
                        continue
                    p = p_gateway if gate in (i, j) else p_member
                    if rng.random() < p:
                        events.append((i, j, ts, ts + 1.0))
        fire = t % bridge_period == 0
        if t >= steps - hot_tail:
            fire = True
            for clique, gate in zip(cliques, gateways):
                for k in clique:
                    if k != gate:
                        events.append((min(gate, k), max(gate, k), ts, ts + 1.0))
        if fire:
            events.append((*BRIDGE, ts, ts + 1.0))
    a, b, start, end = zip(*sorted(set(events), key=lambda e: (e[2], e[0], e[1])))
    return TemporalNetwork(n_nodes=20, a=a, b=b, start=start, end=end, granularity=1.0)


def test_criterion_08_bridge_detection_and_sir_ranking():
    t0 = time.perf_counter()
    net = two_clique_bridge_net()
    batch = sample_batch(net, 400, seed=44)
    report = decompose(batch, k_max=8, seed=0, tol=1e-6, max_sweeps=100)
    spg_ok = all(
        shortest_path_graph(mode.matrix, 0.05).adjacency[BRIDGE] > 0
        for mode in report.modes
    )
    curves = sir_experiment(net, default_params(net), runs_per_node=30, seed=9)
    ranking = ranking_table(curves, net.n_nodes)
    top3 = {node for node, _ in ranking[:3]}
    elapsed = time.perf_counter() - t0
    ok = spg_ok and set(BRIDGE) <= top3 and elapsed < 300.0
    _announce(
        ok,
        f"criterion 8: bridge edge in all {len(report.modes)} per-mode presentation "
        f"graphs ({spg_ok}); SIR ranks gateway nodes {sorted(set(BRIDGE))} in top 3 "
        f"(top 3: {ranking[:3]}); {elapsed:.0f}s < 300s",
    )
    assert spg_ok
    assert set(BRIDGE) <= top3
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 9 — exact recovery of planted block structure by recursive
# Fiedler bisection


def _symmetric_uniform(rng, n: int, lo: float, hi: float) -> np.ndarray:
    a = np.triu(rng.uniform(lo, hi, size=(n, n)), 1)
    return a + a.T


def planted_two_block(seed: int, n: int = 16) -> np.ndarray:
    rng = derive_rng(seed, "planted-two-block")
    w = _symmetric_uniform(rng, n, 0.8, 1.2)
    cross = _symmetric_uniform(rng, n, 0.0, 0.1)
    half = n // 2
    w[:half, half:] = cross[:half, half:]
    w[half:, :half] = cross[half:, :half]
    np.fill_diagonal(w, 0.0)
    return w

def planted_hierarchy(seed: int, n: int = 16) -> np.ndarray:
    rng = derive_rng(seed, "planted-hierarchy")
    w = _symmetric_uniform(rng, n, 0.0, 0.05)
    within = _symmetric_uniform(rng, n, 0.25, 0.35)
    tight = _symmetric_uniform(rng, n, 0.9, 1.1)
    for a in (0, 8):
        w[a : a + 8, a : a + 8] = within[a : a + 8, a : a + 8]
    for a in (0, 4, 8, 12):
        w[a : a + 4, a : a + 4] = tight[a : a + 4, a : a + 4]
    np.fill_diagonal(w, 0.0)
    return w


def test_criterion_09_planted_fiedler_recovery():
    halves = [tuple(range(8)), tuple(range(8, 16))]
    quarters = [tuple(range(a, a + 4)) for a in (0, 4, 8, 12)]
    ok_two = ok_hier = 0
    for seed in range(20):
        if fiedler_dendrogram(planted_two_block(seed)).blocks_at_level(1) == halves:
            ok_two += 1
        dendro = fiedler_dendrogram(planted_hierarchy(seed))
        if (
            dendro.blocks_at_level(1) == halves
            and dendro.blocks_at_level(2) == quarters
        ):
            ok_hier += 1
    ok = ok_two == 20 and ok_hier == 20
    _announce(
        ok,
        f"criterion 9: planted 2-block recovered {ok_two}/20 seeds, planted 2x2 "
        f"hierarchy recovered at both levels {ok_hier}/20 seeds",
    )
    assert ok_two == 20
    assert ok_hier == 20


# ---------------------------------------------------------------------------
# criterion 10 — numerics battery


def test_criterion_10_numerics_battery():
    rng = derive_rng(2024, "numerics")

    worst_resid = worst_orth = 0.0
    for n in rng.integers(2, 101, size=100):
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        eigvals, basis = eig_sym(a)
        u = basis.values
        resid = np.linalg.norm(u @ np.diag(eigvals) @ u.T - a) / np.linalg.norm(a)
        orth = float(np.abs(u.T @ u - np.eye(n)).max())
        worst_resid = max(worst_resid, float(resid))
        worst_orth = max(worst_orth, orth)

    worst_off2 = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = rng.normal(size=(n, n))
        brute = sum(
            a[i, j] ** 2 for i in range(n) for j in range(n) if i != j
        )
        worst_off2 = max(worst_off2, abs(off2(a) - brute) / (1.0 + brute))

    worst_proj = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 10))
        h = rng.normal(size=(n, n))
        h = 0.5 * (h + h.T)
        g = rng.normal(size=(n, n))
        _, basis = eig_sym(0.5 * (g + g.T))
        u = basis.values
        got = np.asarray(project(h, basis))
        brute = np.array(
            [
                [
                    sum(u[k, i] * h[k, l] * u[l, j] for k in range(n) for l in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        worst_proj = max(worst_proj, float(np.abs(got - brute).max()))

    worst_trace = worst_frob = 0.0
    for trial in range(5):
        stack = rng.normal(size=(12, 8, 8))
        stack = 0.5 * (stack + stack.transpose(0, 2, 1))
        res = jd.joint_diagonalise(stack, tol=1e-9, max_sweeps=100)
        u = res.basis.values
        rotated = np.einsum("ki,mkl,lj->mij", u, stack, u)
        scale = 1.0 + float(np.abs(stack).max())
        worst_trace = max(
            worst_trace,
            float(np.abs(np.trace(rotated, axis1=1, axis2=2) - np.trace(stack, axis1=1, axis2=2)).max()) / scale,
        )
        worst_frob = max(
            worst_frob,
            float(
                np.abs(
                    np.linalg.norm(rotated, axis=(1, 2)) - np.linalg.norm(stack, axis=(1, 2))
                ).max()
            )
            / scale,
        )

    ok = (
        worst_resid <= 1e-8
        and worst_orth <= 1e-10
        and worst_off2 <= 1e-12
        and worst_proj <= 1e-12
        and worst_trace <= 1e-8
        and worst_frob <= 1e-8
    )
    _announce(
        ok,
        "criterion 10: numerics — eig_sym relative residual "
        f"{worst_resid:.1e} <= 1e-8 and orthogonality {worst_orth:.1e} <= 1e-10 "
        f"on 100 random matrices; off2/project vs brute force {worst_off2:.1e}/"
        f"{worst_proj:.1e} <= 1e-12; trace/Frobenius drift {worst_trace:.1e}/"
        f"{worst_frob:.1e} <= 1e-8 under rotation",
    )
    assert worst_resid <= 1e-8
    assert worst_orth <= 1e-10
    assert worst_off2 <= 1e-12
    assert worst_proj <= 1e-12
    assert worst_trace <= 1e-8
    assert worst_frob <= 1e-8


# ---------------------------------------------------------------------------
# criterion 11 — the bundled pipeline is byte-for-byte reproducible


def test_criterion_11_repro_byte_identical(tmp_path):
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    assert cli_main(["repro", "--out", str(out_a)]) == 0
    assert cli_main(["repro", "--out", str(out_b)]) == 0

    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    diffs = []
    for rel in files_a:
        data_a = (out_a / rel).read_bytes()
        data_b = (out_b / rel).read_bytes()
        if rel.name == "manifest.json":
            strip = lambda data: b"\n".join(
                line for line in data.split(b"\n") if b"created_at" not in line
            )
            data_a, data_b = strip(data_a), strip(data_b)
        if data_a != data_b:
            diffs.append(str(rel))
    ok = not diffs
    _announce(
        ok,
        f"criterion 11: repeated `repro` runs byte-identical over {len(files_a)} "
        f"artefacts (timestamp field excluded; differing: {diffs or 'none'})",
    )
    assert not diffs
