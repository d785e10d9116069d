import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import contactmodes
from contactmodes import (
    ConvergenceError,
    DataError,
    GaussComponent,
    ModeModel,
    decompose,
    derive_rng,
    fit_gmm_1d,
    gamma_ks,
    kde_density,
    mode_time_histogram,
    per_mode_reconstruction,
    select_modes,
    submode_decompose,
)
from contactmodes import jointdiag as jd_mod
from contactmodes import modes as modes_mod
from contactmodes.jointdiag import JdResult
from contactmodes.modes import gamma_moment_fit, write_report
from contactmodes.sampling import SampleBatch, SourceInfo, TreeSample
from oracles import (
    _reference_log_joint,
    count_density_modes,
    reference_em_restarts,
    reference_fit_gmm_1d,
    reference_posterior,
    reference_select_modes,
)


def _tree_sample(parent, root=0, start=0.0):
    return TreeSample(root=root, start_time=start, parent=dict(parent))


def _two_mode_batch(m0=12, m1=9, n=6):
    """m0 copies of a path tree near t=10 and m1 copies of a star tree
    near t=100: two crisply separated behavioural modes."""
    path = {i: i - 1 for i in range(1, n)}
    star = {i: 0 for i in range(1, n)}
    samples = [_tree_sample(path, start=10.0 + 0.1 * i) for i in range(m0)]
    samples += [_tree_sample(star, start=100.0 + 0.1 * i) for i in range(m1)]
    info = SourceInfo(kind="temporal", t_min=0.0, t_max=120.0)
    return SampleBatch(samples=tuple(samples), n_nodes=n, seed=0, source=info)


# ---------------------------------------------------------------------------
# 1-D Gaussian mixtures


def test_fit_gmm_k1_closed_form():
    x = np.array([1.0, 2.0, 3.0, 6.0])
    model = fit_gmm_1d(x, k=1)
    c = model.components[0]
    assert c.weight == pytest.approx(1.0)
    assert c.mean == pytest.approx(x.mean())
    assert c.variance == pytest.approx(x.var())
    ll = stats.norm.logpdf(x, loc=c.mean, scale=math.sqrt(c.variance)).sum()
    assert model.log_likelihood == pytest.approx(ll, rel=1e-12)
    assert model.bic == pytest.approx(2 * math.log(len(x)) - 2 * ll, rel=1e-12)


def test_fit_gmm_recovers_separated_clusters():
    rng = derive_rng(0, "gmm")
    x = np.concatenate([rng.normal(0.0, 0.5, 150), rng.normal(20.0, 1.0, 50)])
    model = fit_gmm_1d(x, k=2, seed=3)
    means = sorted(c.mean for c in model.components)
    assert means[0] == pytest.approx(0.0, abs=0.2)
    assert means[1] == pytest.approx(20.0, abs=0.5)
    weights = sorted(c.weight for c in model.components)
    assert weights[0] == pytest.approx(0.25, abs=0.03)
    # assignment is the responsibility argmax and splits 150/50
    sizes = sorted(np.bincount(model.assignments).tolist())
    assert sizes == [50, 150]
    assert np.allclose(model.responsibilities.sum(axis=1), 1.0)


def test_fit_gmm_stopped_at_max_iter_reports_its_own_likelihood():
    # a restart cut off by max_iter must report the likelihood and the
    # posterior of the parameters it returns, not of the ones before its
    # last M-step
    rng = derive_rng(0, "gmm-stale")
    x = np.concatenate([rng.normal(0.0, 1.0, 300), rng.normal(3.0, 1.5, 200)])
    model = fit_gmm_1d(x, k=2, seed=0, max_iter=3, tol=0.0)
    logp = np.stack(
        [math.log(c.weight) + stats.norm.logpdf(x, loc=c.mean, scale=math.sqrt(c.variance)) for c in model.components]
    )
    ll = float(np.logaddexp.reduce(logp, axis=0).sum())
    assert model.log_likelihood == pytest.approx(ll, rel=1e-12)
    assert model.bic == pytest.approx(5 * math.log(len(x)) - 2 * ll, rel=1e-12)
    assert np.allclose(model.responsibilities, np.exp(logp - np.logaddexp.reduce(logp, axis=0)).T, atol=1e-12)
    assert np.array_equal(model.assignments, logp.argmax(axis=0))


def test_fit_gmm_validation():
    x = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="1 <= k"):
        fit_gmm_1d(x, k=0)
    with pytest.raises(ValueError, match="1 <= k"):
        fit_gmm_1d(x, k=4)
    with pytest.raises(ValueError, match="finite"):
        fit_gmm_1d(np.array([1.0, np.nan]), k=1)
    with pytest.raises(ValueError, match="distinct"):
        fit_gmm_1d(np.array([5.0, 5.0, 5.0]), k=2)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "limits, message",
    [({"max_iter": -1}, "max_iter must be nonnegative"), ({"tol": math.nan}, "tol must be"), ({"tol": -1e-8}, "tol must be")],
    ids=["max-iter-negative", "tol-nan", "tol-negative"],
)
def test_fit_gmm_rejects_malformed_limits(k, limits, message):
    # a negative max_iter skips every E-step; a NaN or negative tol never
    # stops EM before max_iter
    with pytest.raises(ValueError, match=message):
        fit_gmm_1d(np.array([1.0, 2.0, 3.0, 7.0]), k=k, **limits)


def test_fit_gmm_constant_data_uses_variance_floor():
    model = fit_gmm_1d(np.full(10, 3.0), k=1)
    c = model.components[0]
    assert c.mean == pytest.approx(3.0)
    assert 0 < c.variance <= 1e-10
    assert np.isfinite(model.log_likelihood)


def test_fit_gmm_deterministic():
    rng = derive_rng(1, "gmm")
    x = rng.normal(size=80)
    a = fit_gmm_1d(x, k=3, seed=7)
    b = fit_gmm_1d(x, k=3, seed=7)
    assert a.components == b.components
    assert np.array_equal(a.assignments, b.assignments)


def test_select_modes_bimodal_picks_two():
    rng = derive_rng(4, "gmm-bi")
    x = np.concatenate([rng.normal(0.0, 1.0, 120), rng.normal(30.0, 1.0, 80)])
    model = select_modes(x, k_max=5, seed=1)
    assert model.k == 2
    table = dict(model.bic_table)
    assert sorted(table) == [1, 2, 3, 4, 5]
    assert model.bic == pytest.approx(min(table.values()))
    means = sorted(c.mean for c in model.components)
    assert means[0] == pytest.approx(0.0, abs=0.5)
    assert means[1] == pytest.approx(30.0, abs=0.5)


def test_select_modes_unimodal_picks_one():
    rng = derive_rng(3, "gmm")
    x = rng.normal(5.0, 2.0, 300)
    model = select_modes(x, k_max=4, seed=1)
    assert model.k == 1


def test_select_modes_caps_k_at_distinct_values():
    x = np.array([1.0] * 10 + [2.0] * 10 + [3.0] * 10)
    model = select_modes(x, k_max=6, seed=0)
    assert max(k for k, _ in model.bic_table) <= 3
    assert model.k == 3  # three exact spikes


@pytest.mark.parametrize(
    "deltas, options, message",
    [
        ([1.0, 2.0], {"k_max": 0}, "k_max must be at least 1"),
        ([1.0, 2.0], {"n_restarts": 0}, "n_restarts must be at least 1"),
        ([], {}, "need at least one sample"),
        ([1.0, np.inf], {}, "deltas must be finite"),
        ([1.0, 2.0, 3.0, 7.0], {"max_iter": -1}, "max_iter must be nonnegative"),
        ([1.0, 2.0, 3.0, 7.0], {"tol": math.nan}, "tol must be"),
        ([1.0, 2.0, 3.0, 7.0], {"tol": -1e-8}, "tol must be"),
    ],
    ids=["k-max", "n-restarts", "empty", "non-finite", "max-iter-negative", "tol-nan", "tol-negative"],
)
def test_select_modes_rejects_malformed_arguments(deltas, options, message):
    with pytest.raises(ValueError, match=message):
        select_modes(np.array(deltas), **options)


def test_select_modes_deterministic():
    rng = derive_rng(4, "gmm")
    x = np.concatenate([rng.normal(0, 1, 60), rng.normal(8, 1, 60)])
    a = select_modes(x, k_max=4, seed=9)
    b = select_modes(x, k_max=4, seed=9)
    assert a.components == b.components
    assert a.bic_table == b.bic_table


def _same_model(got, want):
    assert got.components == want.components
    assert got.bic_table == want.bic_table
    assert got.bic == want.bic
    assert got.log_likelihood == want.log_likelihood
    assert np.array_equal(got.responsibilities, want.responsibilities)
    assert np.array_equal(got.assignments, want.assignments)


@st.composite
def _mixture_samples(draw):
    """Draws from a few Gaussians, optionally rounded (exact ties) and
    with spikes of one repeated value, so that some samples hold fewer
    distinct values than k_max."""
    rng = derive_rng(draw(st.integers(0, 2**31 - 1)), "em-oracle")
    parts = [
        rng.normal(draw(st.floats(-20.0, 20.0)), draw(st.floats(0.05, 5.0)), draw(st.integers(1, 120)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    parts += [np.full(draw(st.integers(1, 40)), draw(st.floats(-20.0, 20.0))) for _ in range(draw(st.integers(0, 3)))]
    x = np.concatenate(parts)
    if draw(st.booleans()):
        x = np.round(x, draw(st.integers(-1, 1)))
    return rng.permutation(x)


# small max_iter and large tol stop the restarts at different iterations
_EM_STOPS = st.one_of(
    st.tuples(st.integers(1, 12), st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4])),
    st.just((200, 1e-8)),
)


@given(_mixture_samples(), st.integers(1, 8), st.integers(1, 12), st.integers(0, 2**16), _EM_STOPS)
@settings(max_examples=60, deadline=None)
def test_select_modes_matches_reference_bit_for_bit(x, k_max, n_restarts, seed, stops):
    max_iter, tol = stops
    kwargs = dict(k_max=k_max, seed=seed, n_restarts=n_restarts, max_iter=max_iter, tol=tol)
    try:
        want = reference_select_modes(x, **kwargs)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError, match=str(exc)):
            select_modes(x, **kwargs)
        return
    got = select_modes(x, **kwargs)
    _same_model(got, want)
    assert [k for k, _ in got.em_iterations] == [k for k, _ in got.bic_table[1:]]


@given(_mixture_samples(), st.integers(2, 8), st.integers(0, 2**16), _EM_STOPS)
@settings(max_examples=40, deadline=None)
def test_fit_gmm_matches_reference_bit_for_bit(x, k, seed, stops):
    k = min(k, int(np.unique(x).size))
    if k < 2:
        return
    max_iter, tol = stops
    try:
        want = reference_fit_gmm_1d(x, k, seed=seed, max_iter=max_iter, tol=tol)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError, match=str(exc)):
            fit_gmm_1d(x, k, seed=seed, max_iter=max_iter, tol=tol)
        return
    _same_model(fit_gmm_1d(x, k, seed=seed, max_iter=max_iter, tol=tol), want)


def _three_bumps():
    rng = derive_rng(6, "em-threads")
    return np.concatenate([rng.normal(0.0, 1.0, 150), rng.normal(4.0, 0.7, 100), rng.normal(9.0, 1.5, 80)])


@pytest.mark.parametrize("tol", [1e-3, 1e-5])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_batched_restarts_equal_each_seed_fitted_alone(k, tol):
    """A restart that stops keeps its parameters while the rest of the
    batch goes on, so it ends bit for bit as the same seed fitted alone."""
    x = _three_bumps()
    seeds = [modes_mod._restart_seed(3, k, r) for r in range(10)]
    batched = modes_mod._em_restarts(x, k, seeds, 200, tol)
    assert len(set(batched[5].tolist())) > 1  # the restarts stop at different M-steps
    for r, seed in enumerate(seeds):
        alone = modes_mod._em_restarts(x, k, [seed], 200, tol)
        for got, want in zip(batched, alone):
            assert np.array_equal(got[r], want[0])


def _hostile_sample(name):
    x = _three_bumps()
    if name == "offset":
        return x + 1e6
    if name == "far-spike":
        return np.concatenate([x, 1e3 + 1e-6 * derive_rng(7, "spike").standard_normal(20)])
    if name == "floored-ties":
        return np.round(x)
    return x


# worst seen 8.3e-8, on the 1e6 offset at k = 4, where restarts cut at
# max_iter amplify the round-off of either form
_DIRECT_RTOL = 2e-7


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["bumps", "offset", "far-spike", "floored-ties"])
def test_em_restarts_match_the_direct_form_within_tolerance(name, k):
    """EM on centred sufficient statistics agrees with EM on the squared
    distances (x - mu)**2 restart by restart: the same assignments, the
    log-likelihood within the benchmark's 1e-9 (1 + |ll|) and the
    parameters within ``_DIRECT_RTOL``, also where a far sample offset,
    a far narrow spike or ties at the variance floor stress the
    quadratic form's cancellation."""
    x = _hostile_sample(name)
    seeds = [modes_mod._restart_seed(3, k, r) for r in range(10)]
    for tol in (1e-8, 1e-3):
        got = modes_mod._em_restarts(x, k, seeds, 200, tol)
        want = reference_em_restarts(x, k, seeds, 200, tol, direct=True)
        assert np.array_equal(got[3].argmax(axis=1), want[3].argmax(axis=1))
        assert np.all(np.abs(got[4] - want[4]) <= 1e-9 * (1.0 + np.abs(want[4])))
        for g, w, scale in zip(got[:3], want[:3], (0.0, np.sqrt(want[2]), 0.0)):
            assert np.all(np.abs(g - w) <= _DIRECT_RTOL * (np.abs(w) + scale))
        if name in ("far-spike", "floored-ties") and k >= 4:
            assert np.any(want[2] == modes_mod._variance_floor(x))  # some component sits on the floor


def test_assign_is_the_direct_posterior_bit_for_bit():
    x = _three_bumps()
    model = fit_gmm_1d(x, k=3, seed=1)
    values = np.concatenate([x[::7], [-40.0, 6.5, 300.0]])
    params = [np.array([[getattr(c, f) for c in model.components]]) for f in ("weight", "mean", "variance")]
    resp, _ = reference_posterior(_reference_log_joint(values, *params)[0])
    got = model.assign(values)
    assert np.array_equal(got.responsibilities, resp.T)
    assert np.array_equal(got.assignments, resp.argmax(axis=0))


def test_select_modes_threaded_k_match_one_thread(monkeypatch):
    """Fitting the k on worker threads changes no bit of the result, even
    with more workers than cores and frequent switching."""
    x = _three_bumps()
    seen = set()
    real = modes_mod._em_restarts

    def spy(*args):
        seen.add(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(modes_mod, "_em_restarts", spy)
    monkeypatch.setattr(modes_mod.os, "cpu_count", lambda: 1)
    single = select_modes(x, k_max=8, seed=2, max_iter=60)
    assert seen == {threading.get_ident()}
    monkeypatch.setattr(modes_mod.os, "cpu_count", lambda: 8)
    seen.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = select_modes(x, k_max=8, seed=2, max_iter=60)
    finally:
        sys.setswitchinterval(interval)
    assert threading.get_ident() not in seen and len(seen) > 1
    _same_model(threaded, single)
    assert threaded.em_iterations == single.em_iterations
    _same_model(single, reference_select_modes(x, k_max=8, seed=2, max_iter=60))


@pytest.mark.parametrize("cpus", [1, 8])
def test_select_modes_raises_the_lowest_failing_k(monkeypatch, cpus):
    """An error raised in a k's fit leaves ``select_modes`` as the same
    object, the lowest failing k's whatever the schedule, and no worker
    thread outlives the call."""
    errors = {3: ConvergenceError("EM log-likelihood decreased"), 6: ConvergenceError("EM log-likelihood decreased")}
    real = modes_mod._em_restarts

    def failing(x, k, *args):
        if k in errors:
            raise errors[k]
        return real(x, k, *args)

    monkeypatch.setattr(modes_mod, "_em_restarts", failing)
    monkeypatch.setattr(modes_mod.os, "cpu_count", lambda: cpus)
    before = threading.active_count()
    with pytest.raises(ConvergenceError) as exc:
        select_modes(_three_bumps(), k_max=8, seed=2)
    assert exc.value is errors[3]
    assert threading.active_count() == before


def test_select_modes_counts_em_iterations():
    x = _three_bumps()
    cut = select_modes(x, k_max=4, n_restarts=3, seed=1, max_iter=5, tol=0.0)
    assert cut.em_iterations == ((2, (5, 5, 5)), (3, (5, 5, 5)), (4, (5, 5, 5)))
    model = select_modes(x, k_max=4, n_restarts=3, seed=1, max_iter=200, tol=1e-3)
    assert [k for k, _ in model.em_iterations] == [2, 3, 4]
    counts = [c for _, row in model.em_iterations for c in row]
    assert all(len(row) == 3 for _, row in model.em_iterations)
    assert all(0 <= c < 200 for c in counts)
    # each count is the number of M-steps a restart ran, so a max_iter
    # of the smallest count cuts every restart at that count
    for _, row in select_modes(x, k_max=4, n_restarts=3, seed=1, max_iter=min(counts), tol=1e-3).em_iterations:
        assert row == (min(counts),) * 3
    assert model.assign(x[:10]).em_iterations == model.em_iterations
    assert fit_gmm_1d(x, k=2).em_iterations is None


# ---------------------------------------------------------------------------
# Histograms and reconstruction


def test_mode_time_histogram_counts():
    batch = _two_mode_batch()
    deltas = np.array([0.0] * 12 + [1.0] * 9)
    model = fit_gmm_1d(deltas, k=2)
    hist = mode_time_histogram(model, batch, bin_width=30.0)
    assert hist.n_bins == 4
    assert hist.bin_edges[0] == 0.0
    # all of one mode in the first bin, all of the other in the fourth
    assert hist.total().tolist() == [12, 0, 0, 9]
    assert hist.total().sum() == 21
    row_sizes = sorted(hist.counts.sum(axis=1).tolist())
    assert row_sizes == [9, 12]


def test_decompose_two_crisp_modes():
    batch = _two_mode_batch()
    report = decompose(batch, k_max=4, seed=0)
    assert report.n_modes == 2
    sizes = sorted(m.count for m in report.modes)
    assert sizes == [9, 12]
    # each mode's average graph is exactly its repeated tree
    trees = batch.matrices()
    path, star = trees[0], trees[-1]
    mats = [m.matrix.values for m in report.modes]
    assert any(np.allclose(m, path, atol=1e-8) for m in mats)
    assert any(np.allclose(m, star, atol=1e-8) for m in mats)
    # within a mode the deviations are identical
    deltas = report.deltas()
    for m in report.modes:
        vals = deltas[m.members]
        assert np.ptp(vals) <= 1e-8 * (1.0 + vals.max())


def _with_empty_partial_tree(batch, start=115.0):
    """The batch plus a flood that reached no node beyond its root."""
    empty = TreeSample(root=0, start_time=start, parent={}, partial=True)
    return replace(batch, samples=batch.samples + (empty,))


def test_decompose_fits_complete_trees_only():
    batch = _two_mode_batch()
    base = decompose(batch, k_max=4, seed=0)
    report = decompose(_with_empty_partial_tree(batch), k_max=4, seed=0)
    # the empty tree's deviation (0) does not enter the mixture
    assert report.deltas()[-1] == 0.0
    assert report.model.k == base.model.k
    for got, want in zip(report.model.components, base.model.components):
        assert got.weight == pytest.approx(want.weight, rel=1e-9)
        assert got.mean == pytest.approx(want.mean, rel=1e-9, abs=1e-9)
        assert got.variance == pytest.approx(want.variance, rel=1e-9)
    assert [k for k, _ in report.model.bic_table] == [k for k, _ in base.model.bic_table]
    for (_, got), (_, want) in zip(report.model.bic_table, base.model.bic_table):
        assert got == pytest.approx(want, rel=1e-9)
    assert report.model.bic == pytest.approx(base.model.bic, rel=1e-9)
    # ... but it is still assigned, so the modes partition all 22 trees
    assert report.model.n_samples == 22
    assert any(21 in m.members for m in report.modes)
    assert sum(m.count for m in report.modes) == 22


def test_decompose_needs_a_complete_tree():
    batch = _two_mode_batch()
    partial_only = replace(batch, samples=tuple(replace(s, partial=True) for s in batch.samples))
    with pytest.raises(DataError, match="no complete tree"):
        decompose(partial_only, k_max=2, seed=0)


def test_decompose_stops_when_overall_jd_does_not_converge(monkeypatch):
    fits = []
    select = modes_mod.select_modes
    monkeypatch.setattr(modes_mod, "select_modes", lambda *a, **kw: fits.append(a) or select(*a, **kw))
    batch = _two_mode_batch()
    with pytest.raises(ConvergenceError, match="did not converge") as info:
        decompose(batch, tol=1e-30, max_sweeps=1)
    result = info.value.result
    assert isinstance(result, JdResult)
    assert not result.converged
    assert result.n_samples == len(batch.samples)
    assert fits == []


def _count_jd_calls(monkeypatch) -> list:
    calls = []
    original = jd_mod.joint_diagonalise_sets

    def counted(*args, **kwargs):
        results = original(*args, **kwargs)
        calls.extend(results)
        return results

    # joint_diagonalise reaches the shared loop through jointdiag
    monkeypatch.setattr(jd_mod, "joint_diagonalise_sets", counted)
    monkeypatch.setattr(modes_mod, "joint_diagonalise_sets", counted)
    return calls


def test_whole_batch_mode_reuses_overall_jd(monkeypatch):
    batch = _two_mode_batch()
    calls = _count_jd_calls(monkeypatch)
    report = decompose(batch, k_max=1)
    assert report.n_modes == 1
    assert report.modes[0].result is report.overall_result
    assert report.modes[0].matrix is report.overall_matrix
    assert len(calls) == 1
    # reuse is exact: diagonalising the whole batch again gives the same bits
    again = contactmodes.joint_diagonalise(batch.subset(report.modes[0].members))
    for name in ("avg_diag", "deviations", "off2_history"):
        assert np.array_equal(getattr(again, name), getattr(report.overall_result, name)), name
    assert np.array_equal(again.basis.values, report.overall_result.basis.values)


def test_submode_whole_split_reuses_its_jd(monkeypatch):
    report = decompose(_two_mode_batch(), k_max=4, seed=0)
    big = max(range(report.n_modes), key=lambda j: report.modes[j].count)
    calls = _count_jd_calls(monkeypatch)
    sub = submode_decompose(report, big, k_max=1)
    assert sub.n_modes == 1
    assert sub.modes[0].result is sub.overall_result
    assert len(calls) == 1


def test_model_assign_uses_posterior():
    rng = derive_rng(8, "gmm-assign")
    x = np.concatenate([rng.normal(0.0, 1.0, 100), rng.normal(10.0, 1.0, 100)])
    model = fit_gmm_1d(x, k=2, seed=0)
    out = model.assign(np.array([-3.0, 13.0, 5.0]))
    low = int(np.argmin([c.mean for c in model.components]))
    assert out.assignments[0] == low and out.assignments[1] == 1 - low
    assert np.allclose(out.responsibilities.sum(axis=1), 1.0)
    assert out.bic == model.bic and out.log_likelihood == model.log_likelihood
    assert out.components == model.components


def test_density_mode_oracle_known_mixtures():
    # an equal-weight, equal-variance pair is bimodal iff the means are
    # more than two standard deviations apart
    assert count_density_modes([(0.5, 0.0, 1.0), (0.5, 1.9, 1.0)], -6.0, 8.0) == 1
    assert count_density_modes([(0.5, 0.0, 1.0), (0.5, 2.1, 1.0)], -6.0, 8.0) == 2
    # far apart, the density between the peaks underflows in linear space
    assert count_density_modes([(0.5, 0.0, 1.0), (0.5, 1000.0, 1.0)], -5.0, 1005.0) == 2
    # a density rising to the end of the range peaks there
    assert count_density_modes([(1.0, 10.0, 1.0)], 0.0, 5.0) == 1


def test_decompose_log_delta_same_partition():
    batch = _two_mode_batch()
    raw = decompose(batch, k_max=4, seed=0)
    logd = decompose(batch, k_max=4, seed=0, log_delta=True)
    raw_parts = sorted(tuple(sorted(m.members)) for m in raw.modes)
    log_parts = sorted(tuple(sorted(m.members)) for m in logd.modes)
    assert raw_parts == log_parts


def test_per_mode_reconstruction_single_sample_mode():
    batch = _two_mode_batch(m0=12, m1=1)
    overall = decompose(batch, k_max=2, seed=0).overall_result
    model = fit_gmm_1d(overall.deviations, k=2, seed=0)
    report = per_mode_reconstruction(model, batch, overall=overall)
    lone = [m for m in report.modes if m.count == 1]
    assert len(lone) == 1
    assert lone[0].single_sample
    assert lone[0].result is None
    assert np.array_equal(lone[0].matrix.values, batch.matrices()[12])


def test_per_mode_reconstruction_names_the_lowest_failing_mode():
    """The modes share one sweep loop; when two of them fail to converge,
    the error names the lower one, with the whole-batch result."""
    rng = derive_rng(3, "two-fail")
    samples = [_tree_sample({i: i - 1 for i in range(1, 6)})]
    for _ in range(12):
        order = rng.permutation(6)
        parent = {int(order[i]): int(order[rng.integers(i)]) for i in range(1, 6)}
        samples.append(_tree_sample(parent, root=int(order[0])))
    batch = SampleBatch(tuple(samples), n_nodes=6, seed=0, source=SourceInfo(kind="temporal", t_min=0.0, t_max=1.0))
    labels = np.array([0] + [1] * 6 + [2] * 6)
    comps = tuple(GaussComponent(weight=1.0 / 3.0, mean=float(j), variance=1.0) for j in range(3))
    model = ModeModel(comps, labels, np.eye(3)[labels], bic=0.0, log_likelihood=0.0)
    overall = contactmodes.joint_diagonalise(batch)
    assert overall.converged
    subsets = [batch.subset(model.members(j)) for j in (1, 2)]
    assert not any(res.converged for res in contactmodes.joint_diagonalise_sets(subsets, tol=1e-30, max_sweeps=1))
    with pytest.raises(ConvergenceError, match="of mode 1 did not converge") as info:
        per_mode_reconstruction(model, batch, overall=overall, tol=1e-30, max_sweeps=1)
    assert info.value.result is overall


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import and only gamma_ks needs it
    src = str(Path(contactmodes.__file__).resolve().parent.parent)
    code = "import sys, contactmodes; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_and_gram_path_load_no_scipy():
    # every scipy import lands in setup or wall time; neither the package
    # import nor a Gram-compressed joint diagonalisation needs one
    src = str(Path(contactmodes.__file__).resolve().parent.parent)
    code = (
        "import sys, contactmodes as cm\n"
        "from contactmodes import jointdiag\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "g = cm.StaticGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])\n"
        "batch = cm.sample_batch(g, 40, seed=0)\n"
        "incidence = jointdiag._incidence(batch)[0]\n"
        "assert incidence.shape[1] < incidence.shape[0]\n"
        "cm.joint_diagonalise(batch)\n"
        "print(loaded, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] []"


def test_per_mode_reconstruction_rejects_mismatched_model():
    """A model, or an overall result, fitted on another batch is refused:
    other tree counts, or another node count."""
    batch = _two_mode_batch()
    model = fit_gmm_1d(np.arange(5.0), k=1)
    with pytest.raises(ValueError, match="different number of samples"):
        per_mode_reconstruction(model, batch, overall=contactmodes.joint_diagonalise(batch))
    model = fit_gmm_1d(np.arange(21.0), k=1)
    for other in (_two_mode_batch(m0=5), _two_mode_batch(n=5)):
        with pytest.raises(ValueError, match="overall result does not match the batch"):
            per_mode_reconstruction(model, batch, overall=contactmodes.joint_diagonalise(other))


def test_per_mode_reconstruction_drops_an_empty_mode(tmp_path):
    """A component that wins no tree leaves an empty mode: it is dropped
    with a warning, the other modes keep their indices and still
    partition the batch, and the report writes both of their
    histograms."""
    batch = _two_mode_batch()
    labels = np.array([0] * 12 + [2] * 9)
    comps = tuple(GaussComponent(weight=1.0 / 3.0, mean=float(j), variance=1.0) for j in range(3))
    model = ModeModel(comps, labels, np.eye(3)[labels], bic=0.0, log_likelihood=0.0)
    with pytest.warns(UserWarning, match="mode 1 is empty and was dropped"):
        report = per_mode_reconstruction(model, batch, overall=contactmodes.joint_diagonalise(batch))
    assert [m.index for m in report.modes] == [0, 2]
    assert np.array_equal(np.concatenate([m.members for m in report.modes]), np.arange(21))
    names = {p.name for p in write_report(report, tmp_path)}
    assert {"mode_0.txt", "mode_2.txt"} <= names and "mode_1.txt" not in names
    payload = json.loads((tmp_path / "report.json").read_text())
    histograms = [m["histogram"] for m in payload["modes"]]
    assert histograms == [report.histogram.counts[j].tolist() for j in (0, 2)]
    assert [sum(h) for h in histograms] == [12, 9]


def test_submode_requires_enough_members():
    batch = _two_mode_batch()
    report = decompose(batch, k_max=4, seed=0)
    big = max(range(report.n_modes), key=lambda j: report.modes[j].count)
    with pytest.raises(ValueError, match="need at least"):
        submode_decompose(report, big, k_max=8)
    with pytest.raises(ValueError, match="out of range"):
        submode_decompose(report, 5)


def test_submode_decompose_runs_on_subset():
    batch = _two_mode_batch(m0=20, m1=6)
    report = decompose(batch, k_max=3, seed=0)
    big = max(range(report.n_modes), key=lambda j: report.modes[j].count)
    sub = submode_decompose(report, big, k_max=2, seed=1)
    assert len(sub.batch.samples) == report.modes[big].count
    total = sum(m.count for m in sub.modes)
    assert total == report.modes[big].count


# ---------------------------------------------------------------------------
# Densities and gamma diagnostics


def test_kde_density_integrates_to_one():
    rng = derive_rng(5, "kde")
    x = rng.normal(2.0, 1.5, 400)
    grid, dens = kde_density(x, n_points=512)
    mass = np.trapezoid(dens, grid)
    assert mass == pytest.approx(1.0, abs=0.02)
    assert grid[np.argmax(dens)] == pytest.approx(2.0, abs=1.0)


def test_gamma_moment_fit_recovers_parameters():
    rng = derive_rng(6, "gamma")
    x = rng.gamma(shape=3.0, scale=2.0, size=20_000)
    shape, scale = gamma_moment_fit(x)
    assert shape == pytest.approx(3.0, rel=0.1)
    assert scale == pytest.approx(2.0, rel=0.1)
    with pytest.raises(ValueError):
        gamma_moment_fit(np.full(5, 1.0))  # zero variance


def test_gamma_ks_accepts_gamma_rejects_uniform():
    rng = derive_rng(7, "gamma")
    good = gamma_ks(rng.gamma(shape=2.5, scale=1.0, size=800))
    assert good.p_value > 0.05
    flat = gamma_ks(rng.uniform(10.0, 10.5, 800))
    assert flat.p_value < 1e-3
    assert flat.statistic > good.statistic


# ---------------------------------------------------------------------------
# Report export


def test_write_report_artefacts(tmp_path):
    batch = _two_mode_batch()
    report = decompose(batch, k_max=4, seed=0)
    written = write_report(report, tmp_path)
    names = {p.name for p in written}
    assert "report.json" in names
    assert "overall.txt" in names
    assert "samples.csv" in names
    assert sum(n.startswith("mode_") for n in names) == report.n_modes

    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["k"] == 2
    assert payload["em_iterations"] == [[k, list(row)] for k, row in report.model.em_iterations]
    assert [k for k, _ in payload["em_iterations"]] == [k for k, _ in payload["bic_table"][1:]]
    assert len(payload["modes"]) == 2
    assert sorted(i for m in payload["modes"] for i in m["members"]) == list(range(21))

    lines = (tmp_path / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "sample_index,start_time,delta,mode"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 10.0

    loaded = np.loadtxt(tmp_path / "overall.txt")
    assert np.allclose(loaded, report.overall_matrix.values, atol=0)
