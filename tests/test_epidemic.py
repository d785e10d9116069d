import hashlib
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactmodes import (
    SirCurve,
    SirParams,
    TemporalNetwork,
    default_params,
    derive_rng,
    flood_tree,
    gen_random_contacts,
    ranking_table,
    run_sir,
    sir_experiment,
)
from contactmodes import epidemic
from contactmodes.epidemic import write_curves_csv, write_ranking_json
from oracles import per_step_events, reference_sir_walk


def _net(events, n=None, granularity=1.0):
    """A network whose columns are the (a, b, start, end) rows, sorted
    stably by start."""
    rows = sorted(events, key=lambda e: e[2])
    a, b, start, end = (list(col) for col in zip(*rows)) if rows else ([], [], [], [])
    if n is None:
        n = max(a + b) + 1
    return TemporalNetwork(n_nodes=n, a=a, b=b, start=start, end=end, granularity=granularity)


NO_RECOVERY = math.inf


def test_params_validation():
    with pytest.raises(ValueError, match="p_transmit"):
        SirParams(1.5, 80.0, 0, 10)
    with pytest.raises(ValueError, match="recovery_mean"):
        SirParams(0.5, 0.0, 0, 10)
    with pytest.raises(ValueError, match="recovery_mean"):
        SirParams(0.5, 1e300, 0, 10)
    with pytest.raises(ValueError, match="start_step"):
        SirParams(0.5, 80.0, -1, 10)
    with pytest.raises(ValueError, match="horizon"):
        SirParams(0.5, 80.0, 0, 0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon", math.nan),
        ("horizon", math.inf),
        ("horizon", 2.5),
        ("horizon", True),
        ("start_step", math.nan),
        ("start_step", 1.5),
        ("start_step", False),
    ],
)
def test_params_reject_steps_that_are_not_whole(field, value):
    """A NaN, infinite, fractional or bool step count is refused up front;
    a NaN or infinite horizon would otherwise fail deep in the simulation
    and a fractional start step be truncated silently."""
    steps = {"start_step": 0, "horizon": 10, field: value}
    with pytest.raises(ValueError, match=f"{field} must be a whole number of steps"):
        SirParams(0.5, 80.0, **steps)


def test_params_keep_whole_float_steps_as_ints():
    params = SirParams(0.5, 80.0, 3.0, np.int64(10))
    assert (params.start_step, params.horizon) == (3, 10)
    assert type(params.start_step) is int and type(params.horizon) is int


def test_default_params_horizon_to_trace_end():
    net = _net([(0, 1, 0.0, 0.0), (1, 2, 499.0, 499.0)])
    p = default_params(net, start_step=250)
    assert p.horizon == 250
    assert p.p_transmit == 0.5
    assert p.recovery_mean == 80.0


def test_deterministic_chain_with_certain_transmission():
    net = _net([(0, 1, 600.0, 600.0), (1, 2, 1200.0, 1200.0)], granularity=600.0)
    # note: t_min is 600 s, so absolute step 0 is the first event
    params = SirParams(1.0, NO_RECOVERY, 0, 2)
    run = run_sir(net, 0, params, derive_rng(0, "sir-test"))
    assert run.s_of_t.tolist() == [2, 1, 0]
    assert run.i_of_t.tolist() == [1, 2, 3]
    assert run.r_of_t.tolist() == [0, 0, 0]
    assert run.reached == frozenset({0, 1, 2})


def test_window_excludes_events_outside():
    net = _net([(0, 1, 0.0, 0.0), (0, 2, 5.0, 5.0), (0, 3, 9.0, 9.0)])
    params = SirParams(1.0, NO_RECOVERY, 3, 4)  # steps 3..6 only
    run = run_sir(net, 0, params, derive_rng(1, "sir-test"))
    assert run.reached == frozenset({0, 2})
    assert run.s_of_t[0] == 3


def test_no_transmission_at_p_zero():
    net = _net([(0, 1, float(t), float(t)) for t in range(20)], n=3)
    params = SirParams(0.0, NO_RECOVERY, 0, 10)
    run = run_sir(net, 0, params, derive_rng(2, "sir-test"))
    assert run.reached == frozenset({0})
    assert np.all(run.s_of_t == 2)
    assert np.all(run.i_of_t == 1)
    assert np.all(run.r_of_t == 0)


def test_immediate_recovery_blocks_spread():
    # a vanishing Poisson mean recovers the seed before its first contact
    net = _net([(0, 1, float(t), float(t)) for t in range(5)], n=2)
    params = SirParams(1.0, 1e-9, 0, 5)
    run = run_sir(net, 0, params, derive_rng(3, "sir-test"))
    assert run.reached == frozenset({0})
    assert np.all(run.s_of_t == 1)
    assert np.all(run.i_of_t == 0)
    assert np.all(run.r_of_t == 1)


def test_compartments_partition_population():
    net = gen_random_contacts(20, 0.1, 300, seed=4)
    params = SirParams(0.4, 15.0, 50, 200)
    for r in range(5):
        run = run_sir(net, r, params, derive_rng(4, "sir-test", r))
        total = run.s_of_t + run.i_of_t + run.r_of_t
        assert np.all(total == 20)
        assert run.s_of_t[0] == 19
        assert np.all(np.diff(run.s_of_t) <= 0)
        assert np.all(np.diff(run.r_of_t) >= 0)


def test_reached_matches_flooding_at_p_one():
    net = gen_random_contacts(25, 0.04, 400, seed=5)
    params = SirParams(1.0, NO_RECOVERY, 30, 300)
    start_abs = net.t_min + params.start_step * net.granularity
    horizon_abs = params.horizon * net.granularity
    for root in range(0, 25, 5):
        run = run_sir(net, root, params, derive_rng(6, "sir-test", root))
        tree = flood_tree(net, root, start_abs, horizon=horizon_abs)
        assert run.reached == tree.reached


def test_more_transmissible_is_pointwise_worse():
    # without recovery, shared uniforms couple the runs: raising p can
    # only add infections
    net = gen_random_contacts(30, 0.05, 500, seed=7)
    for trial in range(6):
        rng_lo = derive_rng(8, "sir-test", trial)
        rng_hi = derive_rng(8, "sir-test", trial)
        lo = run_sir(net, trial, SirParams(0.2, NO_RECOVERY, 0, 400), rng_lo)
        hi = run_sir(net, trial, SirParams(0.7, NO_RECOVERY, 0, 400), rng_hi)
        assert np.all(hi.s_of_t <= lo.s_of_t)
        assert lo.reached <= hi.reached


def test_star_infections_match_binomial_mean():
    # hub meets each leaf exactly once: infected leaves ~ Binomial(12, p)
    leaves = 12
    p = 0.3
    net = _net([(0, i, float(i), float(i)) for i in range(1, leaves + 1)], n=leaves + 1)
    params = SirParams(p, NO_RECOVERY, 0, leaves + 1)
    runs = 400
    counts = [
        len(run_sir(net, 0, params, derive_rng(9, "sir-test", r)).reached) - 1
        for r in range(runs)
    ]
    mean = np.mean(counts)
    sigma = math.sqrt(leaves * p * (1 - p) / runs)
    assert abs(mean - leaves * p) < 4 * sigma


def test_per_step_contacts_gives_repeat_chances():
    # one long contact: a single Bernoulli(p) trial per event, but one per
    # covered step once per-step contacts are enabled ([0, 4) covers the
    # four step intervals 0..3)
    net = _net([(0, 1, 0.0, 4.0)], n=2)
    params = SirParams(0.4, NO_RECOVERY, 0, 5)
    runs = 600
    once = sum(
        run_sir(net, 0, params, derive_rng(10, "a", r)).reached == frozenset({0, 1})
        for r in range(runs)
    )
    split = sum(
        run_sir(net, 0, params, derive_rng(10, "b", r), per_step_contacts=True).reached
        == frozenset({0, 1})
        for r in range(runs)
    )
    p_once, p_split = 0.4, 1 - 0.6 ** 4
    assert abs(once / runs - p_once) < 4 * math.sqrt(p_once * (1 - p_once) / runs)
    assert abs(split / runs - p_split) < 4 * math.sqrt(p_split * (1 - p_split) / runs)


def test_run_sir_validation():
    net = _net([(0, 1, 0.0, 1.0)])
    with pytest.raises(ValueError, match="seed node"):
        run_sir(net, 5, SirParams(0.5, 80.0, 0, 10), derive_rng(0, "x"))
    with pytest.raises(ValueError, match="beyond the trace"):
        run_sir(net, 0, SirParams(0.5, 80.0, 99, 10), derive_rng(0, "x"))


# ---------------------------------------------------------------------------
# Experiments over all seeds


def test_sir_experiment_shape_and_determinism():
    net = gen_random_contacts(8, 0.1, 120, seed=11)
    params = SirParams(0.5, 20.0, 10, 80)
    a = sir_experiment(net, params, runs_per_node=4, bootstrap_resamples=20, seed=3)
    b = sir_experiment(net, params, runs_per_node=4, bootstrap_resamples=20, seed=3)
    assert len(a) == 8
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.s_of_t, cb.s_of_t)
        assert np.array_equal(ca.ci_low, cb.ci_low)
        assert np.array_equal(ca.ci_high, cb.ci_high)
        assert ca.runs == 4
        assert len(ca.s_of_t) == 81
        assert np.all(ca.ci_low <= ca.ci_high + 1e-12)
        assert np.all((0 <= ca.ci_low) & (ca.ci_high <= 8))


def test_sir_experiment_validation():
    net = gen_random_contacts(5, 0.2, 50, seed=0)
    params = SirParams(0.5, 10.0, 0, 30)
    with pytest.raises(ValueError, match="runs_per_node"):
        sir_experiment(net, params, runs_per_node=0)
    with pytest.raises(ValueError, match="ci"):
        sir_experiment(net, params, runs_per_node=2, ci=1.5)


def _curve(node, s):
    s = np.asarray(s, dtype=float)
    return SirCurve(seed_node=node, s_of_t=s, ci_low=s, ci_high=s, runs=1)


def test_half_time_and_ranking():
    fast = _curve(0, [9, 4, 1, 1])
    slow = _curve(1, [9, 8, 4, 1])
    never = _curve(2, [9, 9, 8, 8])
    assert fast.half_time(10) == 1
    assert slow.half_time(10) == 2
    assert never.half_time(10) is None
    table = ranking_table([slow, never, fast], 10)
    assert table == [(0, 1), (1, 2), (2, None)]


def test_curve_and_ranking_exports(tmp_path):
    curves = [_curve(0, [3, 1]), _curve(1, [3, 3])]
    write_curves_csv(curves, tmp_path / "curves.csv")
    lines = (tmp_path / "curves.csv").read_text().strip().splitlines()
    assert lines[0] == "seed_node,t,mean_s,ci_low,ci_high"
    assert len(lines) == 5
    assert lines[1].startswith("0,0,3.0,")

    write_ranking_json(curves, 4, tmp_path / "rank.json")
    payload = json.loads((tmp_path / "rank.json").read_text())
    assert payload["order"] == [0, 1]
    assert payload["half_time"] == {"0": 1, "1": None}


# ---------------------------------------------------------------------------
# Equivalence with the event-by-event reference walk


@st.composite
def _traces(draw):
    """Small traces: fractional, tenth- or quarter-second contact times,
    contacts spanning several steps or ending on a step boundary (some
    only up to rounding, such as 2.1 s at 0.7 s per step), isolated nodes."""
    n = draw(st.integers(2, 5))
    isolated = draw(st.integers(0, 2))
    granularity = draw(st.sampled_from([0.25, 0.5, 0.7, 1.0, 2.5]))
    times = st.one_of(
        st.integers(0, 60).map(lambda q: 0.25 * q),
        st.integers(0, 150).map(lambda q: 0.1 * q),
        st.floats(0.0, 15.0, allow_nan=False, allow_infinity=False),
    )
    events = []
    for _ in range(draw(st.integers(0, 14))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 2))
        start = draw(times)
        length = draw(st.one_of(st.integers(0, 12).map(lambda q: 0.25 * q), st.floats(0.0, 4.0)))
        events.append((a, b if b < a else b + 1, start, start + length))
    return _net(events, n=n + isolated, granularity=granularity)


def _same_run(run, ref):
    s, i, r, reached = ref
    assert run.s_of_t.dtype == run.i_of_t.dtype == run.r_of_t.dtype == np.int64
    assert run.s_of_t.tolist() == s.tolist()
    assert run.i_of_t.tolist() == i.tolist()
    assert run.r_of_t.tolist() == r.tolist()
    assert run.reached == reached


_EMPTY_WINDOW = _net([(0, 1, 0.0, 9.0), (1, 2, 9.0, 9.0)], n=4)  # no event starts in steps 3..5


@settings(max_examples=150, deadline=None)
@given(net=_traces(), start_step=st.integers(0, 20), horizon=st.integers(1, 20))
@example(net=_EMPTY_WINDOW, start_step=3, horizon=3)
@example(net=_net([(0, 1, 0.0, 2.1)], granularity=0.7), start_step=0, horizon=5)
def test_per_step_expansion_matches_loop(net, start_step, horizon):
    params = SirParams(0.5, 10.0, start_step, horizon)
    steps, a, b = epidemic._window_events(net, params, per_step_contacts=True)
    want = per_step_events(net, start_step, start_step + horizon)
    for got, ref in zip((steps, a, b), want):
        assert got.dtype == np.int64
        assert got.tolist() == ref.tolist()


@settings(max_examples=120, deadline=None)
@given(
    net=_traces(),
    p=st.sampled_from([0.0, 0.3, 1.0]),
    recovery_mean=st.sampled_from([3.0, NO_RECOVERY, 1e-9]),
    per_step=st.booleans(),
    start_step=st.integers(0, 12),
    horizon=st.integers(1, 25),
    seed=st.integers(0, 2**16),
)
@example(net=_EMPTY_WINDOW, p=1.0, recovery_mean=3.0, per_step=False, start_step=3, horizon=3, seed=0)
@example(net=_net([], n=3), p=1.0, recovery_mean=3.0, per_step=True, start_step=0, horizon=4, seed=0)
def test_run_sir_matches_reference_walk(net, p, recovery_mean, per_step, start_step, horizon, seed):
    params = SirParams(p, recovery_mean, start_step, horizon)
    for node in range(net.n_nodes):
        try:
            ref = reference_sir_walk(net, node, params, derive_rng(seed, "eq", node), per_step)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                run_sir(net, node, params, derive_rng(seed, "eq", node), per_step_contacts=per_step)
            return
        _same_run(run_sir(net, node, params, derive_rng(seed, "eq", node), per_step_contacts=per_step), ref)


def _walked_experiment(net, params, runs, seed, per_step):
    """Curves of ``sir_experiment`` and the (visible_from, recovery_step)
    arrays of its one walk over every (seed node, run) pair."""
    walks = []
    real = epidemic._walk

    def spy(*args, **kwargs):
        walks.append(real(*args, **kwargs))
        return walks[-1]

    with mock.patch.object(epidemic, "_walk", spy):
        curves = sir_experiment(
            net, params, runs_per_node=runs, bootstrap_resamples=7, seed=seed, per_step_contacts=per_step
        )
    assert len(walks) == 1
    return curves, walks[0]


@settings(max_examples=60, deadline=None)
@given(
    net=_traces(),
    p=st.sampled_from([0.0, 0.3, 1.0]),
    recovery_mean=st.sampled_from([3.0, NO_RECOVERY, 1e-9]),
    per_step=st.booleans(),
    start_step=st.integers(0, 12),
    horizon=st.integers(1, 25),
    runs=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@example(net=_EMPTY_WINDOW, p=1.0, recovery_mean=3.0, per_step=False, start_step=3, horizon=3, runs=2, seed=0)
def test_sir_experiment_runs_match_reference_walk(net, p, recovery_mean, per_step, start_step, horizon, runs, seed):
    params = SirParams(p, recovery_mean, start_step, horizon)
    n = net.n_nodes
    try:
        reference_sir_walk(net, 0, params, derive_rng(seed, "sir", 0, 0), per_step)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            sir_experiment(net, params, runs_per_node=runs, seed=seed, per_step_contacts=per_step)
        return
    curves, (visible_from, recovery_step) = _walked_experiment(net, params, runs, seed, per_step)
    ks = np.arange(horizon + 1)
    for node in range(n):
        traj = np.empty((runs, horizon + 1))
        for r in range(runs):
            s, i, rec, reached = reference_sir_walk(net, node, params, derive_rng(seed, "sir", node, r), per_step)
            vf = visible_from[:, node * runs + r]
            infected = vf < epidemic._BIG
            rec_k = np.maximum(recovery_step[:, node * runs + r] - start_step, vf)
            not_s = infected[:, None] & (vf[:, None] <= ks)
            recovered = infected[:, None] & (rec_k[:, None] <= ks)
            assert {int(v) for v in np.flatnonzero(infected)} == reached
            assert (n - not_s.sum(axis=0)).tolist() == s.tolist()
            assert (not_s & ~recovered).sum(axis=0).tolist() == i.tolist()
            assert recovered.sum(axis=0).tolist() == rec.tolist()
            traj[r] = s
        boot_rng = derive_rng(seed, "sir-boot", node)
        resampled = np.array([traj[boot_rng.integers(0, runs, runs)].mean(axis=0) for _ in range(7)])
        assert np.array_equal(curves[node].s_of_t, traj.mean(axis=0))
        lo_pct = 100.0 * (1.0 - 0.95) / 2.0
        assert np.array_equal(curves[node].ci_low, np.percentile(resampled, lo_pct, axis=0))
        assert np.array_equal(curves[node].ci_high, np.percentile(resampled, 100.0 - lo_pct, axis=0))


@pytest.mark.parametrize("pairs_per_block", [1, 3])
def test_pair_blocks_do_not_change_curves(pairs_per_block, monkeypatch):
    # 8 nodes x 4 runs = 32 pairs: blocks of 1, and blocks of 3 with a
    # short last block
    net = gen_random_contacts(8, 0.1, 120, seed=11)
    params = SirParams(0.5, 20.0, 10, 80)
    n_events = len(epidemic._window_events(net, params, per_step_contacts=False)[0])
    assert n_events * 32 <= epidemic._MASK_BUDGET  # the default walks one block
    whole, walk = _walked_experiment(net, params, 4, 3, False)
    monkeypatch.setattr(epidemic, "_MASK_BUDGET", pairs_per_block * n_events)
    blocked, blocked_walk = _walked_experiment(net, params, 4, 3, False)
    for a, b in zip(walk, blocked_walk):
        assert np.array_equal(a, b)
    for ca, cb in zip(whole, blocked):
        assert np.array_equal(ca.s_of_t, cb.s_of_t)
        assert np.array_equal(ca.ci_low, cb.ci_low)
        assert np.array_equal(ca.ci_high, cb.ci_high)


@pytest.mark.parametrize(
    "granularity, params, per_step, curves_sha, ranking_sha",
    [
        (
            1.0, SirParams(0.5, 20.0, 10, 120), False,
            "8af5d088ec5229c1608b06ae5872392ea89b4a5c10527bd43d386f7d0aa34e9c",
            "c155a99200b162609599fe53fe3e28511aa1765eb4c14cbb1dc00085d884137b",
        ),
        (
            0.5, SirParams(0.3, 4.0, 20, 250), True,
            "b65dc2820b06c99a096db2a52ac0a642d917e5913ab9694527e8fdcbccb94d86",
            "2599936da3c029f5ad286f38c984bfb54fc44b861da43695f234c399fd966ec4",
        ),
    ],
)
def test_sir_output_pinned(granularity, params, per_step, curves_sha, ranking_sha, tmp_path):
    # digests recorded with the run-by-run walk: a reordered random draw
    # or a changed transmission rule changes them
    base = gen_random_contacts(12, 0.1, 150, seed=3)
    net = replace(base, granularity=granularity)
    curves = sir_experiment(net, params, runs_per_node=4, bootstrap_resamples=20, seed=5, per_step_contacts=per_step)
    write_curves_csv(curves, tmp_path / "curves.csv")
    write_ranking_json(curves, net.n_nodes, tmp_path / "ranking.json")
    assert hashlib.sha256((tmp_path / "curves.csv").read_bytes()).hexdigest() == curves_sha
    assert hashlib.sha256((tmp_path / "ranking.json").read_bytes()).hexdigest() == ranking_sha
