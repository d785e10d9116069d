import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactmodes import (
    BatchFormatError,
    SampleBatch,
    StaticGraph,
    TemporalNetwork,
    TreeSample,
    bfs_tree,
    derive_rng,
    edge_preference,
    filter_batch,
    flood_tree,
    read_batch,
    sample_batch,
    write_batch,
)
from oracles import (
    bfs_distances,
    bfs_root_tree_probability,
    is_forest,
    reference_flood_tree,
    temporal_reachable,
    tree_adjacency,
)


def _temporal(events, n=None, granularity=1.0):
    """A network whose columns are the (a, b, start, end) rows, sorted
    stably by start."""
    rows = sorted(events, key=lambda e: e[2])
    a, b, start, end = (list(col) for col in zip(*rows)) if rows else ([], [], [], [])
    if n is None:
        n = max(a + b) + 1
    return TemporalNetwork(n_nodes=n, a=a, b=b, start=start, end=end, granularity=granularity)


# ---------------------------------------------------------------------------
# BFS trees


def test_bfs_tree_is_spanning_tree(bridged_graph):
    rng = derive_rng(0, "t")
    t = bfs_tree(bridged_graph, 0, rng)
    assert not t.partial
    assert t.reached == frozenset(range(7))
    assert t.n_edges == 6
    assert is_forest(7, t.parent.items())
    batch = SampleBatch(samples=(t,), n_nodes=7, seed=0)
    assert batch.matrices()[0].sum() == pytest.approx(12.0)  # 6 edges, both halves


def test_bfs_tree_depths_match_distances(bridged_graph):
    adj = bridged_graph.adjacency.values
    rng = derive_rng(1, "t")
    for root in range(7):
        t = bfs_tree(bridged_graph, root, rng)
        dist = bfs_distances(adj, root)
        for v in range(7):
            depth = 0
            w = v
            while w != root:
                w = t.parent[w]
                depth += 1
            assert depth == dist[v]


def test_bfs_tree_root_not_in_parent_map(bridged_graph):
    t = bfs_tree(bridged_graph, 3, derive_rng(2, "t"))
    assert 3 not in t.parent
    assert set(t.parent) == set(range(7)) - {3}


def test_bfs_tree_partial_on_disconnected():
    g = StaticGraph.from_edges(4, [(0, 1), (2, 3)])
    t = bfs_tree(g, 0, derive_rng(3, "t"))
    assert t.partial
    assert t.reached == frozenset({0, 1})
    assert t.parent == {1: 0}


def test_bfs_tree_rejects_bad_root(bridged_graph):
    with pytest.raises(ValueError, match="out of range"):
        bfs_tree(bridged_graph, 9, derive_rng(0, "t"))


def test_bfs_tie_break_is_uniform():
    # square: node 2 sits opposite root 0 with parents 1 and 3 equidistant
    g = StaticGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rng = derive_rng(17, "tie")
    picks = [bfs_tree(g, 0, rng).parent[2] for _ in range(4000)]
    frac = picks.count(1) / len(picks)
    assert abs(frac - 0.5) < 0.03  # > 4 sigma would be ~0.032


def test_bfs_tree_probability_matches_enumeration(bridged_graph):
    # empirical frequency of one specific tree vs its exact probability
    adj = bridged_graph.adjacency.values
    rng = derive_rng(23, "freq")
    target = bfs_tree(bridged_graph, 0, derive_rng(99, "pick"))
    p_exact = bfs_root_tree_probability(adj, 0, target.parent)
    assert p_exact > 0
    hits = sum(bfs_tree(bridged_graph, 0, rng).parent == target.parent for _ in range(3000))
    frac = hits / 3000
    sigma = (p_exact * (1 - p_exact) / 3000) ** 0.5
    assert abs(frac - p_exact) < 5 * sigma + 1e-9


# ---------------------------------------------------------------------------
# Temporal flooding


def test_flood_tree_follows_time_order():
    net = _temporal([(0, 1, 1.0, 1.0), (1, 2, 2.0, 2.0), (2, 3, 0.5, 0.5)])
    t = flood_tree(net, 0, 0.0)
    # 2->3 happens before 2 is informed, so 3 stays unreached
    assert t.reached == frozenset({0, 1, 2})
    assert t.partial
    assert t.parent == {1: 0, 2: 1}
    assert t.infection_times == {0: 0.0, 1: 1.0, 2: 2.0}


def test_flood_tree_ignores_events_before_start():
    net = _temporal([(0, 1, 1.0, 1.0), (0, 2, 3.0, 3.0)])
    t = flood_tree(net, 0, 2.0)
    assert t.reached == frozenset({0, 2})


def test_flood_tree_horizon_cuts_late_events():
    net = _temporal([(0, 1, 1.0, 1.0), (1, 2, 5.0, 5.0)])
    assert flood_tree(net, 0, 0.0, horizon=5.0).reached == frozenset({0, 1})
    assert flood_tree(net, 0, 0.0, horizon=5.5).reached == frozenset({0, 1, 2})


def test_flood_tree_same_timestamp_chains():
    # with stored order, 0-1 then 1-2 at the same instant chains through
    net = _temporal([(0, 1, 2.0, 2.0), (1, 2, 2.0, 2.0)])
    t = flood_tree(net, 0, 0.0)
    assert t.reached == frozenset({0, 1, 2})
    assert t.infection_times[2] == 2.0


@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 5),
            st.integers(0, 40),
        ).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=25,
        unique_by=lambda e: e[2],  # distinct timestamps: deterministic flood
    ),
    st.integers(0, 5),
    st.integers(0, 20),
    st.one_of(st.none(), st.integers(1, 30)),
)
@settings(max_examples=80, deadline=None)
def test_flood_reached_matches_reachability_oracle(raw, root, start, horizon):
    events = [(a, b, float(s), float(s)) for a, b, s in raw]
    net = _temporal(events, n=6)
    t = flood_tree(net, root, float(start), horizon=None if horizon is None else float(horizon))
    expect = temporal_reachable(events, 6, root, float(start), horizon)
    assert t.reached == expect
    assert is_forest(6, t.parent.items())
    # delivery times never decrease along parent chains
    for child, par in t.parent.items():
        assert t.infection_times[par] <= t.infection_times[child]


def _assert_same_flood(tree, want):
    parent, times, partial = want
    assert tree.parent == parent and tree.infection_times == times and tree.partial == partial
    # Python numbers, not numpy scalars, in both maps
    assert all(type(v) is int for pair in tree.parent.items() for v in pair)
    assert all(type(c) is int and type(t) is float for c, t in tree.infection_times.items())


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 8)).filter(lambda e: e[0] != e[1]),
        min_size=10,
        max_size=30,
    ),
    st.integers(0, 5),
    st.integers(0, 9),
    st.one_of(st.none(), st.integers(1, 12).map(lambda h: h / 2)),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_flood_matches_reference_walk_bit_for_bit(raw, root, start, horizon, seed):
    # few timestamps, so most floods shuffle a group of shared ones, and
    # whole horizons end exactly on one
    net = _temporal([(a, b, float(t), float(t)) for a, b, t in raw], n=6)
    start = float(start)
    _assert_same_flood(flood_tree(net, root, start, horizon=horizon), reference_flood_tree(net, root, start, horizon))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tree = flood_tree(net, root, start, horizon=horizon, rng=rng)
    _assert_same_flood(tree, reference_flood_tree(net, root, start, horizon, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws
    batch = sample_batch(net, 8, seed=seed, horizon=horizon)
    for i, tree in enumerate(batch.samples):
        rng = derive_rng(seed, "sample", i)
        root_i = int(rng.integers(6))
        start_i = float(rng.uniform(net.t_min, net.t_max))
        assert (tree.root, tree.start_time) == (root_i, start_i)
        _assert_same_flood(tree, reference_flood_tree(net, root_i, start_i, horizon, rng))


# ---------------------------------------------------------------------------
# Batches


def test_sample_batch_deterministic(bridged_graph):
    b1 = sample_batch(bridged_graph, 20, seed=5)
    b2 = sample_batch(bridged_graph, 20, seed=5)
    assert np.array_equal(b1.matrices(), b2.matrices())
    b3 = sample_batch(bridged_graph, 20, seed=6)
    assert not np.array_equal(b1.matrices(), b3.matrices())


def test_sample_batch_prefix_stable(bridged_graph):
    # sample i depends only on (seed, i), not on the batch size
    small = sample_batch(bridged_graph, 5, seed=11)
    large = sample_batch(bridged_graph, 12, seed=11)
    assert np.array_equal(small.matrices(), large.matrices()[:5])


def test_sample_batch_temporal_start_times():
    events = [(i % 3, 3 + (i % 2), float(i), float(i) + 0.5) for i in range(40)]
    net = _temporal(events, n=5)
    batch = sample_batch(net, 30, seed=7)
    starts = batch.start_times()
    assert np.all(starts >= net.t_min)
    assert np.all(starts < net.t_max)
    assert batch.source.kind == "temporal"
    assert batch.source.t_min == net.t_min


@pytest.mark.parametrize("horizon", [-5.0, -np.inf, np.nan])
def test_flood_tree_rejects_malformed_horizon(horizon):
    # NaN and a negative horizon read as "no horizon" and "lone roots"
    net = _temporal([(0, 1, 0.0, 1.0), (1, 2, 1.0, 2.0)], n=3)
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        flood_tree(net, 0, 0.0, horizon=horizon)


@pytest.mark.parametrize("horizon", [-5.0, -np.inf, np.nan])
def test_sample_batch_rejects_malformed_horizon(horizon):
    net = _temporal([(0, 1, 0.0, 1.0), (1, 2, 1.0, 2.0)], n=3)
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        sample_batch(net, 4, seed=0, horizon=horizon)


def test_sample_batch_rejects_empty(bridged_graph):
    with pytest.raises(ValueError):
        sample_batch(bridged_graph, 0, seed=1)


def test_subset_picks_samples(bridged_graph):
    batch = sample_batch(bridged_graph, 10, seed=3)
    sub = batch.subset([2, 5, 7])
    assert sub.samples == (batch.samples[2], batch.samples[5], batch.samples[7])
    assert sub.n_nodes == batch.n_nodes


def test_filter_batch_extremes(bridged_graph):
    batch = sample_batch(bridged_graph, 15, seed=9)
    rng = derive_rng(1, "f")
    assert filter_batch(batch, lambda s: 1.0, rng).samples == batch.samples
    assert filter_batch(batch, lambda s: 0.0, rng).samples == ()


def test_edge_preference_filter(bridged_graph):
    batch = sample_batch(bridged_graph, 400, seed=13)
    keep = edge_preference(2, 3, 0.0)   # drop every tree using edge (2,3)
    kept = filter_batch(batch, keep, derive_rng(2, "f"))
    assert len(kept.samples) > 0
    assert all(not s.uses_edge(2, 3) for s in kept.samples)
    # partial keep leaves some users in
    some = filter_batch(batch, edge_preference(2, 3, 0.5), derive_rng(3, "f"))
    assert any(s.uses_edge(2, 3) for s in some.samples)


def test_batch_round_trip(tmp_path, bridged_graph):
    batch = sample_batch(bridged_graph, 8, seed=21)
    p = tmp_path / "batch.csv"
    write_batch(batch, p)
    again = read_batch(p)
    assert again.n_nodes == batch.n_nodes
    assert again.seed == batch.seed
    assert len(again.samples) == len(batch.samples)
    for a, b in zip(again.samples, batch.samples):
        assert a.root == b.root
        assert a.parent == b.parent
        assert a.start_time == b.start_time
        assert a.partial == b.partial
    assert np.array_equal(again.matrices(), batch.matrices())


def test_batch_round_trip_temporal(tmp_path):
    events = [(i % 3, 3 + (i % 2), float(i), float(i)) for i in range(30)]
    net = _temporal(events, n=5)
    batch = sample_batch(net, 6, seed=2)
    p = tmp_path / "batch.csv"
    write_batch(batch, p)
    again = read_batch(p)
    assert [s.start_time for s in again.samples] == [s.start_time for s in batch.samples]
    assert [s.partial for s in again.samples] == [s.partial for s in batch.samples]


def test_read_batch_error_lines(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("not a batch\n")
    with pytest.raises(BatchFormatError, match="magic"):
        read_batch(p)
    p.write_text(
        "#contactmodes-batch v1\n"
        "#n_nodes=3 seed=0 kind=static t_min=0.0 t_max=0.0 detail=x\n"
        "T,1,0.0,0\n"
        "E,1,9\n"
    )
    with pytest.raises(BatchFormatError, match="line 4"):
        read_batch(p)


_BATCH_HEAD = (
    "#contactmodes-batch v1\n"
    "#n_nodes=3 seed=0 kind=temporal t_min=0.0 t_max=9.0 detail=x\n"
)


@pytest.mark.parametrize(
    "body, line, message",
    [
        # flag says complete, but node 2 is never reached
        ("T,0,1.0,0\nE,0,1\n", 3, "partial flag 0"),
        # flag says partial, but every node is reached
        ("T,0,1.0,1\nE,0,1\nE,1,2\n", 3, "partial flag 1"),
        # the first of two trees is reported at its own record
        ("T,0,1.0,0\nE,0,1\nT,1,2.0,0\nE,1,0\nE,1,2\n", 3, "partial flag 0"),
        ("T,0,1.0,1\nE,-1,1\n", 4, "node -1 out of range"),
        ("T,0,1.0,1\nE,3,1\n", 4, "node 3 out of range"),
        ("T,3,1.0,1\n", 3, "root 3 out of range"),
        # a parent cycle detached from the root is not a tree
        ("T,0,1.0,0\nE,1,2\nE,2,1\n", 3, "do not form a tree"),
    ],
    ids=[
        "complete-flag-on-partial-tree",
        "partial-flag-on-complete-tree",
        "first-of-two-trees",
        "negative-parent",
        "parent-past-n",
        "root-past-n",
        "detached-cycle",
    ],
)
def test_read_batch_rejects_inconsistent_trees(tmp_path, body, line, message):
    p = tmp_path / "bad.txt"
    p.write_text(_BATCH_HEAD + body)
    with pytest.raises(BatchFormatError, match=message) as exc:
        read_batch(p)
    assert exc.value.line == line


def test_read_batch_accepts_consistent_partial_flags(tmp_path):
    p = tmp_path / "ok.txt"
    p.write_text(_BATCH_HEAD + "T,0,1.0,0\nE,0,1\nE,1,2\nT,2,5.0,1\nT,1,6.0,1\nE,1,0\n")
    batch = read_batch(p)
    assert [s.partial for s in batch.samples] == [False, True, True]
    assert [s.reached for s in batch.samples] == [{0, 1, 2}, {2}, {0, 1}]


_SPAN = "n_nodes=3 seed=0 kind=temporal t_min=0.0 t_max=9.0"


@pytest.mark.parametrize(
    "meta, body, line, message",
    [
        ("n_nodes=3 seed=0 kind=temporal t_min=nan t_max=9.0", "", 2, "not a finite interval"),
        ("n_nodes=3 seed=0 kind=temporal t_min=0.0 t_max=inf", "", 2, "not a finite interval"),
        ("n_nodes=3 seed=0 kind=temporal t_min=9.0 t_max=0.0", "", 2, "not a finite interval"),
        ("n_nodes=0 seed=0 kind=static t_min=0.0 t_max=0.0", "", 2, "not a positive node count"),
        (_SPAN, "T,0,nan,1\n", 3, "start time nan is not finite"),
        (_SPAN, "T,0,1.0,0\nE,0,1\nE,1,2\nT,0,-inf,1\n", 6, "start time -inf"),
        (_SPAN, "T,0,1.0,2\n", 3, "partial flag '2' is neither 0 nor 1"),
        (_SPAN, "T,0,1.0,-1\nE,0,1\n", 3, "partial flag '-1'"),
    ],
    ids=["nan-t-min", "inf-t-max", "reversed-span", "no-nodes", "nan-start", "inf-start-second-tree", "flag-2",
         "flag-minus-1"],
)
def test_read_batch_rejects_non_finite_times_and_bad_flags(tmp_path, meta, body, line, message):
    p = tmp_path / "bad.txt"
    p.write_text(f"#contactmodes-batch v1\n#{meta} detail=x\n{body}")
    with pytest.raises(BatchFormatError, match=message) as exc:
        read_batch(p)
    assert exc.value.line == line


# A valid batch file, then one corruption of one kind at one record; the
# reader must name that record's line in a BatchFormatError and raise
# nothing else.  Candidate values are drawn so that the corruption cannot
# leave a valid file behind.
_NOT_A_NUMBER = ["x", "", "--2", "1e", "0x1f", "one", "1;"]
_NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity"]


def _corrupt(data, lines, n):
    """Return the corrupted lines and the line number the error must name."""
    records = [i for i, line in enumerate(lines) if i >= 2]
    trees = [i for i in records if lines[i].startswith("T,")]
    edges = [i for i in records if lines[i].startswith("E,")]
    kind = data.draw(st.sampled_from(
        ["truncate", "non-numeric", "node-out-of-range", "non-finite-time", "bad-flag"] + (["two-parents"] if edges else [])
    ))
    lines = list(lines)
    if kind == "two-parents":
        i = data.draw(st.sampled_from(edges))
        child = lines[i].split(",")[2]
        lines.insert(i + 1, f"E,{data.draw(st.integers(0, n - 1))},{child}")
        return lines, i + 2
    if kind in ("non-finite-time", "non-numeric") and data.draw(st.booleans()):
        # the metadata line: a required value made non-numeric or non-finite
        keys = ["t_min", "t_max"] if kind == "non-finite-time" else ["n_nodes", "seed", "t_min", "t_max"]
        key = data.draw(st.sampled_from(keys))
        value = data.draw(st.sampled_from(_NON_FINITE if kind == "non-finite-time" else _NOT_A_NUMBER))
        lines[1] = re.sub(rf"(?<=\b{key}=)\S*", value, lines[1], count=1)
        return lines, 2
    i = data.draw(st.sampled_from(trees if kind in ("non-finite-time", "bad-flag") else records))
    fields = lines[i].split(",")
    if kind == "truncate":
        keep = data.draw(st.integers(1, len(fields) - 1))
        lines[i] = ",".join(fields[:keep]) + data.draw(st.sampled_from(["", ","]))
    elif kind == "non-numeric":
        j = data.draw(st.integers(1, len(fields) - 1))
        floaty = fields[0] == "T" and j == 2
        fields[j] = data.draw(st.sampled_from(_NOT_A_NUMBER + ([] if floaty else ["1.5", "nan", "inf"])))
        lines[i] = ",".join(fields)
    elif kind == "node-out-of-range":
        j = 1 if fields[0] == "T" else data.draw(st.integers(1, 2))
        fields[j] = str(data.draw(st.sampled_from([-1, n, n + 7, -n - 2])))
        lines[i] = ",".join(fields)
    elif kind == "non-finite-time":
        fields[2] = data.draw(st.sampled_from(_NON_FINITE))
        lines[i] = ",".join(fields)
    else:  # bad-flag
        fields[3] = str(data.draw(st.sampled_from([2, 3, -1, 10])))
        lines[i] = ",".join(fields)
    return lines, i + 1


@given(st.integers(1, 6), st.integers(0, 2**31 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_read_batch_names_the_line_of_any_corruption(m, seed, data):
    # late floods on this trace are partial, some of them a lone root
    events = [(i % 3, 3 + (i % 2), float(i), float(i)) for i in range(12)]
    batch = sample_batch(_temporal(events, n=5), m, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.txt"
        write_batch(batch, path)
        lines = path.read_text().splitlines()
        again = read_batch(path)
        assert [(s.root, s.start_time, s.partial, dict(s.parent)) for s in again.samples] == [
            (s.root, s.start_time, s.partial, dict(s.parent)) for s in batch.samples
        ]
        bad, line = _corrupt(data, lines, batch.n_nodes)
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(BatchFormatError) as exc:
            read_batch(path)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ")


# ---------------------------------------------------------------------------
# Trees as parent maps, dense only on demand


def _check_dense_against_oracle(batch):
    n = batch.n_nodes
    mats = batch.matrices()
    assert mats.shape == (len(batch), n, n)
    assert mats.dtype == np.float64
    for s, got in zip(batch.samples, mats):
        want = tree_adjacency(n, s.parent)
        assert np.array_equal(got, want)
        assert s.reached == {s.root} | set(s.parent)
        assert all(s.uses_edge(i, j) == (want[i, j] == 1.0) for i in range(n) for j in range(n))


def _check_dense_round_trip(batch):
    _check_dense_against_oracle(batch)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.txt"
        write_batch(batch, path)
        again = read_batch(path)
    _check_dense_against_oracle(again)
    assert np.array_equal(again.matrices(), batch.matrices())


def _static_graphs(n):
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return st.tuples(st.just(n), st.lists(edge, max_size=12))


@given(
    st.integers(2, 8).flatmap(_static_graphs),
    st.booleans(),
    st.integers(1, 12),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_bfs_matrices_match_dense_oracle(graph, connect, m, seed):
    n, edges = graph
    if connect:  # a path backbone makes every tree complete
        edges = edges + [(i, i + 1) for i in range(n - 1)]
    batch = sample_batch(StaticGraph.from_edges(n, edges), m, seed=seed)
    assert all(not s.partial for s in batch.samples) or not connect
    _check_dense_round_trip(batch)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 40)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=25,
    ),
    st.integers(1, 12),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_flood_matrices_match_dense_oracle(raw, m, seed):
    # shared timestamps are allowed: the flood shuffles them per tree
    net = _temporal([(a, b, float(t), float(t)) for a, b, t in raw], n=6)
    batch = sample_batch(net, m, seed=seed)
    _check_dense_round_trip(batch)


def test_dense_oracle_sees_partial_trees():
    # node 3 is never contacted, so every flood is partial
    net = _temporal([(0, 1, 1.0, 1.0), (1, 2, 2.0, 2.0)], n=4)
    floods = sample_batch(net, 6, seed=0)
    # two components: every BFS tree spans only its root's
    bfs = sample_batch(StaticGraph.from_edges(5, [(0, 1), (2, 3), (3, 4)]), 6, seed=0)
    for batch in (floods, bfs):
        assert all(s.partial for s in batch.samples)
        _check_dense_round_trip(batch)


@pytest.mark.parametrize(
    "root, parent",
    [(0, {1: -1, 2: 0}), (0, {-1: 0}), (0, {1: 0, 2: 3}), (3, {})],
    ids=["negative-parent", "negative-child", "parent-past-n", "root-past-n"],
)
def test_batch_rejects_out_of_range_nodes(root, parent):
    ok = TreeSample(root=0, start_time=0.0, parent={1: 0, 2: 1})
    bad = TreeSample(root=root, start_time=1.0, parent=parent, partial=True)
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        SampleBatch(samples=(ok, bad), n_nodes=3, seed=0)


def test_batch_rejects_a_node_that_is_its_own_parent():
    # the dense matrix would put a 1 on its diagonal, which no tree has
    loop = TreeSample(root=0, start_time=0.0, parent={1: 0, 2: 2}, partial=True)
    with pytest.raises(ValueError, match="its own parent"):
        SampleBatch(samples=(loop,), n_nodes=3, seed=0)


def test_tree_sample_takes_keywords_only():
    # positional arguments are refused: a call written for another field
    # order would otherwise bind its values to the wrong fields silently
    with pytest.raises(TypeError):
        TreeSample(0, 0.0, {1: 0}, frozenset({0, 1}), None)
