import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactmodes import (
    DataError,
    StaticGraph,
    SymMatrix,
    TemporalNetwork,
    TraceFormatError,
    aggregate_static,
    ingest_trace,
    read_label_map,
    write_label_map,
    write_trace,
)
from contactmodes.network import contact_ends
from oracles import merge_intervals, reference_aggregate_static


# ---------------------------------------------------------------------------
# SymMatrix


def test_symmatrix_enforces_symmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        SymMatrix([[0.0, 1.0], [2.0, 0.0]])


def test_symmatrix_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError, match="square"):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        SymMatrix([[0.0, np.nan], [np.nan, 0.0]])


def test_symmatrix_symmetrised_averages():
    m = SymMatrix.symmetrised([[0.0, 1.0], [3.0, 0.0]])
    assert m[0, 1] == m[1, 0] == 2.0


def test_symmatrix_keeps_huge_finite_entries():
    # averaging as (a + a.T) / 2 would overflow these to inf
    a = [[0.0, 1.7e308], [1.7e308, 0.0]]
    assert np.array_equal(SymMatrix(a).values, a)


def test_symmatrix_average_is_exactly_symmetric():
    # a - (a - a.T) / 2 rounds differently above and below the diagonal here
    m = SymMatrix([[1.0, -5.36e-11], [3.62e-12, 1.0]])
    assert m[0, 1] == m[1, 0] == pytest.approx(-2.499e-11, rel=1e-12)
    signed_zero = SymMatrix([[-0.0, 1.0], [1.0, 2.0]]).values
    assert np.signbit(signed_zero[0, 0])


def test_symmatrix_values_read_only():
    m = SymMatrix.zeros(3)
    with pytest.raises(ValueError):
        m.values[0, 0] = 1.0


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(-10, 10), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=50, deadline=None)
def test_symmatrix_symmetrised_idempotent(rows):
    m = SymMatrix.symmetrised(rows)
    again = SymMatrix.symmetrised(m.values)
    assert np.array_equal(m.values, again.values)
    assert np.array_equal(m.values, m.values.T)


# ---------------------------------------------------------------------------
# TemporalNetwork


def _net(events, n=None, granularity=1.0):
    """A network whose columns are the (a, b, start, end) rows, in order."""
    a, b, start, end = (list(col) for col in zip(*events))
    if n is None:
        n = max(a + b) + 1
    return TemporalNetwork(n_nodes=n, a=a, b=b, start=start, end=end, granularity=granularity)


def _columns(net):
    return [col.tolist() for col in net.event_arrays]


def test_temporal_network_swaps_endpoints_into_canonical_order():
    net = _net([(5, 2, 1.0, 3.0), (0, 4, 2.0, 2.5)])
    assert _columns(net) == [[2, 0], [5, 4], [1.0, 2.0], [3.0, 2.5]]


def test_temporal_network_rejects_bad_events():
    with pytest.raises(ValueError, match="self-contact on node 1"):
        _net([(0, 1, 0.0, 1.0), (1, 1, 0.0, 1.0)])
    with pytest.raises(ValueError, match="ends before"):
        _net([(0, 1, 0.0, 1.0), (0, 1, 2.0, 1.0)])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            _net([(0, 1, 0.0, bad)])
        with pytest.raises(ValueError, match="finite"):
            _net([(0, 1, bad, 1.0)])


@pytest.mark.parametrize("granularity", [0.0, -1.0, math.nan, math.inf])
def test_temporal_network_rejects_malformed_granularity(granularity):
    with pytest.raises(ValueError, match="granularity must be positive finite"):
        _net([(0, 1, 0.0, 1.0)], granularity=granularity)


def test_temporal_network_rejects_negative_and_non_integer_ids():
    with pytest.raises(ValueError, match="negative node id -1"):
        _net([(-1, 2, 0.0, 1.0)], n=3)
    with pytest.raises(ValueError, match="negative node id -1"):
        _net([(2, -1, 0.0, 1.0)], n=3)
    for bad in (1.5, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="integers"):
            _net([(bad, 3, 0.0, 1.0)], n=4)
    with pytest.raises(ValueError, match="integers"):
        _net([(0, "1", 0.0, 1.0)], n=4)


def test_temporal_network_coerces_column_dtypes():
    net = TemporalNetwork(
        n_nodes=3,
        a=[np.int64(0), 2.0],
        b=np.array([1, 1], dtype=np.int32),
        start=[np.float64(0.5), 1],
        end=np.array([1.5, 2.0], dtype=np.float32),
        granularity=1.0,
    )
    assert [col.dtype for col in net.event_arrays] == [np.int64, np.int64, np.float64, np.float64]
    assert _columns(net) == [[0, 1], [1, 2], [0.5, 1.0], [1.5, 2.0]]
    assert type(net.t_min) is float and type(net.t_max) is float


def test_temporal_network_rejects_ragged_columns():
    with pytest.raises(ValueError, match="one length"):
        TemporalNetwork(n_nodes=3, a=[0, 1], b=[1], start=[0.0], end=[1.0], granularity=1.0)


def test_temporal_network_keeps_its_own_read_only_columns():
    a, b, start, end = np.array([0]), np.array([1]), np.array([0.0]), np.array([1.0])
    net = TemporalNetwork(n_nodes=2, a=a, b=b, start=start, end=end, granularity=1.0)
    a[0], start[0] = 1, 0.5
    assert _columns(net) == [[0], [1], [0.0], [1.0]]
    for col in net.event_arrays:
        with pytest.raises(ValueError):
            col[0] = 0


def test_temporal_network_without_events():
    net = TemporalNetwork(n_nodes=3, a=[], b=[], start=[], end=[], granularity=1.0)
    assert (net.n_events, net.t_min, net.t_max, net.n_steps) == (0, 0.0, 0.0, 0)
    assert [col.dtype for col in net.event_arrays] == [np.int64, np.int64, np.float64, np.float64]


def test_temporal_network_time_span():
    net = _net([(0, 1, 2.0, 4.0), (1, 2, 3.0, 9.0)])
    assert net.t_min == 2.0
    assert net.t_max == 9.0
    assert net.span == 7.0
    assert net.n_steps == 8


def test_temporal_network_requires_sorted_events():
    with pytest.raises(ValueError, match="sorted"):
        _net([(0, 1, 5.0, 6.0), (1, 2, 1.0, 2.0)])


def test_temporal_network_rejects_out_of_range_node():
    with pytest.raises(ValueError, match="n_nodes"):
        _net([(0, 5, 0.0, 1.0)], n=3)


def test_event_arrays_match_events():
    net = _net([(0, 1, 0.0, 1.0), (1, 2, 0.5, 2.0), (0, 2, 3.0, 3.0)])
    a, b, s, e = net.event_arrays
    assert all(x is y for x, y in zip((a, b, s, e), (net.a, net.b, net.start, net.end)))
    assert a.tolist() == [0, 1, 0]
    assert b.tolist() == [1, 2, 2]
    assert s.tolist() == [0.0, 0.5, 3.0]
    assert e.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        a[0] = 9


# ---------------------------------------------------------------------------
# Trace ingestion


TRACE = """node_a,node_b,start,end
alice,bob,10.0,12.0
bob,carol,11.0,15.0
carol,alice,20.0,21.0
"""


def test_ingest_trace_first_seen_labelling(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(TRACE)
    net = ingest_trace(p)
    assert net.label_map == {"alice": 0, "bob": 1, "carol": 2}
    assert net.n_nodes == 3
    assert net.n_events == 3
    assert [col[0] for col in _columns(net)] == [0, 1, 10.0, 12.0]


def test_ingest_trace_orders_by_time_before_labelling(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("node_a,node_b,start,end\nzed,amy,5.0,6.0\nbob,amy,1.0,2.0\n")
    net = ingest_trace(p)
    # bob's contact starts first, so bob takes id 0 despite file order
    assert net.label_map == {"bob": 0, "amy": 1, "zed": 2}


def test_ingest_trace_merges_overlapping_duplicates(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(
        "node_a,node_b,start,end\n"
        "a,b,0.0,5.0\n"
        "b,a,3.0,8.0\n"   # directed duplicate, overlapping
        "a,b,20.0,21.0\n"
    )
    net = ingest_trace(p)
    assert _columns(net) == [[0, 0], [1, 1], [0.0, 20.0], [8.0, 21.0]]


def test_ingest_trace_ws4_with_comments(tmp_path):
    p = tmp_path / "t.dat"
    p.write_text("# comment\n3 7 0.0 1.0\n\n7 9 2.0 2.5\n")
    net = ingest_trace(p, fmt="ws4")
    assert net.n_nodes == 3
    assert net.label_map == {"3": 0, "7": 1, "9": 2}


def test_ingest_trace_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("node_a,node_b,start,end\na,b,0.0,1.0\na,b,oops,1.0\n")
    with pytest.raises(TraceFormatError, match="line 3"):
        ingest_trace(p)
    p.write_text("node_a,node_b,start,end\na,b,0.0\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        ingest_trace(p)
    p.write_text("node_a,node_b,start,end\na,a,0.0,1.0\n")
    with pytest.raises(TraceFormatError, match="self-contact"):
        ingest_trace(p)


# A valid trace, then one corruption of one kind at one record; the reader
# must name that record's line in a TraceFormatError.  Candidate values are
# drawn so that the corruption cannot leave a valid record behind.
_LABELS = ["a", "b", "n7", "42", "zed", "x-1"]
_NOT_A_NUMBER = ["x", "--2", "1e", "0x1f", "one", "1;", "2.0.1"]
_NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity"]


@st.composite
def _trace_lines(draw, fmt):
    """Lines of a valid trace in ``fmt`` and the indices of its records;
    comments, blank lines and (csv) the header sit among them."""
    sep = "," if fmt == "csv" else " "
    lines = ["node_a,node_b,start,end"] if fmt == "csv" and draw(st.booleans()) else []
    records = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 3)) == 0:
            lines.append("" if fmt == "csv" else draw(st.sampled_from(["", "# note", "   "])))
        a, b = draw(st.lists(st.sampled_from(_LABELS), min_size=2, max_size=2, unique=True))
        start = draw(st.integers(0, 1000)) / 4
        end = start + draw(st.integers(0, 40)) / 4
        records.append(len(lines))
        lines.append(sep.join([a, b, repr(start), repr(end)]))
    return lines, records


def _corrupt_record(data, line, fmt):
    sep = "," if fmt == "csv" else " "
    fields = line.split(sep)
    kind = data.draw(st.sampled_from(["columns", "not-a-number", "non-finite", "reversed", "empty-label",
                                      "self-contact"]))
    if kind == "columns":
        if data.draw(st.booleans()):
            fields = fields[: data.draw(st.integers(1, 3))]
        else:
            fields += data.draw(st.lists(st.sampled_from(["1.0", "x", "b"]), min_size=1, max_size=3))
    elif kind in ("not-a-number", "non-finite"):
        pool = _NOT_A_NUMBER + ([""] if fmt == "csv" else []) if kind == "not-a-number" else _NON_FINITE
        fields[data.draw(st.integers(2, 3))] = data.draw(st.sampled_from(pool))
    elif kind == "reversed":
        fields[3] = repr(float(fields[2]) - data.draw(st.sampled_from([0.25, 1.0, 7.5])))
    elif kind == "empty-label":
        # whitespace cannot hold an empty ws4 field: there the record
        # loses a column instead
        fields[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(["", " "]))
    else:  # self-contact
        fields[1] = fields[0]
    return sep.join(fields)


@pytest.mark.parametrize("fmt", ["csv", "ws4"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_ingest_trace_names_the_line_of_any_corruption(tmp_path_factory, fmt, data):
    lines, records = data.draw(_trace_lines(fmt))
    path = tmp_path_factory.mktemp("trace") / f"t.{fmt}"
    path.write_text("\n".join(lines) + "\n")
    assert ingest_trace(path, fmt=fmt).n_events >= 1
    i = data.draw(st.sampled_from(records))
    lines[i] = _corrupt_record(data, lines[i], fmt)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as exc:
        ingest_trace(path, fmt=fmt)
    assert exc.value.line == i + 1
    assert str(exc.value).startswith(f"line {i + 1}: ")


def test_ingest_trace_missing_and_empty(tmp_path):
    with pytest.raises(DataError, match="not found"):
        ingest_trace(tmp_path / "nope.csv")
    p = tmp_path / "t.csv"
    p.write_text("node_a,node_b,start,end\n")
    with pytest.raises(DataError, match="empty"):
        ingest_trace(p)


def test_ingest_trace_pinned_label_map(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(TRACE)
    pinned = {"carol": 0, "bob": 1, "alice": 2, "dave": 3}
    net = ingest_trace(p, label_map=pinned)
    assert net.n_nodes == 4  # dave reserved even though unseen
    assert [col[0] for col in _columns(net)] == [1, 2, 10.0, 12.0]
    with pytest.raises(DataError, match="dense"):
        ingest_trace(p, label_map={"alice": 0, "bob": 2, "carol": 3})
    with pytest.raises(DataError, match="missing"):
        ingest_trace(p, label_map={"alice": 0, "bob": 1})


def test_trace_round_trip(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(TRACE)
    net = ingest_trace(p, granularity=0.5)
    out = tmp_path / "copy.csv"
    write_trace(net, out)
    again = ingest_trace(out, granularity=0.5, label_map=net.label_map)
    assert again.n_nodes == net.n_nodes
    assert _columns(again) == _columns(net)
    assert again.label_map == net.label_map


def test_trace_round_trip_quotes_labels_with_commas_and_quotes(tmp_path):
    # the labels read back as the same strings, so the same ids and events
    p = tmp_path / "t.csv"
    p.write_text('node_a,node_b,start,end\n"x,1",y,0.0,1.0\n"say ""hi""",y,0.5,2.0\n"x,1","a,""b""",3.0,4.0\n')
    net = ingest_trace(p)
    assert set(net.label_map) == {"x,1", "y", 'say "hi"', 'a,"b"'}
    out = tmp_path / "copy.csv"
    write_trace(net, out)
    again = ingest_trace(out)
    assert again.label_map == net.label_map
    assert _columns(again) == _columns(net)


def test_label_map_round_trip(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(TRACE)
    net = ingest_trace(p)
    mp = tmp_path / "labels.json"
    write_label_map(net, mp)
    assert read_label_map(mp) == net.label_map


def test_label_map_identity_fallback(tmp_path):
    net = _net([(0, 1, 0.0, 1.0)])
    mp = tmp_path / "labels.json"
    write_label_map(net, mp)
    assert read_label_map(mp) == {"0": 0, "1": 1}


@given(
    st.lists(
        st.tuples(st.floats(0, 50), st.floats(0, 10)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_duplicate_merging_matches_interval_union(tmp_path_factory, raw):
    intervals = [(s, s + d) for s, d in raw]
    p = tmp_path_factory.mktemp("merge") / "t.csv"
    lines = ["node_a,node_b,start,end"]
    for s, e in intervals:
        lines.append(f"x,y,{s!r},{e!r}")
    p.write_text("\n".join(lines) + "\n")
    net = ingest_trace(p)
    got = list(zip(net.start.tolist(), net.end.tolist()))
    assert got == merge_intervals(intervals)


# ---------------------------------------------------------------------------
# StaticGraph / aggregation


def test_static_graph_basics():
    g = StaticGraph.from_edges(4, [(0, 1), (1, 2, 2.5)])
    assert g.n_nodes == 4
    assert g.neighbors[1] == (0, 2)
    assert g.neighbors[3] == ()
    assert g.edges() == [(0, 1, 1.0), (1, 2, 2.5)]
    assert not g.is_connected()
    assert StaticGraph.from_edges(3, [(0, 1), (1, 2)]).is_connected()


def test_static_graph_rejects_negative_and_loops():
    with pytest.raises(ValueError, match="nonnegative"):
        StaticGraph(SymMatrix([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        StaticGraph(SymMatrix([[1.0, 0.0], [0.0, 0.0]]))


def test_aggregate_static_window_overlap():
    net = _net([(0, 1, 0.0, 4.0), (1, 2, 2.0, 6.0), (0, 2, 10.0, 11.0)])
    g = aggregate_static(net, 0.0, 4.0)
    a = g.adjacency
    assert a[0, 1] == pytest.approx(1.0)     # full window
    assert a[1, 2] == pytest.approx(0.5)     # half the window
    assert a[0, 2] == 0.0                    # outside
    with pytest.raises(ValueError, match="empty window"):
        aggregate_static(net, 3.0, 3.0)


def test_aggregate_static_sums_repeat_contacts():
    net = _net([(0, 1, 0.0, 1.0), (0, 1, 2.0, 3.0)], n=2)
    g = aggregate_static(net, 0.0, 10.0)
    assert g.adjacency[0, 1] == pytest.approx(0.2)


def test_aggregate_static_counts_a_point_contact_as_one_step():
    net = TemporalNetwork(n_nodes=3, a=[0, 1, 0], b=[1, 2, 1], start=[0.0, 1.0, 1.5], end=[0.0, 3.0, 1.5],
                          granularity=0.5)
    assert np.array_equal(contact_ends(net), [0.5, 3.0, 2.0])
    g = aggregate_static(net, 0.0, 4.0)
    assert g.adjacency[0, 1] == pytest.approx(1.0 / 4.0)  # two half steps
    assert g.adjacency[1, 2] == pytest.approx(2.0 / 4.0)
    assert np.array_equal(g.adjacency.values, reference_aggregate_static(net, 0.0, 4.0))
    # a window that ends inside a point contact's step counts its share
    assert aggregate_static(net, 0.0, 0.25).adjacency[0, 1] == pytest.approx(1.0)


def test_aggregate_static_matches_the_event_loop_bit_for_bit():
    # many repeat contacts per pair, so the order of the sums shows
    rng = np.random.default_rng(7)
    start = np.sort(rng.uniform(0.0, 50.0, 400))
    a, b = rng.integers(0, 6, 400), rng.integers(1, 6, 400)
    net = TemporalNetwork(n_nodes=7, a=a, b=(a + b) % 7, start=start, end=start + rng.exponential(3.0, 400),
                          granularity=1.0)
    for t0, t1 in ((0.0, 60.0), (10.3, 27.7), (49.9, 50.1), (-5, 5)):
        assert np.array_equal(aggregate_static(net, t0, t1).adjacency.values, reference_aggregate_static(net, t0, t1))
