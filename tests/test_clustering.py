import csv
import math

import numpy as np
import pytest

from contactmodes import (
    OrthoBasis,
    StaticGraph,
    derive_rng,
    eig_sym,
    fiedler_dendrogram,
    fiedler_vector,
    graph_to_dot,
    project,
    shortest_path_graph,
    threshold_graph,
    to_newick,
    zero_diagonal,
)
from contactmodes.clustering import (
    laplacian,
    write_dot,
    write_edge_csv,
    write_newick,
)
from oracles import slow_all_pairs_shortest


def _block_matrix(blocks, strong=1.0, bridges=()):
    """Disjoint cliques with optional weighted bridge edges."""
    n = sum(len(b) for b in blocks)
    a = np.zeros((n, n))
    for b in blocks:
        for i in b:
            for j in b:
                if i != j:
                    a[i, j] = strong
    for i, j, w in bridges:
        a[i, j] = a[j, i] = w
    return a


# ---------------------------------------------------------------------------
# Laplacian / Fiedler


def test_laplacian_rows_sum_to_zero():
    a = _block_matrix([(0, 1, 2)], bridges=[(0, 2, 0.5)])
    lap = laplacian(a)
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.allclose(lap, np.diag(a.sum(axis=1)) - a)


@pytest.mark.parametrize(
    "reader",
    [
        eig_sym,
        lambda m: project(m, OrthoBasis(np.eye(2))),
        lambda m: threshold_graph(m, 0.1),
        shortest_path_graph,
        laplacian,
        zero_diagonal,
        graph_to_dot,
    ],
    ids=["eig_sym", "project", "threshold_graph", "shortest_path_graph", "laplacian", "zero_diagonal", "graph_to_dot"],
)
def test_matrix_readers_reject_asymmetric_and_nonfinite(reader):
    # every matrix entry point reads its input through SymMatrix
    with pytest.raises(ValueError, match="symmetric"):
        reader(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        reader(np.array([[0.0, np.inf], [np.inf, 0.0]]))


def test_laplacian_input_validation():
    with pytest.raises(ValueError, match="symmetric"):
        laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        laplacian(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        laplacian(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        laplacian(np.array([[0.0, np.inf], [np.inf, 0.0]]))


def test_zero_diagonal_strips_self_weights():
    m = zero_diagonal(np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert np.array_equal(m.values, [[0.0, 1.0], [1.0, 0.0]])


def test_fiedler_value_of_path_graph():
    # P4 Laplacian spectrum: 2 - 2cos(k pi / 4)
    a = np.zeros((4, 4))
    for i in range(3):
        a[i, i + 1] = a[i + 1, i] = 1.0
    res = fiedler_vector(a)
    assert res.value == pytest.approx(2 - np.sqrt(2.0), abs=1e-9)
    assert not res.disconnected
    assert np.linalg.norm(res.vector) == pytest.approx(1.0)
    nz = res.vector[np.abs(res.vector) > 1e-12]
    assert nz[0] > 0  # deterministic sign convention


def test_fiedler_sign_splits_planted_blocks():
    a = _block_matrix([(0, 1, 2), (3, 4, 5)], bridges=[(2, 3, 0.05)])
    res = fiedler_vector(a)
    signs = res.vector >= 0
    assert len(set(signs[:3])) == 1
    assert len(set(signs[3:])) == 1
    assert signs[0] != signs[3]


def test_fiedler_flags_disconnected():
    a = _block_matrix([(0, 1), (2, 3)])
    res = fiedler_vector(a)
    assert res.disconnected
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_fiedler_needs_two_nodes():
    with pytest.raises(ValueError, match="two nodes"):
        fiedler_vector(np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# Dendrograms


def _hierarchy_matrix():
    """Four 3-cliques, paired into two superblocks by medium links, with a
    weak link between the superblocks."""
    blocks = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    bridges = [(2, 3, 0.2), (8, 9, 0.2), (5, 6, 0.02)]
    return _block_matrix(blocks, bridges=bridges)


def test_dendrogram_two_blocks():
    a = _block_matrix([(0, 1, 2), (3, 4, 5)], bridges=[(2, 3, 0.05)])
    dendro = fiedler_dendrogram(a, min_size=3)
    assert dendro.blocks_at_level(1) == [(0, 1, 2), (3, 4, 5)]
    assert dendro.root.children[0].members == (0, 1, 2)
    assert dendro.depth() == 1


def test_dendrogram_two_level_hierarchy():
    dendro = fiedler_dendrogram(_hierarchy_matrix(), min_size=3)
    assert dendro.blocks_at_level(1) == [(0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)]
    assert dendro.blocks_at_level(2) == [
        (0, 1, 2),
        (3, 4, 5),
        (6, 7, 8),
        (9, 10, 11),
    ]
    # cutting deeper than the tree keeps the leaf blocks
    assert dendro.blocks_at_level(5) == dendro.blocks_at_level(2)


def test_dendrogram_min_size_stops_recursion():
    dendro = fiedler_dendrogram(_hierarchy_matrix(), min_size=6)
    assert all(leaf.size == 6 for leaf in dendro.leaves())
    assert dendro.depth() == 1


def test_dendrogram_singleton_leaves():
    a = _block_matrix([(0, 1, 2)])
    dendro = fiedler_dendrogram(a, min_size=1)
    assert sorted(leaf.members for leaf in dendro.leaves()) == [(0,), (1,), (2,)]


def test_dendrogram_disconnected_block_becomes_leaf():
    a = _block_matrix([(0, 1), (2, 3)])
    dendro = fiedler_dendrogram(a, min_size=1)
    assert dendro.root.is_leaf
    assert dendro.root.disconnected
    assert dendro.blocks_at_level(0) == [(0, 1, 2, 3)]


def test_newick_export():
    dendro = fiedler_dendrogram(_hierarchy_matrix(), min_size=3)
    assert to_newick(dendro) == "(((0,1,2),(3,4,5)),((6,7,8),(9,10,11)));\n"
    labelled = to_newick(dendro, labels=[f"n{i}" for i in range(12)])
    assert labelled.startswith("(((n0,n1,n2)")
    with pytest.raises(ValueError, match="one label"):
        to_newick(dendro, labels=["x"])


def test_newick_quotes_labels_holding_delimiters():
    # nodes 0 and 1 are strongly linked, node 2 hangs off both
    a = np.array([[0.0, 1.0, 0.1], [1.0, 0.0, 0.1], [0.1, 0.1, 0.0]])
    dendro = fiedler_dendrogram(a)
    assert to_newick(dendro, labels=["a,b", "c(d)", "e;'f"]) == "(('a,b','c(d)'),'e;''f');\n"
    assert to_newick(dendro, labels=["x:1", "y z", "w"]) == "(('x:1','y z'),w);\n"


# ---------------------------------------------------------------------------
# Presentation graphs


def test_threshold_graph_drops_weak_entries():
    h = np.array([[0.0, 0.4, 0.05], [0.4, 0.0, 0.2], [0.05, 0.2, 0.0]])
    out = threshold_graph(h, 0.2)
    assert out[0, 1] == 0.4
    assert out[1, 2] == 0.2      # at the threshold survives
    assert out[0, 2] == 0.0
    with pytest.raises(ValueError):
        threshold_graph(h, -0.1)


def test_shortest_path_graph_drops_dominated_edge():
    # two strong legs beat the weak direct link: 1/0.9 + 1/0.9 < 1/0.1
    h = np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.9], [0.9, 0.9, 0.0]])
    g = shortest_path_graph(h)
    a = g.adjacency.values
    assert a[0, 1] == 0.0
    assert a[0, 2] == 0.9 and a[1, 2] == 0.9


def test_shortest_path_graph_keeps_equal_triangle():
    h = np.full((3, 3), 0.5)
    np.fill_diagonal(h, 0.0)
    g = shortest_path_graph(h)
    assert len(g.edges()) == 3


def test_shortest_path_graph_union_of_ties():
    # equal-weight 4-cycle: opposite corners have two co-minimal routes and
    # every edge lies on one of them
    h = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        h[i, j] = h[j, i] = 1.0
    assert len(shortest_path_graph(h).edges()) == 4


def test_shortest_path_graph_transforms_disagree():
    # direct 0.5 vs two hops of 0.8: additive lengths prefer the direct
    # link, multiplicative (neglog) lengths prefer the detour
    h = np.array([[0.0, 0.5, 0.8], [0.5, 0.0, 0.8], [0.8, 0.8, 0.0]])
    recip = shortest_path_graph(h, transform="reciprocal")
    neglog = shortest_path_graph(h, transform="neglog")
    assert recip.adjacency[0, 1] == 0.5
    assert neglog.adjacency[0, 1] == 0.0
    with pytest.raises(ValueError, match="transform"):
        shortest_path_graph(h, transform="what")


def test_shortest_path_graph_neglog_weight_above_one():
    # -log(1.5) < 0 would make 0-1 a negative cycle; the length is clamped to 0
    h = np.array([[0.0, 1.5, 0.5], [1.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    g = shortest_path_graph(h, transform="neglog")
    assert g.edges() == [(0, 1, 1.5), (0, 2, 0.5), (1, 2, 0.5)]


def test_shortest_path_graph_epsilon_excludes_weak_edges():
    h = np.array([[0.0, 0.5, 0.01], [0.5, 0.0, 0.0], [0.01, 0.0, 0.0]])
    g = shortest_path_graph(h, epsilon=0.05)
    assert g.edges() == [(0, 1, 0.5)]


@pytest.mark.parametrize("epsilon", [math.nan, -1.0])
def test_shortest_path_graph_rejects_malformed_epsilon(epsilon):
    # a NaN floor would drop every edge and a negative one would make
    # the zero weights edges of infinite length 1/0
    h = np.array([[0.0, 0.5, 0.01], [0.5, 0.0, 0.0], [0.01, 0.0, 0.0]])
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        shortest_path_graph(h, epsilon=epsilon)


def test_shortest_path_graph_handles_disconnected_components():
    h = np.zeros((4, 4))
    h[0, 1] = h[1, 0] = 0.7
    h[2, 3] = h[3, 2] = 0.3
    g = shortest_path_graph(h)
    assert g.edges() == [(0, 1, 0.7), (2, 3, 0.3)]


def test_shortest_path_graph_against_brute_force():
    rng = derive_rng(11, "spg")
    for trial in range(15):
        n = int(rng.integers(4, 8))
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        a = np.triu(a, 1)
        a = a + a.T
        g = shortest_path_graph(a)
        lengths = np.where(a > 0, 1.0 / np.where(a > 0, a, 1.0), np.inf)
        np.fill_diagonal(lengths, 0.0)
        d = slow_all_pairs_shortest(lengths)
        kept = g.adjacency.values
        for i in range(n):
            for j in range(i + 1, n):
                if a[i, j] <= 0:
                    assert kept[i, j] == 0.0
                    continue
                best = np.inf
                for s in range(n):
                    for t in range(n):
                        through = min(
                            d[s, i] + lengths[i, j] + d[j, t],
                            d[s, j] + lengths[i, j] + d[i, t],
                        )
                        if np.isfinite(through) and np.isfinite(d[s, t]):
                            best = min(best, through - d[s, t])
                on_some_path = best <= 1e-9 * (1.0 + abs(best))
                assert (kept[i, j] > 0) == on_some_path, (trial, i, j)


# ---------------------------------------------------------------------------
# Exports


def test_graph_to_dot_structure():
    g = StaticGraph.from_edges(3, [(0, 1, 0.9), (1, 2, 0.3)])
    dot = graph_to_dot(g, labels=["a", "b", "c"])
    assert dot.startswith("graph")
    assert 'label="a"' in dot
    assert "0 -- 1" in dot and "1 -- 2" in dot
    assert "penwidth" in dot
    assert dot.count("--") == 2
    # a StaticGraph is read by its adjacency, as a weight matrix is
    assert graph_to_dot(g) == graph_to_dot(g.adjacency)


def test_write_dot_and_edge_csv(tmp_path):
    g = StaticGraph.from_edges(3, [(0, 1, 0.9), (1, 2, 0.3)])
    write_dot(g, tmp_path / "g.dot")
    assert (tmp_path / "g.dot").read_text() == graph_to_dot(g)
    write_edge_csv(g, tmp_path / "g.csv")
    lines = (tmp_path / "g.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["node_a", "node_b"]
    assert len(lines) == 3


def test_graph_exports_quote_labels(tmp_path):
    g = StaticGraph.from_edges(2, [(0, 1, 0.5)])
    labels = ['a,"b', "c"]
    write_edge_csv(g, tmp_path / "g.csv", labels=labels)
    with open(tmp_path / "g.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["node_a", "node_b", "weight"], ['a,"b', "c", "0.5"]]
    assert '  0 [label="a,\\"b", ' in graph_to_dot(g, labels=labels)


def test_write_newick(tmp_path):
    a = _block_matrix([(0, 1, 2), (3, 4, 5)], bridges=[(2, 3, 0.05)])
    dendro = fiedler_dendrogram(a, min_size=3)
    write_newick(dendro, tmp_path / "d.nwk")
    assert (tmp_path / "d.nwk").read_text() == "((0,1,2),(3,4,5));\n"
