"""Community structure and presentation graphs for weighted average
graphs: Fiedler-vector bisection dendrograms, shortest-path edge
selection, and simple thresholding, plus DOT / edge-list / Newick
exports."""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jointdiag import eig_sym
from .network import StaticGraph, SymMatrix

# second-smallest Laplacian eigenvalue at or below this (relative to the
# largest) counts as zero, i.e. the graph is disconnected
_CONNECTIVITY_TOL = 1e-9


def _as_weight_matrix(w) -> np.ndarray:
    """Writable copy of a symmetric weight matrix (a StaticGraph is read by
    its adjacency) with a zero diagonal and no negative weights."""
    a = SymMatrix(w.adjacency if isinstance(w, StaticGraph) else w).values.copy()
    scale = 1.0 + float(np.abs(a).max(initial=0.0))
    if float(np.abs(np.diagonal(a)).max(initial=0.0)) > 1e-9 * scale:
        raise ValueError("weight matrix must have a zero diagonal")
    np.fill_diagonal(a, 0.0)
    if a.min(initial=0.0) < -1e-12:
        raise ValueError("weights must be nonnegative")
    np.clip(a, 0.0, None, out=a)
    return a


def zero_diagonal(m) -> SymMatrix:
    """Copy of a symmetric matrix with its diagonal set to zero."""
    a = np.array(np.asarray(m), dtype=float)
    np.fill_diagonal(a, 0.0)
    return SymMatrix(a)


def laplacian(w) -> np.ndarray:
    """Graph Laplacian L = D - W with D the diagonal of row sums."""
    a = _as_weight_matrix(w)
    lap = -a
    np.fill_diagonal(lap, a.sum(axis=1))
    return lap


@dataclass(frozen=True)
class FiedlerResult:
    """Second-smallest Laplacian eigenpair; ``disconnected`` marks an
    (effectively) zero eigenvalue."""

    value: float
    vector: np.ndarray
    disconnected: bool

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=float)
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)


def fiedler_vector(w) -> FiedlerResult:
    """Eigenvector of the second-smallest eigenvalue of L = D - W.

    The vector has unit norm and its first nonzero entry is positive.
    A second eigenvalue indistinguishable from zero sets the
    ``disconnected`` flag.
    """
    lap = laplacian(w)
    n = lap.shape[0]
    if n < 2:
        raise ValueError("Fiedler vector needs at least two nodes")
    eigvals, basis = eig_sym(lap)
    # eig_sym sorts descending: smallest eigenvalue last
    largest = float(eigvals[0])
    if float(eigvals[-1]) < -1e-10 * max(1.0, abs(largest)):
        raise ValueError("Laplacian produced a significantly negative eigenvalue")
    value = float(eigvals[n - 2])
    vector = basis.column(n - 2).copy()
    disconnected = value <= _CONNECTIVITY_TOL * max(1.0, largest)
    return FiedlerResult(value=value, vector=vector, disconnected=disconnected)


@dataclass(frozen=True)
class DendroNode:
    """One block in the bisection tree.

    ``level`` is the depth from the root; internal nodes record the
    Fiedler value of the split that produced their children.
    """

    members: tuple
    level: int
    fiedler_value: float | None
    disconnected: bool
    children: tuple

    def __post_init__(self):
        if self.children:
            if len(self.children) != 2:
                raise ValueError("internal dendrogram nodes have exactly two children")
            merged = sorted(self.children[0].members + self.children[1].members)
            if tuple(merged) != self.members:
                raise ValueError("children must partition the parent block")
            if not (self.children[0].members and self.children[1].members):
                raise ValueError("both sides of a bisection must be nonempty")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Dendrogram:
    """Recursive Fiedler bisection of a weighted graph."""

    root: DendroNode
    n_nodes: int

    def __post_init__(self):
        covered = sorted(m for leaf in self.leaves() for m in leaf.members)
        if covered != list(range(self.n_nodes)):
            raise ValueError("dendrogram leaves must cover every node exactly once")

    def leaves(self) -> list:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out

    def depth(self) -> int:
        return max(leaf.level for leaf in self.leaves())

    def blocks_at_level(self, level: int) -> list:
        """Partition obtained by cutting the tree at the given depth.

        Nodes sitting exactly at ``level`` and leaves above it form the
        blocks; each block is a sorted tuple of node indices, and the
        list is ordered by smallest member.
        """
        if level < 0:
            raise ValueError("level must be nonnegative")
        blocks = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.level == level or (node.is_leaf and node.level < level):
                blocks.append(node.members)
            elif not node.is_leaf:
                stack.extend(node.children)
        return sorted(blocks, key=lambda b: b[0])


def fiedler_dendrogram(w, min_size: int = 1) -> Dendrogram:
    """Recursively bisect a graph by Fiedler-vector sign.

    Splitting stops when a block has at most ``min_size`` nodes or is
    internally disconnected (zero Fiedler value, where the sign pattern
    is arbitrary within the null space).
    """
    a = _as_weight_matrix(w)
    n = a.shape[0]
    if min_size < 1:
        raise ValueError("min_size must be at least 1")

    def build(indices: np.ndarray, level: int) -> DendroNode:
        members = tuple(int(i) for i in indices)
        if len(indices) <= max(min_size, 1):
            return DendroNode(members, level, None, False, ())
        res = fiedler_vector(a[np.ix_(indices, indices)])
        if res.disconnected:
            return DendroNode(members, level, res.value, True, ())
        neg = indices[res.vector < 0.0]
        pos = indices[res.vector >= 0.0]
        if len(neg) == 0 or len(pos) == 0:
            # numerically degenerate split; keep the block whole
            return DendroNode(members, level, res.value, False, ())
        first, second = (neg, pos) if neg[0] < pos[0] else (pos, neg)
        children = (build(first, level + 1), build(second, level + 1))
        return DendroNode(members, level, res.value, False, children)

    return Dendrogram(root=build(np.arange(n), 0), n_nodes=n)


def threshold_graph(hbar, tau: float) -> SymMatrix:
    """Zero out entries strictly below the threshold.

    ``hbar`` is read as a :class:`SymMatrix`, so a matrix that is not
    square, finite and symmetric raises ``ValueError``.
    """
    if not tau >= 0:  # NaN fails too
        raise ValueError(f"threshold tau must be nonnegative, got {tau}")
    a = SymMatrix(hbar).values.copy()
    a[a < tau] = 0.0
    return SymMatrix(a)


def shortest_path_graph(
    hbar,
    epsilon: float = 0.0,
    transform: str = "reciprocal",
) -> StaticGraph:
    """Subgraph of the edges lying on at least one weighted shortest path.

    ``hbar`` is read as a :class:`SymMatrix`, so a matrix that is not
    square, finite and symmetric raises ``ValueError``.  The diagonal is
    ignored and tiny negative reconstruction artefacts are clamped to zero.
    Weights at most ``epsilon``, which must be nonnegative, contribute no
    edge; the rest become lengths 1/weight, or -log(min(weight, 1)) with
    ``transform='neglog'``: a weight above 1 gets length 0, because a
    negative length on an undirected edge would be a negative cycle.
    All-pairs shortest paths are computed and an edge is kept when some
    node pair has a co-minimal path through it, that is, when the edge is
    itself a co-minimal path between its ends; kept edges retain their
    original weights.
    """
    if transform not in ("reciprocal", "neglog"):
        raise ValueError(f"unknown transform {transform!r}")
    if not epsilon >= 0:  # NaN fails too
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    a = SymMatrix(hbar).values.copy()
    np.fill_diagonal(a, 0.0)
    np.clip(a, 0.0, None, out=a)
    n = a.shape[0]

    present = a > epsilon
    lengths = np.full((n, n), math.inf)
    if transform == "reciprocal":
        lengths[present] = 1.0 / a[present]
    else:
        lengths[present] = -np.log(np.minimum(a[present], 1.0))
    np.fill_diagonal(lengths, 0.0)

    d = lengths.copy()
    for k in range(n):
        np.minimum(d, d[:, k][:, None] + d[k, :][None, :], out=d)

    # a subpath of a shortest path is itself shortest, so an edge lies on
    # some shortest path exactly when it is a shortest path between its ends
    keep = present & (lengths <= d + 1e-9 * (1.0 + np.abs(d)))

    return StaticGraph(SymMatrix(np.where(keep, a, 0.0)))


def _edge_list(graph, labels) -> tuple[np.ndarray, list, list]:
    """Weights, labels and the upper-triangle edges (i, j) in row-major
    order of a graph given as a StaticGraph or a weight matrix."""
    a = _as_weight_matrix(graph)
    n = a.shape[0]
    if labels is None:
        labels = [str(i) for i in range(n)]
    elif len(labels) != n:
        raise ValueError("need one label per node")
    ii, jj = np.nonzero(np.triu(a, 1))
    return a, labels, list(zip(ii.tolist(), jj.tolist()))


def graph_to_dot(graph, labels=None) -> str:
    """DOT text for an undirected weighted graph.

    Node circles scale with their incident weight sum; edge pen widths
    scale with weight.  Backslashes and double quotes in labels are
    escaped.
    """
    a, labels, edges = _edge_list(graph, labels)
    sums = a.sum(axis=1)
    top = float(sums.max(initial=0.0))
    wmax = float(a.max(initial=0.0))
    lines = ["graph G {", "  node [shape=circle, fixedsize=true];"]
    for i, label in enumerate(labels):
        size = 0.2 + (0.8 * sums[i] / top if top > 0 else 0.0)
        quoted = str(label).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {i} [label="{quoted}", width={size:.4f}];')
    for i, j in edges:
        pen = 0.5 + (2.5 * a[i, j] / wmax if wmax > 0 else 0.0)
        lines.append(f'  {i} -- {j} [weight={a[i, j]:.6g}, penwidth={pen:.4f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot(graph, path, labels=None) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write(graph_to_dot(graph, labels=labels))


def write_edge_csv(graph, path, labels=None) -> None:
    """Edge list as ``node_a,node_b,weight`` rows (header included);
    labels holding a comma or a quote are quoted."""
    a, labels, edges = _edge_list(graph, labels)
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("node_a", "node_b", "weight"))
        writer.writerows((labels[i], labels[j], float(a[i, j])) for i, j in edges)


def to_newick(dendro: Dendrogram, labels=None) -> str:
    """Newick-style nested text for a dendrogram; multi-node leaves are
    written as flat groups.  A label holding whitespace or one of
    ``,();:'`` is written in single quotes, with each ``'`` doubled."""
    if labels is None:
        labels = [str(i) for i in range(dendro.n_nodes)]
    elif len(labels) != dendro.n_nodes:
        raise ValueError("need one label per node")
    labels = ["'" + s.replace("'", "''") + "'" if re.search(r"[,();:'\s]", s) else s for s in labels]

    def render(node: DendroNode) -> str:
        if node.is_leaf:
            if node.size == 1:
                return labels[node.members[0]]
            return "(" + ",".join(labels[m] for m in node.members) + ")"
        return "(" + ",".join(render(c) for c in node.children) + ")"

    return render(dendro.root) + ";\n"


def write_newick(dendro: Dendrogram, path, labels=None) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write(to_newick(dendro, labels=labels))
