"""Spanning-tree sampling: BFS snowball samples on static graphs and
message-flooding trees on temporal networks.

Each sample in a batch draws from its own random stream derived from
``(seed, sample index)``, so batches are reproducible regardless of
generation order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import BatchFormatError
from .network import StaticGraph, TemporalNetwork
from .seeds import derive_rng

BATCH_MAGIC = "#contactmodes-batch v1"


@dataclass(frozen=True)
class SourceInfo:
    """Where a batch came from: static graph or temporal trace, plus span."""

    kind: str  # "static" | "temporal"
    t_min: float = 0.0
    t_max: float = 0.0
    detail: str = ""


@dataclass(frozen=True, kw_only=True)
class TreeSample:
    """One spanning tree, stored as its parent map rooted at ``root``.

    The parent map holds the tree's n-1 edges (child -> parent); the
    dense 0/1 matrix is built only on demand, by ``SampleBatch.matrices``.
    ``partial`` marks trees that did not reach every node (disconnected
    static graphs, temporal dead ends).  ``infection_times`` records when
    each reached node first held the message (temporal trees only).
    """

    root: int
    start_time: float
    parent: Mapping[int, int]
    partial: bool = False
    infection_times: Mapping[int, float] | None = None

    @property
    def reached(self) -> frozenset[int]:
        return frozenset(self.parent).union((self.root,))

    def uses_edge(self, i: int, j: int) -> bool:
        return self.parent.get(i) == j or self.parent.get(j) == i

    @property
    def n_edges(self) -> int:
        return len(self.parent)


@dataclass(frozen=True)
class SampleBatch:
    """An ordered collection of tree samples on a shared node set."""

    samples: tuple[TreeSample, ...]
    n_nodes: int
    seed: int
    source: SourceInfo = field(default_factory=lambda: SourceInfo("static"))

    def __post_init__(self):
        for s in self.samples:
            nodes = (s.root, *s.parent, *s.parent.values())
            if min(nodes) < 0 or max(nodes) >= self.n_nodes:
                raise ValueError(f"tree rooted at {s.root} names a node outside [0, {self.n_nodes})")
            if any(map(operator.eq, s.parent, s.parent.values())):
                raise ValueError(f"tree rooted at {s.root} makes a node its own parent")

    def __len__(self) -> int:
        return len(self.samples)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every tree edge of the batch as (tree, child, parent) index
        arrays, trees in batch order."""
        n_edges = [len(s.parent) for s in self.samples]
        tree = np.repeat(np.arange(len(self.samples)), n_edges)
        child = np.fromiter((c for s in self.samples for c in s.parent), dtype=np.intp, count=len(tree))
        par = np.fromiter((p for s in self.samples for p in s.parent.values()), dtype=np.intp, count=len(tree))
        return tree, child, par

    def matrices(self) -> np.ndarray:
        """Dense 0/1 tree matrices, shape (M, n, n): the one place a tree
        turns into an n x n matrix."""
        tree, child, par = self.edge_arrays()
        stack = np.zeros((len(self.samples), self.n_nodes, self.n_nodes))
        stack[tree, child, par] = 1.0
        stack[tree, par, child] = 1.0
        return stack

    def start_times(self) -> np.ndarray:
        return np.array([s.start_time for s in self.samples])

    def subset(self, indices: Sequence[int]) -> "SampleBatch":
        picked = tuple(self.samples[i] for i in indices)
        return replace(self, samples=picked)


def bfs_tree(g: StaticGraph, root: int, rng: np.random.Generator) -> TreeSample:
    """Shortest hop-count tree from ``root``; ties between minimum-distance
    parents break uniformly at random.

    On a disconnected graph the tree spans only the root's component and
    the sample is flagged partial.
    """
    n = g.n_nodes
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    dist = np.full(n, -1, dtype=int)
    dist[root] = 0
    order = [root]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for u in g.neighbors[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                order.append(u)
    parent: dict[int, int] = {}
    for v in sorted(order):
        if v == root:
            continue
        candidates = [u for u in g.neighbors[v] if dist[u] == dist[v] - 1]
        parent[v] = candidates[int(rng.integers(len(candidates)))] if len(candidates) > 1 else candidates[0]
    return TreeSample(
        root=root,
        start_time=0.0,
        parent=parent,
        partial=len(order) < n,
    )


def flood_tree(
    net: TemporalNetwork,
    root: int,
    start: float,
    horizon: float | None = None,
    rng: np.random.Generator | None = None,
) -> TreeSample:
    """Flood a message from ``root`` at time ``start`` and record the tree
    of first deliveries.

    Only events starting at or after ``start`` (and before
    ``start + horizon`` when a horizon is given) can transmit; the message
    passes at the event's start timestamp.  The flood reads the network's
    event columns directly, from the first event found by binary search
    on the sorted ``start`` column.  Events sharing a timestamp are
    processed in a shuffled order drawn from ``rng`` (stored order when no
    rng is given), with earlier deliveries visible to later events at the
    same timestamp.
    """
    n = net.n_nodes
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    if horizon is not None and not horizon >= 0:  # NaN fails too
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    ev_a, ev_b, ev_start, _ = net.event_arrays
    m = len(ev_start)
    cutoff = start + horizon if horizon is not None else np.inf
    i = int(np.searchsorted(ev_start, start, side="left"))
    # indexing a memoryview of a column gives a Python int or float, so the
    # loop below pays none of numpy's per-element scalar cost
    ev_a, ev_b, ev_start = memoryview(ev_a), memoryview(ev_b), memoryview(ev_start)

    informed = bytearray(n)
    informed[root] = 1
    n_informed = 1
    parent: dict[int, int] = {}
    times: dict[int, float] = {root: start}

    while i < m and n_informed < n:
        t = ev_start[i]
        if t >= cutoff:
            break
        j = i + 1
        while j < m and ev_start[j] == t:
            j += 1
        if j - i == 1:
            idx = (i,)
        elif rng is not None:
            idx = (i + rng.permutation(j - i)).tolist()
        else:
            idx = range(i, j)
        for k in idx:
            a = ev_a[k]
            b = ev_b[k]
            ia, ib = informed[a], informed[b]
            if ia == ib:
                continue
            if ia:
                sender, receiver = a, b
            else:
                sender, receiver = b, a
            informed[receiver] = 1
            n_informed += 1
            parent[receiver] = sender
            times[receiver] = t
        i = j

    return TreeSample(
        root=root,
        start_time=start,
        parent=parent,
        partial=len(times) < n,
        infection_times=times,
    )


def sample_batch(
    source: StaticGraph | TemporalNetwork,
    m: int,
    seed: int,
    horizon: float | None = None,
) -> SampleBatch:
    """Draw ``m`` tree samples with roots uniform over nodes and, for
    temporal sources, start times uniform over the trace span.  Tree i
    draws from its own stream: its root, then a flood's start time."""
    if m < 1:
        raise ValueError("need at least one sample")
    n = source.n_nodes
    static = isinstance(source, StaticGraph)
    if static:
        info = SourceInfo(kind="static", detail=f"static graph n={n}")
    else:
        t0, t1 = source.t_min, source.t_max
        info = SourceInfo(kind="temporal", t_min=t0, t_max=t1, detail=f"temporal n={n} events={source.n_events}")
    samples = []
    for i in range(m):
        rng = derive_rng(seed, "sample", i)
        root = int(rng.integers(n))
        if static:
            samples.append(bfs_tree(source, root, rng))
        else:
            samples.append(flood_tree(source, root, float(rng.uniform(t0, t1)), horizon=horizon, rng=rng))
    return SampleBatch(samples=tuple(samples), n_nodes=n, seed=seed, source=info)


def filter_batch(
    batch: SampleBatch,
    keep_probability: Callable[[TreeSample], float],
    rng: np.random.Generator,
) -> SampleBatch:
    """Keep each sample independently with ``keep_probability(sample)``."""
    kept = []
    for s in batch.samples:
        p = keep_probability(s)
        if rng.random() < p:
            kept.append(s)
    detail = (batch.source.detail + "|filtered").lstrip("|")
    return replace(batch, samples=tuple(kept), source=replace(batch.source, detail=detail))


def edge_preference(i: int, j: int, p_keep_if_used: float) -> Callable[[TreeSample], float]:
    """Keep-probability that thins trees using edge (i, j)."""

    def prob(sample: TreeSample) -> float:
        return p_keep_if_used if sample.uses_edge(i, j) else 1.0

    return prob


# ---------------------------------------------------------------------------
# Batch files
#
# Layout (UTF-8 text):
#   #contactmodes-batch v1
#   #n_nodes=<n> seed=<seed> kind=<static|temporal> t_min=<f> t_max=<f> detail=<text>
#   T,<root>,<start_time>,<partial 0|1>
#   E,<parent>,<child>          (one line per tree edge)
# Trees appear in batch order; edges in sorted (parent, child) order.


def write_batch(batch: SampleBatch, path: str | Path) -> None:
    src = batch.source
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        fh.write(BATCH_MAGIC + "\n")
        fh.write(
            f"#n_nodes={batch.n_nodes} seed={batch.seed} kind={src.kind} "
            f"t_min={src.t_min!r} t_max={src.t_max!r} detail={src.detail}\n"
        )
        for s in batch.samples:
            fh.write(f"T,{s.root},{s.start_time!r},{1 if s.partial else 0}\n")
            for child in sorted(s.parent):
                fh.write(f"E,{s.parent[child]},{child}\n")


def read_batch(path: str | Path) -> SampleBatch:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != BATCH_MAGIC:
        raise BatchFormatError(f"not a batch file (missing magic header): {path}")
    if len(lines) < 2 or not lines[1].startswith("#"):
        raise BatchFormatError("missing batch metadata line", line=2)
    meta: dict[str, str] = {}
    for part in lines[1][1:].split(" "):
        if "=" in part:
            key, _, value = part.partition("=")
            meta.setdefault(key, value)
    # detail may contain spaces: everything after "detail=" is the detail
    detail = lines[1].partition("detail=")[2]
    try:
        n_nodes = int(meta["n_nodes"])
        seed = int(meta["seed"])
        kind = meta["kind"]
        t_min = float(meta["t_min"])
        t_max = float(meta["t_max"])
    except (KeyError, ValueError) as exc:
        raise BatchFormatError(f"bad batch metadata: {exc}", line=2) from None
    if n_nodes < 1:
        raise BatchFormatError(f"n_nodes={n_nodes} is not a positive node count", line=2)
    # written as "not within bound" so that a NaN bound fails too
    if not (math.isfinite(t_min) and math.isfinite(t_max) and t_min <= t_max):
        raise BatchFormatError(f"time span t_min={t_min!r} t_max={t_max!r} is not a finite interval", line=2)

    samples: list[TreeSample] = []
    current: dict | None = None

    def close(cur: dict) -> None:
        parent, root, lineno = cur["parent"], cur["root"], cur["line"]
        children: dict[int, list[int]] = {}
        for child, par in parent.items():
            children.setdefault(par, []).append(child)
        reached = {root}
        stack = [root]
        while stack:
            for child in children.get(stack.pop(), ()):
                if child not in reached:
                    reached.add(child)
                    stack.append(child)
        if len(reached) != len(parent) + 1:
            raise BatchFormatError(f"edges do not form a tree rooted at node {root}", line=lineno)
        if cur["partial"] != (len(reached) < n_nodes):
            raise BatchFormatError(
                f"partial flag {int(cur['partial'])} disagrees with the tree, which reaches "
                f"{len(reached)} of {n_nodes} nodes",
                line=lineno,
            )
        samples.append(
            TreeSample(
                root=root,
                start_time=cur["start"],
                parent=parent,
                partial=cur["partial"],
            )
        )

    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        fields = line.split(",")
        if fields[0] == "T":
            if current is not None:
                close(current)
            if len(fields) != 4:
                raise BatchFormatError("tree record needs root,start,partial", line=lineno)
            try:
                root, start, flag = int(fields[1]), float(fields[2]), int(fields[3])
            except ValueError as exc:
                raise BatchFormatError(f"bad tree record: {exc}", line=lineno) from None
            if not 0 <= root < n_nodes:
                raise BatchFormatError(f"root {root} out of range [0, {n_nodes})", line=lineno)
            if not math.isfinite(start):
                raise BatchFormatError(f"start time {start!r} is not finite", line=lineno)
            if flag not in (0, 1):
                raise BatchFormatError(f"partial flag {fields[3]!r} is neither 0 nor 1", line=lineno)
            current = {"root": root, "start": start, "partial": bool(flag), "parent": {}, "line": lineno}
        elif fields[0] == "E":
            if current is None:
                raise BatchFormatError("edge record before any tree record", line=lineno)
            if len(fields) != 3:
                raise BatchFormatError("edge record needs parent,child", line=lineno)
            try:
                par, child = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise BatchFormatError(f"bad edge record: {exc}", line=lineno) from None
            for node in (par, child):
                if not 0 <= node < n_nodes:
                    raise BatchFormatError(f"node {node} out of range [0, {n_nodes})", line=lineno)
            if child in current["parent"]:
                raise BatchFormatError(f"node {child} has two parents", line=lineno)
            current["parent"][child] = par
        else:
            raise BatchFormatError(f"unknown record type {fields[0]!r}", line=lineno)
    if current is not None:
        close(current)
    return SampleBatch(
        samples=tuple(samples),
        n_nodes=n_nodes,
        seed=seed,
        source=SourceInfo(kind=kind, t_min=t_min, t_max=t_max, detail=detail),
    )
