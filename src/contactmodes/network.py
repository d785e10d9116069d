"""Core data types: temporal networks, static graphs and dense symmetric
matrices, plus trace ingestion.

A temporal network stores its contact trace as four read-only columns,
one entry per contact event, in start-time order: endpoints ``a < b``
(int64) and the contact interval ``start``/``end`` (float64 seconds).
Generators build these columns directly and the simulators scan them;
no per-event object is ever made.

Node ids are dense consecutive integers ``0..n_nodes-1``.  Ingestion maps
arbitrary external labels to dense ids in first-seen order over the
time-sorted event list, so re-ingesting a written trace reproduces the
same mapping.  Timestamps are seconds; discrete time steps used by the
samplers and the epidemic simulator are ``floor((t - t_min) / granularity)``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, TraceFormatError

TRACE_HEADER = ("node_a", "node_b", "start", "end")


class SymMatrix:
    """Dense real symmetric matrix with symmetry enforced on construction.

    The default constructor rejects input whose asymmetry exceeds ``tol``
    (relative to the largest entry); use :meth:`symmetrised` to average an
    almost-symmetric matrix explicitly.
    """

    __slots__ = ("_a",)

    def __init__(self, values, *, tol: float = 1e-9):
        a = np.array(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
        if a.size and float(np.abs(a - a.T).max()) > tol * scale:
            raise ValueError("matrix is not symmetric; use SymMatrix.symmetrised")
        # averaged as a - (a - a.T) / 2, which cannot overflow once the
        # check has passed ((a + a.T) / 2 does above about 9e307) and keeps
        # every bit of a symmetric input; mirroring the upper triangle then
        # makes the round-off of the averaging symmetric too
        a = a - (a - a.T) / 2.0
        a = np.where(np.tri(len(a), k=-1, dtype=bool), a.T, a)
        a.setflags(write=False)
        self._a = a

    @classmethod
    def symmetrised(cls, values) -> "SymMatrix":
        """Construct from any square matrix by averaging with its transpose."""
        a = np.array(values, dtype=float)
        return cls((a + a.T) / 2.0, tol=np.inf)

    @classmethod
    def zeros(cls, n: int) -> "SymMatrix":
        return cls(np.zeros((n, n)))

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def values(self) -> np.ndarray:
        """Read-only ndarray view of the entries."""
        return self._a

    def __getitem__(self, idx):
        return self._a[idx]

    def __array__(self, dtype=None, copy=None):
        return np.array(self._a, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


def _id_column(values) -> np.ndarray:
    """Node ids as int64; integral floats are accepted, anything else not."""
    ids = np.asarray(values)
    if ids.dtype.kind == "f" and np.all(np.isfinite(ids)) and np.all(ids == np.floor(ids)):
        ids = ids.astype(np.int64)
    if ids.dtype.kind not in "iu":
        raise ValueError(f"node ids must be integers, got {ids.dtype} values")
    return ids.astype(np.int64)


@dataclass(frozen=True, eq=False)
class TemporalNetwork:
    """A contact trace on ``n_nodes`` dense ids, stored as four read-only
    columns in start-time order: the endpoints ``a < b`` (int64) and the
    contact interval ``[start, end]`` in seconds (float64).

    Any array-likes are accepted; endpoints are swapped into canonical
    order, and self-contacts, ids outside ``0..n_nodes-1``, non-integer
    ids, non-finite times, contacts ending before they start and unsorted
    start times raise ``ValueError``.
    """

    n_nodes: int
    a: np.ndarray
    b: np.ndarray
    start: np.ndarray
    end: np.ndarray
    granularity: float
    label_map: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise ValueError("a temporal network needs at least one node")
        if not 0 < self.granularity < math.inf:  # NaN fails too
            raise ValueError("granularity must be positive finite seconds per step")
        a, b = _id_column(self.a), _id_column(self.b)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        if not (a.ndim == 1 and a.shape == b.shape == start.shape == end.shape):
            raise ValueError("event columns must be flat and of one length")
        self_contact = np.flatnonzero(a == b)
        if self_contact.size:
            raise ValueError(f"self-contact on node {a[self_contact[0]]}")
        if not (np.all(np.isfinite(start)) and np.all(np.isfinite(end))):
            raise ValueError("contact timestamps must be finite")
        backwards = np.flatnonzero(end < start)
        if backwards.size:
            k = backwards[0]
            raise ValueError(f"contact ends before it starts: {start[k]}..{end[k]}")
        if np.any(start[1:] < start[:-1]):
            raise ValueError("events must be sorted by start time")
        a, b = np.minimum(a, b), np.maximum(a, b)
        if a.size and a.min() < 0:
            raise ValueError(f"negative node id {a.min()}")
        if b.size and b.max() >= self.n_nodes:
            raise ValueError(f"event node {b.max()} >= n_nodes {self.n_nodes}")
        for name, col in (("a", a), ("b", b), ("start", start), ("end", end)):
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    @property
    def n_events(self) -> int:
        return len(self.start)

    @property
    def t_min(self) -> float:
        return float(self.start[0]) if self.n_events else 0.0

    @property
    def t_max(self) -> float:
        return float(self.end.max()) if self.n_events else 0.0

    @property
    def span(self) -> float:
        return self.t_max - self.t_min

    @property
    def n_steps(self) -> int:
        if not self.n_events:
            return 0
        return int(math.floor((self.t_max - self.t_min) / self.granularity)) + 1

    @property
    def event_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The stored columns ``(a, b, start, end)``."""
        return self.a, self.b, self.start, self.end

    def inverse_labels(self) -> dict[int, str]:
        if self.label_map:
            return {v: k for k, v in self.label_map.items()}
        return {i: str(i) for i in range(self.n_nodes)}


@dataclass(frozen=True)
class StaticGraph:
    """Weighted undirected graph given by a nonnegative adjacency matrix."""

    adjacency: SymMatrix

    def __post_init__(self):
        a = self.adjacency.values
        if np.any(a < 0):
            raise ValueError("adjacency weights must be nonnegative")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency diagonal must be zero")

    @property
    def n_nodes(self) -> int:
        return self.adjacency.n

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        a = self.adjacency.values
        return tuple(tuple(np.flatnonzero(a[i]).tolist()) for i in range(self.n_nodes))

    def edges(self) -> list[tuple[int, int, float]]:
        """(i, j, weight) for i < j with nonzero weight."""
        a = self.adjacency.values
        ii, jj = np.nonzero(np.triu(a, 1))
        return [(int(i), int(j), float(a[i, j])) for i, j in zip(ii, jj)]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int] | tuple[int, int, float]]) -> "StaticGraph":
        a = np.zeros((n, n))
        for e in edges:
            i, j = e[0], e[1]
            w = e[2] if len(e) > 2 else 1.0
            a[i, j] = a[j, i] = w
        return cls(SymMatrix(a))

    def is_connected(self) -> bool:
        if self.n_nodes == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self.neighbors[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n_nodes


# ---------------------------------------------------------------------------
# Trace ingestion


def _parse_rows(path: Path, fmt: str) -> list[tuple[str, str, float, float]]:
    rows: list[tuple[str, str, float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            for lineno, row in enumerate(reader, start=1):
                if lineno == 1 and [c.strip() for c in row] == list(TRACE_HEADER):
                    continue
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 4:
                    raise TraceFormatError(f"expected 4 columns, got {len(row)}", line=lineno)
                rows.append(_parse_fields(row, lineno))
        elif fmt == "ws4":
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split()
                if len(parts) != 4:
                    raise TraceFormatError(f"expected 4 columns, got {len(parts)}", line=lineno)
                rows.append(_parse_fields(parts, lineno))
        else:
            raise ValueError(f"unknown trace format {fmt!r}; use 'csv' or 'ws4'")
    return rows


def _parse_fields(row: Sequence[str], lineno: int) -> tuple[str, str, float, float]:
    a, b, s, e = (c.strip() for c in row)
    try:
        start, end = float(s), float(e)
    except ValueError as exc:
        raise TraceFormatError(f"bad timestamp: {exc}", line=lineno) from None
    if not (math.isfinite(start) and math.isfinite(end)):
        raise TraceFormatError("non-finite timestamp", line=lineno)
    if end < start:
        raise TraceFormatError(f"end {end} before start {start}", line=lineno)
    if not a or not b:
        raise TraceFormatError("empty node label", line=lineno)
    if a == b:
        raise TraceFormatError(f"self-contact on label {a!r}", line=lineno)
    return a, b, start, end


def _merge_pair_intervals(
    events: list[tuple[int, int, float, float]]
) -> list[tuple[int, int, float, float]]:
    """Union overlapping or abutting intervals per node pair, keeping each
    merged event at the position of its earliest constituent."""
    open_by_pair: dict[tuple[int, int], int] = {}
    out: list[tuple[int, int, float, float]] = []
    for a, b, s, e in events:
        key = (a, b)
        idx = open_by_pair.get(key)
        if idx is not None:
            pa, pb, ps, pe = out[idx]
            if s <= pe:
                out[idx] = (pa, pb, ps, max(pe, e))
                continue
        open_by_pair[key] = len(out)
        out.append((a, b, s, e))
    return out


def ingest_trace(
    path: str | Path,
    fmt: str = "csv",
    granularity: float = 1.0,
    label_map: Mapping[str, int] | None = None,
) -> TemporalNetwork:
    """Read a contact trace into a :class:`TemporalNetwork`.

    Parameters
    ----------
    path : file location of the trace.
    fmt : ``"csv"`` (canonical ``node_a,node_b,start,end`` header) or
        ``"ws4"`` (whitespace-separated 4-column files).
    granularity : seconds per discrete time step for this trace.
    label_map : optional pinned mapping external label -> dense id.  When
        omitted, labels are mapped in first-seen order over the time-sorted
        events and never-seen labels do not occupy ids.

    Directed sightings are canonicalised to undirected pairs, and
    overlapping duplicate events on the same pair are merged (interval
    union).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"trace file not found: {path}")
    rows = _parse_rows(path, fmt)
    if not rows:
        raise DataError(f"empty trace: {path}")
    rows.sort(key=lambda r: r[2])  # stable: ties keep file order

    if label_map is None:
        mapping: dict[str, int] = {}
        for a, b, _, _ in rows:
            for lab in (a, b):
                if lab not in mapping:
                    mapping[lab] = len(mapping)
        n_nodes = len(mapping)
    else:
        mapping = dict(label_map)
        ids = sorted(mapping.values())
        if ids != list(range(len(ids))):
            raise DataError("label map ids must be dense 0..n-1")
        n_nodes = len(ids)
        missing = {lab for a, b, _, _ in rows for lab in (a, b)} - set(mapping)
        if missing:
            raise DataError(f"labels missing from label map: {sorted(missing)[:5]}")

    id_events = []
    for a, b, s, e in rows:
        ia, ib = mapping[a], mapping[b]
        if ia > ib:
            ia, ib = ib, ia
        id_events.append((ia, ib, s, e))
    a, b, start, end = zip(*_merge_pair_intervals(id_events))
    return TemporalNetwork(
        n_nodes=n_nodes, a=a, b=b, start=start, end=end, granularity=granularity, label_map=mapping
    )


def write_trace(net: TemporalNetwork, path: str | Path) -> None:
    """Write a network in the canonical CSV trace format.

    Labels come from the network's label map (dense ids stringified when
    there is none) and are quoted when they hold a comma or a quote;
    times are written as ``repr``.  So re-ingesting a written ingested
    trace reproduces the same events and node count.
    """
    inverse = net.inverse_labels()
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        rows = zip(*(col.tolist() for col in net.event_arrays))
        writer.writerows((inverse[a], inverse[b], start, end) for a, b, start, end in rows)


def write_label_map(net: TemporalNetwork, path: str | Path) -> None:
    """Export the external-label -> node-id mapping as JSON."""
    mapping = net.label_map or {str(i): i for i in range(net.n_nodes)}
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(mapping, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path):
    """Parse a JSON input file; text that is not JSON is a
    :class:`DataError` naming the file."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path}: not a JSON file: {exc}") from exc


def json_int(value, name: str) -> int:
    """An integer field read from JSON.  An integral float such as 3.0
    counts; a bool, a string, or a fractional or non-finite number is a
    :class:`DataError` naming ``name``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DataError(f"{name} must be an integer, got {value!r}")


def read_label_map(path: str | Path) -> dict[str, int]:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise DataError(f"{path}: a label map must be a JSON object of label -> node id")
    return {str(k): json_int(v, f"{path}: node id of label {k!r}") for k, v in raw.items()}


def contact_ends(net: TemporalNetwork) -> np.ndarray:
    """Each contact's end as aggregation counts it: a point contact
    (``end == start``) lasts one time step, ``[start, start + granularity)``."""
    return np.where(net.end > net.start, net.end, net.start + net.granularity)


def aggregate_static(net: TemporalNetwork, t0: float, t1: float) -> StaticGraph:
    """Amalgamate contacts overlapping ``[t0, t1)`` into a static graph.

    Edge weight is the total contact duration on the pair inside the
    window, normalised by the window length, with a point contact lasting
    one time step (:func:`contact_ends`); an empty overlap gives the
    all-zero graph.
    """
    if not t0 < t1:
        raise ValueError(f"empty window: [{t0}, {t1})")
    overlap = np.minimum(contact_ends(net), t1) - np.maximum(net.start, t0)
    hit = overlap > 0
    i, j, w = net.a[hit], net.b[hit], overlap[hit]
    a = np.zeros((net.n_nodes, net.n_nodes))
    # np.add.at adds the repeat contacts of a pair one by one, in event order
    np.add.at(a, (i, j), w)
    np.add.at(a, (j, i), w)
    a /= t1 - t0
    return StaticGraph(SymMatrix(a))
