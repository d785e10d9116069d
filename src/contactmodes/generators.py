"""Synthetic contact-network generators used for validation.

Three families: uniformly random per-step contacts, and Waxman /
generalised-linear-preferential (GLP) static topologies whose links are
animated into contact events by power-law (Pareto) inter-contact gaps.
A switching schedule concatenates several generators over time and
keeps the ground-truth step labels, so pipeline output can be scored
against a known segmentation.  Every generator builds the event columns
of its :class:`TemporalNetwork` with whole-array numpy operations.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, DataError
from .network import StaticGraph, SymMatrix, TemporalNetwork, json_int, read_json
from .seeds import derive_rng, derive_seed_sequence

_KINDS = ("random", "waxman", "glp")


@dataclass(frozen=True)
class GeneratorSpec:
    """One generator: its family, node count and family-specific
    parameters (stored as sorted name/value pairs so specs hash and
    compare cleanly)."""

    kind: str
    n_nodes: int
    params: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        params = tuple(sorted((str(k), float(v)) for k, v in dict(self.params).items()))
        object.__setattr__(self, "params", params)
        p = dict(params)
        if self.kind == "random":
            frac = p.get("contact_fraction")
            if frac is None or not 0.0 < frac <= 1.0:
                raise ValueError("random generator needs contact_fraction in (0, 1]")
        elif self.kind == "waxman":
            for name in ("alpha", "beta"):
                v = p.get(name)
                if v is None or not 0.0 < v <= 1.0:
                    raise ValueError(f"waxman generator needs {name} in (0, 1]")
        else:
            m = p.get("m_edges")
            bg = p.get("beta_glp")
            if m is None or bg is None:
                raise ValueError("glp generator needs m_edges and beta_glp")
            if not (m.is_integer() and 1 <= m < self.n_nodes):
                raise ValueError("need integer 1 <= m_edges < n_nodes")
            if not -np.inf < bg < 1.0:
                raise ValueError("beta_glp must be finite and below 1")

    def get(self, name: str) -> float:
        return dict(self.params)[name]

    @classmethod
    def random(cls, n_nodes: int = 50, contact_fraction: float = 0.05) -> "GeneratorSpec":
        return cls("random", n_nodes, (("contact_fraction", contact_fraction),))

    @classmethod
    def waxman(cls, n_nodes: int, alpha: float, beta: float) -> "GeneratorSpec":
        return cls("waxman", n_nodes, (("alpha", alpha), ("beta", beta)))

    @classmethod
    def glp(cls, n_nodes: int, m_edges: int = 2, beta_glp: float = 0.2) -> "GeneratorSpec":
        return cls("glp", n_nodes, (("beta_glp", beta_glp), ("m_edges", m_edges)))


def gen_random_contacts(n: int, contact_fraction: float, steps: int, seed: int = 0) -> TemporalNetwork:
    """Each unordered pair is independently in contact with probability
    ``contact_fraction`` at every step; events last one step."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0.0 < contact_fraction <= 1.0:
        raise ValueError("contact_fraction must lie in (0, 1]")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rng = derive_rng(seed, "random-contacts")
    rows, cols = np.triu_indices(n, 1)
    hits = rng.random((steps, len(rows))) < contact_fraction
    step_idx, pair_idx = np.nonzero(hits)  # step-major, so already time-sorted
    t = step_idx.astype(np.float64)
    return TemporalNetwork(n_nodes=n, a=rows[pair_idx], b=cols[pair_idx], start=t, end=t + 1.0, granularity=1.0)


def gen_waxman_topology(
    n: int,
    alpha: float,
    beta: float,
    seed: int = 0,
    max_retries: int = 200,
) -> StaticGraph:
    """Waxman random topology: points uniform on the unit square, pair
    (u, v) linked with probability alpha * exp(-beta * d(u, v)).

    A draw that comes out disconnected is discarded and re-sampled, so
    the returned graph always has one component on all n nodes; the
    retry budget guards against parameter choices that almost never
    connect.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
        raise ValueError("alpha and beta must lie in (0, 1]")
    rows, cols = np.triu_indices(n, 1)
    for attempt in range(max_retries):
        rng = derive_rng(seed, "waxman", attempt)
        pts = rng.random((n, 2))
        d = np.sqrt(((pts[rows] - pts[cols]) ** 2).sum(axis=1))
        linked = rng.random(len(rows)) < alpha * np.exp(-beta * d)
        adj = np.zeros((n, n))
        adj[rows[linked], cols[linked]] = 1.0
        adj[cols[linked], rows[linked]] = 1.0
        g = StaticGraph(SymMatrix(adj))
        if g.is_connected():
            return g
    raise ConvergenceError(
        f"waxman topology stayed disconnected over {max_retries} draws "
        f"(n={n}, alpha={alpha}, beta={beta})"
    )


def preferential_targets(degrees, m: int, beta_glp: float, rng: np.random.Generator) -> list:
    """Choose m distinct nodes with probability proportional to
    (degree - beta_glp), removing each pick from the pool."""
    weights = np.asarray(degrees, dtype=float) - beta_glp
    if np.any(weights <= 0):
        raise ValueError("every degree must exceed beta_glp")
    if not 1 <= m <= len(weights):
        raise ValueError("m out of range")
    weights = weights.copy()
    chosen = []
    for _ in range(m):
        p = weights / weights.sum()
        pick = int(rng.choice(len(weights), p=p))
        chosen.append(pick)
        weights[pick] = 0.0
    return chosen


def gen_glp_topology(n: int, m_edges: int = 2, beta_glp: float = 0.2, seed: int = 0) -> StaticGraph:
    """Growth model: start from a small clique and attach each new node
    to m existing nodes chosen preferentially by (degree - beta_glp).

    Connected by construction; beta_glp = 0 with m = 1 reduces to the
    plain preferential-attachment tree.
    """
    if not 1 <= m_edges < n:
        raise ValueError("need 1 <= m_edges < n")
    if not -np.inf < beta_glp < 1.0:
        raise ValueError("beta_glp must be finite and below 1")
    rng = derive_rng(seed, "glp")
    m0 = m_edges + 1
    adj = np.zeros((n, n))
    adj[:m0, :m0] = 1.0
    np.fill_diagonal(adj, 0.0)
    degrees = adj.sum(axis=1)
    for v in range(m0, n):
        targets = preferential_targets(degrees[:v], m_edges, beta_glp, rng)
        for t in targets:
            adj[v, t] = adj[t, v] = 1.0
            degrees[t] += 1.0
        degrees[v] = m_edges
    return StaticGraph(SymMatrix(adj))


def _edge_instants(steps: int, tail_exponent: float, min_gap: float, rng: np.random.Generator) -> np.ndarray:
    """Cumulative Pareto(min_gap, tail_exponent) gaps below ``steps``."""
    total = 0.0
    instants = []
    while total < steps:
        gaps = min_gap * (1.0 + rng.pareto(tail_exponent, 128))
        for g in gaps:
            total += g
            if total >= steps:
                break
            instants.append(total)
    return np.asarray(instants)


def animate_levy(
    topology: StaticGraph,
    steps: int,
    tail_exponent: float = 1.5,
    min_gap: float = 1.0,
    seed: int = 0,
) -> TemporalNetwork:
    """Animate a static topology into contact events.

    Every topology edge fires at instants whose gaps are i.i.d. Pareto
    (minimum ``min_gap``, shape ``tail_exponent``) — the power-law
    inter-contact statistics reported for human mobility.  Events last
    one step.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not tail_exponent > 1.0:
        raise ValueError("tail_exponent must exceed 1")
    if not min_gap > 0.0:
        raise ValueError("min_gap must be positive")
    edges = topology.edges()
    instants = [_edge_instants(steps, tail_exponent, min_gap, derive_rng(seed, "levy", i, j)) for i, j, _w in edges]
    counts = [len(ts) for ts in instants]
    t = np.concatenate([np.zeros(0), *instants])
    a = np.repeat(np.array([i for i, _, _ in edges], dtype=np.int64), counts)
    b = np.repeat(np.array([j for _, j, _ in edges], dtype=np.int64), counts)
    order = np.lexsort((b, a, t))
    t = t[order]
    return TemporalNetwork(
        n_nodes=topology.n_nodes, a=a[order], b=b[order], start=t, end=t + 1.0, granularity=1.0
    )


@dataclass(frozen=True)
class SwitchingSchedule:
    """Sequence of (GeneratorSpec, duration in steps) segments."""

    segments: tuple

    def __post_init__(self):
        segs = []
        for i, (spec, dur) in enumerate(self.segments):
            # a bool, fractional or non-finite duration would be truncated
            # or overflow in int()
            if isinstance(dur, bool) or not isinstance(dur, numbers.Real) or not float(dur).is_integer():
                raise ValueError(f"segment {i}: duration must be a whole number of steps, got {dur!r}")
            segs.append((spec, int(dur)))
        segs = tuple(segs)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        for spec, dur in segs:
            if not isinstance(spec, GeneratorSpec):
                raise TypeError("segment spec must be a GeneratorSpec")
            if dur < 1:
                raise ValueError("segment durations must be positive")
        n0 = segs[0][0].n_nodes
        if any(spec.n_nodes != n0 for spec, _ in segs):
            raise ValueError("all segments must share one node count")
        object.__setattr__(self, "segments", segs)

    @property
    def n_nodes(self) -> int:
        return self.segments[0][0].n_nodes

    @property
    def total_steps(self) -> int:
        return sum(dur for _, dur in self.segments)

    def boundaries(self) -> list:
        """Cumulative segment start steps plus the final end step."""
        out = [0]
        for _, dur in self.segments:
            out.append(out[-1] + dur)
        return out


def default_switching_schedule(n_nodes: int = 50, segment_steps: int = 700) -> SwitchingSchedule:
    """Four-segment reference schedule: two Waxman topologies with
    different densities, then two independently seeded GLP topologies,
    switched every ``segment_steps`` steps."""
    return SwitchingSchedule(
        (
            (GeneratorSpec.waxman(n_nodes, 0.5, 0.3), segment_steps),
            (GeneratorSpec.waxman(n_nodes, 0.7, 0.3), segment_steps),
            (GeneratorSpec.glp(n_nodes), segment_steps),
            (GeneratorSpec.glp(n_nodes), segment_steps),
        )
    )


@dataclass(frozen=True)
class SwitchingResult:
    """Concatenated contact trace plus its generating ground truth."""

    network: TemporalNetwork
    labels: np.ndarray  # step -> segment index
    topologies: tuple  # StaticGraph per segment, None for random segments

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)


def _segment_seed(seed: int, index: int) -> int:
    return int(derive_seed_sequence(seed, "segment", index).generate_state(1)[0])


def gen_switching(
    schedule: SwitchingSchedule,
    seed: int = 0,
    tail_exponent: float = 1.5,
    min_gap: float = 1.0,
) -> SwitchingResult:
    """Generate each segment independently and concatenate with time
    offsets; the returned labels map every step to its segment."""
    columns = []
    topologies = []
    labels = np.empty(schedule.total_steps, dtype=np.int64)
    offset = 0
    for s, (spec, dur) in enumerate(schedule.segments):
        child = _segment_seed(seed, s)
        if spec.kind == "random":
            sub = gen_random_contacts(spec.n_nodes, spec.get("contact_fraction"), dur, seed=child)
            topologies.append(None)
        else:
            if spec.kind == "waxman":
                topo = gen_waxman_topology(spec.n_nodes, spec.get("alpha"), spec.get("beta"), seed=child)
            else:
                topo = gen_glp_topology(
                    spec.n_nodes, int(spec.get("m_edges")), spec.get("beta_glp"), seed=child
                )
            topologies.append(topo)
            sub = animate_levy(topo, dur, tail_exponent=tail_exponent, min_gap=min_gap, seed=child)
        columns.append((sub.a, sub.b, sub.start + offset, sub.end + offset))
        labels[offset : offset + dur] = s
        offset += dur
    a, b, start, end = (np.concatenate(col) for col in zip(*columns))
    order = np.lexsort((b, a, start))  # stable, by (start, a, b)
    net = TemporalNetwork(
        n_nodes=schedule.n_nodes, a=a[order], b=b[order], start=start[order], end=end[order], granularity=1.0
    )
    return SwitchingResult(network=net, labels=labels, topologies=tuple(topologies))


def spec_to_dict(spec: GeneratorSpec) -> dict:
    return {"kind": spec.kind, "n_nodes": spec.n_nodes, "params": dict(spec.params)}


def spec_from_dict(raw: dict) -> GeneratorSpec:
    for name, value in raw["params"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataError(f"parameter {name} must be a number, got {value!r}")
    return GeneratorSpec(
        kind=raw["kind"],
        n_nodes=json_int(raw["n_nodes"], "n_nodes"),
        params=tuple(raw["params"].items()),
    )


def write_schedule(schedule: SwitchingSchedule, path) -> None:
    payload = {
        "segments": [
            {"spec": spec_to_dict(spec), "duration": dur} for spec, dur in schedule.segments
        ]
    }
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_schedule(path) -> SwitchingSchedule:
    raw = read_json(path)
    try:
        segments = tuple(
            (spec_from_dict(seg["spec"]), json_int(seg["duration"], "duration")) for seg in raw["segments"]
        )
    except (AttributeError, KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"{path}: malformed schedule: {exc!r}") from exc
    return SwitchingSchedule(segments)


def write_labels(labels, path) -> None:
    """Ground-truth labels as ``step,segment_index`` CSV."""
    arr = np.asarray(labels, dtype=np.int64)
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write("step,segment_index\n")
        for step, seg in enumerate(arr):
            fh.write(f"{step},{int(seg)}\n")


def read_labels(path) -> np.ndarray:
    with open(Path(path), "r", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    if not lines or lines[0] != "step,segment_index":
        raise ValueError("not a label file")
    return np.asarray([int(line.split(",")[1]) for line in lines[1:]], dtype=np.int64)
