"""SIR epidemic simulation over temporal contact networks.

Transmission happens per contact event with a fixed probability; an
infected node stays infectious for a Poisson-distributed number of time
steps, then recovers.  Time steps come from the trace granularity (for
the 600 s step of the reference traces, a mean infectious duration of 80
steps corresponds to 800 minutes).  Every run pre-draws its transmission
uniforms and per-node durations, so trajectories under different
``p_transmit`` values are coupled on the same random stream.

The runs of an experiment walk together: one pass over the window's
events advances every (seed node, run) pair at once, each pair still
drawing from its own stream, so the curves are those of one
:func:`run_sir` call per pair.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import TemporalNetwork
from .seeds import derive_rng

_BIG = np.iinfo(np.int64).max // 4
# bytes of transmission masks held at once; a block of pairs holds as
# many pairs as fit, and at least one
_MASK_BUDGET = 1 << 22
# the largest mean numpy's Poisson draw accepts, as numpy computes it
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SirParams:
    """Per-contact transmission probability, mean infectious duration in
    steps, epidemic start step, and number of simulated steps.

    A finite ``recovery_mean`` may be at most ``_POISSON_LAM_MAX`` (about
    9.22e18), the largest mean numpy's Poisson draw takes; an infinite
    one means no recovery."""

    p_transmit: float
    recovery_mean: float
    start_step: int
    horizon: int

    def __post_init__(self):
        if not 0.0 <= self.p_transmit <= 1.0:
            raise ValueError("p_transmit must lie in [0, 1]")
        if not self.recovery_mean > 0:
            raise ValueError("recovery_mean must be positive")
        if _POISSON_LAM_MAX < self.recovery_mean < math.inf:
            raise ValueError(f"recovery_mean {self.recovery_mean} exceeds {_POISSON_LAM_MAX}, the largest Poisson mean")
        for name in ("start_step", "horizon"):
            value = getattr(self, name)
            # a bool, fractional or non-finite step would be truncated or
            # fail deep inside the simulation's integer arrays
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not float(value).is_integer():
                raise ValueError(f"{name} must be a whole number of steps, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.start_step < 0:
            raise ValueError("start_step must be nonnegative")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")


def default_params(
    net: TemporalNetwork,
    p_transmit: float = 0.5,
    recovery_mean: float = 80.0,
    start_step: int = 250,
    horizon: int | None = None,
) -> SirParams:
    """Reference parameter set: p = 0.5, Poisson mean 80 steps, start at
    step 250, horizon running to the end of the trace."""
    if horizon is None:
        horizon = max(1, net.n_steps - start_step)
    return SirParams(
        p_transmit=p_transmit,
        recovery_mean=recovery_mean,
        start_step=start_step,
        horizon=horizon,
    )


@dataclass(frozen=True)
class SirRun:
    """Single trajectory: per-step compartment counts and the final
    state.

    ``s_of_t[k]`` counts susceptibles after all events in steps before
    ``start_step + k``; index 0 is therefore always N - 1.
    """

    seed_node: int
    s_of_t: np.ndarray
    i_of_t: np.ndarray
    r_of_t: np.ndarray
    reached: frozenset

    def __post_init__(self):
        for name in ("s_of_t", "i_of_t", "r_of_t"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_steps(self) -> int:
        return len(self.s_of_t)


def _window_events(net: TemporalNetwork, params: SirParams, per_step_contacts: bool):
    """Step, first and second endpoint of every event inside the window,
    in walk order.

    With ``per_step_contacts`` a contact covering several steps becomes
    one event per covered step inside the window, stably ordered by step.
    """
    a, b, start, end = net.event_arrays
    g = net.granularity
    steps = np.floor((start - net.t_min) / g).astype(np.int64)
    window_end = params.start_step + params.horizon
    if not per_step_contacts:
        lo, hi = np.searchsorted(steps, [params.start_step, window_end], side="left")
        return steps[lo:hi], a[lo:hi], b[lo:hi]
    last = np.maximum(steps, np.ceil((end - net.t_min) / g - 1e-9).astype(np.int64) - 1)
    first = np.maximum(steps, params.start_step)
    counts = np.maximum(np.minimum(last, window_end - 1) + 1 - first, 0)
    owner = np.repeat(np.arange(len(steps)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    ev_step = first[owner] + offset
    order = np.argsort(ev_step, kind="stable")
    return ev_step[order], a[owner[order]], b[owner[order]]


def _walk(net: TemporalNetwork, seed_nodes, params: SirParams, rngs, per_step_contacts: bool):
    """Simulate one outbreak per (seed node, random stream) pair in a
    single pass over the window's events.

    Returns ``(visible_from, recovery_step)``, each of shape (n, pairs):
    the snapshot index from which a node no longer counts as susceptible
    (``_BIG`` for a node never infected) and the absolute step at which
    it recovers (-1 for a node never infected).  Each pair draws, in this
    order, one uniform per window event and then one Poisson duration per
    node, and keeps only its transmission mask ``u < p_transmit``; pairs
    are walked in blocks whose masks fit in ``_MASK_BUDGET`` bytes.
    """
    n = net.n_nodes
    seed_nodes = np.asarray(seed_nodes, dtype=np.int64)
    bad = seed_nodes[(seed_nodes < 0) | (seed_nodes >= n)]
    if len(bad):
        raise ValueError(f"seed node {bad[0]} out of range for {n} nodes")
    if net.n_events and not net.t_min + params.start_step * net.granularity <= net.t_max:
        raise ValueError("start_step lies beyond the trace")

    ev_step, ev_a, ev_b = _window_events(net, params, per_step_contacts)
    n_events = len(ev_step)
    ev_step, ev_a, ev_b = ev_step.tolist(), ev_a.tolist(), ev_b.tolist()
    n_pairs = len(seed_nodes)
    visible_from = np.empty((n, n_pairs), dtype=np.int64)
    recovery_step = np.empty((n, n_pairs), dtype=np.int64)
    block = max(1, _MASK_BUDGET // max(1, n_events))
    rngs = iter(rngs)
    for lo in range(0, n_pairs, block):
        width = min(block, n_pairs - lo)
        mask = np.empty((n_events, width), dtype=bool)
        durations = np.full((n, width), params.horizon + 1, dtype=np.int64)
        for j in range(width):
            rng = next(rngs)
            mask[:, j] = rng.random(n_events) < params.p_transmit
            if not math.isinf(params.recovery_mean):
                durations[:, j] = rng.poisson(params.recovery_mean, n)

        # a node is susceptible while its recovery step is -1, and
        # infectious at step sa while its recovery step exceeds sa
        cols = np.arange(width)
        seeds = seed_nodes[lo : lo + width]
        rec = np.full((n, width), -1, dtype=np.int64)
        vis = np.full((n, width), _BIG, dtype=np.int64)
        rec[seeds, cols] = params.start_step + durations[seeds, cols]
        vis[seeds, cols] = 0
        # pairs in which each node has been infected: an event between two
        # nodes infected in no pair, or in every pair, cannot transmit
        n_infected = np.bincount(seeds, minlength=n).tolist()
        for idx, (sa, x, y) in enumerate(zip(ev_step, ev_a, ev_b)):
            cx, cy = n_infected[x], n_infected[y]
            if cx == cy and (cx == 0 or cx == width):
                continue
            rx, ry, hit = rec[x], rec[y], mask[idx]
            hit_x = (ry > sa) & (rx < 0) & hit
            hit_y = (rx > sa) & (ry < 0) & hit
            for v, new in ((x, hit_x), (y, hit_y)):
                count = np.count_nonzero(new)
                if count:
                    rec[v, new] = sa + durations[v, new]
                    vis[v, new] = sa - params.start_step + 1
                    n_infected[v] += count
        visible_from[:, lo : lo + width] = vis
        recovery_step[:, lo : lo + width] = rec
    return visible_from, recovery_step


def _counts_up_to(first_index, horizon: int) -> np.ndarray:
    """For each column of ``first_index`` (shape (n, pairs)), the number
    of its entries at most k, for k = 0..horizon; shape (pairs, horizon + 1)."""
    n_pairs = first_index.shape[1]
    width = horizon + 2
    binned = np.minimum(first_index, horizon + 1) + width * np.arange(n_pairs)
    counts = np.bincount(binned.ravel(), minlength=width * n_pairs).reshape(n_pairs, width)
    return np.cumsum(counts[:, : horizon + 1], axis=1)


def run_sir(
    net: TemporalNetwork,
    seed_node: int,
    params: SirParams,
    rng: np.random.Generator,
    per_step_contacts: bool = False,
) -> SirRun:
    """Simulate one SIR outbreak seeded at ``seed_node``.

    Events are visited in time order; when exactly one endpoint is
    infectious and the other susceptible, transmission occurs with
    probability ``p_transmit`` (one trial per event, or one per step of
    overlap with ``per_step_contacts``).  A newly infected node is
    infectious for the remainder of its step, for a duration drawn from
    Poisson(``recovery_mean``); an infinite mean means no recovery
    inside the horizon.
    """
    visible_from, recovery_step = _walk(net, [seed_node], params, [rng], per_step_contacts)
    infected = visible_from < _BIG
    rec_k = np.where(infected, np.maximum(recovery_step - params.start_step, visible_from), _BIG)
    not_s = _counts_up_to(visible_from, params.horizon)[0]
    r_of_t = _counts_up_to(rec_k, params.horizon)[0]
    return SirRun(
        seed_node=seed_node,
        s_of_t=net.n_nodes - not_s,
        i_of_t=not_s - r_of_t,
        r_of_t=r_of_t,
        reached=frozenset(int(v) for v in np.flatnonzero(infected)),
    )


@dataclass(frozen=True)
class SirCurve:
    """Mean susceptible-count curve for one seed node with percentile
    bootstrap bands."""

    seed_node: int
    s_of_t: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    runs: int

    def __post_init__(self):
        for name in ("s_of_t", "ci_low", "ci_high"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def half_time(self, n_nodes: int):
        """First step where mean S(t) drops below half the population, or
        None if it never does."""
        below = np.flatnonzero(self.s_of_t < 0.5 * n_nodes)
        return int(below[0]) if len(below) else None


def sir_experiment(
    net: TemporalNetwork,
    params: SirParams,
    runs_per_node: int = 30,
    bootstrap_resamples: int = 200,
    seed: int = 0,
    ci: float = 0.95,
    per_step_contacts: bool = False,
) -> list:
    """Repeat the outbreak for every node as seed and bootstrap the mean
    susceptible curve.

    Each (node, run) pair draws from its own named random stream,
    ``derive_rng(seed, "sir", node, run)``, so the experiment is
    deterministic in ``seed`` and indifferent to execution order; all
    pairs are walked in one pass over the events.
    """
    if runs_per_node < 1:
        raise ValueError("runs_per_node must be at least 1")
    if bootstrap_resamples < 1:
        raise ValueError("bootstrap_resamples must be at least 1")
    if not 0.0 < ci < 1.0:
        raise ValueError("ci must lie strictly between 0 and 1")
    lo_pct = 100.0 * (1.0 - ci) / 2.0
    hi_pct = 100.0 - lo_pct

    n = net.n_nodes
    rngs = (derive_rng(seed, "sir", node, r) for node in range(n) for r in range(runs_per_node))
    visible_from, _ = _walk(net, np.repeat(np.arange(n), runs_per_node), params, rngs, per_step_contacts)
    curves = []
    for node in range(n):
        pairs = visible_from[:, node * runs_per_node : (node + 1) * runs_per_node]
        traj = (n - _counts_up_to(pairs, params.horizon)).astype(float)
        mean = traj.mean(axis=0)
        boot_rng = derive_rng(seed, "sir-boot", node)
        resampled = np.empty((bootstrap_resamples, params.horizon + 1))
        for bi in range(bootstrap_resamples):
            pick = boot_rng.integers(0, runs_per_node, runs_per_node)
            resampled[bi] = traj[pick].mean(axis=0)
        ci_low = np.percentile(resampled, lo_pct, axis=0)
        ci_high = np.percentile(resampled, hi_pct, axis=0)
        curves.append(
            SirCurve(seed_node=node, s_of_t=mean, ci_low=ci_low, ci_high=ci_high, runs=runs_per_node)
        )
    return curves


def ranking_table(curves, n_nodes: int) -> list:
    """Seed nodes ordered by how quickly their mean curve reaches half
    the population susceptible (never-reaching nodes last)."""
    entries = []
    for c in curves:
        ht = c.half_time(n_nodes)
        entries.append((math.inf if ht is None else ht, c.seed_node))
    entries.sort()
    return [(node, None if math.isinf(ht) else int(ht)) for ht, node in entries]


def write_curves_csv(curves, path) -> None:
    """All curves as ``seed_node,t,mean_s,ci_low,ci_high`` rows."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write("seed_node,t,mean_s,ci_low,ci_high\n")
        for c in curves:
            for t in range(len(c.s_of_t)):
                fh.write(
                    f"{c.seed_node},{t},{float(c.s_of_t[t])!r},"
                    f"{float(c.ci_low[t])!r},{float(c.ci_high[t])!r}\n"
                )


def write_ranking_json(curves, n_nodes: int, path) -> None:
    ranked = ranking_table(curves, n_nodes)
    payload = {
        "half_time": {str(node): ht for node, ht in ranked},
        "order": [node for node, _ in ranked],
    }
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
