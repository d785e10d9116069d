"""Mode discovery on the deviation distribution.

The deviations delta_i produced by joint diagonalisation are treated as a
one-dimensional sample and fitted with a Gaussian mixture (EM, seeded
k-means++ initialisation, BIC model selection).  Hard assignments split
the sample batch into modes; each mode gets its own joint
diagonalisation (a mode holding the whole batch reuses the overall one)
and average-graph reconstruction, and any mode can be decomposed again
into submodes by recursing the whole pipeline on its members.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ._workers import fan_out
from .errors import ConvergenceError, DataError
from .jointdiag import JdResult, joint_diagonalise, reconstruct_average
from .network import SymMatrix
from .sampling import SampleBatch
from .seeds import derive_rng, derive_seed_sequence

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class GaussComponent:
    """One mixture component: weight, mean and variance of a 1-D Gaussian."""

    weight: float
    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.weight) and math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("component parameters must be finite")
        if not -_WEIGHT_TOL <= self.weight <= 1.0 + _WEIGHT_TOL:
            raise ValueError(f"component weight {self.weight} outside [0, 1]")
        if self.variance <= 0:
            raise ValueError("component variance must be positive")


@dataclass(frozen=True)
class ModeModel:
    """Fitted 1-D Gaussian mixture with hard assignments.

    ``responsibilities[i, j]`` is the posterior probability that sample i
    belongs to component j; ``assignments[i]`` is the argmax of row i.
    ``bic`` and ``log_likelihood`` describe the sample the mixture was
    fitted on, which after :meth:`assign` need not be the sample the
    assignments cover: in :func:`fit_batch_modes` (and so in
    :func:`decompose`) they cover the complete trees only.
    ``bic_table`` is filled by :func:`select_modes` with the best BIC per
    candidate k, and ``em_iterations`` with the M-step count of every EM
    restart per candidate k >= 2, as ``(k, (count per restart, ...))``.
    """

    components: tuple[GaussComponent, ...]
    assignments: np.ndarray
    responsibilities: np.ndarray
    bic: float
    log_likelihood: float
    bic_table: tuple[tuple[int, float], ...] | None = None
    em_iterations: tuple[tuple[int, tuple[int, ...]], ...] | None = None

    def __post_init__(self):
        resp = np.asarray(self.responsibilities, dtype=float)
        assign = np.asarray(self.assignments, dtype=int)
        if resp.ndim != 2 or resp.shape != (len(assign), len(self.components)):
            raise ValueError("responsibility matrix shape does not match assignments/components")
        wsum = sum(c.weight for c in self.components)
        if abs(wsum - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"component weights sum to {wsum}, not 1")
        rows = resp.sum(axis=1)
        if np.abs(rows - 1.0).max(initial=0.0) > _WEIGHT_TOL:
            raise ValueError("responsibility rows must sum to 1")
        if not np.array_equal(assign, resp.argmax(axis=1)):
            raise ValueError("assignments must be the argmax responsibilities")
        resp = resp.copy()
        resp.setflags(write=False)
        assign = assign.copy()
        assign.setflags(write=False)
        object.__setattr__(self, "responsibilities", resp)
        object.__setattr__(self, "assignments", assign)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def n_samples(self) -> int:
        return len(self.assignments)

    def members(self, j: int) -> np.ndarray:
        """Indices of the samples hard-assigned to component j."""
        return np.flatnonzero(self.assignments == j)

    def assign(self, values) -> "ModeModel":
        """The same fitted mixture with responsibilities and hard
        assignments computed for ``values`` by the posterior rule; the
        fit statistics (``bic``, ``log_likelihood``, ``bic_table``,
        ``em_iterations``) are kept as they are."""
        x = np.asarray(values, dtype=float).ravel()
        if not np.all(np.isfinite(x)):
            raise ValueError("values must be finite")
        params = np.array([(c.weight, c.mean, c.variance) for c in self.components]).T
        resp = _log_joint(x, *params)
        _posterior(resp)
        return replace(self, assignments=resp.argmax(axis=0), responsibilities=resp.T)


def _variance_floor(x: np.ndarray) -> float:
    spread = float(np.var(x))
    if spread > 0.0:
        return 1e-6 * spread
    return 1e-12


def _log_joint(x, weights, means, variances):
    # (K, M) array of log(w_j) + log N(x_i; mu_j, var_j) for K components
    # given as 1-D arrays, from the squared distances (x - mu)**2
    w, mu, var = weights[:, None], means[:, None], variances[:, None]
    return np.log(w) - 0.5 * (np.log(2.0 * math.pi * var) + (x - mu) ** 2 / var)


def _posterior(lp):
    # turns the log-joint ``lp`` into responsibilities in place and
    # returns the log-normaliser: log-sum-exp over the component axis
    # (second to last), shifted by the per-sample maximum, with one exp.
    # Shifted entries are raised to -700 first: below about -708 exp
    # leaves its vector path for subnormal results, and the products
    # that read them stall too.  Only responsibilities below 1e-304
    # move; each per-sample sum, which holds the maximum's exp(0) = 1,
    # stays as it was
    top = lp.max(axis=-2)
    np.subtract(lp, top[..., None, :], out=lp)
    np.maximum(lp, -700.0, out=lp)
    total = np.exp(lp, out=lp).sum(axis=-2)
    np.multiply(lp, (1.0 / total)[..., None, :], out=lp)
    return top + np.log(total)


def _kmeanspp_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty(k)
    centers[0] = x[rng.integers(len(x))]
    d2 = (x - centers[0]) ** 2
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = x[rng.integers(len(x))]
            continue
        idx = rng.choice(len(x), p=d2 / total)
        centers[j] = x[idx]
        d2 = np.minimum(d2, (x - centers[j]) ** 2)
    return centers


def _bic(k, m: int, ll):
    return (3 * k - 1) * math.log(m) - 2.0 * ll


def _closed_form_k1(x: np.ndarray) -> ModeModel:
    mean = float(x.mean())
    var = max(float(np.var(x)), _variance_floor(x))
    ll = float(-0.5 * (np.log(2.0 * math.pi * var) + (x - mean) ** 2 / var).sum())
    return ModeModel(
        components=(GaussComponent(1.0, mean, var),),
        assignments=np.zeros(len(x), dtype=int),
        responsibilities=np.ones((len(x), 1)),
        bic=float(_bic(1, len(x), ll)),
        log_likelihood=ll,
    )


def _em_restarts(x: np.ndarray, k: int, seeds: Sequence[int], max_iter: int, tol: float) -> tuple:
    """Run one EM per seed (k >= 2), all of them as a single batched EM.

    Each restart starts from its own seeded k-means++ initialisation and
    stops on its own convergence test.  Every restart stays in the batch
    to the end: a stopped one keeps its weights, means and variances, so
    each later E-step gives it the same responsibilities and
    log-likelihood bit for bit, and it ends as it would have ended alone.
    Returns ``(weights, means, variances, resp, ll, iterations)`` with a
    leading restart axis; ``resp`` (shape (R, k, M)) is each restart's
    last E-step, made on the returned parameters: a restart that reaches
    ``max_iter`` M-steps gets one more E-step to match.  ``iterations``
    counts each restart's M-steps.

    Each iteration works on sufficient statistics of the centred sample
    xc = x - mean(x), held as the rows X = [1; xc; xc**2]: the E-step
    writes the log-joint as one product of each component's three
    quadratic coefficients with X, and the M-step reads each component's
    sums of r, r * xc and r * xc**2 off one product of the
    responsibilities with X.T.  The products stay stacked per restart,
    shape (R, k, .), so numpy makes one matrix product per restart of the
    same shape as the restart's lone run; flattened to (R k, .) they
    would be one product whose rounding depends on R.  One (R, k, M)
    array, allocated once per call, holds each iteration's log-joint and
    then, in place, its responsibilities.
    """
    m = len(x)
    r_count = len(seeds)
    floor = _variance_floor(x)
    global_var = max(float(np.var(x)), floor)
    weights = np.empty((r_count, k))
    means = np.empty((r_count, k))
    variances = np.empty((r_count, k))
    for r, seed in enumerate(seeds):
        centers = _kmeanspp_centers(x, k, derive_rng(seed, "gmm-init", k))
        hard = np.argmin((x[:, None] - centers[None, :]) ** 2, axis=1)
        for j in range(k):
            sel = x[hard == j]
            if len(sel) == 0:
                weights[r, j] = 1.0 / m
                means[r, j] = centers[j]
                variances[r, j] = global_var
            else:
                weights[r, j] = len(sel) / m
                means[r, j] = sel.mean()
                variances[r, j] = max(float(np.var(sel)), floor)
    weights /= weights.sum(axis=1, keepdims=True)

    center = float(x.mean())
    xc = x - center
    rows = np.stack([np.ones(m), xc, xc * xc])
    ll = np.full(r_count, -math.inf)
    iterations = np.zeros(r_count, dtype=int)
    going = np.ones(r_count, dtype=bool)
    resp = np.empty((r_count, k, m))
    for it in range(max_iter + 1):
        inv = 1.0 / variances
        mu = means - center
        coef = np.stack(
            [np.log(weights) - 0.5 * (np.log(2.0 * math.pi * variances) + mu * mu * inv), mu * inv, -0.5 * inv],
            axis=-1,
        )
        new_ll = _posterior(np.matmul(coef, rows, out=resp)).sum(axis=1)
        if np.any(new_ll < ll - 1e-9 * (1.0 + np.abs(ll))):
            raise ConvergenceError("EM log-likelihood decreased")
        going &= ~(new_ll - ll < tol * (1.0 + np.abs(new_ll)))
        ll = new_ll
        if not going.any() or it == max_iter:
            break
        iterations += going
        # sums of r, r * xc and r * xc**2 per component; a stopped
        # restart keeps its parameters, so the next E-step gives it the
        # same log-joint as before
        sums = resp @ rows.T
        nk = np.maximum(sums[:, :, 0], 1e-300)
        mu = sums[:, :, 1] / nk
        frozen = ~going[:, None]
        weights = np.where(frozen, weights, nk / m)
        means = np.where(frozen, means, mu + center)
        variances = np.where(frozen, variances, np.maximum(sums[:, :, 2] / nk - mu * mu, floor))
    return weights, means, variances, resp, ll, iterations


def _restart_model(x: np.ndarray, k: int, fit: tuple, r: int) -> ModeModel:
    weights, means, variances, resp, ll, _ = fit
    components = tuple(
        GaussComponent(float(w), float(mu), float(v)) for w, mu, v in zip(weights[r], means[r], variances[r])
    )
    return ModeModel(
        components=components,
        assignments=resp[r].argmax(axis=0),
        responsibilities=resp[r].T,
        bic=_bic(k, len(x), float(ll[r])),
        log_likelihood=float(ll[r]),
    )


def _check_em_limits(max_iter: int, tol: float, k_max: int = 1, n_restarts: int = 1) -> None:
    """Reject counts or a tolerance that EM cannot run on: a bool or
    fractional count would be taken as 0 or 1 or fail inside ``range``, a
    negative cap skips every E-step, and a NaN or negative tol never
    stops a restart before the cap."""
    for name, value in (("k_max", k_max), ("n_restarts", n_restarts), ("max_iter", max_iter)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if n_restarts < 1:
        raise ValueError("n_restarts must be at least 1")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    if not tol >= 0:  # NaN fails too
        raise ValueError(f"tol must be nonnegative, got {tol}")


def fit_gmm_1d(
    deltas,
    k: int,
    seed: int = 0,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> ModeModel:
    """Fit a k-component 1-D Gaussian mixture by EM.

    Initialisation is k-means++ on the raw values, seeded by ``seed``;
    the run is fully deterministic.  The log-likelihood is checked to be
    non-decreasing across iterations.  ``k=1`` uses the closed form
    (sample mean, population variance).
    """
    _check_em_limits(max_iter, tol)
    x = np.asarray(deltas, dtype=float).ravel()
    m = len(x)
    if not (1 <= k <= m):
        raise ValueError(f"need 1 <= k <= n_samples, got k={k}, n={m}")
    if not np.all(np.isfinite(x)):
        raise ValueError("deltas must be finite")
    distinct = np.unique(x).size
    if k > distinct:
        raise ValueError(f"k={k} exceeds the {distinct} distinct value(s) in the sample")
    if k == 1:
        return _closed_form_k1(x)
    return _restart_model(x, k, _em_restarts(x, k, [seed], max_iter, tol), 0)


def _restart_seed(seed: int, k: int, restart: int) -> int:
    return int(derive_seed_sequence(seed, "mode-restart", k, restart).generate_state(1)[0])


def _fit_ks(x: np.ndarray, ks, seed: int, n_restarts: int, max_iter: int, tol: float) -> tuple:
    """Fit the mixtures for ``ks`` in order, stopping at the first that
    raises, and reduce them to the minimum (BIC, k, restart) key with its
    model, plus each k's best BIC and M-step counts as
    ``(key, model, [(k, bic), ...], [(k, counts), ...])``."""
    best_key, best, table, iterations = None, None, [], []
    for k in ks:
        fit = _em_restarts(x, k, [_restart_seed(seed, k, r) for r in range(n_restarts)], max_iter, tol)
        bics = _bic(k, len(x), fit[4])
        r = int(np.argmin(bics))  # the lowest restart index on ties
        bic = float(bics[r])
        if best_key is None or (bic, k, r) < best_key:
            best, best_key = _restart_model(x, k, fit, r), (bic, k, r)
        table.append((k, bic))
        iterations.append((k, tuple(int(i) for i in fit[5])))
    return best_key, best, table, iterations


def select_modes(
    deltas,
    k_max: int = 8,
    seed: int = 0,
    n_restarts: int = 10,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> ModeModel:
    """Fit mixtures for k = 1..k_max and keep the minimum-BIC model.

    Each k gets ``n_restarts`` independently seeded EM runs, fitted
    together.  The k >= 2 are fitted on up to one worker per usable CPU
    (forked processes on Linux, the calling process alone elsewhere; see
    :func:`contactmodes._workers.fan_out`), and each worker hands back
    only its own best model.  The result does not depend on the worker
    count, and an error raised by a fit is the lowest failing k's, raised
    in the calling process.  Ties are broken lexicographically on (BIC,
    k, restart index) so the selection is deterministic.  k is silently
    capped at the number of distinct values.  The returned model carries
    the per-k best-BIC table and the M-step count of every restart.
    """
    _check_em_limits(max_iter, tol, k_max=k_max, n_restarts=n_restarts)
    x = np.asarray(deltas, dtype=float).ravel()
    if len(x) == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("deltas must be finite")
    k_cap = min(k_max, int(np.unique(x).size), len(x))
    k1 = _closed_form_k1(x)
    ks = list(range(2, k_cap + 1))
    shares = [((k1.bic, 1, 0), k1, [(1, k1.bic)], [])]
    shares += fan_out(lambda share: _fit_ks(x, share, seed, n_restarts, max_iter, tol), ks, costs=ks)
    best = min(shares, key=lambda share: share[0])[1]
    table = tuple(sorted(entry for share in shares for entry in share[2]))
    iterations = tuple(sorted(entry for share in shares for entry in share[3]))
    return replace(best, bic_table=table, em_iterations=iterations)


@dataclass(frozen=True)
class TimeHistogram:
    """Per-mode histogram of sample start times over shared bins."""

    bin_edges: np.ndarray
    counts: np.ndarray  # shape (n_modes, n_bins)

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=int)
        if counts.ndim != 2 or counts.shape[1] != len(edges) - 1:
            raise ValueError("counts shape does not match bin edges")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def n_modes(self) -> int:
        return self.counts.shape[0]

    @property
    def n_bins(self) -> int:
        return self.counts.shape[1]

    def total(self) -> np.ndarray:
        """Histogram of all samples regardless of mode."""
        return self.counts.sum(axis=0)


def mode_time_histogram(model: ModeModel, batch: SampleBatch, bin_width: float) -> TimeHistogram:
    """Histogram each mode's sample start times on bins aligned to the
    trace start."""
    if model.n_samples != len(batch.samples):
        raise ValueError("model was fitted on a different number of samples than the batch holds")
    if not 0 < bin_width < math.inf:  # NaN fails too
        raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
    times = batch.start_times()
    t0 = batch.source.t_min
    t1 = max(batch.source.t_max, float(times.max(initial=t0)))
    n_bins = max(1, int(math.ceil((t1 - t0) / bin_width - 1e-12)))
    edges = t0 + bin_width * np.arange(n_bins + 1)
    counts = np.zeros((model.k, n_bins), dtype=int)
    for j in range(model.k):
        counts[j], _ = np.histogram(times[model.assignments == j], bins=edges)
    return TimeHistogram(bin_edges=edges, counts=counts)


@dataclass(frozen=True)
class ModeSummary:
    """One mode: its member sample indices and reconstructed average graph."""

    index: int
    members: np.ndarray
    matrix: SymMatrix
    single_sample: bool
    result: JdResult | None

    def __post_init__(self):
        members = np.asarray(self.members, dtype=int)
        members.setflags(write=False)
        object.__setattr__(self, "members", members)

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ModeReport:
    """Full mode decomposition of a batch: the fitted mixture, one
    average graph per mode, the overall average graph, and per-mode
    start-time histograms."""

    batch: SampleBatch
    model: ModeModel
    modes: tuple[ModeSummary, ...]
    overall_result: JdResult
    overall_matrix: SymMatrix
    histogram: TimeHistogram

    def __post_init__(self):
        if self.modes:
            joined = np.concatenate([m.members for m in self.modes])
        else:
            joined = np.array([], dtype=int)
        expected = np.arange(len(self.batch.samples))
        if not np.array_equal(np.sort(joined), expected):
            raise ValueError("mode member sets must partition the batch")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def deltas(self) -> np.ndarray:
        return self.overall_result.deviations


def per_mode_reconstruction(
    model: ModeModel,
    batch: SampleBatch,
    bin_width: float | None = None,
    *,
    overall: JdResult,
    tol: float = 1e-9,
    max_sweeps: int = 100,
) -> ModeReport:
    """Rebuild the average graph independently for every mode.

    Each nonempty mode's member matrices get their own joint
    diagonalisation and reconstruction, in mode order, except that a mode
    holding the whole batch reuses ``overall``, the whole-batch
    diagonalisation; a single-sample mode keeps its lone matrix and is
    flagged.  Empty modes are dropped with a warning.  The first mode
    whose diagonalisation does not converge raises
    :class:`ConvergenceError` naming it, with ``overall`` as ``result``;
    later modes are not diagonalised.
    """
    if model.n_samples != len(batch.samples):
        raise ValueError("model was fitted on a different number of samples than the batch holds")
    if overall.n != batch.n_nodes or overall.n_samples != len(batch.samples):
        raise ValueError("precomputed overall result does not match the batch")
    overall_matrix = reconstruct_average(overall)

    summaries = []
    for j in range(model.k):
        mode = model.members(j)
        if len(mode) == 0:
            warnings.warn(f"mode {j} is empty and was dropped", stacklevel=2)
            continue
        if len(mode) == 1:
            matrix = SymMatrix(batch.subset(mode).matrices()[0])
            summaries.append(ModeSummary(index=j, members=mode, matrix=matrix, single_sample=True, result=None))
            continue
        if len(mode) == len(batch.samples):
            sub, matrix = overall, overall_matrix
        else:
            sub = joint_diagonalise(batch.subset(mode), tol=tol, max_sweeps=max_sweeps)
            if not sub.converged:
                raise ConvergenceError(f"joint diagonalisation of mode {j} did not converge", result=overall)
            matrix = reconstruct_average(sub)
        summaries.append(ModeSummary(index=j, members=mode, matrix=matrix, single_sample=False, result=sub))

    if bin_width is None:
        span = batch.source.t_max - batch.source.t_min
        bin_width = span / 50.0 if span > 0 else 1.0
    histogram = mode_time_histogram(model, batch, bin_width)
    return ModeReport(
        batch=batch,
        model=model,
        modes=tuple(summaries),
        overall_result=overall,
        overall_matrix=overall_matrix,
        histogram=histogram,
    )


def fit_batch_modes(
    batch: SampleBatch,
    deviations,
    k_max: int = 8,
    seed: int = 0,
    n_restarts: int = 10,
    log_delta: bool = False,
) -> ModeModel:
    """Select the deviation mixture on the complete trees of a batch and
    assign every tree, partial ones included, by its posterior.

    A partial tree (a late flood cut off by the end of the trace, or a
    tree on a disconnected graph) has fewer than n-1 edges, and its
    deviation is bounded by twice its edge count, so it sits on another
    scale than the complete trees; fitted with them, a handful of such
    trees creates mixture components of their own.  They are therefore
    kept out of :func:`select_modes` and only assigned afterwards, so the
    modes still partition the batch.  ``log_delta`` fits on
    log-transformed deviations.  Raises :class:`DataError` when the batch
    holds no complete tree.
    """
    values = np.asarray(deviations, dtype=float).ravel()
    if len(values) != len(batch.samples):
        raise ValueError("need one deviation per tree in the batch")
    complete = np.array([not s.partial for s in batch.samples], dtype=bool)
    if not complete.any():
        raise DataError("the batch holds no complete tree to fit the deviation mixture on")
    if log_delta:
        guard = 1e-12 * (float(values.max(initial=0.0)) + 1.0)
        values = np.log(values + guard)
    model = select_modes(values[complete], k_max=k_max, seed=seed, n_restarts=n_restarts)
    return model.assign(values)


def decompose(
    batch: SampleBatch,
    k_max: int = 8,
    seed: int = 0,
    tol: float = 1e-9,
    max_sweeps: int = 100,
    bin_width: float | None = None,
    log_delta: bool = False,
    n_restarts: int = 10,
) -> ModeReport:
    """Whole pipeline on a batch: joint diagonalisation, mixture fit with
    BIC selection on the deviations, per-mode reconstruction.

    The joint diagonalisation runs over every tree; the mixture is
    selected on the complete trees only and then assigns every tree (see
    :func:`fit_batch_modes`), so ``report.model.bic`` and
    ``report.model.log_likelihood`` cover the complete trees while the
    modes partition the whole batch.  ``log_delta`` fits the mixture on
    log-transformed deviations instead of raw ones.  Raises
    :class:`DataError` when the batch holds no complete tree, and, before
    any mixture fit, :class:`ConvergenceError` with the whole-batch
    :class:`JdResult` as ``result`` when that one has not converged; a
    per-mode diagonalisation that does not converge raises it with the
    converged whole-batch result (see :func:`per_mode_reconstruction`).
    """
    overall = joint_diagonalise(batch, tol=tol, max_sweeps=max_sweeps)
    if not overall.converged:
        raise ConvergenceError("joint diagonalisation did not converge", result=overall)
    model = fit_batch_modes(
        batch, overall.deviations, k_max=k_max, seed=seed, n_restarts=n_restarts, log_delta=log_delta
    )
    return per_mode_reconstruction(
        model,
        batch,
        bin_width=bin_width,
        overall=overall,
        tol=tol,
        max_sweeps=max_sweeps,
    )


def submode_decompose(
    report: ModeReport,
    mode: int,
    k_max: int = 8,
    seed: int = 0,
    tol: float = 1e-9,
    max_sweeps: int = 100,
    bin_width: float | None = None,
    n_restarts: int = 10,
) -> ModeReport:
    """Recurse the pipeline on a single mode's members.

    Re-runs joint diagonalisation on just those samples, recomputes the
    deviations in the mode's own basis, and fits modes on them; the
    result is a full ModeReport for the subset.  Requires at least
    2*k_max members.
    """
    if not 0 <= mode < len(report.modes):
        raise ValueError(f"mode index {mode} out of range")
    members = report.modes[mode].members
    if len(members) < 2 * k_max:
        raise ValueError(f"mode {mode} has {len(members)} samples; need at least {2 * k_max} to decompose")
    sub = report.batch.subset(members)
    return decompose(
        sub,
        k_max=k_max,
        seed=seed,
        tol=tol,
        max_sweeps=max_sweeps,
        bin_width=bin_width,
        n_restarts=n_restarts,
    )


def kde_density(values, grid=None, n_points: int = 256, bandwidth: float | None = None):
    """Gaussian-kernel density estimate with Silverman's bandwidth.

    Returns ``(grid, density)``; mainly for plotting the smoothed
    deviation distribution.
    """
    x = np.asarray(values, dtype=float).ravel()
    if len(x) == 0:
        raise ValueError("need at least one value")
    if bandwidth is None:
        sigma = float(np.std(x))
        q75, q25 = np.percentile(x, [75.0, 25.0])
        iqr = float(q75 - q25)
        spread = min(sigma, iqr / 1.34) if iqr > 0 else sigma
        bandwidth = 0.9 * spread * len(x) ** (-0.2)
    if bandwidth <= 0:
        bandwidth = 1e-12 * (1.0 + abs(float(x.mean())))
    if grid is None:
        lo = x.min() - 3.0 * bandwidth
        hi = x.max() + 3.0 * bandwidth
        grid = np.linspace(lo, hi, n_points)
    else:
        grid = np.asarray(grid, dtype=float)
    z = (grid[:, None] - x[None, :]) / bandwidth
    density = np.exp(-0.5 * z * z).sum(axis=1) / (len(x) * bandwidth * math.sqrt(2.0 * math.pi))
    return grid, density


@dataclass(frozen=True)
class GammaFit:
    """Moment-fitted gamma distribution with its KS goodness-of-fit."""

    shape: float
    scale: float
    statistic: float
    p_value: float


def gamma_moment_fit(values) -> tuple[float, float]:
    """Shape and scale of the gamma distribution matching sample mean and
    variance."""
    x = np.asarray(values, dtype=float).ravel()
    mean = float(x.mean())
    var = float(np.var(x))
    if mean <= 0 or var <= 0:
        raise ValueError("gamma moment fit needs positive mean and variance")
    return mean * mean / var, var / mean


def gamma_ks(values) -> GammaFit:
    """Moment-fit a gamma distribution and test it with Kolmogorov-Smirnov."""
    # scipy.stats takes about a second to import; only this function needs it
    from scipy import stats

    x = np.asarray(values, dtype=float).ravel()
    shape, scale = gamma_moment_fit(x)
    res = stats.kstest(x, lambda t: stats.gamma.cdf(t, a=shape, scale=scale))
    return GammaFit(shape=shape, scale=scale, statistic=float(res.statistic), p_value=float(res.pvalue))


def write_report(report: ModeReport, directory) -> list:
    """Export a ModeReport: JSON summary, one matrix file per mode plus
    the overall matrix, and a per-sample CSV."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    payload = {
        "k": report.model.k,
        "bic": report.model.bic,
        "log_likelihood": report.model.log_likelihood,
        "components": [
            {"weight": c.weight, "mean": c.mean, "variance": c.variance} for c in report.model.components
        ],
        "bic_table": [[k, bic] for k, bic in (report.model.bic_table or ())],
        "em_iterations": [[k, list(counts)] for k, counts in (report.model.em_iterations or ())],
        "bin_edges": [float(e) for e in report.histogram.bin_edges],
        "modes": [
            {
                "index": m.index,
                "count": m.count,
                "members": [int(i) for i in m.members],
                "single_sample": m.single_sample,
                "histogram": [int(c) for c in report.histogram.counts[m.index]],
            }
            for m in report.modes
        ],
    }
    report_path = out / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    written.append(report_path)

    overall_path = out / "overall.txt"
    np.savetxt(overall_path, report.overall_matrix.values, fmt="%.17g")
    written.append(overall_path)
    for m in report.modes:
        path = out / f"mode_{m.index}.txt"
        np.savetxt(path, m.matrix.values, fmt="%.17g")
        written.append(path)

    deltas = report.deltas()
    times = report.batch.start_times()
    csv_path = out / "samples.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("sample_index,start_time,delta,mode\n")
        for i in range(len(report.batch.samples)):
            fh.write(f"{i},{float(times[i])!r},{float(deltas[i])!r},{int(report.model.assignments[i])}\n")
    written.append(csv_path)
    return written
