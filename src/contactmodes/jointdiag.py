"""Joint diagonalisation of symmetric matrix sets by Givens-rotation
sweeps, with deviations, average-graph reconstruction, and a symmetric
eigensolver (LAPACK ``eigh``) with a fixed order and sign convention.

The joint diagonaliser finds one orthogonal basis U that makes a whole
set of symmetric matrices H_1..H_M as diagonal as possible, minimising
the summed squared off-diagonal entries of the projections
C_i = U^T H_i U.  Each sweep visits every index pair (p, q) and applies
the closed-form Jacobi angle that is optimal for that pair across all
matrices simultaneously (the dominant eigenvector of the accumulated
2x2 matrix built from (C_i[p,p] - C_i[q,q], 2 C_i[p,q]); Cardoso &
Souloumiac, SIAM J. Matrix Anal. Appl. 17(1), 1996).

Only the basis is rotated.  The matrices are held as coordinates on the
upper-triangle entries they use, and the entries C_i[p,p], C_i[q,q] and
C_i[p,q] that an angle reads are linear in them.  The basis keeps each
round's pairs in adjacent columns, so z = U[:, p] + i U[:, q] is a
complex view of it: one complex multiply of two row gathers of z, one
matrix product and one einsum give every pair's angle sums (see
:func:`_angle_sums`), one phase factor per pair rotates the basis in
place (:func:`_rotate`), and one ``np.take`` moves it to the next
round's column order.  Every round reads the input coordinates afresh,
so no rotated stack exists to drift.

:func:`joint_diagonalise_sets` sweeps several sets of one size in one
loop (the per-mode diagonalisations of a decomposition): each set keeps
its own coordinates, product, guard, history and stopping test, while a
round's angle math and rotation run once for all of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConvergenceError
from .network import SymMatrix

# Rotations whose predicted off2 decrease falls below _GAIN_GUARD times the
# current total off2, or below eps^2 times the inputs' summed squared norm,
# are skipped: they cannot beat summation round-off, and skipping them keeps
# the recorded off2 history genuinely non-increasing.  The second floor
# holds once off2 itself is round-off (a single tree's off2 reaches 1e-30).
_GAIN_GUARD = 1e-13


class OrthoBasis:
    """Orthogonal n x n basis; orthogonality is checked on construction."""

    __slots__ = ("_u",)

    def __init__(self, u, *, tol: float = 1e-10):
        u = np.array(u, dtype=float)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {u.shape}")
        err = float(np.abs(u.T @ u - np.eye(u.shape[0])).max())
        if not err <= tol:  # NaN fails too
            raise ValueError(f"basis is not orthogonal: max |U^T U - I| = {err:.3e}")
        u.setflags(write=False)
        self._u = u

    @property
    def n(self) -> int:
        return self._u.shape[0]

    @property
    def values(self) -> np.ndarray:
        return self._u

    def __array__(self, dtype=None):
        return np.asarray(self._u, dtype=dtype)

    def column(self, k: int) -> np.ndarray:
        return self._u[:, k]

    def __repr__(self) -> str:
        return f"OrthoBasis(n={self.n})"


@dataclass(frozen=True)
class JdResult:
    """Output of :func:`joint_diagonalise`.

    ``basis`` is the shared orthogonal basis, ``avg_diag`` the mean
    projected diagonal, ``deviations[i]`` the residual off2 of sample i in
    the shared basis, and ``off2_history`` the per-sweep total off2
    (entry 0 is the value before any sweep).
    """

    basis: OrthoBasis
    avg_diag: np.ndarray
    deviations: np.ndarray
    off2_history: np.ndarray
    converged: bool

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def n_samples(self) -> int:
        return len(self.deviations)

    def to_json_dict(self) -> dict:
        return {
            "basis": [[float(x) for x in row] for row in self.basis.values],
            "avg_diag": [float(x) for x in self.avg_diag],
            "deviations": [float(x) for x in self.deviations],
            "off2_history": [float(x) for x in self.off2_history],
            "converged": bool(self.converged),
        }

    def write_json(self, path: str | Path) -> None:
        with open(Path(path), "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "JdResult":
        with open(Path(path), "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls(
            basis=OrthoBasis(np.array(raw["basis"])),
            avg_diag=np.array(raw["avg_diag"]),
            deviations=np.array(raw["deviations"]),
            off2_history=np.array(raw["off2_history"]),
            converged=bool(raw["converged"]),
        )


def off2(c) -> float:
    """Sum of squared off-diagonal entries."""
    a = np.asarray(c, dtype=float)
    a2 = a * a
    np.fill_diagonal(a2, 0.0)
    return float(a2.sum())


def project(h, basis: OrthoBasis) -> SymMatrix:
    """Project a symmetric matrix into the basis: C = U^T H U.

    ``h`` is read as a :class:`SymMatrix`, so a matrix that is not square,
    finite and symmetric raises ``ValueError``.
    """
    hv = SymMatrix(h).values
    u = basis.values
    if hv.shape != (u.shape[0], u.shape[0]):
        raise ValueError(f"dimension mismatch: matrix {hv.shape} vs basis n={u.shape[0]}")
    return SymMatrix.symmetrised(u.T @ hv @ u)


def _incidence(matrices) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray, int]:
    """Read any input as coordinates H_i = sum_e B[i, e] S_e, with S_e the
    symmetric 0/1 matrix of the upper-triangle entry ends[e] = (a, b) and
    ``coef[e]`` its count of ones (2 off the diagonal, 1 on it).

    A SampleBatch gives its bool tree-edge incidence over the edges its
    trees use, never densifying a tree; a stack of matrices gives its
    values on the entries that are nonzero in some matrix.
    """
    if hasattr(matrices, "edge_arrays"):  # SampleBatch
        m_count, n = len(matrices), matrices.n_nodes
        tree, child, par = matrices.edge_arrays()
        key = np.minimum(child, par) * n + np.maximum(child, par)
        # a mask, not np.unique: its sort temporaries raise the peak RSS
        used = np.zeros(n * n, dtype=bool)
        used[key] = True
        incidence = np.zeros((m_count, int(used.sum())), dtype=bool)
        incidence[tree, (np.cumsum(used) - 1)[key]] = True
    else:
        # SymMatrix rejects a matrix that is not square, finite and
        # symmetric: only the upper triangle is read
        mats = [SymMatrix(m).values for m in matrices]
        stack = np.stack(mats) if mats else np.zeros((0, 0, 0))
        m_count, n = len(stack), stack.shape[1]
        used = np.triu(np.any(stack != 0.0, axis=0)).ravel()
        incidence = stack.reshape(m_count, n * n)[:, used]
    if m_count == 0:
        raise ValueError("need at least one matrix")
    ends = np.divmod(np.flatnonzero(used), n)
    coef = np.where(ends[0] == ends[1], 1.0, 2.0)
    return incidence, ends, coef, n


def _sweep_weights(incidence) -> np.ndarray:
    """Coordinates W (r x E) of the matrices K_j = sum_e W[j, e] S_e that
    the sweeps diagonalise: the M inputs themselves, or, when they use
    fewer coordinates than there are matrices (E < M), the eigenmatrices
    of the coordinate Gram.

    With B^T B = V diag(lam) V^T, the matrices K_j = sqrt(lam_j) sum_e
    V[e, j] S_e satisfy sum_j K_j (x) K_j = sum_i H_i (x) H_i.  Every
    quantity a sweep reads (the angle sums g00/g01/g11 and the off2 totals)
    is such a sum, so the sweeps take the same steps on the r <= E matrices
    K_j as on the M inputs.  This is the reduction JADE applies to its
    cumulant set (Cardoso & Souloumiac, IEE Proc. F 140(6), 1993).
    """
    b = incidence.astype(float, copy=False)
    if b.shape[1] >= b.shape[0]:
        return b
    try:
        lam, vecs = np.linalg.eigh(b.T @ b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed on the coordinate Gram matrix: {exc}") from exc
    # eigenvalues at round-off level (the Gram is singular when inputs
    # repeat) carry no mass; sqrt of a tiny negative one would be NaN
    keep = lam > lam.max(initial=0.0) * len(lam) * np.finfo(float).eps
    return (vecs[:, keep] * np.sqrt(lam[keep])).T


def _matrices(weights, ends, n: int) -> np.ndarray:
    """The dense (rows, n, n) stack of the given rows of weights."""
    stack = np.zeros((len(weights), n, n))
    stack[:, ends[0], ends[1]] = weights
    stack[:, ends[1], ends[0]] = weights
    return stack


def _off2_total(weights, ends, u) -> float:
    """Total off2 of the sweep matrices in the basis U, projecting
    U^T K_j U for a chunk of matrices at a time.

    A chunk holds at most min(n, 2^16 // n^2) matrices, so each of its
    (chunk, n, n) arrays stays within 2^16 entries (512 kB) at any n.

    The squared off-diagonal entries are summed directly: the identity
    ||K_j||^2 - ||diag||^2 would cancel against the diagonal mass, whose
    round-off lies far above the off2 of about 1e-28 that commuting sets
    reach.
    """
    n = len(u)
    idx = np.arange(n)
    chunk = max(1, min(n, 2**16 // max(n * n, 1)))
    total = 0.0
    for lo in range(0, len(weights), chunk):
        c = u.T @ _matrices(weights[lo : lo + chunk], ends, n) @ u
        c *= c
        c[:, idx, idx] = 0.0
        total += float(c.sum())
    if not math.isfinite(total):
        raise ConvergenceError("off2 went non-finite during joint diagonalisation")
    return total


def _angle_sums(weights, ends, coef, z) -> np.ndarray:
    """The angle sums [[g00, g01], [g01, g11]] of every pair (p, q) of one
    round, as a (pair, 2, 2) array: g00 = sum_j h0_j^2, g01 = sum_j h0_j
    h1_j and g11 = sum_j h1_j^2, where h0_j = C_j[p,p] - C_j[q,q] and
    h1_j = 2 C_j[p,q] for the sweep matrices C_j = U^T K_j U.

    ``z`` is the round's complex view of the basis, one column
    P + iQ per pair, with P = U[:, p] and Q = U[:, q].  Both entries are
    linear in the coordinates: for (a, b) = ends[e], z_a z_b = (P_a P_b -
    Q_a Q_b) + i (P_a Q_b + P_b Q_a), so h0 + i h1 = sum_e W[j, e] coef[e]
    z_a z_b.  Two complex row gathers and one complex multiply give that
    E x k matrix, one product of its real view with the weights gives h0
    and h1 as its even and odd rows, and one einsum the sums.  No matrix
    is ever rotated, and no temporary outlives the call.
    """
    f = z[ends[0]]
    f *= z[ends[1]]
    f *= coef[:, None]
    h = (f.view(float).T @ weights.T).reshape(z.shape[1], 2, len(weights))
    return np.einsum("pir,pjr->pij", h, h)


def _rotate(z, theta) -> None:
    """Turn the pairs of one round in place: the complex view z = U[:, p] +
    i U[:, q] (shape (..., n, k)) times e^{-i theta} (theta of shape
    (..., k)) sets columns p and q to the Givens update cos P + sin Q and
    cos Q - sin P."""
    z *= np.exp(-1j * theta)[..., None, :]


def _sample_diagonals(rows, ends, coef, fro2, u) -> tuple[np.ndarray, np.ndarray]:
    """Each input's projected diagonal diag(U^T H_i U) and its residual
    off2, ||H_i||^2 - ||diag||^2, read from its coordinate row."""
    g = u[ends[0]]
    g *= coef[:, None]
    g *= u[ends[1]]
    diags = rows @ g
    # the subtraction cancels for nearly diagonal inputs; clip its round-off
    deviations = np.clip(fro2 - (diags * diags).sum(axis=1), 0.0, fro2)
    return diags, deviations


def _round_layouts(n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Column orders of the basis for the rounds of one sweep, and the
    ``np.take`` indices that move each round's order to the next (the
    last round's to the first).

    The rounds are the circle method's, the parallel Jacobi ordering of
    Brent & Luk (SIAM J. Sci. Stat. Comput. 6(1), 1985): seat 0 stays,
    the other seats turn one place a round, and seat k meets seat m-1-k.
    A round pairs every index at most once, so its rotations commute and
    their off2 gains add exactly; a sweep of n - 1 (n, for odd n) rounds
    meets every pair once.  Round t holds its pairs p < q, in increasing
    p, in the adjacent columns 2j and 2j + 1 and the unpaired index of an
    odd n last, so U[:, p] + i U[:, q] is the complex view of the first
    2 (n // 2) columns.
    """
    m = n + n % 2  # seat n is the bye of an odd n
    ring = list(range(1, m))
    orders = []
    for _ in range(m - 1):
        seats = [0] + ring
        pairs = sorted((min(a, b), max(a, b)) for a, b in zip(seats[: m // 2], seats[::-1]))
        # the bye's partner is the unpaired index: its pair goes last and
        # the bye is cut off
        pairs.sort(key=lambda pq: pq[1] == n)
        orders.append(np.array([i for pq in pairs for i in pq][:n], dtype=np.intp))
        ring = ring[-1:] + ring[:-1]
    steps = [np.argsort(a)[b] for a, b in zip(orders, orders[1:] + orders[:1])]
    return orders, steps


class _SweepSet:
    """One input set of :func:`joint_diagonalise_sets`: its coordinates and
    sweep weights, its basis in natural column order, and its own gain
    guard, off2 history and stopping test."""

    def __init__(self, matrices):
        incidence, self.ends, self.coef, self.n = _incidence(matrices)
        # both checks read the input itself, before any Gram is formed
        with np.errstate(over="ignore"):
            self.fro2 = np.einsum("ie,ie,e->i", incidence, incidence, self.coef)
        if not math.isfinite(float(self.fro2.sum())):
            raise ValueError("squared Frobenius norms of the input overflow; rescale the matrices")
        if np.any((self.fro2 < np.finfo(float).tiny) & incidence.any(axis=1)):
            raise ValueError("squared Frobenius norms of the input underflow; rescale the matrices")
        mean = np.zeros((self.n, self.n))
        mean[self.ends] = mean[self.ends[::-1]] = incidence.sum(axis=0) / len(incidence)
        self.weights = _sweep_weights(incidence)
        # the dense side (one weight row per input) sweeps the float
        # incidence itself, so the readout multiplies that instead of
        # casting the bool incidence again
        self.rows = self.weights if len(self.weights) == len(incidence) else incidence
        self.round_off = np.finfo(float).eps ** 2 * float(self.fro2.sum())
        # at U = I the off2 of K_j is twice its squared off-diagonal coordinates
        off = self.ends[0] != self.ends[1]
        self.history = [2.0 * float(np.einsum("je,je,e->", self.weights, self.weights, off))]
        self.converged = False
        self.basis = np.eye(self.n)

        # Warm start in the eigenbasis of the mean matrix: for near-commuting
        # sets this basis is already close to the joint one, cutting the sweep
        # count sharply.  On tree batches it does not cut sweeps; it is kept
        # because it picks the basin of off2 the modes depend on (without
        # it, criterion 6's segment accuracy falls to 0.793, below 0.80).
        # Adopted only when it does not raise the objective,
        # so the recorded history stays non-increasing from the input basis.
        try:
            _, seed_basis = eig_sym(mean)
            warm_u = seed_basis.values.copy()
            warm_off = _off2_total(self.weights, self.ends, warm_u)
            if warm_off <= self.history[0]:
                self.basis = warm_u
                self.history.append(warm_off)
        except ConvergenceError:
            pass

    def guard(self) -> float:
        """Smallest off2 gain a rotation of the coming sweep must predict."""
        return max(_GAIN_GUARD * max(self.history[-1], np.finfo(float).tiny), self.round_off)

    def end_sweep(self, u, rotations: int, tol: float) -> bool:
        """Take the basis ``u`` after a sweep of ``rotations`` rotations;
        True once the set stops."""
        self.basis = u
        if rotations == 0:
            self.converged = True
            return True
        if not float(np.abs(u.T @ u - np.eye(len(u))).max()) <= 1e-10:
            raise ConvergenceError("basis lost orthogonality during sweeps")
        current = _off2_total(self.weights, self.ends, u)
        self.history.append(current)
        self.converged = self.history[-2] - current < tol * self.history[0]
        return self.converged

    def result(self) -> JdResult:
        diags, deviations = _sample_diagonals(self.rows, self.ends, self.coef, self.fro2, self.basis)
        avg_diag = diags.mean(axis=0)
        order = np.argsort(-avg_diag, kind="stable")
        u = self.basis[:, order]
        avg_diag = avg_diag[order]
        signs = np.where(u.sum(axis=0) < 0, -1.0, 1.0)
        u = u * signs
        return JdResult(
            basis=OrthoBasis(u),
            avg_diag=avg_diag,
            deviations=deviations,
            off2_history=np.array(self.history),
            converged=self.converged,
        )


def joint_diagonalise(
    matrices,
    tol: float = 1e-9,
    max_sweeps: int = 100,
) -> JdResult:
    """Simultaneously diagonalise a set of symmetric matrices.

    Every input is read as coordinates on the upper-triangle entries it
    uses (:func:`_incidence`; a SampleBatch is never densified).  When
    there are fewer such entries than matrices, the sweeps run on the
    eigenmatrices of their Gram instead of the matrices themselves (see
    :func:`_sweep_weights`), with the same history up to round-off.  Each
    matrix's diagonal and deviation are read from its coordinates, so a
    SampleBatch and its ``matrices()`` give the same result bit for bit.
    (Where a node symmetry of the inputs swaps them, the objective has
    mirror-image minimisers and round-off picks one, so only the multiset
    of deviations is determined.)  This is :func:`joint_diagonalise_sets`
    of the one set.

    Parameters
    ----------
    matrices : SampleBatch or sequence of SymMatrix / square arrays.
    tol : relative convergence tolerance; sweeps stop once a full sweep
        reduces the total off2 by less than ``tol`` times its initial
        value.
    max_sweeps : hard sweep limit; exceeding it returns ``converged=False``.

    Returns
    -------
    JdResult with columns of the basis ordered by decreasing average
    projected diagonal and signed so every column sums nonnegative.
    """
    return joint_diagonalise_sets([matrices], tol=tol, max_sweeps=max_sweeps)[0]


def joint_diagonalise_sets(
    sources: Sequence,
    tol: float = 1e-9,
    max_sweeps: int = 100,
) -> list[JdResult]:
    """Diagonalise each of several sets of n x n symmetric matrices jointly
    within itself, in one sweep loop; one :class:`JdResult` per set, in
    order.

    The sets share only the round schedule.  Each keeps its own
    coordinates, sweep weights, gain guard, off2 history and stopping
    test, and its own product at its own size; a round's angle math and
    rotation run once for all sets, and a set leaves the loop when it
    stops.  Every per-set operation is the one a lone run makes, so each
    result equals :func:`joint_diagonalise` of its set bit for bit.  The
    sets must all have the same n; ``tol`` and ``max_sweeps`` are as for
    :func:`joint_diagonalise`.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    if not max_sweeps >= 0:
        raise ValueError("max_sweeps must be nonnegative")
    sets = [_SweepSet(x) for x in sources]
    if len({s.n for s in sets}) > 1:
        raise ValueError("all sets must hold matrices of the same size")
    if not sets:
        return []
    n = sets[0].n
    orders, steps = _round_layouts(n)
    natural = np.argsort(orders[0])
    # every set's basis in the current round's column order
    u = np.take(np.stack([s.basis for s in sets]), orders[0], axis=2)
    live = sets
    for _ in range(max_sweeps):
        guard = np.array([[s.guard()] for s in live])
        rotations = np.zeros(len(live), dtype=int)
        for step in steps:
            z = u[:, :, : n - n % 2].view(complex)
            sums = np.stack([_angle_sums(s.weights, s.ends, s.coef, zs) for s, zs in zip(live, z)])
            ton = sums[..., 0, 0] - sums[..., 1, 1]
            toff = 2.0 * sums[..., 0, 1]
            r = np.hypot(ton, toff)
            # r is non-finite whenever an angle sum is; such a round would
            # otherwise look inactive and end the sweeps as converged
            if not np.isfinite(r).all():
                raise ConvergenceError("angle sums went non-finite during joint diagonalisation")
            # off2 decreases by (r - ton) / 4 under the optimal angle
            active = (r - ton) / 4.0 > guard
            theta = 0.5 * np.arctan2(toff, ton + r)
            # degenerate branch point (equal diagonals): quarter turn
            theta[(toff == 0.0) & (ton + r <= 0.0)] = math.pi / 4.0
            theta[~active] = 0.0
            # a round pairs every index at most once, so its rotations
            # commute and apply together
            _rotate(z, theta)
            rotations += active.sum(axis=1)
            u = np.take(u, step, axis=2)
        going = np.array(
            [not s.end_sweep(np.take(us, natural, axis=1), int(c), tol) for s, us, c in zip(live, u, rotations)]
        )
        live = [s for s, g in zip(live, going) if g]
        if not live:
            break
        u = u[going]
    return [s.result() for s in sets]


def reconstruct_average(result: JdResult, force: bool = False) -> SymMatrix:
    """Average graph from the shared eigenstructure: U diag(avg) U^T.

    Entries are the sample-biased average weight of each link.  Refuses an
    unconverged result unless ``force`` is set.
    """
    if not result.converged and not force:
        raise ConvergenceError("joint diagonalisation did not converge; pass force=True to reconstruct anyway")
    u = result.basis.values
    return SymMatrix.symmetrised((u * result.avg_diag) @ u.T)


def eig_sym(m) -> tuple[np.ndarray, OrthoBasis]:
    """Full spectral decomposition of a symmetric matrix (LAPACK ``eigh``).

    Returns eigenvalues sorted descending and the matching orthonormal
    eigenvector basis (one eigenvector per column), each column signed so
    its first entry above 1e-12 in magnitude is positive.  ``m`` is read
    as a :class:`SymMatrix`, so a matrix that is not square, finite and
    symmetric raises ``ValueError``.
    """
    try:
        eigvals, v = np.linalg.eigh(SymMatrix(m).values)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    v = v[:, order]
    first_nonzero = np.argmax(np.abs(v) > 1e-12, axis=0)
    signs = np.where(v[first_nonzero, np.arange(len(order))] < 0, -1.0, 1.0)
    return eigvals, OrthoBasis(v * signs)
