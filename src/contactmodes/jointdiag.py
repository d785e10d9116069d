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

Sweeps converge linearly, and where the minimum is shallow or a saddle
is near they crawl.  A set whose sweep fails the tol rule but still
gains at least _CRAWL times the previous sweep's gain leaves the sweeps
and is finished by Riemannian trust-region steps U <- U e^X on the
orthogonal group (Absil, Baker & Gallivan, Found. Comput. Math. 7(3),
2007): truncated conjugate gradients on the second-order model of the
total off2, preconditioned by each pair's own curvature, whose gradient
and Hessian products are read from two n^3 slices of sum_j C_j (x) C_j
(see :func:`_second_order`).  A step is kept only if it lowers off2, so
the history stays non-increasing.  Where the steps show a degenerate
minimum, on which Newton steps would divide round-off by a vanishing
curvature, the set goes back to its sweeps (see _LINEAR).  A set that
meets a stopping rule at a stationary point is tested for a saddle, the
Hessian's leftmost curvature read by Lanczos steps on the same products,
and steps off one along it (see :meth:`_SweepSet.settle`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError
from .network import SymMatrix
from .seeds import derive_rng

# Rotations whose predicted off2 decrease falls below _GAIN_GUARD times the
# current total off2, or below eps^2 times the inputs' summed squared norm,
# are skipped: they cannot beat summation round-off, and skipping them keeps
# the recorded off2 history genuinely non-increasing.  The second floor
# holds once off2 itself is round-off (a single tree's off2 reaches 1e-30).
_GAIN_GUARD = 1e-13

# A sweep that fails the tol rule but still gains at least this share of
# the previous sweep's gain is crawling, and the trust region finishes the
# set.  On the four diagonalisations of `repro` (tol 1e-6) the ratio first
# reaches it after 6 to 9 sweeps; on the tol 1e-2 benchmark runs and the
# criterion-6 fixture it stays at or below 0.57 until tol stops them.
_CRAWL = 0.8
# Near a nondegenerate minimum each untruncated trust-region step gains a
# small fraction of the one before (the steps converge quadratically).
# Where three in a row each gain at least _LINEAR of the one before, the
# minimum is degenerate: along a quartic valley each Newton step gains
# about (2/3)^4 = 0.2 of the one before and divides the round-off of the
# gradient by a curvature that vanishes at the minimum.  The set then
# returns to the sweeps, whose rotations stay well conditioned there.  One
# such ratio is not enough: the first untruncated steps after truncated
# ones can gain that much on their way into the quadratic regime.
_LINEAR = 0.1
# Largest trust-region radius, in the Frobenius norm of the skew step X
# (a Givens rotation by t has ||X|| = sqrt(2) t); the first is an eighth.
_MAX_RADIUS = math.pi / 2.0
# The coordinate Gram and the readout cast the M x E coordinates to float
# a row chunk at a time (see :func:`_chunks`), so that no float copy of a
# whole bool incidence exists.  A chunk holds about _CHUNK_ENTRIES entries
# (2 MB as float64) but never fewer than _CHUNK_FLOOR rows: readouts in
# chunks of 512 rows or more matched the one-shot product bit for bit,
# while shorter chunks changed its last bit at E = 974 (a 1-row chunk
# takes BLAS's matrix-vector path).
_CHUNK_ENTRIES = 2**18
_CHUNK_FLOOR = 512
# A set that meets a stopping rule can sit at a saddle of off2, where no
# Givens rotation and no Newton step gains but a mixed rotation does (the
# sweeps stopped at one whose Hessian's smallest eigenvalue was -0.0032
# times its largest; 5 of 3,000 small tree batches at tol 1e-12 stopped
# at a saddle).  Where the step that met the rule gained less than
# _STATIONARY times the initial off2, always so at tol <= 1.5e-8, the
# stop is a stationary point and its curvature is checked (see
# :meth:`_SweepSet.settle`); a looser tol stops a set mid-descent, where
# the curvature says nothing of the point the sweeps head for.  The
# leftmost curvature is read from at most _LANCZOS_STEPS Lanczos steps
# (see :func:`_leftmost`), which span the whole skew space up to n = 11.
_STATIONARY = math.sqrt(np.finfo(float).eps)
_LANCZOS_STEPS = 56
# A pair whose off-diagonal outweighs its diagonal (ton < 0) and whose
# coupling toff is below _QUARTER times r is turned by exactly +pi/4: its
# optimal angles are +-pi/4 to within toff / 4|ton|, and a toff of
# round-off would pick the sign (a step off a saddle can leave such pairs,
# whose signs then sent two implementations to different minima).
_QUARTER = math.sqrt(np.finfo(float).eps)


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
    the shared basis, and ``off2_history`` the total off2 before any
    sweep, after the warm start when it was adopted, after each sweep that
    rotated and after each kept trust-region step.  ``sweeps`` counts the
    Jacobi sweeps run and ``polish_steps`` the kept trust-region steps,
    steps off a saddle included.
    """

    basis: OrthoBasis
    avg_diag: np.ndarray
    deviations: np.ndarray
    off2_history: np.ndarray
    converged: bool
    sweeps: int
    polish_steps: int

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
            "sweeps": int(self.sweeps),
            "polish_steps": int(self.polish_steps),
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
            sweeps=int(raw["sweeps"]),
            polish_steps=int(raw["polish_steps"]),
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


def _chunks(m: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) of the row chunks of M rows of ``width`` entries:
    ceil(M / rows) nearly equal chunks for rows = max(_CHUNK_FLOOR,
    _CHUNK_ENTRIES // width), but at most M // _CHUNK_FLOOR of them, so
    that every chunk, the last one included, holds at least _CHUNK_FLOOR
    rows (fewer rows make one chunk)."""
    rows = max(_CHUNK_FLOOR, _CHUNK_ENTRIES // max(width, 1))
    count = max(1, min(-(-m // rows), m // _CHUNK_FLOOR))
    bounds = [i * m // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


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


def _gram(rows) -> np.ndarray:
    """B^T B of the M x E coordinates, summed in float64 over their row
    chunks, each cast on its own.  A bool chunk is cast to float32: its
    product holds integer counts below 2^24, exact in single precision and
    about twice as fast, so the Gram of an incidence is exact in any chunk
    order.  Other coordinates are cast to float64, and their chunked sum
    may differ from a one-shot product in the last bits."""
    m, e = rows.shape
    dtype = np.float32 if rows.dtype == bool else float
    gram = np.zeros((e, e))
    for start, stop in _chunks(m, e):
        b = rows[start:stop].astype(dtype, copy=False)
        gram += b.T @ b
        del b  # before the next chunk is cast
    return gram


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
    cumulant set (Cardoso & Souloumiac, IEE Proc. F 140(6), 1993).  The
    Gram is summed over row chunks (see :func:`_gram`).
    """
    if incidence.shape[1] >= incidence.shape[0]:
        return incidence.astype(float, copy=False)
    try:
        lam, vecs = np.linalg.eigh(_gram(incidence))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed on the coordinate Gram matrix: {exc}") from exc
    # eigenvalues at round-off level (the Gram is singular when inputs
    # repeat) carry no mass; sqrt of a tiny negative one would be NaN
    keep = lam > lam.max(initial=0.0) * len(lam) * np.finfo(float).eps
    # scaled in place, so that at most two E x E arrays are alive
    vecs = vecs[:, keep]
    vecs *= np.sqrt(lam[keep])
    return vecs.T


def _matrices(weights, ends, n: int) -> np.ndarray:
    """The dense (rows, n, n) stack of the given rows of weights."""
    stack = np.zeros((len(weights), n, n))
    stack[:, ends[0], ends[1]] = weights
    stack[:, ends[1], ends[0]] = weights
    return stack


def _projections(weights, ends, u):
    """The sweep matrices in the basis U, U^T K_j U, a chunk at a time.

    A chunk holds at most min(n, 2^16 // n^2) matrices, so each of its
    (chunk, n, n) arrays stays within 2^16 entries (512 kB) at any n.
    """
    n = len(u)
    chunk = max(1, min(n, 2**16 // max(n * n, 1)))
    for lo in range(0, len(weights), chunk):
        yield u.T @ _matrices(weights[lo : lo + chunk], ends, n) @ u


def _chunk_off2(c) -> float:
    """Summed off2 of a chunk of projected matrices, squaring ``c`` in place.

    The squared off-diagonal entries are summed directly: the identity
    ||K_j||^2 - ||diag||^2 would cancel against the diagonal mass, whose
    round-off lies far above the off2 of about 1e-28 that commuting sets
    reach.
    """
    idx = np.arange(c.shape[1])
    c *= c
    c[:, idx, idx] = 0.0
    return float(c.sum())


def _finite(total: float) -> float:
    if not math.isfinite(total):
        raise ConvergenceError("off2 went non-finite during joint diagonalisation")
    return total


def _off2_total(weights, ends, u) -> float:
    """Total off2 of the sweep matrices in the basis U."""
    return _finite(sum(_chunk_off2(c) for c in _projections(weights, ends, u)))


def _second_order(weights, ends, u) -> tuple[float, np.ndarray, tuple]:
    """Total off2 f of the sweep matrices C_j = U^T K_j U, its gradient G
    along U e^X, and the terms (P, Q, L) of sum_j C_j (x) C_j that the
    Hessian product reads (see :func:`_hessian_product`), summed over the
    chunks of :func:`_projections`.

    With d_j = diag(C_j), the gradient is G[p, q] = 2 sum_j (d_j[p] -
    d_j[q]) C_j[p, q], so that the derivative of f along X is <G, X> =
    sum G * X; P[p] = sum_j C_j[p, :]^T C_j[p, :] (row p's outer products)
    and Q[c] = sum_j d_j[c] C_j.  G is summed from the differences d_j[p] -
    d_j[q], not as the difference of the two large sums M - M^T with
    M[p, q] = Q[p][p, q], which cancel near a stationary basis.
    """
    n = len(u)
    idx = np.arange(n)
    total = 0.0
    g = np.zeros((n, n))
    p = np.zeros((n, n, n))
    q = np.zeros((n, n * n))
    for c in _projections(weights, ends, u):
        d = c[:, idx, idx]
        g += ((d[:, :, None] - d[:, None, :]) * c).sum(axis=0)
        rows = c.transpose(1, 2, 0)  # rows[p] holds C_j[p, :] as column j
        p += rows @ rows.transpose(0, 2, 1)
        q += d.T @ c.reshape(len(c), n * n)
        total += _chunk_off2(c)
    q = q.reshape(n, n, n)
    lr = np.einsum("ppc->pc", q) + np.einsum("cpc->pc", q)
    return _finite(total), g - g.T, (p, q, lr)


def _hessian_product(x, p, q, lr) -> np.ndarray:
    """The Hessian of f(U e^X) at X = 0 applied to a skew X.

    In commutator form it is sum_j 2 [E_j, C_j] + [C_j, [D_j, X]] + [D_j,
    [C_j, X]], with D_j = diag(C_j) and E_j = diag([C_j, X]).  Written out
    on the slices of :func:`_second_order` it is 4 (A - A^T) + L X + X L -
    2 (T - T^T), with A[p, :] = X[:, p]^T P[p], T[:, q] = Q[q] X[:, q] and
    the symmetric L[p, c] = Q[p][p, c] + Q[c][p, c] (``lr``), so a product
    costs a few n^3 operations whatever the number of matrices.  As X L =
    -(L X)^T, it is H - H^T with H = 4 A + L X - 2 T, skew to the last
    bit, so that round-off grows no symmetric part over the CG iterations.
    """
    a = (x.T[:, None, :] @ p)[:, 0, :]
    t = (q @ x.T[:, :, None])[:, :, 0].T
    h = 4.0 * a + lr @ x - 2.0 * t
    return h - h.T


def _pair_curvatures(p, q, lr) -> np.ndarray:
    """The Hessian's diagonal on the generators E_pq = e_p e_q^T - e_q
    e_p^T: entry [p, q] is <E_pq, H[E_pq]> / ||E_pq||^2, the curvature of
    rotating the pair (p, q) alone, read from the slices of
    :func:`_second_order` as :func:`_hessian_product` would for X = E_pq.
    Symmetric, with a meaningless diagonal.
    """
    pd = np.einsum("pqq->pq", p)  # P[p][q, q]
    qd = np.einsum("qpp->qp", q)  # Q[q][p, p]
    ld = np.diag(lr)
    return -4.0 * (pd + pd.T) + ld[:, None] + ld[None, :] - 2.0 * (qd + qd.T)


def _truncated_cg(g, hessian: tuple, radius: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Steihaug-Toint truncated conjugate gradients on the model <G, X> +
    <X, H[X]> / 2 over skew X with ||X|| <= radius (Frobenius norm; Absil,
    Baker & Gallivan, Found. Comput. Math. 7(3), 2007, alg. 2), preconditioned
    by the pair curvatures of :func:`_pair_curvatures`.

    Returns the step X, H[X] and whether the step was truncated: stopped
    on the trust-region boundary, along a direction of nonpositive
    curvature or one that leaves the region.  Otherwise the preconditioned
    residual has fallen to 1e-4 of the gradient's, or CG has run its
    n (n - 1) / 2 iterations.

    The preconditioner divides each entry of the residual by its pair's
    curvature (its magnitude, so that it stays positive definite away from
    a minimum); the pair curvatures of one basis spread over decades.  A
    pair whose curvature lies below sqrt(eps) times the largest, such as
    two nodes outside every tree, is left out of the step: its gradient
    and curvature are round-off.  Solving the Newton system to 1e-4 makes
    each untruncated step nearly the exact Newton step, which sends nearby
    bases to nearly the same point, so that round-off in G and H does not
    grow from step to step; under the usual superlinear forcing, a solve
    to min(0.1, sqrt(||G|| / f)), it grows by about the Hessian's
    condition number per step.
    """
    curv = np.abs(_pair_curvatures(*hessian))
    np.fill_diagonal(curv, 0.0)
    kept = curv > math.sqrt(np.finfo(float).eps) * float(curv.max(initial=0.0))
    inverse = np.zeros_like(curv)
    inverse[kept] = 1.0 / curv[kept]
    x = np.zeros_like(g)
    hx = np.zeros_like(g)
    r = g.copy()
    z = inverse * r
    rz = float(np.vdot(r, z))
    stop = 1e-8 * rz
    direction = -z
    for _ in range(len(g) * (len(g) - 1) // 2):
        if rz <= stop:
            break
        hd = _hessian_product(direction, *hessian)
        curvature = float(np.vdot(direction, hd))
        if curvature > 0.0:
            alpha = rz / curvature
            step = x + alpha * direction
            if float(np.vdot(step, step)) < radius * radius:
                x = step
                hx += alpha * hd
                r += alpha * hd
                z = inverse * r
                rz, rz_old = float(np.vdot(r, z)), rz
                direction = -z + (rz / rz_old) * direction
                continue
        # to the boundary: the positive root tau of ||x + tau d|| = radius
        dd, xd, xx = float(np.vdot(direction, direction)), float(np.vdot(x, direction)), float(np.vdot(x, x))
        tau = (math.sqrt(xd * xd + dd * (radius * radius - xx)) - xd) / dd
        return x + tau * direction, hx + tau * hd, True
    return x, hx, False


def _leftmost(hessian: tuple, n: int) -> tuple[float, np.ndarray]:
    """The smallest Ritz value of the Hessian over skew n x n matrices and
    its Ritz vector V (unit Frobenius norm), by Rayleigh-Ritz on the
    Krylov space of at most _LANCZOS_STEPS Lanczos steps, each new vector
    orthogonalised twice against all before it.

    The start S is the skew part of a fixed standard normal draw, so that
    no symmetry of the inputs hides a direction from it, and V is signed
    so that <V, S> >= 0.  The Ritz value is the curvature <V, H[V]> of V
    itself, never below the smallest eigenvalue; once the steps span the
    n (n - 1) / 2 dimensions, or an invariant subspace, it is that
    eigenvalue.
    """
    q = np.empty((min(_LANCZOS_STEPS, n * (n - 1) // 2), n, n))
    projected = np.zeros((len(q), len(q)))  # upper triangle of Q^T H Q
    start = derive_rng(0, "jd-lanczos", n).standard_normal((n, n))
    v = start - start.T
    k = 0
    while k < len(q):
        q[k] = v / math.sqrt(float(np.vdot(v, v)))
        hv = _hessian_product(q[k], *hessian)
        projected[: k + 1, k] = np.tensordot(q[: k + 1], hv, axes=2)
        k += 1
        v = hv
        for _ in range(2):
            v = v - np.tensordot(np.tensordot(q[:k], v, axes=2), q[:k], axes=1)
        # the vectors so far span an invariant subspace
        if not float(np.vdot(v, v)) > 1e-20 * float(np.vdot(hv, hv)):
            break
    theta, y = np.linalg.eigh(projected[:k, :k], UPLO="U")
    # q[0] is S / ||S||, so y[0] carries the sign of <V, S>
    return float(theta[0]), math.copysign(1.0, y[0, 0]) * np.tensordot(y[:, 0], q[:k], axes=1)


def _expm_skew(x) -> np.ndarray:
    """e^X of a real skew matrix: iX is Hermitian, so with iX = V diag(w)
    V^H, e^X = V diag(e^{-iw}) V^H, orthogonal to round-off."""
    w, v = np.linalg.eigh(1j * x)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


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
    """Turn the k pairs of one round in place: the complex view z = U[:, p]
    + i U[:, q] (shape (n, k)) times e^{-i theta} (theta of shape (k,))
    sets columns p and q to the Givens update cos P + sin Q and cos Q -
    sin P."""
    z *= np.exp(-1j * theta)


def _sample_diagonals(rows, ends, coef, fro2, u) -> tuple[np.ndarray, np.ndarray]:
    """Each input's projected diagonal diag(U^T H_i U) and its residual
    off2, ||H_i||^2 - ||diag||^2, read from its coordinate row, a row
    chunk at a time (a bool chunk is cast to float on its own)."""
    g = u[ends[0]]
    g *= coef[:, None]
    g *= u[ends[1]]
    diags = np.empty((len(rows), len(u)))
    for start, stop in _chunks(*rows.shape):
        np.matmul(rows[start:stop].astype(float, copy=False), g, out=diags[start:stop])
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


def _check_orthogonal(u) -> None:
    if not float(np.abs(u.T @ u - np.eye(len(u))).max()) <= 1e-10:
        raise ConvergenceError("basis lost orthogonality during joint diagonalisation")


class _SweepSet:
    """The input set of :func:`joint_diagonalise`: its coordinates and
    sweep weights, its basis in natural column order, and its gain guard,
    off2 history and stopping test."""

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
        self.sweeps = 0
        self.polish_steps = 0
        # the last history entry is a step off a saddle
        self.left_saddle = False
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

    def end_sweep(self, u, rotations: int, tol: float, max_sweeps: int) -> bool:
        """Take the basis ``u`` after a sweep of ``rotations`` rotations;
        True once the set stops.  A sweep that fails the tol rule but
        gains at least _CRAWL times the previous sweep's gain hands the set
        to :meth:`polish`, which finishes it or, at a degenerate minimum,
        hands it back to the sweeps.  A set that meets a stopping rule
        stops only if :meth:`settle` finds no saddle to leave."""
        self.basis = u
        self.sweeps += 1
        if rotations == 0:
            return self.settle(0.0, tol, max_sweeps)
        _check_orthogonal(u)
        current = _off2_total(self.weights, self.ends, u)
        self.history.append(current)
        gain = self.history[-2] - current
        if gain < tol * self.history[0]:
            return self.settle(gain, tol, max_sweeps)
        # a step off a saddle gains little against the sweeps that follow it
        crawling = self.sweeps >= 2 and not self.left_saddle and gain >= _CRAWL * (self.history[-3] - self.history[-2])
        self.left_saddle = False
        if crawling and self.polish(tol, max_sweeps):
            return True
        return self.sweeps + self.polish_steps >= max_sweeps

    def polish(self, tol: float, max_sweeps: int) -> bool:
        """Riemannian trust-region steps U <- U e^X from the current basis
        (Absil, Baker & Gallivan, 2007, alg. 1), each X from
        :func:`_truncated_cg` on the second-order model of f(U e^X); True
        once the set stops.

        A step is kept only if it lowers off2; a kept step adds a history
        entry and counts against ``max_sweeps``.  The set meets its
        stopping rule at the first kept step that the region did not
        truncate and that gains less than ``tol`` times the initial off2,
        the sweeps' own rule, or when no step can predict a gain above
        the guard, and :meth:`settle` then stops it.  Three
        untruncated kept steps in a row, each gaining at least _LINEAR
        of the one before, mark a degenerate minimum: False, and the set
        goes back to its sweeps.
        """
        newton_gain = None  # the gain of the last kept step, if untruncated
        slow = 0  # untruncated steps in a row gaining _LINEAR of the one before
        u = self.basis
        f, g, hessian = _second_order(self.weights, self.ends, u)
        radius = _MAX_RADIUS / 8.0
        while self.sweeps + self.polish_steps < max_sweeps:
            x, hx, truncated = _truncated_cg(g, hessian, radius)
            predicted = -float(np.vdot(g, x)) - 0.5 * float(np.vdot(x, hx))
            if not math.isfinite(predicted):
                raise ConvergenceError("trust-region model went non-finite during joint diagonalisation")
            if predicted <= self.guard():
                gain = 0.0
                break
            trial = u @ _expm_skew(x)
            f_trial, g_trial, hessian_trial = _second_order(self.weights, self.ends, trial)
            ratio = (f - f_trial) / predicted
            if ratio < 0.25:
                radius /= 4.0
            elif ratio > 0.75 and truncated:
                radius = min(2.0 * radius, _MAX_RADIUS)
            if not f_trial < f:
                # dropped; the quartered radius ends a run of these once
                # the predicted gain falls to the guard
                continue
            _check_orthogonal(trial)
            self.polish_steps += 1
            self.history.append(f_trial)
            gain = f - f_trial
            u, f, g, hessian = trial, f_trial, g_trial, hessian_trial
            if not truncated and gain < tol * self.history[0]:
                break
            slow = slow + 1 if newton_gain is not None and not truncated and gain >= _LINEAR * newton_gain else 0
            if slow == 2:
                self.basis = u
                return False
            newton_gain = None if truncated else gain
        else:
            self.basis = u
            return True
        self.basis = u
        return self.settle(gain, tol, max_sweeps, g, hessian)

    def settle(self, gain: float, tol: float, max_sweeps: int, g=None, hessian=None) -> bool:
        """Stop the set at its basis, where a step that gained ``gain`` met
        a stopping rule, unless it sits at a saddle: True once the set
        stops, False after a kept step off the saddle, when the set goes
        back to its sweeps.

        Only a stop whose gain lies below _STATIONARY times the initial
        off2 is tested.  The test reads the leftmost curvature lam and
        direction V of the Hessian at the basis (:func:`_leftmost`; ``g``
        and ``hessian`` come from :func:`_second_order` there, computed if
        not given).  A step U e^{tV} is predicted to gain -<G, tV> - lam
        t^2 / 2.  From t = +-r, r the trust region's first radius, and
        then by quarter radii, the set tries the t whose predicted gain
        reaches tol times the initial off2, the gain the tol rule asks of
        a sweep, +r before -r, until one lowers off2 (kept as a
        trust-region step) or none is predicted to gain that much.  At a
        saddle the gradient is round-off, so the sign of V, fixed by
        :func:`_leftmost`, picks between mirror-image minima.  A saddle
        that the budget leaves no step for stops the set unconverged.
        """
        self.converged = True
        if self.n < 2 or not gain < _STATIONARY * self.history[0]:
            return True
        if hessian is None:
            _, g, hessian = _second_order(self.weights, self.ends, self.basis)
        lam, v = _leftmost(hessian, self.n)
        slope = float(np.vdot(g, v))
        floor = max(tol * self.history[0], self.guard())
        radius = _MAX_RADIUS / 8.0
        while True:
            steps = [t for t in (radius, -radius) if -t * slope - 0.5 * lam * t * t >= floor]
            if not steps:
                return True
            if self.sweeps + self.polish_steps >= max_sweeps:
                self.converged = False
                return True
            for t in steps:
                trial = self.basis @ _expm_skew(t * v)
                f_trial = _off2_total(self.weights, self.ends, trial)
                if f_trial < self.history[-1]:
                    _check_orthogonal(trial)
                    self.basis = trial
                    self.history.append(f_trial)
                    self.polish_steps += 1
                    self.converged = False
                    self.left_saddle = True
                    return self.sweeps + self.polish_steps >= max_sweeps
            radius /= 4.0

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
            sweeps=self.sweeps,
            polish_steps=self.polish_steps,
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
    of deviations is determined.)

    Parameters
    ----------
    matrices : SampleBatch or sequence of SymMatrix / square arrays.
    tol : relative convergence tolerance.  The set converges at the first
        sweep that reduces the total off2 by less than ``tol`` times its
        initial value.  A sweep that fails this but still gains at least
        0.8 of the previous sweep's gain hands the set to trust-region
        steps, and it converges at the first kept step that the trust
        region did not truncate and that gains less than ``tol`` times
        the initial off2.  Where those steps find a degenerate minimum
        the set goes back to sweeping, and so does a set that stops at a
        saddle of off2 (a stop that gained less than 1.5e-8 times the
        initial off2 is tested), after one step off it.  It must be
        positive and finite.
    max_sweeps : limit on the sweeps and kept trust-region steps
        together; reaching it first returns ``converged=False``.

    Returns
    -------
    JdResult with columns of the basis ordered by decreasing average
    projected diagonal and signed so every column sums nonnegative.
    """
    if not 0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not max_sweeps >= 0:
        raise ValueError("max_sweeps must be nonnegative")
    state = _SweepSet(matrices)
    n = state.n
    orders, steps = _round_layouts(n)
    natural = np.argsort(orders[0])
    stopped = max_sweeps == 0
    while not stopped:
        guard = state.guard()
        rotations = 0
        # the basis in the current round's column order, taken afresh
        # because trust-region steps may have moved it since the last sweep
        u = np.take(state.basis, orders[0], axis=1)
        for step in steps:
            z = u[:, : n - n % 2].view(complex)
            sums = _angle_sums(state.weights, state.ends, state.coef, z)
            ton = sums[:, 0, 0] - sums[:, 1, 1]
            toff = 2.0 * sums[:, 0, 1]
            r = np.hypot(ton, toff)
            # r is non-finite whenever an angle sum is; such a round would
            # otherwise look inactive and end the sweeps as converged
            if not np.isfinite(r).all():
                raise ConvergenceError("angle sums went non-finite during joint diagonalisation")
            # off2 decreases by (r - ton) / 4 under the optimal angle
            active = (r - ton) / 4.0 > guard
            theta = 0.5 * np.arctan2(toff, ton + r)
            # the branch point, a quarter turn of either sign (see _QUARTER)
            theta[(np.abs(toff) <= _QUARTER * r) & (ton < 0.0)] = math.pi / 4.0
            theta[~active] = 0.0
            # a round pairs every index at most once, so its rotations
            # commute and apply together
            _rotate(z, theta)
            rotations += int(active.sum())
            u = np.take(u, step, axis=1)
        stopped = state.end_sweep(np.take(u, natural, axis=1), rotations, tol, max_sweeps)
    return state.result()


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
