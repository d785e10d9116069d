import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from contactmodes import (
    ConvergenceError,
    SymMatrix,
    decompose,
    default_switching_schedule,
    derive_rng,
    eig_sym,
    filter_batch,
    gen_random_contacts,
    gen_switching,
    joint_diagonalise,
    off2,
    project,
    reconstruct_average,
    sample_batch,
)
from contactmodes import jointdiag as jd_mod
from contactmodes.jointdiag import JdResult, OrthoBasis
from contactmodes.network import StaticGraph, TemporalNetwork
from contactmodes.sampling import SampleBatch, TreeSample
from oracles import (
    brute_off2,
    brute_project,
    reference_gradient,
    reference_hessian,
    reference_hessian_product,
    reference_joint_diagonalise,
)


def _random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _commuting_family(n, m, rng):
    """Matrices sharing an exact eigenbasis (jointly diagonalisable)."""
    u = _random_orthogonal(n, rng)
    return [SymMatrix.symmetrised((u * rng.standard_normal(n)) @ u.T) for _ in range(m)], u


def _subspace_angle(u, v):
    """Largest principal angle between the column spaces of two bases."""
    s = np.linalg.svd(u.T @ v, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def _column_match_angle(u, v):
    """Worst per-column angle after greedily matching columns of v to u,
    ignoring sign."""
    overlap = np.abs(u.T @ v)
    worst = 0.0
    for i in range(u.shape[1]):
        j = int(np.argmax(overlap[i]))
        worst = max(worst, float(np.arccos(np.clip(overlap[i, j], -1.0, 1.0))))
    return worst


# ---------------------------------------------------------------------------
# off2 / project against brute-force oracles


@given(
    st.integers(2, 6).flatmap(
        lambda n: arrays(float, (n, n), elements=st.floats(-5, 5, width=32))
    )
)
@settings(max_examples=60, deadline=None)
def test_off2_matches_brute_force(a):
    sym = (a + a.T) / 2.0
    assert off2(sym) == pytest.approx(brute_off2(sym), rel=1e-12, abs=1e-12)


def test_off2_no_cancellation_for_tiny_offdiagonals():
    # huge diagonal, tiny off-diagonal: subtraction-style formulas lose
    # every significant digit here
    a = np.diag([1e8, -2e8, 3e8]).astype(float)
    a[0, 1] = a[1, 0] = 3e-4
    assert off2(a) == pytest.approx(2 * 9e-8, rel=1e-12)


@given(
    st.integers(2, 5),
    st.integers(0, 10_000),
)
@settings(max_examples=25, deadline=None)
def test_project_matches_quadruple_loop(n, seed):
    rng = np.random.default_rng(seed)
    h = SymMatrix.symmetrised(rng.standard_normal((n, n)))
    u = OrthoBasis(_random_orthogonal(n, rng))
    got = project(h, u)
    assert np.allclose(got.values, brute_project(h.values, u.values), atol=1e-12)


# ---------------------------------------------------------------------------
# joint_diagonalise


def test_jd_exact_on_commuting_family():
    rng = derive_rng(0, "jd")
    mats, u_true = _commuting_family(6, 12, rng)
    res = joint_diagonalise(mats, tol=1e-12)
    assert res.converged
    assert res.off2_history[-1] <= 1e-10 * res.off2_history[0]
    assert _subspace_angle(u_true, res.basis.values) < 1e-7
    assert _column_match_angle(u_true, res.basis.values) < 1e-6


def test_jd_trace_and_frobenius_invariants():
    rng = derive_rng(1, "jd")
    mats = [SymMatrix.symmetrised(rng.standard_normal((5, 5))) for _ in range(8)]
    res = joint_diagonalise(mats, tol=1e-10, max_sweeps=200)
    u = res.basis.values
    stack = np.stack([m.values for m in mats])
    rotated = np.einsum("ki,skl,lj->sij", u, stack, u)
    # trace of every sample is rotation-invariant
    assert np.allclose(np.trace(rotated, axis1=1, axis2=2), np.trace(stack, axis1=1, axis2=2), atol=1e-10)
    # Frobenius norm of every sample is rotation-invariant
    assert np.allclose(
        np.linalg.norm(rotated, axis=(1, 2)), np.linalg.norm(stack, axis=(1, 2)), rtol=1e-12, atol=1e-10
    )
    # avg_diag is the mean rotated diagonal
    diag = rotated[:, range(5), range(5)].mean(axis=0)
    assert np.allclose(res.avg_diag, diag, atol=1e-10)
    # deviations are the per-sample residual off-diagonal masses
    for s in range(8):
        assert res.deviations[s] == pytest.approx(brute_off2(rotated[s]), rel=1e-10, abs=1e-12)


def test_jd_single_matrix_reduces_to_eigendecomposition():
    rng = derive_rng(2, "jd")
    m = SymMatrix.symmetrised(rng.standard_normal((5, 5)))
    res = joint_diagonalise([m], tol=1e-14)
    assert res.off2_history[-1] <= 1e-12
    vals = np.sort(res.avg_diag)
    assert np.allclose(vals, np.sort(np.linalg.eigvalsh(m.values)), atol=1e-9)


def test_jd_diagonal_inputs_converge_immediately():
    mats = [SymMatrix(np.diag([3.0, 1.0, 2.0])), SymMatrix(np.diag([1.0, 5.0, 0.0]))]
    res = joint_diagonalise(mats)
    assert res.converged
    assert res.off2_history[0] == 0.0
    # basis stays axis-aligned (a signed permutation of the identity), with
    # columns ordered by descending average eigenvalue
    absu = np.abs(res.basis.values)
    assert np.all((absu == 0.0) | (absu == 1.0))
    assert np.all(absu.sum(axis=0) == 1.0) and np.all(absu.sum(axis=1) == 1.0)
    assert res.avg_diag.tolist() == [3.0, 2.0, 1.0]


def test_jd_permutation_equivariance():
    rng = derive_rng(3, "jd")
    mats, _ = _commuting_family(5, 6, rng)
    perm = np.array([3, 0, 4, 1, 2])
    permuted = [SymMatrix(m.values[np.ix_(perm, perm)]) for m in mats]
    r1 = joint_diagonalise(mats, tol=1e-12)
    r2 = joint_diagonalise(permuted, tol=1e-12)
    h1 = reconstruct_average(r1).values
    h2 = reconstruct_average(r2).values
    assert np.allclose(h1[np.ix_(perm, perm)], h2, atol=1e-8)


def test_jd_zero_diagonal_tree_matrices_converge():
    # adjacency matrices have all-zero diagonals: the rotation-angle branch
    # point (r + ton == 0) shows up here
    path = np.zeros((4, 4))
    for i in range(3):
        path[i, i + 1] = path[i + 1, i] = 1.0
    star = np.zeros((4, 4))
    for i in range(1, 4):
        star[0, i] = star[i, 0] = 1.0
    res = joint_diagonalise([SymMatrix(path), SymMatrix(star)], tol=1e-10, max_sweeps=300)
    hist = np.asarray(res.off2_history)
    assert np.all(np.diff(hist) <= 0)
    assert hist[-1] < hist[0]


def _brute_pair_entries(stack, u, pp, qq):
    """h0 = C[p,p] - C[q,q] and h1 = 2 C[p,q] of every C = U^T H U, as
    (pair, matrix) arrays, from the quadruple-loop projection."""
    c = np.array([brute_project(h, u) for h in stack])
    return (c[:, pp, pp] - c[:, qq, qq]).T, 2.0 * c[:, pp, qq].T


def _loop_matrices(weights, ends, n):
    """The sweep matrices K_j = sum_e W[j, e] S_e, entry by entry."""
    out = np.zeros((len(weights), n, n))
    for j, row in enumerate(weights):
        for w, a, b in zip(row, *ends):
            out[j, a, b] = out[j, b, a] = w
    return out


def _brute_angle_sums(stack, u, pp, qq):
    """The (pair, 2, 2) sums [[g00, g01], [g01, g11]] of h0 and h1 over a
    stack, from the quadruple-loop projection."""
    h = np.stack(_brute_pair_entries(stack, u, pp, qq), axis=1)
    return np.einsum("pim,pjm->pij", h, h)


@pytest.mark.parametrize("source", ["batch", "compressed-batch", "full-diagonal-stack"])
def test_pair_entries_match_the_projected_matrices(source):
    """Every round's angle sums, read from one product of the sweep
    weights with the complex view of the basis in that round's column
    order, are those of the entries of U^T K_j U for a random orthogonal
    U, and those of the inputs H_i themselves; n = 7 leaves one index
    unpaired."""
    rng = derive_rng(16, "jd-pairs")
    if source == "full-diagonal-stack":
        x = rng.standard_normal((6, 7, 7))
        x = x + x.transpose(0, 2, 1)
        dense = x
    else:
        x = sample_batch(_seven_node_graph(), 5 if source == "batch" else 200, seed=3)
        dense = x.matrices()
    incidence, ends, coef, n = jd_mod._incidence(x)
    assert _is_compressed(x) == (source == "compressed-batch")
    if source == "full-diagonal-stack":
        assert np.any(ends[0] == ends[1]) and np.array_equal(coef == 1.0, ends[0] == ends[1])
    weights = jd_mod._sweep_weights(incidence)
    sweep = _loop_matrices(weights, ends, n)
    if not _is_compressed(x):
        assert np.array_equal(sweep, dense)
    u = _random_orthogonal(n, rng)
    for order in jd_mod._round_layouts(n)[0]:
        pp, qq = order[0:6:2], order[1:6:2]
        z = np.ascontiguousarray(u[:, order])[:, :6].view(complex)
        got = jd_mod._angle_sums(weights, ends, coef, z)
        for stack in (sweep, dense):
            want = _brute_angle_sums(stack, u, pp, qq)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [7, 8])
def test_rotate_is_the_givens_update(n):
    """Each round's layout is a schedule of disjoint pairs p < q, p
    ascending, in adjacent columns, the unpaired index of an odd n last,
    and a sweep meets every unordered pair exactly once (and sits each
    index of an odd n out once).  The phase rotation of a round's complex
    view is the real Givens update of its pair columns, with the angle 0
    of an inactive pair and the quarter turn, and the other columns (the
    unpaired one at n = 7) keep their bits; the step to the next round's
    layout moves every column bit for bit, the last round's back to the
    first."""
    rng = derive_rng(18, "jd-rotate")
    orders, steps = jd_mod._round_layouts(n)
    paired = 2 * (n // 2)
    rounds = [(order[0:paired:2], order[1:paired:2]) for order in orders]
    assert len(orders) == len(steps) == n - 1 + n % 2
    for order, (pp, qq) in zip(orders, rounds):
        assert sorted(order.tolist()) == list(range(n))
        assert len(pp) == n // 2 and np.all(pp < qq) and np.all(np.diff(pp) > 0)
    met = sorted((int(p), int(q)) for pp, qq in rounds for p, q in zip(pp, qq))
    assert met == list(itertools.combinations(range(n), 2))
    if n % 2:
        # the index after the pairs is the unpaired one: each sits out once
        assert sorted(int(order[-1]) for order in orders) == list(range(n))
    for _ in range(5):
        u = _random_orthogonal(n, rng)
        laid = np.ascontiguousarray(u[:, orders[0]])
        for (pp, qq), order, step in zip(rounds, orders, steps):
            assert np.array_equal(laid, u[:, order])
            theta = rng.uniform(-np.pi / 4, np.pi / 4, len(pp))
            theta[0], theta[-1] = 0.0, np.pi / 4
            jd_mod._rotate(laid[:, :paired].view(complex), theta)
            got = np.empty_like(u)
            got[:, order] = laid
            c, s = np.cos(theta), np.sin(theta)
            want = u.copy()
            want[:, pp], want[:, qq] = c * u[:, pp] + s * u[:, qq], c * u[:, qq] - s * u[:, pp]
            assert np.abs(got - want).max() <= 1e-15 * np.linalg.norm(u)
            rest = order[paired:]
            assert np.array_equal(got[:, rest], u[:, rest])
            assert np.array_equal(got[:, pp[0]], u[:, pp[0]]) and np.array_equal(got[:, qq[0]], u[:, qq[0]])
            assert np.abs(got.T @ got - np.eye(n)).max() <= 1e-14
            u = got
            laid = np.take(laid, step, axis=1)
        assert np.array_equal(laid, u[:, orders[0]])


@pytest.mark.parametrize(
    "limits, message",
    [
        ({"tol": 0.0}, "tol must be positive"),
        ({"tol": -1e-9}, "tol must be positive"),
        ({"tol": math.nan}, "tol must be positive"),
        ({"tol": math.inf}, "tol must be positive and finite"),
        ({"max_sweeps": -1}, "max_sweeps must be nonnegative"),
    ],
    ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf", "max-sweeps-negative"],
)
def test_jd_rejects_malformed_limits(limits, message):
    """A tol that is not positive (NaN included) would run every sweep
    and report a failure to converge, an infinite one report convergence
    after one sweep, and a negative sweep count no sweep at all; all are
    rejected before any work."""
    mats = [SymMatrix.symmetrised(m) for m in derive_rng(19, "jd-limits").standard_normal((3, 4, 4))]
    with pytest.raises(ValueError, match=message):
        joint_diagonalise(mats, **limits)


def test_jd_runs_are_deterministic():
    """Two runs on the same input agree bit for bit: on a dense stack, on a
    short one, on the Gram eigenmatrices of a batch, and on inputs that
    are all zero, which have no sweep weights at all."""
    rng = derive_rng(12, "jd-threads")
    stack = rng.standard_normal((37, 9, 9))
    stack = stack + stack.transpose(0, 2, 1)
    batch = sample_batch(_seven_node_graph(), 200, seed=5)
    inputs = (stack, stack[:5], batch, np.zeros((4, 6, 6)))
    firsts = [joint_diagonalise(x, tol=1e-12) for x in inputs]
    assert firsts[3].converged and np.array_equal(firsts[3].deviations, np.zeros(4))
    assert len(_sweep_stack(inputs[3])) == 0
    for again, first in zip([joint_diagonalise(x, tol=1e-12) for x in inputs], firsts):
        assert np.array_equal(again.basis.values, first.basis.values)
        assert np.array_equal(again.deviations, first.deviations)
        assert np.array_equal(again.off2_history, first.off2_history)
        assert np.array_equal(again.avg_diag, first.avg_diag)
        assert again.converged == first.converged


@pytest.mark.parametrize("max_sweeps", [3, 100])
def test_jd_lone_runs_stop_as_their_inputs_ask(max_sweeps):
    """A Gram-side and a dense-side batch, a diagonal stack that stops in
    its first sweep, a dense stack that runs out of sweeps at
    max_sweeps = 3, and all-zero matrices with no sweep weights (r = 0),
    all at the odd n = 7 where one column sits out every round."""
    rng = derive_rng(19, "jd-sets")
    dense = rng.standard_normal((9, 7, 7))
    dense = dense + dense.transpose(0, 2, 1)
    inputs = [
        sample_batch(_seven_node_graph(), 200, seed=7),
        sample_batch(_seven_node_graph(), 5, seed=8),
        np.stack([np.diag(rng.standard_normal(7)) for _ in range(4)]),
        dense,
        np.zeros((4, 7, 7)),
    ]
    assert _is_compressed(inputs[0]) and not _is_compressed(inputs[1])
    assert len(_sweep_stack(inputs[4])) == 0
    got = [joint_diagonalise(x, tol=1e-12, max_sweeps=max_sweeps) for x in inputs]
    # the diagonal stack records no sweep after its warm start
    assert got[2].converged and len(got[2].off2_history) == 2
    assert got[4].converged
    if max_sweeps == 3:
        assert not got[3].converged and len(got[3].off2_history) == 5
    else:
        assert all(res.converged for res in got)


def test_jd_temporaries_stay_near_the_sweep_weights():
    """On the dense side (E >= M) the float sweep weights are the one
    whole-batch array a diagonalisation holds; the round products, the
    off2 chunks and the readout stay small beside them, so the traced
    peak of a call, less its input, stays under 2.4 times their bytes
    (about 1.7 here; projecting n matrices per off2 chunk and casting the
    incidence again for the readout read about 3)."""
    net = gen_random_contacts(60, 0.05, 300, seed=0)
    batch = sample_batch(net, 200, seed=1)
    incidence = jd_mod._incidence(batch)[0]
    assert incidence.shape[1] >= incidence.shape[0]
    weight_bytes = incidence.size * 8
    del incidence
    # a first call loads what numpy loads lazily, outside the count
    joint_diagonalise(sample_batch(net, 5, seed=2), tol=1e-2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        joint_diagonalise(batch, tol=1e-2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * weight_bytes, peak / weight_bytes


def test_jd_sweeps_match_the_reference_stack():
    """Tree matrices have an exact mean, so on the uncompressed side the
    coordinate sweeps take the steps of the reference sweeps over the
    rotated (samples, n, n) stack, up to the round-off of reading the
    pair entries from coordinates instead of a rotated stack."""
    rng = derive_rng(17, "jd-layout")
    samples = []
    for _ in range(24):
        order = rng.permutation(12)
        parent = {int(order[i]): int(order[rng.integers(i)]) for i in range(1, 12)}
        samples.append(TreeSample(root=int(order[0]), start_time=0.0, parent=parent))
    batch = SampleBatch(tuple(samples), n_nodes=12, seed=0)
    assert len(_sweep_stack(batch)) == 24  # E >= M: the trees themselves are swept
    want = reference_joint_diagonalise(batch.matrices(), tol=1e-12)
    got = joint_diagonalise(batch, tol=1e-12)
    assert len(got.off2_history) == len(want.off2_history)
    assert np.abs(got.off2_history - want.off2_history).max() <= 1e-12 * want.off2_history[0]
    assert np.abs(got.basis.values - want.basis.values).max() <= 1e-12
    fro2 = (batch.matrices() ** 2).sum(axis=(1, 2))
    assert np.abs(got.deviations - want.deviations).max() <= 1e-12 * fro2.max()


# ---------------------------------------------------------------------------
# Coordinates and Gram compression: inputs that use fewer distinct
# upper-triangle entries than there are matrices


def _random_tree(draw, n):
    """A tree on a random subset of the n nodes (a lone root included),
    each node hung from an earlier one in a random order."""
    order = draw(st.permutations(range(n)))
    size = draw(st.integers(1, n))
    parent = {order[i]: order[draw(st.integers(0, i - 1))] for i in range(1, size)}
    return TreeSample(root=order[0], start_time=0.0, parent=parent, partial=size < n)


@st.composite
def _tree_batches(draw, max_nodes=7):
    """Batches drawn with repetition from a small pool of trees, so most
    use fewer distinct edges than they hold trees and their edge Gram is
    singular; root-only and partial trees occur."""
    n = draw(st.integers(2, max_nodes))
    pool = [_random_tree(draw, n) for _ in range(draw(st.integers(1, 6)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return SampleBatch(tuple(pool[i] for i in picks), n_nodes=n, seed=0)


def _seven_node_graph():
    return StaticGraph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 4), (3, 4), (3, 5), (4, 5), (5, 6)])


def _distinct_edges(batch):
    return len({frozenset(e) for s in batch.samples for e in s.parent.items()})


def _sweep_set(x):
    """(sweep weights, ends, n, sweep matrices) of an input."""
    incidence, ends, _, n = jd_mod._incidence(x)
    weights = jd_mod._sweep_weights(incidence)
    return weights, ends, n, jd_mod._matrices(weights, ends, n)


def _sweep_stack(x):
    """The sweep weights of an input, scattered into dense matrices."""
    return _sweep_set(x)[3]


def _is_compressed(x):
    incidence = jd_mod._incidence(x)[0]
    return incidence.shape[1] < incidence.shape[0]


def _path_and_star(trees):
    # a path 0-1-2-3-4-5 and the star around node 0 share one edge: 9 edges
    path = TreeSample(root=0, start_time=0.0, parent={i + 1: i for i in range(5)})
    star = TreeSample(root=0, start_time=0.0, parent={i: 0 for i in range(1, 6)})
    return SampleBatch((path, star) + (path,) * (trees - 2), n_nodes=6, seed=0)


def _assert_matches_dense(batch, in_tree_order=True, drawn=False):
    """The batch's result against the oracle swept on the dense stack.
    With ``in_tree_order`` false only the multiset of deviations is
    compared (see the mirror-symmetric test below).  With ``drawn`` the
    deviations are held to the reach of the stopping rule (see the drawn
    batches below)."""
    got = joint_diagonalise(batch)
    want = reference_joint_diagonalise(batch.matrices())
    two_e = np.array([2.0 * s.n_edges for s in batch.samples])
    off2_0 = want.off2_history[0]
    assert len(got.off2_history) == len(want.off2_history)
    assert np.abs(got.off2_history - want.off2_history).max() <= 1e-9 * max(off2_0, 1.0)
    assert np.all(np.diff(got.off2_history) <= 0.0)
    assert abs(got.deviations.sum() - want.deviations.sum()) <= 1e-9 * max(off2_0, 1.0)
    dev_got, dev_want = got.deviations, want.deviations
    if not in_tree_order:
        dev_got, dev_want = np.sort(dev_got), np.sort(dev_want)
    # the default tol of both sweeps is 1e-9
    bound = np.sqrt(1e-9 * off2_0) if drawn else 1e-10 * np.maximum(two_e, 1.0).max()
    assert np.abs(dev_got - dev_want).max() <= bound
    assert np.all((got.deviations >= 0.0) & (got.deviations <= two_e))
    assert np.abs(got.avg_diag - want.avg_diag).max() <= 1e-12
    assert got.converged == want.converged
    return got


@given(_tree_batches())
@example(_path_and_star(10))
@example(_path_and_star(9))
# one tree: the warm start leaves off2 at 1.4e-30, and the rotations that
# remain gain less than the round-off of the input's norm, so none applies
@example(SampleBatch((TreeSample(root=0, start_time=0.0, parent={1: 0, 2: 0, 3: 1, 4: 0, 5: 2, 6: 4}),),
                     n_nodes=7, seed=0))
# a degenerate minimum: off2 goes 4.00000048 -> 4.00000001 -> 4.0, and the
# sweeps and the oracle stop at bases that split those 4.0 among the trees
# 3 x 0.66666371 + 2.00000887 and 3 x 0.66667173 + 1.99998481
@example(SampleBatch((TreeSample(root=0, start_time=0.0, parent={4: 0}, partial=True),) * 3
                     + (TreeSample(root=1, start_time=0.0, parent={4: 1, 2: 4, 3: 4}, partial=True),),
                     n_nodes=7, seed=0))
# a degenerate minimum: after 7 sweeps three trust-region steps take off2
# from 2.0000091 to 2.00000007, each gaining 0.2 of the one before, and
# hand the set back to the sweeps (see the test below)
@example(SampleBatch((TreeSample(root=3, start_time=0.0, parent={1: 3}, partial=True),
                      TreeSample(root=1, start_time=0.0, parent={0: 1, 2: 1, 5: 1}, partial=True)),
                     n_nodes=7, seed=0))
# a saddle: two edges at node 0 stop the sweeps at off2 2.0; after the step
# off it the next sweep gains 0.51 against the step's 0.037, which is no
# crawl (trust-region steps there left the two 5e-8 apart in avg_diag)
@example(SampleBatch((TreeSample(root=0, start_time=0.0, parent={3: 0}, partial=True),
                      TreeSample(root=0, start_time=0.0, parent={2: 0}, partial=True)),
                     n_nodes=5, seed=0))
# a saddle: after the step off it a pair's optimal turn is +-pi/4 with a
# coupling of round-off, whose sign sent the library and the oracle to
# minima of the same off2 0.26 apart in avg_diag
@example(SampleBatch((TreeSample(root=0, start_time=0.0, parent={3: 0, 2: 0}, partial=True),)
                     + (TreeSample(root=0, start_time=0.0, parent={1: 0}, partial=True),) * 2,
                     n_nodes=4, seed=0))
@settings(max_examples=150, deadline=None)
def test_jd_gram_path_matches_dense(batch):
    """On drawn batches the history, avg_diag and the summed deviations
    match the oracle, but the deviations of single trees only to
    sqrt(tol * off2_0): where the minimum is flat, the sweeps stop once a
    sweep gains less than tol * off2_0, and an off2 excess that small is
    quadratic in the distance to the minimum while each tree's deviation
    is linear in it."""
    assert jd_mod._incidence(batch)[0].shape == (len(batch), _distinct_edges(batch))
    # small drawn batches can be mirror-symmetric, as below
    _assert_matches_dense(batch, in_tree_order=False, drawn=True)


def test_jd_gram_path_on_a_mirror_symmetric_batch():
    """Swapping nodes 1 and 2 swaps the two trees of this batch, so the
    off2 objective has two mirror-image minimisers that give the trees
    each other's deviations, and round-off decides which one the sweeps
    approach.  The history, avg_diag and the multiset of deviations are
    the same for both."""
    lone = TreeSample(root=0, start_time=0.0, parent={}, partial=True)
    star = TreeSample(root=2, start_time=0.0, parent={0: 2, 1: 2})
    path = TreeSample(root=0, start_time=0.0, parent={1: 0, 2: 1})
    batch = SampleBatch((lone,) * 4 + (star, path), n_nodes=3, seed=0)
    assert _is_compressed(batch)
    _assert_matches_dense(batch, in_tree_order=False)


def test_jd_gram_path_matches_dense_tree_by_tree():
    # BFS trees of a static graph and flooding trees of a short trace (the
    # late floods are partial), with far more trees than distinct edges
    a, b = zip(*[(0, 1), (1, 2), (2, 3), (0, 4), (3, 4), (1, 4), (2, 5), (0, 1), (4, 5)] * 3)
    t = np.arange(len(a), dtype=float)
    net = TemporalNetwork(n_nodes=6, a=a, b=b, start=t, end=t, granularity=1.0)
    floods = sample_batch(net, 300, seed=2)
    assert any(s.partial for s in floods.samples)
    for batch in (sample_batch(_seven_node_graph(), 300, seed=1), floods):
        assert _is_compressed(batch)
        _assert_matches_dense(batch)


def test_jd_gram_stack_carries_the_dense_mean_and_norms():
    batch = sample_batch(_seven_node_graph(), 60, seed=4)
    dense = batch.matrices()
    incidence, ends, coef, n = jd_mod._incidence(batch)
    assert incidence.dtype == bool and incidence.shape == (60, _distinct_edges(batch))
    assert np.all(ends[0] < ends[1]) and np.array_equal(coef, np.full(incidence.shape[1], 2.0))
    # the coordinates are the tree matrices' upper-triangle entries, so
    # their column sums give the dense mean bit for bit
    assert np.array_equal(incidence, dense[:, ends[0], ends[1]] == 1.0)
    assert np.array_equal(incidence.sum(axis=0) / 60, dense.mean(axis=0)[ends])
    stack = jd_mod._matrices(jd_mod._sweep_weights(incidence), ends, n)
    assert len(stack) <= incidence.shape[1]
    # every quadratic quantity of the sweeps: sum_j K_j (x) K_j = sum_i H_i (x) H_i
    assert np.allclose(np.einsum("jab,jcd->abcd", stack, stack), np.einsum("iab,icd->abcd", dense, dense),
                       atol=1e-12)
    # with as many coordinates as matrices the sweeps read the matrices;
    # with one matrix more, the rank-two Gram of the two distinct trees
    assert np.array_equal(_sweep_stack(_path_and_star(9)), _path_and_star(9).matrices())
    assert len(_sweep_stack(_path_and_star(10))) == 2


def test_jd_repeated_tree_has_zero_deviations():
    tree = TreeSample(root=0, start_time=0.0, parent={1: 0, 2: 1, 3: 1, 4: 3})
    batch = SampleBatch((tree,) * 9, n_nodes=5, seed=0)
    assert len(_sweep_stack(batch)) == 1  # the Gram 9 * ones(4, 4) has rank one
    res = _assert_matches_dense(batch)
    assert np.all(res.deviations >= 0.0)
    assert res.deviations.max() <= 1e-12


@pytest.mark.parametrize("trees", [10, 9], ids=["edges-one-below-trees", "edges-equal-trees"])
def test_jd_path_switches_where_edges_reach_trees(trees):
    batch = _path_and_star(trees)
    assert _distinct_edges(batch) == 9
    if trees > 9:
        assert _is_compressed(batch)
        _assert_matches_dense(batch)
        return
    # with as many edges as trees the tree matrices are swept, bit for bit
    assert not _is_compressed(batch)
    got, want = joint_diagonalise(batch), joint_diagonalise(batch.matrices())
    for field in ("avg_diag", "deviations", "off2_history"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert np.array_equal(got.basis.values, want.basis.values)


@given(_tree_batches())
@settings(max_examples=150, deadline=None)
def test_jd_batch_and_its_matrices_agree_bit_for_bit(batch):
    got, want = joint_diagonalise(batch), joint_diagonalise(batch.matrices())
    for field in ("avg_diag", "deviations", "off2_history"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert np.array_equal(got.basis.values, want.basis.values)
    assert got.converged == want.converged


@pytest.mark.parametrize("m_count, n", [(40, 5), (6, 7)], ids=["compressed", "matrices-swept"])
def test_jd_generic_stack_matches_dense(m_count, n):
    # a generic stack with a full diagonal: E = n (n + 1) / 2 coordinates,
    # 15 < 40 for the first case, 28 >= 6 for the second
    stack = derive_rng(13, "jd-generic").standard_normal((m_count, n, n))
    stack = stack + stack.transpose(0, 2, 1)
    assert _is_compressed(stack) == (m_count == 40)
    got, want = joint_diagonalise(stack), reference_joint_diagonalise(stack)
    assert len(got.off2_history) == len(want.off2_history)
    assert np.abs(got.off2_history - want.off2_history).max() <= 1e-9 * want.off2_history[0]
    fro2 = (stack * stack).sum(axis=(1, 2))
    assert np.abs(got.deviations - want.deviations).max() <= 1e-10 * fro2.max()
    assert np.abs(got.avg_diag - want.avg_diag).max() <= 1e-12 * np.abs(want.avg_diag).max()
    assert got.converged == want.converged


# ---------------------------------------------------------------------------
# Row chunks: the Gram and the readout never cast a whole incidence


@pytest.fixture(scope="module")
def many_trees():
    """3,000 flooding trees on 24 nodes that use 273 distinct edges, so the
    Gram side reads their incidence in four row chunks."""
    net = gen_random_contacts(24, 0.05, 100, seed=0)
    return net, sample_batch(net, 3000, seed=1)


def _one_chunk(monkeypatch):
    """Make every batch one row chunk, as a one-shot product reads it."""
    monkeypatch.setattr(jd_mod, "_CHUNK_FLOOR", 10**9)


def test_jd_gram_side_holds_no_float_copy_of_the_incidence(many_trees):
    """On the Gram side (E < M) the Gram and the readout cast the bool
    incidence a row chunk at a time, so the traced peak of a call stays
    below the bytes of one float copy of its M x E incidence (about 0.57 of
    it here, set by the batch's edge index arrays; 1.41 when both cast the
    whole incidence)."""
    net, batch = many_trees
    m_count, e = jd_mod._incidence(batch)[0].shape
    assert e < m_count
    # a first call loads what numpy loads lazily, outside the count
    joint_diagonalise(sample_batch(net, 5, seed=2), tol=1e-2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        joint_diagonalise(batch, tol=1e-2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < m_count * e * 8, peak / (m_count * e * 8)


def test_jd_result_does_not_depend_on_the_row_chunks(many_trees, monkeypatch):
    """A tree batch read in four row chunks gives the result of one chunk
    bit for bit: its Gram is integer counts and its readout chunks hold at
    least _CHUNK_FLOOR rows."""
    batch = many_trees[1]
    assert len(jd_mod._chunks(*jd_mod._incidence(batch)[0].shape)) == 4
    got = joint_diagonalise(batch, tol=1e-2)
    _one_chunk(monkeypatch)
    want = joint_diagonalise(batch, tol=1e-2)
    for field in ("avg_diag", "deviations", "off2_history"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert np.array_equal(got.basis.values, want.basis.values)
    assert (got.converged, got.sweeps, got.polish_steps) == (want.converged, want.sweeps, want.polish_steps)


@pytest.mark.parametrize("e, n", [(200, 20), (600, 35)])
@pytest.mark.parametrize("rows", ["c-1", "c", "c+1", "2c+1"])
def test_row_chunks_match_one_shot_products_bit_for_bit(rows, e, n):
    """For M around the row-chunk size c = max(512, 2^18 // E) (1,310 and
    512 here), the chunks tile the M rows, each of at least _CHUNK_FLOOR
    rows once M allows it; the Gram of a 0/1 incidence equals the one-shot
    float product, and the readout's diagonals and deviations equal a
    one-shot readout, bit for bit."""
    c = max(jd_mod._CHUNK_FLOOR, jd_mod._CHUNK_ENTRIES // e)
    m_count = {"c-1": c - 1, "c": c, "c+1": c + 1, "2c+1": 2 * c + 1}[rows]
    chunks = jd_mod._chunks(m_count, e)
    assert [start for start, _ in chunks] == [0] + [stop for _, stop in chunks[:-1]]
    assert chunks[-1][1] == m_count
    sizes = [stop - start for start, stop in chunks]
    assert min(sizes) >= min(m_count, jd_mod._CHUNK_FLOOR) and max(sizes) < max(c + 1, 2 * jd_mod._CHUNK_FLOOR)
    assert (len(chunks) > 1) == (m_count >= 2 * jd_mod._CHUNK_FLOOR and m_count > c)

    rng = derive_rng(32, "jd-chunks", e, m_count)
    incidence = rng.random((m_count, e)) < 0.1
    one_shot = incidence.astype(float)
    assert np.array_equal(jd_mod._gram(incidence), one_shot.T @ one_shot)

    flat = np.sort(rng.choice(np.flatnonzero(np.triu(np.ones((n, n), dtype=bool))), e, replace=False))
    ends = np.divmod(flat, n)
    coef = np.where(ends[0] == ends[1], 1.0, 2.0)
    fro2 = np.einsum("ie,ie,e->i", incidence, incidence, coef)
    u = _random_orthogonal(n, rng)
    g = u[ends[0]]
    g *= coef[:, None]
    g *= u[ends[1]]
    diags = one_shot @ g
    deviations = np.clip(fro2 - (diags * diags).sum(axis=1), 0.0, fro2)
    got_diags, got_deviations = jd_mod._sample_diagonals(incidence, ends, coef, fro2, u)
    assert np.array_equal(got_diags, diags)
    assert np.array_equal(got_deviations, deviations)


def test_float_stack_moves_only_in_the_last_bits_with_the_row_chunks(monkeypatch):
    """A Gram-side stack of general matrices (1,025 of them, E = 528, two
    row chunks) is not 0/1: its chunked Gram sums rounded products in
    another order than the one-shot product, so it may differ in the last
    bits.  Held to 16 eps of |B|^T |B| entry by entry (measured 4.7 eps),
    and the diagonalisation to 1e-13 of off2_0 in its history and 1e-12 in
    its basis, deviations and average diagonal (measured 1e-15, 3e-14,
    4e-15 and 3e-14)."""
    stack = derive_rng(31, "jd-float-chunks").standard_normal((1025, 32, 32))
    stack = stack + stack.transpose(0, 2, 1)
    incidence = jd_mod._incidence(stack)[0]
    assert incidence.shape == (1025, 528) and len(jd_mod._chunks(*incidence.shape)) == 2
    gram = jd_mod._gram(incidence)
    bound = np.abs(incidence).T @ np.abs(incidence)
    assert np.all(np.abs(gram - incidence.T @ incidence) <= 16 * np.finfo(float).eps * bound)

    got = joint_diagonalise(stack, tol=1e-2, max_sweeps=3)
    _one_chunk(monkeypatch)
    want = joint_diagonalise(stack, tol=1e-2, max_sweeps=3)
    assert len(got.off2_history) == len(want.off2_history)
    assert np.abs(got.off2_history - want.off2_history).max() <= 1e-13 * want.off2_history[0]
    assert np.abs(got.basis.values - want.basis.values).max() <= 1e-12
    fro2 = (stack * stack).sum(axis=(1, 2))
    assert np.abs(got.deviations - want.deviations).max() <= 1e-12 * fro2.max()
    assert np.abs(got.avg_diag - want.avg_diag).max() <= 1e-12 * np.abs(want.avg_diag).max()


# ---------------------------------------------------------------------------
# The trust-region finish: gradient, Hessian product, steps and curvature


def _skew(n, rng):
    """A random skew matrix of unit Frobenius norm."""
    a = rng.standard_normal((n, n))
    return (a - a.T) / np.linalg.norm(a - a.T)


@pytest.mark.parametrize("source", ["batch", "stack"])
def test_gradient_and_hessian_product_match_differences_and_commutators(source):
    """Along U e^{tX} the total off2 of the sweep matrices has derivative
    <G, X> and second derivative <X, H[X]>: central differences agree to
    1e-6 relative.  G and the product built from the P and Q slices equal
    the oracle's entry-wise gradient and batched commutators on the
    rotated stack to round-off, the product is skew to the last bit and
    symmetric as a bilinear form, and the retraction is expm."""
    rng = derive_rng(23, "jd-second-order")
    if source == "batch":
        x_in = sample_batch(_seven_node_graph(), 60, seed=3)
    else:
        x_in = rng.standard_normal((9, 6, 6))
        x_in = x_in + x_in.transpose(0, 2, 1)
    weights, ends, n, stack = _sweep_set(x_in)
    u = _random_orthogonal(n, rng)
    f, g, hessian = jd_mod._second_order(weights, ends, u)
    c = np.einsum("ki,mkl,lj->mij", u, stack, u)
    assert f == jd_mod._off2_total(weights, ends, u)
    assert np.array_equal(g, -g.T)
    assert np.abs(g - reference_gradient(c)).max() <= 1e-13 * np.abs(g).max()

    def off2_along(x, t):
        return jd_mod._off2_total(weights, ends, u @ scipy.linalg.expm(t * x))

    for _ in range(3):
        x, y = _skew(n, rng), _skew(n, rng)
        hx = jd_mod._hessian_product(x, *hessian)
        want = reference_hessian_product(c, x)
        assert np.array_equal(hx, -hx.T)
        assert np.abs(hx - want).max() <= 1e-13 * np.abs(want).max()
        hy = jd_mod._hessian_product(y, *hessian)
        assert abs(np.vdot(y, hx) - np.vdot(x, hy)) <= 1e-12 * np.abs(hx).max() * np.abs(y).sum()
        assert np.abs(jd_mod._expm_skew(x) - scipy.linalg.expm(x)).max() <= 1e-12
        h = 1e-4
        slope = (off2_along(x, h) - off2_along(x, -h)) / (2.0 * h)
        assert abs(slope - np.vdot(g, x)) <= 1e-6 * abs(np.vdot(g, x))
        curvature = (off2_along(x, h) - 2.0 * f + off2_along(x, -h)) / h**2
        assert abs(curvature - np.vdot(x, hx)) <= 1e-6 * abs(np.vdot(x, hx))


def test_every_kept_trust_region_step_lowers_off2(monkeypatch):
    """Trust-region steps whose trial basis does not lower off2 are
    dropped; each kept one adds its off2, below the one before, to the
    history and counts against max_sweeps."""
    trials = []
    original = jd_mod._second_order

    def record(*args):
        out = original(*args)
        trials.append(out[0])
        return out

    monkeypatch.setattr(jd_mod, "_second_order", record)
    batch = sample_batch(gen_random_contacts(12, 0.2, 60, seed=2), 80, seed=2)
    res = joint_diagonalise(batch, tol=1e-12)
    # trials[0] is the basis the sweeps handed over; a trial is kept
    # exactly when it lies below the last kept off2
    kept, dropped = [trials[0]], []
    for f in trials[1:]:
        (kept if f < kept[-1] else dropped).append(f)
    assert res.converged and res.polish_steps == len(kept) - 1 > 0 and dropped
    assert kept == list(res.off2_history[-res.polish_steps - 1 :])
    # the budget counts sweeps and kept steps together
    capped = joint_diagonalise(batch, tol=1e-12, max_sweeps=res.sweeps + 2)
    assert not capped.converged and capped.polish_steps == 2
    assert np.array_equal(capped.off2_history, res.off2_history[: len(capped.off2_history)])


@pytest.mark.parametrize("seed", [100, 101])
def test_tol_1e2_runs_take_no_trust_region_step(seed):
    """A small stand-in for the benchmark's tol 1e-2 decompositions: every
    diagonalisation stops on the tol rule before a sweep gains 0.8 of the
    one before, so none is handed to the trust region; at tol 1e-6 the
    same overall one is finished by it."""
    net = gen_switching(default_switching_schedule(n_nodes=20, segment_steps=200), seed=0).network
    batch = sample_batch(net, 500, seed=seed)
    report = decompose(batch, k_max=8, seed=seed, tol=1e-2)
    results = [report.overall_result] + [m.result for m in report.modes if m.result is not None]
    assert len(results) > 2
    assert all(r.converged and r.polish_steps == 0 for r in results)
    assert all(len(r.off2_history) == 2 + r.sweeps for r in results)
    finished = joint_diagonalise(batch, tol=1e-6)
    assert finished.converged and finished.polish_steps > 0
    assert len(finished.off2_history) == 2 + finished.sweeps + finished.polish_steps


def _hessian_spectrum(matrices, basis):
    """Eigenvalues of the Hessian of the total off2 at the basis, built
    column by column from the oracle's commutator products on the
    generators e_p e_q^T - e_q e_p^T, p < q."""
    return np.linalg.eigvalsh(reference_hessian(np.einsum("ki,mkl,lj->mij", basis, matrices, basis)))


def _saddle_batch():
    """A path 1-0-3 with 2 hung from 1 and the lone edge 0-3: the sweeps
    stop at off2 1.1716 with no rotation left to gain, where the Hessian's
    smallest eigenvalue is -0.073 against a largest of 22.7."""
    path = TreeSample(root=0, start_time=0.0, parent={1: 0, 2: 1, 3: 0})
    edge = TreeSample(root=0, start_time=0.0, parent={3: 0}, partial=True)
    return SampleBatch((path, edge), n_nodes=4, seed=0)


@given(_tree_batches(max_nodes=8))
@example(_saddle_batch())
@settings(max_examples=100, deadline=None)
def test_converged_basis_is_no_saddle(batch):
    """At tol 1e-12 a diagonalisation that reports convergence stops at a
    local minimum: the Hessian of off2 there has no eigenvalue below
    -1e-8 times its largest."""
    res = joint_diagonalise(batch, tol=1e-12)
    if not res.converged or batch.n_nodes < 2:
        return
    lam = _hessian_spectrum(batch.matrices(), res.basis.values)
    assert lam[0] >= -1e-8 * max(lam[-1], 1e-12 * res.off2_history[0]), (lam[0], lam[-1])


def test_a_saddle_the_sweeps_stop_at_is_left_along_its_negative_curvature():
    """On the saddle batch the second sweep rotates nothing.  The set then
    steps off along the Hessian's leftmost eigenvector, a kept step that
    lowers off2, and sweeps on to a minimum; the oracle, which reads that
    eigenvector from the dense Hessian, takes the same steps."""
    batch = _saddle_batch()
    got = joint_diagonalise(batch)
    stuck = joint_diagonalise(batch, max_sweeps=2)
    assert not stuck.converged and stuck.sweeps == 2 and stuck.polish_steps == 0
    assert got.converged and got.polish_steps > 0
    assert got.off2_history[3] < stuck.off2_history[-1] == got.off2_history[2]
    # the warm start's entry, none for the sweep that rotated nothing
    assert len(got.off2_history) == 1 + got.sweeps + got.polish_steps
    assert np.linalg.eigvalsh(reference_hessian(np.einsum(
        "ki,mkl,lj->mij", got.basis.values, batch.matrices(), got.basis.values)))[0] > 0.0
    want = reference_joint_diagonalise(batch.matrices())
    assert (got.sweeps, got.polish_steps, got.converged) == (want.sweeps, want.polish_steps, want.converged)
    assert np.abs(got.off2_history - want.off2_history).max() <= 1e-12 * got.off2_history[0]
    assert np.abs(got.avg_diag - want.avg_diag).max() <= 1e-12


@pytest.mark.parametrize("n", [4, 11, 12, 20])
def test_leftmost_curvature_matches_the_dense_hessian(n):
    """_leftmost's Ritz pair at a random basis: the Ritz vector is a unit
    skew matrix whose curvature is the Ritz value, and that is the dense
    Hessian's smallest eigenvalue once the Lanczos steps span the skew
    space (n <= 11) and never lies below it."""
    rng = derive_rng(33, "jd-leftmost", n)
    stack = rng.standard_normal((6, n, n))
    stack = stack + stack.transpose(0, 2, 1)
    u = _random_orthogonal(n, rng)
    weights, ends, _, _ = _sweep_set(stack)
    hessian = jd_mod._second_order(weights, ends, u)[2]
    lam, v = jd_mod._leftmost(hessian, n)
    assert np.abs(v + v.T).max() <= 1e-15 and abs(float(np.vdot(v, v)) - 1.0) <= 1e-12
    assert abs(float(np.vdot(v, jd_mod._hessian_product(v, *hessian))) - lam) <= 1e-10 * abs(lam)
    dense = np.linalg.eigvalsh(reference_hessian(np.einsum("ki,mkl,lj->mij", u, _sweep_stack(stack), u)))
    scale = np.abs(dense).max()
    if n * (n - 1) // 2 <= jd_mod._LANCZOS_STEPS:
        assert abs(lam - dense[0]) <= 1e-10 * scale
    else:
        assert lam >= dense[0] - 1e-10 * scale


def test_degenerate_minimum_goes_back_to_the_sweeps():
    """Two partial trees whose off2 has a quartic valley at its minimum:
    Newton steps along it gain a fixed share of the one before and divide
    the gradient's round-off by a curvature that vanishes there, so the
    trust region hands the set back after its third step and a sweep
    finishes it.  Four orders of the same trees then agree in avg_diag
    to 1.4e-13; Newton steps to the tol rule left them 1.8e-12 apart."""
    lone = TreeSample(root=3, start_time=0.0, parent={1: 3}, partial=True)
    star = TreeSample(root=1, start_time=0.0, parent={0: 1, 2: 1, 5: 1}, partial=True)
    results = [joint_diagonalise(SampleBatch(trees, n_nodes=7, seed=0)) for trees in
               [(lone, star), (star, lone), (lone, star, lone, star), (lone, lone, star, star)]]
    res = results[0]
    assert res.converged and res.polish_steps == 3 and res.sweeps == 8
    gains = -np.diff(res.off2_history)
    # the three kept steps, then the sweep that meets the tol rule
    assert np.all(gains[-3:-1] >= jd_mod._LINEAR * gains[-4:-2]) and gains[-1] < 1e-9 * res.off2_history[0]
    for other in results[1:]:
        assert np.abs(other.avg_diag - res.avg_diag).max() <= 5e-13


def test_jd_unconverged_flag_and_force():
    rng = derive_rng(4, "jd")
    mats = [SymMatrix.symmetrised(rng.standard_normal((6, 6))) for _ in range(5)]
    res = joint_diagonalise(mats, tol=1e-16, max_sweeps=1)
    assert not res.converged
    with pytest.raises(ConvergenceError):
        reconstruct_average(res)
    forced = reconstruct_average(res, force=True)
    assert forced.n == 6


def test_jd_input_validation():
    with pytest.raises(ValueError):
        joint_diagonalise([])
    with pytest.raises(ValueError):
        joint_diagonalise([SymMatrix.zeros(3), SymMatrix.zeros(4)])


def test_jd_rejects_overflowing_input():
    # finite entries whose squares overflow: a data error, never a
    # converged result with inf deviations
    rng = derive_rng(8, "jd")
    a = rng.standard_normal((5, 6, 6))
    a = a + a.transpose(0, 2, 1)
    with pytest.raises(ValueError, match="overflow"):
        joint_diagonalise(a * 1e200)
    # and before the Gram of a compressible stack (E = 6 < M = 30) is formed
    b = rng.standard_normal((30, 3, 3))
    b = b + b.transpose(0, 2, 1)
    assert _is_compressed(b)
    with pytest.raises(ValueError, match="overflow"):
        joint_diagonalise(b * 1e200)


def test_jd_rejects_underflowing_input():
    # every square underflows: the sweeps would see an all-zero stack and
    # report convergence with zero deviations
    a = derive_rng(14, "jd").standard_normal((30, 3, 3))
    a = a + a.transpose(0, 2, 1)
    with pytest.raises(ValueError, match="underflow; rescale the matrices"):
        joint_diagonalise(a * 1e-170)
    # an all-zero matrix next to ordinary ones is fine
    assert joint_diagonalise(np.concatenate([a, np.zeros((1, 3, 3))])).converged


def test_jd_rejects_asymmetric_matrices():
    # only the upper triangle is read, so an asymmetric matrix is an error,
    # at the SymMatrix tolerance of 1e-9 * max(1, max |a|)
    a = derive_rng(15, "jd").standard_normal((4, 5, 5))
    a = a + a.transpose(0, 2, 1)
    a[2, 3, 1] += 1e-6
    for bad in (a, list(a)):
        with pytest.raises(ValueError, match="not symmetric"):
            joint_diagonalise(bad)
    a[2, 3, 1] = a[2, 1, 3] * (1 + 1e-12)
    assert joint_diagonalise(a).n == 5


def test_jd_non_finite_angle_sums_fail(monkeypatch):
    # a NaN in one round's angle sums makes that round look inactive; it
    # must raise, never end the sweeps as converged
    angle_sums = jd_mod._angle_sums
    calls = []

    def poisoned(*args):
        sums = angle_sums(*args)
        calls.append(None)
        if len(calls) == 3:
            sums[0, 0, 0] = np.nan
        return sums

    monkeypatch.setattr(jd_mod, "_angle_sums", poisoned)
    rng = derive_rng(9, "jd")
    mats = [SymMatrix.symmetrised(rng.standard_normal((6, 6))) for _ in range(5)]
    with pytest.raises(ConvergenceError, match="angle sums went non-finite"):
        joint_diagonalise(mats)
    assert len(calls) == 3
    # and a non-finite off2 total fails too
    _, ends, _, n = jd_mod._incidence(mats)
    with pytest.raises(ConvergenceError, match="off2 went non-finite"):
        jd_mod._off2_total(np.full((2, len(ends[0])), np.nan), ends, np.eye(n))


def test_jd_leaves_its_input_unchanged():
    rng = derive_rng(10, "jd")
    stack = rng.standard_normal((6, 5, 5))
    stack = stack + stack.transpose(0, 2, 1)
    before = stack.copy()
    joint_diagonalise(stack)
    assert np.array_equal(stack, before)
    edges = [(1, 0), (2, 1), (3, 1), (4, 3)]
    samples = []
    for shift in range(4):
        parent = {(c + shift) % 5: (p + shift) % 5 for c, p in edges}
        samples.append(TreeSample(root=shift, start_time=0.0, parent=parent))
    batch = SampleBatch(tuple(samples), n_nodes=5, seed=0)
    before = batch.matrices()
    joint_diagonalise(batch)
    assert np.array_equal(batch.matrices(), before)


def test_jd_rejects_an_empty_batch(bridged_graph):
    batch = sample_batch(bridged_graph, 5, seed=0)
    empty = filter_batch(batch, lambda s: 0.0, derive_rng(0, "f"))
    assert len(empty) == 0
    for source in (empty, [], np.zeros((0, 7, 7))):
        with pytest.raises(ValueError, match="at least one matrix"):
            joint_diagonalise(source)


def test_ortho_basis_rejects_non_finite():
    with pytest.raises(ValueError, match="not orthogonal"):
        OrthoBasis(np.full((3, 3), np.nan))


def test_jd_result_json_round_trip(tmp_path):
    rng = derive_rng(5, "jd")
    mats, _ = _commuting_family(4, 5, rng)
    res = joint_diagonalise(mats, tol=1e-12)
    p = tmp_path / "jd.json"
    res.write_json(p)
    again = JdResult.from_json(p)
    assert np.array_equal(again.basis.values, res.basis.values)
    assert np.array_equal(again.avg_diag, res.avg_diag)
    assert np.array_equal(again.deviations, res.deviations)
    assert list(again.off2_history) == list(res.off2_history)
    assert again.converged == res.converged
    assert (again.sweeps, again.polish_steps) == (res.sweeps, res.polish_steps)
    # a run that the trust region finished
    res = joint_diagonalise(sample_batch(gen_random_contacts(12, 0.2, 60, seed=2), 80, seed=2), tol=1e-12)
    assert res.polish_steps > 0
    res.write_json(p)
    again = JdResult.from_json(p)
    assert (again.sweeps, again.polish_steps) == (res.sweeps, res.polish_steps)
    assert len(again.off2_history) == len(res.off2_history)


def test_reconstruct_average_formula():
    rng = derive_rng(6, "jd")
    mats, _ = _commuting_family(5, 4, rng)
    res = joint_diagonalise(mats, tol=1e-12)
    u = res.basis.values
    expect = (u * res.avg_diag) @ u.T
    assert np.allclose(reconstruct_average(res).values, expect, atol=1e-12)
    # and it equals the plain average for a commuting family
    mean = np.mean([m.values for m in mats], axis=0)
    assert np.allclose(reconstruct_average(res).values, mean, atol=1e-7)


# ---------------------------------------------------------------------------
# eig_sym / centrality


@given(st.integers(1, 12), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_eig_sym_matches_lapack(n, seed):
    rng = np.random.default_rng(seed)
    m = SymMatrix.symmetrised(rng.standard_normal((n, n)))
    vals, basis = eig_sym(m)
    # descending order
    assert np.all(np.diff(vals) <= 1e-12)
    ref = np.sort(np.linalg.eigvalsh(m.values))[::-1]
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.allclose(vals, ref, atol=1e-9 * scale)
    # residuals and orthogonality
    u = basis.values
    assert np.abs(m.values @ u - u * vals).max() <= 1e-8 * scale
    assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-10


def test_eig_sym_sign_convention():
    # distinct eigenvalues, then a fourfold repeated one
    for m in (np.array([[2.0, 1.0], [1.0, 2.0]]), np.ones((5, 5))):
        vals, basis = eig_sym(SymMatrix(m))
        u = basis.values
        for j in range(len(m)):
            col = u[:, j]
            nz = col[np.abs(col) > 1e-12]
            assert nz[0] > 0
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.abs(u.T @ u - np.eye(len(m))).max() <= 1e-10
        assert np.abs(m @ u - u * vals).max() <= 1e-12


def test_eig_sym_failure_is_a_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError):
        eig_sym(np.eye(3))
    # the joint diagonaliser then starts from the identity: with no sweep
    # allowed, the history holds only the input's off2 and the basis is a
    # signed permutation of the identity
    rng = derive_rng(11, "jd")
    mats = [SymMatrix.symmetrised(rng.standard_normal((4, 4))) for _ in range(3)]
    res = joint_diagonalise(mats, max_sweeps=0)
    assert len(res.off2_history) == 1
    assert np.array_equal(np.abs(res.basis.values) @ np.ones(4), np.ones(4))
    assert np.array_equal(np.abs(res.basis.values).sum(axis=0), np.ones(4))

