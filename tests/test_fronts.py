"""The multifrontal Cholesky behind the rank proofs: plan, factor, memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from derham.assembly import (_factor, _SparseGram, assemble_d, assemble_space, _gamma,
                             family_row, prove_ranks)
from derham.fronts import LEAF, dense_front, plan
from derham.mesh import triangle_grid


def _sparse_symmetric(seed, n=600, radius=0.12):
    """A sparse symmetric matrix on n random points in the unit square
    (entries between points closer than ``radius``), its COO pattern, the
    points and its eigenvalues."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    A = np.where(dist < radius, rng.normal(size=(n, n)), 0.0)
    A = (A + A.T) / 2
    A += np.diag(np.abs(A).sum(axis=1) * rng.uniform(0.2, 1.2, size=n))
    rows, cols = np.nonzero(A)
    return A, rows, cols, pts, np.linalg.eigvalsh(A)


def _grams(A, rows, cols, pts):
    """A as one dense front, and as COO values on its nested-dissection plan."""
    return (_SparseGram(A.reshape(-1), [dense_front(len(A))], None),
            _SparseGram(A[rows, cols], plan(len(pts), pts, rows, cols), None))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-1, 30))
def test_multifrontal_completes_exactly_when_one_front_does(seed, k):
    A, rows, cols, pts, eig = _sparse_symmetric(seed)
    # a shift below the spectrum or between eigenvalues k and k + 1, away
    # from both: G - tI is clearly definite or clearly indefinite
    t = eig[0] - 1.0 if k < 0 else (eig[k] + eig[k + 1]) / 2
    assume(np.abs(eig - t).min() > 1e-6 * np.abs(eig).max())
    one, many = _grams(A, rows, cols, pts)
    assert len(many.fronts) > 3
    assert (_factor(one, t) is not None) == (_factor(many, t) is not None) == (eig[0] > t)


@pytest.mark.parametrize("seed", [5, 6])
def test_shifted_indefinite_matrix_fails_on_both_plans(seed):
    A, rows, cols, pts, eig = _sparse_symmetric(seed)
    for gram in _grams(A, rows, cols, pts):
        assert _factor(gram, (eig[0] + eig[1]) / 2) is None     # one eigenvalue below the shift
        assert _factor(gram, eig[0] - 1.0) is not None


@pytest.mark.parametrize("seed", [11, 12])
def test_factor_reproduces_permuted_matrix(seed):
    # Demmel's componentwise bound, which the rank proof relies on:
    # |L Lᵀ - P(G - tI)Pᵀ| ≤ γ_{N+1} |L||Lᵀ|
    A, rows, cols, pts, eig = _sparse_symmetric(seed)
    t = eig[0] - 1.0
    _, gram = _grams(A, rows, cols, pts)
    assert len(gram.fronts) > 3
    blocks = _factor(gram, t, keep=True)
    order = np.concatenate([f.pivots for f in gram.fronts])
    assert sorted(order) == list(range(len(A)))
    pos = np.empty(len(A), dtype=int)
    pos[order] = np.arange(len(A))
    L = np.zeros_like(A)
    for f, (LP, LU) in zip(gram.fronts, blocks):
        L[np.ix_(pos[f.pivots], pos[f.pivots])] = LP
        L[np.ix_(pos[f.update], pos[f.pivots])] = LU
    assert np.array_equal(L, np.tril(L))
    PAP = (A - t * np.eye(len(A)))[np.ix_(order, order)]
    resid = np.abs(L @ L.T - PAP)
    assert (resid <= _gamma(len(A) + 1) * (np.abs(L) @ np.abs(L).T)).all()
    assert resid.max() > 0.0             # the bound is not met vacuously


def test_fronts_are_separated():
    # a pattern entry joins two variables whose fronts lie on one path to
    # the root, and a front passes its update only to its ancestors
    A, rows, cols, pts, _ = _sparse_symmetric(3)
    fronts = plan(len(pts), pts, rows, cols)
    parent, owner = np.full(len(fronts), -1), np.full(len(A), -1)
    for k, f in enumerate(fronts):
        parent[f.children] = k
        assert (owner[f.pivots] == -1).all()
        owner[f.pivots] = k

    def path(k):
        out = set()
        while k != -1:
            out.add(k)
            k = parent[k]
        return out
    assert (owner >= 0).all() and len(fronts) > 3
    assert all(max(owner[i], owner[j]) in path(min(owner[i], owner[j])) for i, j in zip(rows, cols))
    assert all(set(owner[f.update]) <= path(k) - {k} for k, f in enumerate(fronts))


def test_small_matrix_is_one_front_in_index_order():
    A, rows, cols, pts, _ = _sparse_symmetric(2, n=LEAF)
    (front,) = plan(LEAF, None, rows, cols)
    assert np.array_equal(front.pivots, np.arange(LEAF)) and len(front.update) == 0


def test_prove_ranks_memory_stays_sparse():
    # the dense 1681² Gram matrix alone would be 22.6 MB
    spaces = [assemble_space(triangle_grid(20), *s) for s in family_row(2, 0, 2)]
    ops = [assemble_d(a, b) for a, b in zip(spaces, spaces[1:])]
    tracemalloc.start()
    try:
        ranks, margins = prove_ranks(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks == [1680, 800] and all(m["proved"] for m in margins)
    assert peak < 8 * 2 ** 20
