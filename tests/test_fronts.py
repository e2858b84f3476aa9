"""The multifrontal Cholesky behind the rank proofs: plan, factor, memory."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from derham.assembly import (_dof_coords, _factor, _SparseGram, assemble_d,
                             assemble_space, _gamma, family_row, prove_ranks)
from derham import assembly, fronts
from derham.fronts import LEAF, Front, dense_front, distinct, plan
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


def _ints(a):
    """Every entry of a float array as the exact integer a·2**1074."""
    out = np.zeros(a.shape, dtype=object)
    for idx in zip(*np.nonzero(a)):
        num, den = a[idx].as_integer_ratio()
        out[idx] = num * (2 ** 1074 // den)
    return out


def _worst_ratio(B, X, Y, entries):
    """max |B - X Yᵀ| / (|X||Yᵀ|) over the (i, j) in ``entries``, in exact
    arithmetic: every double is an integer over 2**1074, so each product
    sum is an integer over 2**2148."""
    Bi, Xi = _ints(B), _ints(X)
    Yi = Xi if Y is X else _ints(Y)
    worst = Fraction(0)
    for i, j in entries:
        k = np.flatnonzero((X[i] != 0) & (Y[j] != 0))
        resid = abs(Bi[i, j] * 2 ** 1074 - Xi[i, k] @ Yi[j, k])
        bound = np.abs(Xi[i, k]) @ np.abs(Yi[j, k])
        assert bound or not resid
        worst = max(worst, Fraction(resid, bound or 1))
    return worst


def _front(m, rows, gap=None, eigs=(1e-6, 1e3), scales=(1e-8, 1e8)):
    """A dense front: an m×m pivot block with eigenvalues spread
    geometrically over ``eigs`` (shifted to ``gap`` above 0 if given),
    ``rows`` update rows whose columns scale geometrically over ``scales``,
    and a random symmetric update block; the front and its ``_SparseGram``."""
    rng = np.random.default_rng(m)
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    A = (Q * np.geomspace(*eigs, m)) @ Q.T
    A = (A + A.T) / 2
    if gap is not None:
        A -= (np.linalg.eigvalsh(A)[0] - gap) * np.eye(m)
    B = rng.normal(size=(rows, m)) * np.geomspace(*scales, m)
    C = rng.normal(size=(rows, rows))
    F = np.block([[A, B.T], [B, C + C.T]])
    front = Front(np.arange(m), np.arange(m, m + rows), [], [], slice(None), slice(None))
    return F, _SparseGram(F.reshape(-1), [front], None)


def _substitution(L, B):
    """X with X Lᵀ = B by LAPACK's back substitution on reversed 32-column
    blocks: how the rows below a front's pivot block were built before one
    bordered Cholesky gave them."""
    XT = np.empty((len(L), len(B)))
    for s in range(0, len(L) if len(B) else 0, 32):
        e = min(s + 32, len(L))
        R = B[:, s:e].T - L[s:e, :s] @ XT[:s]
        XT[s:e] = np.linalg.solve(L[s:e, s:e][::-1, ::-1], R[::-1])[::-1]
    return XT.T


@pytest.mark.parametrize("m, gap, rows", [(70, None, 20), (70, 1e-10, 20), (97, 1e-8, 20),
                                          (70, 1e-10, 150)])
def test_below_meets_the_substitution_bound(m, gap, rows):
    # one potrf of the bordered front: |[A; B] - [L; X] Lᵀ| ≤ γ_{m+1}|[L; X]||Lᵀ|
    # entry by entry on the pivot columns (every third pivot row and the
    # first 20 update rows), the recurrences plus the one rounding of
    # OpenBLAS's 1/l_jj; a shift to ``gap`` above λ_min makes L
    # ill-conditioned, and one front (220 variables) is wider than LEAF
    F, gram = _front(m, rows, gap)
    ((L, X),) = _factor(gram, 0.0, keep=True)
    entries = [(i, j) for i in [*range(0, m, 3), *range(m, m + 20)] for j in range(min(i + 1, m))]
    ratio = _worst_ratio(F[:, :m], np.vstack([L, X]), L, entries)
    assert 0 < ratio <= Fraction(_gamma(m + 1))
    F, gram = _front(m, 0, gap)
    assert _factor(gram, 0.0, keep=True)[0][1].shape == (0, m)


@pytest.mark.parametrize("m, rows", [(70, 20), (12, 100), (100, 28), (100, 150)])
def test_bordered_front_matches_pivot_cholesky_and_substitution(m, rows):
    # (L, L_U) agrees with the pivot block's Cholesky plus back substitution
    # to within γ_{N+1} of the largest entry (a pivot block of condition 10,
    # so no cancellation amplifies), on fronts of up to and over LEAF
    F, gram = _front(m, rows, eigs=(1, 10), scales=(1, 1))
    ((L, LU),) = _factor(gram, 0.0, keep=True)
    Lc = np.linalg.cholesky(F[:m, :m])
    Xc = _substitution(Lc, F[m:, :m])
    g = _gamma(m + rows + 1)
    assert np.abs(L - Lc).max() <= g * np.abs(Lc).max()
    assert np.abs(LU - Xc).max() <= g * np.abs(Xc).max()


@pytest.mark.parametrize("m, rows", [(50, 60), (150, 100)])
def test_bordered_front_fails_exactly_when_its_pivot_block_does(m, rows):
    # the border replaces the update block's diagonal, so an indefinite
    # update block still factors; one eigenvalue of the pivot block below
    # the shift fails
    F, gram = _front(m, rows, eigs=(1, 10), scales=(1, 1))
    eig = np.linalg.eigvalsh(F[:m, :m])
    assert np.linalg.eigvalsh(F[m:, m:])[0] < 0
    assert _factor(gram, eig[0] / 2) is not None
    assert _factor(gram, (eig[0] + eig[1]) / 2) is None


@pytest.mark.parametrize("seed", [11, 12])
def test_factor_reproduces_permuted_matrix(seed):
    # Demmel's componentwise bound, which the rank proof relies on:
    # |L Lᵀ - P(G - tI)Pᵀ| ≤ γ_{N+1} |L||Lᵀ|, evaluated exactly on the
    # diagonal and on sampled entries of the pattern and of the fill
    A, rows, cols, pts, eig = _sparse_symmetric(seed)
    t = eig[0] - 1.0
    _, gram = _grams(A, rows, cols, pts)
    # bordered fronts of both sizes, at most LEAF variables and more
    sizes = [len(f.pivots) + len(f.update) for f in gram.fronts if len(f.update)]
    assert min(sizes) <= LEAF < max(sizes)
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
    rng = np.random.default_rng(seed)
    pattern = rng.choice(len(rows), 1500, replace=False)
    fill = np.sort(rng.integers(len(A), size=(1500, 2)), axis=1)[:, ::-1]
    entries = {(max(i, j), min(i, j)) for i, j in zip(pos[rows[pattern]], pos[cols[pattern]])}
    entries |= {(i, j) for i, j in fill if PAP[i, j] == 0} | {(i, i) for i in range(len(A))}
    ratio = _worst_ratio(PAP, L, L, sorted(entries))
    assert 0 < ratio <= Fraction(_gamma(len(A) + 1))     # the bound is not met vacuously


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


@pytest.mark.parametrize("seed", range(4))
def test_distinct_is_np_unique(seed):
    rng = np.random.default_rng(seed)
    for x in [rng.integers(-40, 40, size=rng.integers(1, 300)), np.zeros(0, dtype=int),
              np.full(17, seed)]:
        got, want = distinct(x), np.unique(x)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _same(a, b):
    """Whether two plan fields are equal: arrays in dtype and entries,
    lists entry by entry, anything else by ==."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _grid_patterns():
    """The (n, coords, rows, cols) of every plan of triangle_grid(20)'s rank
    proofs at row 0, p=2."""
    spaces = [assemble_space(triangle_grid(20), *s) for s in family_row(2, 0, 2)]
    ops = [assemble_d(a, b) for a, b in zip(spaces, spaces[1:])]
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "plan", lambda *args: seen.append(args) or plan(*args))
        prove_ranks(ops, [_dof_coords(s) for s in spaces], spaces[0].constant_coefficients())
    return seen


def _two_islands():
    """Two sparse symmetric patterns side by side that never touch: the
    first cut falls between them and finds an empty separator."""
    _, rows, cols, pts, _ = _sparse_symmetric(7, n=300)
    return 600, np.vstack([pts, pts + [2.0, 0.0]]), np.r_[rows, rows + 300], np.r_[cols, cols + 300]


def test_plans_by_sorting_equal_plans_by_np_unique(monkeypatch):
    patterns = _grid_patterns() + [_two_islands()]
    new = [plan(*args) for args in patterns]
    assert max(map(len, new)) > 3
    monkeypatch.setattr(fronts, "distinct", np.unique)
    old = [plan(*args) for args in patterns]
    for a, b in zip(new, old):
        assert len(a) == len(b)
        assert all(_same(x, y) for f, g in zip(a, b) for x, y in zip(f, g))
    # the islands' plan has two roots and no front over both
    parents = {c for f in new[-1] for c in f.children}
    assert len(new[-1]) - len(parents) == 2


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
        ranks, margins = prove_ranks(ops, [_dof_coords(s) for s in spaces],
                                     spaces[0].constant_coefficients())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks == [1680, 800] and all(m["proved"] for m in margins)
    assert peak < 8 * 2 ** 20
