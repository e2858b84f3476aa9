import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dof_reference import global_dof_values
from derham import assembly
from derham.assembly import (CONTAINMENT_TOL, RANK_RTOL, Coo, _dof_coords,
                             _mean_points, assemble_d, assemble_space, containment_residual,
                             dim_formula, dof_savings, family_row,
                             homogeneous_row_report, interpolation_split_residual,
                             prove_ranks, rank_of,
                             restrict_homogeneous, row_p_min, space_equal,
                             verify_exactness, verify_row, complex_residual,
                             verify_decomposition, zero_mean_row)
from derham.elements import element_def, p_min
from derham.forms import Simplex, trace_matrix
from derham.mesh import SimplicialMesh, cube_center_fan_grid, three_tet_fan, triangle_grid


# -- assembled dimensions vs closed forms ----------------------------------------

FAMILY_CASES_2D = [(1, k) for k in range(3)] + [(0, k) for k in range(3)] + \
                  [(2, k) for k in range(3)]
FAMILY_CASES_3D = [(1, k) for k in range(4)] + [(2, k) for k in range(4)] + \
                  [("hz", 2), ("minus", 2)]


@pytest.mark.parametrize("r,k", FAMILY_CASES_2D)
def test_dims_match_formula_2d(meshes, r, k):
    for name in ("tri", "square", "tri3", "split", "annulus"):
        m = meshes[name]
        p0 = p_min(r, k, 2)
        for p in (p0, p0 + 1):
            s = assemble_space(m, r, p, k)
            assert s.dim == dim_formula(r, p, k, 2, m.counts), (name, r, p, k)


@pytest.mark.parametrize("r,k", FAMILY_CASES_3D)
def test_dims_match_formula_3d(meshes, r, k):
    for name in ("tet", "tet2", "tet3"):
        m = meshes[name]
        p0 = p_min(r, k, 3)
        for p in (p0, p0 + 1):
            s = assemble_space(m, r, p, k)
            assert s.dim == dim_formula(r, p, k, 3, m.counts), (name, r, p, k)


def test_known_dimension_examples(meshes):
    assert assemble_space(meshes["square"], 1, 3, 0).dim == 14
    assert assemble_space(meshes["tri"], 1, 2, 1).dim == 12
    assert assemble_space(meshes["tet"], 2, 3, 2).dim == 60
    assert assemble_space(meshes["tet"], "hz", 2, 2).dim == 30
    assert assemble_space(meshes["tet"], 2, 4, 1).dim == 105
    # r=1, k=2, n=2 global dimension is C(p+2,2) per cell
    sq = meshes["square"]
    assert assemble_space(sq, 1, 2, 2).dim == 6 * 2


def test_1d_dims(meshes):
    m = meshes["interval"]
    assert assemble_space(m, 1, 3, 0).dim == 2 * 4 + 0 * 3
    assert assemble_space(m, 1, 2, 1).dim == 4 + 1 * 3


# -- operators ---------------------------------------------------------------------

def test_grad_rank_1d(meshes):
    m = meshes["interval"]
    src = assemble_space(m, 1, 4, 0)
    dst = assemble_space(m, 1, 3, 1)
    D = assemble_d(src, dst)
    assert rank_of(D.array) == src.dim - 1


def test_dd_zero_2d(meshes):
    _, spaces, ops = verify_row(meshes["square"], family_row(2, 1, 2))
    assert complex_residual(ops[1], ops[0]) < 1e-10


def test_div_onto_2d(meshes):
    m = meshes["square"]
    src = assemble_space(m, 1, 3, 1)
    dst = assemble_space(m, 1, 2, 2)
    D = assemble_d(src, dst)
    assert rank_of(D.array) == dst.dim


def test_containment_residual_small(meshes):
    m = meshes["square"]
    src = assemble_space(m, 1, 3, 0)
    dst = assemble_space(m, 1, 2, 1)
    assert containment_residual(src, dst) < 1e-8


@pytest.mark.parametrize("r", [0, 1, 2])
def test_containment_detects_a_moved_entry(meshes, r):
    from derham.assembly import CONTAINMENT_TOL
    spaces = [assemble_space(meshes["square"], *s) for s in family_row(2, r, 2)]
    for src, dst in zip(spaces, spaces[1:]):
        D = assemble_d(src, dst)
        assert containment_residual(src, dst, D) < CONTAINMENT_TOL
        moved = D.vals.copy()
        moved[np.argmax(np.abs(moved))] += 1e-3
        moved = Coo(D.rows, D.cols, moved, D.shape)
        assert containment_residual(src, dst, moved) > CONTAINMENT_TOL


def test_wrong_pairing_rejected(meshes):
    m = meshes["square"]
    src = assemble_space(m, 1, 4, 0)
    dst = assemble_space(m, 1, 2, 1)   # degree too low for the gradient image
    with pytest.raises(ValueError, match="wrong family pairing"):
        assemble_d(src, dst)
    # continuity violation: gradients of merely-C0 functions have two-valued
    # vertex data, which the cross-cell consistency check rejects
    lag = assemble_space(m, 0, 3, 0)
    sten = assemble_space(m, 1, 2, 1)
    with pytest.raises(RuntimeError, match="disagrees"):
        assemble_d(lag, sten)


def test_dense_rows_match_a_dense_reference():
    # rows 1 and 3 are empty, and row 4 alone is a one-column slab
    dense = np.zeros((5, 7))
    dense[0, [1, 4]] = [2.0, -3.0]
    dense[2, [0, 4, 6]] = [1.5, 0.25, -1.0]
    dense[4, 5] = 7.0
    rows, cols = np.nonzero(dense)
    D = Coo(rows, cols, dense[rows, cols], dense.shape)
    for idx in ([0, 1, 2, 3, 4], [1, 3], [4], [2, 0], [3, 4], []):
        idx = np.array(idx, dtype=int)
        used, block = assembly._dense_rows(D, idx)
        assert np.array_equal(used, np.flatnonzero(dense[idx].any(axis=0)))
        assert np.array_equal(block, dense[np.ix_(idx, used)])
        assert block.shape == (len(idx), len(used))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_dense_rows_bitmap_matches_a_sort(m, n, seed):
    # the bitmap over the touched columns' span gives np.unique's columns and block
    rng = np.random.default_rng(seed)
    D = _random_coo(rng, (m, n), density=rng.random())
    idx = np.sort(rng.choice(m, size=rng.integers(0, m + 1), replace=False))
    lo, hi = D.ptr[idx], D.ptr[idx + 1]
    pos = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)] + [np.zeros(0, int)])
    want_used, at = np.unique(D.cols[pos], return_inverse=True)
    want = np.zeros((len(idx), len(want_used)))
    want[np.repeat(np.arange(len(idx)), hi - lo), at] = D.vals[pos]
    used, block = assembly._dense_rows(D, idx)
    assert np.array_equal(used, want_used) and np.array_equal(block, want)


def _random_coo(rng, shape, density=0.3, dropped=0.0):
    dense = np.where(rng.random(shape) < density, rng.normal(size=shape), 0.0)
    return Coo(*np.nonzero(dense), dense[dense != 0], shape, dropped)


def _coo_pairs():
    """(A, B) pairs for the algebra: seeded random sparse matrices, some with
    a residue, and the 2D stress construction's operators."""
    rng = np.random.default_rng(23)
    pairs = [(_random_coo(rng, (m, k), dropped=da), _random_coo(rng, (k, n), dropped=db))
             for (m, k, n), (da, db) in zip([(7, 5, 9), (1, 12, 3), (20, 20, 20), (6, 1, 4)],
                                            [(0.0, 0.0), (1e-12, 0.0), (0.0, 3e-13),
                                             (2e-14, 5e-14)])]
    from derham.bgg import BGGContext
    from derham.mesh import two_triangle_square
    ctx = BGGContext(two_triangle_square(), 2)
    return pairs + [(ctx.dK1, ctx.S0), (ctx.S1, ctx.dV0), (ctx.dV1, ctx.dV0), (ctx.S0.T, ctx.S0)]


def test_coo_product_matches_dense_and_bounds_the_residue():
    from derham.assembly import _sigma1_bounds
    for A, B in _coo_pairs():
        C = A @ B
        want = A.array @ B.array
        assert C.shape == want.shape
        assert np.abs(C.array - want).max(initial=0.0) <= 1e-14 * max(np.abs(want).max(), 1.0)
        (ea, (_, ha)), (eb, (_, hb)) = ((x.dropped_norm, _sigma1_bounds(x)) for x in (A, B))
        assert C.dropped_norm == ea * hb + ha * eb + ea * eb
        assert np.array_equal(C.rows * C.shape[1] + C.cols,
                              np.unique(C.rows * C.shape[1] + C.cols))   # row-major, once


def test_coo_sum_negation_and_transpose_are_exact():
    rng = np.random.default_rng(5)
    for A, B in _coo_pairs():
        B = _random_coo(rng, A.shape, dropped=1e-15)
        assert np.array_equal((A - B).array, A.array - B.array)
        assert np.array_equal((A + B).array, A.array + B.array)
        assert (A - B).dropped_norm == A.dropped_norm + B.dropped_norm
        assert np.array_equal((-A).array, -A.array) and (-A).dropped_norm == A.dropped_norm
        assert np.array_equal(A.T.array, A.array.T) and A.T.shape == A.shape[::-1]
        assert A.T is A.T
        for got, want in zip((A.T.T.rows, A.T.T.cols, A.T.T.vals), (A.rows, A.cols, A.vals)):
            assert np.array_equal(got, want)
        assert np.array_equal(A.ptr, np.searchsorted(A.rows, np.arange(A.shape[0] + 1)))
        x = rng.normal(size=A.shape[1])
        assert np.abs(A.dot(x) - A.array @ x).max(initial=0.0) <= 1e-13 * np.abs(x).sum()
        assert A.amax() == np.abs(A.array).max(initial=0.0)


def test_coo_constructors():
    X = np.array([[0.0, 2.0, 0.0], [-1.0, 0.0, 3.0]])
    assert np.array_equal(Coo.of_dense(X).array, X)
    assert np.array_equal(Coo.eye(3).array, np.eye(3))
    assert np.array_equal(Coo.zero(2, 4).array, np.zeros((2, 4)))
    D = Coo.summed(np.array([1, 0, 1]), np.array([2, 1, 2]), np.array([1.0, 2.0, 2.0]), (2, 3))
    assert np.array_equal(D.array, [[0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]) and len(D.vals) == 2
    E = Coo.of_dense(np.eye(2, 3))
    grid = Coo.blocks([[Coo.of_dense(X), None], [E, Coo.of_dense(-X)]])
    assert np.array_equal(grid.array, np.block([[X, np.zeros((2, 3))], [np.eye(2, 3), -X]]))


def test_transpose_gives_back_its_matrix_without_keeping_it():
    X = np.array([[0.0, 2.0, 0.0], [-1.0, 0.0, 3.0]])
    A = Coo.of_dense(X)
    t = A.T
    assert A.T is t and A.T.T is A
    alive = weakref.ref(A)
    del A
    assert alive() is None
    assert np.array_equal(t.T.array, X) and t.T.T is t


# -- proved ranks---------------------------------------------------------------------

def _prove_row(spaces, ops):
    """prove_ranks as verify_row calls it: the constants as the known kernel."""
    kernel = spaces[0].constant_coefficients() if spaces[0].el.k == 0 else None
    return prove_ranks(ops, [_dof_coords(s) for s in spaces], kernel)


def _assert_proved_ranks_are_counts(ops, ranks, margins):
    # a rank that was not proved was counted by rank_of itself
    for op, rank, m in zip(ops, ranks, margins):
        if m["proved"]:
            assert m["kept"] > RANK_RTOL > m["dropped"]
            assert rank == rank_of(op.array)


@pytest.mark.parametrize("name", ["interval", "tri", "square", "tri3", "split",
                                  "annulus", "tet", "tet2", "tet3"])
def test_proved_ranks_match_rank_of(meshes, name):
    m = meshes[name]
    rows = [(r, p) for r in (0, 1, 2) for p in (1, 2, 3) if p >= row_p_min(m.dim, r)]
    rows += [("mixed", 3)] if m.dim == 3 else []
    for r, p in rows:
        spaces = [assemble_space(m, *s) for s in family_row(m.dim, r, p)]
        ops = [assemble_d(a, b) for a, b in zip(spaces, spaces[1:])]
        _assert_proved_ranks_are_counts(ops, *_prove_row(spaces, ops))


def test_overstated_rank_is_counted():
    # zero a column of D0 whose DoF the constants do not use: its unit vector
    # joins the kernel, so the complex proposes one rank too many
    spaces = [assemble_space(triangle_grid(4), *s) for s in family_row(2, 1, 1)]
    D0, D1 = (assemble_d(a, b) for a, b in zip(spaces, spaces[1:]))
    j = np.flatnonzero(spaces[0].constant_coefficients() == 0.0)[0]
    keep = D0.cols != j
    assert not keep.all()
    Dz = Coo(D0.rows[keep], D0.cols[keep], D0.vals[keep], D0.shape)
    ranks, margins = _prove_row(spaces, [Dz, D1])
    assert not margins[0]["proved"]
    assert ranks[0] == rank_of(Dz.array) == D0.shape[1] - 2


def test_verdict_builds_no_per_cell_geometry(monkeypatch):
    # the cells' barycentric data come from one stacked inverse; no Simplex
    # is built for a cell (nor for an edge: a 2D trace needs only its frame)
    mesh = triangle_grid(8)

    def refuse(*args, **kwargs):
        raise AssertionError("per-cell geometry built on the verdict path")
    monkeypatch.setattr(SimplicialMesh, "cell_simplex", refuse)
    monkeypatch.setattr(Simplex, "__init__", refuse)
    rep = verify_exactness(mesh, 0, 2)
    assert rep.passed and rep.dims == [289, 416, 128] and rep.ranks == [288, 128]
    assert rep.dd_residuals == [1.0146536357569526e-17]


def test_verify_row_needs_no_dense_operator(monkeypatch):
    # every dense view of an operator, the rank count's too, is ``Coo.array``
    def refuse(*args):
        raise AssertionError("dense operator built in verify_row")
    monkeypatch.setattr(Coo, "array", property(refuse))
    rep = verify_exactness(triangle_grid(8), 0, 2)
    assert rep.passed and all(m["proved"] for m in rep.rank_margins)


def _row_ops(mesh, r, p):
    spaces = [assemble_space(mesh, *s) for s in family_row(mesh.dim, r, p)]
    return spaces, [assemble_d(a, b) for a, b in zip(spaces, spaces[1:])]


def _gram_parts(monkeypatch, *args, short=None):
    """``_gram``'s values, pattern and diagonal, the plan replaced by the
    pattern; ``short`` = 0 sends every product over the slabs."""
    monkeypatch.setattr(assembly, "plan", lambda n, coords, rows, cols: (rows, cols))
    if short is not None:
        monkeypatch.setattr(assembly, "_SHORT", short)
    vals, pattern, diag, terms = assembly._gram(*args)
    monkeypatch.undo()
    return vals, pattern, diag, terms


def test_short_rows_multiply_as_triplets_like_the_slabs(monkeypatch):
    _, (D0, D1) = _row_ops(triangle_grid(8), 0, 2)
    # D0 (2 terms per entry) and D0ᵀ span two slabs each; D1ᵀD1 + a·D0D0ᵀ
    # sums D1's one slab and D0ᵀ's triplets
    for P in (D0, D0.T):
        assert len(list(assembly._slabs(P))) > 1 and assembly._short(P, P.rows, P)
    for args in [(D0, None), (D0.T, None), (D1, None, D0, 0.7)]:
        vals, (rows, cols), diag, terms = _gram_parts(monkeypatch, *args)
        want, (wrows, wcols), wdiag, wterms = _gram_parts(monkeypatch, *args, short=0)
        assert np.array_equal(rows, wrows) and np.array_equal(cols, wcols)
        assert np.abs(vals - want).max() <= 1e-13 * np.abs(want).max()
        assert np.abs(diag - wdiag).max() <= 1e-13 * np.abs(want).max() and terms == wterms
    # d∘d over more than one slab of D1 on a finer grid, and with D0 moved so
    # that D1·D0 is far from zero
    _, (D0, D1) = _row_ops(triangle_grid(12), 0, 2)
    moved = Coo(D0.rows, D0.cols, D0.vals * np.linspace(1.0, 1.001, len(D0.vals)), D0.shape)
    assert assembly._short(D1, D1.cols, D0)
    got = [complex_residual(D1, D) for D in (D0, moved)]
    monkeypatch.setattr(assembly, "_SHORT", 0)
    want = [complex_residual(D1, D) for D in (D0, moved)]
    assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12 * want[1]
    assert want[1] > 1e-5
    monkeypatch.undo()
    # ‖DB‖_F of the middle operator's proof, D (721×504) and B (504×96) short
    spaces, ops = _row_ops(cube_center_fan_grid(1, 1, 1), 1, 1)
    ranks, margins = _prove_row(spaces, ops)
    monkeypatch.setattr(assembly, "_SHORT", 0)
    assert _prove_row(spaces, ops)[0] == ranks
    for got, want in zip(margins, _prove_row(spaces, ops)[1]):
        # the dropped bound is rounding residue of DB = 0, summed in another order
        assert got["proved"] and want["proved"] and abs(got["dropped"] - want["dropped"]) < 1e-12
        assert abs(got["kept"] - want["kept"]) <= 1e-8 * want["kept"]


def test_one_slab_and_long_row_products_keep_the_slabs(monkeypatch):
    from derham.bgg import BGGContext
    _, ops = _row_ops(three_tet_fan(), 1, 2)
    ctx = BGGContext(triangle_grid(4), 2)
    grams = [X for D in ops for X in (D, D.T)] + [ctx.dV0, ctx.S1.T]
    pairs = list(zip(ops[1:], ops)) + [(ctx.dK1, ctx.dK0)]
    # the bgg operators span several slabs, their rows too long for triplets
    for X in (ctx.dV0, ctx.S1.T):
        assert len(list(assembly._slabs(X))) > 1 and not assembly._short(X, X.rows, X)
    assert len(list(assembly._slabs(ctx.dK1))) > 1
    assert not assembly._short(ctx.dK1, ctx.dK1.cols, ctx.dK0)
    for X in grams:
        (vals, pattern, diag, _), want = (_gram_parts(monkeypatch, X, None, short=s)
                                          for s in (None, 0))
        assert np.array_equal(vals, want[0]) and np.array_equal(diag, want[2])
        if X.shape[1] > assembly.LEAF:
            assert all(np.array_equal(a, b) for a, b in zip(pattern, want[1]))
    for D2, D1 in pairs:
        got = complex_residual(D2, D1)
        monkeypatch.setattr(assembly, "_SHORT", 0)
        assert complex_residual(D2, D1) == got
        monkeypatch.undo()


def test_short_row_verdict_walks_no_slab(monkeypatch):
    calls = []
    dense_rows = assembly._dense_rows
    monkeypatch.setattr(assembly, "_dense_rows", lambda *a: calls.append(1) or dense_rows(*a))
    rep = verify_exactness(triangle_grid(32), 0, 2)
    assert rep.passed and all(m["proved"] for m in rep.rank_margins) and not calls


# -- exactness ----------------------------------------------------------------------

@pytest.mark.parametrize("name,r,p", [
    ("interval", 0, 2), ("interval", 1, 2), ("interval", 1, 3), ("interval", 2, 5),
    ("square", 0, 2), ("square", 1, 1), ("square", 1, 2), ("tri3", 1, 1),
    ("square", 2, 2), ("tri", 2, 2), ("split", 2, 2),
])
def test_exactness_contractible(meshes, name, r, p):
    rep = verify_exactness(meshes[name], r, p)
    assert rep.passed, rep.to_json()
    assert rep.surjective_end


def test_exactness_classical_3d(meshes):
    assert verify_exactness(meshes["tet2"], 0, 3).passed


def test_exactness_moderate_mesh():
    # eight cells: exercises shared-DoF identification beyond tiny meshes
    from derham.mesh import triangle_grid
    m = triangle_grid(2)
    assert m.counts == (9, 16, 8, 0)
    rep = verify_exactness(m, 1, 2)
    assert rep.passed
    rep2 = verify_exactness(m, 2, 2)
    assert rep2.passed


def test_row_p_min_is_the_lowest_window():
    def exists(n, r, p):
        try:
            return all(element_def(*slot, n) for slot in family_row(n, r, p))
        except ValueError:
            return False
    for n in (1, 2, 3):
        for r in (0, 1, 2, "mixed") if n == 3 else (0, 1, 2):
            for p in range(-1, 7):
                assert exists(n, r, p) == (p >= row_p_min(n, r)), (n, r, p)


@pytest.mark.parametrize("r", [1, 2])
def test_exactness_high_p_keeps_float_margin(meshes, r):
    # p=6 sits near the float limit of the dd residual (DD_TOL); a worse
    # conditioned trimmed test basis pushes these rows over it
    rep, _, ops = verify_row(meshes["tet3"], family_row(3, r, 6))
    assert rep.passed, rep.to_json()
    _assert_proved_ranks_are_counts(ops, rep.ranks, rep.rank_margins)


def test_row_with_containment_check(meshes):
    rep, spaces, ops = verify_row(meshes["square"], family_row(2, 1, 2))
    for i, op in enumerate(ops):
        assert containment_residual(spaces[i], spaces[i + 1], D=op) <= CONTAINMENT_TOL
    assert rep.passed


def test_exactness_3d_rows(meshes):
    rep = verify_exactness(meshes["tet"], 1, 0)
    assert rep.passed
    rep = verify_exactness(meshes["tet2"], 1, 0)
    assert rep.passed
    rep = verify_exactness(meshes["tet"], 2, 2)
    assert rep.passed
    # next degree window of the same family
    rep = verify_exactness(meshes["tet"], 2, 3)
    assert rep.passed and rep.dims == [84, 168, 105, 20]


def test_annulus_harmonic_class(meshes):
    for r, p in ((0, 2), (1, 1), (2, 2)):
        rep = verify_exactness(meshes["annulus"], r, p, expected_betti=[1, 1, 0])
        assert rep.betti == [1, 1, 0]
        assert rep.passed
        assert all(m["proved"] for m in rep.rank_margins)


def test_tunnel_ranks_are_proved(tunnel):
    # the forward pass proposes the last rank one too small here; it is
    # proved onto in full, and the others follow from it
    assert len(tunnel.cells) == 192 and tunnel.euler_characteristic() == 0
    for r, p in ((0, 3), (1, 0)):
        rep = verify_exactness(tunnel, r, p, expected_betti=[1, 1, 0, 0])
        assert rep.passed and rep.betti == [1, 1, 0, 0], rep.to_json()
        assert all(m["proved"] for m in rep.rank_margins)


def test_circle_harmonic_class():
    from derham.mesh import SimplicialMesh
    circle = SimplicialMesh([[0.0], [1.0], [2.0]], [(0, 1), (1, 2), (0, 2)])
    rep = verify_exactness(circle, 1, 3, expected_betti=[1, 1])
    assert rep.betti == [1, 1] and rep.passed


def test_report_json_round_trip(meshes):
    rep = verify_exactness(meshes["square"], 1, 1)
    data = json.loads(rep.to_json())
    assert data["pass"] is True
    assert data["dims"] == rep.dims


def test_mixed_sequence(meshes):
    for p in (3, 4):
        rep = verify_exactness(meshes["tet"], "mixed", p)
        assert rep.passed, rep.to_json()
    rep = verify_exactness(meshes["tet2"], "mixed", 3)
    assert rep.passed


# -- homogeneous boundary conditions ---------------------------------------------

def test_homogeneous_counts_square(meshes):
    m = meshes["square"]
    rep = homogeneous_row_report(m, 2, m.classify_boundary())
    assert rep["dims"] == rep["formulas"]
    assert rep["alternating"] == 0
    assert rep["exact"] and rep["image_homogeneous"]


def test_homogeneous_counts_split_edge(meshes):
    m = meshes["split"]
    cls = m.classify_boundary()
    rep = homogeneous_row_report(m, 2, cls)
    assert rep["dims"] == rep["formulas"]
    assert rep["alternating"] == 0
    # one non-corner boundary vertex retains one extra DoF in each slot
    sq = meshes["square"]
    all_corner = homogeneous_row_report(sq, 2, sq.classify_boundary())
    base0 = assemble_space(sq, 1, 4, 0).dim
    split0 = assemble_space(m, 1, 4, 0).dim
    # compare removal counts rather than dims (the meshes differ)
    removed_allcorner = base0 - all_corner["dims"][0]
    removed_split = split0 - rep["dims"][0]
    E0_sq, E0_sp = 4, 5
    assert removed_allcorner == (4 - 3) * E0_sq + 3 * 4
    assert removed_split == (4 - 3) * E0_sp + 3 * 5 - 1


@pytest.mark.parametrize("r,p", [(1, 2), (2, 2)])
def test_zero_mean_row_integrates(meshes, r, p):
    # the quotient-by-constants row is the integral functional; a DoF shared
    # by several cells (vertex values at r=2) collects every cell's part
    from derham.assembly import zero_mean_row
    from derham.forms import FormPolynomial
    m = meshes["split"]
    space = assemble_space(m, r, p, 2)
    row = zero_mean_row(space)
    one = global_dof_values(space, {ci: FormPolynomial(m.cell_simplex(ci), 2, {(0, 1): {(0, 0, 0): 1.0}})
                                    for ci in range(len(m.cells))})
    assert row.shape == (1, space.dim)
    assert abs(row[0] @ one - 1.0) < 1e-12


def test_homogeneous_3d_scalar_consistency(meshes):
    import math
    # every entity of a single tet is a boundary corner entity, so only the
    # interior moments survive; the two-tet mesh adds its interior face
    tet = meshes["tet"]
    cls = tet.classify_boundary()
    for p in (5, 6):
        hom = restrict_homogeneous(assemble_space(tet, 2, p, 0), cls)
        assert hom.shape[1] == math.comb(p - 1, 3)
    two = meshes["tet2"]
    cls2 = two.classify_boundary()
    for p in (5, 6):
        hom = restrict_homogeneous(assemble_space(two, 2, p, 0), cls2)
        expected = 2 * math.comb(p - 1, 3) + (math.comb(p - 4, 2) if p >= 6 else 0)
        assert hom.shape[1] == expected


def test_homogeneous_3d_noncorner_vertex():
    import math
    from derham.mesh import SimplicialMesh
    # square base fanned around its center with one apex: the center is a
    # non-corner boundary vertex (keeps 4 of 10 vertex DoFs), its four base
    # edges are non-corner (keep p-4 each), and the center-apex edge is
    # interior (keeps all 3p-13 edge DoFs)
    m = SimplicialMesh([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                        [0.5, 0.5, 0], [0.5, 0.5, 1.0]],
                       [(0, 1, 4, 5), (1, 2, 4, 5), (2, 3, 4, 5), (0, 3, 4, 5)])
    cls = m.classify_boundary()
    assert cls.noncorner_boundary_vertices == {4}
    assert len(cls.noncorner_boundary_edges) == 4
    for p in (5, 6):
        hom = restrict_homogeneous(assemble_space(m, 2, p, 0), cls)
        expected = (4 * math.comb(p - 1, 3)
                    + 4 * (math.comb(p - 4, 2) if p >= 6 else 0)
                    + 4 + 4 * (p - 4)
                    + 2 * (p - 4) + max(p - 5, 0))
        assert hom.shape[1] == expected


def test_homogeneous_3d_noncorner_edge():
    import math
    from derham.mesh import SimplicialMesh
    # two tets over a split square base with a shared apex: the diagonal base
    # edge sits in two coplanar boundary faces, so its out-of-plane normal
    # derivative moments stay free (p - 4 of them)
    m = SimplicialMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                        [0.4, 0.4, 1.0]],
                       [(0, 1, 2, 4), (1, 3, 2, 4)])
    cls = m.classify_boundary()
    assert len(cls.noncorner_boundary_edges) == 1
    for p in (5, 6):
        hom = restrict_homogeneous(assemble_space(m, 2, p, 0), cls)
        expected = (2 * math.comb(p - 1, 3)
                    + (math.comb(p - 4, 2) if p >= 6 else 0) + (p - 4))
        assert hom.shape[1] == expected


def _worst_boundary_trace(mesh, space, basis):
    """Largest trace coefficient of the basis columns on any boundary facet,
    over the columns' largest broken coefficient."""
    n, k, p = mesh.dim, space.el.k, space.el.p
    cols = np.zeros(basis.shape)
    cols[basis.rows, basis.cols] = basis.vals
    broken = (space.broken(p) @ cols).reshape(len(mesh.cells), -1, basis.shape[1])
    worst = 0.0
    for fi in mesh.boundary_simplices(n - 1):
        ci = mesh.cofaces[n - 1][fi][0]
        vmap = [list(mesh.cells[ci]).index(v) for v in mesh.skeleton[n - 1][fi]]
        tangents = mesh.frames(n - 1).tangents[fi] if k else None
        worst = max(worst, np.abs(trace_matrix(n, vmap, k, p, tangents) @ broken[ci]).max())
    return worst / np.abs(broken).max()


@pytest.mark.parametrize("name", ["split", "square", "grid3"])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_homogeneous_columns_vanish_on_boundary_2d(meshes, name, k, p):
    m = triangle_grid(3) if name == "grid3" else meshes[name]
    r, q, _ = family_row(2, 1, p)[k]
    space = assemble_space(m, r, q, k)
    assert _worst_boundary_trace(m, space, restrict_homogeneous(space, m.classify_boundary())) <= 1e-12


# the meshes of the two non-corner tests above, as (vertices, cells)
FLAT_BOUNDARY_MESHES = {
    "noncorner-vertex": ([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0],
                          [0.5, 0.5, 1.0]],
                         [(0, 1, 4, 5), (1, 2, 4, 5), (2, 3, 4, 5), (0, 3, 4, 5)]),
    "noncorner-edge": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.4, 0.4, 1.0]],
                       [(0, 1, 2, 4), (1, 3, 2, 4)]),
}


@pytest.mark.parametrize("name", ["tet", "tet2", "noncorner-vertex", "noncorner-edge"])
@pytest.mark.parametrize("p", [5, 6])
def test_homogeneous_columns_vanish_on_boundary_3d(meshes, name, p):
    m = meshes[name] if name in meshes else SimplicialMesh(*FLAT_BOUNDARY_MESHES[name])
    space = assemble_space(m, 2, p, 0)
    assert _worst_boundary_trace(m, space, restrict_homogeneous(space, m.classify_boundary())) <= 1e-12


def test_homogeneous_row_report_memory():
    import tracemalloc
    m = triangle_grid(5)
    cls = m.classify_boundary()
    tracemalloc.start()
    try:
        rep = homogeneous_row_report(m, 4, cls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["exact"] and rep["dims"] == rep["formulas"]
    assert peak < 40e6, peak


def test_homogeneous_ranks_are_proved_without_a_dense_operator(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense rank or operator built in the bc report")
    monkeypatch.setattr(assembly, "rank_of", refuse)
    monkeypatch.setattr(Coo, "array", property(refuse))
    m = triangle_grid(8)
    rep = homogeneous_row_report(m, 4, m.classify_boundary())
    assert rep["ranks"] == [1983, 1919] and rep["exact"]
    assert all(mg["proved"] for mg in rep["rank_margins"])


def _restricted_ranks(m, p):
    """rank_of the dense N₁ᵀD₀N₀ and D₁N₁, built here from the same parts."""
    cls = m.classify_boundary()
    spaces = [assemble_space(m, *s) for s in family_row(2, 1, p)]
    N0, N1 = (restrict_homogeneous(s, cls).array for s in spaces[:2])
    D0, D1 = (assemble_d(a, b).array for a, b in zip(spaces, spaces[1:]))
    return [rank_of(N1.T @ D0 @ N0), rank_of(D1 @ N1)]


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("name", ["square", "split", "tri3", "grid3"])
def test_homogeneous_proved_ranks_match_rank_of(meshes, name, p):
    m = triangle_grid(3) if name == "grid3" else meshes[name]
    rep = homogeneous_row_report(m, p, m.classify_boundary())
    assert all(mg["proved"] for mg in rep["rank_margins"])
    assert rep["ranks"] == _restricted_ranks(m, p)


def test_wrong_kernel_vector_is_counted(meshes):
    # (D₁N₁)ᵀ alone, whose known kernel vector is the zero-mean row z: with
    # one entry of z moved the proof fails, and rank_of counts the rank
    m = meshes["split"]
    spaces = [assemble_space(m, *s) for s in family_row(2, 1, 3)]
    N1 = restrict_homogeneous(spaces[1], m.classify_boundary())
    op = (assemble_d(spaces[1], spaces[2]) @ N1).T
    coords = [_dof_coords(spaces[2]), _mean_points(N1.cols, _dof_coords(spaces[1])[N1.rows],
                                                   N1.shape[1])]
    z = zero_mean_row(spaces[2])[0]
    ranks, margins = prove_ranks([op], coords, z)
    assert margins[0]["proved"] and ranks == [len(z) - 1]
    z[0] += 0.5 * np.abs(z).max()
    ranks, margins = prove_ranks([op], coords, z)
    assert not margins[0]["proved"] and ranks == [rank_of(op.array)] == [len(z) - 1]


def test_homogeneous_row_report_is_json(meshes):
    m = meshes["split"]
    rep = homogeneous_row_report(m, 2, m.classify_boundary())
    assert json.loads(json.dumps(rep)) == rep


# -- space equality ---------------------------------------------------------------

def test_box_identities(meshes):
    two = meshes["tet2"]
    sq = meshes["square"]
    eq, _ = space_equal(assemble_space(two, 1, 2, 2), assemble_space(two, 0, 2, 2))
    assert eq
    eq, _ = space_equal(assemble_space(two, 1, 1, 3), assemble_space(two, 0, 1, 3))
    assert eq
    eq, _ = space_equal(assemble_space(sq, 1, 1, 2), assemble_space(sq, 0, 1, 2))
    assert eq
    eq, info = space_equal(assemble_space(sq, 1, 2, 1), assemble_space(sq, 0, 2, 1))
    assert not eq
    assert info["dims"][0] != info["dims"][1]


# -- decompositions ----------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_decomposition_2d(meshes, p):
    rep = verify_decomposition(2, p, meshes["square"])
    assert rep["equal"]
    assert rep["continuous_strictly_smaller"]


def test_decomposition_3d(meshes):
    rep = verify_decomposition(3, 4, meshes["tet"])
    assert rep["equal"]
    rep = verify_decomposition(3, 4, meshes["tet2"])
    assert rep["equal"]
    assert rep["continuous_strictly_smaller"]


def test_interpolation_split(meshes):
    res = interpolation_split_residual(meshes["tet2"], 4)
    assert res < 1e-6


# -- savings and frames -------------------------------------------------------------

def test_dof_savings_assembly_matches_closed_forms():
    g = cube_center_fan_grid(1, 1, 1)
    rep = dof_savings(4, g)
    assert rep["dim_classical"] == rep["closed_classical"]
    assert rep["dim_nodal"] == rep["closed_nodal"]
    assert rep["per_tet_estimate_classical"] == 170.0
    assert rep["per_tet_estimate_nodal"] == 30.5
    assert rep["per_tet_estimate_difference"] == 139.5


def test_frame_independence(meshes):
    m = meshes["tet2"]
    rotated = m.with_rotated_edge_normals(99)
    # the rotation must actually change the normal pair
    assert not np.allclose(m.frame(1, 0).normals, rotated.frame(1, 0).normals)
    a = assemble_space(m, "hz", 3, 2)
    b = assemble_space(rotated, "hz", 3, 2)
    assert a.dim == b.dim
    da = assemble_d(a, assemble_space(m, 0, 2, 3))
    db = assemble_d(b, assemble_space(rotated, 0, 2, 3))
    assert rank_of(da.array) == rank_of(db.array)


def test_frame_independence_derivative_dofs(meshes):
    # the C2-vertex scalar family carries edge normal-derivative DoFs
    m = meshes["tet2"]
    rotated = m.with_rotated_edge_normals(7)
    a = assemble_space(m, 2, 5, 0)
    b = assemble_space(rotated, 2, 5, 0)
    assert a.dim == b.dim
    da = assemble_d(a, assemble_space(m, 2, 4, 1))
    db = assemble_d(b, assemble_space(rotated, 2, 4, 1))
    assert rank_of(da.array) == rank_of(db.array) == a.dim - 1


def test_broken_space_rank_of_global(meshes):
    m = meshes["square"]
    s = assemble_space(m, 1, 2, 1)
    mat = s.broken(2)
    assert rank_of(mat) == s.dim
