"""Arrays stacked over cells against one-cell stacks and the term-by-term reference.

Every space's DoF rows and every operator's local blocks are built for all
cells at once.  Each cell's slice must have the bits of the same product
built for that cell alone, and match the FormPolynomial reference of
``dof_reference`` to 1e-12 relative.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from conftest import delaunay_tets
from dof_reference import cell_blocks, random_form, reference_dof_values
from derham.assembly import (DROP_RTOL, GlobalSpace, assemble_d, assemble_space, family_row,
                             row_p_min)
from derham.elements import _P_MIN, block_rows, element_def, shape_coeffs
from derham.forms import (coeffs, derivative_matrix, exterior_derivative_matrix,
                          form_from_coeffs, moment_rows, proxy_matrix, trimmed_coeffs)

NAMES = ["interval", "tri", "square", "tri3", "split", "annulus", "tet", "tet2", "tet3",
         "tet3-rotated", "delaunay"]


def _mesh(meshes, name):
    if name == "tet3-rotated":
        return meshes["tet3"].with_rotated_edge_normals(11)
    if name == "delaunay":
        return delaunay_tets(7, points=7)
    return meshes[name]


def _reference(el, mesh, ci, u):
    """The cell's local DoFs on the form ``u``, term by term."""
    cverts = tuple(int(v) for v in mesh.cells[ci])
    return np.array(reference_dof_values(cell_blocks(el, mesh, ci), cverts, u))


def _assert_close(new, ref):
    assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name", NAMES)
def test_stacked_rows_match_one_cell_stacks_and_reference(meshes, name):
    # every family at p_min .. p_min+2; the reference runs on one cell per
    # family and degree, in turn
    mesh = _mesh(meshes, name)
    rng = np.random.default_rng(len(name))
    checked = 0
    for (r, k, n), lo in sorted(_P_MIN.items(), key=str):
        if n != mesh.dim:
            continue
        for p in range(lo, lo + 3):
            el = element_def(r, p, k, n)
            rows = GlobalSpace(mesh, el).rows
            for ci in range(len(mesh.cells)):
                assert np.array_equal(rows[ci], block_rows(el, mesh, [ci], p)[0]), (el, ci)
            ci = checked % len(mesh.cells)
            u = random_form(mesh.cell_simplex(ci), k, p, rng)
            _assert_close(rows[ci] @ coeffs(u, p), _reference(el, mesh, ci, u))
            checked += 1
    assert checked == 3 * sum(n == mesh.dim for (_, _, n) in _P_MIN)


def _one_cell_block(src, dst, ci):
    """The local block of d on cell ci from one-cell stacks."""
    mesh = src.mesh
    grads = mesh.bary_grads[ci]
    shapes = shape_coeffs(src.el, grads)
    local = block_rows(src.el, mesh, [ci], src.el.p)[0] @ shapes
    fields = shapes @ np.linalg.inv(local)
    dmat = exterior_derivative_matrix(grads, src.el.k, src.el.p, dst.el.p)
    return block_rows(dst.el, mesh, [ci], dst.el.p)[0] @ dmat @ fields, fields


@pytest.mark.parametrize("name", NAMES)
def test_stacked_operators_match_one_cell_products_and_reference(meshes, name):
    # every row at its lowest window: the assembled d matrices have the bits
    # of one-cell products scattered in cell order (the first cell reaching
    # an entry sets it), and match d of the dual functions term by term
    mesh = _mesh(meshes, name)
    n = mesh.dim
    rng = np.random.default_rng(len(name))
    for r in (0, 1, 2, "mixed") if n == 3 else (0, 1, 2):
        spaces = [assemble_space(mesh, *s) for s in family_row(n, r, row_p_min(n, r))]
        for i, (src, dst) in enumerate(zip(spaces, spaces[1:])):
            want = np.zeros((dst.dim, src.dim))
            filled = np.zeros(want.shape, dtype=bool)
            for ci in range(len(mesh.cells)):
                block, fields = _one_cell_block(src, dst, ci)
                idx = np.ix_(dst.cell_global[ci], src.cell_global[ci])
                want[idx] = np.where(filled[idx], want[idx], block)
                filled[idx] = True
                if ci == i % len(mesh.cells):
                    x = rng.normal(size=block.shape[1])
                    u = form_from_coeffs(mesh.cell_simplex(ci), src.el.k, src.el.p, fields @ x)
                    _assert_close(block @ x, _reference(dst.el, mesh, ci, u.exterior_derivative()))
            want[np.abs(want) <= DROP_RTOL * np.abs(want).max()] = 0.0
            assert np.array_equal(assemble_d(src, dst).array, want), (r, i)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("name,d", [("square", 2), ("tri3", 2), ("tet2", 2), ("tet3", 2),
                                    ("tet3-rotated", 2), ("delaunay", 2), ("tet3", 3)])
def test_stacked_trimmed_tests_match_one_entity(meshes, name, d):
    # the trimmed tests and their moment rows on every d-simplex of the mesh
    # at once have the bits of the same entity taken alone
    mesh = _mesh(meshes, name)
    ids = np.arange(mesh.count(d))
    grads = mesh.bary_grads if d == mesh.dim else mesh.chart_grads(d, ids)
    for k in range(1, d):
        for p in range(1, 5):
            cols, tests = trimmed_coeffs(grads, p, k)
            for e in ids:
                one = grads[e] if d == mesh.dim else mesh.sub_simplex(d, e).grad_bary_float()
                cols_e, tests_e = trimmed_coeffs(one, p, k)
                assert _same_bits(cols[e], cols_e), (k, p, e)
                assert len(tests) == len(tests_e)
                for t, (tk, q, T) in zip(tests, tests_e):
                    assert t[:2] == (tk, q)
                    assert _same_bits(t[2] if t[2].ndim == 2 else t[2][e], T)
                    rows = moment_rows(d, t, d - tk, p)
                    assert _same_bits(rows if rows.ndim == 2 else rows[e],
                                      moment_rows(d, (tk, q, T), d - tk, p))


@pytest.mark.parametrize("name", ["square", "tri3", "tet2", "tet3", "tet3-rotated", "delaunay"])
def test_stacked_chart_grads_match_sub_simplices(meshes, name):
    mesh = _mesh(meshes, name)
    for d in range(1, mesh.dim):
        ids = np.arange(mesh.count(d))[::-1]
        for e, grads in zip(ids, mesh.chart_grads(d, ids)):
            assert _same_bits(grads, mesh.sub_simplex(d, e).grad_bary_float()), (d, e)


def test_stacked_trimmed_tests_raise_where_one_entity_loses_rank():
    good = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    flat = np.zeros((3, 2))   # no complement survives: every minor vanishes
    trimmed_coeffs(np.stack([good, good]), 2, 1)
    for stack in ([good, flat], [flat, good, good]):
        with pytest.raises(RuntimeError, match="lost rank"):
            trimmed_coeffs(np.stack(stack), 2, 1)


def _proxy_factors(m, k, w):
    """The proxy contraction's factor per k-axis key, as FormPolynomial.proxy_contract has it."""
    keys = list(combinations(range(m), k))
    if k == 1:
        return np.stack([w[..., key[0]] for key in keys], axis=-1)
    if k == m - 1 and m >= 2:
        missing = [next(i for i in range(m) if i not in key) for key in keys]
        return np.stack([w[..., i] * (-1) ** i for i in missing], axis=-1)
    return np.stack([w[..., 0]] * len(keys), axis=-1)


def test_block_maps_match_kron_reference():
    # derivative and proxy maps place their blocks without np.kron
    rng = np.random.default_rng(5)
    for m in (1, 2, 3):
        grads, w = rng.normal(size=(4, 3, m + 1, m)), rng.normal(size=(4, 3, m))
        for k in range(m + 1):
            nk = math.comb(m, k)
            for p in (1, 2, 4):
                D = derivative_matrix(grads, w, 0, p)
                want = np.kron(np.eye(nk).reshape(1, 1, nk, nk), D)
                assert np.array_equal(derivative_matrix(grads, w, k, p), want), (m, k, p)
                assert np.array_equal(derivative_matrix(grads[0, 0], w[0, 0], k, p), want[0, 0])
                if k in (0, 1, m - 1, m):
                    eye = np.eye(math.comb(p + m, m))
                    for v in (w, w[0, 0], np.eye(m)[-1]):
                        want = np.kron(_proxy_factors(m, k, v)[..., None, :], eye)
                        assert np.array_equal(proxy_matrix(m, k, v, p), want), (m, k, p)
