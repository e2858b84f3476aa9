"""Arrays stacked over cells against one-cell stacks and the term-by-term reference.

Every space's DoF rows and every operator's local blocks are built for all
cells at once.  Each cell's slice must have the bits of the same product
built for that cell alone, and match the FormPolynomial reference of
``dof_reference`` to 1e-12 relative.
"""

import numpy as np
import pytest

from conftest import delaunay_tets
from dof_reference import cell_blocks, random_form, reference_dof_values
from derham.assembly import (DROP_RTOL, GlobalSpace, assemble_d, assemble_space, family_row,
                             row_p_min)
from derham.elements import _P_MIN, block_rows, element_def, shape_coeffs
from derham.forms import coeffs, exterior_derivative_matrix, form_from_coeffs

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
