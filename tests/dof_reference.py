"""Reference DoF values, operators and trimmed spans on FormPolynomial algebra.

Each DoF functional is evaluated term by term (proxy contraction, directional
derivatives, restrict, wedge, integrate) in the exact arithmetic of
``derham.forms``; the program computes the same numbers as float row
products.  The trimmed spaces are spanned by the exact Koszul contraction of
Fraction forms; the program builds them as float coefficient columns.  Tests
compare the two.
"""

from fractions import Fraction

import numpy as np

from derham.elements import (CellWedgeMoment, ComponentMoment, NormalDerivMoment,
                             PointDeriv, PointEval, ScalarMoment, TraceWedgeMoment,
                             _InteriorComponent, shape_basis)
from derham.forms import FormPolynomial, form_from_coeffs, full_basis, poly_mul


def _vmap(dof, cell_verts):
    return [cell_verts.index(v) for v in dof.entity_verts]


def _point(dof, u, cell_verts):
    f = u if dof.weight is None else u.proxy_contract(dof.weight)
    for d in dof.directions:
        f = f.directional_derivative(d)
    return float(f.eval(dof.point[None, :])[()].item()) if () in f.comps else 0.0


def scalar_moment(f, dom, q):
    """(1/|dom|) * integral over dom of the 0-form f times the polynomial q."""
    if () not in f.comps:
        return 0.0
    prod = FormPolynomial(dom, 0, {(): poly_mul(f.comps[()], q)})
    return float(prod.integrate() / dom.measure)


def _test(dof, dom):
    """The DoF's test form as a FormPolynomial on ``dom``."""
    return form_from_coeffs(dom, *dof.test)


def _q(dof, dom):
    return _test(dof, dom).comps.get((), {})


def _scalar(dof, u, cell_verts):
    return scalar_moment(u.restrict(dof.sub, _vmap(dof, cell_verts)), dof.sub, _q(dof, dof.sub))


def _normal_deriv(dof, u, cell_verts):
    du = u.directional_derivative(dof.direction)
    return scalar_moment(du.restrict(dof.sub, _vmap(dof, cell_verts)), dof.sub, _q(dof, dof.sub))


def _component(dof, u, cell_verts):
    f = u.proxy_contract(dof.weight)
    return scalar_moment(f.restrict(dof.sub, _vmap(dof, cell_verts)), dof.sub, _q(dof, dof.sub))


def _trace_wedge(dof, u, cell_verts):
    tr = u.restrict(dof.sub, _vmap(dof, cell_verts))
    return float(tr.wedge(_test(dof, dof.sub)).integrate() / dof.sub.measure)


def _cell_wedge(dof, u, cell_verts):
    w = u.wedge(_test(dof, u.simplex))
    return float(w.integrate() / u.simplex.measure)


def _interior_component(dof, u, cell_verts):
    return scalar_moment(u.proxy_contract(dof.weight), u.simplex, _q(dof, u.simplex))


REFERENCE = {
    PointEval: _point,
    PointDeriv: _point,
    ScalarMoment: _scalar,
    NormalDerivMoment: _normal_deriv,
    ComponentMoment: _component,
    TraceWedgeMoment: _trace_wedge,
    CellWedgeMoment: _cell_wedge,
    _InteriorComponent: _interior_component,
}


def reference_value(dof, u, cell_verts):
    """Value of one DoF on the form ``u`` living on the cell."""
    return REFERENCE[type(dof)](dof, u, cell_verts)


def reference_operator(src, dst, fmap):
    """assemble_local_operator's matrix with every entry computed term by term.

    ``fmap`` maps a form to a form.  The local DoF matrices, their inverses
    and the image DoFs all come from ``reference_value``; the first cell
    reaching an entry sets it.
    """
    D = np.zeros((dst.dim, src.dim))
    filled = np.zeros(D.shape, dtype=bool)
    for ci in range(len(src.mesh.cells)):
        cverts = tuple(int(v) for v in src.mesh.cells[ci])
        shapes = shape_basis(src.el, src.mesh.cell_simplex(ci))
        M = np.array([[reference_value(dof, b, cverts) for b in shapes]
                      for dof in src.cell_dof_objs[ci]])
        images = [fmap(b.as_float()) for b in shapes]
        A = np.array([[reference_value(dof, g, cverts) for g in images]
                      for dof in dst.cell_dof_objs[ci]])
        Dloc = A @ np.linalg.inv(M)
        rows, cols = dst.cell_global[ci], src.cell_global[ci]
        block = ~filled[np.ix_(rows, cols)]
        D[np.ix_(rows, cols)] = np.where(block, Dloc, D[np.ix_(rows, cols)])
        filled[np.ix_(rows, cols)] = True
    return D


def koszul(form):
    """Contraction with the position field (intrinsic chart coordinates)."""
    simplex = form.simplex
    m = simplex.dim
    if form.k == 0:
        raise ValueError("koszul of a 0-form")
    # x_i as barycentric-linear polynomial: x_i = sum_j V[j, i] lambda_j
    vf = [[Fraction(float(x)) for x in row] for row in simplex.vertices]
    coords = []
    for i in range(m):
        coords.append({tuple(int(j == jj) for jj in range(m + 1)): vf[j][i]
                       for j in range(m + 1) if vf[j][i] != 0})
    out = FormPolynomial(simplex, form.k - 1)
    for key, poly in form.comps.items():
        for pos, axis in enumerate(key):
            rest = tuple(x for x in key if x != axis)
            sign = (-1) ** pos
            piece = poly_mul(poly, coords[axis])
            if not piece:
                continue
            term = FormPolynomial(simplex, form.k - 1,
                                  {rest: {e: sign * c for e, c in piece.items()}})
            out = out + term
    return out


def reference_trimmed(simplex, p, k):
    """The Koszul spanning set of P-_p Lambda^k (0 < k < m) in exact forms:
    the degree-(p-1) Bernstein k-forms followed by the nonzero Koszul images
    of the degree-(p-1) Bernstein (k+1)-forms."""
    span = full_basis(simplex, p - 1, k)
    return span + [kf for kf in map(koszul, full_basis(simplex, p - 1, k + 1))
                   if not kf.is_zero()]
