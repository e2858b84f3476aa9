"""Reference DoF values and operators computed on FormPolynomial algebra.

Each DoF functional is evaluated term by term (proxy contraction, directional
derivatives, restrict, wedge, integrate) in the exact arithmetic of
``derham.forms``; the program computes the same numbers as float row
products.  Tests compare the two.
"""

import numpy as np

from derham.elements import (CellWedgeMoment, ComponentMoment, NormalDerivMoment,
                             PointDeriv, PointEval, ScalarMoment, TraceWedgeMoment,
                             _InteriorComponent, shape_basis)
from derham.forms import FormPolynomial, poly_mul


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


def _scalar(dof, u, cell_verts):
    return scalar_moment(u.restrict(dof.sub, _vmap(dof, cell_verts)), dof.sub, dof.q)


def _normal_deriv(dof, u, cell_verts):
    du = u.directional_derivative(dof.direction)
    return scalar_moment(du.restrict(dof.sub, _vmap(dof, cell_verts)), dof.sub, dof.q)


def _component(dof, u, cell_verts):
    f = u.proxy_contract(dof.weight)
    return scalar_moment(f.restrict(dof.sub, _vmap(dof, cell_verts)), dof.sub, dof.q)


def _trace_wedge(dof, u, cell_verts):
    tr = u.restrict(dof.sub, _vmap(dof, cell_verts))
    return float(tr.wedge(dof.eta).integrate() / dof.sub.measure)


def _cell_wedge(dof, u, cell_verts):
    w = u.wedge(dof.eta)
    return float(w.integrate() / u.simplex.measure)


def _interior_component(dof, u, cell_verts):
    return scalar_moment(u.proxy_contract(dof.weight), u.simplex, dof.q)


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
