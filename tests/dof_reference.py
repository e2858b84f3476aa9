"""Reference DoF values, operators, trimmed spans and export text on
FormPolynomial algebra.

The DoF plan is realised here one entity at a time (its vertex, chart,
frame vectors and test forms), and each DoF functional is evaluated term by
term (proxy contraction, directional derivatives, restrict, wedge,
integrate) in the exact arithmetic of ``derham.forms``; the program computes
the same numbers as float row products stacked over cells.  The trimmed
spaces are spanned by the exact Koszul contraction of Fraction forms; the
program builds them as float coefficient columns.  The ``export`` text is
printed here by ``FormPolynomial.export_lines`` from forms built out of the
dual coefficients.  Tests compare the two.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from derham.elements import DofGroup, _test_blocks, cell_dofs, dof_plan
from derham.forms import (FormPolynomial, Simplex, coeffs, elevation, form_from_coeffs, full_basis,
                          monomials, poly_mul, trimmed_basis)


def shape_basis(el, simplex):
    """The element's shape basis as forms of their native degree."""
    if el.r == "minus":
        return trimmed_basis(simplex, el.p, el.k)
    return full_basis(simplex, el.p, el.k)


@dataclass
class Block:
    """A plan group realised on one entity (the cell for interior groups).

    ``point`` is the vertex of a point group; ``sub`` is the chart of a
    moment group's proper subsimplex (None on the cell); ``tests`` the
    (form degree, q, rows) blocks of its test forms.
    """
    group: DofGroup
    entity: tuple                  # (d, idx); idx is the cell for d == n
    verts: tuple
    sub: Simplex = None
    point: np.ndarray = None
    weight: np.ndarray = None
    directions: tuple = ()
    tests: tuple = ()

    @property
    def size(self):
        return 1 if self.point is not None else sum(len(t[2]) for t in self.tests)


def entity_blocks(el, mesh, d, idx):
    """The plan of d-simplex ``idx`` (of cell ``idx`` for d == n) realised on
    its geometry, one ``Block`` per group."""
    n = el.n
    verts = tuple(int(v) for v in mesh.cells[idx]) if d == n else mesh.skeleton[d][idx]
    sub = mesh.sub_simplex(d, idx) if 0 < d < n else None
    domain = mesh.cell_simplex(idx) if d == n else sub

    def vector(spec):
        return np.eye(n)[spec] if isinstance(spec, int) else mesh.frame(d, idx).normals[spec[1]]

    out = []
    for g in dof_plan(el, d):
        moment = g.kind == "moment"
        out.append(Block(g, (d, idx), verts, sub=sub if moment else None,
                         point=None if moment else mesh.vertices[verts[0]],
                         weight=None if g.weight is None else vector(g.weight),
                         directions=tuple(vector(x) for x in g.directions),
                         tests=_test_blocks(g.test, domain.grad_bary_float()) if moment else ()))
        assert out[-1].size == g.size, (g.label, verts)
    return out


def cell_blocks(el, mesh, ci, cache=None):
    """The realised blocks of a cell in local DoF order.  ``cache`` maps
    (d, idx) to an entity's blocks; pass one dict to share them."""
    cache = {} if cache is None else cache
    keys = [(d, int(idx)) for d in range(el.n) for idx in mesh.cell_entities[d][ci]]
    out = []
    for key in keys + [(el.n, int(ci))]:
        if key not in cache:
            cache[key] = entity_blocks(el, mesh, *key)
        out.extend(cache[key])
    return out


def random_form(cell, k, degree, rng):
    """A k-form on the cell with a random coefficient on every monomial."""
    keys = combinations(range(cell.dim), k)
    return FormPolynomial(cell, k, {key: {a: rng.normal() for a in monomials(cell.dim + 1, degree)}
                                    for key in keys})


def scalar_moment(f, dom, q):
    """(1/|dom|) * integral over dom of the 0-form f times the polynomial q."""
    if () not in f.comps:
        return 0.0
    prod = FormPolynomial(dom, 0, {(): poly_mul(f.comps[()], q)})
    return float(prod.integrate() / dom.measure)


def global_dof_values(space, cell_forms):
    """Every global DoF of a function given on every cell as a form of degree
    at most the space's; the first cell to reach a DoF sets it."""
    stack = np.array([coeffs(cell_forms[ci], space.el.p) for ci in range(len(space.mesh.cells))])
    return space.gather((space.rows @ stack[..., None])[..., 0])


def reference_export_lines(el, duals, simplex):
    """``export``'s text of ``dual_basis``'s coefficients: each dual as one
    FormPolynomial on ``simplex`` (an n-simplex), its components merged
    across degrees, printed by ``export_lines``."""
    lines = []
    for j in range(next(iter(duals.values())).shape[1]):
        comps = {}
        for q, acc in duals.items():
            for key, poly in form_from_coeffs(simplex, el.k, q, acc[:, j]).comps.items():
                comps.setdefault(key, {}).update(poly)
        lines.extend(FormPolynomial(simplex, el.k, comps).export_lines(p=el.p))
    return lines


def reference_values(block, u, cell_verts):
    """Values of the DoFs of one realised block on the form ``u`` on the cell:
    proxy contraction, directional derivatives, then the point value, or the
    trace onto the block's subsimplex wedged with each test form and
    integrated."""
    f = u if block.weight is None else u.proxy_contract(block.weight)
    for direction in block.directions:
        f = f.directional_derivative(direction)
    if block.point is not None:
        return [float(f.eval(block.point[None, :])[()].item()) if () in f.comps else 0.0]
    dom = u.simplex
    if block.sub is not None:
        dom = block.sub
        f = f.restrict(dom, [cell_verts.index(v) for v in block.verts])
    return [float(f.wedge(form_from_coeffs(dom, tk, q, vec)).integrate() / dom.measure)
            for tk, q, rows in block.tests for vec in rows]


def reference_dof_values(blocks, cell_verts, u):
    """Values of a cell's local DoFs (its realised blocks) on ``u``, term by term."""
    return [x for b in blocks for x in reference_values(b, u, cell_verts)]


def reference_operator(src, dst, fmap):
    """assemble_local_operator's matrix with every entry computed term by term.

    ``fmap`` maps a form to a form.  The local DoF matrices, their inverses
    and the image DoFs all come from ``reference_values``; the first cell
    reaching an entry sets it.
    """
    D = np.zeros((dst.dim, src.dim))
    filled = np.zeros(D.shape, dtype=bool)
    mesh = src.mesh
    for ci in range(len(mesh.cells)):
        cverts = tuple(int(v) for v in mesh.cells[ci])
        src_blocks, dst_blocks = (cell_blocks(s.el, mesh, ci) for s in (src, dst))
        shapes = shape_basis(src.el, mesh.cell_simplex(ci))
        M = np.array([reference_dof_values(src_blocks, cverts, b) for b in shapes]).T
        A = np.array([reference_dof_values(dst_blocks, cverts, fmap(b.as_float()))
                      for b in shapes]).T
        Dloc = A @ np.linalg.inv(M)
        rows, cols = dst.cell_global[ci], src.cell_global[ci]
        block = ~filled[np.ix_(rows, cols)]
        D[np.ix_(rows, cols)] = np.where(block, Dloc, D[np.ix_(rows, cols)])
        filled[np.ix_(rows, cols)] = True
    return D


def reference_numbering(el, mesh):
    """(cell_global, dim) numbered by first appearance of the realised DoFs.

    Every cell realises the blocks of its subsimplices (one realisation per
    subsimplex, shared by its cells) and of its interior; a DoF is a
    (block object, position) pair, numbered at its first appearance in cell
    order.  The blocks stay referenced, so no object id is reused.
    """
    shared, kept, gid = {}, [], {}
    cell_global = []
    for ci in range(len(mesh.cells)):
        cverts = tuple(int(v) for v in mesh.cells[ci])
        blocks = []
        for d in range(el.n):
            for everts in combinations(cverts, d + 1):
                idx = mesh.simplex_id(everts)
                if (d, idx) not in shared:
                    shared[(d, idx)] = entity_blocks(el, mesh, d, idx)
                blocks += shared[(d, idx)]
        blocks += entity_blocks(el, mesh, el.n, ci)
        kept.append(blocks)
        cell_global.append(np.array([gid.setdefault((id(b), t), len(gid))
                                     for b in blocks for t in range(b.size)], dtype=int))
    return cell_global, len(gid)


def reference_dof_lookup(space):
    """{(entity dim, entity id): [(global index, label), ...]} from a walk of
    every cell's ``cell_dofs`` against its ``cell_global``, each global DoF
    at its first appearance; an interior DoF's entity id is its cell."""
    table, seen = {}, set()
    for ci in range(len(space.mesh.cells)):
        for dof, gi in zip(cell_dofs(space.el, space.mesh, ci), space.cell_global[ci]):
            if gi in seen:
                continue
            seen.add(gi)
            d = dof.entity_dim
            idx = space.mesh.simplex_id(dof.entity_verts) if d < space.mesh.dim else ci
            table.setdefault((d, idx), []).append((int(gi), dof.label))
    return table


def reference_gather(space, values):
    """Global DoF values from values stacked over cells, cell by cell: the
    first cell to reach a global DoF sets it."""
    out = np.zeros((space.dim,) + values.shape[2:])
    seen = np.zeros(space.dim, dtype=bool)
    for ci, vals in enumerate(values):
        gidx = space.cell_global[ci]
        new = ~seen[gidx]
        out[gidx[new]] = vals[new]
        seen[gidx] = True
    return out


def reference_broken(space, p):
    """The global dual functions' degree-p coefficients placed cell by cell:
    each cell's dual fields, lifted to degree p, in its row block."""
    el = space.el
    lift = np.kron(np.eye(math.comb(el.n, el.k)), elevation(el.n + 1, el.p, p))
    mat = np.zeros((len(space.mesh.cells) * len(lift), space.dim))
    for ci, fields in enumerate(space.fields):
        block = fields if p == el.p else lift @ fields
        mat[ci * len(lift):(ci + 1) * len(lift), space.cell_global[ci]] = block
    return mat


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
