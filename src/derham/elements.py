"""Local element definitions: shape spaces, DoF plans and rows, unisolvence.

Families are indexed by a smoothness grade r (0 = classical Lagrange /
Nedelec second kind / BDM / DG, 1 = Hermite-grade vertex continuity,
2 = second-order vertex continuity), plus 'hz' for the edge-continuous
H(div) element in 3D and 'minus' for the trimmed (first-kind) H(div) space.

Shape bases, DoF rows, dual bases and bubble spans are coefficient arrays
(see ``forms``).  DoFs come in two steps.  ``dof_plan`` says, without any
geometry, what every d-simplex carries: an ordered list of DoF groups, each
a label, a kind (point value or moment), a proxy weight and derivative
directions, a test spec and a size.  Sizes and labels, hence the global
numbering, come from the plan alone.  ``block_rows`` realises the plan on a
stack of cells as rows over their coefficients, one stacked product per
entity dimension and group over all slots of that dimension.  All moment
DoFs are normalized by the measure of their subsimplex, and every integral
uses the closed barycentric formula.  Shared DoFs are generated from global
mesh data only, so two cells sharing a face produce identical functionals
and assembly needs no sign fixes.  A DoF matrix is one cell's rows times its
shape coefficients; its inverse gives the dual basis, one coefficient array
per native degree, which ``export`` prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np

from .forms import (_bernstein_block, _exponent_index, bernstein_tests, derivative_matrix,
                    dim_full, dim_trimmed, eval_row, exponent_array, exterior_derivative_matrix,
                    jet_rows, moment_rows, monomials, nullspace, proxy_matrix, rank_of,
                    trace_matrix, trimmed_coeffs)
from .mesh import SimplicialMesh, interval_mesh, reference_tet, reference_triangle

UNISOLVENCE_TOL = 1e-6
KRONECKER_TOL = 1e-8


# ---------------------------------------------------------------------------
# element definitions
# ---------------------------------------------------------------------------

_P_MIN = {
    # (r, k, n): minimal polynomial degree
    (0, 0, 1): 1, (0, 1, 1): 0,
    (1, 0, 1): 3, (1, 1, 1): 1,
    (2, 0, 1): 5, (2, 1, 1): 3,
    (0, 0, 2): 1, (0, 1, 2): 1, (0, 2, 2): 0,
    (1, 0, 2): 3, (1, 1, 2): 1, (1, 2, 2): 0,
    (2, 0, 2): 5, (2, 1, 2): 3, (2, 2, 2): 1,
    (0, 0, 3): 1, (0, 1, 3): 1, (0, 2, 3): 1, (0, 3, 3): 0,
    (1, 0, 3): 3, (1, 1, 3): 1, (1, 2, 3): 1, (1, 3, 3): 0,
    (2, 0, 3): 5, (2, 1, 3): 4, (2, 2, 3): 1, (2, 3, 3): 0,
    ("hz", 2, 3): 2,
    ("minus", 2, 3): 1,
}

_LABELS = {
    (0, 0): "lagrange", (0, 1): "nedelec2/bdm", (0, 2): "bdm", (0, 3): "dg",
    (1, 0): "hermite", (1, 1): "vertex-continuous vector", (1, 2): "bdm", (1, 3): "dg",
    (2, 0): "second-order vertex scalar", (2, 1): "derivative-continuous vector",
    (2, 2): "vertex-continuous hdiv", (2, 3): "dg",
    ("hz", 2): "edge-continuous hdiv", ("minus", 2): "trimmed hdiv",
}


@dataclass(frozen=True)
class ElementDef:
    r: object
    p: int
    k: int
    n: int

    @property
    def label(self):
        if self.n == 1 and self.r in (0, 1, 2):
            return {(0, 0): "lagrange", (0, 1): "dg",
                    (1, 0): "hermite", (1, 1): "lagrange",
                    (2, 0): "second-order vertex scalar", (2, 1): "hermite"}[(self.r, self.k)]
        if self.k == self.n:
            if self.r == 2 and self.n == 2:
                return "vertex-continuous dg"
            return "dg"
        return _LABELS.get((self.r, self.k), f"r{self.r} k{self.k}")

    @property
    def local_dim(self):
        if self.r == "minus":
            return dim_trimmed(self.n, self.p, self.k)
        return dim_full(self.n, self.p, self.k)


def element_def(r, p, k, n):
    """Validate and return an element definition for the (r, p, k, n) family."""
    if n not in (1, 2, 3):
        raise ValueError(f"dimension {n} not supported")
    if k < 0 or k > n:
        raise ValueError(f"form degree k={k} invalid in dimension {n}")
    key = (r, k, n)
    if key not in _P_MIN:
        raise ValueError(f"no family r={r}, k={k} in dimension {n}")
    if p < _P_MIN[key]:
        raise ValueError(
            f"family r={r}, k={k}, n={n} requires p >= {_P_MIN[key]} (got p={p})")
    return ElementDef(r, p, k, n)


def p_min(r, k, n):
    return _P_MIN[(r, k, n)]


# ---------------------------------------------------------------------------
# DoF plans: what every entity carries, without geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DofGroup:
    """DoFs of one kind on one entity, as a geometry-free plan entry.

    ``kind`` is "point" (the value at the vertex) or "moment" (measure-
    normalized moments on the entity, the cell for interior groups, against
    the test forms of the spec ``test``).  Before either, the vector proxy is
    contracted with ``weight`` and the form differentiated along
    ``directions``; a weight or direction is an axis index or ("normal", i),
    the i-th normal of the entity's frame.  ``degrees`` holds each DoF's test
    degree (None for a point value), so ``size`` is its length.
    """
    label: str
    kind: str
    test: tuple = None
    weight: object = None
    directions: tuple = ()
    degrees: tuple = (None,)

    @property
    def size(self):
        return len(self.degrees)


def _test_degrees(spec):
    """Polynomial degree of each test form of a spec, in order.

    Specs: ("monomial", d, deg, k, key), the forms lambda^a dy_K of the
    key-th k-axis tuple K; ("vertex-vanishing", d, deg), the scalar
    monomials of degree deg that vanish at every vertex; ("bernstein", d, q,
    k), the Bernstein k-forms of degree q; ("trimmed", d, p, k), the basis of
    ``trimmed_coeffs``.
    """
    kind, d, deg = spec[:3]
    if deg < 0 or (kind == "trimmed" and deg < 1):
        return ()
    if kind == "monomial":
        return (deg,) * math.comb(deg + d, d)
    if kind == "vertex-vanishing":
        return (deg,) * sum(max(a) < deg for a in monomials(d + 1, deg))
    if kind == "bernstein":
        return (deg,) * (math.comb(d, spec[3]) * math.comb(deg + d, d))
    k = spec[3]
    if k == 0:
        return (deg,) * dim_full(d, deg, 0)
    lower = dim_full(d, deg - 1, k)
    return (deg - 1,) * lower + (deg,) * (dim_trimmed(d, deg, k) - lower)


def _test_blocks(spec, grads):
    """The test forms of a spec as (k, q, rows) blocks of one degree each, in
    the order of ``_test_degrees``; trimmed tests are built on the domain
    whose barycentric gradients are ``grads``."""
    kind, d = spec[:2]
    if kind == "monomial":
        _, _, deg, k, key = spec
        n = math.comb(deg + d, d)
        return ((k, deg, np.eye(math.comb(d, k) * n)[key * n:(key + 1) * n]),)
    if kind == "vertex-vanishing":
        deg = spec[2]
        keep = [i for i, a in enumerate(monomials(d + 1, deg)) if max(a) < deg]
        return ((0, deg, np.eye(math.comb(deg + d, d))[keep]),)
    if kind == "bernstein":
        return tuple(bernstein_tests(d, spec[3], spec[2]))
    return tuple(trimmed_coeffs(grads, *spec[2:])[1])


@lru_cache(maxsize=None)
def dof_plan(el, d):
    """The DoF groups of every d-simplex (of the cell for d == n), in order."""
    r, p, k, n = el.r, el.p, el.k, el.n
    axes = range(n)
    normals = [("normal", i) for i in range(n - 1)]

    def point(label, weight=None, directions=()):
        return DofGroup(label, "point", None, weight, directions)

    def moment(label, test, weight=None, directions=()):
        return DofGroup(label, "moment", test, weight, directions, _test_degrees(test))

    def mono(deg, k=0, key=0):
        return ("monomial", d, deg, k, key)

    out = []
    if d == 0:
        if k == 0:
            if r in (0, 1, 2):
                out.append(point("vertex-value"))
            if r in (1, 2):
                out += [point(f"vertex-d{i}", directions=(i,)) for i in axes]
            if r == 2:
                out += [point(f"vertex-d{i}{j}", directions=(i, j))
                        for i, j in combinations_with_replacement(axes, 2)]
        elif k == 1 and r in (1, 2):
            out += [point(f"vertex-c{i}", weight=i) for i in axes]
            if r == 2:
                out += [point(f"vertex-c{i}d{j}", weight=i, directions=(j,))
                        for i in axes for j in axes]
        elif k == n - 1 and n == 3 and r in (2, "hz"):
            out += [point(f"vertex-c{i}", weight=i) for i in axes]
        elif k == n and r == 2 and n == 2:
            out.append(point("vertex-value", weight=0))
    elif d == 1 and d < n:
        if k == 0:
            if r in (0, 1):
                out.append(moment("edge-moment", mono(p - 2 if r == 0 else p - 4)))
            elif r == 2:
                out += [moment(f"edge-nderiv{i}", mono(p - 5), directions=(nu,))
                        for i, nu in enumerate(normals)]
                out.append(moment("edge-moment", mono(p - 6)))
        elif k == 1:
            if r in (0, 1):
                out.append(moment("edge-trace", mono(p if r == 0 else p - 2)))
            elif r == 2:
                out += [moment(f"edge-c{i}", mono(p - 4), weight=i) for i in axes]
        elif k == 2 and r == "hz":
            out += [moment(f"edge-normal{i}", mono(p - 2), weight=nu)
                    for i, nu in enumerate(normals)]
    elif d == 2 and d < n:
        # faces of tetrahedra
        if k == 0:
            out.append(moment("face-moment", mono({0: p - 3, 1: p - 3, 2: p - 6}[r])))
        elif k == 1:
            if r in (0, 1):
                out.append(moment("face-trace", ("trimmed", 2, p - 1, 1)))
            elif r == 2:
                out += [moment(f"face-t{axis}", mono(p - 3, k=1, key=axis)) for axis in range(2)]
        elif k == 2:
            if r in (0, 1, "minus"):
                test = mono(p if r in (0, 1) else p - 1)
            elif r == 2:
                test = ("vertex-vanishing", 2, p)   # pure vertex monomials are nodal
            else:
                test = mono(p - 3)
            out.append(moment("face-normal", test))
    elif k == 1 and n == 2 and r == 2:
        out += [moment(f"interior-c{i}", mono(p - 3), weight=i) for i in axes]
    else:
        # cell-interior moments (d == n)
        if k == 0:
            if r == 0:
                test = mono(p - n - 1)
            elif r == 1:
                test = mono(p - 3 if n == 2 else p - 4)
            else:
                test = mono(p - 6 if n <= 2 else p - 4)
        elif k == n and n == 1:
            test = mono({0: p, 1: p - 2, 2: p - 4}[r])
        elif k == n:
            test = ("vertex-vanishing", 2, p) if r == 2 and n == 2 else mono(p)
        elif k == 1 and n == 2:
            test = ("trimmed", 2, p - 1, 1)
        elif k == 1 and n == 3:
            test = ("trimmed", 3, p - 2, 2)
        elif k == 2 and n == 3 and r == "minus":
            test = ("bernstein", 3, p - 2, 1)
        else:
            test = ("trimmed", 3, p - 1, 1)
        out.append(moment("interior", test))
    return tuple(g for g in out if g.size)


@dataclass(frozen=True)
class DoF:
    """One local DoF as the plan lays it out: entity, label and test degree."""
    entity_dim: int
    entity_verts: tuple
    label: str
    shared: bool
    test_degree: int = None


def cell_dofs(el, mesh, ci):
    """The cell's local DoFs in order: entity blocks by dimension, then entity
    (ascending vertex tuples), the interior last.  Read from the plan; nothing
    is realised."""
    cverts = tuple(int(v) for v in mesh.cells[ci])
    return [DoF(d, everts, g.label, d < el.n, deg)
            for d in range(el.n + 1) for everts in combinations(cverts, d + 1)
            for g in dof_plan(el, d) for deg in g.degrees]


# ---------------------------------------------------------------------------
# DoF rows: the plan realised on a stack of cells
# ---------------------------------------------------------------------------

def _moments(mesh, d, g, ents, k, p):
    """Group g's moment rows over degree-p k-forms on the d-simplices
    ``ents`` (cells, slots): one block for all, or one per entity where the
    tests are trimmed, built for the distinct entities in one stack."""
    grads = None
    if g.test[0] == "trimmed":
        uniq, inv = np.unique(ents, return_inverse=True)
        grads = mesh.bary_grads[uniq] if d == mesh.dim else mesh.chart_grads(d, uniq)
    blocks = [moment_rows(d, t, k, p) for t in _test_blocks(g.test, grads)]
    rows = np.concatenate([np.broadcast_to(b, np.shape(grads)[:-2] + b.shape[-2:])
                           for b in blocks], axis=-2)
    if rows.shape[-2] != g.size:
        raise RuntimeError(f"{g.label} block on a {d}-simplex has {rows.shape[-2]} "
                           f"DoFs; the plan has {g.size}")
    return rows if grads is None else rows[inv.reshape(ents.shape)]


def block_rows(el, mesh, cells, p):
    """The local DoFs of a stack of cells as rows over their degree-p
    coefficients: shape (len(cells), DoFs, coefficients), DoFs in the order
    of ``cell_dofs``.

    Every (entity dimension, plan group) is one stacked product over the
    cells and their slots of that dimension: the group's point values or
    its moment rows (``_moments``), times the proxy, derivative and trace
    maps of every (cell, slot).  Each row is a row-times-matrix product of
    its own, so it has the bits it has when its cell is taken alone.
    """
    cells = np.asarray(cells, dtype=int)
    n, out = el.n, []
    inverse = mesh.bary_inverse[cells][:, None]
    grads = inverse[..., 1:, :].swapaxes(-1, -2)
    for d in range(n + 1):
        ents = mesh.cell_entities[d][cells] if d < n else cells[:, None]

        def vector(w):
            return np.eye(n)[w] if isinstance(w, int) else mesh.frames(d).normals[ents, w[1]]

        blocks = []
        for g in dof_plan(el, d):
            k, q, maps = el.k, p, []
            if g.weight is not None:
                maps.append(proxy_matrix(n, k, vector(g.weight), q))
                k = 0
            for direction in g.directions:
                maps.append(derivative_matrix(grads, vector(direction), k, q))
                q -= 1
            if g.kind == "point":
                rows = eval_row(inverse, mesh.vertices[mesh.cells[cells]], q)[..., None, :]
            else:
                rows = _moments(mesh, d, g, ents, k, q)
                if d < n:
                    maps.append(trace_matrix(n, list(combinations(range(n + 1), d + 1)), k, q,
                                             mesh.frames(d).tangents[ents] if k else None))
            for step in reversed(maps):
                rows = (rows[..., None, :] @ step[..., None, :, :])[..., 0, :]
            blocks.append(np.broadcast_to(rows, ents.shape + rows.shape[-2:]))
        if blocks:
            out.append(np.concatenate(blocks, axis=2).reshape(len(cells), -1, rows.shape[-1]))
    return np.concatenate(out, axis=1)


def single_cell_mesh(simplex_vertices):
    """The mesh of one simplex, its vertices in the given order."""
    verts = np.asarray(simplex_vertices, float)
    return SimplicialMesh(verts, [tuple(range(len(verts)))])


def shape_coeffs(el, grads):
    """Coefficient columns of the shape basis on the simplices with
    barycentric gradients ``grads`` (..., n+1, n).

    The full Bernstein basis is the monomial basis scaled by multinomials,
    one matrix for every cell; the trimmed basis is one stacked
    ``trimmed_coeffs``.
    """
    if el.r != "minus":
        return _bernstein_block(el.n, el.k, el.p, el.p)
    return trimmed_coeffs(grads, el.p, el.k)[0]


def dof_matrix(el, simplex_vertices):
    """The square DoF-by-shape matrix on one simplex, and the DoFs."""
    mesh = single_cell_mesh(simplex_vertices)
    M = block_rows(el, mesh, [0], el.p)[0] @ shape_coeffs(el, mesh.bary_grads[0])
    return M, cell_dofs(el, mesh, 0)


def unisolvence_check(el, simplex_vertices):
    """Full-rank test of the DoF matrix; fail is a result, not an error.

    Rows are equilibrated to unit sup norm first: each DoF functional is only
    defined up to a nonzero factor, and mixing point derivatives with moments
    otherwise skews the singular-value ratio for no structural reason.
    """
    M, dofs = dof_matrix(el, simplex_vertices)
    report = {
        "family": (el.r, el.p, el.k, el.n),
        "n_dofs": len(dofs),
        "dim_shape": el.local_dim,
        "square": len(dofs) == el.local_dim,
    }
    if M.size:
        rownorm = np.abs(M).max(axis=1)
        if np.any(rownorm == 0.0):
            report.update(sigma_max=0.0, sigma_min=0.0, sigma_ratio=0.0, rank=0,
                          **{"pass": False})
            return report
        M = M / rownorm[:, None]
    sv = np.linalg.svd(M, compute_uv=False) if M.size else np.array([])
    report["sigma_max"] = float(sv[0]) if sv.size else 0.0
    report["sigma_min"] = float(sv[-1]) if sv.size else 0.0
    report["sigma_ratio"] = report["sigma_min"] / report["sigma_max"] if sv.size else 0.0
    report["rank"] = int(np.sum(sv > UNISOLVENCE_TOL * sv[0])) if sv.size else 0
    report["pass"] = report["square"] and report["rank"] == el.local_dim
    return report


def dual_basis(el, simplex_vertices):
    """Basis dual to the DoFs (Kronecker property), as coefficients.

    Dual j is the sum over shape functions m of C[m, j] times shape function
    m at its native degree, accumulated in the order of m.  Returns
    ({degree: coefficients at that degree, one column per DoF}, DoFs,
    Kronecker residual).
    """
    M, dofs = dof_matrix(el, simplex_vertices)
    if len(dofs) != el.local_dim:
        raise ValueError("DoF count does not match shape dimension")
    C = np.linalg.inv(M)
    if el.r == "minus":
        grads = single_cell_mesh(simplex_vertices).bary_grads[0]
        shapes = trimmed_coeffs(grads, el.p, el.k)[1]
    else:
        shapes = bernstein_tests(el.n, el.k, el.p)
    sums = {}
    for m, (q, vec) in enumerate((q, vec) for _, q, T in shapes for vec in T):
        acc = sums.setdefault(q, np.zeros((len(vec), len(dofs))))
        nz = np.flatnonzero(vec)
        acc[nz] += vec[nz, None] * C[m]
    resid = np.abs(M @ C - np.eye(len(dofs))).max()
    if resid > KRONECKER_TOL:
        raise RuntimeError(f"dual basis residual {resid:.2e} exceeds tolerance")
    return sums, dofs, resid


def dual_export_lines(el, duals):
    """The ``export`` text of ``dual_basis``'s coefficients.

    Per dual: a header naming (n, k, p), then "component | exponent |
    coefficient" for every nonzero term, components numbered in sorted
    order among the dual's nonzero ones, exponents of every degree sorted
    together within a component.
    """
    keys = list(combinations(range(el.n), el.k))
    terms = [(key, a) for q in duals for key in keys for a in monomials(el.n + 1, q)]
    order = sorted(range(len(terms)), key=terms.__getitem__)
    labels = [(terms[i][0], ",".join(map(str, terms[i][1]))) for i in order]
    lines = []
    for col in np.vstack(list(duals.values()))[order].T.tolist():
        lines.append(f"# form n={el.n} k={el.k} p={el.p}")
        comp, last = -1, None
        for (key, alpha), c in zip(labels, col):
            if c != 0:
                comp, last = comp + (key != last), key
                lines.append(f"{comp} | {alpha} | {c:.17g}")
    return lines


# ---------------------------------------------------------------------------
# smoothness conditions (the finite-element-systems view: a space is the
# kernel of its continuity conditions on broken polynomials)
# ---------------------------------------------------------------------------

def smoothness_rows(mesh, k, p, orders=(), normal=False, clamp=False):
    """Continuity conditions on broken degree-p k-forms, as rows over every
    cell's coefficients in turn (the column layout of ``GlobalSpace.broken``).

    On every interior facet, the trace on the first coface minus that on the
    second, and with ``normal`` (k = 0) the same for the traces of the normal
    derivative.  At every vertex, the jets of the given ``orders`` (k = 0)
    on each later coface minus those on the first.  With ``clamp``, the first
    coface's own rows on every boundary facet and vertex as well, so that
    the kernel vanishes there to those orders.
    """
    n = mesh.dim
    size = math.comb(n, k) * math.comb(p + n, n)
    cverts, rows = mesh.cells.tolist(), []

    def facet(ci, e):
        vmap = [cverts[ci].index(v) for v in mesh.skeleton[n - 1][e]]
        out = trace_matrix(n, vmap, k, p, mesh.frames(n - 1).tangents[e] if k else None)
        if normal:
            nu = mesh.frames(n - 1).normals[e, 0]
            out = np.vstack([out, trace_matrix(n, vmap, 0, p - 1)
                             @ derivative_matrix(mesh.bary_grads[ci], nu, 0, p)])
        return out

    def vertex(ci, e):
        point = mesh.vertices[mesh.skeleton[0][e][0]]
        return np.vstack([jet_rows(mesh.bary_inverse[ci], point, p, o) for o in orders])

    def place(*terms):
        rows.append(np.zeros((len(terms[0][1]), len(mesh.cells) * size)))
        for ci, block in terms:
            rows[-1][:, ci * size:(ci + 1) * size] = block

    for d, rows_on in [(n - 1, facet)] + [(0, vertex)] * bool(orders):
        for e, cof in enumerate(mesh.cofaces[d]):
            first, *later = [(ci, rows_on(ci, e)) for ci in cof]
            for ci, block in later:
                place(first, (ci, -block))
            if clamp and mesh.boundary[d][e]:
                place(first)
    return np.vstack(rows) if rows else np.zeros((0, len(mesh.cells) * size))


# ---------------------------------------------------------------------------
# bubbles
# ---------------------------------------------------------------------------

def tangential_bubble_span(grads, p):
    """Spanning set q * (product of three barycentrics) * nu_i on the
    tetrahedron with barycentric gradients ``grads`` (4, 3), as degree-p
    coefficient columns.

    nu_i = grads[i] / |grads[i]| is the unit normal of the face opposite
    vertex i.  The span equals the full tangential-trace-free subspace;
    callers reduce it to a basis.
    """
    if grads.shape != (4, 3):
        raise ValueError("tangential bubbles live on tetrahedra")
    lifts, index = exponent_array(4, p - 3), _exponent_index(4, p)
    out = np.zeros((3, len(index), 4, len(lifts)))
    for i, g in enumerate(grads):
        rows = [index[tuple(a)] for a in lifts + 1 - np.eye(4, dtype=int)[i]]
        out[:, rows, i, range(len(lifts))] = (g / np.linalg.norm(g))[:, None]
    return out.reshape(3 * len(index), -1)


def zero_trace_dim(mesh, p, k):
    """Dimension of {u in P_p Lambda^k(cell): vanishing boundary traces}.

    On the single cell of ``mesh``, the trace onto every boundary facet must
    vanish.  Returns (dimension, nullspace basis as coefficient columns).
    """
    ns = nullspace(smoothness_rows(mesh, k, p, clamp=True))
    return ns.shape[1], ns


# ---------------------------------------------------------------------------
# vertex jet sequences and subsimplex bubble counts
# ---------------------------------------------------------------------------

def jet_complex_ranks(n, r):
    """Exactness of the vertex jet sequence of order r = 1, 2 in dimension n.

    A jet of order r at a vertex is a Taylor polynomial of degree r, so the
    sequence is d on P_r Lambda^0 -> P_{r-1} Lambda^1 (-> P_{r-2} Lambda^2
    for r = 2) of the reference n-simplex; a form degree above n is the zero
    space.  ``dims`` lead with the constants and end with the 2-form slot.
    """
    if r not in (1, 2):
        raise ValueError("jet sequences defined for r = 1, 2")
    grads = np.vstack([-np.ones(n), np.eye(n)])
    mats = [exterior_derivative_matrix(grads, k, r - k, r - k - 1) if k < n
            else np.zeros((0, math.comb(n, k) * math.comb(r - k + n, n))) for k in range(r)]
    ranks = [rank_of(m) for m in mats]
    nullities = [m.shape[1] - rk for m, rk in zip(mats, ranks)]
    prod = mats[1] @ mats[0] if r == 2 else np.zeros(0)
    return {
        "dims": [1, mats[0].shape[1]] + [m.shape[0] for m in mats] + [0] * (2 - r),
        "ranks": ranks,
        "kernel_first": nullities[0],
        "composition_max": float(np.abs(prod).max()) if prod.size else 0.0,
        "exact": (nullities[0] == 1 and all(nl == rk for nl, rk in zip(nullities[1:], ranks))
                  and ranks[-1] == mats[-1].shape[0]),
    }


def subsimplex_bubble_dims(n, r, p):
    """Bubble-sequence dimension report for edges, faces and interiors.

    Dimensions come from explicit trace-constraint ranks (the oracle): the
    kernel of ``smoothness_rows`` clamped on one cell, with vertex jets up
    to order s, normal derivatives on the faces' edges, and a zero-mean row
    on edges where asked.  The report also carries the closed-form counts
    so callers can assert the alternating-sum exactness identities.
    """
    def bubbles(mesh, q, k=0, s=-1, normal=False, zero_mean=False):
        if q < 0:
            return 0
        rows = [smoothness_rows(mesh, k, q, range(s + 1), normal, clamp=True)]
        if zero_mean:
            rows.append(moment_rows(1, (0, 0, np.ones((1, 1))), 0, q))
        return nullspace(np.vstack(rows)).shape[1]

    out = {"edge": {}, "face": {}, "interior": {}}
    edge = interval_mesh(1)
    if r == 2:
        val = bubbles(edge, p, s=2)
        nder = bubbles(edge, p - 1, s=1)
        tang = bubbles(edge, p - 1, s=1, zero_mean=True)
        dim0 = val + (n - 1) * nder
        dim1 = tang + (n - 1) * nder
        out["edge"] = {"dim0": dim0, "dim1": dim1,
                       "formula0": max(p - 5, 0) + (n - 1) * max(p - 4, 0),
                       "formula1": n * (p - 4) - 1 if p >= 5 else 0,
                       "exact": dim0 == dim1}
    elif r == 1:
        val = bubbles(edge, p, s=1)
        tang = bubbles(edge, p - 1, s=0, zero_mean=True)
        out["edge"] = {"dim0": val, "dim1": tang,
                       "formula0": max(p - 3, 0),
                       "formula1": p - 3 if p >= 3 else 0,
                       "exact": val == tang}
    if n >= 2:
        tri = reference_triangle()
        if r == 1:
            d0, d1 = bubbles(tri, p), bubbles(tri, p - 1, 1)
            d2 = dim_full(2, p - 2, 2) - 1
        else:
            d0 = bubbles(tri, p, s=2, normal=True)
            d1 = 2 * bubbles(tri, p - 1, s=1)
            d2 = dim_full(2, p - 2, 2) - 3 - 1
        out["face"] = {"dims": [d0, d1, d2], "alternating": d0 - d1 + d2}
    if n >= 3:
        tet = reference_tet()
        b0, b1, b2 = (bubbles(tet, p - k, k) for k in range(3))
        b3 = dim_full(3, p - 3, 3) - 1
        out["interior"] = {"dims": [b0, b1, b2, b3],
                           "alternating": b0 - b1 + b2 - b3}
    return out
