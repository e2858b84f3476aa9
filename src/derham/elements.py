"""Local element definitions: shape spaces, DoF functionals, unisolvence.

Families are indexed by a smoothness grade r (0 = classical Lagrange /
Nedelec second kind / BDM / DG, 1 = Hermite-grade vertex continuity,
2 = second-order vertex continuity), plus 'hz' for the edge-continuous
H(div) element in 3D and 'minus' for the trimmed (first-kind) H(div) space.

All moment DoFs are normalized by the measure of their subsimplex, and
every integral uses the closed barycentric formula.  A DoF is evaluated as a
float row over the cell's coefficient space (``DoF.row``), so DoF matrices
are matrix products.  A moment's test form is a coefficient vector; trimmed
test spaces come from ``forms.trimmed_coeffs``.  DoFs attached to a shared
subsimplex are generated from global mesh data only, so two cells sharing a
face produce identical functionals and assembly needs no sign fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .forms import (FormPolynomial, Simplex, bernstein_tests, coeffs,
                    derivative_matrix, dim_full, dim_trimmed, eval_row,
                    form_from_coeffs, full_basis, jet_rows,
                    moment_row, monomials, multinomials, nullspace, poly_mul,
                    proxy_matrix, restriction_matrix, trimmed_basis, trimmed_coeffs)
from .mesh import SimplicialMesh

UNISOLVENCE_TOL = 1e-6
KRONECKER_TOL = 1e-8


# ---------------------------------------------------------------------------
# DoF functionals
# ---------------------------------------------------------------------------

@dataclass
class DoF:
    """A DoF functional attached to a subsimplex, as a row over coefficients.

    Every functional composes the same steps: contract the vector proxy with
    ``weight``, differentiate along ``directions``, trace onto ``sub`` (None
    keeps the cell), then evaluate at ``point`` or take the measure-normalized
    moment against the test form ``test``, held as (form degree, polynomial
    degree, coefficients).  Subclasses fix which steps apply; ``row`` turns
    them into one float row over the cell's degree-p coefficients.
    """
    entity_dim: int
    entity_verts: tuple
    klass: str
    shared: bool

    weight = None
    directions = ()
    sub = None
    point = None
    test = None

    def row(self, cell, cell_verts, k, p, maps=None):
        """Row of the functional over degree-p k-form coefficients on ``cell``.

        ``maps`` memoizes the coefficient-space maps across the DoFs of one
        cell; pass the same dict for every DoF of a block.
        """
        maps = {} if maps is None else maps

        def cached(key, build):
            if key not in maps:
                maps[key] = build()
            return maps[key]

        steps = []
        if self.weight is not None:
            steps.append(cached(("proxy", k, tuple(self.weight), p),
                                lambda: proxy_matrix(cell.dim, k, self.weight, p)))
            k = 0
        for direction in self.directions:
            steps.append(cached(("deriv", k, tuple(direction), p),
                                lambda: derivative_matrix(cell, direction, k, p)))
            p -= 1
        domain = cell
        if self.sub is not None:
            vmap = _vmap(self.entity_verts, cell_verts)
            steps.append(cached(("trace", id(self.sub), k, p),
                                lambda: restriction_matrix(cell, self.sub, vmap, k, p)))
            domain = self.sub
        if self.point is not None:
            out = eval_row(domain, self.point, p)
        else:
            out = moment_row(domain.dim, self.test, k, p)
        for step in reversed(steps):
            out = out @ step
        return out

    def apply(self, u, cell_verts):
        """Value of the functional on a form on the cell."""
        p = u.max_degree()
        return float(self.row(u.simplex, cell_verts, u.k, p) @ coeffs(u, p))


def dof_rows(dofs, cell, cell_verts, k, p):
    """Rows of a cell's DoF list stacked into a matrix."""
    maps = {}
    n = math.comb(p + cell.dim, cell.dim) * math.comb(cell.dim, k)
    return np.array([dof.row(cell, cell_verts, k, p, maps) for dof in dofs]).reshape(-1, n)


@dataclass
class PointEval(DoF):
    point: np.ndarray = None
    weight: np.ndarray = None   # None for scalars; proxy weight otherwise


@dataclass
class PointDeriv(DoF):
    point: np.ndarray = None
    directions: tuple = ()
    weight: np.ndarray = None


def _vmap(entity_verts, cell_verts):
    return [cell_verts.index(v) for v in entity_verts]


@dataclass
class ScalarMoment(DoF):
    """(1/|s|) * integral over s of (scalar u) * q, q a 0-form test."""
    sub: Simplex = None
    test: tuple = None


@dataclass
class NormalDerivMoment(ScalarMoment):
    """(1/|s|) * integral over s of (directional derivative of u) * q."""
    direction: np.ndarray = None

    @property
    def directions(self):
        return (self.direction,)


@dataclass
class ComponentMoment(ScalarMoment):
    """(1/|s|) * integral over s of (vector-proxy of u . weight) * q."""
    weight: np.ndarray = None


@dataclass
class TraceWedgeMoment(DoF):
    """(1/|s|) * integral over s of Tr(u) wedge eta, eta a test form on s."""
    sub: Simplex = None
    test: tuple = None


@dataclass
class CellWedgeMoment(DoF):
    """(1/|t|) * integral over the cell of u wedge eta (no restriction)."""
    test: tuple = None


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


def shape_basis(el, simplex):
    if el.r == "minus":
        return trimmed_basis(simplex, el.p, el.k)
    return full_basis(simplex, el.p, el.k)


def _monomial_tests(d, deg, k=0, key=0):
    """Test forms lambda^a dy_K on a d-simplex, one per monomial a of degree
    deg, K the key-th k-axis tuple, as (k, deg, coefficients) triples."""
    if deg < 0:
        return []
    n = math.comb(deg + d, d)
    units = np.eye(math.comb(d, k) * n)[key * n:(key + 1) * n]
    return [(k, deg, unit) for unit in units]


def _vertex_vanishing_tests(d, deg):
    """The scalar monomial tests of degree deg that vanish at every vertex."""
    return [t for t, a in zip(_monomial_tests(d, deg), monomials(d + 1, deg)) if max(a) < deg]


def _axes(n):
    return [np.eye(n)[i] for i in range(n)]


def entity_dofs(el, mesh, d, idx):
    """DoFs attached to one subsimplex; cell-interior blocks use d == n."""
    r, p, k, n = el.r, el.p, el.k, el.n
    everts = mesh.skeleton[d][idx]
    shared = d < n
    out = []

    if d == 0:
        v = int(everts[0])
        pt = mesh.vertices[v]
        if k == 0:
            if r in (0, 1, 2):
                out.append(PointEval(0, everts, "vertex-value", shared, point=pt))
            if r in (1, 2):
                for i, e in enumerate(_axes(n)):
                    out.append(PointDeriv(0, everts, f"vertex-d{i}", shared,
                                          point=pt, directions=(e,)))
            if r == 2:
                for (i, j) in combinations_with_replacement(range(n), 2):
                    ax = _axes(n)
                    out.append(PointDeriv(0, everts, f"vertex-d{i}{j}", shared,
                                          point=pt, directions=(ax[i], ax[j])))
        elif k == 1 and r in (1, 2):
            for i, e in enumerate(_axes(n)):
                out.append(PointEval(0, everts, f"vertex-c{i}", shared,
                                     point=pt, weight=e))
            if r == 2:
                for i, e in enumerate(_axes(n)):
                    for j, dj in enumerate(_axes(n)):
                        out.append(PointDeriv(0, everts, f"vertex-c{i}d{j}", shared,
                                              point=pt, directions=(dj,), weight=e))
        elif k == n - 1 and n == 3 and r in (2, "hz"):
            for i, e in enumerate(_axes(n)):
                out.append(PointEval(0, everts, f"vertex-c{i}", shared,
                                     point=pt, weight=e))
        elif k == n and r == 2 and n == 2:
            out.append(PointEval(0, everts, "vertex-value", shared,
                                 point=pt, weight=np.array([1.0])))
        return out

    if d < n:
        sub = mesh.sub_simplex(d, idx)
    else:
        sub = None

    if d == 1 and d < n:
        if k == 0:
            if r == 0:
                for t in _monomial_tests(1, p - 2):
                    out.append(ScalarMoment(1, everts, "edge-moment", shared, sub=sub, test=t))
            elif r == 1:
                for t in _monomial_tests(1, p - 4):
                    out.append(ScalarMoment(1, everts, "edge-moment", shared, sub=sub, test=t))
            elif r == 2:
                fr = mesh.frame(1, idx)
                for i, nu in enumerate(fr.normals):
                    for t in _monomial_tests(1, p - 5):
                        out.append(NormalDerivMoment(1, everts, f"edge-nderiv{i}", shared,
                                                     sub=sub, test=t, direction=nu))
                for t in _monomial_tests(1, p - 6):
                    out.append(ScalarMoment(1, everts, "edge-moment", shared, sub=sub, test=t))
        elif k == 1:
            if r in (0, 1):
                for t in _monomial_tests(1, p if r == 0 else p - 2):
                    out.append(TraceWedgeMoment(1, everts, "edge-trace", shared,
                                                sub=sub, test=t))
            elif r == 2:
                for i, e in enumerate(_axes(n)):
                    for t in _monomial_tests(1, p - 4):
                        out.append(ComponentMoment(1, everts, f"edge-c{i}", shared,
                                                   sub=sub, test=t, weight=e))
        elif k == 2 and r == "hz":
            fr = mesh.frame(1, idx)
            for i, nu in enumerate(fr.normals):
                for t in _monomial_tests(1, p - 2):
                    out.append(ComponentMoment(1, everts, f"edge-normal{i}", shared,
                                               sub=sub, test=t, weight=nu))
        return out

    if d == 2 and d < n:
        # faces of tetrahedra
        if k == 0:
            for t in _monomial_tests(2, {0: p - 3, 1: p - 3, 2: p - 6}[r]):
                out.append(ScalarMoment(2, everts, "face-moment", shared, sub=sub, test=t))
        elif k == 1:
            if r in (0, 1):
                for t in trimmed_coeffs(sub, p - 1, 1)[1]:
                    out.append(TraceWedgeMoment(2, everts, "face-trace", shared,
                                                sub=sub, test=t))
            elif r == 2:
                for axis in range(2):
                    for t in _monomial_tests(2, p - 3, k=1, key=axis):
                        out.append(TraceWedgeMoment(2, everts, f"face-t{axis}", shared,
                                                    sub=sub, test=t))
        elif k == 2:
            if r in (0, 1, "minus"):
                tests = _monomial_tests(2, p if r in (0, 1) else p - 1)
            elif r == 2:
                tests = _vertex_vanishing_tests(2, p)   # pure vertex monomials are nodal
            else:
                tests = _monomial_tests(2, p - 3)
            for t in tests:
                out.append(TraceWedgeMoment(2, everts, "face-normal", shared,
                                            sub=sub, test=t))
        return out

    # cell-interior DoFs (d == n); idx is the cell index, one block per cell
    cell = mesh.cell_simplex(idx)
    everts = tuple(int(v) for v in mesh.cells[idx])
    if k == 0:
        if r == 0:
            degq = p - n - 1
        elif r == 1:
            degq = p - 3 if n == 2 else p - 4
        else:
            degq = p - 6 if n <= 2 else p - 4
        tests = _monomial_tests(n, degq)
    elif k == n and n == 1:
        tests = _monomial_tests(1, {0: p, 1: p - 2, 2: p - 4}[r])
    elif k == n:
        tests = _vertex_vanishing_tests(2, p) if r == 2 and n == 2 else _monomial_tests(n, p)
    elif k == 1 and n == 2 and r == 2:
        return [_InteriorComponent(2, everts, f"interior-c{i}", False, test=t, weight=e)
                for i, e in enumerate(_axes(2)) for t in _monomial_tests(2, p - 3)]
    elif k == 1 and n == 2:
        tests = trimmed_coeffs(cell, p - 1, 1)[1]
    elif k == 1 and n == 3:
        tests = trimmed_coeffs(cell, p - 2, 2)[1]
    elif k == 2 and n == 3 and r == "minus":
        tests = bernstein_tests(3, 1, p - 2)
    elif k == 2 and n == 3:
        tests = trimmed_coeffs(cell, p - 1, 1)[1]
    return [CellWedgeMoment(n, everts, "interior", False, test=t) for t in tests]


@dataclass
class _InteriorComponent(ComponentMoment):
    """(1/|t|) * integral over the cell of (vector-proxy of u . weight) * q."""


def cell_dofs(el, mesh, ci, cache=None):
    """Ordered DoF list of a cell: entity blocks by dimension, then entity."""
    cverts = tuple(int(v) for v in mesh.cells[ci])
    out = []
    for d in range(el.n):
        for everts in combinations(cverts, d + 1):
            idx = mesh.simplex_id(everts)
            key = (el.r, el.p, el.k, d, idx)
            if cache is not None and key in cache:
                block = cache[key]
            else:
                block = entity_dofs(el, mesh, d, idx)
                if cache is not None:
                    cache[key] = block
            out.extend(block)
    out.extend(entity_dofs(el, mesh, el.n, ci))
    return out


def _single_cell_mesh(simplex_vertices):
    verts = np.asarray(simplex_vertices, float)
    return SimplicialMesh(verts, [tuple(range(len(verts)))])


def shape_coeffs(el, cell):
    """Coefficient columns of the shape basis ``shape_basis(el, cell)``.

    The full Bernstein basis is the monomial basis scaled by multinomials, the
    same matrix on every cell; the trimmed basis comes from ``trimmed_coeffs``.
    """
    if el.r == "minus":
        return trimmed_coeffs(cell, el.p, el.k)[0]
    return np.kron(np.eye(math.comb(el.n, el.k)), np.diag(multinomials(el.n + 1, el.p)))


def dof_matrix(el, simplex_vertices):
    """Square DoF-by-shape matrix on one simplex: DoF rows times shape coefficients."""
    mesh = _single_cell_mesh(simplex_vertices)
    cell = mesh.cell_simplex(0)
    dofs = cell_dofs(el, mesh, 0)
    cverts = tuple(int(v) for v in mesh.cells[0])
    M = dof_rows(dofs, cell, cverts, el.k, el.p) @ shape_coeffs(el, cell)
    return M, dofs, shape_basis(el, cell)


def unisolvence_check(el, simplex_vertices, tol=UNISOLVENCE_TOL):
    """Full-rank test of the DoF matrix; fail is a result, not an error.

    Rows are equilibrated to unit sup norm first: each DoF functional is only
    defined up to a nonzero factor, and mixing point derivatives with moments
    otherwise skews the singular-value ratio for no structural reason.
    """
    M, dofs, basis = dof_matrix(el, simplex_vertices)
    report = {
        "family": (el.r, el.p, el.k, el.n),
        "n_dofs": len(dofs),
        "dim_shape": len(basis),
        "square": len(dofs) == len(basis),
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
    report["rank"] = int(np.sum(sv > tol * sv[0])) if sv.size else 0
    report["pass"] = report["square"] and report["rank"] == len(basis)
    return report


def dual_basis(el, simplex_vertices):
    """Basis dual to the DoFs (Kronecker property), grouped by DoF class."""
    M, dofs, basis = dof_matrix(el, simplex_vertices)
    if len(dofs) != len(basis):
        raise ValueError("DoF count does not match shape dimension")
    C = np.linalg.inv(M)
    duals = []
    for j in range(len(dofs)):
        f = FormPolynomial(basis[0].simplex, el.k)
        for m, b in enumerate(basis):
            if C[m, j] != 0.0:
                f = f + b.as_float().scale(C[m, j])
        duals.append(f)
    resid = np.abs(M @ C - np.eye(len(dofs))).max()
    if resid > KRONECKER_TOL:
        raise RuntimeError(f"dual basis residual {resid:.2e} exceeds tolerance")
    return duals, dofs, resid


# ---------------------------------------------------------------------------
# bubbles
# ---------------------------------------------------------------------------

def tangential_bubble_span(simplex, p):
    """Spanning set q * (prod of three barycentrics) * nu_i on a tetrahedron.

    nu_i is the unit normal of the face opposite vertex i.  The span equals
    the full tangential-trace-free subspace; callers reduce it to a basis.
    """
    if simplex.dim != 3:
        raise ValueError("tangential bubbles live on tetrahedra")
    out = []
    grads = simplex.grad_bary_float()
    for i in range(4):
        others = [j for j in range(4) if j != i]
        nu = grads[i] / np.linalg.norm(grads[i])   # normal of face opposite i
        lam_prod = {}
        alpha = [0, 0, 0, 0]
        for j in others:
            alpha[j] = 1
        lam_prod[tuple(alpha)] = 1
        for a in monomials(4, p - 3):
            poly = poly_mul(lam_prod, {a: 1})
            comps = {}
            for axis in range(3):
                if nu[axis] != 0.0:
                    comps[(axis,)] = {e: c * nu[axis] for e, c in poly.items()}
            out.append(FormPolynomial(simplex, 1, comps))
    return out


def zero_trace_dim(mesh, p, k):
    """Dimension of {u in P_p Lambda^k(cell): vanishing boundary traces}.

    On the single cell of ``mesh``, the trace onto every boundary facet must
    vanish.  Returns (dimension, nullspace basis as coefficient columns).
    """
    cell = mesh.cell_simplex(0)
    n = mesh.dim
    cverts = tuple(int(v) for v in mesh.cells[0])
    A = np.vstack([restriction_matrix(cell, mesh.sub_simplex(n - 1, fi),
                                      [cverts.index(v) for v in everts], k, p)
                   for fi, everts in enumerate(mesh.skeleton[n - 1])])
    ns = nullspace(A)
    return ns.shape[1], ns


def bubble_basis(el, simplex_vertices):
    """Trace-free shape functions of an element on one simplex.

    The k=1 forms whose traces on every facet vanish (tangential in 3D,
    normal in 2D), as the kernel columns of ``zero_trace_dim``.
    """
    if el.k != 1 or el.n not in (2, 3):
        raise ValueError("bubble bases implemented for k=1 in dimensions 2 and 3")
    mesh = _single_cell_mesh(simplex_vertices)
    _, cols = zero_trace_dim(mesh, el.p, 1)
    return [form_from_coeffs(mesh.cell_simplex(0), 1, el.p, col) for col in cols.T]


def hcurl_bubble_dim_formula(p):
    """Closed form printed for the 3D tangential bubble space."""
    return (p ** 3 - 2 * p ** 2 - p + 2) // 2


# ---------------------------------------------------------------------------
# vertex jet sequences and subsimplex bubble counts
# ---------------------------------------------------------------------------

def jet_complex_ranks(n, r):
    """Symbol-matrix exactness of the vertex jet sequence in dimension n."""
    if r == 1:
        vars0 = ["u"] + [f"u{i}" for i in range(n)]
        vars1 = [f"w{i}" for i in range(n)]
        d0 = np.zeros((len(vars1), len(vars0)))
        for i in range(n):
            d0[i, 1 + i] = 1.0
        dims = [len(vars0), len(vars1), 0]
        mats = [d0]
    elif r == 2:
        pairs = list(combinations_with_replacement(range(n), 2))
        vars0 = ["u"] + [f"u{i}" for i in range(n)] + [f"u{i}{j}" for i, j in pairs]
        vars1 = [f"w{i}" for i in range(n)] + [f"w{i}_{j}" for i in range(n) for j in range(n)]
        vars2 = [f"v{i}{j}" for i, j in combinations(range(n), 2)]
        idx0 = {v: i for i, v in enumerate(vars0)}
        idx1 = {v: i for i, v in enumerate(vars1)}
        d0 = np.zeros((len(vars1), len(vars0)))
        for i in range(n):
            d0[idx1[f"w{i}"], idx0[f"u{i}"]] = 1.0
            for j in range(n):
                a, b = min(i, j), max(i, j)
                d0[idx1[f"w{i}_{j}"], idx0[f"u{a}{b}"]] = 1.0
        d1 = np.zeros((len(vars2), len(vars1)))
        for row, (i, j) in enumerate(combinations(range(n), 2)):
            d1[row, idx1[f"w{j}_{i}"]] = 1.0
            d1[row, idx1[f"w{i}_{j}"]] = -1.0
        dims = [len(vars0), len(vars1), len(vars2)]
        mats = [d0, d1]
    else:
        raise ValueError("jet sequences defined for r = 1, 2")

    ranks = [int(np.linalg.matrix_rank(m)) if m.size else 0 for m in mats]
    nullities = [m.shape[1] - rk for m, rk in zip(mats, ranks)]
    comp = 0.0
    if len(mats) == 2:
        prod = mats[1] @ mats[0]
        comp = float(np.abs(prod).max()) if prod.size else 0.0
    exact = nullities[0] == 1
    for s in range(1, len(mats)):
        exact = exact and nullities[s] == ranks[s - 1]
    onto = ranks[-1] == dims[len(mats)] if dims[len(mats)] else True
    exact = exact and onto
    return {
        "dims": [1] + dims,
        "ranks": ranks,
        "kernel_first": nullities[0],
        "composition_max": comp,
        "exact": exact,
    }


def _edge_value_bubble_dim(degree, vanish_order, zero_mean=False):
    """Rank oracle: polynomials on [0,1] vanishing to the given order at both ends."""
    if degree < 0:
        return 0
    edge = Simplex([[0.0], [1.0]])
    rows = [jet_rows(edge, x, degree, order)
            for x in (np.array([0.0]), np.array([1.0]))
            for order in range(vanish_order + 1)]
    if zero_mean:
        rows.append(moment_row(1, (0, 0, np.ones(1)), 0, degree)[None, :])
    return nullspace(np.vstack(rows)).shape[1]


def subsimplex_bubble_dims(n, r, p):
    """Bubble-sequence dimension report for edges, faces and interiors.

    Dimensions come from explicit trace-constraint ranks (the oracle); the
    report also carries the closed-form counts so callers can assert the
    alternating-sum exactness identities.
    """
    out = {"edge": {}, "face": {}, "interior": {}}
    if r == 2:
        val = _edge_value_bubble_dim(p, 2)
        nder = _edge_value_bubble_dim(p - 1, 1)
        tang = _edge_value_bubble_dim(p - 1, 1, zero_mean=True)
        dim0 = val + (n - 1) * nder
        dim1 = tang + (n - 1) * _edge_value_bubble_dim(p - 1, 1)
        out["edge"] = {"dim0": dim0, "dim1": dim1,
                       "formula0": max(p - 5, 0) + (n - 1) * max(p - 4, 0),
                       "formula1": n * (p - 4) - 1 if p >= 5 else 0,
                       "exact": dim0 == dim1}
    elif r == 1:
        val = _edge_value_bubble_dim(p, 1)
        tang = _edge_value_bubble_dim(p - 1, 0, zero_mean=True)
        out["edge"] = {"dim0": val, "dim1": tang,
                       "formula0": max(p - 3, 0),
                       "formula1": p - 3 if p >= 3 else 0,
                       "exact": val == tang}
    if n >= 2:
        from .mesh import reference_triangle
        tri = reference_triangle()
        if r == 1:
            d0, _ = zero_trace_dim(tri, p, 0)
            d1, _ = zero_trace_dim(tri, p - 1, 1)
            d2 = dim_full(2, p - 2, 2) - 1
            out["face"] = {"dims": [d0, d1, d2], "alternating": d0 - d1 + d2}
        else:
            d0 = _scalar_face_bubble_dim(tri, p, vertex_order=2, edge_normal=True)
            d1 = 2 * _scalar_face_bubble_dim(tri, p - 1, vertex_order=1, edge_normal=False)
            d2 = dim_full(2, p - 2, 2) - 3 - 1
            out["face"] = {"dims": [d0, d1, d2], "alternating": d0 - d1 + d2}
    if n >= 3:
        from .mesh import reference_tet
        tet = reference_tet()
        b0, _ = zero_trace_dim(tet, p, 0)
        b1, _ = zero_trace_dim(tet, p - 1, 1)
        b2, _ = zero_trace_dim(tet, p - 2, 2)
        b3 = dim_full(3, p - 3, 3) - 1
        out["interior"] = {"dims": [b0, b1, b2, b3],
                           "alternating": b0 - b1 + b2 - b3}
    return out


def _scalar_face_bubble_dim(tri_mesh, p, vertex_order, edge_normal):
    """Scalar bubbles on a triangle with vertex-jet and edge-trace conditions."""
    if p < 0:
        return 0
    cell = tri_mesh.cell_simplex(0)
    cverts = tuple(int(v) for v in tri_mesh.cells[0])
    rows = [jet_rows(cell, tri_mesh.vertices[v], p, order)
            for v in cverts for order in range(vertex_order + 1)]
    for ei, everts in enumerate(tri_mesh.skeleton[1]):
        sub = tri_mesh.sub_simplex(1, ei)
        vmap = [cverts.index(v) for v in everts]
        rows.append(restriction_matrix(cell, sub, vmap, 0, p))
        if edge_normal:
            normal = derivative_matrix(cell, tri_mesh.frame(1, ei).normals[0], 0, p)
            rows.append(restriction_matrix(cell, sub, vmap, 0, p - 1) @ normal)
    return nullspace(np.vstack(rows)).shape[1]
