"""2D elasticity construction: product complexes, algebraic connecting maps,
and the symmetric stress element.

Value conventions.  Vector-valued forms are stored componentwise (two copies
of a scalar family, or two 1-form rows); skew-matrix values are identified
with scalars.  The connecting maps in form components are

    S0: (u1, u2) -> (w1, w2) = (-u2, u1)
    S1: rows (w_i1, w_i2) -> v = -(w11 + w22)

so that d1 S0 + S1 d0 = 0 holds identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .assembly import (assemble_d, assemble_local_operator, assemble_space,
                       nullspace, rank_of)
from .forms import (FormPolynomial, dim_trimmed, full_basis, monomials,
                    poly_mul)
from .mesh import SimplicialMesh


def _embed_component(f, comp):
    """Scalar 0-form -> 1-form with the scalar in one component."""
    return FormPolynomial(f.simplex, 1, {(comp,): f.comps.get((), {})})


def _grad_component(f, comp):
    """Scalar 0-form -> scalar component of its differential."""
    df = f.exterior_derivative()
    return FormPolynomial(f.simplex, 0, {(): df.comps.get((comp,), {})})


def _skew_trace(f, comp):
    """Row 1-form -> its contribution to -(w11 + w22) as a 2-form."""
    poly = f.comps.get((comp,), {})
    return FormPolynomial(f.simplex, 2, {(0, 1): {e: -c for e, c in poly.items()}})


class BGGContext:
    """Assembled spaces and operator matrices for one degree window p."""

    def __init__(self, mesh, p):
        if mesh.dim != 2:
            raise ValueError("the elasticity construction is two-dimensional")
        self.mesh = mesh
        self.p = p
        self.hermite = assemble_space(mesh, 1, p + 2, 0)
        self.stenberg = assemble_space(mesh, 1, p + 1, 1)
        self.dg = assemble_space(mesh, 1, p, 2)
        self.pressure = assemble_space(mesh, 2, p + 1, 2)
        self.argyris = assemble_space(mesh, 2, p + 3, 0) if p + 3 >= 5 else None

        H, St, DG, FN = (self.hermite.dim, self.stenberg.dim,
                         self.dg.dim, self.pressure.dim)
        d_h = assemble_d(self.hermite, self.stenberg).array
        d_s = assemble_d(self.stenberg, self.dg).array

        # vector-valued rows: block diagonal over the two components
        self.dV0 = np.block([[d_h, np.zeros((St, H))],
                             [np.zeros((St, H)), d_h]])
        self.dV1 = np.block([[d_s, np.zeros((DG, St))],
                             [np.zeros((DG, St)), d_s]])

        # skew-valued d1: pair of scalars as a 1-form into the pressure space
        b0 = assemble_local_operator(self.hermite, self.pressure,
                                     lambda f: _embed_component(f, 0).exterior_derivative()).array
        b1 = assemble_local_operator(self.hermite, self.pressure,
                                     lambda f: _embed_component(f, 1).exterior_derivative()).array
        self.dK1 = np.hstack([b0, b1])

        # S0: signed permutation between the two Hermite pairs
        self.S0 = np.block([[np.zeros((H, H)), -np.eye(H)],
                            [np.eye(H), np.zeros((H, H))]])
        self.S0inv = self.S0.T

        c0 = assemble_local_operator(self.stenberg, self.pressure,
                                     lambda f: _skew_trace(f, 0)).array
        c1 = assemble_local_operator(self.stenberg, self.pressure,
                                     lambda f: _skew_trace(f, 1)).array
        self.S1 = np.hstack([c0, c1])

        if self.argyris is not None:
            g0 = assemble_local_operator(self.argyris, self.hermite,
                                         lambda f: _grad_component(f, 0)).array
            g1 = assemble_local_operator(self.argyris, self.hermite,
                                         lambda f: _grad_component(f, 1)).array
            self.dK0 = np.vstack([g0, g1])
        else:
            self.dK0 = None

    def identity_residual(self):
        """Max entry of D1 S0 + S1 D0 relative to the term magnitudes."""
        a = self.dK1 @ self.S0
        b = self.S1 @ self.dV0
        scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
        return float(np.abs(a + b).max() / scale)

    def xi_complex(self):
        """Rank-nullity exactness of the product complex at window p.

        The chain has three slots; the kernel of the first block operator is
        three-dimensional on contractible meshes (a constant vector field plus
        the matching linear skew potential).
        """
        H, St, DG, FN = (self.hermite.dim, self.stenberg.dim, self.dg.dim,
                         self.pressure.dim)
        dim_xi1 = 2 * H + 2 * St
        dim_xi2 = FN + 2 * DG

        if self.dK0 is not None:
            arg_dim = self.argyris.dim
            A0 = np.block([[self.dK0, -self.S0],
                           [np.zeros((2 * St, arg_dim)), self.dV0]])
            dim_xi0 = arg_dim + 2 * H
        else:
            # below the nodal range the skew 0-form slot is the constraint-defined
            # smooth scalar space; ranks are computed on its spanning columns
            per_cell, N = _constrained_smooth_scalar_span(self.mesh, self.p + 3)
            dK0 = _constrained_grad_dofs(self.mesh, per_cell, N, self.hermite)
            A0 = np.block([[dK0, -self.S0],
                           [np.zeros((2 * St, N.shape[1])), self.dV0]])
            dim_xi0 = N.shape[1] + 2 * H

        A1 = np.block([[self.dK1, -self.S1],
                       [np.zeros((2 * DG, 2 * H)), self.dV1]])

        comp = np.abs(A1 @ A0).max()
        scale = max(np.abs(A1).max() * np.abs(A0).max(), 1.0)
        r0 = rank_of(A0)
        r1 = rank_of(A1)
        return {
            "dims": [dim_xi0, dim_xi1, dim_xi2],
            "ranks": [r0, r1],
            "kernel0": dim_xi0 - r0,
            "composition_rel": float(comp / scale),
            "exact_middle": (dim_xi1 - r1) == r0,
            "onto_end": r1 == dim_xi2,
            "exact": (dim_xi0 - r0) == 3 and (dim_xi1 - r1) == r0 and r1 == dim_xi2,
        }


def s0_operator(mesh, p):
    """Isomorphism between the vector 0-form pair and the skew 1-form pair."""
    ctx = BGGContext(mesh, p)
    return ctx.S0


def s1_operator(mesh, p):
    """Trace map onto the skew 2-form space; surjective."""
    ctx = BGGContext(mesh, p)
    return ctx.S1


def verify_bgg_identity(mesh, p):
    """Max entry of D1 S0 + S1 D0 relative to the term magnitudes."""
    return BGGContext(mesh, p).identity_residual()


# ---------------------------------------------------------------------------
# product complex
# ---------------------------------------------------------------------------

def _constrained_smooth_scalar_span(mesh, p):
    """Spanning basis of {piecewise P_p: C^1 across edges, C^2 at vertices}.

    Used for the skew 0-form slot when p < 5, where no unisolvent nodal DoF
    set exists; the space itself is still well defined.
    """
    ncells = len(mesh.cells)
    per_cell = [full_basis(mesh.cell_simplex(ci), p, 0) for ci in range(ncells)]
    nloc = len(per_cell[0])
    size = ncells * nloc
    rows = []

    # C^0 and C^1 across interior edges: trace and normal-derivative jumps
    for ei in range(len(mesh.skeleton[1])):
        cof = mesh.cofaces[1][ei]
        if len(cof) != 2:
            continue
        sub = mesh.sub_simplex(1, ei)
        everts = mesh.skeleton[1][ei]
        nu = mesh.frame(1, ei).normals[0]
        for deg_shift, deriv in ((0, None), (1, nu)):
            deg = p - deg_shift
            coeff = {}
            for ci in cof:
                cverts = tuple(int(v) for v in mesh.cells[ci])
                vmap = [cverts.index(v) for v in everts]
                sgn = 1.0 if ci == cof[0] else -1.0
                for j, b in enumerate(per_cell[ci]):
                    g = b if deriv is None else b.directional_derivative(deriv)
                    tr = g.restrict(sub, vmap)
                    for e, c in tr.comps.get((), {}).items():
                        key = e
                        row = coeff.setdefault(key, np.zeros(size))
                        row[ci * nloc + j] += sgn * float(c)
            rows.extend(coeff.values())
    # C^2 at vertices: second derivatives agree across all incident cells
    axes = [np.eye(2)[i] for i in range(2)]
    for vi in range(len(mesh.skeleton[0])):
        cof = mesh.cofaces[0][vi]
        if len(cof) < 2:
            continue
        pt = mesh.vertices[vi]
        for (i1, i2) in ((0, 0), (0, 1), (1, 1)):
            base = cof[0]
            for other in cof[1:]:
                row = np.zeros(size)
                for ci, sgn in ((base, 1.0), (other, -1.0)):
                    for j, b in enumerate(per_cell[ci]):
                        g = b.directional_derivative(axes[i1]).directional_derivative(axes[i2])
                        v = g.eval(pt[None, :])[()].item() if () in g.comps else 0.0
                        row[ci * nloc + j] += sgn * v
                rows.append(row)
    A = np.array(rows) if rows else np.zeros((0, size))
    N = nullspace(A)
    return per_cell, N


def _constrained_grad_dofs(mesh, per_cell, N, hermite):
    """Hermite-pair DoF vectors of the gradients of constrained scalars."""
    ncells = len(mesh.cells)
    nloc = len(per_cell[0])
    blocks = []
    for comp in (0, 1):
        out = np.zeros((hermite.dim, N.shape[1]))
        for col in range(N.shape[1]):
            forms = {}
            for ci in range(ncells):
                f = FormPolynomial(mesh.cell_simplex(ci), 0)
                for j in range(nloc):
                    c = N[ci * nloc + j, col]
                    if c != 0.0:
                        f = f + per_cell[ci][j].as_float().scale(c)
                forms[ci] = _grad_component(f, comp)
            out[:, col] = hermite.apply_global_dofs(forms)
        blocks.append(out)
    return np.vstack(blocks)


def xi_complex(mesh, p):
    """Rank-nullity exactness of the product complex at window p."""
    return BGGContext(mesh, p).xi_complex()


def xi_commuting_residual(mesh, p):
    """Residual of the projection squares onto the reduced subcomplex."""
    ctx = BGGContext(mesh, p)
    if ctx.dK0 is None:
        raise ValueError("projection check needs the nodal skew 0-form space")
    H, St, DG, FN = (ctx.hermite.dim, ctx.stenberg.dim, ctx.dg.dim,
                     ctx.pressure.dim)
    arg = ctx.argyris.dim
    A0 = np.block([[ctx.dK0, -ctx.S0],
                   [np.zeros((2 * St, arg)), ctx.dV0]])
    A1 = np.block([[ctx.dK1, -ctx.S1],
                   [np.zeros((2 * DG, 2 * H)), ctx.dV1]])
    pi0 = np.block([[np.eye(arg), np.zeros((arg, 2 * H))],
                    [ctx.S0inv @ ctx.dK0, np.zeros((2 * H, 2 * H))]])
    pi1 = np.block([[np.zeros((2 * H, 2 * H)), np.zeros((2 * H, 2 * St))],
                    [ctx.dV0 @ ctx.S0inv, np.eye(2 * St)]])
    left = A0 @ pi0 - pi1 @ A0
    right = A1 @ pi1 - A1
    scale = max(np.abs(A0).max(), np.abs(A1).max(), 1.0)
    return float(max(np.abs(left).max(), np.abs(right).max()) / scale)


# ---------------------------------------------------------------------------
# symmetric stress element
# ---------------------------------------------------------------------------

def _matrix_monomials(cell, p, sym=False):
    """Basis of matrix-valued polynomials as (component, scalar form) pairs."""
    comps = [(0, 0), (0, 1), (1, 0), (1, 1)] if not sym else [(0, 0), (0, 1), (1, 1)]
    basis = []
    for comp in comps:
        for b in full_basis(cell, p, 0):
            basis.append((comp, b))
    return basis


def _sym_bubble_tests(mesh, p):
    """Symmetric matrix polynomials with vanishing boundary normal trace."""
    cell = mesh.cell_simplex(0)
    basis = _matrix_monomials(cell, p, sym=True)
    cverts = tuple(int(v) for v in mesh.cells[0])
    rows = {}
    for j, (comp, b) in enumerate(basis):
        for ei in range(3):
            sub = mesh.sub_simplex(1, ei)
            everts = mesh.skeleton[1][ei]
            vmap = [cverts.index(v) for v in everts]
            nu = mesh.frame(1, ei).normals[0]
            # (M nu)_i trace: components: row i of M dotted with nu
            for i in range(2):
                a, bb = comp
                # m_ab contributes to (M nu)_i when i == a (factor nu_b),
                # plus the symmetric copy when a != bb and i == bb (factor nu_a)
                factor = 0.0
                if i == a:
                    factor += nu[bb]
                if a != bb and i == bb:
                    factor += nu[a]
                if factor == 0.0:
                    continue
                tr = b.restrict(sub, vmap)
                for e, c in tr.comps.get((), {}).items():
                    key = (ei, i, e)
                    rows.setdefault(key, np.zeros(len(basis)))[j] += factor * float(c)
    A = np.array(list(rows.values()))
    N = nullspace(A)
    return basis, N


@dataclass
class StressElementReport:
    p: int
    n_dofs: int
    dim_shape: int
    skew_interior: int
    sym_interior: int
    interior_identity: bool
    unisolvent: bool
    sym_restricted_unisolvent: bool
    sigma_ratio: float


def huzhang_stress(p, vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))):
    """DoF counts and unisolvence of the symmetric stress element.

    DoFs on one triangle: matrix values at vertices, normal-trace moments on
    edges, interior skew moments against vertex-vanishing scalars, interior
    moments against symmetric normal-trace-free matrix bubbles.
    """
    if p < 3:
        raise ValueError("the stress element requires p >= 3 (cubics)")
    mesh = SimplicialMesh(np.asarray(vertices, float), [(0, 1, 2)])
    cell = mesh.cell_simplex(0)
    cverts = (0, 1, 2)
    sym_tests, Nsym = _sym_bubble_tests(mesh, p)

    def apply_dofs(basis, sym):
        cols = []
        vtx_targets = [(0, 0), (0, 1), (1, 1)] if sym else \
                      [(0, 0), (0, 1), (1, 0), (1, 1)]
        for (comp, b) in basis:
            a, bb = comp
            col = []
            for vi in range(3):
                pt = mesh.vertices[vi]
                for target in vtx_targets:
                    col.append(b.eval(pt[None, :])[()].item()
                               if comp == target else 0.0)
            for ei in range(3):
                sub = mesh.sub_simplex(1, ei)
                everts = mesh.skeleton[1][ei]
                nu = mesh.frame(1, ei).normals[0]
                vmap = [cverts.index(v) for v in everts]
                tr = b.restrict(sub, vmap)
                for i in range(2):
                    factor = nu[bb] if i == a else 0.0
                    if sym and a != bb and i == bb:
                        factor += nu[a]
                    for q in monomials(2, p - 2):
                        if factor == 0.0:
                            col.append(0.0)
                            continue
                        prod = poly_mul(tr.comps.get((), {}), {q: 1})
                        val = sum(float(c) * float(sub.integrate_monomial(e))
                                  for e, c in prod.items())
                        col.append(factor * val / sub.measure_float)
            # interior skew moments: (m10 - m01) against vertex-vanishing tests
            if sym:
                sgn = 0.0   # symmetric members have no skew part
            elif comp == (1, 0):
                sgn = 1.0
            elif comp == (0, 1):
                sgn = -1.0
            else:
                sgn = 0.0
            for qa in monomials(3, p):
                if max(qa) == p:
                    continue
                if sgn == 0.0:
                    col.append(0.0)
                else:
                    prod = poly_mul(b.comps[()], {qa: 1})
                    val = sum(float(c) * float(cell.integrate_monomial(e))
                              for e, c in prod.items())
                    col.append(sgn * val / cell.measure_float)
            # interior symmetric-bubble moments (Frobenius pairing)
            for t in range(Nsym.shape[1]):
                val = 0.0
                for jj, (tcomp, tb) in enumerate(sym_tests):
                    w = Nsym[jj, t]
                    if w == 0.0:
                        continue
                    mult = _pair_weight(comp, tcomp, sym)
                    if mult == 0.0:
                        continue
                    prod = poly_mul(b.comps[()], tb.comps[()])
                    val += w * mult * sum(float(c) * float(cell.integrate_monomial(e))
                                          for e, c in prod.items())
                col.append(val / cell.measure_float)
            cols.append(col)
        return np.array(cols).T

    skew_interior = math.comb(p + 2, 2) - 3
    full = _matrix_monomials(cell, p, sym=False)
    M = apply_dofs(full, sym=False)
    sym_interior = Nsym.shape[1]
    sv = np.linalg.svd(_row_normalized(M), compute_uv=False)
    unis = M.shape[0] == M.shape[1] and sv[-1] > 1e-8 * sv[0]

    symb = _matrix_monomials(cell, p, sym=True)
    Ms = apply_dofs(symb, sym=True)
    keep = [i for i in range(Ms.shape[0]) if np.abs(Ms[i]).max() > 0.0]
    Ms = Ms[keep]
    svs = np.linalg.svd(_row_normalized(Ms), compute_uv=False)
    sym_unis = Ms.shape[0] == Ms.shape[1] and svs[-1] > 1e-8 * svs[0]

    identity = (skew_interior + sym_interior) == 2 * dim_trimmed(2, p - 1, 1)
    return StressElementReport(
        p=p, n_dofs=M.shape[0], dim_shape=len(full),
        skew_interior=skew_interior, sym_interior=sym_interior,
        interior_identity=identity, unisolvent=bool(unis),
        sym_restricted_unisolvent=bool(sym_unis),
        sigma_ratio=float(sv[-1] / sv[0]),
    )


def _pair_weight(comp, tcomp, sym_basis):
    """Frobenius weight of a shape component against a symmetric test one."""
    a, b = comp
    ta, tb = tcomp
    hit = (a, b) == (ta, tb) or (ta != tb and (a, b) == (tb, ta))
    if not hit:
        return 0.0
    if sym_basis and a != b:
        return 2.0   # the member stands for both off-diagonal entries
    return 1.0


def _row_normalized(M):
    norms = np.abs(M).max(axis=1)
    norms[norms == 0.0] = 1.0
    return M / norms[:, None]


# ---------------------------------------------------------------------------
# the discrete inclusion of skew data into the matrix-valued space
# ---------------------------------------------------------------------------

def _grouped_stress_functionals(ctx):
    """The stress-element DoF system on the matrix-valued 1-form space.

    Returns (T, layout): T maps the assembled pair coordinates to grouped DoF
    values ordered as vertex matrix entries, edge normal-trace moments,
    interior skew moments, interior symmetric-bubble moments.  T is square
    and invertible (the grouped system is unisolvent on the same space).
    """
    mesh = ctx.mesh
    q = ctx.p + 1
    St = ctx.stenberg.dim
    sten = ctx.stenberg

    slots = []            # (kind, data); shared slots listed once
    vert_slot = {}
    for vi in range(len(mesh.skeleton[0])):
        for ab in ((0, 0), (0, 1), (1, 0), (1, 1)):
            vert_slot[(vi, ab)] = len(slots)
            slots.append(("vertex", vi, ab))
    edge_slot = {}
    for ei in range(len(mesh.skeleton[1])):
        for i in range(2):
            for mono in monomials(2, q - 2):
                edge_slot[(ei, i, mono)] = len(slots)
                slots.append(("edge", ei, i, mono))
    cell_base = {}
    sym_tests = {}
    for ci in range(len(mesh.cells)):
        cell_base[ci] = len(slots)
        for mono in monomials(3, q):
            if max(mono) < q:
                slots.append(("skew", ci, mono))
        single = SimplicialMesh(mesh.vertices[list(mesh.cells[ci])],
                                [tuple(range(3))])
        tests, N = _sym_bubble_tests(single, q)
        sym_tests[ci] = (tests, N)
        for t in range(N.shape[1]):
            slots.append(("sym", ci, t))

    T = np.zeros((len(slots), 2 * St))
    filled = np.zeros(len(slots), dtype=bool)

    # shared slots pair only with shared DoFs of their own entity, so one
    # evaluation from the first containing cell covers every nonzero entry
    for ci in range(len(mesh.cells)):
        cell = mesh.cell_simplex(ci)
        cverts = tuple(int(v) for v in mesh.cells[ci])
        nloc = len(sten.cell_dof_objs[ci])
        local_duals = [sten.dual_form(ci, l) for l in range(nloc)]
        vert_new = [vi for vi in cverts if not filled[vert_slot[(vi, (0, 0))]]]
        edge_new = [mesh.simplex_id(pair) for pair in combinations(cverts, 2)
                    if not filled[edge_slot[(mesh.simplex_id(pair), 0,
                                             monomials(2, q - 2)[0])]]]
        for row in range(2):
            for l, g in enumerate(local_duals):
                col = row * St + sten.cell_global[ci][l]
                comp0 = g.comps.get((0,), {})
                comp1 = g.comps.get((1,), {})
                # vertex matrix entries: (m_row0, m_row1) = (-F_row[1], F_row[0])
                for vi in vert_new:
                    pt = mesh.vertices[vi]
                    vals = g.eval(pt[None, :])
                    w0 = vals.get((0,), np.zeros(1))[0]
                    w1 = vals.get((1,), np.zeros(1))[0]
                    T[vert_slot[(vi, (row, 0))], col] = -w1
                    T[vert_slot[(vi, (row, 1))], col] = w0
                # edge normal-trace moments: (M nu)_row = F_row . (nu1, -nu0)
                for ei in edge_new:
                    everts = mesh.skeleton[1][ei]
                    sub = mesh.sub_simplex(1, ei)
                    nu = mesh.frame(1, ei).normals[0]
                    vmap = [cverts.index(v) for v in everts]
                    f = g.contract_vector(np.array([nu[1], -nu[0]]))
                    tr = f.restrict(sub, vmap)
                    for mono in monomials(2, q - 2):
                        prod = poly_mul(tr.comps.get((), {}), {mono: 1})
                        val = sum(float(c) * float(sub.integrate_monomial(e))
                                  for e, c in prod.items()) / sub.measure_float
                        T[edge_slot[(ei, row, mono)], col] = val
                # interior skew moments: m10 - m01 = -(w11 + w22)
                base = cell_base[ci]
                offset = 0
                for mono in monomials(3, q):
                    if max(mono) == q:
                        continue
                    comp = comp0 if row == 0 else comp1
                    prod = poly_mul(comp, {mono: 1})
                    T[base + offset, col] += -sum(
                        float(c) * float(cell.integrate_monomial(e))
                        for e, c in prod.items()) / cell.measure_float
                    offset += 1
                # interior symmetric-bubble moments (Frobenius against theta)
                tests, N = sym_tests[ci]
                for t in range(N.shape[1]):
                    val = 0.0
                    for jj, (tcomp, tb) in enumerate(tests):
                        wgt = N[jj, t]
                        if wgt == 0.0:
                            continue
                        ta, tb_i = tcomp
                        theta = {(ta, tb_i): 1.0}
                        if ta != tb_i:
                            theta[(tb_i, ta)] = 1.0
                        fac0 = theta.get((row, 1), 0.0)
                        fac1 = -theta.get((row, 0), 0.0)
                        for comp, fac in ((comp0, fac0), (comp1, fac1)):
                            if fac == 0.0 or not comp:
                                continue
                            prod = poly_mul(comp, tb.comps[()])
                            val += wgt * fac * sum(
                                float(c) * float(cell.integrate_monomial(e))
                                for e, c in prod.items()) / cell.measure_float
                    T[base + offset + t, col] += val
        for vi in vert_new:
            for ab in ((0, 0), (0, 1), (1, 0), (1, 1)):
                filled[vert_slot[(vi, ab)]] = True
        for ei in edge_new:
            for i in range(2):
                for mono in monomials(2, q - 2):
                    filled[edge_slot[(ei, i, mono)]] = True
    return T, slots, vert_slot, cell_base


def stress_inclusion(ctx):
    """Discrete inclusion of skew 2-form data into the matrix-valued space.

    Defined through the grouped stress DoFs: vertex skew values and interior
    skew moments are copied from the input, every edge and symmetric-interior
    DoF is zero.  Normalized so that S1 @ inclusion = identity.
    """
    mesh = ctx.mesh
    q = ctx.p + 1
    FN = ctx.pressure
    T, slots, vert_slot, cell_base = _grouped_stress_functionals(ctx)

    lookup = {}
    seen = set()
    for ci in range(len(mesh.cells)):
        for dof, gi in zip(FN.cell_dof_objs[ci], FN.cell_global[ci]):
            if gi in seen:
                continue
            seen.add(gi)
            lookup[gi] = (ci, dof)
    P = np.zeros((len(slots), FN.dim))
    for gi, (ci, dof) in lookup.items():
        if dof.entity_dim == 0:
            vi = int(dof.entity_verts[0])
            # skew scalar s at the vertex: prescribe m01 = -s, m10 = s
            P[vert_slot[(vi, (0, 1))], gi] = -1.0
            P[vert_slot[(vi, (1, 0))], gi] = 1.0
        else:
            # interior: match the vertex-vanishing moment, doubled (chi:chi)
            (alpha, _), = dof.eta.comps[()].items()
            offset = 0
            for mono in monomials(3, q):
                if max(mono) == q:
                    continue
                if mono == alpha:
                    P[cell_base[ci] + offset, gi] = 2.0
                    break
                offset += 1
    raw = np.linalg.solve(T, P)
    gauge = ctx.S1 @ raw
    scale = np.trace(gauge) / FN.dim
    if abs(scale) < 1e-12 or np.abs(gauge - scale * np.eye(FN.dim)).max() > 1e-8 * abs(scale):
        raise RuntimeError("inclusion failed to invert the trace map")
    return raw / scale


def projection_commutes(mesh, p):
    """Residuals of the squares carrying the reduced row to the stress row.

    The vertical maps are the identity, (id - inclusion . S1), and
    (omega, mu) -> mu + dV1 . inclusion . omega; both squares must commute.
    """
    ctx = BGGContext(mesh, p)
    if ctx.dK0 is None:
        raise ValueError("stress projection needs p + 3 >= 5")
    ih = stress_inclusion(ctx)
    airy = ctx.dV0 @ ctx.S0inv @ ctx.dK0
    V = np.eye(2 * ctx.stenberg.dim) - ih @ ctx.S1
    # left square: the potential map composed with the vertical projection
    left = np.abs(V @ airy - airy).max() / max(np.abs(airy).max(), 1.0)
    # right square: project then take d versus map into the product and project
    top = np.vstack([-ctx.S1, ctx.dV1])
    pi_h = np.hstack([ctx.dV1 @ ih, np.eye(2 * ctx.dg.dim)])
    right = np.abs(pi_h @ top - ctx.dV1 @ V).max() / max(np.abs(ctx.dV1).max(), 1.0)
    kernel_resid = np.abs(ctx.S1 @ V).max()
    return {"left": float(left), "right": float(right),
            "projection_into_kernel": float(kernel_resid),
            "trace_right_inverse": float(np.abs(ctx.S1 @ ih - np.eye(ctx.pressure.dim)).max())}


# ---------------------------------------------------------------------------
# the assembled stress row
# ---------------------------------------------------------------------------

def huzhang_row_report(mesh, p):
    """Exactness accounting for: smooth scalars -> symmetric stresses -> vectors.

    The stress space is the symmetric kernel of the trace map inside the
    vector-valued 1-form space; the potential map is dV0 S0^-1 dK0 (the
    second-order operator sending a scalar to a symmetric matrix field).
    """
    ctx = BGGContext(mesh, p)
    if ctx.dK0 is None:
        raise ValueError("stress row needs p + 3 >= 5")
    airy = ctx.dV0 @ ctx.S0inv @ ctx.dK0
    N_hz = nullspace(ctx.S1)
    dim_hz = N_hz.shape[1]
    # image of the potential map is symmetric: S1 @ airy = -dK1 dK0 = 0
    sym_resid = float(np.abs(ctx.S1 @ airy).max() /
                      max(np.abs(airy).max(), 1.0))
    r_airy = rank_of(airy)
    div_on_hz = ctx.dV1 @ N_hz
    r_div = rank_of(div_on_hz)
    report = {
        "dim_potential": ctx.argyris.dim,
        "dim_stress": dim_hz,
        "dim_load": 2 * ctx.dg.dim,
        "rank_potential_map": r_airy,
        "kernel_potential_map": ctx.argyris.dim - r_airy,
        "rank_div": r_div,
        "image_symmetric_resid": sym_resid,
        "exact": (ctx.argyris.dim - r_airy == 3
                  and dim_hz - r_div == r_airy
                  and r_div == 2 * ctx.dg.dim),
    }
    return report
