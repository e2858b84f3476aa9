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
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .assembly import (Coo, _dof_coords, assemble_d, assemble_local_operator, assemble_space,
                       prove_ranks)
from .elements import cell_dofs, smoothness_rows
from .forms import (derivative_matrix, dim_trimmed, eval_row, exterior_derivative_matrix,
                    moment_gram, monomials, multinomials, nullspace, trace_matrix)
from .mesh import SimplicialMesh


def _embed_component(comp, nq):
    """Scalar 0-form -> 1-form with the scalar in one component."""
    return np.kron(np.eye(2)[:, [comp]], np.eye(nq))


def _grad_component(grads, comp, q):
    """Scalar 0-form of degree q -> one component of its differential, on
    the cells with barycentric gradients ``grads``."""
    return derivative_matrix(grads, np.eye(2)[comp], 0, q)


def _skew_trace(comp, nq):
    """Row 1-form -> its contribution to -(w11 + w22) as a 2-form."""
    return -np.kron(np.eye(2)[[comp]], np.eye(nq))


class BGGContext:
    """Assembled spaces and operators for one degree window p.

    The connecting maps are the cells' coefficient matrices above, sized by
    the degrees of the spaces: Hermite p + 2, Stenberg and pressure p + 1,
    Argyris p + 3.  Every operator is a ``Coo``: the vector-valued rows are
    the scalar operator on each component, S0 is a signed index swap, and
    the block operators are stacks of these.
    """

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

        # vector-valued rows: the scalar operator on each component
        self.dV0, self.dV1 = (Coo.blocks([[d, None], [None, d]]) for d in (
            assemble_d(self.hermite, self.stenberg), assemble_d(self.stenberg, self.dg)))

        def pair(src, dst, fmap):   # the operators of fmap(grads, 0) and fmap(grads, 1)
            return [assemble_local_operator(src, dst, lambda grads, c=c: fmap(grads, c))
                    for c in (0, 1)]

        # skew-valued d1: pair of scalars as a 1-form into the pressure space
        nh = math.comb(p + 4, 2)
        self.dK1 = Coo.blocks([pair(self.hermite, self.pressure, lambda grads, c: (
            exterior_derivative_matrix(grads, 1, p + 2, p + 1) @ _embed_component(c, nh)))])

        # S0: (u1, u2) -> (-u2, u1) on the two Hermite copies
        H, i = self.hermite.dim, np.arange(2 * self.hermite.dim)
        self.S0 = Coo(i, (i + H) % (2 * H), np.where(i < H, -1.0, 1.0), (2 * H, 2 * H))

        ns = math.comb(p + 3, 2)
        self.S1 = Coo.blocks([pair(self.stenberg, self.pressure,
                                   lambda grads, c: _skew_trace(c, ns))])
        self.dK0 = None if self.argyris is None else Coo.blocks([[G] for G in pair(
            self.argyris, self.hermite, lambda grads, c: _grad_component(grads, c, p + 3))])

    def _nodal(self, what):
        """dK0, which needs the nodal skew 0-form space."""
        if self.dK0 is None:
            raise ValueError(f"{what} needs p + 3 >= 5")
        return self.dK0

    def identity_residual(self):
        """Max entry of D1 S0 + S1 D0 relative to the term magnitudes."""
        a, b = self.dK1 @ self.S0, self.S1 @ self.dV0
        return (a + b).amax() / max(a.amax(), b.amax(), 1.0)

    def xi_operators(self):
        """The block operators A0, A1 of the product complex and a point per
        DoF of its three slots.  Below the nodal range, where no unisolvent
        nodal DoF set exists, the skew 0-form slot is the piecewise P_{p+3}
        that are C^1 across edges and C^2 at vertices, the kernel of its
        smoothness rows; A0 acts on an orthonormal basis of it, all placed at
        the mean DoF point."""
        hc, sc, pc, dc = (_dof_coords(s) for s in
                          (self.hermite, self.stenberg, self.pressure, self.dg))
        if self.dK0 is None:
            N = nullspace(smoothness_rows(self.mesh, 0, self.p + 3, orders=(2,), normal=True))
            dK0 = Coo.of_dense(_constrained_grad_dofs(self.mesh, N, self.hermite))
            c0 = np.repeat(hc.mean(axis=0)[None], dK0.shape[1], axis=0)
        else:
            dK0, c0 = self.dK0, _dof_coords(self.argyris)
        A0 = Coo.blocks([[dK0, -self.S0], [None, self.dV0]])
        A1 = Coo.blocks([[self.dK1, -self.S1], [None, self.dV1]])
        return A0, A1, [np.vstack(c) for c in ([c0, hc, hc], [hc, hc, sc, sc], [pc, dc, dc])]

    def xi_complex(self):
        """Rank-nullity exactness of the product complex at window p.

        The chain has three slots; the kernel of the first block operator is
        three-dimensional on contractible meshes (a constant vector field plus
        the matching linear skew potential).  ``prove_ranks`` proves A1 onto in
        full on the transposed chain [A1ᵀ, A0ᵀ], then rank A0 = dim ξ1 - rank A1
        from it."""
        A0, A1, coords = self.xi_operators()
        dim_xi0, dim_xi1, dim_xi2 = A0.shape[1], A1.shape[1], A1.shape[0]
        comp = (A1 @ A0).amax() / max(A1.amax() * A0.amax(), 1.0)
        (r0, r1), margins = (x[::-1] for x in prove_ranks([A1.T, A0.T], coords[::-1]))
        return {"dims": [dim_xi0, dim_xi1, dim_xi2], "ranks": [r0, r1], "kernel0": dim_xi0 - r0,
                "composition_rel": comp, "exact_middle": (dim_xi1 - r1) == r0,
                "onto_end": r1 == dim_xi2,
                "exact": (dim_xi0 - r0) == 3 and (dim_xi1 - r1) == r0 and r1 == dim_xi2,
                "rank_margins": margins}

    def xi_commuting_residual(self):
        """Residual of the projection squares onto the reduced subcomplex."""
        dK0, S0inv = self._nodal("projection check"), self.S0.T
        (A0, A1, _), H2, arg = self.xi_operators(), 2 * self.hermite.dim, self.argyris.dim
        pi0 = Coo.blocks([[Coo.eye(arg), Coo.zero(arg, H2)], [S0inv @ dK0, None]])
        pi1 = Coo.blocks([[Coo.zero(H2, H2), None],
                          [self.dV0 @ S0inv, Coo.eye(self.dV0.shape[0])]])
        left, right = A0 @ pi0 - pi1 @ A0, A1 @ pi1 - A1
        return max(left.amax(), right.amax()) / max(A0.amax(), A1.amax(), 1.0)

    def airy(self):
        """The potential map dV0 S0^-1 dK0: scalars to symmetric matrix fields."""
        return self.dV0 @ (self.S0.T @ self._nodal("the stress row"))

    def projection_commutes(self):
        """Residuals of the squares carrying the reduced row to the stress row.

        The vertical maps are the identity, (id - inclusion . S1), and
        (omega, mu) -> mu + dV1 . inclusion . omega; both squares must commute.
        """
        airy, S1, dV1, ih = self.airy(), self.S1, self.dV1, stress_inclusion(self)
        V = Coo.eye(2 * self.stenberg.dim) - ih @ S1
        # left square: the potential map composed with the vertical projection
        left = (V @ airy - airy).amax() / max(airy.amax(), 1.0)
        # right square: project then take d versus map into the product and project
        top = Coo.blocks([[-S1], [dV1]])
        pi_h = Coo.blocks([[dV1 @ ih, Coo.eye(2 * self.dg.dim)]])
        right = (pi_h @ top - dV1 @ V).amax() / max(dV1.amax(), 1.0)
        return {"left": left, "right": right, "projection_into_kernel": (S1 @ V).amax(),
                "trace_right_inverse": (S1 @ ih - Coo.eye(self.pressure.dim)).amax()}

    def huzhang_row_report(self):
        """Exactness accounting for: smooth scalars -> symmetric stresses -> vectors.

        The stress space is the symmetric kernel of the trace map S1 inside
        the vector-valued 1-form space; the potential map is dV0 S0^-1 dK0
        (scalars to symmetric matrix fields).  Ranks alone give the row: a full
        proof that S1 is onto, then the transposed chain [Mᵀ, airyᵀ] with
        M = [S1; dV1]; div on ker S1 has rank M - rank S1."""
        airy = self.airy()
        # image of the potential map is symmetric: S1 @ airy = -dK1 dK0 = 0
        sym_resid = (self.S1 @ airy).amax() / max(airy.amax(), 1.0)
        sc, pc, dc = (_dof_coords(s) for s in (self.stenberg, self.pressure, self.dg))
        sc = np.vstack([sc, sc])
        (r_s1,), m_s1 = prove_ranks([self.S1], [sc, pc])
        M = Coo.blocks([[self.S1], [self.dV1]])
        (r_m, r_airy), m_row = prove_ranks([M.T, airy.T],
                                           [np.vstack([pc, dc, dc]), sc, _dof_coords(self.argyris)])
        dim_hz, r_div, arg = 2 * self.stenberg.dim - r_s1, r_m - r_s1, self.argyris.dim
        return {"dim_potential": arg, "dim_stress": dim_hz, "dim_load": 2 * self.dg.dim,
                "rank_potential_map": r_airy, "kernel_potential_map": arg - r_airy,
                "rank_div": r_div, "image_symmetric_resid": sym_resid,
                "exact": (arg - r_airy == 3 and dim_hz - r_div == r_airy
                          and r_div == 2 * self.dg.dim),
                "rank_margins": m_s1 + m_row}


def verify_bgg_identity(mesh, p):
    """Max entry of D1 S0 + S1 D0 relative to the term magnitudes."""
    return BGGContext(mesh, p).identity_residual()


def xi_complex(mesh, p):
    """Rank-nullity exactness of the product complex at window p."""
    return BGGContext(mesh, p).xi_complex()


# ---------------------------------------------------------------------------
# product complex
# ---------------------------------------------------------------------------

def _constrained_grad_dofs(mesh, N, hermite):
    """Hermite-pair DoF vectors of the gradients of constrained scalars."""
    q = hermite.el.p + 1
    fields = N.reshape(len(mesh.cells), math.comb(q + 2, 2), -1)
    return np.vstack([hermite.gather(hermite.rows @ _grad_component(mesh.bary_grads, comp, q)
                                     @ fields) for comp in (0, 1)])


# ---------------------------------------------------------------------------
# symmetric stress element
# ---------------------------------------------------------------------------

# entries m_ab of a 2x2 matrix field, in block order
_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))
# a symmetric field (s00, s01, s11) written as the four entries
_SYM = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _entry(a, b, nq):
    """Coefficients of the entry m_ab in a matrix field with nq per entry."""
    return slice((2 * a + b) * nq, (2 * a + b + 1) * nq)


def _stress_rows(mesh, ci, q):
    """The stress DoFs of one cell as rows over its degree-q matrix fields.

    A matrix field is four blocks of barycentric coefficients, one per entry
    m_ab in the order of _ENTRIES.  The rows are: every entry at each vertex;
    on each edge, the moments of (M nu)_i against the degree q-2 monomials;
    the moments of the skew part m10 - m01 against the monomials vanishing at
    the vertices; the Frobenius moments against the symmetric fields with
    zero normal trace.  Moments are normalized by the measure.  Returns
    (F, slots), one slot label per row.
    """
    cverts = tuple(int(v) for v in mesh.cells[ci])
    nq = math.comb(q + 2, 2)

    def entries(blocks):
        """Rows over the four entry blocks from {entry: rows over that entry}."""
        height = next(iter(blocks.values())).shape[0]
        out = np.zeros((height, 4 * nq))
        for (a, b), rows in blocks.items():
            out[:, _entry(a, b, nq)] = rows
        return out

    rows, slots = [], []
    for vi in cverts:
        value = eval_row(mesh.bary_inverse[ci], mesh.vertices[vi], q)[None, :]
        for ab in _ENTRIES:
            rows.append(entries({ab: value}))
            slots.append(("vertex", vi, ab))
    edge_tests = monomials(2, q - 2)
    edge_gram = moment_gram(2, q, q - 2).T
    traces = []
    for everts in combinations(cverts, 2):
        ei = mesh.simplex_id(everts)
        R = trace_matrix(2, [cverts.index(v) for v in everts], 0, q)
        nu = mesh.frame(1, ei).normals[0]
        for i in range(2):
            traces.append(entries({(i, 0): nu[0] * R, (i, 1): nu[1] * R}))
            rows.append(edge_gram @ traces[-1])
            slots += [("edge", ei, i, mono) for mono in edge_tests]
    gram = moment_gram(3, q, q)
    skew = [pos for pos, a in enumerate(monomials(3, q)) if max(a) < q]
    rows.append(entries({(1, 0): gram[skew], (0, 1): -gram[skew]}))
    slots += [("skew", ci, monomials(3, q)[pos]) for pos in skew]
    sym = np.kron(_SYM, np.eye(nq))
    theta = sym @ nullspace(np.vstack(traces) @ sym)
    rows.append(theta.T @ np.kron(np.eye(4), gram))
    slots += [("sym", ci, t) for t in range(theta.shape[1])]
    return np.vstack(rows), slots


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
    moments against symmetric normal-trace-free matrix bubbles.  They are
    applied to the matrix Bernstein basis, full and symmetric; the symmetric
    system keeps one vertex row per distinct entry and no skew rows.
    """
    if p < 3:
        raise ValueError("the stress element requires p >= 3 (cubics)")
    mesh = SimplicialMesh(np.asarray(vertices, float), [(0, 1, 2)])
    F, slots = _stress_rows(mesh, 0, p)
    bernstein = np.diag(multinomials(3, p))
    M = F @ np.kron(np.eye(4), bernstein)
    sv = np.linalg.svd(_row_normalized(M), compute_uv=False)
    unis = M.shape[0] == M.shape[1] and sv[-1] > 1e-8 * sv[0]

    keep = [s for s, slot in enumerate(slots) if slot[0] != "skew"
            and not (slot[0] == "vertex" and slot[2] == (1, 0))]
    Ms = F[keep] @ np.kron(_SYM, bernstein)
    svs = np.linalg.svd(_row_normalized(Ms), compute_uv=False)
    sym_unis = Ms.shape[0] == Ms.shape[1] and svs[-1] > 1e-8 * svs[0]

    skew_interior = sum(slot[0] == "skew" for slot in slots)
    sym_interior = sum(slot[0] == "sym" for slot in slots)
    identity = (skew_interior + sym_interior) == 2 * dim_trimmed(2, p - 1, 1)
    return StressElementReport(
        p=p, n_dofs=M.shape[0], dim_shape=M.shape[1],
        skew_interior=skew_interior, sym_interior=sym_interior,
        interior_identity=identity, unisolvent=bool(unis),
        sym_restricted_unisolvent=bool(sym_unis),
        sigma_ratio=float(sv[-1] / sv[0]),
    )


def _row_normalized(M):
    norms = np.abs(M).max(axis=1)
    norms[norms == 0.0] = 1.0
    return M / norms[:, None]


# ---------------------------------------------------------------------------
# the discrete inclusion of skew data into the matrix-valued space
# ---------------------------------------------------------------------------

def _matrix_fields(sten):
    """Every cell's pair dual functions as matrix fields, (cells, 4 nq, 2 local
    DoFs), row 0's duals first: pair row r is the 1-form w_r, and matrix row
    r is (m_r0, m_r1) = (-w_r1, w_r0)."""
    w, nq = sten.fields, sten.fields.shape[1] // 2
    m = np.concatenate([-w[:, nq:], w[:, :nq]], axis=1)
    return np.block([[m, np.zeros_like(m)], [np.zeros_like(m), m]])


def _positions(space, label):
    """The local positions of the plan group ``label`` in every cell."""
    return [i for i, dof in enumerate(cell_dofs(space.el, space.mesh, 0)) if dof.label == label]


def stress_inclusion(ctx):
    """Discrete inclusion of skew 2-form data into the matrix-valued space.

    Defined through the stress DoFs: vertex skew values and interior skew
    moments are copied from the input, every edge and symmetric-interior DoF
    is zero.  The vertex and edge DoFs are the pair's own up to sign: a skew
    value s (m01 = -s, m10 = s) is w00 = w11 = -s, and the pair's edge DoFs
    stay zero.  Each cell then solves its skew and symmetric rows for its
    interior pair DoFs, all cells in one batch.  Normalized so that
    S1 @ inclusion = identity; a ``Coo`` from pressure DoFs to pair DoFs.
    """
    mesh, sten, FN = ctx.mesh, ctx.stenberg, ctx.pressure
    F, slots = zip(*(_stress_rows(mesh, ci, ctx.p + 1) for ci in range(len(mesh.cells))))
    inner = [s for s, slot in enumerate(slots[0]) if slot[0] in ("skew", "sym")]
    G = np.array(F)[:, inner] @ _matrix_fields(sten)
    nloc, interior = sten.cell_global.shape[1], _positions(sten, "interior")
    # the cell's rows at a unit vertex value: its pair DoFs w00 = w11 = -1
    vertex = -G[:, :, _positions(sten, "vertex-c0")] \
        - G[:, :, [nloc + i for i in _positions(sten, "vertex-c1")]]
    # interior: match the vertex-vanishing moment, doubled (chi:chi); the
    # tests in plan order are the skew rows' monomials
    moments = 2.0 * np.eye(len(inner), len(_positions(FN, "interior")))
    X = np.linalg.solve(G[:, :, interior + [nloc + i for i in interior]], np.concatenate(
        [-vertex, np.broadcast_to(moments, (len(F),) + moments.shape)], axis=2))
    rows = np.hstack([sten.cell_global[:, interior], sten.dim + sten.cell_global[:, interior]])
    cols = FN.cell_global[:, _positions(FN, "vertex-value") + _positions(FN, "interior")]
    ids = np.arange(mesh.count(0))
    vrows = [sten.dofs(0, ids, "vertex-c0").ravel(),
             sten.dim + sten.dofs(0, ids, "vertex-c1").ravel()]
    vcols = FN.dofs(0, ids, "vertex-value").ravel()
    raw = Coo.summed(np.concatenate([np.repeat(rows, cols.shape[1]).ravel()] + vrows),
                     np.concatenate([np.tile(cols, rows.shape[1]).ravel(), vcols, vcols]),
                     np.concatenate([X.ravel(), -np.ones(2 * len(vcols))]),
                     (2 * sten.dim, FN.dim))
    gauge = ctx.S1 @ raw
    scale = gauge.vals[gauge.rows == gauge.cols].sum() / FN.dim
    if abs(scale) < 1e-12 or \
            (replace(gauge, vals=gauge.vals / scale) - Coo.eye(FN.dim)).amax() > 1e-8:
        raise RuntimeError("inclusion failed to invert the trace map")
    return replace(raw, vals=raw.vals / scale)
