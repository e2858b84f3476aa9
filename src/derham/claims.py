"""Checks of the paper's claims that no command runs.

Jet sequences and subsimplex bubble counts (C8), span equality and the
continuous-plus-bubble decompositions (C9, C10), the containment of d's
image and the interpolation split (C12), and the stress row of the 2D
elasticity construction, as functions of a ``bgg.BGGContext``.  The
acceptance and unit tests call them; no command and no other ``derham``
module imports this one, so ``import derham`` compiles none of it.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .assembly import Coo, _d_map, _dof_coords, assemble_d, assemble_space, prove_ranks
from .bgg import _stress_rows
from .elements import cell_dofs, dof_plan, single_cell_mesh, smoothness_rows
from .forms import (dim_full, exponent_array, exponent_rank, exterior_derivative_matrix,
                    moment_rows, nullspace, rank_of, trace_matrix)
from .mesh import interval_mesh, reference_tet, reference_triangle


# ---------------------------------------------------------------------------
# spans, decompositions and containment
# ---------------------------------------------------------------------------

def space_equal(space_a, space_b):
    """True iff the two assembled spaces span the same piecewise functions."""
    if space_a.mesh is not space_b.mesh or space_a.el.k != space_b.el.k:
        raise ValueError("spaces must share mesh and form degree")
    p = max(space_a.el.p, space_b.el.p)
    A = space_a.broken(p)
    B = space_b.broken(p)
    if space_a.dim != space_b.dim:
        return False, {"dims": (space_a.dim, space_b.dim)}
    ra = rank_of(A)
    rboth = rank_of(np.hstack([A, B]))
    equal = (ra == space_a.dim) and (rboth == ra)
    return equal, {"dims": (space_a.dim, space_b.dim), "rank_a": ra, "rank_union": rboth}


def verify_decomposition(n, p, mesh):
    """Nodal space equals continuous part plus trace-free bubbles (span rank)."""
    if n == 2:
        if p < 2:
            raise ValueError("2D decomposition needs p >= 2")
        target = assemble_space(mesh, 1, p, 1)
        scalar = assemble_space(mesh, 0, p, 0)
        # a single-cell copy has the same barycentric coefficients
        bubbles = [zero_trace_dim(single_cell_mesh(verts), p, 1)[1]
                   for verts in mesh.vertices[mesh.cells]]
    elif n == 3:
        target = assemble_space(mesh, 2, p, 1)
        scalar = assemble_space(mesh, 1, p, 0)
        bubbles = [tangential_bubble_span(grads, p) for grads in mesh.bary_grads]
    else:
        raise ValueError("decomposition implemented in dimensions 2 and 3")
    # componentwise vector fields: scalar column j in component c is column
    # c·dim + j, its coefficients in the cell's key block (c,)
    ncells = len(mesh.cells)
    comp_cols = np.zeros((ncells, n, math.comb(p + n, n), n, scalar.dim))
    comp_cols[:, np.arange(n), :, np.arange(n)] = scalar.broken(p).reshape(ncells, -1, scalar.dim)
    comp_cols = comp_cols.reshape(-1, n * scalar.dim)
    bub = Coo.blocks([[Coo.of_dense(b) if i == j else None for j in range(ncells)]
                      for i, b in enumerate(bubbles)]).array
    tgt = target.broken(p)
    both = np.hstack([comp_cols, bub])
    r_target = rank_of(tgt)
    r_sum = rank_of(both)
    r_union = rank_of(np.hstack([tgt, both]))
    return {
        "dim_target": target.dim,
        "rank_target": r_target,
        "rank_sum": r_sum,
        "rank_union": r_union,
        "dim_continuous": n * scalar.dim,
        "equal": r_target == target.dim == r_sum == r_union,
        "continuous_strictly_smaller": n * scalar.dim < target.dim,
    }


def containment_residual(src, dst, D=None):
    """Largest coefficient of d(dual_j) minus its target-space interpolant.

    Per cell and for every global source column that the cell or its rows of
    D reach, the coefficients of the d images of the source duals are
    compared with the target duals times the cell's rows of D, relative to
    the largest image coefficient.  All cells are one stack: each holds its
    columns in ascending order, padded with zero columns to the longest.
    """
    if D is None:
        D = assemble_d(src, dst)
    images = _d_map(src, dst)(src.mesh.bary_grads) @ src.fields
    rows, ncells = dst.cell_global, len(dst.cell_global)
    lo, reps = D.ptr[rows].ravel(), np.diff(D.ptr)[rows].ravel()
    pos = np.repeat(lo - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
    at = np.repeat(np.arange(rows.size), reps)        # (cell, local row) of each entry
    keys = np.concatenate([at // rows.shape[1] * D.shape[1] + D.cols[pos],
                           (np.arange(ncells)[:, None] * D.shape[1] + src.cell_global).ravel()])
    uniq, inv = np.unique(keys, return_inverse=True)
    cell = uniq // D.shape[1]
    slot = np.arange(len(uniq)) - np.searchsorted(cell, cell)   # position in its cell
    block = np.zeros((ncells, rows.shape[1], slot.max(initial=-1) + 1))
    block[at // rows.shape[1], at % rows.shape[1], slot[inv[:len(pos)]]] = D.vals[pos]
    image = np.zeros((ncells, images.shape[1], block.shape[2]))
    image[np.arange(ncells)[:, None], :, slot[inv[len(pos):]].reshape(ncells, -1)] \
        = images.swapaxes(1, 2)
    worst = np.abs(image - dst.fields @ block).max(initial=0.0)
    scale = np.abs(images).max(initial=0.0)
    return worst / scale if scale > 0.0 else worst


def interpolation_split_residual(mesh, p):
    """Max tangential face trace of (u - continuous interpolant of u), 3D.

    Realizes the interpolation onto the vector-Hermite space that copies all
    shared DoFs of u, keeps interior moments, and zeroes face-normal parts;
    the remainder must be a tangential-trace-free bubble on every cell.
    Everything is coefficients stacked over cells: the key blocks of a
    1-form are its proxy components, scalar DoFs are rows, traces are
    restriction matrices, one per local face slot.
    """
    rng = np.random.default_rng(0)
    target = assemble_space(mesh, 2, p, 1)
    scalar = assemble_space(mesh, 1, p, 0)
    ncells, faces = len(mesh.cells), list(combinations(range(4), 3))
    normals = mesh.frames(2).normals[:, 0]
    worst = 0.0
    for trial in range(2):
        x = rng.normal(size=target.dim)
        # 25 sample points per cell and face, drawn in that order
        lam = rng.dirichlet([2.0] * 3, size=(ncells, len(faces), 25))
        u = (target.fields @ x[target.cell_global][..., None])[..., 0]
        # scalar DoFs of the three components; face DoFs see the tangential part
        y = scalar.gather(scalar.rows @ u.reshape(ncells, 3, -1).swapaxes(1, 2))
        for g in dof_plan(scalar.el, 2):
            gi = scalar.dofs(2, np.arange(mesh.count(2)), g.label)
            y[gi] -= (y[gi] @ normals[:, :, None]) * normals[:, None, :]
        rest = u - (scalar.fields @ y[scalar.cell_global]).swapaxes(1, 2).reshape(ncells, -1)
        for j, fverts in enumerate(faces):
            tangents = mesh.frames(2).tangents[mesh.cell_entities[2][:, j]]
            trace = trace_matrix(3, fverts, 1, p, tangents) @ rest[..., None]
            mono = np.prod(lam[:, j, :, None, :] ** exponent_array(3, p), axis=-1)
            values = mono @ trace.reshape(ncells, 2, -1).swapaxes(1, 2)
            worst = max(worst, np.abs(values).max())
    return worst


# ---------------------------------------------------------------------------
# bubbles and vertex jet sequences
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
    lifts, size = exponent_array(4, p - 3), math.comb(p + 3, 3)
    rows = exponent_rank(lifts + 1 - np.eye(4, dtype=int)[:, None])
    out = np.zeros((3, size, 4, len(lifts)))
    for i, g in enumerate(grads):
        out[:, rows[i], i, range(len(lifts))] = (g / np.linalg.norm(g))[:, None]
    return out.reshape(3 * size, -1)


def zero_trace_dim(mesh, p, k):
    """Dimension of {u in P_p Lambda^k(cell): vanishing boundary traces}.

    On the single cell of ``mesh``, the trace onto every boundary facet must
    vanish.  Returns (dimension, nullspace basis as coefficient columns).
    """
    ns = nullspace(smoothness_rows(mesh, k, p, clamp=True))
    return ns.shape[1], ns


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


# ---------------------------------------------------------------------------
# the stress row of the elasticity construction
# ---------------------------------------------------------------------------

def _nodal(ctx, what):
    """dK0, which needs the nodal skew 0-form space."""
    if ctx.dK0 is None:
        raise ValueError(f"{what} needs p + 3 >= 5")
    return ctx.dK0


def airy(ctx):
    """The potential map dV0 S0^-1 dK0: scalars to symmetric matrix fields."""
    return ctx.dV0 @ (ctx.S0.T @ _nodal(ctx, "the stress row"))


def xi_commuting_residual(ctx):
    """Residual of the projection squares onto the reduced subcomplex."""
    dK0, S0inv = _nodal(ctx, "projection check"), ctx.S0.T
    (A0, A1, _), H2, arg = ctx.xi_operators(), 2 * ctx.hermite.dim, ctx.argyris.dim
    pi0 = Coo.blocks([[Coo.eye(arg), Coo.zero(arg, H2)], [S0inv @ dK0, None]])
    pi1 = Coo.blocks([[Coo.zero(H2, H2), None],
                      [ctx.dV0 @ S0inv, Coo.eye(ctx.dV0.shape[0])]])
    left, right = A0 @ pi0 - pi1 @ A0, A1 @ pi1 - A1
    return max(left.amax(), right.amax()) / max(A0.amax(), A1.amax(), 1.0)


def projection_commutes(ctx):
    """Residuals of the squares carrying the reduced row to the stress row.

    The vertical maps are the identity, (id - inclusion . S1), and
    (omega, mu) -> mu + dV1 . inclusion . omega; both squares must commute.
    """
    potential, S1, dV1, ih = airy(ctx), ctx.S1, ctx.dV1, stress_inclusion(ctx)
    V = Coo.eye(2 * ctx.stenberg.dim) - ih @ S1
    # left square: the potential map composed with the vertical projection
    left = (V @ potential - potential).amax() / max(potential.amax(), 1.0)
    # right square: project then take d versus map into the product and project
    top = Coo.blocks([[-S1], [dV1]])
    pi_h = Coo.blocks([[dV1 @ ih, Coo.eye(2 * ctx.dg.dim)]])
    right = (pi_h @ top - dV1 @ V).amax() / max(dV1.amax(), 1.0)
    return {"left": left, "right": right, "projection_into_kernel": (S1 @ V).amax(),
            "trace_right_inverse": (S1 @ ih - Coo.eye(ctx.pressure.dim)).amax()}


def huzhang_row_report(ctx):
    """Exactness accounting for: smooth scalars -> symmetric stresses -> vectors.

    The stress space is the symmetric kernel of the trace map S1 inside
    the vector-valued 1-form space; the potential map is dV0 S0^-1 dK0
    (scalars to symmetric matrix fields).  Ranks alone give the row: a full
    proof that S1 is onto, then the transposed chain [Mᵀ, airyᵀ] with
    M = [S1; dV1]; div on ker S1 has rank M - rank S1."""
    potential = airy(ctx)
    # image of the potential map is symmetric: S1 @ airy = -dK1 dK0 = 0
    sym_resid = (ctx.S1 @ potential).amax() / max(potential.amax(), 1.0)
    sc, pc, dc = (_dof_coords(s) for s in (ctx.stenberg, ctx.pressure, ctx.dg))
    sc = np.vstack([sc, sc])
    (r_s1,), m_s1 = prove_ranks([ctx.S1], [sc, pc])
    M = Coo.blocks([[ctx.S1], [ctx.dV1]])
    (r_m, r_airy), m_row = prove_ranks([M.T, potential.T],
                                       [np.vstack([pc, dc, dc]), sc, _dof_coords(ctx.argyris)])
    dim_hz, r_div, arg = 2 * ctx.stenberg.dim - r_s1, r_m - r_s1, ctx.argyris.dim
    return {"dim_potential": arg, "dim_stress": dim_hz, "dim_load": 2 * ctx.dg.dim,
            "rank_potential_map": r_airy, "kernel_potential_map": arg - r_airy,
            "rank_div": r_div, "image_symmetric_resid": sym_resid,
            "exact": (arg - r_airy == 3 and dim_hz - r_div == r_airy
                      and r_div == 2 * ctx.dg.dim),
            "rank_margins": m_s1 + m_row}


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
            (gauge.replace(vals=gauge.vals / scale) - Coo.eye(FN.dim)).amax() > 1e-8:
        raise RuntimeError("inclusion failed to invert the trace map")
    return raw.replace(vals=raw.vals / scale)
