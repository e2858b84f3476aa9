import tracemalloc

import numpy as np
import pytest

from dof_reference import global_dof_values
from derham.assembly import assemble_space, rank_of
from derham.bgg import BGGContext, _stress_rows, huzhang_stress, verify_bgg_identity, xi_complex
from derham.claims import (_matrix_fields, airy, huzhang_row_report, projection_commutes,
                           stress_inclusion, xi_commuting_residual)
from derham.elements import smoothness_rows
from derham.exact import cell_simplex
from derham.forms import dim_trimmed, nullspace
from derham.mesh import (SimplicialMesh, annulus_mesh, reference_triangle, triangle_grid,
                         two_triangle_square)


def perturbed_square(seed=7, scale=0.12):
    rng = np.random.default_rng(seed)
    base = two_triangle_square()
    verts = base.vertices + rng.normal(scale=scale, size=base.vertices.shape)
    return SimplicialMesh(verts, [tuple(c) for c in base.cells])


# -- connecting maps ------------------------------------------------------------

def test_s0_is_isomorphism():
    S0 = BGGContext(two_triangle_square(), 1).S0.array
    assert S0.shape[0] == S0.shape[1]
    assert rank_of(S0) == S0.shape[0]
    assert np.abs(S0 @ S0.T - np.eye(S0.shape[0])).max() < 1e-14


def test_s0_constant_field():
    # (1, 0) maps to the pair (0, 1): the second component holds u1
    ctx = BGGContext(two_triangle_square(), 1)
    H = ctx.hermite.dim
    x = np.zeros(2 * H)
    x[:H] = ctx.hermite.constant_coefficients()
    y = ctx.S0.dot(x)
    assert np.abs(y[:H]).max() < 1e-14
    assert np.abs(y[H:] - x[:H]).max() < 1e-14


def test_s1_surjective():
    S1 = BGGContext(two_triangle_square(), 2).S1.array
    assert rank_of(S1) == S1.shape[0]


def _constant_row_dofs(ctx, comps_row1, comps_row2):
    """Stenberg-pair DoF vector of constant component rows."""
    from derham.exact import FormPolynomial
    mesh = ctx.mesh
    one = (0,) * 3
    vecs = []
    for comps in (comps_row1, comps_row2):
        forms = {ci: FormPolynomial(cell_simplex(mesh, ci), 1,
                                    {(0,): {one: comps[0]}, (1,): {one: comps[1]}})
                 for ci in range(len(mesh.cells))}
        vecs.append(global_dof_values(ctx.stenberg, forms))
    return np.concatenate(vecs)


def test_s1_on_constant_fields():
    from derham.exact import FormPolynomial
    ctx = BGGContext(two_triangle_square(), 2)
    mesh = ctx.mesh
    # component array = identity: w11 = w22 = 1 -> the trace map gives -2
    x = _constant_row_dofs(ctx, (1.0, 0.0), (0.0, 1.0))
    y = ctx.S1.dot(x)
    expect = global_dof_values(
        ctx.pressure, {ci: FormPolynomial(cell_simplex(mesh, ci), 2, {(0, 1): {(0,) * 3: -2.0}})
                       for ci in range(len(mesh.cells))})
    assert np.abs(y - expect).max() < 1e-12
    # trace-free components (symmetric matrix proxy) are in the kernel
    x = _constant_row_dofs(ctx, (1.0, 0.5), (0.3, -1.0))
    assert np.abs(ctx.S1.dot(x)).max() < 1e-12


@pytest.mark.parametrize("p", [1, 2])
def test_identity_on_meshes(p):
    for mesh in (reference_triangle(), two_triangle_square()):
        assert verify_bgg_identity(mesh, p) < 1e-10


def test_identity_perturbed_geometry():
    assert verify_bgg_identity(perturbed_square(), 2) < 1e-9


# -- product complex ---------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2])
def test_xi_exact_contractible(p):
    for mesh in (reference_triangle(), two_triangle_square()):
        rep = xi_complex(mesh, p)
        assert rep["composition_rel"] < 1e-10
        assert rep["exact"], rep


def test_xi_annulus_deficiency():
    rep = xi_complex(annulus_mesh(), 2)
    # each de Rham row contributes one harmonic class in the middle slot
    deficiency = (rep["dims"][1] - rep["ranks"][1]) - rep["ranks"][0]
    assert deficiency == 3
    assert rep["onto_end"]
    # A1 is onto and proved; A0's proposed rank fails, and it is counted
    assert [m["proved"] for m in rep["rank_margins"]] == [False, True]


def cli_mix_mesh(seed):
    """The jittered quadrilateral in three triangles, its bottom edge split,
    that the benchmark's cli-mix workload draws from a seed."""
    rng = np.random.default_rng(seed)
    split = float(rng.uniform(0.35, 0.65))
    j = [float(x) for x in rng.uniform(-0.15, 0.15, size=4)]
    verts = [[0.0, 0.0], [split, 0.0], [1.0, 0.0], [1.0 + j[0], 1.0 + j[1]], [j[2], 1.0 + j[3]]]
    return SimplicialMesh(verts, [(0, 1, 4), (1, 3, 4), (1, 2, 3)])


RANK_CASES = {"grid4": lambda: triangle_grid(4), "mix501": lambda: cli_mix_mesh(501),
              "mix7": lambda: cli_mix_mesh(7)}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("case", sorted(RANK_CASES))
def test_proved_ranks_match_dense_reference(case, p):
    # the block operators' and the stress row's ranks, each proved, against
    # dense singular-value counts; the stress row's reference takes the
    # kernel of S1 and the rank of div on it
    ctx = BGGContext(RANK_CASES[case](), p)
    A0, A1, _ = ctx.xi_operators()
    xi = ctx.xi_complex()
    assert xi["ranks"] == [rank_of(A0.array), rank_of(A1.array)]
    assert xi["exact"] and all(m["proved"] for m in xi["rank_margins"])
    rep = huzhang_row_report(ctx)
    potential, N = airy(ctx).array, nullspace(ctx.S1.array)
    assert rep["dim_stress"] == N.shape[1]
    assert rep["rank_potential_map"] == rank_of(potential)
    assert rep["rank_div"] == rank_of(ctx.dV1.array @ N)
    assert rep["exact"] and all(m["proved"] for m in rep["rank_margins"])


def test_product_complex_memory():
    # the operators stay triplets; as dense blocks they peak near 140 MB
    tracemalloc.start()
    try:
        ctx = BGGContext(triangle_grid(6), 2)
        ctx.identity_residual()
        ctx.xi_complex()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2 ** 20


def test_commuting_projections():
    assert xi_commuting_residual(BGGContext(two_triangle_square(), 2)) < 1e-9


def _smooth_slot_rows(mesh, q, orders=(2,)):
    """The constraints of bgg's smooth scalar slot: C^1 across edges and
    the given vertex jets continuous."""
    return smoothness_rows(mesh, 0, q, orders=orders, normal=True)


@pytest.mark.parametrize("q", [5, 6])
def test_constrained_scalar_span_matches_nodal_space(q):
    # where the nodal DoF set exists, the constraint-defined space must agree
    for mesh in (reference_triangle(), two_triangle_square()):
        N = nullspace(_smooth_slot_rows(mesh, q))
        assert N.shape[1] == assemble_space(mesh, 2, q, 0).dim


@pytest.mark.parametrize("q", [5, 6])
@pytest.mark.parametrize("mesh", [two_triangle_square(), triangle_grid(2)], ids=["square", "grid2"])
def test_smooth_slot_rows_annihilate_the_nodal_space(mesh, q):
    space = assemble_space(mesh, 2, q, 0)
    A, B = _smooth_slot_rows(mesh, q), space.broken(q)
    assert A.shape[1] == B.shape[0]
    assert np.abs(A @ B).max() <= 1e-13 * np.abs(A).max() * np.abs(B).max()
    # without the C^2 vertex rows the kernel is strictly larger
    assert nullspace(_smooth_slot_rows(mesh, q, orders=())).shape[1] > space.dim


def test_smooth_slot_reads_vertices_by_skeleton_id():
    # an unused vertex first: vertex indices are one above the skeleton's ids,
    # and the C^2 rows must take each vertex's own point
    grid = triangle_grid(2)
    mesh = SimplicialMesh(np.vstack([[5.0, 5.0], grid.vertices]), grid.cells + 1)
    assert BGGContext(mesh, 1).xi_complex()["exact"]


# -- stress element -----------------------------------------------------------------

def test_stress_rejects_quadratics():
    with pytest.raises(ValueError, match="p >= 3"):
        huzhang_stress(2)


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_stress_interior_identity(p):
    rep = huzhang_stress(p)
    assert rep.skew_interior * 2 == p * p + 3 * p - 4
    assert rep.sym_interior * 2 == 3 * p * p - 3 * p
    assert rep.skew_interior + rep.sym_interior == 2 * dim_trimmed(2, p - 1, 1)
    assert rep.interior_identity


def test_stress_p3_counts():
    rep = huzhang_stress(3)
    assert (rep.skew_interior, rep.sym_interior) == (7, 9)
    assert rep.skew_interior + rep.sym_interior == 16 == 2 * 8


def test_stress_p4_counts():
    rep = huzhang_stress(4)
    assert (rep.skew_interior, rep.sym_interior) == (12, 18)
    assert 2 * dim_trimmed(2, 3, 1) == 30


@pytest.mark.parametrize("p", [3, 4, 5])
def test_stress_unisolvence(p):
    rep = huzhang_stress(p)
    assert rep.unisolvent
    assert rep.sym_restricted_unisolvent
    assert rep.n_dofs == rep.dim_shape == 2 * (p + 1) * (p + 2)


def test_stress_on_random_triangle():
    rng = np.random.default_rng(3)
    verts = rng.random((3, 2)) * 2
    rep = huzhang_stress(3, vertices=verts)
    assert rep.unisolvent and rep.sym_restricted_unisolvent


# -- assembled stress row -------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_stress_row_exact(p):
    rep = huzhang_row_report(BGGContext(two_triangle_square(), p))
    assert rep["image_symmetric_resid"] < 1e-10
    assert rep["kernel_potential_map"] == 3
    assert rep["exact"], rep


@pytest.mark.parametrize("mesh, p", [(two_triangle_square(), 2), (two_triangle_square(), 3),
                                     (annulus_mesh(), 2), (triangle_grid(8), 2)],
                         ids=["2", "3", "annulus-2", "grid8-2"])
def test_projection_squares_commute(mesh, p):
    rep = projection_commutes(BGGContext(mesh, p))
    assert rep["trace_right_inverse"] < 1e-10
    assert rep["left"] < 1e-10 and rep["right"] < 1e-10
    assert rep["projection_into_kernel"] < 1e-10


def test_inclusion_clauses():
    # per cell, the stress DoFs of the included fields: the vertex skew
    # values are half the input's (m01 = -s/2, m10 = s/2, the diagonal zero),
    # the interior skew moments are the input's interior DoFs, and every edge
    # and symmetric-interior DoF is zero
    half = {(0, 1): -0.5, (1, 0): 0.5, (0, 0): 0.0, (1, 1): 0.0}
    for mesh in (two_triangle_square(), triangle_grid(2)):
        ctx = BGGContext(mesh, 2)
        sten, FN = ctx.stenberg, ctx.pressure
        pair = np.hstack([sten.cell_global, sten.dim + sten.cell_global])
        fields = _matrix_fields(sten) @ stress_inclusion(ctx).array[pair]
        for ci in range(len(mesh.cells)):
            F, slots = _stress_rows(mesh, ci, 3)
            interior = iter(FN.dofs(2, ci, "interior"))
            for row, slot in zip(F @ fields[ci], slots):
                want = np.zeros(FN.dim)
                if slot[0] == "vertex":
                    want[FN.dofs(0, slot[1], "vertex-value")] = half[slot[2]]
                elif slot[0] == "skew":
                    want[next(interior)] = 1.0
                assert np.abs(row - want).max() < 1e-10, slot


def test_inclusion_reads_vertices_by_skeleton_id():
    # an unused vertex first: mesh vertex indices are one above the skeleton's ids
    grid = triangle_grid(2)
    mesh = SimplicialMesh(np.vstack([[5.0, 5.0], grid.vertices]), grid.cells + 1)
    rep = projection_commutes(BGGContext(mesh, 2))
    assert max(rep.values()) < 1e-10


def test_inclusion_memory():
    # one square system per cell and no global matrix: about 15 MiB
    ctx = BGGContext(triangle_grid(8), 2)
    tracemalloc.start()
    try:
        stress_inclusion(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20
