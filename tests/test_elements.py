import numpy as np
import pytest

from conftest import REF, random_simplex
from dof_reference import reference_export_lines
from derham.assembly import dim_formula
from derham.elements import (cell_dofs, dof_matrix, dual_basis, dual_export_lines, element_def,
                             jet_complex_ranks, p_min,
                             subsimplex_bubble_dims, tangential_bubble_span,
                             unisolvence_check, zero_trace_dim)
from derham.forms import (Simplex, dim_full, dim_trimmed, eval_row, form_from_coeffs,
                          rank_of, trace_matrix)
from derham.mesh import SimplicialMesh

ALL_FAMILIES = []
for n in (1, 2, 3):
    rs = [0, 1, 2] + (["hz", "minus"] if n == 3 else [])
    for r in rs:
        ks = range(n + 1) if r in (0, 1, 2) else [2]
        for k in ks:
            ALL_FAMILIES.append((r, k, n))


# -- definitions and counts -----------------------------------------------------

def test_invalid_families_rejected():
    with pytest.raises(ValueError, match="p >= 5"):
        element_def(2, 4, 0, 2)
    with pytest.raises(ValueError, match="p >= 4"):
        element_def(2, 3, 1, 3)
    with pytest.raises(ValueError):
        element_def(0, 1, 3, 2)


@pytest.mark.parametrize("r,k,n", ALL_FAMILIES)
def test_dof_count_matches_dimension(r, k, n):
    for p in range(p_min(r, k, n), p_min(r, k, n) + 3):
        el = element_def(r, p, k, n)
        mesh = SimplicialMesh(np.asarray(REF[n], float), [tuple(range(n + 1))])
        dofs = cell_dofs(el, mesh, 0)
        assert len(dofs) == el.local_dim


def test_lowest_2d_hdiv_counts():
    # 2 per vertex, 1 normal moment per edge, 3 interior
    el = element_def(1, 2, 1, 2)
    mesh = SimplicialMesh(np.asarray(REF[2], float), [(0, 1, 2)])
    dofs = cell_dofs(el, mesh, 0)
    by_dim = {d: sum(1 for x in dofs if x.entity_dim == d) for d in (0, 1, 2)}
    assert by_dim == {0: 6, 1: 3, 2: 3}


def test_lowest_3d_hcurl_counts():
    el = element_def(1, 2, 1, 3)
    mesh = SimplicialMesh(np.asarray(REF[3], float), [(0, 1, 2, 3)])
    dofs = cell_dofs(el, mesh, 0)
    by_dim = {d: sum(1 for x in dofs if x.entity_dim == d) for d in range(4)}
    assert by_dim == {0: 12, 1: 6, 2: 12, 3: 0}
    assert len(dofs) == 30 == dim_full(3, 2, 1)


def test_3d_r2_hdiv_p3_counts():
    el = element_def(2, 3, 2, 3)
    mesh = SimplicialMesh(np.asarray(REF[3], float), [(0, 1, 2, 3)])
    dofs = cell_dofs(el, mesh, 0)
    by_dim = {d: sum(1 for x in dofs if x.entity_dim == d) for d in range(4)}
    assert by_dim == {0: 12, 1: 0, 2: 28, 3: 20}
    assert len(dofs) == 60


def test_continuity_classes():
    mesh = SimplicialMesh(np.asarray(REF[3], float), [(0, 1, 2, 3)])
    el = element_def(1, 3, 1, 3)
    for dof in cell_dofs(el, mesh, 0):
        assert dof.shared == (dof.entity_dim < 3)


# -- unisolvence -----------------------------------------------------------------

@pytest.mark.parametrize("r,k,n", ALL_FAMILIES)
def test_unisolvence_reference_and_random(r, k, n):
    rng = np.random.default_rng(hash((str(r), k, n)) % 2**32)
    p = p_min(r, k, n)
    el = element_def(r, p, k, n)
    for verts in (REF[n], random_simplex(n, rng)):
        rep = unisolvence_check(el, verts)
        assert rep["pass"], rep


def test_dimension_identity_r1_hcurl_3d():
    for p in range(2, 6):
        el = element_def(1, p, 1, 3)
        total = el.local_dim
        assert total == (p ** 3 + 6 * p ** 2 + 11 * p + 6) // 2
        assert 2 * total == p ** 3 + 6 * p ** 2 + 11 * p + 6


def test_negative_control_missing_interior_dof():
    el = element_def(1, 3, 1, 2)
    M, dofs = dof_matrix(el, REF[2])
    M = np.delete(M, len(dofs) - 1, axis=0)   # drop one interior DoF
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    assert rank == el.local_dim - 1


def test_affine_invariance_of_verdicts():
    rng = np.random.default_rng(5)
    el = element_def("hz", 3, 2, 3)
    counts = set()
    for _ in range(5):
        verts = random_simplex(3, rng)
        rep = unisolvence_check(el, verts)
        assert rep["pass"]
        counts.add(rep["n_dofs"])
    assert len(counts) == 1


# -- dual bases -----------------------------------------------------------------

def test_lagrange_p1_dual_is_barycentric():
    el = element_def(0, 1, 0, 2)
    duals, dofs, resid = dual_basis(el, REF[2])
    assert resid < 1e-12 and list(duals) == [1]
    # the three duals (columns) at the three vertices (rows)
    vals = eval_row(Simplex(REF[2]).bary_inverse, np.asarray(REF[2], float), 1) @ duals[1]
    assert np.abs(vals - np.eye(3)).max() < 1e-12


@pytest.mark.parametrize("r,k,n", ALL_FAMILIES)
def test_export_lines_match_form_reference(r, k, n):
    # p_min .. p_min + 2 and p = 3; "minus" mixes two degrees per dual
    low = p_min(r, k, n)
    simplex = Simplex(REF[n])
    for p in sorted({low, low + 1, low + 2} | ({3} if low <= 3 else set())):
        el = element_def(r, p, k, n)
        duals, _, _ = dual_basis(el, REF[n])
        assert dual_export_lines(el, duals) == reference_export_lines(el, duals, simplex), p


@pytest.mark.parametrize("r,k,n", ALL_FAMILIES)
def test_dual_kronecker(r, k, n):
    # dual_basis raises internally if the residual exceeds 1e-8
    for p in (p_min(r, k, n), p_min(r, k, n) + 2):
        el = element_def(r, p, k, n)
        duals, dofs, resid = dual_basis(el, REF[n])
        assert resid < 1e-8
        assert len(dofs) == el.local_dim
        assert all(acc.shape[1] == el.local_dim for acc in duals.values())


def test_lagrange_p1_dof_matrix_permutation_identity():
    el = element_def(0, 1, 0, 2)
    M, _ = dof_matrix(el, REF[2])
    # vertex evaluations of the barycentric basis: a permutation of identity
    assert np.abs(np.sort(M, axis=1) - np.array([[0, 0, 1]] * 3)).max() < 1e-14
    assert abs(abs(np.linalg.det(M)) - 1.0) < 1e-12


def test_vertex_dual_of_hdiv_is_vector_nodal():
    # dual of a vertex component DoF vanishes at the other vertices
    el = element_def(1, 2, 1, 2)
    duals, dofs, _ = dual_basis(el, REF[2])
    idx = [i for i, d in enumerate(dofs) if d.label == "vertex-c0"][0]
    v0 = dofs[idx].entity_verts[0]
    # the first proxy component (the first key block of six) at the vertices
    got = eval_row(Simplex(REF[2]).bary_inverse, np.asarray(REF[2], float), 2) @ duals[2][:6, idx]
    assert abs(got[v0] - 1.0) < 1e-10


# -- bubbles ----------------------------------------------------------------------

def test_hcurl_bubble_dim_p2_empty():
    el = element_def(2, 4, 1, 3)
    assert dim_formula(2, 2, 1, 3, (0, 0, 0, 1)) == 0
    assert rank_of(tangential_bubble_span(Simplex(REF[3]).grad_bary_float(), 2)) == 0


@pytest.mark.parametrize("p", [3, 4, 5])
def test_hcurl_bubble_two_sided_rank(p):
    cell = Simplex(REF[3])
    span = tangential_bubble_span(cell.grad_bary_float(), p)
    rank = rank_of(span)
    mesh = SimplicialMesh(np.asarray(REF[3], float), [(0, 1, 2, 3)])
    trace_dim, _ = zero_trace_dim(mesh, p, 1)
    assert rank == trace_dim == dim_formula(2, p, 1, 3, (0, 0, 0, 1))
    assert trace_dim == dim_trimmed(3, p - 2, 2)


@pytest.mark.parametrize("p", [3, 4])
def test_tangential_bubble_span_has_no_tangential_trace(p):
    rng = np.random.default_rng(p)
    mesh = SimplicialMesh(random_simplex(3, rng), [(0, 1, 2, 3)])
    span = tangential_bubble_span(mesh.bary_grads[0], p)
    assert span.shape == (3 * dim_full(3, p, 0), 4 * dim_full(3, p - 3, 0))
    for fi, fverts in enumerate(mesh.skeleton[2]):
        trace = trace_matrix(3, fverts, 1, p, mesh.frame(2, fi).tangents)
        assert np.abs(trace @ span).max() <= 1e-12 * np.abs(span).max()


def test_hcurl_bubble_tangential_trace_vanishes():
    rng = np.random.default_rng(1)
    mesh = SimplicialMesh(np.asarray(REF[3], float), [(0, 1, 2, 3)])
    _, cols = zero_trace_dim(mesh, 4, 1)
    basis = [form_from_coeffs(mesh.cell_simplex(0), 1, 4, col) for col in cols.T]
    assert len(basis) == 15
    for f in basis:
        ff = f.as_float()
        for fi in range(4):
            sub = mesh.sub_simplex(2, fi)
            everts = mesh.skeleton[2][fi]
            tr = ff.restrict(sub, [list((0, 1, 2, 3)).index(v) for v in everts])
            pts = sub.random_points(25, rng)
            for vals in tr.eval(pts).values():
                assert np.abs(vals).max() < 1e-10


def test_hdiv_bubbles_2d_zero_normal_trace():
    rng = np.random.default_rng(2)
    mesh = SimplicialMesh(np.asarray(REF[2], float), [(0, 1, 2)])
    _, cols = zero_trace_dim(mesh, 3, 1)
    basis = [form_from_coeffs(mesh.cell_simplex(0), 1, 3, col) for col in cols.T]
    assert basis
    for f in basis:
        for ei in range(3):
            sub = mesh.sub_simplex(1, ei)
            everts = mesh.skeleton[1][ei]
            # tangential form trace equals the flux-proxy normal component
            tr = f.restrict(sub, [list((0, 1, 2)).index(v) for v in everts])
            pts = sub.random_points(20, rng)
            for vals in tr.eval(pts).values():
                assert np.abs(vals).max() < 1e-10


# -- jets --------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jet_sequence_r1(n):
    rep = jet_complex_ranks(n, 1)
    assert rep["dims"] == [1, n + 1, n, 0]
    assert rep["exact"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jet_sequence_r2(n):
    rep = jet_complex_ranks(n, 2)
    assert rep["dims"] == [1, (n * n + 3 * n + 2) // 2, n * (n + 1), n * (n - 1) // 2]
    assert rep["composition_max"] == 0.0
    assert rep["kernel_first"] == 1
    assert rep["exact"]


def test_jet_sequence_n3_r2_chain():
    rep = jet_complex_ranks(3, 2)
    assert rep["dims"] == [1, 10, 12, 3]


def test_jet_sequence_n5_r2_ranks():
    rep = jet_complex_ranks(5, 2)
    assert rep["dims"] == [1, 21, 30, 10]
    assert rep["ranks"] == [20, 10]


# -- subsimplex bubbles ---------------------------------------------------------

@pytest.mark.parametrize("p", [5, 6, 7, 8])
def test_edge_bubble_chain_r2(p):
    rep = subsimplex_bubble_dims(3, 2, p)["edge"]
    assert rep["dim0"] == rep["formula0"] == (p - 5) + 2 * (p - 4)
    assert rep["dim1"] == rep["formula1"] == 3 * (p - 4) - 1
    assert rep["exact"]


def test_edge_bubble_chain_r2_p5_counts():
    rep = subsimplex_bubble_dims(3, 2, 5)["edge"]
    assert rep["dim0"] == 2 and rep["dim1"] == 2


def test_edge_bubble_chain_r2_p6_counts():
    rep = subsimplex_bubble_dims(3, 2, 6)["edge"]
    assert rep["dim0"] == 5 and rep["dim1"] == 5


@pytest.mark.parametrize("p", [3, 4, 5])
def test_edge_bubble_chain_r1(p):
    rep = subsimplex_bubble_dims(3, 1, p)["edge"]
    assert rep["exact"]


@pytest.mark.parametrize("p", [4, 5])
def test_face_bubble_alternating_r1(p):
    rep = subsimplex_bubble_dims(2, 1, p)["face"]
    assert rep["alternating"] == 0


@pytest.mark.parametrize("p", [5, 6, 7])
def test_face_bubble_alternating_r2(p):
    rep = subsimplex_bubble_dims(2, 2, p)["face"]
    assert rep["alternating"] == 0


@pytest.mark.parametrize("p,r", [(4, 1), (5, 1), (5, 2), (6, 2)])
def test_interior_bubble_alternating(p, r):
    rep = subsimplex_bubble_dims(3, r, p)["interior"]
    assert rep["alternating"] == 0
