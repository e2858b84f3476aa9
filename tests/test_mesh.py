import json
from fractions import Fraction

import numpy as np
import pytest

from conftest import REF
from derham.forms import Simplex, exact_det, nonzero_volume
from derham.mesh import (SimplicialMesh, cube_center_fan_grid,
                         interval_mesh, reference_tet, reference_triangle,
                         split_edge_square, two_triangle_square, annulus_mesh)


def test_single_triangle_skeleton():
    m = reference_triangle()
    assert m.counts == (3, 3, 1, 0)


def test_square_skeleton_and_euler():
    m = two_triangle_square()
    assert m.counts == (4, 5, 2, 0)
    assert m.euler_characteristic() == 1


def test_tet_skeleton():
    m = reference_tet()
    assert m.counts == (4, 6, 4, 1)
    assert m.euler_characteristic() == 1


def test_annulus_euler_zero():
    m = annulus_mesh()
    # brute-force recount of the skeleton
    V, E, F, _ = m.counts
    assert (V, F) == (8, 8)
    edges = set()
    for c in m.cells:
        c = sorted(c)
        edges.update([(c[0], c[1]), (c[0], c[2]), (c[1], c[2])])
    assert E == len(edges) == 16
    assert m.euler_characteristic() == 0


def test_degenerate_cell_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        SimplicialMesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [(0, 1, 2)])


# points (x, 3x): 3x is exact, but the differences to the first vertex round
COLLINEAR_ROUNDED = [[0.000776683114342298, 0.002330049343026894],
                     [0.6130033010531406, 1.8390099031594218],
                     [0.9172977047910535, 2.7518931143731606]]
# the first vertex lifted by 2**-70 off that line; the float determinant is 0
LIFTED_ROUNDED = [[0.00014792203578495655, 0.00044376610735486963],
                  [0.8196267191196966, 2.45888015735909],
                  [0.6832869060035591, 2.0498607180106774]]


def _float_det(v):
    (x0, y0), (x1, y1), (x2, y2) = v
    return (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)


def test_exactly_collinear_float_cell_rejected():
    assert _float_det(COLLINEAR_ROUNDED) != 0.0    # rounding hides the degeneracy
    with pytest.raises(ValueError, match="degenerate cell"):
        SimplicialMesh(COLLINEAR_ROUNDED, [(0, 1, 2)])
    with pytest.raises(ValueError, match="degenerate simplex"):
        Simplex(COLLINEAR_ROUNDED)
    # a batch decides each cell alone
    assert nonzero_volume(np.array([COLLINEAR_ROUNDED, REF[2]])).tolist() == [False, True]


def test_thin_cell_accepted_with_exact_measure():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.5, 2.0 ** -60]]
    SimplicialMesh(verts, [(0, 1, 2)])
    assert Simplex(verts).measure == Fraction(1, 2 ** 61)


def test_cell_inside_the_filter_keeps_its_exact_verdict():
    # the float determinant is 0, inside the error bound, so the exact one decides
    assert _float_det(LIFTED_ROUNDED) == 0.0
    mesh = SimplicialMesh(LIFTED_ROUNDED, [(0, 1, 2)])
    assert mesh.cell_simplex(0).measure == abs(exact_det(LIFTED_ROUNDED)) / 2 > 0


def test_coplanar_tet_rejected():
    # every vertex on the plane z = x + y
    with pytest.raises(ValueError, match="degenerate cell"):
        SimplicialMesh([[0.5, 0.25, 0.75], [1.5, 0.25, 1.75], [0.5, 1.25, 1.75],
                        [2.5, 3.25, 5.75]], [(0, 1, 2, 3)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_vertex_rejected(bad):
    with pytest.raises(ValueError, match="vertex 2 has a non-finite coordinate"):
        SimplicialMesh([[0.0, 0.0], [1.0, 0.0], [bad, 1.0]], [(0, 1, 2)])


def test_duplicate_cell_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        SimplicialMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1, 2), (2, 1, 0)])


def test_interior_facets_have_two_cofaces():
    m = two_triangle_square()
    for ei in range(m.count(1)):
        nc = len(m.cofaces[1][ei])
        assert nc in (1, 2)
        assert (nc == 1) == m.boundary[1][ei]


def test_classify_square_all_corners():
    cls = two_triangle_square().classify_boundary()
    assert cls.v0 == 4 and cls.v0s == 0


def test_classify_split_edge():
    m = split_edge_square()
    cls = m.classify_boundary()
    assert cls.v0 == 5 and cls.v0s == 1
    # the midpoint of the bottom edge is the non-corner vertex
    (nc,) = cls.noncorner_boundary_vertices
    assert np.allclose(m.vertices[nc], [0.5, 0.0])


def test_classify_1d_endpoints():
    m = interval_mesh(4)
    cls = m.classify_boundary()
    assert cls.corner_vertices == {0, 4}


def test_classify_rigid_motion_invariant():
    m = split_edge_square()
    theta = 0.83
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = SimplicialMesh(m.vertices @ R.T + np.array([3.0, -1.0]),
                           [tuple(c) for c in m.cells])
    a, b = m.classify_boundary(), moved.classify_boundary()
    assert a.corner_vertices == b.corner_vertices
    assert a.noncorner_boundary_vertices == b.noncorner_boundary_vertices


def test_classify_records_boundary_tangents():
    m = split_edge_square()
    cls = m.classify_boundary()
    (nc,) = cls.noncorner_boundary_vertices
    assert np.allclose(cls.tangents[(0, nc)], [[1.0, 0.0]])
    assert all(np.array_equal(cls.tangents[(0, vi)], np.eye(2)) for vi in cls.corner_vertices)
    # two tets over a split square base: the diagonal base edge is flat, and
    # its tangents span the base plane
    m = SimplicialMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.4, 0.4, 1.0]],
                       [(0, 1, 2, 4), (1, 3, 2, 4)])
    cls = m.classify_boundary()
    (ei,) = cls.noncorner_boundary_edges
    T = cls.tangents[(1, ei)]
    assert T.shape == (2, 3) and np.abs(T[:, 2]).max() < 1e-15
    assert np.allclose(T @ T.T, np.eye(2))
    assert all(np.array_equal(cls.tangents[(1, e)], np.eye(3)) for e in cls.corner_edges)


def test_classify_3d_corner_edges():
    m = reference_tet()
    cls = m.classify_boundary()
    assert cls.v0 == 4 and cls.v0s == 0
    assert len(cls.corner_edges) == 6 and not cls.noncorner_boundary_edges


def test_frames_orthonormal_and_oriented():
    for m in (two_triangle_square(), reference_tet()):
        for d in range(1, m.dim):
            for idx in range(m.count(d)):
                fr = m.frame(d, idx)
                basis = np.vstack([fr.tangents, fr.normals])
                assert np.abs(basis @ basis.T - np.eye(m.dim)).max() < 1e-12
                verts = m.skeleton[d][idx]
                tau = m.vertices[verts[1]] - m.vertices[verts[0]]
                assert fr.tangents[0] @ tau > 0   # low-to-high index rule


def test_edge_frame_axis_aligned():
    m = two_triangle_square()
    ei = m.simplex_id((0, 1))
    fr = m.frame(1, ei)
    assert np.allclose(fr.tangents[0], [1.0, 0.0])
    assert np.allclose(fr.normals[0], [0.0, -1.0]) or np.allclose(fr.normals[0], [0.0, 1.0])


def test_face_normal_sign_rule():
    m = reference_tet()
    fi = m.simplex_id((0, 1, 2))   # the z=0 face
    nu = m.frame(2, fi).normals[0]
    cross = np.cross(m.vertices[1] - m.vertices[0], m.vertices[2] - m.vertices[0])
    assert np.allclose(nu, cross / np.linalg.norm(cross))
    assert abs(abs(nu[2]) - 1.0) < 1e-14


def test_3d_edge_normal_tiebreak():
    m = reference_tet()
    ei = m.simplex_id((0, 1))      # tangent along the x axis
    fr = m.frame(1, ei)
    # reference axis x is too parallel, so the next canonical axis is used
    assert abs(fr.normals[0] @ fr.tangents[0]) < 1e-12
    assert np.allclose(fr.normals[0], [0.0, 1.0, 0.0])


def test_json_round_trip_bit_exact(tmp_path):
    m = SimplicialMesh([[0.1234567890123456, 0.9876543210987654],
                        [1.0, 0.3333333333333333], [0.1, 1.7]], [(0, 1, 2)])
    path = tmp_path / "m.json"
    m.save(path)
    m2 = SimplicialMesh.load(path)
    assert (m.vertices == m2.vertices).all()
    assert (m.cells == m2.cells).all()


def test_fan_grid_counts():
    g = cube_center_fan_grid(1, 1, 1)
    V, E, F, T = g.counts
    assert V == 15       # 8 corners + 1 center + 6 face centers
    assert T == 24       # four fan tetrahedra per face
    assert g.euler_characteristic() == 1
    g2 = cube_center_fan_grid(2, 1, 1)
    assert g2.euler_characteristic() == 1
    assert g2.counts[3] == 48


def test_closed_loop_has_no_boundary():
    # combinatorial circle (the 1D embedding overlaps, the complex does not)
    circle = SimplicialMesh([[0.0], [1.0], [2.0]], [(0, 1), (1, 2), (0, 2)])
    assert circle.euler_characteristic() == 0
    cls = circle.classify_boundary()
    assert not cls.has_boundary
    assert not cls.corner_vertices and not cls.noncorner_boundary_vertices


def test_contractible_generators_euler_one(meshes=None):
    from derham.mesh import three_tet_fan, three_triangle_mesh
    assert three_triangle_mesh().euler_characteristic() == 1
    assert three_tet_fan().euler_characteristic() == 1


def test_fan_grid_edge_vertex_ratio_monotone():
    ratios = []
    for n in (1, 2, 3):
        V, E, _, _ = cube_center_fan_grid(n, n, n).counts
        ratios.append(E / V)
    assert ratios[0] < ratios[1] < ratios[2] < 5.8   # bulk limit of this family
