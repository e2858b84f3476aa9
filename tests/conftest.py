import numpy as np
import pytest
from scipy.spatial import Delaunay

from derham.forms import Simplex
from derham.mesh import (SimplicialMesh, annulus_mesh, cube_center_fan_grid, interval_mesh,
                         reference_tet, reference_triangle, split_edge_square,
                         three_tet_fan, three_triangle_mesh,
                         two_tet_mesh, two_triangle_square)

REF = {
    1: [[0.0], [1.0]],
    2: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    3: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}


def random_simplex(n, rng, min_volume=0.08):
    """Random nondegenerate simplex with a quality floor."""
    while True:
        verts = rng.random((n + 1, n)) * 2.0 - 0.5
        try:
            s = Simplex(verts)
        except ValueError:
            continue
        if abs(float(s.measure)) > min_volume:
            return verts


def delaunay_tets(seed, points=9):
    """A seeded random Delaunay tetrahedrisation of the unit cube's points."""
    pts = np.random.default_rng(seed).random((points, 3))
    tri = Delaunay(pts)
    used = np.unique(tri.simplices)
    remap = np.full(points, -1)
    remap[used] = np.arange(len(used))
    return SimplicialMesh(pts[used], remap[tri.simplices].tolist())


@pytest.fixture(scope="session")
def meshes():
    return {
        "interval": interval_mesh(3),
        "tri": reference_triangle(),
        "square": two_triangle_square(),
        "tri3": three_triangle_mesh(),
        "split": split_edge_square(),
        "annulus": annulus_mesh(),
        "tet": reference_tet(),
        "tet2": two_tet_mesh(),
        "tet3": three_tet_fan(),
    }


@pytest.fixture(scope="session")
def tunnel():
    """``cube_center_fan_grid(3, 3, 1)`` without the tets of its middle
    column, renumbered: 192 tets around one tunnel, Betti numbers (1, 1, 0, 0)."""
    m = cube_center_fan_grid(3, 3, 1)
    centroids = m.vertices[m.cells].mean(axis=1)
    cells = m.cells[(np.abs(centroids[:, :2] - 1.5) >= 0.5).any(axis=1)]
    used, renumbered = np.unique(cells, return_inverse=True)
    return SimplicialMesh(m.vertices[used], renumbered.reshape(cells.shape))
