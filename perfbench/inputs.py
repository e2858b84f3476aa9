"""Seeded inputs for the benchmark workloads.

Everything here depends on numpy and scipy only, never on ``derham``: the
program receives the generated vertices and cells and builds its own meshes.
The same seed always gives the same inputs, and every seed gives inputs of
the same combinatorial make-up, so that runs with different seeds do the same
amount of work.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import Delaunay

# exact3d-delaunay: two tetrahedrisations of 5 random points, 2 tets each;
# rows r=1 and r=2 at window p=2, one row per mesh.
DELAUNAY_POINTS = 5
DELAUNAY_TETS = 2
DELAUNAY_MIN_QUALITY = 0.2
EXACT3D_VERDICTS = [(0, 1, 2), (1, 2, 2)]   # (mesh, r, p)

# exact2d-grid: a structured n x n triangle grid under a seeded similarity.
GRID_N = 20
EXACT2D_VERDICTS = [(0, 0, 2)]


def _tet_quality(pts):
    """6*sqrt(2)*volume / (longest edge)^3: 1 for a regular tet, 0 for a sliver."""
    vol = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
    longest = max(np.linalg.norm(pts[i] - pts[j])
                  for i in range(4) for j in range(i + 1, 4))
    return 6.0 * math.sqrt(2.0) * vol / longest ** 3


def delaunay_3d(rng, n_points=DELAUNAY_POINTS, n_tets=DELAUNAY_TETS,
                min_quality=DELAUNAY_MIN_QUALITY):
    """Random points in the unit cube whose Delaunay complex has ``n_tets``
    well-shaped tetrahedra and uses every point (resampled until it does)."""
    while True:
        pts = rng.random((n_points, 3))
        tri = Delaunay(pts)
        if len(tri.simplices) != n_tets or len(tri.coplanar):
            continue
        if len(np.unique(tri.simplices)) != n_points:
            continue
        if min(_tet_quality(pts[s]) for s in tri.simplices) < min_quality:
            continue
        return {"vertices": pts.tolist(),
                "cells": sorted(sorted(int(i) for i in s) for s in tri.simplices)}


def similar_grid(rng, n=GRID_N):
    """The unit square split into n x n pairs of triangles (the vertex and
    cell order of ``derham.mesh.triangle_grid``), rotated by a random angle,
    scaled by a random factor in [0.8, 1.25] and shifted.  Every cell is a
    translate of one of two triangles."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    scale = math.exp(rng.uniform(math.log(0.8), math.log(1.25)))
    shift = rng.uniform(-1.0, 1.0, size=2)
    rot = scale * np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
    unit = np.array([[i / n, j / n] for j in range(n + 1) for i in range(n + 1)])
    verts = unit @ rot.T + shift
    cells = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b, c, d = a + 1, a + n + 1, a + n + 2
            cells.append([a, b, d])
            cells.append([a, c, d])
    return {"vertices": verts.tolist(), "cells": cells}


def split_edge_quad(rng):
    """A jittered quadrilateral in three triangles whose bottom edge is split:
    vertex 1 lies exactly on the segment from vertex 0 to vertex 2, so it is
    a boundary vertex that is not a corner."""
    split = float(rng.uniform(0.35, 0.65))
    j = [float(x) for x in rng.uniform(-0.15, 0.15, size=4)]
    verts = [[0.0, 0.0], [split, 0.0], [1.0, 0.0],
             [1.0 + j[0], 1.0 + j[1]], [j[2], 1.0 + j[3]]]
    return {"vertices": verts, "cells": [[0, 1, 4], [1, 3, 4], [1, 2, 3]]}


def in_process_inputs(workload, seed):
    """Meshes and verdict list for an in-process workload."""
    rng = np.random.default_rng(seed)
    if workload == "exact3d-delaunay":
        meshes = [delaunay_3d(rng) for _ in range(2)]
        return {"meshes": meshes, "verdicts": EXACT3D_VERDICTS}
    if workload == "exact2d-grid":
        return {"meshes": [similar_grid(rng)], "verdicts": EXACT2D_VERDICTS}
    raise ValueError(f"unknown in-process workload {workload!r}")


def cli_mesh(seed):
    """The 2D mesh that the mesh-reading CLI commands of cli-mix get."""
    return split_edge_quad(np.random.default_rng(seed))
