"""Simplicial meshes: skeleton, incidence, frames, boundary classification.

Orientation convention: every subsimplex is identified by its ascending
global vertex-index tuple, and edge tangents point from the lower to the
higher index.  Meshes are immutable after construction; all queries are pure.
"""

from __future__ import annotations

import json
import numbers
from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .forms import _frozen, nonzero_volume

COLLINEAR_TOL = 1e-12


class Frame(NamedTuple):
    """Orthonormal tangent/normal vectors attached to an edge or face."""
    tangents: np.ndarray   # (t, n): one row per tangent direction
    normals: np.ndarray    # (m, n): one row per normal direction


def _unit(vectors):
    """Each row over its length; the length is the row's dot product with
    itself through the same BLAS dot as ``np.linalg.norm``."""
    return vectors / np.sqrt((vectors[:, None, :] @ vectors[:, :, None])[:, 0])


class BoundaryClassification:
    """The corner/non-corner split that ``classify_boundary`` fills in."""

    def __init__(self):
        self.corner_vertices = set()
        self.noncorner_boundary_vertices = set()
        self.corner_edges = set()
        self.noncorner_boundary_edges = set()
        self.directions = {}
        self.tangents = {}
        self.has_boundary = True

    @property
    def v0(self):
        return len(self.corner_vertices) + len(self.noncorner_boundary_vertices)

    @property
    def v0s(self):
        return len(self.noncorner_boundary_vertices)


def _index(i, cell):
    """A cell's vertex index; anything but an integer is refused, not truncated."""
    if isinstance(i, bool) or not isinstance(i, numbers.Integral):
        raise ValueError(f"cell {cell!r} has a vertex index that is not an integer: {i!r}")
    return int(i)


class SimplicialMesh:
    """A conforming simplicial complex in dimension 1, 2 or 3."""

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2:
            raise ValueError("vertices must be a 2D coordinate array")
        self.dim = self.vertices.shape[1]
        if self.dim not in (1, 2, 3):
            raise ValueError("only dimensions 1..3 are supported")
        nonfinite = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if nonfinite.size:
            vi = int(nonfinite[0])
            raise ValueError(f"vertex {vi} has a non-finite coordinate "
                             f"{self.vertices[vi].tolist()}")
        cells = [tuple(sorted(_index(i, c) for i in c)) for c in cells]
        if not cells:
            raise ValueError("mesh needs at least one cell")
        seen = set()
        for c in cells:
            if len(c) != self.dim + 1 or len(set(c)) != self.dim + 1:
                raise ValueError(f"cell {c} is not a {self.dim}-simplex")
            if any(i < 0 or i >= len(self.vertices) for i in c):
                raise ValueError(f"cell {c} references an unknown vertex")
            if c in seen:
                raise ValueError(f"duplicate cell {c}")
            seen.add(c)
        pts = self.vertices[np.array(cells, dtype=int)]
        flat = np.flatnonzero(~nonzero_volume(pts))
        if flat.size:
            raise ValueError(f"degenerate cell {cells[flat[0]]} (zero volume)")
        # frames divide by the square root of each edge's squared length and,
        # in 3D, of each face's squared cross-product norm (its lengths to the
        # fourth power): both must be normal floats, neither overflowed nor
        # underflowed
        for what in ("edge", "face") if self.dim == 3 else ("edge",):
            subs = np.array(list(combinations(range(self.dim + 1), 2 + (what == "face")))).T
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                vec = pts[:, subs[1:]] - pts[:, subs[:1]]
                vec = vec[:, 0] if what == "edge" else np.cross(vec[:, 0], vec[:, 1])
                sq = np.square(vec).sum(axis=2)
            bad = np.flatnonzero(~((sq >= np.finfo(float).tiny) & (sq < np.inf)).ravel())
            if bad.size:
                ci, e = divmod(int(bad[0]), subs.shape[1])
                quantity = "squared length" if what == "edge" else "squared cross-product norm"
                raise ValueError(f"{what} {tuple(cells[ci][i] for i in subs[:, e])} has "
                                 f"{quantity} {sq[ci, e]:.3g}, outside the normal float64 "
                                 f"range; rescale the coordinates")
        self.cells = np.array(cells, dtype=int)

        # skeleton[d]: sorted list of ascending vertex tuples; ids are indices
        self.skeleton = {}
        self._ids = {}
        for d in range(self.dim + 1):
            simplices = set()
            for c in cells:
                simplices.update(combinations(c, d + 1))
            ordered = sorted(simplices)
            self.skeleton[d] = ordered
            self._ids[d] = {s: i for i, s in enumerate(ordered)}

        # cofaces: for each simplex, the cells containing it; cell_entities[d]:
        # per cell, the ids of its d-simplices in combinations order
        self.cofaces = {d: [[] for _ in self.skeleton[d]] for d in range(self.dim)}
        self.cell_entities = {}
        for d in range(self.dim):
            ids = self._ids[d]
            table = [[ids[s] for s in combinations(c, d + 1)] for c in cells]
            for ci, row in enumerate(table):
                for i in row:
                    self.cofaces[d][i].append(ci)
            self.cell_entities[d] = np.array(table, dtype=int)

        facets = self.skeleton[self.dim - 1]
        for fi, f in enumerate(facets):
            if len(self.cofaces[self.dim - 1][fi]) > 2:
                raise ValueError(f"facet {f} has more than two cofaces")

        # boundary flags propagate down from boundary facets
        self.boundary = {d: [False] * len(self.skeleton[d]) for d in range(self.dim + 1)}
        for fi, f in enumerate(facets):
            if len(self.cofaces[self.dim - 1][fi]) == 1:
                for d in range(self.dim):
                    for s in combinations(f, d + 1):
                        self.boundary[d][self._ids[d][s]] = True

        self._frames = {}
        self._edge_normal_seed = None

    # -- basic queries ---------------------------------------------------------
    def simplex_id(self, verts):
        verts = tuple(sorted(verts))
        return self._ids[len(verts) - 1][verts]

    def count(self, d):
        return len(self.skeleton[d])

    @property
    def counts(self):
        """(V, E, F, T) with zeros above the mesh dimension."""
        out = [0, 0, 0, 0]
        for d in range(self.dim + 1):
            out[d] = len(self.skeleton[d])
        return tuple(out)

    def boundary_simplices(self, d):
        return [i for i, b in enumerate(self.boundary[d]) if b]

    def euler_characteristic(self):
        return sum((-1) ** d * len(self.skeleton[d]) for d in range(self.dim + 1))

    # -- frames ------------------------------------------------------------------
    def frame(self, d, idx):
        """Deterministic orthonormal frame of an edge (d=1) or face (d=2)."""
        frames = self.frames(d)
        return Frame(tangents=frames.tangents[idx], normals=frames.normals[idx])

    def frames(self, d):
        """The frames of every edge (d=1) or, in 3D, face (d=2), stacked on a
        leading entity axis and built once, as one array operation per step.

        Each length is ``sqrt`` of the vector's dot product with itself, as
        ``np.linalg.norm`` takes it, so every frame has the bits it has when
        built alone.
        """
        if d not in self._frames:
            if not (d == 1 or d == 2 and self.dim == 3):
                raise ValueError("frames exist for edges and (in 3D) faces only")
            pts = self.vertices[np.array(self.skeleton[d])]
            t1 = _unit(pts[:, 1] - pts[:, 0])
            if d == 2:
                nu = _unit(np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]))
                fr = Frame(np.stack([t1, np.cross(nu, t1)], axis=1), nu[:, None])
            elif self.dim == 1:
                fr = Frame(t1[:, None], np.zeros((len(t1), 0, 1)))
            elif self.dim == 2:
                fr = Frame(t1[:, None], np.stack([t1[:, 1], -t1[:, 0]], axis=1)[:, None])
            else:
                ref, along = self._edge_references(t1)
                n1 = _unit(ref - along[:, None] * t1)
                fr = Frame(t1[:, None], np.stack([n1, np.cross(t1, n1)], axis=1))
            self._frames[d] = Frame(_frozen(fr.tangents), _frozen(fr.normals))
        return self._frames[d]

    def _edge_references(self, tau):
        """Per 3D edge, the vector its first normal is projected from (the
        first axis on which the unit tangent is at most 0.9, or a seeded
        random one) and that vector's component along the tangent."""
        if self._edge_normal_seed is None:
            axis = np.argmax(np.abs(tau) <= 0.9, axis=1)
            return np.eye(3)[axis], tau[np.arange(len(tau)), axis]
        refs = []
        for idx, t in enumerate(tau):
            rng = np.random.default_rng(self._edge_normal_seed + idx)
            ref = rng.normal(size=3)
            while np.linalg.norm(ref - (ref @ t) * t) < 1e-8:
                ref = rng.normal(size=3)
            refs.append(ref)
        refs = np.array(refs)
        return refs, np.array([r @ t for r, t in zip(refs, tau)])

    def with_rotated_edge_normals(self, seed):
        """Copy of the mesh whose 3D edge-normal pairs are re-randomized."""
        other = SimplicialMesh(self.vertices, [tuple(c) for c in self.cells])
        other._edge_normal_seed = int(seed)
        return other

    # -- geometry for elements ---------------------------------------------------
    @cached_property
    def bary_inverse(self):
        """Every cell's inverse of [1 | vertices] (column j holds lambda_j's
        constant and gradient), one stacked inverse: shape (cells, dim + 1,
        dim + 1)."""
        pts = self.vertices[self.cells]
        return _frozen(np.linalg.inv(np.concatenate([np.ones(pts.shape[:2] + (1,)), pts], axis=2)))

    @property
    def bary_grads(self):
        """Every cell's float barycentric gradients: (cells, dim + 1, dim)."""
        return self.bary_inverse[:, 1:].swapaxes(1, 2)

    def chart_grads(self, d, ids):
        """The float barycentric gradients of every d-simplex in ``ids``
        (0 < d < dim), in the chart of its frame (origin its first vertex),
        from one stacked inverse: (len(ids), d+1, d)."""
        pts = self.vertices[np.array(self.skeleton[d])[ids]]
        chart = (pts - pts[:, :1]) @ self.frames(d).tangents[ids].swapaxes(1, 2)
        if not nonzero_volume(chart).all():
            raise ValueError("degenerate simplex (zero volume)")
        ones = np.ones(chart.shape[:2] + (1,))
        return np.linalg.inv(np.concatenate([ones, chart], axis=2))[:, 1:].swapaxes(1, 2)

    # -- boundary classification ---------------------------------------------------
    def classify_boundary(self, tol=COLLINEAR_TOL):
        """Corner/non-corner split of boundary vertices (and 3D edges) and the
        boundary's tangents there, from one walk over the boundary edges (and
        one over the 3D boundary faces).  ``directions[vi]``: the unit
        directions (low vertex to high) of vi's boundary edges in edge order; a
        vertex is a corner unless they are collinear (2D) or coplanar (3D), an
        edge unless its boundary faces are coplanar.  ``tangents[(d, idx)]``:
        rows spanning the tangent space, the first direction at a 2D vertex,
        the top two right singular vectors of the directions at a 3D vertex,
        the frame tangents of the first boundary face at a 3D edge, and all of
        Rⁿ (the identity) at a corner.
        """
        cls = BoundaryClassification()
        if not any(self.boundary[0]):
            cls.has_boundary = False
            return cls
        everything = np.eye(self.dim)
        if self.dim == 1:
            cls.corner_vertices = set(self.boundary_simplices(0))
            cls.tangents = {(0, vi): everything for vi in cls.corner_vertices}
            return cls
        for ei in self.boundary_simplices(1):
            for vi in self.skeleton[1][ei]:
                cls.directions.setdefault(vi, []).append(self.frames(1).tangents[ei, 0])
        for vi, dirs in cls.directions.items():
            cls.directions[vi] = dirs = np.array(dirs)
            if self.dim == 2:
                flat = np.all(np.abs(dirs[1:] @ [-dirs[0][1], dirs[0][0]]) <= tol)
                tangents = dirs[:1]
            else:
                _, sv, vt = np.linalg.svd(dirs)
                flat = sv.size < 3 or sv[2] <= tol * sv[0]
                tangents = vt[:2]
            (cls.noncorner_boundary_vertices if flat else cls.corner_vertices).add(vi)
            cls.tangents[(0, vi)] = tangents if flat else everything
        if self.dim == 3:
            faces = {}
            for fi in self.boundary_simplices(2):
                for e in combinations(self.skeleton[2][fi], 2):
                    faces.setdefault(self._ids[1][e], []).append(fi)
            frames, nu = self.frames(2), self.frames(2).normals[:, 0]
            for ei, (f0, *rest) in faces.items():
                flat = np.linalg.norm(np.cross(nu[f0], nu[rest]), axis=1).max(initial=0.0) <= tol
                (cls.noncorner_boundary_edges if flat else cls.corner_edges).add(ei)
                cls.tangents[(1, ei)] = frames.tangents[f0] if flat else everything
        return cls

    # -- file format -----------------------------------------------------------
    def to_json(self):
        return json.dumps({
            "dim": self.dim,
            "vertices": [[float(x) for x in row] for row in self.vertices],
            "cells": [[int(i) for i in c] for c in self.cells],
        })

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a mesh file holds one JSON object")
        verts, cells = np.array(data["vertices"], dtype=float), data["cells"]
        listed = isinstance(cells, list) and all(isinstance(c, list) for c in cells)
        if verts.ndim != 2 or not listed:
            raise ValueError("vertices and cells must be lists of number lists")
        if verts.shape[1] != data["dim"]:
            raise ValueError("vertex coordinates do not match declared dimension")
        return cls(verts, cells)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())


# ---------------------------------------------------------------------------
# mesh generators used throughout the test and verification suites
# ---------------------------------------------------------------------------

def interval_mesh(ncells, length=1.0):
    verts = [[length * i / ncells] for i in range(ncells + 1)]
    cells = [(i, i + 1) for i in range(ncells)]
    return SimplicialMesh(verts, cells)


def reference_triangle():
    return SimplicialMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1, 2)])


def reference_tet():
    return SimplicialMesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                          [(0, 1, 2, 3)])


def two_triangle_square():
    return SimplicialMesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                          [(0, 1, 2), (0, 2, 3)])


def split_edge_square():
    """Unit square with the bottom edge split at its midpoint.

    The midpoint is a boundary vertex that is not a corner.
    """
    verts = [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    cells = [(0, 1, 4), (1, 3, 4), (1, 2, 3)]
    return SimplicialMesh(verts, cells)


def three_triangle_mesh():
    """Contractible three-cell 2D mesh."""
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.8, 0.5]]
    cells = [(0, 1, 2), (0, 2, 3), (1, 4, 2)]
    return SimplicialMesh(verts, cells)


def triangle_grid(n):
    """Unit square split into a structured n-by-n grid of triangle pairs."""
    verts = [[i / n, j / n] for j in range(n + 1) for i in range(n + 1)]
    cells = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b, c, d = a + 1, a + n + 1, a + n + 2
            cells.append((a, b, d))
            cells.append((a, d, c))
    return SimplicialMesh(verts, cells)


def annulus_mesh():
    """Square with a square hole, eight triangles; first Betti number 1."""
    outer = [[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [0.0, 3.0]]
    inner = [[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]]
    verts = outer + inner
    cells = [(0, 1, 5), (0, 5, 4), (1, 2, 6), (1, 6, 5),
             (2, 3, 7), (2, 7, 6), (3, 0, 4), (3, 4, 7)]
    return SimplicialMesh(verts, cells)


def two_tet_mesh():
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    cells = [(0, 1, 2, 3), (1, 2, 3, 4)]
    return SimplicialMesh(verts, cells)


def three_tet_fan():
    """Three tetrahedra sharing the edge (0, 1); contractible."""
    verts = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.2],
             [0.7, 0.7, 0.4], [0.0, 1.0, 0.6]]
    cells = [(0, 1, 2, 3), (0, 1, 3, 4), (0, 1, 2, 4)]
    return SimplicialMesh(verts, cells)


def cube_center_fan_grid(nx, ny, nz):
    """Structured box mesh: each unit cube is fanned from its center.

    Vertices are the lattice corners, the cube centers, and the face centers;
    each cube face is split into four triangles around its face center and
    coned from the cube center, giving 24 tetrahedra per cube.  Face centers
    are shared between neighbouring cubes, so the mesh is conforming.
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("grid sizes must be positive")
    verts = []
    index = {}

    def vid(p):
        key = (round(p[0] * 2) / 2, round(p[1] * 2) / 2, round(p[2] * 2) / 2)
        if key not in index:
            index[key] = len(verts)
            verts.append(list(key))
        return index[key]

    cells = []
    square = ((0, 0), (1, 0), (1, 1), (0, 1))
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                c = vid((i + 0.5, j + 0.5, k + 0.5))
                corners = {d: vid((i + d[0], j + d[1], k + d[2]))
                           for d in product((0, 1), repeat=3)}
                # the faces x = i, i + 1, then y, then z: centre and corner loop
                for axis, side in product(range(3), (0, 1)):
                    centre = [i + 0.5, j + 0.5, k + 0.5]
                    centre[axis] += side - 0.5
                    fc = vid(tuple(centre))
                    ring = [corners[ab[:axis] + (side,) + ab[axis:]] for ab in square]
                    cells += [(c, fc, ring[a], ring[(a + 1) % 4]) for a in range(4)]
    return SimplicialMesh(verts, cells)
