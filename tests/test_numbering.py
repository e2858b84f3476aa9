"""Global DoF numbering from the plan against the realised DoFs."""

import dataclasses

import numpy as np
import pytest

from conftest import delaunay_tets
from dof_reference import reference_numbering
from derham import elements
from derham.assembly import GlobalSpace
from derham.elements import _P_MIN, block_rows, element_def, p_min
from derham.mesh import SimplicialMesh, three_tet_fan, triangle_grid


def _moved_grid(seed, n=4):
    """triangle_grid(n) rotated, scaled and shifted by seeded amounts."""
    rng = np.random.default_rng(seed)
    grid = triangle_grid(n)
    theta, scale = rng.uniform(0, 2 * np.pi), rng.uniform(0.8, 1.25)
    rot = scale * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return SimplicialMesh(grid.vertices @ rot.T + rng.normal(size=2),
                          [tuple(c) for c in grid.cells])


EXTRA = {
    "tet3-rotated": lambda: three_tet_fan().with_rotated_edge_normals(11),
    "delaunay": lambda: delaunay_tets(501),
    "moved-grid": lambda: _moved_grid(501),
}


def _spaces(mesh):
    for (r, k, n) in sorted(_P_MIN, key=str):
        if n == mesh.dim:
            for p in range(p_min(r, k, n), p_min(r, k, n) + 4):
                yield element_def(r, p, k, n)


@pytest.mark.parametrize("name", ["interval", "tri", "square", "tri3", "split", "annulus",
                                  "tet", "tet2", "tet3"] + sorted(EXTRA))
def test_numbering_matches_realised_first_appearance(meshes, name):
    mesh = meshes[name] if name in meshes else EXTRA[name]()
    count = 0
    for el in _spaces(mesh):
        space = GlobalSpace(mesh, el)
        ref, dim = reference_numbering(el, mesh)
        assert space.dim == dim, el
        assert len(space.cell_global) == len(ref)
        for got, want in zip(space.cell_global, ref):
            assert np.array_equal(got, want), el
        count += 1
    assert count == 4 * sum(n == mesh.dim for (_, _, n) in _P_MIN)


def test_realisation_checks_the_plan_size(meshes, monkeypatch):
    el = element_def(1, 3, 1, 3)
    plan = elements.dof_plan

    def overstated(el, d):
        return tuple(dataclasses.replace(g, degrees=g.degrees + (g.degrees[-1],))
                     for g in plan(el, d))
    monkeypatch.setattr(elements, "dof_plan", overstated)
    with pytest.raises(RuntimeError, match="the plan has"):
        block_rows(el, meshes["tet"], [0], el.p)
