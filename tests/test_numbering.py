"""Global DoF numbering from the plan against the realised DoFs."""

import dataclasses

import numpy as np
import pytest

from conftest import delaunay_tets
from dof_reference import (reference_broken, reference_dof_lookup, reference_gather,
                           reference_numbering)
from derham import elements
from derham.assembly import GlobalSpace
from derham.elements import _P_MIN, block_rows, dof_plan, element_def, p_min
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


FIXTURES = ["interval", "tri", "square", "tri3", "split", "annulus", "tet", "tet2", "tet3"]


def _spaces(mesh, extra=3):
    for (r, k, n) in sorted(_P_MIN, key=str):
        if n == mesh.dim:
            for p in range(p_min(r, k, n), p_min(r, k, n) + extra + 1):
                yield element_def(r, p, k, n)


@pytest.mark.parametrize("name", FIXTURES + sorted(EXTRA))
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


@pytest.mark.parametrize("name", FIXTURES)
def test_dofs_match_the_cell_walk(meshes, name):
    mesh = meshes[name]
    for el in _spaces(mesh, extra=2):
        space = GlobalSpace(mesh, el)
        table, matched = reference_dof_lookup(space), 0
        for d in range(mesh.dim + 1):
            ents = np.arange(mesh.count(d))
            for g in dof_plan(el, d):
                stacked = space.dofs(d, ents, g.label)
                assert stacked.shape == (len(ents), g.size)
                for idx in ents:
                    want = [gi for gi, label in table[(d, idx)] if label == g.label]
                    assert space.dofs(d, idx, g.label).tolist() == want, (el, d, idx, g.label)
                    assert stacked[idx].tolist() == want
                    matched += len(want)
            assert space.dofs(d, ents, "no-such-group").shape == (len(ents), 0)
        # every global DoF is in exactly one plan group of its entity
        assert matched == space.dim, el


@pytest.mark.parametrize("name", FIXTURES)
def test_gather_and_broken_match_cell_loops(meshes, name):
    mesh = meshes[name]
    rng = np.random.default_rng(7)
    for el in _spaces(mesh, extra=0):
        space = GlobalSpace(mesh, el)
        values = rng.normal(size=space.cell_global.shape + (2,))
        assert np.array_equal(space.gather(values), reference_gather(space, values)), el
        assert np.array_equal(space.gather(values[..., 0]), reference_gather(space, values[..., 0]))
        for p in (el.p, el.p + 1):
            assert np.array_equal(space.broken(p), reference_broken(space, p)), (el, p)
