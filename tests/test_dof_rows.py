"""DoF rows and operators against term-by-term FormPolynomial references."""

import numpy as np
import pytest

import loop_reference
from conftest import random_simplex
from dof_reference import (_coefficient_matrix, cell_blocks, coeffs, form_from_coeffs, random_form,
                           reference_operator, reference_values, scalar_moment, shape_basis)
from derham import assembly, bgg, elements
from derham.elements import _P_MIN, block_rows, element_def, p_min, shape_coeffs
from derham.exact import FormPolynomial, Simplex, cell_simplex, sub_simplex
from derham.forms import exterior_derivative_matrix, moment_gram, monomials, rank_of
from derham.mesh import SimplicialMesh

# (functional, element (r, p, k, n) that carries it)
FUNCTIONAL_CASES = [
    ("PointEval", (0, 3, 0, 2)),
    ("PointEval", (1, 3, 1, 3)),           # proxy weight
    ("PointDeriv", (1, 3, 0, 3)),
    ("PointDeriv", (2, 4, 1, 2)),          # proxy weight, then derivative
    ("ScalarMoment", (0, 4, 0, 3)),        # edges and faces
    ("NormalDerivMoment", (2, 5, 0, 2)),
    ("ComponentMoment", (2, 4, 1, 2)),
    ("ComponentMoment", ("hz", 3, 2, 3)),  # edge normals in 3D
    ("TraceWedgeMoment", (1, 3, 1, 3)),
    ("TraceWedgeMoment", (0, 2, 2, 3)),
    ("CellWedgeMoment", (0, 3, 0, 2)),
    ("CellWedgeMoment", (0, 3, 1, 3)),
    ("_InteriorComponent", (2, 4, 1, 2)),
]


def _functional(block, k, n):
    """The functional a block applies: a point value or derivative, or a
    moment of the scalar, the trace, a normal derivative or a proxy component
    on a subsimplex, or of the form or a proxy component on the cell."""
    g = block.group
    if g.kind == "point":
        return "PointDeriv" if g.directions else "PointEval"
    if block.entity[0] == n:
        return "_InteriorComponent" if g.weight is not None else "CellWedgeMoment"
    if g.directions:
        return "NormalDerivMoment"
    if g.weight is not None:
        return "ComponentMoment"
    return "ScalarMoment" if k == 0 else "TraceWedgeMoment"


@pytest.mark.parametrize("kind,family", FUNCTIONAL_CASES,
                         ids=["-".join(map(str, (c,) + f)) for c, f in FUNCTIONAL_CASES])
def test_row_matches_form_algebra(kind, family):
    r, p, k, n = family
    rng = np.random.default_rng([ord(c) for c in f"{kind}{family}"])
    mesh = SimplicialMesh(random_simplex(n, rng), [tuple(range(n + 1))])
    el = element_def(r, p, k, n)
    cell = cell_simplex(mesh, 0)
    cverts = tuple(range(n + 1))
    blocks = cell_blocks(el, mesh, 0)
    starts = np.cumsum([0] + [b.size for b in blocks])
    picked = [i for i, b in enumerate(blocks) if _functional(b, k, n) == kind]
    assert picked
    rows = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in picked])
    for degree in (p, p - 1, p - 2):     # forms of lower degree are elevated
        u = random_form(cell, k, degree, rng)
        new = block_rows(el, mesh, [0], p)[0, rows] @ coeffs(u, p)
        ref = np.array([x for i in picked for x in reference_values(blocks[i], u, cverts)])
        np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        # the rows also work at the form's own degree
        own = block_rows(el, mesh, [0], degree)[0, rows[0]] @ coeffs(u, degree)
        assert abs(own - ref[0]) <= 1e-12 * max(np.abs(ref).max(), 1.0)


def _assert_operator_matches(src, dst, fmap, ref_map):
    """The coefficient map ``fmap`` against the form-level map ``ref_map``."""
    new = assembly.assemble_local_operator(src, dst, fmap).array
    ref = reference_operator(src, dst, ref_map)
    assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


def _d(f):
    return f.exterior_derivative()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exterior_derivative_matrix_matches_form_d(n):
    rng = np.random.default_rng(60 + n)
    cell = Simplex(random_simplex(n, rng))
    for k in range(n):
        for p in range(1, 5):
            u = random_form(cell, k, p, rng)
            for q in (p - 1, p + 1):
                ref = coeffs(u.exterior_derivative(), q)
                new = exterior_derivative_matrix(cell.grad_bary_float(), k, p, q) @ coeffs(u, p)
                assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max(), (k, p, q)


@pytest.mark.parametrize("family", sorted(_P_MIN, key=str), ids=str)
def test_shape_coeffs_match_shape_basis(family):
    r, k, n = family
    rng = np.random.default_rng([n, k])
    cell = Simplex(random_simplex(n, rng))
    for p in (_P_MIN[family], _P_MIN[family] + 1):
        el = element_def(r, p, k, n)
        ref = _coefficient_matrix(shape_basis(el, cell), p)
        assert np.array_equal(shape_coeffs(el, cell.grad_bary_float()), ref), p


@pytest.mark.parametrize("mesh_name", ["tet", "tet2", "tet3"])
@pytest.mark.parametrize("r,p", [(0, 3), (1, 2), (2, 2)])
def test_3d_row_operators_match_reference(meshes, mesh_name, r, p):
    spaces = [assembly.assemble_space(meshes[mesh_name], *s)
              for s in assembly.family_row(3, r, p)]
    for src, dst in zip(spaces, spaces[1:]):
        _assert_operator_matches(src, dst, assembly._d_map(src, dst), _d)


def test_mixed_row_operators_match_reference(meshes):
    # the third slot is the trimmed ("minus") space
    spaces = [assembly.assemble_space(meshes["tet2"], *s)
              for s in assembly.family_row(3, "mixed", 3)]
    assert spaces[2].el.r == "minus"
    for src, dst in zip(spaces, spaces[1:]):
        _assert_operator_matches(src, dst, assembly._d_map(src, dst), _d)


def _lowest_row(n, r):
    """The smallest window p at which every slot of the row is a family."""
    for p in range(1, 6):
        if all(p_min(s_r, k, n) <= q for s_r, q, k in assembly.family_row(n, r, p)):
            return p
    raise AssertionError((n, r))


def test_dof_path_builds_no_form_polynomial(meshes, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("FormPolynomial built on the DoF path")
    monkeypatch.setattr(FormPolynomial, "__init__", refuse)
    rows = 0
    for mesh in meshes.values():
        n = mesh.dim
        for r in (0, 1, 2, "mixed") if n == 3 else (0, 1, 2):
            slots = assembly.family_row(n, r, _lowest_row(n, r))
            spaces = [assembly.assemble_space(mesh, *s) for s in slots]
            for space in spaces:
                assert space.rows.shape[:2] == space.cell_global.shape
            for src, dst in zip(spaces, spaces[1:]):
                assert assembly.assemble_d(src, dst).array.shape == (dst.dim, src.dim)
            rows += 1
    assert rows == 3 + 5 * 3 + 3 * 4


def _embed_form(f, comp):
    """Scalar 0-form -> 1-form with the scalar in one component."""
    return FormPolynomial(f.simplex, 1, {(comp,): f.comps.get((), {})})


def _grad_form(f, comp):
    """Scalar 0-form -> scalar component of its differential."""
    return FormPolynomial(f.simplex, 0, {(): f.exterior_derivative().comps.get((comp,), {})})


def _skew_trace_form(f, comp):
    """Row 1-form -> its contribution to -(w11 + w22) as a 2-form."""
    return FormPolynomial(f.simplex, 2, {(0, 1): {e: -c for e, c in f.comps.get((comp,), {}).items()}})


@pytest.mark.parametrize("which", ["embed", "skew_trace", "grad"])
def test_bgg_maps_match_reference(meshes, which):
    # at p = 2 the Hermite, Stenberg/pressure and Argyris degrees are 4, 3, 5
    ctx = bgg.BGGContext(meshes["square"], 2)
    src, dst, fmap, ref_map = {
        "embed": (ctx.hermite, ctx.pressure,
                  lambda grads: exterior_derivative_matrix(grads, 1, 4, 3) @ bgg._embed_component(1, 15),
                  lambda f: _embed_form(f, 1).exterior_derivative()),
        "skew_trace": (ctx.stenberg, ctx.pressure, lambda grads: bgg._skew_trace(0, 10),
                       lambda f: _skew_trace_form(f, 0)),
        "grad": (ctx.argyris, ctx.hermite, lambda grads: bgg._grad_component(grads, 1, 5),
                 lambda f: _grad_form(f, 1)),
    }[which]
    _assert_operator_matches(src, dst, fmap, ref_map)


def test_image_below_target_degree_is_elevated(meshes):
    # d of quadratic scalars is linear; the target holds degree 2
    src = assembly.assemble_space(meshes["tri3"], 0, 2, 0)
    dst = assembly.assemble_space(meshes["tri3"], 0, 2, 1)
    _assert_operator_matches(src, dst, assembly._d_map(src, dst), _d)


def test_cross_cell_disagreement_reports_first_entry(meshes):
    # gradients of Lagrange functions have two-valued vertex data; the first
    # disagreeing entry in cell order is named, with both values
    src = assembly.assemble_space(meshes["square"], 0, 2, 0)
    dst = assembly.assemble_space(meshes["square"], 1, 2, 1)
    with pytest.raises(RuntimeError, match=r"disagrees across cells at \(0,0\): -4.0 vs 0.0"):
        assembly.assemble_local_operator(src, dst, assembly._d_map(src, dst))


# -- stress rows ------------------------------------------------------------------

def _normal_trace(fields, nu, i):
    """(M nu)_i as a scalar form, from the entries {(a, b): m_ab}."""
    return fields[(i, 0)].scale(nu[0]) + fields[(i, 1)].scale(nu[1])


@pytest.mark.parametrize("q", [3, 4])
def test_stress_rows_match_form_algebra(q):
    rng = np.random.default_rng(40 + q)
    mesh = SimplicialMesh(random_simplex(2, rng), [(0, 1, 2)])
    cell = cell_simplex(mesh, 0)
    F, slots = bgg._stress_rows(mesh, 0, q)
    fields = {ab: FormPolynomial(cell, 0, {(): {a: rng.normal() for a in monomials(3, q)}})
              for ab in bgg._ENTRIES}
    new = F @ np.concatenate([coeffs(fields[ab], q) for ab in bgg._ENTRIES])
    checked = 0
    for value, slot in zip(new, slots):
        if slot[0] == "vertex":
            _, vi, ab = slot
            ref = fields[ab].eval(mesh.vertices[vi][None, :])[()].item()
        elif slot[0] == "edge":
            _, ei, i, mono = slot
            everts = mesh.skeleton[1][ei]
            sub = sub_simplex(mesh, 1, ei)
            trace = _normal_trace(fields, mesh.frame(1, ei).normals[0], i).restrict(sub, list(everts))
            ref = scalar_moment(trace, sub, {mono: 1})
        elif slot[0] == "skew":
            ref = scalar_moment(fields[(1, 0)] - fields[(0, 1)], cell, {slot[2]: 1})
        else:
            continue
        assert abs(value - ref) <= 1e-12 * max(abs(ref), 1.0), slot
        checked += 1
    assert checked == 12 + 6 * (q - 1) + (q + 1) * (q + 2) // 2 - 3


@pytest.mark.parametrize("q", [3, 4])
def test_stress_symmetric_tests_have_zero_normal_trace(q):
    rng = np.random.default_rng(50 + q)
    mesh = SimplicialMesh(random_simplex(2, rng), [(0, 1, 2)])
    cell = cell_simplex(mesh, 0)
    F, slots = bgg._stress_rows(mesh, 0, q)
    sym = F[[s for s, slot in enumerate(slots) if slot[0] == "sym"]]
    assert len(sym) == rank_of(sym) == 3 * q * (q - 1) // 2
    # the rows are Frobenius moments (1/|t|) int M : theta; recover each theta
    nq = len(monomials(3, q))
    theta = np.linalg.solve(np.kron(np.eye(4), moment_gram(3, q, q)), sym.T)
    for col in theta.T:
        fields = {ab: form_from_coeffs(cell, 0, q, col[c * nq:(c + 1) * nq])
                  for c, ab in enumerate(bgg._ENTRIES)}
        scale = np.abs(col).max()
        assert np.abs(col[nq:2 * nq] - col[2 * nq:3 * nq]).max() <= 1e-10 * scale
        for ei, everts in enumerate(mesh.skeleton[1]):
            nu = mesh.frame(1, ei).normals[0]
            for i in range(2):
                trace = _normal_trace(fields, nu, i).restrict(sub_simplex(mesh, 1, ei), list(everts))
                assert all(abs(c) <= 1e-10 * scale for poly in trace.comps.values()
                           for c in poly.values())


def _signature(args):
    """A call's arguments, arrays and lists by shape and bytes, to tell the
    distinct maps apart."""
    return tuple(a if a is None or isinstance(a, (int, str)) else
                 (np.shape(a), np.asarray(a, dtype=float).tobytes()) for a in args)


@pytest.mark.parametrize("family", [(2, 5, 0, 3), (2, 4, 1, 3)])
@pytest.mark.parametrize("mesh_name", ["tet", "tet2"])
def test_block_rows_builds_each_distinct_map_once(meshes, monkeypatch, family, mesh_name):
    # the vertex groups of these families repeat the most: point rows at each
    # degree, a derivative or proxy per axis, second derivatives per pair of axes
    el, mesh = element_def(*family), meshes[mesh_name]
    cells = np.arange(len(mesh.cells))
    calls = {}
    for module in (elements, loop_reference):
        for name in ("eval_row", "derivative_matrix", "proxy_matrix", "trace_matrix"):
            def counted(*args, _real=getattr(module, name), _key=(module, name)):
                calls.setdefault(_key, []).append(_signature(args))
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
    rows = block_rows(el, mesh, cells, el.p)
    reference = loop_reference.block_rows(el, mesh, cells, el.p)
    assert rows.dtype == reference.dtype and np.array_equal(rows, reference)
    assert rows.tobytes() == reference.tobytes()
    for name in ("eval_row", "derivative_matrix", "proxy_matrix", "trace_matrix"):
        once, by_group = calls.get((elements, name), []), calls.get((loop_reference, name), [])
        assert len(once) == len(set(once)) and set(once) == set(by_group), name
        # the group-by-group build repeats maps (a 0-form family has no proxy)
        assert len(by_group) > len(once) or not by_group, name
