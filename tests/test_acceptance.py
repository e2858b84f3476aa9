"""Acceptance suite: one test per verification criterion.

Each test prints one line `ACCEPT <id> PASS|FAIL <detail>` (run pytest with
-s or read captured output).  The edge/vertex asymptotic-ratio clause of the
DoF-savings criterion is strictly expected to fail: for the face-center fan
family the bulk ratio limit is 29/5, and a counting argument (E = V + T +
boundary/2 - 1 on a ball) shows no conforming triangulation with these
vertex sets can reach 7 at desk-scale grids.  Everything else passes at the
stated tolerances.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import REF, random_simplex
from derham.assembly import (assemble_d, assemble_space, dim_formula,
                             dof_savings, family_row, homogeneous_row_report,
                             rank_of, verify_decomposition,
                             verify_exactness, verify_row, complex_residual)
from derham.bgg import huzhang_stress, verify_bgg_identity, xi_complex
from derham.elements import (dof_matrix, element_def, jet_complex_ranks,
                             p_min, subsimplex_bubble_dims,
                             tangential_bubble_span, unisolvence_check,
                             zero_trace_dim)
from derham.exact import Simplex
from derham.mesh import SimplicialMesh, cube_center_fan_grid


def report(cid, ok, detail=""):
    print(f"ACCEPT {cid} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid}: {detail}"


# -- criterion 1: global dimension formulas ---------------------------------------

def test_c01_dimension_formulas(meshes):
    checks = 0
    groups = [
        (2, [(1, 0), (1, 1), (1, 2)], ("tri", "square", "tri3")),
        (3, [(1, 0), (1, 1), (1, 2), (1, 3)], ("tet", "tet2", "tet3")),
        (3, [(2, 0), (2, 1), (2, 2), (2, 3)], ("tet", "tet2", "tet3")),
        (3, [("hz", 2)], ("tet", "tet2", "tet3")),
    ]
    for n, fams, names in groups:
        for (r, k) in fams:
            p0 = p_min(r, k, n)
            for p in range(p0, p0 + 3):
                for name in names:
                    m = meshes[name]
                    assembled = assemble_space(m, r, p, k).dim
                    formula = dim_formula(r, p, k, n, m.counts)
                    assert assembled == formula, (r, p, k, name)
                    checks += 1
    report("C1", True, f"{checks} integer dimension identities")


# -- criterion 2: local dimension identities ----------------------------------------

def test_c02_local_identities():
    ok = True
    for p in range(2, 6):
        el = element_def(1, p, 1, 3)
        ok &= 2 * el.local_dim == p ** 3 + 6 * p ** 2 + 11 * p + 6
        ok &= el.local_dim == (12 + 6 * (p - 1) + 4 * (p - 1) * (p + 1)
                               + (p - 2) * (p - 1) * (p + 1) // 2)
    for p in range(4, 8):
        ok &= element_def(2, p, 1, 3).local_dim == 3 * math.comb(p + 3, 3)
    for p in range(2, 6):
        ok &= element_def("hz", p, 2, 3).local_dim == 3 * math.comb(p + 3, 3)
    report("C2", ok, "local totals for the three vector families")


# -- criterion 3: unisolvence ----------------------------------------------------------

def test_c03_unisolvence():
    rng = np.random.default_rng(20240)
    families = []
    for n in (1, 2, 3):
        rs = [0, 1, 2] + (["hz", "minus"] if n == 3 else [])
        for r in rs:
            ks = range(n + 1) if r in (0, 1, 2) else [2]
            for k in ks:
                p0 = p_min(r, k, n)
                for p in range(p0, p0 + 3):
                    families.append((r, p, k, n))
    worst = 1.0
    for (r, p, k, n) in families:
        el = element_def(r, p, k, n)
        for _ in range(5):
            rep = unisolvence_check(el, random_simplex(n, rng))
            assert rep["pass"], (r, p, k, n, rep["sigma_ratio"])
            worst = min(worst, rep["sigma_ratio"])
    # negative control: dropping one interior DoF loses exactly one rank
    el = element_def(1, 2, 1, 3)
    M, dofs = dof_matrix(el, REF[3])
    sv = np.linalg.svd(np.delete(M, len(dofs) - 1, axis=0), compute_uv=False)
    deficiency = el.local_dim - int(np.sum(sv > 1e-9 * sv[0]))
    assert deficiency == 1
    report("C3", worst > 1e-6,
           f"{len(families)} families x 5 simplices, worst ratio {worst:.2e}")


# -- criteria 4-6: complex property, exactness, surjectivity -------------------------

ROWS = [
    ("interval", 1, 2, None), ("interval", 1, 3, None),
    ("square", 1, 1, None), ("square", 1, 2, None), ("tri3", 1, 1, None),
    ("square", 2, 2, None), ("tri", 2, 2, None),
    ("tet", 1, 0, None), ("tet2", 1, 0, None), ("tet", 1, 1, None),
    ("tet", 2, 2, None), ("tet2", 2, 2, None),
    ("annulus", 1, 1, [1, 1, 0]),
]


@pytest.fixture(scope="module")
def row_reports(meshes):
    out = {}
    for name, r, p, betti in ROWS:
        out[(name, r, p)] = verify_exactness(meshes[name], r, p,
                                             expected_betti=betti)
    out[("tet", "mixed", 3)] = verify_exactness(meshes["tet"], "mixed", 3)
    out[("tet2", "mixed", 3)] = verify_exactness(meshes["tet2"], "mixed", 3)
    out[("tet", "mixed", 4)] = verify_exactness(meshes["tet"], "mixed", 4)
    return out


def test_c04_complex_property(row_reports):
    worst = 0.0
    for key, rep in row_reports.items():
        for resid in rep.dd_residuals:
            worst = max(worst, resid)
    report("C4", worst < 1e-10, f"max row-normalized dd residual {worst:.2e}")


def test_c05_exactness(row_reports):
    ok = all(rep.passed for rep in row_reports.values())
    ann = row_reports[("annulus", 1, 1)]
    ok = ok and ann.betti == [1, 1, 0]
    report("C5", ok, "rank-nullity exactness with expected harmonic classes")


def test_c06_div_surjectivity(meshes, row_reports):
    ok = all(rep.surjective_end for rep in row_reports.values())
    # the edge-continuous H(div) pair is not part of a row; test directly
    for name in ("tet", "tet2"):
        m = meshes[name]
        for p in (2, 3):
            src = assemble_space(m, "hz", p, 2)
            dst = assemble_space(m, 0, p - 1, 3)
            D = assemble_d(src, dst)
            ok = ok and rank_of(D.array) == dst.dim
    report("C6", ok, "last-map rank equals target dimension on all rows")


# -- criterion 7: boundary counts ------------------------------------------------------

def test_c07_boundary_counts(meshes):
    ok = True
    for name in ("square", "split"):
        m = meshes[name]
        cls = m.classify_boundary()
        for p in (2, 3):
            rep = homogeneous_row_report(m, p, cls)
            ok = ok and rep["dims"] == rep["formulas"]
            ok = ok and rep["alternating"] == 0
            ok = ok and rep["exact"]
    split_cls = meshes["split"].classify_boundary()
    ok = ok and split_cls.v0s == 1
    report("C7", ok, "printed 2D formulas and zero alternating sum")


# -- criterion 8: jet sequences --------------------------------------------------------

def test_c08_jet_sequences():
    ok = True
    for n in range(1, 6):
        ok = ok and jet_complex_ranks(n, 1)["exact"]
        rep = jet_complex_ranks(n, 2)
        ok = ok and rep["exact"]
        ok = ok and rep["dims"] == [1, (n * n + 3 * n + 2) // 2,
                                    n * (n + 1), n * (n - 1) // 2]
    for p in range(5, 9):
        edge = subsimplex_bubble_dims(3, 2, p)["edge"]
        ok = ok and edge["dim0"] == (p - 5) + 2 * (p - 4)
        ok = ok and edge["dim1"] == 3 * (p - 4) - 1
        ok = ok and edge["exact"]
    report("C8", ok, "vertex chains n=1..5 and edge-bubble identities p=5..8")


# -- criterion 9: bubble lemmas ---------------------------------------------------------

def test_c09_bubble_lemmas(meshes):
    ok = True
    cell = Simplex(REF[3])
    single = SimplicialMesh(np.asarray(REF[3], float), [(0, 1, 2, 3)])
    for p in (3, 4, 5):
        spanning = rank_of(tangential_bubble_span(cell.grad_bary_float(), p))
        constrained, _ = zero_trace_dim(single, p, 1)
        ok = ok and spanning == constrained
    ok = ok and verify_decomposition(2, 2, meshes["square"])["equal"]
    ok = ok and verify_decomposition(2, 3, meshes["tri3"])["equal"]
    ok = ok and verify_decomposition(3, 4, meshes["tet2"])["equal"]
    report("C9", ok, "two-sided bubble ranks and both decompositions")


# -- criterion 10: table box identities ---------------------------------------------------

def test_c10_box_identities(meshes):
    from derham.assembly import space_equal
    two, sq = meshes["tet2"], meshes["square"]
    ok, _ = space_equal(assemble_space(two, 1, 2, 2), assemble_space(two, 0, 2, 2))
    eq2, _ = space_equal(assemble_space(two, 1, 1, 3), assemble_space(two, 0, 1, 3))
    eq3, _ = space_equal(assemble_space(sq, 1, 2, 2), assemble_space(sq, 0, 2, 2))
    neq, _ = space_equal(assemble_space(sq, 1, 3, 1), assemble_space(sq, 0, 3, 1))
    ok = ok and eq2 and eq3 and not neq
    report("C10", ok, "equal boxes equal, vertex-continuous box differs")


# -- criterion 11: DoF savings -------------------------------------------------------------

def test_c11a_closed_forms_at_p4():
    p = 4
    classical = Fraction(p ** 3, 2) + 7 * p ** 2 + Fraction(13 * p, 2)
    nodal = Fraction(p ** 3, 2) + p ** 2 - 3 * p - Fraction(11, 2)
    diff = 6 * p ** 2 + Fraction(19 * p, 2) + Fraction(11, 2)
    ok = classical == 170 and nodal == Fraction(61, 2) and diff == Fraction(279, 2)
    ok = ok and float(nodal) == 30.5 and float(diff) == 139.5
    report("C11a", ok, "per-tet estimates 170 and 30.5 at p=4")


def test_c11b_grid_dimensions_match():
    g = cube_center_fan_grid(2, 2, 2)
    rep = dof_savings(4, g)
    ok = (rep["dim_classical"] == rep["closed_classical"]
          and rep["dim_nodal"] == rep["closed_nodal"])
    report("C11b", ok,
           f"assembled {rep['dim_classical']}/{rep['dim_nodal']} match closed forms "
           f"on V,E,F,T={tuple(rep['counts'].values())}")


@pytest.mark.xfail(strict=True, reason=(
    "no conforming triangulation of the face-center fan family reaches an "
    "edge/vertex ratio within 15% of 7: the bulk limit is 29/5 and the "
    "stated grid sizes sit below even that bulk limit"))
def test_c11c_edge_vertex_ratio_within_band():
    ratios = []
    for n in (1, 2, 3, 4):
        V, E, _, _ = cube_center_fan_grid(n, n, n).counts
        ratios.append(E / V)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))   # monotone toward limit
    print(f"ACCEPT C11c {'PASS' if abs(ratios[-1] - 7) <= 0.15 * 7 else 'FAIL'} "
          f"E/V at n=1..4: {['%.3f' % r for r in ratios]}")
    assert abs(ratios[-1] - 7.0) <= 0.15 * 7.0


# -- criterion 12: elasticity construction ------------------------------------------------

def test_c12_bgg(meshes):
    ok = True
    worst = 0.0
    for name in ("tri", "square"):
        for p in (1, 2):
            worst = max(worst, verify_bgg_identity(meshes[name], p))
            ok = ok and xi_complex(meshes[name], p)["exact"]
    ok = ok and worst < 1e-10
    for p in range(3, 7):
        rep = huzhang_stress(p)
        ok = ok and rep.interior_identity and rep.unisolvent
        ok = ok and rep.sym_restricted_unisolvent
    report("C12", ok, f"identity residual {worst:.2e}, product complex exact, "
                       "stress element unisolvent for p=3..6")
