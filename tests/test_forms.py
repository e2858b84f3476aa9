import math
from fractions import Fraction

import numpy as np
import pytest

from derham import forms
from derham.forms import (FormPolynomial, Simplex, _coefficient_matrix, coeffs, dim_full,
                          dim_trimmed, form_from_coeffs, full_basis, monomials, rank_of,
                          trimmed_basis, trimmed_coeffs)
from derham.mesh import SimplicialMesh
from conftest import REF, random_simplex
from dof_reference import koszul, reference_trimmed

TRI = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TET = Simplex([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


# -- dimensions ---------------------------------------------------------------

def test_dim_full_examples():
    assert dim_full(3, 2, 0) == math.comb(5, 3)
    assert dim_full(2, 1, 2) == 3
    assert dim_full(3, -1, 1) == 0


@pytest.mark.parametrize("p", range(2, 7))
def test_dim_trimmed_closed_forms(p):
    # the counts quoted for the interior/face test spaces
    assert dim_trimmed(2, p - 1, 1) == (p - 1) * (p + 1)
    assert dim_trimmed(3, p - 2, 2) == (p - 2) * (p - 1) * (p + 1) // 2
    assert dim_trimmed(3, p, 2) == p * (p + 1) * (p + 3) // 2


def test_dim_trimmed_equals_full_at_k0():
    for n in (1, 2, 3):
        for p in range(1, 5):
            assert dim_trimmed(n, p, 0) == dim_full(n, p, 0)


# -- exact integration ---------------------------------------------------------

def test_integrate_constant_is_measure():
    assert TRI.integrate_monomial((0, 0, 0)) == Fraction(1, 2)
    assert TET.integrate_monomial((0, 0, 0, 0)) == Fraction(1, 6)


def test_integrate_linear_triangle():
    # oracle: int over the unit triangle of (1 - x - y) = 1/6 (symbolic)
    assert TRI.integrate_monomial((1, 0, 0)) == Fraction(1, 6)


def test_integrate_quadratic_tet():
    # oracle: int over the reference tet of lambda0 * lambda1 = 1/120
    assert TET.integrate_monomial((1, 1, 0, 0)) == Fraction(1, 120)


def test_integration_linear_in_coefficients():
    a = TRI.integrate_monomial((2, 1, 0))
    b = TRI.integrate_monomial((0, 1, 2))
    f = FormPolynomial(TRI, 0, {(): {(2, 1, 0): 3, (0, 1, 2): -5}})
    assert f.integrate() == 3 * a - 5 * b


@pytest.mark.parametrize("seed", range(4))
def test_integrate_matches_monte_carlo(seed):
    rng = np.random.default_rng(seed)
    alpha = tuple(rng.integers(0, 4, size=3))
    while sum(alpha) > 6:
        alpha = tuple(rng.integers(0, 4, size=3))
    exact = float(TRI.integrate_monomial(alpha))
    pts = rng.random((200000, 2))
    keep = pts.sum(axis=1) <= 1.0
    pts = pts[keep]
    lam = TRI.barycentric(pts)
    vals = np.prod(lam ** np.array(alpha), axis=1)
    est = vals.mean() * 0.5
    sigma = vals.std() * 0.5 / np.sqrt(len(vals))
    assert abs(est - exact) < 3 * sigma + 1e-12


# -- exterior derivative -------------------------------------------------------

def test_d_of_constant_is_zero():
    f = FormPolynomial(TRI, 0, {(): {(0, 0, 0): 1}})
    assert f.exterior_derivative().is_zero()


def test_curl_of_cubic_bubble_divergence_free():
    bubble = FormPolynomial(TRI, 0, {(): {(1, 1, 1): 1}})
    db = bubble.exterior_derivative()
    assert db.max_degree() == 2
    assert db.exterior_derivative().is_zero()
    # H(div) proxy of the 1-form is (c1, -c0); its divergence must vanish
    grads = TRI.grad_bary_float()
    rng = np.random.default_rng(0)
    pts = TRI.random_points(10, rng)
    h = 1e-6
    for pt in pts:
        div = 0.0
        for axis, e in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
            comp = (1,) if axis == 0 else (0,)
            sgn = 1.0 if axis == 0 else -1.0
            up = db.eval((pt + e)[None, :]).get(comp, np.zeros(1))[0]
            dn = db.eval((pt - e)[None, :]).get(comp, np.zeros(1))[0]
            div += sgn * (up - dn) / (2 * h)
        assert abs(div) < 1e-6


def test_dd_zero_in_3d_example():
    f = FormPolynomial(TET, 0, {(): {(2, 1, 0, 0): 1}})
    assert f.exterior_derivative().exterior_derivative().is_zero()


# dd is defined whenever k + 2 <= n, i.e. three cases in dimensions <= 3
@pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (3, 1)])
def test_dd_zero_exactly_random(n, k):
    simplex = TRI if n == 2 else TET
    rng = np.random.default_rng(42 + n + k)
    from itertools import combinations
    keys = list(combinations(range(n), k))
    for _ in range(100):
        comps = {}
        for key in keys:
            poly = {}
            for _ in range(3):
                alpha = tuple(rng.integers(0, 3, size=n + 1))
                poly[alpha] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
            comps[key] = poly
        f = FormPolynomial(simplex, k, comps)
        dd = f.exterior_derivative().exterior_derivative()
        assert dd.is_zero()    # exact coefficient-level cancellation


def test_d_matches_finite_differences():
    rng = np.random.default_rng(3)
    f = FormPolynomial(TRI, 0, {(): {(2, 1, 0): 0.7, (0, 2, 1): -1.3, (1, 1, 1): 0.4}})
    df = f.exterior_derivative()
    pts = TRI.random_points(20, rng)
    h = 1e-6
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (f.eval(pts + e)[()] - f.eval(pts - e)[()]) / (2 * h)
        exact = df.eval(pts).get((axis,), np.zeros(len(pts)))
        scale = np.abs(exact).max() + 1.0
        assert np.abs(fd - exact).max() / scale < 1e-6


def test_d_of_top_form_rejected():
    f = FormPolynomial(TRI, 2, {(0, 1): {(0, 0, 1): 1}})
    with pytest.raises(ValueError):
        f.exterior_derivative()


# -- trimmed spaces --------------------------------------------------------------

def test_whitney_edge_span():
    basis = trimmed_basis(TRI, 1, 1)
    assert len(basis) == 3 == dim_trimmed(2, 1, 1)


def test_lowest_face_forms():
    basis = trimmed_basis(TET, 1, 2)
    assert len(basis) == 4 == dim_trimmed(3, 1, 2)


def test_trimmed_equals_full_for_scalars():
    basis = trimmed_basis(TET, 3, 0)
    assert len(basis) == dim_full(3, 3, 0) == math.comb(6, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trimmed_dims_and_degree_bound(n):
    simplex = {1: Simplex([[0.0], [1.0]]), 2: TRI, 3: TET}[n]
    for k in range(n + 1):
        for p in range(1, 7):
            basis = trimmed_basis(simplex, p, k)
            assert len(basis) == dim_trimmed(n, p, k)
            assert rank_of(_coefficient_matrix(basis, p)) == len(basis)
            for f in basis:
                assert f.max_degree() <= p
                if k < n:
                    assert f.exterior_derivative().max_degree() <= p


def _trimmed_cases():
    """Reference, random and embedded-face (chart coordinate) simplices."""
    rng = np.random.default_rng(11)
    tet = SimplicialMesh(np.asarray(random_simplex(3, rng)), [(0, 1, 2, 3)])
    return {"tri": Simplex(REF[2]), "tet": Simplex(REF[3]),
            "random-tri": Simplex(random_simplex(2, rng)),
            "random-tet": Simplex(random_simplex(3, rng)),
            "face0": tet.sub_simplex(2, 0), "face3": tet.sub_simplex(2, 3)}


@pytest.mark.parametrize("name", sorted(_trimmed_cases()))
def test_trimmed_coeffs_match_exact_koszul_span(name):
    simplex = _trimmed_cases()[name]
    m = simplex.dim
    for k in range(1, m):
        for p in range(1, 6):
            exact = _coefficient_matrix(reference_trimmed(simplex, p, k), p)
            cols, blocks = trimmed_coeffs(simplex.grad_bary_float(), p, k)
            tests = [(tk, q, vec) for tk, q, T in blocks for vec in T]
            target = dim_trimmed(m, p, k)
            assert cols.shape[1] == len(tests) == target == rank_of(exact)
            assert rank_of(np.hstack([exact, cols])) == target, (k, p)
            n_lower = dim_full(m, p - 1, k)
            lower, comp = cols[:, :n_lower], cols[:, n_lower:]
            assert np.array_equal(lower, forms._bernstein_block(m, k, p - 1, p))
            assert np.abs(comp.T @ comp - np.eye(comp.shape[1])).max() < 1e-13
            assert np.abs(np.linalg.qr(lower)[0].T @ comp).max() < 1e-13
            for i, (col, (tk, q, vec)) in enumerate(zip(cols.T, tests)):
                assert tk == k and q == (p - 1 if i < n_lower else p)
                assert np.array_equal(coeffs(form_from_coeffs(simplex, k, q, vec), p), col)


def test_koszul_lowers_form_degree():
    f = FormPolynomial(TET, 2, {(0, 1): {(1, 0, 0, 1): 1}})
    kf = koszul(f)
    assert kf.k == 1
    assert kf.max_degree() == 3


# -- traces, wedges, restriction -----------------------------------------------

def test_restrict_scalar_to_edge():
    sub = Simplex.embedded([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]])
    f = FormPolynomial(TRI, 0, {(): {(1, 1, 0): 1, (0, 0, 2): 5}})
    tr = f.restrict(sub, [0, 1])
    # lambda2 vanishes on the edge; lambda0*lambda1 restricts to the edge pair
    assert tr.comps == {(): {(1, 1): 1}}


def test_tangential_trace_of_one_form():
    sub = Simplex.embedded([[1.0, 0.0], [0.0, 1.0]],
                           [[-1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])
    f = FormPolynomial(TRI, 1, {(0,): {(0, 1, 0): 1.0}})
    tr = f.restrict(sub, [1, 2])
    vals = tr.eval(np.array([[0.3]]))
    # u = (lambda1, 0); tangential component is u . tau on the hypotenuse
    lam1 = 1.0 - 0.3 / np.sqrt(2.0)
    assert abs(vals[(0,)][0] - lam1 * (-1.0 / np.sqrt(2.0))) < 1e-12


def test_wedge_antisymmetry():
    a = FormPolynomial(TET, 1, {(0,): {(1, 0, 0, 0): 1}})
    b = FormPolynomial(TET, 1, {(1,): {(0, 1, 0, 0): 1}})
    ab = a.wedge(b)
    ba = b.wedge(a)
    assert ab == ba.scale(-1)


def test_export_lines_format():
    f = FormPolynomial(TRI, 1, {(0,): {(1, 0, 0): 0.5}, (1,): {(0, 1, 0): -2.0}})
    lines = f.export_lines(p=1)
    assert lines[0] == "# form n=2 k=1 p=1"
    assert lines[1].split(" | ") == ["0", "1,0,0", "0.5"]
    assert lines[2].split(" | ") == ["1", "0,1,0", "-2"]
