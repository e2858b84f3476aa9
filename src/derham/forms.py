"""Polynomial differential forms on a single simplex, as coefficient arrays.

A degree-p k-form is a vector of barycentric monomial coefficients (layout
below).  Float coefficient-space maps carry every operation the program
needs (values, derivatives, d, proxies, traces, moments, degree elevation),
on float barycentric geometry of one simplex or a stack, and the trimmed
spaces are built in closed form as coefficient columns.  All integrals use
the closed barycentric formula; there is no quadrature anywhere.
FormPolynomial (exact in Fractions on the exact geometry, so d(d(u))
cancels at the coefficient level), its converters and form bases, and the
exact members of Simplex are the tests' exact reference; no command builds
them.  The module needs only numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np

# Relative singular-value cutoff for every rank decision in the package.
RANK_RTOL = 1e-9


def _count_above(sv):
    """Number of singular values (descending) above RANK_RTOL times the largest."""
    return int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size and sv[0] > 0 else 0


def rank_of(mat):
    """Numerical rank of a matrix."""
    if mat.size == 0:
        return 0
    return _count_above(np.linalg.svd(mat, compute_uv=False))


def nullspace(mat):
    """Orthonormal columns spanning the numerical kernel of a matrix."""
    if mat.size == 0:
        return np.eye(mat.shape[1] if mat.ndim == 2 else 0)
    _, sv, vt = np.linalg.svd(mat, full_matrices=True)
    return vt[_count_above(sv):].T


def _fraction_matrix_inverse(rows):
    """Exact inverse of a small square matrix given as Fraction rows."""
    m = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(m)] for i, r in enumerate(rows)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


# Shewchuk's static error bounds (errboundA of orient2d and orient3d, "Adaptive
# precision floating-point arithmetic and fast robust geometric predicates",
# DCG 1997): a float determinant larger than this times its permanent has
# the sign of the exact one.
_EPS = 2.0 ** -53
_ERRBOUND = {2: (3 + 16 * _EPS) * _EPS, 3: (7 + 56 * _EPS) * _EPS}
# Below this permanent a product may have underflowed; decide exactly.
_TINY_PERMANENT = 2.0 ** -900


def exact_det(vertices):
    """Exact determinant (Fraction) of the edge vectors v_i - v_0 of a simplex."""
    vf = [[Fraction(float(x)) for x in row] for row in vertices]
    m = len(vf) - 1
    rows = [[vf[i + 1][j] - vf[0][j] for j in range(m)] for i in range(m)]
    if m == 0:
        return Fraction(1)
    if m == 1:
        return rows[0][0]
    if m == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if m == 3:
        a, b, c = rows
        return (a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))
    raise ValueError("determinant only needed up to 3x3")


def _float_det(e):
    """Float determinant of edge vectors e[i][j] (floats, or arrays of them
    over a batch) as orient2d/orient3d compute it, and its permanent."""
    if len(e) == 2:
        left, right = e[0][0] * e[1][1], e[0][1] * e[1][0]
        return left - right, abs(left) + abs(right)
    a, b, c = e
    bc, cb = b[0] * c[1], c[0] * b[1]
    ca, ac = c[0] * a[1], a[0] * c[1]
    ab, ba = a[0] * b[1], b[0] * a[1]
    det = a[2] * (bc - cb) + b[2] * (ca - ac) + c[2] * (ab - ba)
    permanent = ((abs(bc) + abs(cb)) * abs(a[2]) + (abs(ca) + abs(ac)) * abs(b[2])
                 + (abs(ab) + abs(ba)) * abs(c[2]))
    return det, permanent


def nonzero_volume(simplices):
    """Exact verdict, per simplex of an (N, m+1, m) array, that its volume is
    nonzero.

    The float determinant of the rounded edge vectors decides wherever it
    clears Shewchuk's error bound; the rest fall back to ``exact_det``.  The
    sign of a float difference is exact, so m <= 1 never falls back.  One
    simplex runs on Python floats (the same IEEE arithmetic without numpy's
    per-call cost), a batch on coordinate columns.
    """
    s = np.asarray(simplices, dtype=float)
    m = s.shape[2]
    if m == 0:
        return np.ones(len(s), dtype=bool)
    v = s[0].tolist() if len(s) == 1 else s.transpose(1, 2, 0)
    e = [[v[i + 1][j] - v[0][j] for j in range(m)] for i in range(m)]
    if m == 1:
        out = e[0][0] != 0.0
    else:
        det, permanent = _float_det(e)
        out = (abs(det) > _ERRBOUND[m] * permanent) & (permanent > _TINY_PERMANENT)
    out = np.array(out, dtype=bool, ndmin=1)
    for i in np.flatnonzero(~out):
        out[i] = exact_det(s[i]) != 0
    return out


class Simplex:
    """A nondegenerate m-simplex in its intrinsic coordinates.

    ``vertices`` is an (m+1, m) array.  Subsimplices of a mesh cell are
    expressed in an orthonormal chart (origin + tangent frame), so tangential
    traces keep their metric meaning.  The coefficient maps read the float
    barycentric coordinates and gradients (one inverse of [1 | vertices],
    built on first use).  Exact rational copies of the geometry back the
    measure, the integral formula and the exact gradients that
    FormPolynomial differentiates with; they too are built on first use.
    The zero-volume verdict is exact (``nonzero_volume``).
    """

    def __init__(self, vertices, chart_origin=None, chart_tangents=None):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[0] != self.vertices.shape[1] + 1:
            raise ValueError("expected (m+1, m) vertex array")
        self.dim = self.vertices.shape[1]
        self.chart_origin = None if chart_origin is None else np.asarray(chart_origin, float)
        self.chart_tangents = None if chart_tangents is None else np.asarray(chart_tangents, float)
        if not nonzero_volume(self.vertices[None])[0]:
            raise ValueError("degenerate simplex (zero volume)")

    @classmethod
    def embedded(cls, ambient_vertices, tangents):
        """Build the intrinsic simplex of a d-face embedded in R^n.

        ``tangents`` is a (d, n) orthonormal frame; the chart origin is the
        first vertex.  The returned simplex remembers the chart so points and
        vectors can be moved between ambient and intrinsic coordinates.
        """
        amb = np.asarray(ambient_vertices, float)
        tan = np.asarray(tangents, float)
        origin = amb[0]
        intrinsic = (amb - origin) @ tan.T
        return cls(intrinsic, chart_origin=origin, chart_tangents=tan)

    @cached_property
    def bary_inverse(self):
        """Inverse of [1 | vertices]: column j holds (a_j, g_j) of
        lambda_j(x) = a_j + g_j . x."""
        return _frozen(np.linalg.inv(np.hstack([np.ones((self.dim + 1, 1)), self.vertices])))

    @cached_property
    def _bary_affine(self):
        """The affine data of bary_inverse, solved exactly (Fractions)."""
        rows = [[Fraction(1)] + [Fraction(float(x)) for x in row] for row in self.vertices]
        inv = _fraction_matrix_inverse(rows)
        return [(inv[0][j], tuple(inv[i + 1][j] for i in range(self.dim)))
                for j in range(self.dim + 1)]

    @cached_property
    def measure(self):
        """Exact measure (Fraction), built on first use."""
        return abs(exact_det(self.vertices)) / math.factorial(self.dim)

    def barycentric(self, points):
        """Barycentric coordinates of intrinsic points, shape (..., m+1)."""
        pts = np.atleast_2d(np.asarray(points, float))
        return self.bary_inverse[0] + pts @ self.bary_inverse[1:]

    def grad_bary(self, j):
        """Exact gradient of lambda_j in intrinsic coordinates (Fractions)."""
        return self._bary_affine[j][1]

    def grad_bary_float(self):
        """Float gradients of every lambda_j, one row each: shape (m+1, m)."""
        return self.bary_inverse[1:].T

    def integrate_monomial(self, alpha):
        """Exact integral of lambda^alpha over the simplex (Fraction * measure)."""
        total = sum(alpha)
        num = Fraction(math.factorial(self.dim))
        for a in alpha:
            num *= math.factorial(a)
        return num / math.factorial(total + self.dim) * self.measure

    def random_points(self, count, rng):
        """Strictly interior sample points (intrinsic coordinates)."""
        w = rng.dirichlet([2.0] * (self.dim + 1), size=count)
        return w @ self.vertices


# ---------------------------------------------------------------------------
# scalar polynomial helpers: dict {exponent tuple: coefficient}
# ---------------------------------------------------------------------------

def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(key, 0) + ca * cb
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
    return out


def _merge_sign(k1, k2):
    """Sign of the permutation sorting the axis tuple k1 + k2 (dy_k1 ^ dy_k2)."""
    merged = k1 + k2
    inversions = sum(1 for i in range(len(merged)) for j in range(i + 1, len(merged))
                     if merged[i] > merged[j])
    return -1 if inversions % 2 else 1


def monomials(nvars, degree):
    """All exponent tuples of the given total degree (lexicographic)."""
    if degree < 0:
        return []
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        out.extend((first,) + rest for rest in monomials(nvars - 1, degree - first))
    return out


class FormPolynomial:
    """A differential k-form with polynomial coefficients on one simplex.

    ``comps`` maps a strictly increasing tuple of intrinsic axis indices to a
    scalar polynomial dict.  Zero terms are pruned so equality is syntactic.
    """

    def __init__(self, simplex, k, comps=None):
        if k < 0 or k > simplex.dim:
            raise ValueError(f"form degree {k} invalid on a {simplex.dim}-simplex")
        self.simplex = simplex
        self.k = k
        self.comps = {}
        if comps:
            for key, poly in comps.items():
                clean = {e: c for e, c in poly.items() if c != 0}
                if clean:
                    self.comps[tuple(key)] = clean

    # -- construction helpers ------------------------------------------------
    @classmethod
    def monomial(cls, simplex, k, key, alpha, coeff=1):
        return cls(simplex, k, {tuple(key): {tuple(alpha): coeff}})

    # -- algebra ---------------------------------------------------------------
    def __add__(self, other):
        if other.simplex is not self.simplex or other.k != self.k:
            raise ValueError("mismatched forms")
        out = {k: dict(v) for k, v in self.comps.items()}
        for key, poly in other.comps.items():
            tgt = out.setdefault(key, {})
            for e, c in poly.items():
                v = tgt.get(e, 0) + c
                if v == 0:
                    tgt.pop(e, None)
                else:
                    tgt[e] = v
        return FormPolynomial(self.simplex, self.k, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if c == 0:
            return FormPolynomial(self.simplex, self.k)
        return FormPolynomial(self.simplex, self.k,
                              {k: {e: c * v for e, v in p.items()} for k, p in self.comps.items()})

    def as_float(self):
        return FormPolynomial(self.simplex, self.k,
                              {k: {e: float(c) for e, c in p.items()}
                               for k, p in self.comps.items()})

    def max_degree(self):
        return max((sum(e) for p in self.comps.values() for e in p), default=0)

    def canonical(self):
        return tuple(sorted((key, tuple(sorted(p.items())))
                            for key, p in self.comps.items()))

    def __eq__(self, other):
        return (isinstance(other, FormPolynomial) and self.k == other.k
                and self.simplex is other.simplex and self.canonical() == other.canonical())

    def is_zero(self):
        return not self.comps

    # -- calculus ---------------------------------------------------------------
    def exterior_derivative(self):
        """d of the form; uses the exact barycentric gradients of the simplex."""
        m = self.simplex.dim
        if self.k >= m:
            raise ValueError("exterior derivative of a top-degree form")
        out = {}
        for key, poly in self.comps.items():
            for alpha, c in poly.items():
                for j, aj in enumerate(alpha):
                    if aj == 0:
                        continue
                    new_alpha = list(alpha)
                    new_alpha[j] -= 1
                    new_alpha = tuple(new_alpha)
                    g = self.simplex.grad_bary(j)
                    for axis in range(m):
                        if g[axis] == 0 or axis in key:
                            continue
                        pos = sum(1 for x in key if x < axis)
                        sign = -1 if pos % 2 else 1
                        new_key = tuple(sorted(key + (axis,)))
                        coeff = c * aj * g[axis] * sign
                        tgt = out.setdefault(new_key, {})
                        v = tgt.get(new_alpha, 0) + coeff
                        if v == 0:
                            tgt.pop(new_alpha, None)
                        else:
                            tgt[new_alpha] = v
        return FormPolynomial(self.simplex, self.k + 1, out)

    def directional_derivative(self, direction):
        """Scalar-coefficient derivative of each component along a vector."""
        m = self.simplex.dim
        d = [Fraction(float(x)) for x in np.asarray(direction, float)]
        out = {}
        for key, poly in self.comps.items():
            tgt = {}
            for alpha, c in poly.items():
                for j, aj in enumerate(alpha):
                    if aj == 0:
                        continue
                    g = self.simplex.grad_bary(j)
                    gd = sum(g[axis] * d[axis] for axis in range(m))
                    if gd == 0:
                        continue
                    na = list(alpha)
                    na[j] -= 1
                    na = tuple(na)
                    v = tgt.get(na, 0) + c * aj * gd
                    if v == 0:
                        tgt.pop(na, None)
                    else:
                        tgt[na] = v
            if tgt:
                out[key] = tgt
        return FormPolynomial(self.simplex, self.k, out)

    def wedge(self, other):
        if other.simplex is not self.simplex:
            raise ValueError("wedge of forms on different simplices")
        kk = self.k + other.k
        if kk > self.simplex.dim:
            return FormPolynomial(self.simplex, min(kk, self.simplex.dim))
        out = {}
        for k1, p1 in self.comps.items():
            for k2, p2 in other.comps.items():
                if set(k1) & set(k2):
                    continue
                order = tuple(sorted(k1 + k2))
                sign = _merge_sign(k1, k2)
                prod = poly_mul(p1, p2)
                tgt = out.setdefault(order, {})
                for e, c in prod.items():
                    v = tgt.get(e, 0) + sign * c
                    if v == 0:
                        tgt.pop(e, None)
                    else:
                        tgt[e] = v
        return FormPolynomial(self.simplex, kk, out)

    def integrate(self):
        """Integral over the simplex of a 0-form or a top-degree form."""
        if self.k not in (0, self.simplex.dim):
            raise ValueError("can only integrate a 0-form or a top-degree form")
        total = 0
        for e, c in self.comps.get(tuple(range(self.k)), {}).items():
            total += c * self.simplex.integrate_monomial(e)
        return total

    def eval(self, points):
        """Evaluate all components at intrinsic points; returns {key: values}."""
        lam = self.simplex.barycentric(points)
        out = {}
        for key, poly in self.comps.items():
            vals = np.zeros(lam.shape[0])
            for e, c in poly.items():
                term = np.full(lam.shape[0], float(c))
                for j, a in enumerate(e):
                    if a:
                        term *= lam[:, j] ** a
                vals += term
            out[key] = vals
        return out

    def proxy_contract(self, w):
        """Contract the vector proxy of the form with a constant vector.

        k=1: proxy = components.  k=m-1: flux proxy (in 3D: (c23, -c13, c12);
        in 2D: (c1, -c0)).  k=m: scalar proxy times w[0].
        """
        m = self.simplex.dim
        wf = [Fraction(float(x)) for x in np.asarray(w, float)]
        out = {}

        def add(poly, factor):
            if factor == 0:
                return
            for e, c in poly.items():
                v = out.get(e, 0) + c * factor
                if v == 0:
                    out.pop(e, None)
                else:
                    out[e] = v

        if self.k == 1:
            for (axis,), poly in self.comps.items():
                add(poly, wf[axis])
        elif self.k == m - 1 and m >= 2:
            # flux proxy: dx_J pairs with (-1)^missing e_missing
            for key, poly in self.comps.items():
                missing = next(i for i in range(m) if i not in key)
                add(poly, wf[missing] * ((-1) ** missing))
        elif self.k == m:
            for key, poly in self.comps.items():
                add(poly, wf[0])
        elif self.k == 0:
            for key, poly in self.comps.items():
                add(poly, wf[0])
        else:
            raise ValueError("no vector proxy for this form degree")
        return FormPolynomial(self.simplex, 0, {(): out})

    def restrict(self, child, vertex_map):
        """Trace onto a subsimplex.

        ``vertex_map[i]`` is the parent-local vertex index of the child's i-th
        vertex.  Barycentric monomials restrict by dropping every exponent not
        visible on the child; the form part pulls back through the child chart.
        """
        m, d = self.simplex.dim, child.dim
        if self.k > d:
            raise ValueError("trace of a form of too-high degree")
        # chart tangents of the child expressed in parent intrinsic axes
        tan = child.chart_tangents
        if tan is None:
            raise ValueError("child simplex needs a chart for form pullback")
        if self.simplex.chart_tangents is not None:
            tan = tan @ self.simplex.chart_tangents.T
        keep = set(vertex_map)
        pull = {}
        for key, poly in self.comps.items():
            # restrict the scalar part first
            restricted = {}
            for alpha, c in poly.items():
                if any(a > 0 and j not in keep for j, a in enumerate(alpha)):
                    continue
                beta = tuple(alpha[vertex_map[i]] for i in range(d + 1))
                v = restricted.get(beta, 0) + c
                if v == 0:
                    restricted.pop(beta, None)
                else:
                    restricted[beta] = v
            if not restricted:
                continue
            for new_key in combinations(range(d), self.k):
                if self.k == 0:
                    det = 1
                elif self.k == 1:
                    det = Fraction(float(tan[new_key[0]][key[0]]))
                elif self.k == 2:
                    a = Fraction(float(tan[new_key[0]][key[0]]))
                    b = Fraction(float(tan[new_key[1]][key[0]]))
                    c2 = Fraction(float(tan[new_key[0]][key[1]]))
                    d2 = Fraction(float(tan[new_key[1]][key[1]]))
                    det = a * d2 - b * c2
                else:
                    sub = np.array([[float(tan[b][a]) for b in new_key] for a in key])
                    det = Fraction(float(np.linalg.det(sub)))
                if det == 0:
                    continue
                tgt = pull.setdefault(new_key, {})
                for e, c in restricted.items():
                    v = tgt.get(e, 0) + c * det
                    if v == 0:
                        tgt.pop(e, None)
                    else:
                        tgt[e] = v
        return FormPolynomial(child, self.k, pull)

    # -- serialization ---------------------------------------------------------
    def export_lines(self, p=None):
        """Text export: header naming (n, k, p), then component|alpha|coeff."""
        deg = self.max_degree() if p is None else p
        lines = [f"# form n={self.simplex.dim} k={self.k} p={deg}"]
        comp_keys = sorted(self.comps)
        for idx, key in enumerate(comp_keys):
            for e in sorted(self.comps[key]):
                c = self.comps[key][e]
                lines.append(f"{idx} | {','.join(map(str, e))} | {float(c):.17g}")
        return lines


# ---------------------------------------------------------------------------
# polynomial form spaces
# ---------------------------------------------------------------------------

def dim_full(n, p, k):
    """Dimension of the full degree-p k-form space on an n-simplex."""
    if p < 0 or k < 0 or k > n:
        return 0
    return math.comb(p + n, n) * math.comb(n, k)


def dim_trimmed(n, p, k):
    """Dimension of the trimmed degree-p k-form space on an n-simplex."""
    if p < 1 or k < 0 or k > n:
        return 0
    return math.comb(k + p - 1, k) * math.comb(n + p, n - k)


def full_basis(simplex, p, k):
    """Bernstein basis of the full space: C(p; alpha) lambda^alpha dy_J.

    The multinomial scaling keeps DoF matrices far better conditioned than
    bare monomials while the coefficients stay exact integers.
    """
    m = simplex.dim
    out = []
    for key in combinations(range(m), k):
        for alpha in monomials(m + 1, p):
            mult = math.factorial(p)
            for a in alpha:
                mult //= math.factorial(a)
            out.append(FormPolynomial.monomial(simplex, k, key, alpha, coeff=mult))
    return out


def _coefficient_matrix(forms, p):
    """Stack form coefficients (homogenized to degree p) as columns."""
    return np.column_stack([coeffs(f, p) for f in forms]) if forms else np.zeros((0, 0))


# ---------------------------------------------------------------------------
# coefficient-space maps (float)
#
# A degree-p k-form on an m-simplex is a vector of barycentric monomial
# coefficients, key-major: entry key_pos * N + alpha_pos with keys
# combinations(range(m), k), alphas monomials(m + 1, p), N = len(alphas).
# The Bernstein basis of full_basis is this basis scaled by multinomials.
# DoF rows and operators are products of the maps below.  The geometric
# maps take the float barycentric data of one simplex or of a stack of
# simplices (leading axes), and return one matrix or a stack.
# ---------------------------------------------------------------------------

_FACT = np.array([float(math.factorial(i)) for i in range(171)])


def _frozen(a):
    """Mark a cached array read-only: callers share it."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def exponent_array(nvars, degree):
    """monomials(nvars, degree) as an integer array, one row per exponent."""
    return _frozen(np.array(monomials(nvars, degree), dtype=int).reshape(-1, nvars))


@lru_cache(maxsize=None)
def _exponent_index(nvars, degree):
    return {a: i for i, a in enumerate(monomials(nvars, degree))}


@lru_cache(maxsize=None)
def multinomials(nvars, degree):
    """p!/alpha! for every exponent: the Bernstein scaling of full_basis."""
    exps = exponent_array(nvars, degree)
    return _frozen(_FACT[degree] / np.prod(_FACT[exps], axis=1))


@lru_cache(maxsize=None)
def elevation(nvars, p, q):
    """Multiplication by (sum lambda)^(q-p): degree-p to degree-q coefficients."""
    if q < p:
        raise ValueError("cannot homogenize downward")
    out = np.zeros((math.comb(q + nvars - 1, nvars - 1), math.comb(p + nvars - 1, nvars - 1)))
    index = _exponent_index(nvars, q)
    lifts = exponent_array(nvars, q - p)
    weights = multinomials(nvars, q - p)
    for col, a in enumerate(exponent_array(nvars, p)):
        rows = [index[tuple(x)] for x in a + lifts]
        out[rows, col] = weights
    return _frozen(out)


def _poly_coeffs(poly, nvars, p):
    """Coefficient vector of a scalar polynomial dict homogenized to degree p."""
    out = np.zeros(math.comb(p + nvars - 1, nvars - 1))
    index = _exponent_index(nvars, p)
    for e, c in poly.items():
        deg = sum(e)
        if deg == p:
            out[index[e]] += float(c)
        elif deg < p:
            out += float(c) * elevation(nvars, deg, p)[:, _exponent_index(nvars, deg)[e]]
        else:
            raise ValueError("cannot homogenize downward")
    return out


def coeffs(form, p):
    """Coefficient vector of a form, homogenized to degree p (see layout above)."""
    m = form.simplex.dim
    keys = list(combinations(range(m), form.k))
    n = math.comb(p + m, m)
    out = np.zeros(len(keys) * n)
    for key, poly in form.comps.items():
        pos = keys.index(key)
        out[pos * n:(pos + 1) * n] = _poly_coeffs(poly, m + 1, p)
    return out


def form_from_coeffs(simplex, k, p, vec):
    """The degree-p k-form with the given coefficient vector (inverse of coeffs)."""
    alphas = list(_exponent_index(simplex.dim + 1, p))
    blocks = np.reshape(vec, (-1, len(alphas)))
    keys = combinations(range(simplex.dim), k)
    return FormPolynomial(simplex, k, {key: dict(zip(alphas, block.tolist()))
                                       for key, block in zip(keys, blocks)})


@lru_cache(maxsize=None)
def _lowering(nvars, p):
    """(row, col, j, alpha_j) of each entry of d/d(lambda_j): degree p to p - 1."""
    lower = _exponent_index(nvars, p - 1)
    entries = [(lower[a[:j] + (a[j] - 1,) + a[j + 1:]], col, j, a[j])
               for col, a in enumerate(monomials(nvars, p)) for j in range(nvars) if a[j]]
    return _frozen(np.array(entries, dtype=int).reshape(-1, 4).T)


def _partial(slopes, p):
    """Scalar derivative, degree p to p - 1, given slopes[..., j] = d(lambda_j)."""
    nvars = slopes.shape[-1]
    rows, cols, j, a = _lowering(nvars, p)
    D = np.zeros(slopes.shape[:-1] + (math.comb(p + nvars - 2, nvars - 1),
                                      math.comb(p + nvars - 1, nvars - 1)))
    D[..., rows, cols] = a * slopes[..., j]
    return D


def derivative_matrix(grads, direction, k, p):
    """Directional derivative of each component: degree p to degree p-1.

    ``grads`` (..., m+1, m) are the barycentric gradients of one simplex or
    a stack; ``direction`` (..., m) is one vector or one per simplex.
    """
    D = _partial((grads @ np.asarray(direction, float)[..., None])[..., 0], p)
    nk, (r, c) = math.comb(grads.shape[-1], k), D.shape[-2:]
    out = np.zeros(D.shape[:-2] + (nk, r, nk, c))
    out[..., range(nk), :, range(nk), :] = D
    return out.reshape(D.shape[:-2] + (nk * r, nk * c))


def exterior_derivative_matrix(grads, k, p, q):
    """d from degree-p k-forms to degree-q (k+1)-forms, q >= p - 1, on the
    simplex or stack of simplices with barycentric gradients ``grads``.

    The signs are those of FormPolynomial.exterior_derivative:
    d(u dy_K) = sum over axes a of (du/dy_a) dy_a ^ dy_K.
    """
    m = grads.shape[-1]
    if k >= m:
        raise ValueError("exterior derivative of a top-degree form")
    lift = elevation(m + 1, p - 1, q)
    src = list(combinations(range(m), k))
    dst = {key: i for i, key in enumerate(combinations(range(m), k + 1))}
    ns, nd = math.comb(p + m, m), math.comb(q + m, m)
    out = np.zeros(grads.shape[:-2] + (len(dst) * nd, len(src) * ns))
    for axis in range(m):
        block = lift @ _partial(grads[..., axis], p)
        for i, key in enumerate(src):
            if axis not in key:
                j = dst[tuple(sorted(key + (axis,)))]
                sign = -1.0 if sum(x < axis for x in key) % 2 else 1.0
                out[..., j * nd:(j + 1) * nd, i * ns:(i + 1) * ns] = sign * block
    return out


def proxy_matrix(m, k, w, p):
    """Contraction of the vector proxy with w: k-form to 0-form coefficients.

    ``w`` (..., m) is one vector or a stack.  The per-key factors are those
    of FormPolynomial.proxy_contract.
    """
    w = np.asarray(w, float)
    keys = list(combinations(range(m), k))
    if k == 1:
        factors = [w[..., key[0]] for key in keys]
    elif k == m - 1 and m >= 2:
        missing = [next(i for i in range(m) if i not in key) for key in keys]
        factors = [w[..., i] * (-1) ** i for i in missing]
    elif k in (0, m):
        factors = [w[..., 0]] * len(keys)
    else:
        raise ValueError("no vector proxy for this form degree")
    factors, n = np.stack(factors, axis=-1), math.comb(p + m, m)
    out = np.zeros(factors.shape[:-1] + (n, len(keys), n))
    out[..., range(n), :, range(n)] = factors
    return out.reshape(factors.shape[:-1] + (n, len(keys) * n))


@lru_cache(maxsize=None)
def _trace_columns(nvars, vertex_map, p):
    """Parent index of each child exponent of degree p, lifted through the map."""
    child = exponent_array(len(vertex_map), p)
    lifted = np.zeros((len(child), nvars), dtype=int)
    lifted[:, list(vertex_map)] = child
    index = _exponent_index(nvars, p)
    return _frozen(np.array([index[tuple(a)] for a in lifted], dtype=int))


def trace_matrix(m, vertex_map, k, p, tangents=None):
    """Trace of degree-p k-forms of an m-simplex onto a subsimplex
    (FormPolynomial.restrict on coefficients).

    ``vertex_map[i]`` is the parent vertex of the child's i-th vertex; a
    stack of vertex maps (S, d+1) gives a stack of traces.  The child chart's
    tangents (..., d, m), one chart or a stack, give the k x k minors of the
    form pullback (k > 0 only).  The trace is one scatter of the minors into
    the columns that the vertex map fixes.
    """
    vmaps = np.asarray(vertex_map, dtype=int)
    d = vmaps.shape[-1] - 1
    ckeys = np.array(list(combinations(range(d), k)), dtype=int).reshape(math.comb(d, k), k)
    pkeys = np.array(list(combinations(range(m), k)), dtype=int).reshape(math.comb(m, k), k)
    if k:
        dets = np.linalg.det(np.asarray(tangents, float)[..., ckeys[:, None, :, None],
                                                         pkeys[None, :, None, :]])
    else:
        dets = np.ones((1, 1))
    cols = np.reshape([_trace_columns(m + 1, tuple(v), p) for v in vmaps.reshape(-1, d + 1)],
                      vmaps.shape[:-1] + (-1,))
    nc, nm = cols.shape[-1], math.comb(p + m, m)
    R = np.zeros(np.broadcast_shapes(dets.shape[:-2], vmaps.shape[:-1])
                 + (len(ckeys) * nc, len(pkeys) * nm))
    slot = tuple(np.indices(vmaps.shape[:-1])[..., None, None, None])
    rows = np.arange(len(ckeys))[:, None, None] * nc + np.arange(nc)
    cols = np.arange(len(pkeys))[:, None] * nm + cols[..., None, None, :]
    R[(...,) + slot + (rows, cols)] = dets[..., None]
    return R


def eval_row(inverse, point, p):
    """Values of every degree-p monomial at one intrinsic point.

    ``inverse`` (..., m+1, m+1) is ``Simplex.bary_inverse`` of one simplex
    or a stack, ``point`` (..., m) one point or one per simplex.
    """
    point = np.asarray(point, float)
    lam = inverse[..., 0, :] + (point[..., None, :] @ inverse[..., 1:, :])[..., 0, :]
    return np.prod(lam[..., None, :] ** exponent_array(lam.shape[-1], p), axis=-1)


def jet_rows(inverse, point, p, order):
    """Rows of every axis derivative of the given order at one intrinsic point.

    One row per axis multi-index i1 <= ... <= i_order (order 0: the value),
    over degree-p scalar coefficients, on the simplex whose
    ``Simplex.bary_inverse`` is ``inverse``.
    """
    axes = np.eye(len(inverse) - 1)
    rows = []
    for multi in combinations_with_replacement(range(len(axes)), order):
        row = eval_row(inverse, point, p - order)
        for j, axis in enumerate(multi):
            row = row @ derivative_matrix(inverse[1:].T, axes[axis], 0, p - order + 1 + j)
        rows.append(row)
    return np.array(rows)


@lru_cache(maxsize=None)
def moment_gram(nvars, p, q):
    """(1/|s|) * integral of lambda^beta * lambda^gamma, beta of degree p, gamma of q."""
    d = nvars - 1
    total = exponent_array(nvars, p)[:, None, :] + exponent_array(nvars, q)[None, :, :]
    return _frozen(_FACT[d] * np.prod(_FACT[total], axis=2) / _FACT[p + q + d])


def moment_rows(d, tests, k, p):
    """Rows of u -> (1/|s|) * integral over s of u wedge eta, one per test form.

    u is a degree-p k-form on the d-simplex s; ``tests`` is (form degree,
    polynomial degree q, one row of coefficients at degree q per test form
    eta, (..., forms, coefficients) for a stack of test sets).  k plus the
    tests' form degree is 0 (scalar moments) or d.  The block is one product
    of ``moment_gram`` with the tests per form key, run as a stack of
    matrix-vector products so that each row has the bits of a product with
    its test alone.
    """
    tk, q, T = tests
    if k + tk not in (0, d):
        raise ValueError("moment pairing must be scalar or top-degree")
    n, nq = math.comb(p + d, d), math.comb(q + d, d)
    keys = list(combinations(range(d), k))
    rows = np.zeros(T.shape[:-1] + (len(keys) * n,))
    gram = moment_gram(d + 1, p, q)
    for j, tkey in enumerate(combinations(range(d), tk)):
        block = T[..., j * nq:(j + 1) * nq]
        if not block.any():
            continue
        weights = (gram @ block[..., None])[..., 0]
        for pos, key in enumerate(keys):
            if not set(key) & set(tkey):
                rows[..., pos * n:(pos + 1) * n] += _merge_sign(key, tkey) * weights
    return rows


# ---------------------------------------------------------------------------
# trimmed spaces: P-_p Lambda^k = P_{p-1} Lambda^k + span of lambda^beta phi_tau
# (Arnold-Falk-Winther, Acta Numerica 2006; the complement is the
# geometric-decomposition basis of Arnold-Falk-Winther, CMAME 2009), as
# coefficient columns
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernstein_block(m, k, p, q):
    """The degree-p Bernstein k-forms of full_basis on an m-simplex as
    coefficient columns at degree q >= p."""
    block = elevation(m + 1, p, q) * multinomials(m + 1, p)
    return _frozen(np.kron(np.eye(math.comb(m, k)), block))


@lru_cache(maxsize=None)
def _lower_orthonormal(m, p, k):
    """Orthonormal columns spanning P_{p-1} Lambda^k at degree p."""
    return _frozen(np.linalg.qr(_bernstein_block(m, k, p - 1, p))[0])


@lru_cache(maxsize=None)
def _whitney_pattern(m, p, k):
    """(row, col, minor, sign) of each entry of the complement lambda^beta phi_tau.

    tau runs over increasing (k+1)-tuples of vertices 1..m, beta over
    degree-(p-1) exponents supported on tau[0]..m, and
    phi_tau = sum_i (-1)^i lambda_{tau[i]} dlambda_{tau without tau[i]}.
    The entry's value is sign times the minor det(grad lambda[J, K]) at
    position J * C(m, k) + K of the vertex k-tuples J and axis k-tuples K.
    """
    vsets = {J: i for i, J in enumerate(combinations(range(m + 1), k))}
    axes = list(combinations(range(m), k))
    index = _exponent_index(m + 1, p)
    nh = math.comb(p + m, m)
    betas = monomials(m + 1, p - 1)
    cols = [(tau, b) for tau in combinations(range(1, m + 1), k + 1)
            for b in betas if not any(b[:tau[0]])]
    entries = [(kp * nh + index[b[:v] + (b[v] + 1,) + b[v + 1:]], col,
                vsets[tau[:i] + tau[i + 1:]] * len(axes) + kp, -1 if i % 2 else 1)
               for col, (tau, b) in enumerate(cols)
               for i, v in enumerate(tau)
               for kp in range(len(axes))]
    if len(cols) != dim_trimmed(m, p, k) - dim_full(m, p - 1, k):
        raise RuntimeError("trimmed complement has the wrong dimension")
    return _frozen(np.array(entries, dtype=int).reshape(-1, 4).T), len(cols)


def _minors(grads, k):
    """Every k x k minor of the gradient rows of one simplex or a stack:
    shape (..., C(m+1, k), C(m, k))."""
    m = grads.shape[-1]
    J = np.array(list(combinations(range(m + 1), k)))
    K = np.array(list(combinations(range(m), k)))
    return np.linalg.det(grads[..., J[:, None, :, None], K[None, :, None, :]])


def bernstein_tests(m, k, p):
    """The degree-p Bernstein k-forms of full_basis on an m-simplex as a
    list of one (k, p, rows) test block of ``moment_rows``, one row per form."""
    if p < 0:
        return []
    return [(k, p, np.diag(np.tile(multinomials(m + 1, p), math.comb(m, k))))]


def trimmed_coeffs(grads, p, k):
    """Basis of the trimmed space P-_p Lambda^k on the simplex with
    barycentric gradients ``grads`` (m+1, m), or on a stack (..., m+1, m),
    as coefficients.

    For 0 < k < m the degree-(p-1) Bernstein k-forms come first.  The
    complement lambda^beta phi_tau is projected off them and orthonormalised;
    the raw complement spans the right space but is worse conditioned.  For
    k=0 the space is the full degree-p space, for k=m the full degree-(p-1)
    top-form space.

    Returns (cols, tests): cols[..., :, i] holds basis form i at degree p;
    tests, as ``moment_rows`` blocks (k, q, rows (..., forms, coefficients)),
    hold the forms in order at their native degree q (p - 1 for a P_{p-1}
    form, p for a complement form).  A stack is one stacked QR; any simplex
    that loses rank raises.
    """
    m, stack = grads.shape[-1], grads.shape[:-2]
    if p < 1:
        return np.zeros((dim_full(m, p, k), 0)), []
    if k in (0, m):
        q = p if k == 0 else p - 1
        return _bernstein_block(m, k, q, p), bernstein_tests(m, k, q)
    (rows, cols, minor, sign), ncols = _whitney_pattern(m, p, k)
    raw = np.zeros(stack + (math.comb(m, k) * math.comb(p + m, m), ncols))
    raw[..., rows, cols] = sign * _minors(grads, k).reshape(stack + (-1,))[..., minor]
    lower_q = _lower_orthonormal(m, p, k)
    Q, R = np.linalg.qr(raw - lower_q @ (lower_q.T @ raw))
    if np.any(np.abs(np.diagonal(R, axis1=-2, axis2=-1)).min(axis=-1)
              <= RANK_RTOL * np.linalg.norm(raw, axis=-2).max(axis=-1)):
        raise RuntimeError("trimmed space extraction lost rank")
    lower = _bernstein_block(m, k, p - 1, p)
    return (np.concatenate([np.broadcast_to(lower, stack + lower.shape), Q], axis=-1),
            bernstein_tests(m, k, p - 1) + [(k, p, np.ascontiguousarray(Q.swapaxes(-1, -2)))])


def trimmed_basis(simplex, p, k):
    """The basis of ``trimmed_coeffs`` as forms of their native degree."""
    return [form_from_coeffs(simplex, tk, q, vec)
            for tk, q, T in trimmed_coeffs(simplex.grad_bary_float(), p, k)[1] for vec in T]
