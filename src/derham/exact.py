"""Exact polynomial differential forms on one simplex: the tests' reference.

FormPolynomial holds a k-form as dictionaries of barycentric monomials with
Fraction (or float) coefficients, on the exact rational geometry of a
Simplex, so d(d(u)) cancels at the coefficient level.  No command imports
this module: the program computes on the float coefficient maps of
``derham.forms``, and the tests check those maps against this algebra term
by term (their converters to the coefficient layout are in the tests).
Only a cell volume that floats cannot decide loads it, for ``exact_det``.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .forms import _frozen, _merge_sign, nonzero_volume


def exact_det(vertices):
    """Exact determinant (Fraction) of the edge vectors v_i - v_0 of a simplex:
    the measure of a ``Simplex``, and ``forms.nonzero_volume``'s verdict where
    floats cannot decide."""
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


# one Simplex per mesh cell or subsimplex, so forms built on it twice can be
# added and wedged (they require the same simplex object)
_sub_cache = weakref.WeakKeyDictionary()


def cell_simplex(mesh, ci):
    """The Simplex of a mesh cell, in ambient coordinates."""
    cache, key = _sub_cache.setdefault(mesh, {}), (mesh.dim, int(ci), "cell")
    if key not in cache:
        cache[key] = Simplex(mesh.vertices[list(mesh.cells[ci])])
    return cache[key]


def sub_simplex(mesh, d, idx):
    """Intrinsic simplex of a d-simplex of a mesh, 0 < d < dim, in its
    frame's chart."""
    cache, key = _sub_cache.setdefault(mesh, {}), (d, int(idx))
    if key not in cache:
        pts = mesh.vertices[list(mesh.skeleton[d][idx])]
        cache[key] = Simplex.embedded(pts, mesh.frame(d, idx).tangents)
    return cache[key]


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
