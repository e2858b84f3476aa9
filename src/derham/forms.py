"""Polynomial differential forms on a single simplex, as coefficient arrays.

A degree-p k-form is a vector of barycentric monomial coefficients (layout
below).  Float coefficient-space maps carry every operation the program
needs (values, derivatives, d, proxies, traces, moments, degree elevation),
on float barycentric geometry of one simplex or a stack, and the trimmed
spaces are built in closed form as coefficient columns.  All integrals use
the closed barycentric formula; there is no quadrature anywhere.  The
exact form algebra that the tests check these maps against is in
``derham.exact``, which no command imports.  The module needs only numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache
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


# Shewchuk's static error bounds (errboundA of orient2d and orient3d, "Adaptive
# precision floating-point arithmetic and fast robust geometric predicates",
# DCG 1997): a float determinant larger than this times its permanent has
# the sign of the exact one.
_EPS = 2.0 ** -53
_ERRBOUND = {2: (3 + 16 * _EPS) * _EPS, 3: (7 + 56 * _EPS) * _EPS}
# Below this permanent a product may have underflowed; decide exactly.
_TINY_PERMANENT = 2.0 ** -900


def exact_det(vertices):
    """Exact determinant (Fraction) of the edge vectors v_i - v_0 of a simplex.

    Only a volume that floats cannot decide needs it, so ``fractions`` is
    loaded here rather than with the module.
    """
    from fractions import Fraction
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
    clears Shewchuk's error bound; the rest fall back to ``exact_det``, among
    them any whose products overflowed (an infinite permanent clears no
    bound).  The sign of a float difference is exact, so m <= 1 never falls
    back.  One simplex runs on Python floats (the same IEEE arithmetic
    without numpy's per-call cost), a batch on coordinate columns.
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
        with np.errstate(over="ignore", invalid="ignore"):
            det, permanent = _float_det(e)
            out = (abs(det) > _ERRBOUND[m] * permanent) & (permanent > _TINY_PERMANENT)
    out = np.array(out, dtype=bool, ndmin=1)
    for i in np.flatnonzero(~out):
        out[i] = exact_det(s[i]) != 0
    return out


# ---------------------------------------------------------------------------
# exponents and axis tuples
# ---------------------------------------------------------------------------

def _merge_sign(k1, k2):
    """Sign of the permutation sorting the axis tuple k1 + k2 (dy_k1 ^ dy_k2)."""
    merged = k1 + k2
    inversions = sum(1 for i in range(len(merged)) for j in range(i + 1, len(merged))
                     if merged[i] > merged[j])
    return -1 if inversions % 2 else 1


def monomials(nvars, degree):
    """All exponent tuples of the given total degree, in ``exponent_array`` order."""
    return list(map(tuple, exponent_array(nvars, degree).tolist()))


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


# ---------------------------------------------------------------------------
# coefficient-space maps (float)
#
# A degree-p k-form on an m-simplex is a vector of barycentric monomial
# coefficients, key-major: entry key_pos * N + alpha_pos with keys
# combinations(range(m), k), alphas monomials(m + 1, p), N = len(alphas).
# The Bernstein basis C(p; alpha) lambda^alpha dy_K is this basis scaled by
# multinomials.
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
    """Every exponent of the given total degree, one row each at its
    ``exponent_rank``: the first entry descending, then the second, and so on."""
    if nvars == 1:
        return _frozen(np.full((int(degree >= 0), 1), degree))
    tail = np.indices((max(degree + 1, 0),) * (nvars - 1)).reshape(nvars - 1, -1).T
    exps = np.column_stack([degree - tail.sum(axis=1), tail])[tail.sum(axis=1) <= degree]
    out = np.empty_like(exps)
    out[exponent_rank(exps)] = exps
    return _frozen(out)


@lru_cache(maxsize=None)
def _binomials():
    """Pascal's table C(x, t), x < 4096 and t < 8, for ``exponent_rank``; entries past
    int64 wrap, but a rank reads only entries below its exponent array's length."""
    table = np.zeros((1 << 12, 8), dtype=np.int64)
    table[:, 0] = 1
    for t in range(1, 8):
        table[1:, t] = np.cumsum(table[:-1, t - 1])
    return _frozen(table)


def exponent_rank(exps):
    """Each exponent's row (last axis) in ``exponent_array``: for n variables, the sum
    over 0 < i < n of C(s_i + n - i - 1, n - i), s_i the sum of its entries from i on."""
    exps = np.asarray(exps, dtype=int)
    t = np.arange(exps.shape[-1] - 1, 0, -1)
    return _binomials()[np.cumsum(exps[..., :0:-1], axis=-1)[..., ::-1] + t - 1, t].sum(axis=-1)


@lru_cache(maxsize=None)
def multinomials(nvars, degree):
    """p!/alpha! for every exponent: the Bernstein scaling C(p; alpha)."""
    exps = exponent_array(nvars, degree)
    return _frozen(_FACT[degree] / np.prod(_FACT[exps], axis=1))


@lru_cache(maxsize=None)
def elevation(nvars, p, q):
    """Multiplication by (sum lambda)^(q-p): degree-p to degree-q coefficients."""
    if q < p:
        raise ValueError("cannot homogenize downward")
    out = np.zeros((math.comb(q + nvars - 1, nvars - 1), math.comb(p + nvars - 1, nvars - 1)))
    exps = exponent_array(nvars, p)
    rows = exponent_rank(exps[:, None, :] + exponent_array(nvars, q - p))
    out[rows, np.arange(len(exps))[:, None]] = multinomials(nvars, q - p)
    return _frozen(out)


@lru_cache(maxsize=None)
def _lowering(nvars, p):
    """(row, col, j, alpha_j) of each entry of d/d(lambda_j): degree p to p - 1."""
    exps = exponent_array(nvars, p)
    col, j = np.nonzero(exps)
    rows = exponent_rank(exps[col] - np.eye(nvars, dtype=int)[j])
    return _frozen(np.stack([rows, col, j, exps[col, j]]).reshape(4, -1))


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

    The signs are those of d(u dy_K) = sum over axes a of (du/dy_a)
    dy_a ^ dy_K, with dy_a moved into increasing axis order.
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

    ``w`` (..., m) is one vector or a stack.  The proxy of a 1-form is its
    components, of an (m-1)-form the flux (the key missing axis i pairs
    with (-1)^i e_i: (c23, -c13, c12) in 3D, (c1, -c0) in 2D), and of a 0-
    or m-form the scalar, which is multiplied by w[0].
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
def _trace_columns(nvars, vertex_maps, p):
    """Parent index of each child exponent of degree p, lifted through each
    of the vertex maps (a tuple of them): one row per map."""
    vmaps = np.array(vertex_maps, dtype=int)
    child = exponent_array(vmaps.shape[1], p)
    lifted = np.zeros((len(vmaps), len(child), nvars), dtype=int)
    lifted[np.arange(len(vmaps))[:, None, None], np.arange(len(child))[:, None], vmaps[:, None]] \
        = child
    return _frozen(exponent_rank(lifted))


def trace_matrix(m, vertex_map, k, p, tangents=None):
    """Trace of degree-p k-forms of an m-simplex onto a subsimplex
    on coefficients: barycentric monomials keep the exponents the vertex
    map fixes, and the form part pulls back through the child's chart.

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
    cols = _trace_columns(m + 1, tuple(map(tuple, vmaps.reshape(-1, d + 1).tolist())), p)
    cols = cols.reshape(vmaps.shape[:-1] + (-1,))
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

    ``inverse`` (..., m+1, m+1) is the inverse of [1 | vertices] of one
    simplex or a stack (column j holds lambda_j's constant and gradient), ``point`` (..., m) one point or one per simplex.
    """
    point = np.asarray(point, float)
    lam = inverse[..., 0, :] + (point[..., None, :] @ inverse[..., 1:, :])[..., 0, :]
    return np.prod(lam[..., None, :] ** exponent_array(lam.shape[-1], p), axis=-1)


def jet_rows(inverse, point, p, order):
    """Rows of every axis derivative of the given order at one intrinsic point.

    One row per axis multi-index i1 <= ... <= i_order (order 0: the value),
    over degree-p scalar coefficients, on the simplex whose inverse of
    [1 | vertices] is ``inverse``.
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
    """The degree-p Bernstein k-forms C(p; alpha) lambda^alpha dy_K on an
    m-simplex as coefficient columns at degree q >= p."""
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
    nax, nh = math.comb(m, k), math.comb(p + m, m)
    taus = np.array(list(combinations(range(1, m + 1), k + 1)), dtype=int).reshape(-1, k + 1)
    betas = exponent_array(m + 1, p - 1)
    # beta is supported on tau[0]..m: its entries before tau[0] sum to zero
    ti, bi = np.nonzero(np.cumsum(betas, axis=1)[:, taus[:, 0] - 1].T == 0)
    faces = np.array([[vsets[tau[:i] + tau[i + 1:]] for i in range(k + 1)]
                      for tau in map(tuple, taus.tolist())], dtype=int).reshape(-1, k + 1)
    lifted = exponent_rank(betas[bi, None] + np.eye(m + 1, dtype=int)[taus[ti]])
    kp = np.arange(nax)
    entries = np.broadcast_arrays(kp * nh + lifted[..., None], np.arange(len(ti))[:, None, None],
                                  faces[ti][..., None] * nax + kp,
                                  1 - 2 * (np.arange(k + 1) % 2)[:, None])
    if len(ti) != dim_trimmed(m, p, k) - dim_full(m, p - 1, k):
        raise RuntimeError("trimmed complement has the wrong dimension")
    return _frozen(np.stack(entries).reshape(4, -1)), len(ti)


def _minors(grads, k):
    """Every k x k minor of the gradient rows of one simplex or a stack:
    shape (..., C(m+1, k), C(m, k))."""
    m = grads.shape[-1]
    J = np.array(list(combinations(range(m + 1), k)))
    K = np.array(list(combinations(range(m), k)))
    return np.linalg.det(grads[..., J[:, None, :, None], K[None, :, None, :]])


def bernstein_tests(m, k, p):
    """The degree-p Bernstein k-forms on an m-simplex as a
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


def __getattr__(name):
    # perfbench/tracer.py counts calls to forms.FormPolynomial's methods; the
    # class lives in derham.exact and is imported only when asked for.  This
    # goes when the benchmark reads the program's own trace (ROADMAP item 5).
    if name == "FormPolynomial":
        from .exact import FormPolynomial
        return FormPolynomial
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
