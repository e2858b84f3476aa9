"""Global space assembly, exterior-derivative matrices, exactness checks.

Shared DoFs are generated from global subsimplex data, so identifying them
across cells is a dictionary lookup; there are no orientation sign tables.
Everything local is a float matrix product stacked over cells: a space's
DoFs are rows over the cells' barycentric coefficients, its local DoF
matrices are those rows times the shape coefficients, and a local operator
is ``rows @ fmap(grads) @ fields``, the target rows times the map as a
stack of coefficient matrices times the source dual bases.  Geometry is
float throughout: the cells' barycentric data come from one stacked
inverse, and measures from float edge vectors.  The scatter compares
entries that two cells reach, all at once.
Assembly itself is deterministic and single-threaded; assembled spaces and
operator matrices are immutable afterwards and safe to share.  Operators
are COO triplets; a dense view is built only when a caller asks for it.
Rank decisions use a relative singular-value cutoff (forms.RANK_RTOL):
``prove_ranks`` proves the rank a chain predicts with a shifted
Cholesky of a sparse Gram matrix and counts the singular values only where
that proof fails.  A Gram matrix no larger than one leaf
(``fronts.LEAF``) is summed straight into its single dense front; a larger
one is sorted COO triplets, never dense (summed from dense row slabs, or one
sparse product where rows are short), factored front by front on a
nested-dissection plan (``fronts``) with one ``np.linalg.cholesky`` per front.
"""

from __future__ import annotations

import json
import math
import weakref
from collections import namedtuple
from functools import cached_property
from itertools import combinations, combinations_with_replacement, permutations
from typing import NamedTuple

import numpy as np

from .elements import (block_rows, dof_plan, element_def, p_min, shape_coeffs,
                       single_cell_mesh, tangential_bubble_span, zero_trace_dim)
from .fronts import LEAF, dense_front, plan
from .forms import (RANK_RTOL, elevation, exponent_array, exterior_derivative_matrix,
                    moment_gram, multinomials, nullspace, rank_of, trace_matrix)

DD_TOL = 1e-10
CONTAINMENT_TOL = 1e-8
# Scattered entries at most this share of an operator's largest are
# cancellation residue (seen: 1e-19 to 1e-13, none between 1e-13 and 1e-9).
DROP_RTOL = 1e-13
# A later cell's value of an operator entry may differ from the first cell's
# by at most this times its own block's largest entry (or 1 if larger).
CONSISTENCY_TOL = 1e-7
# The dense rank count of an operator that ``prove_ranks`` could not prove
# is refused above this size (float64 entries); the CLI refuses local DoF
# matrices above the same size.
MAX_DENSE_BYTES = 2 ** 27
# A product with at most this many terms per entry skips the slabs (``_short``).
_SHORT = 4


class GlobalSpace:
    """An assembled finite element space on a mesh.

    ``cell_global[ci]`` holds the global indices of the cell's local DoFs in
    the canonical cell order.  They come from the plan's block sizes alone:
    each entity's block is numbered contiguously at its first appearance, so
    building a space realises no DoF.  The space keeps each block's start,
    and owns the map between cells and global DoFs both ways: ``gather``
    reads global values off values stacked over cells, ``broken`` places the
    global dual functions cell block by cell block, and ``dofs`` finds a
    plan group's indices on an entity.  The DoF rows, local DoF matrices,
    their inverses and the dual fields are arrays stacked over cells, each
    built for every cell at once on first use.
    """

    def __init__(self, mesh, el):
        self.mesh = mesh
        self.el = el
        if el.n != mesh.dim:
            raise ValueError("element dimension does not match the mesh")
        self.cell_global, self.dim, self._starts = _number_dofs(el, mesh)

    # -- arrays stacked over cells ---------------------------------------------------
    @cached_property
    def rows(self):
        """Every cell's DoF functionals as rows over degree-el.p coefficients."""
        return block_rows(self.el, self.mesh, np.arange(len(self.mesh.cells)), self.el.p)

    @cached_property
    def shapes(self):
        """Shape coefficients: one matrix, or a stack for trimmed spaces."""
        return shape_coeffs(self.el, self.mesh.bary_grads)

    @cached_property
    def local(self):
        return self.rows @ self.shapes

    @cached_property
    def duals(self):
        """Columns express the local dual basis in the shape basis."""
        return np.linalg.inv(self.local)

    @cached_property
    def fields(self):
        """Coefficients of the local dual basis, one column per DoF."""
        return self.shapes @ self.duals

    # -- one cell's slices ---------------------------------------------------------
    def local_matrix(self, ci):
        return self.local[ci]

    def dual_coeffs(self, ci):
        return self.duals[ci]

    # -- the map between cells and global DoFs -------------------------------------
    @cached_property
    def _first(self):
        """Each global DoF's first position in ``cell_global.ravel()``."""
        return np.unique(self.cell_global.ravel(), return_index=True)[1]

    def gather(self, values):
        """Global DoF values from values stacked over cells, (cells, local
        DoFs, ...): the first cell in cell order to reach a DoF sets it."""
        values = np.asarray(values)
        return values.reshape((-1,) + values.shape[2:])[self._first]

    def broken(self, p):
        """Coefficients of every global dual function at degree p >= el.p,
        one column each, in row blocks of one cell's coefficients, zero on
        the cells outside its support."""
        fields = self.fields
        if p != self.el.p:
            n, k = self.el.n, self.el.k
            fields = np.kron(np.eye(math.comb(n, k)), elevation(n + 1, self.el.p, p)) @ fields
        ncells, size = fields.shape[:2]
        out = np.zeros((ncells, size, self.dim))
        out[np.arange(ncells)[:, None], :, self.cell_global] = fields.swapaxes(1, 2)
        return out.reshape(-1, self.dim)

    def dofs(self, d, idx, label):
        """Global indices of the plan group ``label`` on the d-simplex ``idx``
        (the cell ``idx`` for d == n), one index or an array of them: the
        entity's block start plus the sizes of the earlier groups.  Empty if
        the plan has no such group."""
        off = 0
        for g in dof_plan(self.el, d):
            if g.label == label:
                return self._starts[d][idx][..., None] + off + np.arange(g.size)
            off += g.size
        return np.zeros(np.shape(idx) + (0,), dtype=int)

    def constant_coefficients(self):
        """Global DoF vector of the constant function (0-forms only)."""
        if self.el.k != 0:
            raise ValueError("constants only in 0-form spaces")
        # the lambdas sum to one, so 1 = (sum lambda)^p has multinomial coefficients
        one = multinomials(self.mesh.dim + 1, self.el.p)
        return self.gather(self.rows @ one)


def _number_dofs(el, mesh):
    """(cell_global, dim, starts) from the plan's per-entity sizes; starts[d]
    holds the first global index of every d-simplex's block (every cell's
    for d == n).

    Cells in order, each cell's entities by dimension then in combinations
    order, the interior last: every entity's block takes the next indices at
    its first appearance, the order in which a walk over the realised DoFs
    would meet them.
    """
    n, ncells = el.n, len(mesh.cells)
    tables = [mesh.cell_entities[d] for d in range(n)] + [np.arange(ncells)[:, None]]
    offsets = np.cumsum([0] + [mesh.count(d) for d in range(n)])
    keys = np.hstack([t + off for t, off in zip(tables, offsets)])   # one id per entity
    sizes = np.concatenate([np.full(t.shape[1], sum(g.size for g in dof_plan(el, d)))
                            for d, t in enumerate(tables)])
    uniq, first = np.unique(keys, return_index=True)
    order = np.argsort(first)
    size = sizes[first[order] % keys.shape[1]]
    start = np.zeros(offsets[-1] + ncells, dtype=int)
    start[uniq[order]] = np.cumsum(size) - size
    local = np.concatenate([np.arange(m) for m in sizes])
    return (np.repeat(start[keys], sizes, axis=1) + local, int(size.sum()),
            np.split(start, offsets[1:]))


def assemble_space(mesh, r, p, k):
    return GlobalSpace(mesh, element_def(r, p, k, mesh.dim))


# ---------------------------------------------------------------------------
# closed-form global dimensions
# ---------------------------------------------------------------------------

def dim_formula(r, p, k, n, counts):
    """Closed-form global dimension from the (V, E, F, T) counts."""
    V, E, F, T = counts

    def c(a, b):
        return math.comb(a, b) if a >= 0 else 0
    if n == 1:
        table = {
            (0, 0): V + (p - 1) * E,
            (0, 1): (p + 1) * E,
            (1, 0): 2 * V + (p - 3) * E,
            (1, 1): V + (p - 1) * E,
            (2, 0): 3 * V + (p - 5) * E,
            (2, 1): 2 * V + (p - 3) * E,
        }
        return table[(r, k)]
    if n == 2:
        table = {
            (0, 0): V + (p - 1) * E + c(p - 1, 2) * F,
            (0, 1): (p + 1) * E + (p - 1) * (p + 1) * F,
            (0, 2): c(p + 2, 2) * F,
            (1, 0): 3 * V + (p - 3) * E + c(p - 1, 2) * F,
            (1, 1): 2 * V + (p - 1) * E + (p - 1) * (p + 1) * F,
            (1, 2): c(p + 2, 2) * F,
            (2, 0): 6 * V + (2 * p - 9) * E + c(p - 4, 2) * F,
            (2, 1): 6 * V + 2 * (p - 3) * E + (p - 1) * (p - 2) * F,
            (2, 2): V + (c(p + 2, 2) - 3) * F,
        }
        return table[(r, k)]
    table = {
        (0, 0): V + (p - 1) * E + c(p - 1, 2) * F + c(p - 1, 3) * T,
        (0, 1): (p + 1) * E + (p - 1) * (p + 1) * F + (p - 2) * (p - 1) * (p + 1) * T // 2,
        (0, 2): c(p + 2, 2) * F + (p - 1) * (p + 1) * (p + 2) * T // 2,
        (0, 3): c(p + 3, 3) * T,
        (1, 0): 4 * V + (p - 3) * E + c(p - 1, 2) * F + c(p - 1, 3) * T,
        (1, 1): 3 * V + (p - 1) * E + (p - 1) * (p + 1) * F + (p - 2) * (p - 1) * (p + 1) * T // 2,
        (1, 2): c(p + 2, 2) * F + (p - 1) * (p + 1) * (p + 2) * T // 2,
        (1, 3): c(p + 3, 3) * T,
        (2, 0): 10 * V + (2 * (p - 4) + (p - 5)) * E + c(p - 4, 2) * F + c(p - 1, 3) * T,
        (2, 1): 12 * V + 3 * (p - 3) * E + (p - 1) * (p - 2) * F
                + (p ** 3 - 2 * p ** 2 - p + 2) * T // 2,
        (2, 2): 3 * V + (p ** 2 + 3 * p - 4) * F // 2 + (p - 1) * (p + 1) * (p + 2) * T // 2,
        (2, 3): c(p + 3, 3) * T,
        ("hz", 2): 3 * V + 2 * (p - 1) * E + c(p - 1, 2) * F + (p - 1) * (p + 1) * (p + 2) * T // 2,
        ("minus", 2): c(p + 1, 2) * F + 3 * c(p + 1, 3) * T,
    }
    return table[(r, k)]


def family_row(n, r, p):
    """The (r, degree, k) slots of one de Rham row at window parameter p.

    The 3D row "mixed" ends in the trimmed H(div) slot: full spaces of
    degree p and p-1, the trimmed space of degree p-1, and piecewise
    polynomials of degree p-2.  (With a trimmed slot of degree p-2 the curl
    image is not contained in the space, so that pairing is not even a
    complex; the assembly consistency check rejects it.)
    """
    if n == 1:
        return [(r, p + 1, 0), (r, p, 1)]
    if n == 2:
        base = {0: p, 1: p + 2, 2: p + 3}[r]
        return [(r, base - k, k) for k in range(0, 3)]
    if r == "mixed":
        return [(1, p, 0), (1, p - 1, 1), ("minus", p - 1, 2), (0, p - 2, 3)]
    base = {0: p, 1: p + 3, 2: p + 3}[r]
    return [(r, base - k, k) for k in range(0, 4)]


def row_p_min(n, r):
    """The smallest window parameter p at which every slot of the row exists."""
    return max(p_min(sr, k, n) - q for sr, q, k in family_row(n, r, 0))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class Coo:
    """A sparse matrix as COO triplets: ``rows``, ``cols`` and ``vals`` in
    row-major order, each entry once.  ``dropped_norm`` and ``dropped_max``
    are the Frobenius norm and the largest magnitude of the residue dropped
    from it: the scatter's cancellation residue, or for the algebra below a
    bound on how far its operands' residues move it (``dropped_max`` only
    from the scatter).  The row starts ``ptr``, the transpose ``T`` and the
    dense view ``array`` are built on first use and kept, so the triplets
    are not changed after construction; ``replace`` makes a changed copy.
    """

    def __init__(self, rows, cols, vals, shape, dropped_norm=0.0, dropped_max=0.0):
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, shape
        self.dropped_norm, self.dropped_max = dropped_norm, dropped_max

    def replace(self, **changes):
        """A copy with the given fields changed; cached views are not copied."""
        fields = {"rows": self.rows, "cols": self.cols, "vals": self.vals, "shape": self.shape,
                  "dropped_norm": self.dropped_norm, "dropped_max": self.dropped_max}
        return Coo(**{**fields, **changes})

    @classmethod
    def summed(cls, rows, cols, vals, shape, dropped_norm=0.0):
        """The matrix of triplets in any order, repeated entries summed."""
        keys, inv = np.unique(rows * shape[1] + cols, return_inverse=True)
        return cls(*np.divmod(keys, shape[1]), np.bincount(inv, weights=vals), shape,
                   dropped_norm)

    @classmethod
    def of_dense(cls, X):
        """The nonzero entries of a dense matrix."""
        return cls(*np.nonzero(X), X[X != 0], X.shape)

    @classmethod
    def eye(cls, n):
        return cls(np.arange(n), np.arange(n), np.ones(n), (n, n))

    @classmethod
    def zero(cls, m, n):
        return cls(np.zeros(0, int), np.zeros(0, int), np.zeros(0), (m, n))

    @classmethod
    def blocks(cls, grid):
        """The block matrix of a grid of matrices (None for a zero block; each
        block row and column holds a matrix), with the blocks' residue."""
        r0 = np.cumsum([0] + [next(b.shape[0] for b in row if b is not None) for row in grid])
        c0 = np.cumsum([0] + [next(b.shape[1] for b in col if b is not None)
                              for col in zip(*grid)])
        rows, cols, vals, dropped = zip(*[(b.rows + r0[i], b.cols + c0[j], b.vals, b.dropped_norm)
                                          for i, row in enumerate(grid)
                                          for j, b in enumerate(row) if b is not None])
        return cls.summed(*map(np.concatenate, (rows, cols, vals)),
                          (int(r0[-1]), int(c0[-1])), math.hypot(*dropped))

    @cached_property
    def ptr(self):
        """Row starts: row i holds the entries ptr[i]:ptr[i + 1]."""
        return np.searchsorted(self.rows, np.arange(self.shape[0] + 1))

    @property
    def T(self):
        """The transpose, built on first use and kept: a stable sort by column
        keeps each column's rows in order.  It holds this matrix through a
        weak reference and gives it back as its own transpose."""
        origin = self.__dict__.get("_origin")
        t = self.__dict__.get("_T") or (origin and origin())
        if t is None:
            order = np.argsort(self.cols, kind="stable")
            t = self.__dict__["_T"] = Coo(self.cols[order], self.rows[order], self.vals[order],
                                          self.shape[::-1], self.dropped_norm, self.dropped_max)
            t.__dict__["_origin"] = weakref.ref(self)
        return t

    @cached_property
    def array(self):
        """The dense matrix."""
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def dot(self, x):
        """self @ x for a vector x."""
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.shape[0])

    def amax(self):
        """The largest magnitude of an entry (0 if none)."""
        return float(np.abs(self.vals).max(initial=0.0))

    def __matmul__(self, b):
        """For the residues E and F of self and b, the product's residue
        ‖E‖‖b‖₂ + ‖self‖₂‖F‖ + ‖E‖‖F‖ (‖·‖ the Frobenius norm) bounds
        ‖(self + E)(b + F) - self·b‖."""
        lo = np.searchsorted(b.rows, self.cols)
        reps = np.searchsorted(b.rows, self.cols, side="right") - lo
        pos = np.repeat(lo - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
        (ea, (_, ha)), (eb, (_, hb)) = ((x.dropped_norm, _sigma1_bounds(x)) for x in (self, b))
        return Coo.summed(np.repeat(self.rows, reps), b.cols[pos],
                          np.repeat(self.vals, reps) * b.vals[pos], (self.shape[0], b.shape[1]),
                          ea * hb + ha * eb + ea * eb)

    def __add__(self, b):
        return Coo.summed(np.r_[self.rows, b.rows], np.r_[self.cols, b.cols],
                          np.r_[self.vals, b.vals], self.shape, self.dropped_norm + b.dropped_norm)

    def __neg__(self):
        return self.replace(vals=-self.vals)

    def __abs__(self):
        return self.replace(vals=np.abs(self.vals))

    def __sub__(self, b):
        return self + -b


def assemble_local_operator(src, dst, fmap):
    """Matrix of a cell-local linear map between assembled spaces.

    ``fmap(grads)`` is the map on the cells with barycentric gradients
    ``grads`` (cells, n+1, n), as one matrix or a stack, from the source's
    degree-``src.el.p`` coefficients to the target's degree-``dst.el.p``
    ones.  Column j holds the target DoFs of the map applied to the j-th
    global dual function: ``dst rows @ fmap @ src dual fields``, stacked
    over cells.  Entries reachable from two cells are compared; a
    disagreement means the image violates the target continuity.  Entries at
    most DROP_RTOL times the largest are cancellation residue and are dropped.
    """
    Dloc = dst.rows @ fmap(src.mesh.bary_grads) @ src.fields
    flat = (dst.cell_global[:, :, None] * src.dim + src.cell_global[:, None, :]).ravel()
    scales = np.repeat(np.maximum(np.abs(Dloc).max(axis=(1, 2)), 1.0), Dloc[0].size)
    order = np.argsort(flat, kind="stable")
    flat, vals, scales = flat[order], Dloc.ravel()[order], scales[order]
    # the first cell to reach an entry sets it; later cells must agree with it
    first = np.r_[True, flat[1:] != flat[:-1]]
    setter = np.maximum.accumulate(np.where(first, np.arange(len(flat)), 0))
    ref = vals[setter]
    bad = ~first & (np.abs(vals - ref) > CONSISTENCY_TOL * scales)
    if bad.any():
        pos = np.flatnonzero(bad)[np.argmin(order[bad])]   # first one in cell order
        gi, gj = divmod(int(flat[pos]), src.dim)
        cells = order[[setter[pos], pos]] // Dloc[0].size   # the source duals invert
        c0, c1 = np.linalg.cond(src.local[cells])            # these DoF matrices
        raise RuntimeError(
            f"operator entry disagrees across cells at ({gi},{gj}): {ref[pos]} vs {vals[pos]}; "
            f"wrong family pairing? The source DoF matrices of cells {cells[0]} and "
            f"{cells[1]} have condition numbers {c0:.2g} and {c1:.2g}")
    flat, vals = flat[first], vals[first]
    keep = np.abs(vals) > DROP_RTOL * np.abs(vals).max(initial=0.0)
    rows, cols = np.divmod(flat[keep], src.dim)
    dropped = np.abs(vals[~keep])
    return Coo(rows, cols, vals[keep], (dst.dim, src.dim), float(np.linalg.norm(dropped)),
               float(dropped.max(initial=0.0)))


def assemble_d(src, dst):
    """Exterior-derivative matrix in the dual bases of the two spaces.

    The target must be the next slot of the same family row: its form degree
    is one higher and its polynomial degree at least one lower.  Continuity
    violations surface as cross-cell entry disagreements.
    """
    if dst.el.k != src.el.k + 1:
        raise ValueError("target form degree must be source degree + 1")
    if dst.el.p < src.el.p - 1:
        raise ValueError(
            f"wrong family pairing: d image has degree {src.el.p - 1} but the "
            f"target only holds degree {dst.el.p}")
    return assemble_local_operator(src, dst, _d_map(src, dst))


def _d_map(src, dst):
    """d on a stack of cells, from the source's degree to the target's."""
    return lambda grads: exterior_derivative_matrix(grads, src.el.k, src.el.p, dst.el.p)


def containment_residual(src, dst, D=None):
    """Largest coefficient of d(dual_j) minus its target-space interpolant.

    Per cell and for every global source column that the cell or its rows of
    D reach, the coefficients of the d images of the source duals are
    compared with the target duals times the cell's rows of D, relative to
    the largest image coefficient.  All cells are one stack: each holds its
    columns in ascending order, padded with zero columns to the longest.
    """
    if D is None:
        D = assemble_d(src, dst)
    images = _d_map(src, dst)(src.mesh.bary_grads) @ src.fields
    rows, ncells = dst.cell_global, len(dst.cell_global)
    lo, reps = D.ptr[rows].ravel(), np.diff(D.ptr)[rows].ravel()
    pos = np.repeat(lo - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
    at = np.repeat(np.arange(rows.size), reps)        # (cell, local row) of each entry
    keys = np.concatenate([at // rows.shape[1] * D.shape[1] + D.cols[pos],
                           (np.arange(ncells)[:, None] * D.shape[1] + src.cell_global).ravel()])
    uniq, inv = np.unique(keys, return_inverse=True)
    cell = uniq // D.shape[1]
    slot = np.arange(len(uniq)) - np.searchsorted(cell, cell)   # position in its cell
    block = np.zeros((ncells, rows.shape[1], slot.max(initial=-1) + 1))
    block[at // rows.shape[1], at % rows.shape[1], slot[inv[:len(pos)]]] = D.vals[pos]
    image = np.zeros((ncells, images.shape[1], block.shape[2]))
    image[np.arange(ncells)[:, None], :, slot[inv[len(pos):]].reshape(ncells, -1)] \
        = images.swapaxes(1, 2)
    worst = np.abs(image - dst.fields @ block).max(initial=0.0)
    scale = np.abs(images).max(initial=0.0)
    return worst / scale if scale > 0.0 else worst


# ---------------------------------------------------------------------------
# sparse products and ranks
# ---------------------------------------------------------------------------

def _dense_rows(D, idx):
    """Rows ``idx`` of D, dense over the columns they touch: (those
    columns, the block)."""
    lo = D.ptr[idx]
    reps = D.ptr[idx + 1] - lo
    pos = np.repeat(lo - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
    cols = D.cols[pos]
    first = cols.min(initial=D.shape[1])    # a bitmap over the columns' span, no sort
    mark = np.zeros(cols.max(initial=first) + 1 - first, dtype=bool)
    mark[cols - first] = True
    used, at = np.flatnonzero(mark), np.empty(len(mark), dtype=int)
    at[used] = np.arange(len(used))
    block = np.zeros((len(idx), len(used)))
    block[np.repeat(np.arange(len(idx)), reps), at[cols - first]] = D.vals[pos]
    return used + first, block


def _slabs(D):
    """Row ranges of D with at most 2**16 entries in their dense blocks:
    cells number their DoFs together, so consecutive rows touch few
    columns, and a small matrix is one dense block.  An m×n matrix is
    m·n/2**16 slabs, so a product with short rows skips them (``_short``)."""
    m, n = D.shape
    step = max(1, 2 ** 16 // max(n, 1))
    return (np.arange(s, min(s + step, m)) for s in range(0, m, step))


def _short(D, cols, B):
    """Whether a product over the slabs of D runs as sparse triplets, linear in its terms
    (Gustavson 1978): D's dense view is over one slab's 2**16 entries, and the left factor's
    entries, in columns ``cols``, meet rows of B with at most _SHORT entries on average."""
    return D.shape[0] * D.shape[1] > 2 ** 16 and np.diff(B.ptr)[cols].sum() <= _SHORT * len(cols)


def _gram(X, coords, B=None, a=None):
    """XᵀX, plus a·BBᵀ for a given B, as values on a plan of fronts (see
    ``_SparseGram``), its diagonal, and per operator the most nonzero terms
    in one entry; ``coords`` places X's columns for the dissection.

    Each slab of rows gives a product dense over the columns it touches.  A
    matrix of at most LEAF columns is one front, and the products are summed
    into it.  A larger one is never dense: the nonzero entries of each
    product are one run of triplets, or PᵀP is one sparse product where
    ``_short`` says so; ``_coo_sum`` merges the runs, and ``plan`` orders the
    pattern.  An entry adds its terms in slab or product order, then a times
    BBᵀ's, so a matrix that is one front holds the sums a dense buffer would.
    """
    n = X.shape[1]
    sums, terms = [], []
    for P in [X] if B is None else [X, B.T]:
        terms.append(int(np.bincount(P.cols).max()))
        if n > LEAF and _short(P, P.rows, P):
            G = P.T @ P
            sums.append((G.rows * n + G.cols, G.vals))
            continue
        total = np.zeros((n, n)) if n <= LEAF else ([], [])
        for idx in _slabs(P):
            used, block = _dense_rows(P, idx)
            prod = block.T @ block
            if n > LEAF:
                nz = prod != 0
                total[0].append((used[:, None] * n + used)[nz])
                total[1].append(prod[nz])
            elif len(used) == n:
                total += prod
            else:
                total[np.ix_(used, used)] += prod
        sums.append(total if n <= LEAF else _coo_sum(*total))
    if n <= LEAF:
        G = sums[0] if B is None else sums[0] + a * sums[1]
        return G.reshape(-1), [dense_front(n)], G.diagonal().copy(), terms
    (keys, vals), *rest = sums
    if rest:
        keys, vals = _coo_sum([keys, rest[0][0]], [vals, a * rest[0][1]])
    rows, cols = keys // n, keys % n
    diag, on = np.zeros(n), rows == cols
    diag[rows[on]] = vals[on]
    return vals, plan(n, coords, rows, cols), diag, terms


def _coo_sum(keys, vals):
    """(keys, values) of the sum of runs of triplets, each run given by
    ascending distinct flat keys i·n + j: sorted, each entry summed in the
    order of the runs.  A stable sort merges them."""
    if len(keys) == 1:
        return keys[0], vals[0]
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.r_[True, keys[1:] != keys[:-1]]
    return keys[first], np.bincount(np.cumsum(first) - 1, weights=np.concatenate(vals)[order])


def _dof_coords(space):
    """Each global DoF's mean of the centroids of the cells that reach it."""
    cent = space.mesh.vertices[space.mesh.cells].mean(axis=1)
    return _mean_points(space.cell_global.ravel(),
                        np.repeat(cent, space.cell_global.shape[1], axis=0), space.dim)


def _mean_points(idx, pts, size):
    """For each i < size, the mean of the points pts[j] with idx[j] == i."""
    count = np.bincount(idx, minlength=size)
    return np.stack([np.bincount(idx, weights=pts[:, a], minlength=size)
                     for a in range(pts.shape[1])], axis=1) / count[:, None]


def _product_slabs(A, B):
    """Slabs of rows of A @ B and of |A| @ |B|, dense over the columns they
    touch, for products that ``_short`` leaves on the slabs."""
    for idx in _slabs(A):
        mid, block_a = _dense_rows(A, idx)
        _, block_b = _dense_rows(B, mid)
        yield block_a @ block_b, np.abs(block_a) @ np.abs(block_b)


def complex_residual(D2, D1):
    """Max entry of D2 @ D1, each over the largest in its row of |D2| @ |D1| (or 1),
    both over the slabs of D2 or, where ``_short`` says so, as sparse triplets."""
    if _short(D2, D2.cols, D1):
        P, S = D2 @ D1, abs(D2) @ abs(D1)
        rows = np.zeros(P.shape[0])
        np.maximum.at(rows, S.rows, S.vals)
        return float((np.abs(P.vals) / np.where(rows == 0.0, 1.0, rows)[P.rows]).max(initial=0.0))
    worst = 0.0
    for prod, scale in _product_slabs(D2, D1):
        rows = scale.max(axis=1, initial=0.0)
        rows[rows == 0.0] = 1.0
        worst = max(worst, (np.abs(prod) / rows[:, None]).max(initial=0.0))
    return float(worst)


_U = np.finfo(float).eps / 2
# Relative outward rounding of each scalar bound: every one is a sum or
# product of fewer than 10**7 floats, whose rounding stays below this.
_SLACK = 1e-8


def _gamma(j):
    return j * _U / (1 - j * _U)


def _sigma1_bounds(D):
    """σ₁ lies between the largest row or column norm and sqrt(‖D‖₁‖D‖∞)."""
    mag = np.abs(D.vals)
    sq = max(np.bincount(D.cols, weights=mag * mag).max(initial=0.0),
             np.bincount(D.rows, weights=mag * mag).max(initial=0.0))
    col = np.bincount(D.cols, weights=mag).max(initial=0.0)
    row = np.bincount(D.rows, weights=mag).max(initial=0.0)
    return math.sqrt(sq) * (1 - _SLACK), math.sqrt(col * row) * (1 + _SLACK)


# A Gram matrix for ``_cholesky_floor``: the ``vals`` that the plan
# ``fronts`` assembles (sorted COO values on its pattern, or every entry in
# row-major order for one dense front), and ``rank_one``, the block a·v̂v̂ᵀ
# that adds to the root front's pivots (or None).
_SparseGram = namedtuple("_SparseGram", "vals fronts rank_one")


def _factor(gram, shift, keep=False):
    """Cholesky of G - shift·I front by front, children first: the blocks
    (L_PP, L_UP) of each front if ``keep``, else True; None if a front fails.

    A front holds its pivots' original entries and its children's Schur
    complements (extend-add).  One LAPACK Cholesky factors it with its update
    block C bordered: C's diagonal set to s = 2⁹⁰⁰ (``_cholesky_floor`` says
    why).  The factor's pivot columns are L_PP over L_UP, and the front
    passes C minus L_UP L_UPᵀ to its parent.
    """
    updates, blocks, last = {}, [], len(gram.fronts) - 1
    for k, f in enumerate(gram.fronts):
        m, size = len(f.pivots), len(f.pivots) + len(f.update)
        if isinstance(f.at, slice):     # a dense front: the values are its entries in order
            F = gram.vals.reshape(size, size).copy()
        else:
            F = np.zeros((size, size))
            F.reshape(-1)[f.at] = gram.vals[f.entries]
        if k == last and gram.rank_one is not None:
            F[:m, :m] += gram.rank_one
        F.flat[:m * (size + 1):size + 1] -= shift
        for child, slot in zip(f.children, f.slots):
            at = (slot[:, None] * size + slot).ravel()
            np.add.at(F.reshape(-1), at, updates.pop(child).ravel())
        border = slice(m * (size + 1), None, size + 1)
        diag = F.flat[border].copy()
        F.flat[border] = 2.0 ** 900
        try:
            L = np.linalg.cholesky(F)
        except np.linalg.LinAlgError:
            return None
        F.flat[border] = diag
        L, LU = L[:m, :m], L[m:, :m]
        if keep:        # copies, which free the border's columns
            L, LU = L.copy(), LU.copy()
            blocks.append((L, LU))
        updates[k] = F[m:, m:] - LU @ LU.T
        del F, L, LU    # freed before the next front is built, for the peak memory
    return blocks if keep else True


def _min_eig_estimate(gram, blocks):
    """λ_min(L Lᵀ) estimated from above by two steps of inverse subspace
    iteration on four vectors, solved front by front with the factor's
    blocks; numpy has no triangular solve, so substitution within a front
    runs over diagonal blocks of 16, those of all fronts inverted in one call."""
    diag = [L[s:s + 16, s:s + 16] for L, _ in blocks for s in range(0, len(L), 16)]
    stack = np.tile(np.eye(16), (len(diag), 1, 1))
    for i, d in enumerate(diag):
        stack[i, :len(d), :len(d)] = d
    inv = iter(a[:len(d), :len(d)] for a, d in zip(np.linalg.inv(stack), diag))
    steps = [[(s, next(inv)) for s in range(0, len(L), 16)] for L, _ in blocks]

    # y is kept in elimination order, so each front's pivots are one slice; a
    # single front is in index order and passes no update
    if len(gram.fronts) == 1:
        n = len(gram.fronts[0].pivots)
        order, spans = None, [(0, n, ())]
    else:
        order = np.concatenate([f.pivots for f in gram.fronts])
        n, where = len(order), np.empty(len(order), dtype=int)
        where[order] = np.arange(n)
        ends = np.cumsum([len(f.pivots) for f in gram.fronts])
        spans = [(e - len(f.pivots), e, where[f.update]) for f, e in zip(gram.fronts, ends)]

    def solve(b):
        y = b.copy() if order is None else b[order]
        for (lo, hi, up), (L, LU), step in zip(spans, blocks, steps):
            x = y[lo:hi]
            for s, D in step:
                x[s:s + 16] = D @ (x[s:s + 16] - L[s:s + 16, :s] @ x[:s])
            if len(up):
                y[up] -= LU @ x
        for (lo, hi, up), (L, LU), step in reversed(list(zip(spans, blocks, steps))):
            x = y[lo:hi]
            if len(up):
                x -= LU.T @ y[up]
            for s, D in reversed(step):
                x[s:s + 16] = D.T @ (x[s:s + 16] - L[s + 16:, s:s + 16].T @ x[s + 16:])
        if order is None:
            return y
        out = np.empty_like(y)
        out[order] = y
        return out

    # hashed pseudo-random start vectors: importing numpy.random costs a cold
    # process more than the whole estimate
    start = np.sin(np.arange(1.0, 4 * n + 1) * 12.9898).reshape(-1, 4)
    start = start * 43758.5453 % 1 - 0.5
    z = np.linalg.qr(solve(start))[0]
    return 1.0 / np.linalg.eigvalsh(z.T @ solve(z))[-1]


def _cholesky_floor(gram, t, c):
    """t - c as a proved lower bound on λ_min of the exact Gram matrix, or None.

    c bounds the distance of the exact Gram matrix from the computed G, γ_w·F
    for entries that sum at most w products each in any order (slab by slab,
    or a sparse product's ``bincount``), plus the rounding of a float Cholesky:
    one that completes on G - tI proves
    λ_min(G) ≥ t - γ_{N+1}/(1-γ_{N+1})·tr(G) (Rump, BIT 46, 2006), and P G Pᵀ
    has the eigenvalues of G for the plan's permutation P.  Rump's proof
    rests on Demmel's componentwise backward error of the computed factor,
    |L Lᵀ - (G - tI)| ≤ γ_{N+1}|L||Lᵀ|, which holds when every entry of L
    comes from the Cholesky recurrences, l_jj² = g_jj - t - Σ_k l_jk² and
    l_ij = (g_ij - Σ_k l_ik l_jk)/l_jj, each evaluated in any order and
    grouping (Higham, Accuracy and Stability of Numerical Algorithms,
    Lemma 8.4 and Theorem 10.3).  The front-by-front factor is such a factor.
    Each front is one LAPACK Cholesky with its update block's diagonal set
    to the border s = 2⁹⁰⁰: pivot column j reads only columns k ≤ j, never
    the update block, so it evaluates the recurrences for L_PP and L_UP, and
    OpenBLAS's ``potrf`` multiplies by 1/l_jj, one rounding more per entry:
    l_ij stays within γ_{j+1} ≤ γ_N of its recurrence.  The border's own
    pivots factor s·I + C₀ - BA⁻¹Bᵀ (C₀ the update block off its diagonal,
    B the update rows, A the pivot block), so they fail only if
    ‖C₀ - BA⁻¹Bᵀ‖ nears s, and a failure anywhere fails the attempt, which
    loses a proof but makes no wrong one.  Extend-add only regroups the sums
    of a child's terms l_ik l_jk in its Schur complement.  So γ_{N+1}, N the
    order of G, still applies.

    With ``rank_one`` = a·v̂v̂ᵀ the bound is on λ_min(DᵀD + a·v̂v̂ᵀ), and by
    Courant–Fischer, for any unit v̂ and any y ⊥ v̂, ‖Dy‖² = yᵀ(DᵀD +
    a·v̂v̂ᵀ)y ≥ λ_min‖y‖², so it bounds σ_{n-1}(D) from below whatever v is;
    v = x̂ on the root front's pivots keeps the term inside one front.

    After a first attempt at t, inverse iteration with its factor estimates
    how far λ_min lies above t (from above, seen within a factor 1.9), and a
    second attempt at 0.4 of that distance, on the same plan, sharpens the
    bound; if it fails, the first bound stands.
    """
    blocks = _factor(gram, t, keep=True)
    if blocks is None:
        return None
    sharper = t + 0.4 * _min_eig_estimate(gram, blocks)
    del blocks
    return (sharper if _factor(gram, sharper) else t) - c


def _proof(D, r, kernel, sigma1, coords):
    """(r, lower bound on σ_r, upper bound on σ_{r+1}) of D, or None.

    ``kernel`` spans the kernel of D if r holds: a known kernel vector x
    (first map), or ``(B, rank, kept, dropped)`` of a proved map B with
    range B ⊂ ker D.  ``coords`` places D's rows and columns.
    """
    m, n = D.shape
    lo1, hi1 = sigma1
    if not 0 < r <= min(m, n) or hi1 == 0.0:
        return None
    delta = D.dropped_norm * (1 + _SLACK)   # Weyl: the residue moves no σ by more
    F = D.vals @ D.vals                     # ‖|D|ᵀ|D|‖₂ ≤ ‖D‖_F²
    penalty, w_row = 0.0, int(np.bincount(D.rows).max())   # terms in a row of D times a vector
    full = r == min(m, n)
    vector = not full and isinstance(kernel, np.ndarray) and r == n - 1
    if not (full or vector or isinstance(kernel, tuple) and r == n - kernel[1]):
        return None
    if full:
        dropped = 0.0
    elif vector:
        # for y ⊥ v̂, ‖Dy‖² = yᵀ(DᵀD + a v̂v̂ᵀ)y, and by Courant–Fischer its
        # minimum over unit y bounds σ_{n-1} from below for any v: v is x̂ on
        # the root front's pivots, so the term adds no fill; σ_n ≤ ‖Dx̂‖
        x = kernel / np.linalg.norm(kernel)
        a = F / n
        bound = np.bincount(D.rows, weights=np.abs(D.vals * x[D.cols]), minlength=m)
        dropped = (np.linalg.norm(D.dot(x)) + _gamma(w_row + 1) * np.linalg.norm(bound)) \
            / np.linalg.norm(x)
    else:
        # with U the top singular space of B (dim = its rank s): for y ⊥ U,
        # ‖Dy‖² ≥ yᵀ(DᵀD + a BBᵀ)y - a σ_{s+1}(B)²‖y‖²; on U, ‖Dy‖ ≤ ‖DB‖/σ_s(B)
        B, _, kept_B, dropped_B = kernel
        FB = B.vals @ B.vals
        a = F / FB
        penalty = a * dropped_B ** 2
        sq = [P.vals @ P.vals for P in (D @ B, abs(D) @ abs(B))] if _short(D, D.cols, B) else \
            np.sum([(np.sum(prod ** 2), np.sum(bound ** 2))
                    for prod, bound in _product_slabs(D, B)], axis=0)
        dropped = (math.sqrt(sq[0]) + _gamma(w_row + 1) * math.sqrt(sq[1])) / kept_B
    dropped = dropped * (1 + _SLACK) + delta
    if dropped >= RANK_RTOL * lo1:
        return None
    X, at = (D.T, coords[0]) if full and m <= n else (D, coords[1])
    if full:
        vals, fronts, diag, (w,) = _gram(X, at)
    elif vector:
        vals, fronts, diag, (w,) = _gram(X, at)
        F, w = F + a, w + 2
    else:
        vals, fronts, diag, (w, wB) = _gram(X, at, B, a)
        F, w = F + a * FB, w + wB + 2
    need = (RANK_RTOL * hi1 + delta) * (1 + 4 * _SLACK)
    N, rank_one = X.shape[1], None
    if vector:
        root = fronts[-1].pivots
        v = kernel[root]
        if not v.any():
            return None
        v = v / np.linalg.norm(v)
        rank_one = np.outer(a * v, v)
        diag[root] += rank_one.diagonal()
    c = 2 * (_gamma(N + 1) / (1 - _gamma(N + 1)) * diag.sum() + _gamma(w) * F)
    gram = _SparseGram(vals, fronts, rank_one)
    floor = _cholesky_floor(gram, need ** 2 + penalty + c, c)
    if floor is None:
        return None
    return r, math.sqrt(floor - penalty) * (1 - _SLACK) - delta, dropped


def prove_ranks(ops, coords, kernel=None):
    """The rank of each operator of a chain, proved where the chain allows.

    ``ops[k]`` maps space k to space k+1 as a ``Coo``, ``coords`` holds a
    point per DoF of each of the ``len(ops) + 1`` spaces, and ``kernel`` is
    an optional known kernel vector x of ops[0].  The chain proposes every rank: r₀ = n₀ - 1
    given x, then r_k = min(n_k - r_{k-1}, m_k); the last map is also tried
    at its full rank, which a chain with cohomology can propose too small.  One shifted float Cholesky
    of a sparse Gram matrix on the operator's smaller side proves a lower
    bound on σ_r: DDᵀ or DᵀD when r is full, else DᵀD plus a multiple of
    v̂v̂ᵀ (v is x̂ on the root front's DoFs) or of BBᵀ for the previous map
    B, or DDᵀ plus a multiple of CᵀC for the next map C; B or C must have
    been proved, and their ranks fix r.  A Gram matrix of at most LEAF DoFs
    is one dense front; a larger one is built as COO triplets, ordered by
    nested dissection of its own graph with the DoFs at their points, and
    factored front by front (``_cholesky_floor``).  The dropped bound is
    ‖Dx̂‖, ‖DB‖_F or ‖CD‖_F over that map's kept bound, and the dropped
    residue's Frobenius norm widens both.  Where the bounds straddle
    RANK_RTOL·σ₁, r is the count that ``rank_of`` defines; otherwise the
    operator is counted by ``rank_of`` on its dense view, and a dense view
    over MAX_DENSE_BYTES raises RuntimeError instead.

    Returns the ranks and, per operator, ``{"kept", "dropped", "proved"}``:
    the bounds relative to σ₁ (None where nothing was proved).
    """
    sigma1 = [_sigma1_bounds(D) for D in ops]
    proofs = [None] * len(ops)          # (rank, kept, dropped) once proved
    tried = set()

    def attempt(k, side):
        """Prove op k on one side: "full", "cols" (the previous map or x
        spans the kernel) or "rows" (the next map spans the cokernel)."""
        m, n = ops[k].shape
        known, r = None, min(m, n)
        if side != "full":
            j, width = (k - 1, n) if side == "cols" else (k + 1, m)
            if j == -1 and kernel is not None:
                known, r = kernel, width - 1
            elif 0 <= j < len(ops) and proofs[j] is not None:
                B = ops[j] if side == "cols" else ops[j].T
                known, r = (B, *proofs[j]), width - proofs[j][0]
            else:
                return
        tried.add((k, side))
        D, ends = ops[k], (coords[k + 1], coords[k])
        if side == "rows":
            D, ends = D.T, ends[::-1]
        proofs[k] = _proof(D, r, known, sigma1[k], ends)

    # forward: full ranks, and column sides as each previous map is proved;
    # backward: the other sides, as each next map is proved, and after them
    # the last map in full, onto where cohomology below made the forward
    # proposal too small
    prev = int(kernel is not None)      # x acts as a rank-one map
    for k, D in enumerate(ops):
        m, n = D.shape
        prev = min(n - prev, m)
        attempt(k, "full" if prev == min(m, n) else "cols" if n <= m else "rows")
    for k in reversed(range(len(ops))):
        m, n = ops[k].shape
        sides = ("rows", "cols") if m < n else ("cols", "rows")
        for side in sides + ("full",) * (k == len(ops) - 1):
            if proofs[k] is None and not tried & {(k, side), (k, "full")}:
                attempt(k, side)
    for k, (p, D) in enumerate(zip(proofs, ops)):
        if p is None and 8 * D.shape[0] * D.shape[1] > MAX_DENSE_BYTES:
            raise RuntimeError(
                f"the rank of operator {k} ({D.shape[0]}x{D.shape[1]}) could not be proved, "
                f"and counting it needs a dense copy of {8 * D.shape[0] * D.shape[1] / 2 ** 20:.3g}"
                f" MiB, over the {MAX_DENSE_BYTES / 2 ** 20:.3g} MiB limit")
    ranks = [p[0] if p else rank_of(D.array) for p, D in zip(proofs, ops)]
    margins = [{"kept": float(p[1] / s[1]) if p else None,
                "dropped": float(p[2] / s[0]) if p else None,
                "proved": p is not None} for p, s in zip(proofs, sigma1)]
    return ranks, margins


class ExactnessReport(NamedTuple):
    dims: list
    ranks: list
    nullities: list
    dd_residuals: list
    betti: list
    expected_betti: list
    kernel_is_constants: bool
    surjective_end: bool
    alternating_ok: bool
    rank_margins: list

    @property
    def passed(self):
        return (all(r < DD_TOL for r in self.dd_residuals)
                and self.betti == self.expected_betti
                and self.kernel_is_constants
                and self.alternating_ok)

    def to_json(self):
        return json.dumps({
            "dims": self.dims, "ranks": self.ranks, "nullities": self.nullities,
            "dd_residuals": self.dd_residuals, "betti": self.betti,
            "expected_betti": self.expected_betti,
            "kernel_is_constants": self.kernel_is_constants,
            "surjective_end": self.surjective_end,
            "alternating_ok": self.alternating_ok, "pass": self.passed,
            "rank_margins": self.rank_margins,
        }, indent=2)


def verify_row(mesh, slots, expected_betti=None):
    """Assemble a row of spaces and verify complex + exactness properties."""
    spaces = [assemble_space(mesh, r, p, k) for (r, p, k) in slots]
    ops = [assemble_d(spaces[i], spaces[i + 1]) for i in range(len(spaces) - 1)]
    dims = [s.dim for s in spaces]
    kernel = spaces[0].constant_coefficients() if spaces[0].el.k == 0 else None
    ranks, margins = prove_ranks(ops, [_dof_coords(s) for s in spaces], kernel)
    nullities = [dims[i] - ranks[i] for i in range(len(ops))]
    dd = [complex_residual(ops[i + 1], ops[i]) for i in range(len(ops) - 1)]
    betti = [nullities[0]]
    for i in range(1, len(ops)):
        betti.append(nullities[i] - ranks[i - 1])
    betti.append(dims[-1] - ranks[-1])
    if expected_betti is None:
        expected_betti = [1] + [0] * (len(dims) - 1)
    # kernel of the first operator should be exactly the constants
    kernel_const = True
    if kernel is not None and nullities[0] >= 1:
        resid = np.abs(ops[0].dot(kernel)).max() / max(np.abs(kernel).max(), 1.0)
        kernel_const = bool(resid < 1e-8) and nullities[0] == expected_betti[0]
    alt_dims = sum((-1) ** i * dims[i] for i in range(len(dims)))
    alt_betti = sum((-1) ** i * expected_betti[i] for i in range(len(dims)))
    report = ExactnessReport(
        dims=dims, ranks=ranks, nullities=nullities, dd_residuals=dd,
        betti=betti, expected_betti=list(expected_betti),
        kernel_is_constants=kernel_const,
        surjective_end=(ranks[-1] == dims[-1]),
        alternating_ok=(alt_dims == alt_betti) if betti == list(expected_betti) else False,
        rank_margins=margins,
    )
    return report, spaces, ops


def verify_exactness(mesh, r, p, expected_betti=None):
    slots = family_row(mesh.dim, r, p)
    report, _, _ = verify_row(mesh, slots, expected_betti)
    return report


def space_equal(space_a, space_b):
    """True iff the two assembled spaces span the same piecewise functions."""
    if space_a.mesh is not space_b.mesh or space_a.el.k != space_b.el.k:
        raise ValueError("spaces must share mesh and form degree")
    p = max(space_a.el.p, space_b.el.p)
    A = space_a.broken(p)
    B = space_b.broken(p)
    if space_a.dim != space_b.dim:
        return False, {"dims": (space_a.dim, space_b.dim)}
    ra = rank_of(A)
    rboth = rank_of(np.hstack([A, B]))
    equal = (ra == space_a.dim) and (rboth == ra)
    return equal, {"dims": (space_a.dim, space_b.dim), "rank_a": ra, "rank_union": rboth}


# ---------------------------------------------------------------------------
# homogeneous boundary conditions
# ---------------------------------------------------------------------------

def zero_mean_row(space):
    """The integral of an n-form as a (1, dim) row on its global DoF vector,
    each cell's part added in cell order."""
    n = space.mesh.dim
    mean = moment_gram(n + 1, space.el.p, 0)[:, 0]
    pts = space.mesh.vertices[space.mesh.cells]
    measures = np.abs(np.linalg.det(pts[:, 1:] - pts[:, :1])) / math.factorial(n)
    parts = (measures[:, None, None] * mean) @ space.fields
    return np.bincount(space.cell_global.ravel(), weights=parts.ravel(), minlength=space.dim)[None]


def restrict_homogeneous(space, classification):
    """A basis of the DoF vectors whose boundary data vanish, as a Coo.

    The boundary data are read off the DoF plan with one rule.  On a
    boundary entity, a group with no direction and no weight is dropped.
    The groups of order s (directions plus weight) are the components of
    one s-tensor: at each moment position they keep the kernel of their
    contractions with the symmetric s-fold products of the entity's
    tangents (``classify_boundary``), so nothing at a corner.  The basis is
    a (space.dim, dim) matrix with orthonormal columns: a small kernel block
    per boundary entity, order and position, then a unit column per kept
    DoF.
    """
    mesh, el, n = space.mesh, space.el, space.mesh.dim
    if (n, el.r, el.k) not in ((2, 1, 0), (2, 1, 1), (3, 2, 0)):
        raise ValueError("homogeneous restriction not implemented for this family")
    kept = np.ones(space.dim, dtype=bool)
    parts, dim = [], 0
    for d in range(n):
        bnd = np.flatnonzero(mesh.boundary[d])
        orders = {}
        for g in dof_plan(el, d):
            slots = (() if g.weight is None else (g.weight,)) + g.directions
            ids = space.dofs(d, bnd, g.label)
            kept[ids] = False
            if slots:
                orders.setdefault(len(slots), []).append((slots, ids))
        normals = mesh.frames(d).normals if d else None
        for s, groups in orders.items():
            for i, e in enumerate(bnd):
                # the classification keys a vertex by its index, not its skeleton id
                T = classification.tangents[(d, mesh.skeleton[0][e][0] if d == 0 else e)]
                # each slot's components along the tangents: an axis or a frame normal
                comp = {v: T @ normals[e, v[1]] if isinstance(v, tuple) else T[:, v]
                        for slots, _ in groups for v in slots}
                rows = [[sum(math.prod(comp[v][a] for a, v in zip(product, perm))
                             for perm in dict.fromkeys(permutations(slots)))
                         for slots, _ in groups]
                        for product in combinations_with_replacement(range(len(T)), s)]
                # the kernel K at each position: idx holds positions x groups
                K, idx = nullspace(np.array(rows)), np.stack([ids[i] for _, ids in groups], 1)
                cols = dim + np.arange(len(idx))[:, None, None] * K.shape[1] + np.arange(K.shape[1])
                parts.append([a.ravel() for a in np.broadcast_arrays(idx[:, :, None], cols, K)])
                dim += len(idx) * K.shape[1]
    keep = np.flatnonzero(kept)
    parts.append((keep, dim + np.arange(len(keep)), np.ones(len(keep))))
    return Coo.summed(*map(np.concatenate, zip(*parts)), (space.dim, dim + len(keep)))


def homogeneous_row_report(mesh, p, classification):
    """Assembled homogeneous 2D dims, removal-count formulas, and exactness.

    The restricted operators are N₁ᵀD₀N₀ and D₁N₁, products of the
    operators' triplets and the bases N of ``restrict_homogeneous``; each
    image must stay homogeneous.  The last slot is the quotient by
    constants, which D₁N₁ maps onto iff the zero-mean row z spans its
    cokernel.  ``prove_ranks`` proves both ranks on the transposed chain
    [(D₁N₁)ᵀ, (N₁ᵀD₀N₀)ᵀ] with z as the known kernel vector, each basis
    column at the mean of its DoFs' points.
    """
    cls = classification
    slots = family_row(2, 1, p)
    spaces = [assemble_space(mesh, r, q, k) for (r, q, k) in slots]
    N0, N1 = (restrict_homogeneous(s, cls) for s in spaces[:2])
    E0, q0, q1 = len(mesh.boundary_simplices(1)), slots[0][1], slots[1][1]
    formulas = [
        spaces[0].dim - (q0 - 3) * E0 - 3 * cls.v0 + cls.v0s,
        spaces[1].dim - (q1 - 1) * E0 - 2 * cls.v0 + cls.v0s,
        spaces[2].dim - 1,
    ]
    D0, D1 = (assemble_d(spaces[i], spaces[i + 1]) for i in range(2))
    # D₀N₀ is homogeneous iff it is its own projection N₁N₁ᵀD₀N₀
    img = D0 @ N0
    coef = N1.T @ img
    # N has orthonormal columns, so a product's residue is at most D's
    chain = [(D1 @ N1).replace(dropped_norm=D1.dropped_norm).T,
             coef.replace(dropped_norm=D0.dropped_norm).T]
    z = zero_mean_row(spaces[2])[0]
    checks = [((img - N1 @ coef).vals, img.vals), (chain[0].dot(z), chain[0].vals)]
    ok_invariant = all(np.abs(off).max(initial=0.0) <= 1e-8 * max(np.abs(m).max(initial=0.0), 1.0)
                       for off, m in checks)
    coords = [_dof_coords(spaces[2])] + [_mean_points(N.cols, _dof_coords(s)[N.rows], N.shape[1])
                                         for s, N in ((spaces[1], N1), (spaces[0], N0))]
    ranks, margins = (x[::-1] for x in prove_ranks(chain, coords, z))
    dims = [N0.shape[1], N1.shape[1], spaces[2].dim - 1]
    exact = dims[0] == ranks[0] and dims[1] - ranks[1] == ranks[0] and ranks[1] == dims[2]
    return {"dims": dims, "formulas": formulas, "alternating": dims[0] - dims[1] + dims[2],
            "ranks": ranks, "rank_margins": margins, "exact": exact,
            "image_homogeneous": bool(ok_invariant)}


# ---------------------------------------------------------------------------
# decompositions, savings
# ---------------------------------------------------------------------------

def verify_decomposition(n, p, mesh):
    """Nodal space equals continuous part plus trace-free bubbles (span rank)."""
    if n == 2:
        if p < 2:
            raise ValueError("2D decomposition needs p >= 2")
        target = assemble_space(mesh, 1, p, 1)
        scalar = assemble_space(mesh, 0, p, 0)
        # a single-cell copy has the same barycentric coefficients
        bubbles = [zero_trace_dim(single_cell_mesh(verts), p, 1)[1]
                   for verts in mesh.vertices[mesh.cells]]
    elif n == 3:
        target = assemble_space(mesh, 2, p, 1)
        scalar = assemble_space(mesh, 1, p, 0)
        bubbles = [tangential_bubble_span(grads, p) for grads in mesh.bary_grads]
    else:
        raise ValueError("decomposition implemented in dimensions 2 and 3")
    # componentwise vector fields: scalar column j in component c is column
    # c·dim + j, its coefficients in the cell's key block (c,)
    ncells = len(mesh.cells)
    comp_cols = np.zeros((ncells, n, math.comb(p + n, n), n, scalar.dim))
    comp_cols[:, np.arange(n), :, np.arange(n)] = scalar.broken(p).reshape(ncells, -1, scalar.dim)
    comp_cols = comp_cols.reshape(-1, n * scalar.dim)
    bub = Coo.blocks([[Coo.of_dense(b) if i == j else None for j in range(ncells)]
                      for i, b in enumerate(bubbles)]).array
    tgt = target.broken(p)
    both = np.hstack([comp_cols, bub])
    r_target = rank_of(tgt)
    r_sum = rank_of(both)
    r_union = rank_of(np.hstack([tgt, both]))
    return {
        "dim_target": target.dim,
        "rank_target": r_target,
        "rank_sum": r_sum,
        "rank_union": r_union,
        "dim_continuous": n * scalar.dim,
        "equal": r_target == target.dim == r_sum == r_union,
        "continuous_strictly_smaller": n * scalar.dim < target.dim,
    }


def interpolation_split_residual(mesh, p):
    """Max tangential face trace of (u - continuous interpolant of u), 3D.

    Realizes the interpolation onto the vector-Hermite space that copies all
    shared DoFs of u, keeps interior moments, and zeroes face-normal parts;
    the remainder must be a tangential-trace-free bubble on every cell.
    Everything is coefficients stacked over cells: the key blocks of a
    1-form are its proxy components, scalar DoFs are rows, traces are
    restriction matrices, one per local face slot.
    """
    rng = np.random.default_rng(0)
    target = assemble_space(mesh, 2, p, 1)
    scalar = assemble_space(mesh, 1, p, 0)
    ncells, faces = len(mesh.cells), list(combinations(range(4), 3))
    normals = mesh.frames(2).normals[:, 0]
    worst = 0.0
    for trial in range(2):
        x = rng.normal(size=target.dim)
        # 25 sample points per cell and face, drawn in that order
        lam = rng.dirichlet([2.0] * 3, size=(ncells, len(faces), 25))
        u = (target.fields @ x[target.cell_global][..., None])[..., 0]
        # scalar DoFs of the three components; face DoFs see the tangential part
        y = scalar.gather(scalar.rows @ u.reshape(ncells, 3, -1).swapaxes(1, 2))
        for g in dof_plan(scalar.el, 2):
            gi = scalar.dofs(2, np.arange(mesh.count(2)), g.label)
            y[gi] -= (y[gi] @ normals[:, :, None]) * normals[:, None, :]
        rest = u - (scalar.fields @ y[scalar.cell_global]).swapaxes(1, 2).reshape(ncells, -1)
        for j, fverts in enumerate(faces):
            tangents = mesh.frames(2).tangents[mesh.cell_entities[2][:, j]]
            trace = trace_matrix(3, fverts, 1, p, tangents) @ rest[..., None]
            mono = np.prod(lam[:, j, :, None, :] ** exponent_array(3, p), axis=-1)
            values = mono @ trace.reshape(ncells, 2, -1).swapaxes(1, 2)
            worst = max(worst, np.abs(values).max())
    return worst


def dof_savings(p, mesh):
    """Comparison of the classical and nodal H(curl) dimensions on a mesh."""
    if mesh.dim != 3:
        raise ValueError("DoF savings are a 3D comparison")
    V, E, F, T = mesh.counts
    classical = assemble_space(mesh, 0, p, 1).dim
    nodal = assemble_space(mesh, 2, p, 1).dim if p >= 4 else None
    closed_classical = dim_formula(0, p, 1, 3, mesh.counts)
    closed_nodal = dim_formula(2, p, 1, 3, mesh.counts)
    per_t_classical = p ** 3 / 2 + 7 * p ** 2 + 13 * p / 2
    per_t_nodal = p ** 3 / 2 + p ** 2 - 3 * p - 11 / 2
    return {
        "counts": {"V": V, "E": E, "F": F, "T": T},
        "edge_vertex_ratio": E / V,
        "dim_classical": classical,
        "dim_nodal": nodal,
        "closed_classical": closed_classical,
        "closed_nodal": closed_nodal,
        "difference": (classical - nodal) if nodal is not None else None,
        "per_tet_estimate_classical": per_t_classical,
        "per_tet_estimate_nodal": per_t_nodal,
        "per_tet_estimate_difference": 6 * p ** 2 + 19 * p / 2 + 11 / 2,
    }
