"""Nested-dissection orderings and multifrontal elimination plans.

A plan says, for a symmetric matrix given by its sparsity pattern, which
variables each dense front eliminates, which later variables its Schur
complement reaches, and where every original entry and every child's update
lands in the front.  The ordering is nested dissection by recursive
coordinate bisection (George, SIAM J. Numer. Anal. 1973): the variables are
split at the median of their widest coordinate, and the separator is the
set of endpoints, on the side with fewer of them, of the pattern's edges
that cross the cut, so it is a vertex separator of the matrix's own graph.
Each separator and each leaf is one front, eliminated after its children
(Liu, "The multifrontal method for sparse matrix solution", SIAM Review
1992).  Everything here is integer bookkeeping: nothing depends on the
field of the entries, so a float Cholesky and an exact elimination can
share a plan.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

# At most this many variables form one front without being split; a matrix
# no larger than one leaf is a single front in its own index order.
LEAF = 128


# One dense front: its own index order is ``pivots`` then ``update``, both
# ascending.  The pattern entries at positions ``entries`` land at the flat
# (row-major) positions ``at`` of the front (an entry whose row is an update
# variable also lands mirrored, so the front is symmetric).  ``children`` are
# earlier fronts, and ``slots[i]`` the positions in this front of child i's
# update variables.
Front = namedtuple("Front", "pivots update children slots entries at")


def dense_front(n):
    """The single front of an n-variable matrix given as all its entries in
    row-major order."""
    return Front(np.arange(n), np.zeros(0, dtype=int), [], [], slice(None), slice(None))


def distinct(x):
    """``np.unique(x)`` of a 1-D array by sorting: numpy >= 2.3 imports
    ``numpy.ma`` (about 15 ms) on a process's first plain ``np.unique``."""
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def dissect(n, coords, rows, cols):
    """The nested-dissection tree of the symmetric pattern ``(rows, cols)``
    on n variables at ``coords`` (needed only when n > ``LEAF``):
    (pivots, children) per node, children first.

    A part of at most ``LEAF`` variables is a leaf, and so is a part whose
    pattern fills more than an eighth of its square or whose separator
    would hold half of it or more: dissection would only add fronts.  An
    empty separator (the two halves do not touch) adds no node: the halves'
    nodes join the parent.
    """
    upper = rows < cols
    side = np.zeros(n, dtype=np.int8)
    nodes = []

    def split(part, ei, ej):
        """The roots of the subtree over ``part`` (ascending), given the
        pattern's edges inside it."""
        sep = None
        if len(part) > LEAF and 16 * len(ei) <= len(part) ** 2:
            x = coords[part]
            order = np.argsort(x[:, np.argmax(x.max(axis=0) - x.min(axis=0))], kind="stable")
            side[part[order[:len(part) // 2]]] = 0
            side[part[order[len(part) // 2:]]] = 1
            cross = side[ei] != side[ej]
            ends = np.concatenate([ei[cross], ej[cross]])
            lo, hi = (distinct(ends[side[ends] == s]) for s in (0, 1))
            sep = lo if len(lo) <= len(hi) else hi
            if 2 * len(sep) >= len(part):
                sep = None
        if sep is None:
            nodes.append((part, []))
            return [len(nodes) - 1]
        side[sep] = 2
        halves = [(part[side[part] == s], (side[ei] == s) & (side[ej] == s)) for s in (0, 1)]
        kids = [k for half, inner in halves if len(half)
                for k in split(half, ei[inner], ej[inner])]
        if not len(sep):
            return kids
        nodes.append((sep, kids))
        return [len(nodes) - 1]

    split(np.arange(n), rows[upper], cols[upper])
    return nodes


def plan(n, coords, rows, cols):
    """The fronts of a multifrontal elimination of the symmetric pattern
    ``(rows, cols)`` on n variables (both triangles, diagonal included),
    children first.

    A front's update variables are the later variables that its pivots
    touch in the pattern or that its children pass on: by the separator
    property every one of them belongs to an ancestor.  Entry (i, j) is
    assembled in the front of j when i is a pivot there or comes later.
    """
    nodes = dissect(n, coords, rows, cols)
    if len(nodes) == 1:     # one front in index order: every entry lands where it is
        return [Front(nodes[0][0], np.zeros(0, dtype=int), [], [], slice(None), rows * n + cols)]
    owner = np.empty(n, dtype=int)
    for k, (pivots, _) in enumerate(nodes):
        owner[pivots] = k
    fi, fj = owner[rows], owner[cols]
    here = np.flatnonzero(fi >= fj)
    here = here[np.argsort(fj[here], kind="stable")]
    bounds = np.searchsorted(fj[here], np.arange(len(nodes) + 1))
    where = np.empty(n, dtype=int)
    fronts = []
    for k, (pivots, kids) in enumerate(nodes):
        mine = here[bounds[k]:bounds[k + 1]]
        later = fi[mine] > k
        passed = [fronts[c].update for c in kids]
        update = distinct(np.concatenate([rows[mine[later]]] + [u[owner[u] != k] for u in passed]))
        where[pivots] = np.arange(len(pivots))
        where[update] = len(pivots) + np.arange(len(update))
        r, c = where[rows[mine]], where[cols[mine]]
        size = len(pivots) + len(update)
        fronts.append(Front(pivots, update, list(kids), [where[u] for u in passed],
                            np.concatenate([mine, mine[later]]),
                            np.concatenate([r * size + c, c[later] * size + r[later]])))
    return fronts
