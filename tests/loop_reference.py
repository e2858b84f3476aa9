"""Loop definitions of the exponent tables and of the DoF rows.

The program builds its exponent order, the tables read off it and each
distinct map of ``block_rows`` by index arithmetic and shared work.  These
are the same numbers one exponent tuple, one dictionary lookup and one plan
group at a time, as the definitions read; tests compare the two.
"""

import math
from itertools import combinations

import numpy as np

from derham.elements import _moments, dof_plan
from derham.forms import (derivative_matrix, dim_full, dim_trimmed, eval_row, multinomials,
                          proxy_matrix, trace_matrix)


def monomials(nvars, degree):
    """All exponent tuples of the given total degree, the first entry
    descending, then the rest in this order."""
    if degree < 0:
        return []
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        out.extend((first,) + rest for rest in monomials(nvars - 1, degree - first))
    return out


def exponent_index(nvars, degree):
    return {a: i for i, a in enumerate(monomials(nvars, degree))}


def elevation(nvars, p, q):
    out = np.zeros((math.comb(q + nvars - 1, nvars - 1), math.comb(p + nvars - 1, nvars - 1)))
    index = exponent_index(nvars, q)
    lifts = np.array(monomials(nvars, q - p), dtype=int).reshape(-1, nvars)
    for col, a in enumerate(monomials(nvars, p)):
        rows = [index[tuple(x)] for x in np.array(a) + lifts]
        out[rows, col] = multinomials(nvars, q - p)
    return out


def lowering(nvars, p):
    lower = exponent_index(nvars, p - 1)
    entries = [(lower[a[:j] + (a[j] - 1,) + a[j + 1:]], col, j, a[j])
               for col, a in enumerate(monomials(nvars, p)) for j in range(nvars) if a[j]]
    return np.array(entries, dtype=int).reshape(-1, 4).T


def trace_columns(nvars, vertex_map, p):
    """Parent index of each child exponent of degree p, lifted through one map."""
    index = exponent_index(nvars, p)
    out = []
    for a in monomials(len(vertex_map), p):
        lifted = [0] * nvars
        for i, v in enumerate(vertex_map):
            lifted[v] = a[i]
        out.append(index[tuple(lifted)])
    return np.array(out, dtype=int)


def whitney_pattern(m, p, k):
    vsets = {J: i for i, J in enumerate(combinations(range(m + 1), k))}
    axes = list(combinations(range(m), k))
    index = exponent_index(m + 1, p)
    nh = math.comb(p + m, m)
    cols = [(tau, b) for tau in combinations(range(1, m + 1), k + 1)
            for b in monomials(m + 1, p - 1) if not any(b[:tau[0]])]
    entries = [(kp * nh + index[b[:v] + (b[v] + 1,) + b[v + 1:]], col,
                vsets[tau[:i] + tau[i + 1:]] * len(axes) + kp, -1 if i % 2 else 1)
               for col, (tau, b) in enumerate(cols)
               for i, v in enumerate(tau)
               for kp in range(len(axes))]
    assert len(cols) == dim_trimmed(m, p, k) - dim_full(m, p - 1, k)
    return np.array(entries, dtype=int).reshape(-1, 4).T, len(cols)


def tangential_bubble_span(grads, p):
    lifts, index = np.array(monomials(4, p - 3), dtype=int).reshape(-1, 4), exponent_index(4, p)
    out = np.zeros((3, len(index), 4, len(lifts)))
    for i, g in enumerate(grads):
        rows = [index[tuple(a)] for a in lifts + 1 - np.eye(4, dtype=int)[i]]
        out[:, rows, i, range(len(lifts))] = (g / np.linalg.norm(g))[:, None]
    return out.reshape(3 * len(index), -1)


def block_rows(el, mesh, cells, p):
    """``elements.block_rows`` group by group: every group builds its own
    point rows or moments and its own proxy, derivative and trace maps."""
    cells = np.asarray(cells, dtype=int)
    n, out = el.n, []
    inverse = mesh.bary_inverse[cells][:, None]
    grads = inverse[..., 1:, :].swapaxes(-1, -2)
    for d in range(n + 1):
        ents = mesh.cell_entities[d][cells] if d < n else cells[:, None]

        def vector(w):
            return np.eye(n)[w] if isinstance(w, int) else mesh.frames(d).normals[ents, w[1]]

        blocks = []
        for g in dof_plan(el, d):
            k, q, maps = el.k, p, []
            if g.weight is not None:
                maps.append(proxy_matrix(n, k, vector(g.weight), q))
                k = 0
            for direction in g.directions:
                maps.append(derivative_matrix(grads, vector(direction), k, q))
                q -= 1
            if g.kind == "point":
                rows = eval_row(inverse, mesh.vertices[mesh.cells[cells]], q)[..., None, :]
            else:
                rows = _moments(mesh, d, g, ents, k, q)
                if d < n:
                    maps.append(trace_matrix(n, list(combinations(range(n + 1), d + 1)), k, q,
                                             mesh.frames(d).tangents[ents] if k else None))
            for step in reversed(maps):
                rows = (rows[..., None, :] @ step[..., None, :, :])[..., 0, :]
            blocks.append(np.broadcast_to(rows, ents.shape + rows.shape[-2:]))
        if blocks:
            out.append(np.concatenate(blocks, axis=2).reshape(len(cells), -1, rows.shape[-1]))
    return np.concatenate(out, axis=1)
