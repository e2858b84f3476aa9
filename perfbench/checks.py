"""Correctness checks made apart from the program.

The closed-form dimensions are transcribed here from the paper's counting
tables as DoF counts per vertex, edge, face and tetrahedron, and evaluated
on vertex/edge/face/tet counts that this module takes from the cell lists
itself.  Nothing here imports ``derham``.  Each check returns a list of
failure messages; an empty list means the verdict is confirmed.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import combinations
from math import comb

DD_TOL = 1e-10
BGG_TOL = 1e-10


def _c(a, b):
    return comb(a, b) if a >= 0 else 0


def entity_dofs(r, p, k, n):
    """DoFs attached to each vertex, edge, face (and tet) of the nodal
    family r, form degree k, polynomial degree p, in dimension n = 2, 3."""
    if n == 2:
        return {
            (0, 0): (1, p - 1, _c(p - 1, 2)),
            (0, 1): (0, p + 1, (p - 1) * (p + 1)),
            (0, 2): (0, 0, _c(p + 2, 2)),
            (1, 0): (3, p - 3, _c(p - 1, 2)),
            (1, 1): (2, p - 1, (p - 1) * (p + 1)),
            (1, 2): (0, 0, _c(p + 2, 2)),
            (2, 0): (6, 2 * p - 9, _c(p - 4, 2)),
            (2, 1): (6, 2 * (p - 3), (p - 1) * (p - 2)),
            (2, 2): (1, 0, _c(p + 2, 2) - 3),
        }[(r, k)]
    return {
        (0, 0): (1, p - 1, _c(p - 1, 2), _c(p - 1, 3)),
        (0, 1): (0, p + 1, (p - 1) * (p + 1), (p - 2) * (p - 1) * (p + 1) // 2),
        (0, 2): (0, 0, _c(p + 2, 2), (p - 1) * (p + 1) * (p + 2) // 2),
        (0, 3): (0, 0, 0, _c(p + 3, 3)),
        (1, 0): (4, p - 3, _c(p - 1, 2), _c(p - 1, 3)),
        (1, 1): (3, p - 1, (p - 1) * (p + 1), (p - 2) * (p - 1) * (p + 1) // 2),
        (1, 2): (0, 0, _c(p + 2, 2), (p - 1) * (p + 1) * (p + 2) // 2),
        (1, 3): (0, 0, 0, _c(p + 3, 3)),
        (2, 0): (10, 3 * p - 13, _c(p - 4, 2), _c(p - 1, 3)),
        (2, 1): (12, 3 * (p - 3), (p - 1) * (p - 2), (p ** 3 - 2 * p ** 2 - p + 2) // 2),
        (2, 2): (3, 0, (p ** 2 + 3 * p - 4) // 2, (p - 1) * (p + 1) * (p + 2) // 2),
        (2, 3): (0, 0, 0, _c(p + 3, 3)),
        ("hz", 2): (3, 2 * (p - 1), _c(p - 1, 2), (p - 1) * (p + 1) * (p + 2) // 2),
    }[(r, k)]


# smallest degree of each 2D family (r, k)
P_MIN_2D = {(0, 0): 1, (0, 1): 1, (0, 2): 0, (1, 0): 3, (1, 1): 1, (1, 2): 0,
            (2, 0): 5, (2, 1): 3, (2, 2): 1}


def global_dim(r, p, k, n, counts):
    return sum(c * e for c, e in zip(counts, entity_dofs(r, p, k, n)))


def local_dim(n, p, k):
    """Dimension of the full polynomial k-forms of degree p on an n-simplex."""
    return comb(n, k) * comb(p + n, n)


def family_slots(n, r, p):
    """(r, degree, k) of the slots of the row r at window p."""
    base = {2: {0: p, 1: p + 2, 2: p + 3}, 3: {0: p, 1: p + 3, 2: p + 3}}[n][r]
    return [(r, base - k, k) for k in range(n + 1)]


def skeleton(cells):
    """Sets of ascending vertex tuples of each dimension 0..n."""
    n = len(cells[0]) - 1
    return [{s for c in cells for s in combinations(sorted(c), d + 1)}
            for d in range(n + 1)]


def counts(cells):
    return tuple(len(s) for s in skeleton(cells))


def euler(cnts):
    return sum((-1) ** d * c for d, c in enumerate(cnts))


def boundary(mesh):
    """Boundary vertices, boundary edges and corner vertices of a 2D mesh."""
    cells, verts = mesh["cells"], mesh["vertices"]
    use = {}
    for c in cells:
        for e in combinations(sorted(c), 2):
            use[e] = use.get(e, 0) + 1
    edges = sorted(e for e, u in use.items() if u == 1)
    bverts = sorted({v for e in edges for v in e})
    corners = []
    for v in bverts:
        dirs = [[verts[b][0] - verts[a][0], verts[b][1] - verts[a][1]]
                for a, b in edges if v in (a, b)]
        (x0, y0), (x1, y1) = dirs
        if x0 * y1 - y0 * x1 != 0.0:
            corners.append(v)
    return bverts, edges, corners


def fan_grid_counts(m):
    """(V, E, F, T) of the m x m x m cube grid with every cube fanned from its
    centre over its four-way split faces (``derham compare --grid m,m,m``)."""
    V = (m + 1) ** 3 + m ** 3 + 3 * m * m * (m + 1)
    T = 24 * m ** 3
    F = (4 * T + 24 * m * m) // 2        # boundary triangles counted once
    E = V + F - T - 1                    # the box is contractible
    return V, E, F, T


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def check_exactness(mesh, r, p, rep, where):
    """An exactness report of row r at window p on ``mesh`` (vertex/cell
    lists of a contractible mesh) against closed forms and rank algebra."""
    bad = []
    cnts = counts(mesh["cells"])
    n = len(cnts) - 1
    want = [global_dim(rr, pp, k, n, cnts) for rr, pp, k in family_slots(n, r, p)]
    dims, ranks, nulls = rep["dims"], rep["ranks"], rep["nullities"]
    if dims != want:
        bad.append(f"{where}: dims {dims} != closed form {want}")
    if sum((-1) ** i * d for i, d in enumerate(dims)) != euler(cnts):
        bad.append(f"{where}: alternating sum of dims != Euler characteristic {euler(cnts)}")
    if [r_ + n_ for r_, n_ in zip(ranks, nulls)] != dims[:-1]:
        bad.append(f"{where}: rank + nullity != dim")
    betti = [nulls[0]] + [nulls[i] - ranks[i - 1] for i in range(1, len(ranks))] \
        + [dims[-1] - ranks[-1]]
    if betti != [1] + [0] * n:
        bad.append(f"{where}: Betti numbers {betti} on a contractible mesh")
    if "betti" in rep and rep["betti"] != betti:
        bad.append(f"{where}: reported Betti numbers {rep['betti']} != {betti}")
    if not max(rep["dd_residuals"]) < DD_TOL:
        bad.append(f"{where}: dd residual {max(rep['dd_residuals'])} >= {DD_TOL}")
    if "passed" in rep and rep["passed"] is not True:
        bad.append(f"{where}: report does not pass")
    if "pass" in rep and rep["pass"] is not True:
        bad.append(f"{where}: report does not pass")
    return bad


def check_element(out, r, k, n, p):
    bad = []
    lines = out.decode().splitlines()
    want = local_dim(n, p, k)
    if f"local dimension {want}" not in lines:
        bad.append(f"element r={r} k={k} n={n} p={p}: local dimension is not {want}")
    if not any(line.startswith("unisolvent: True ") for line in lines):
        bad.append(f"element r={r} k={k} n={n} p={p}: not unisolvent")
    if sum(line.startswith("dof ") for line in lines) != want:
        bad.append(f"element r={r} k={k} n={n} p={p}: DoF lines != {want}")
    return bad


def check_export(out, k, n, p):
    heads = [line for line in out.decode().splitlines() if line.startswith("# form")]
    if len(heads) != local_dim(n, p, k) or \
            any(h != f"# form n={n} k={k} p={p}" for h in heads):
        return [f"export k={k} n={n} p={p}: expected {local_dim(n, p, k)} dual forms"]
    return []


def check_tables(out, mesh, p_lo, p_hi):
    bad = []
    cnts = counts(mesh["cells"])
    rows = list(csv.DictReader(io.StringIO(out.decode())))
    seen = set()
    for row in rows:
        r, k, p = int(row["r"]), int(row["k"]), int(row["p"])
        seen.add((r, k, p))
        if int(row["global_dim"]) != global_dim(r, p, k, 2, cnts):
            bad.append(f"tables: global dim of r={r} k={k} p={p}")
        if int(row["local_dim"]) != local_dim(2, p, k):
            bad.append(f"tables: local dim of r={r} k={k} p={p}")
    want = {(r, k, p) for (r, k), lo in P_MIN_2D.items()
            for p in range(max(lo, p_lo), p_hi + 1)}
    if seen != want:
        bad.append(f"tables: rows {sorted(seen ^ want)} missing or unexpected")
    return bad


def check_bc(out, mesh, p):
    bad = []
    rep = json.loads(out)
    bverts, bedges, corners = boundary(mesh)
    v0, v0s, e0 = len(bverts), len(bverts) - len(corners), len(bedges)
    if (rep["V0"], rep["V0s"], rep["E0"]) != (v0, v0s, e0) or \
            rep["corner_vertices"] != corners:
        bad.append(f"bc: boundary classification {rep['V0'], rep['V0s'], rep['E0']} "
                   f"!= {v0, v0s, e0}")
    cnts = counts(mesh["cells"])
    (_, q0, _), (_, q1, _), (_, q2, _) = family_slots(2, 1, p)
    want = [global_dim(1, q0, 0, 2, cnts) - (q0 - 3) * e0 - 3 * v0 + v0s,
            global_dim(1, q1, 1, 2, cnts) - (q1 - 1) * e0 - 2 * v0 + v0s,
            global_dim(1, q2, 2, 2, cnts) - 1]
    if rep["reduced_dims"] != want:
        bad.append(f"bc: reduced dims {rep['reduced_dims']} != {want}")
    if rep["alternating_sum"] != 0 or rep["exact"] is not True:
        bad.append("bc: homogeneous row is not exact")
    return bad


def check_bgg(out):
    rep = json.loads(out)
    bad = []
    if not rep["identity_residual"] < BGG_TOL:
        bad.append(f"bgg: identity residual {rep['identity_residual']}")
    if rep["xi"]["exact"] is not True:
        bad.append("bgg: product complex not exact")
    if rep["stress"]["unisolvent"] is not True or \
            rep["stress"]["interior_identity"] is not True:
        bad.append("bgg: stress element not unisolvent")
    return bad


def check_compare(out, m, p):
    rows = dict(line.split(",", 1) for line in out.decode().splitlines()[1:])
    V, E, F, T = fan_grid_counts(m)
    bad = []
    if [int(rows[f"count_{x}"]) for x in "VEFT"] != [V, E, F, T]:
        bad.append("compare: mesh counts")
    if int(rows["dim_classical"]) != global_dim(0, p, 1, 3, (V, E, F, T)):
        bad.append("compare: classical dimension != closed form")
    if int(rows["dim_nodal"]) != global_dim(2, p, 1, 3, (V, E, F, T)):
        bad.append("compare: nodal dimension != closed form")
    return bad
