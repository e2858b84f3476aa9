"""Command-line front end.

Exit codes: 0 = success / all checks pass, 1 = a verification failed,
2 = usage or input errors.  Outputs are byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from . import assembly, bgg, elements, mesh as meshmod
from .assembly import (dim_formula, dof_savings, homogeneous_row_report,
                       mixed_sequence, row_p_min, verify_exactness)
from .elements import dual_basis, dual_export_lines, element_def, unisolvence_check
from .mesh import SimplicialMesh, cube_center_fan_grid


def _load_mesh(path):
    try:
        return SimplicialMesh.load(path)
    except FileNotFoundError:
        raise SystemExit(f"error: mesh file not found: {path}")
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot parse mesh file {path}: {exc}")


def _tol(args):
    """bgg's identity tolerance: --tol, else DERHAM_TOL, else 1e-10."""
    name, value = (("--tol", args.tol) if args.tol is not None
                   else ("DERHAM_TOL", os.environ.get("DERHAM_TOL") or "1e-10"))
    try:
        tol = float(value)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise SystemExit(f"error: {name} must be a finite number > 0 (got {value!r})")
    return tol


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _p_values(args):
    if args.p_range:
        try:
            lo, hi = (int(x) for x in args.p_range.split(":"))
        except ValueError:
            raise SystemExit(f"error: --p-range expects LO:HI integers (got {args.p_range!r})")
        if lo > hi:
            raise SystemExit(f"error: --p-range needs LO <= HI (got {args.p_range!r})")
    elif args.p is None:
        raise SystemExit("error: provide --p or --p-range")
    else:
        lo = hi = args.p
    if lo < 0:
        raise SystemExit(f"error: tables needs degrees >= 0 (got {lo})")
    return list(range(lo, hi + 1))


# A dense local DoF matrix (local dimension squared, float64) larger than
# this is refused before anything is built; the work arrays around it take a
# few times as much.  It is the size of prove_ranks' dense-count limit.
MAX_LOCAL_MATRIX_BYTES = assembly.MAX_DENSE_BYTES


def _check_local_size(slots, n):
    """Exit 2 if an element of the (r, p, k) slots has a dense local DoF
    matrix over MAX_LOCAL_MATRIX_BYTES.  Slots that are no family are left to
    the command's own checks."""
    for r, p, k in slots:
        try:
            el = element_def(r, p, k, n)
        except ValueError:
            continue
        size = 8 * el.local_dim ** 2
        if size > MAX_LOCAL_MATRIX_BYTES:
            raise SystemExit(
                f"error: family r={r}, k={k}, n={n} at p={p} has local dimension "
                f"{el.local_dim}; its dense DoF matrix would take {size / 2 ** 20:.0f} MiB, "
                f"over the {MAX_LOCAL_MATRIX_BYTES // 2 ** 20} MiB limit")


REFERENCE = {
    1: [[0.0], [1.0]],
    2: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    3: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}


def cmd_tables(args):
    m = _load_mesh(args.mesh)
    n = m.dim
    if args.dim is not None and args.dim != n:
        raise SystemExit(f"error: --dim {args.dim} does not match the mesh ({n}D)")
    rows = []
    families = [0, 1, 2]
    for p in _p_values(args):
        for r in families + (["hz"] if n == 3 else []):
            ks = range(n + 1) if r in (0, 1, 2) else [2]
            for k in ks:
                try:
                    el = element_def(r, p, k, n)
                except ValueError:
                    continue
                rows.append({
                    "r": str(r), "k": k, "p": p, "label": el.label,
                    "local_dim": el.local_dim,
                    "global_dim": dim_formula(r, p, k, n, m.counts),
                })
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = ["r,k,p,label,local_dim,global_dim"]
        lines += [f"{x['r']},{x['k']},{x['p']},{x['label']},{x['local_dim']},{x['global_dim']}"
                  for x in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_verify(args):
    m = _load_mesh(args.mesh)
    betti = None
    if args.betti:
        try:
            betti = [int(x) for x in args.betti.split(",")]
        except ValueError:
            raise SystemExit(
                f"error: --betti expects comma-separated integers (got {args.betti!r})")
    if args.row not in ("0", "1", "2", "mixed"):
        raise SystemExit(f"error: --row must be 0, 1, 2 or mixed (got {args.row!r})")
    if args.row != "mixed" and args.p < row_p_min(m.dim, int(args.row)):
        raise SystemExit(f"error: verify --row {args.row} needs --p >= "
                         f"{row_p_min(m.dim, int(args.row))} on a {m.dim}D mesh "
                         f"(got --p {args.p})")
    if args.row != "mixed" or m.dim == 3:
        row = args.row if args.row == "mixed" else int(args.row)
        _check_local_size(assembly.family_row(m.dim, row, args.p), m.dim)
    try:
        if args.row == "mixed":
            rep = mixed_sequence(m, args.p)
        else:
            rep = verify_exactness(m, int(args.row), args.p, expected_betti=betti)
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}")
    text = rep.to_json() + "\n"
    _emit(text, args.out)
    if not rep.passed:
        # harmonic dimensions mean something only for a complex, and only a
        # mesh whose Euler characteristic differs from the expected
        # alternating Betti sum can have other ones
        alternating = sum((-1) ** i * b for i, b in enumerate(rep.expected_betti))
        if betti is None and rep.betti != rep.expected_betti \
                and all(r < assembly.DD_TOL for r in rep.dd_residuals):
            hint = ("; if the mesh is not contractible pass --betti"
                    if m.euler_characteristic() != alternating else "")
            sys.stderr.write(
                f"verification failed: computed harmonic dimensions {rep.betti}{hint}\n")
        else:
            sys.stderr.write("verification failed\n")
        return 1
    return 0


def cmd_element(args):
    try:
        el = element_def(args.r_parsed, args.p, args.k, args.dim)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    _check_local_size([(el.r, el.p, el.k)], el.n)
    rep = unisolvence_check(el, REFERENCE[args.dim])
    lines = [f"family r={el.r} p={el.p} k={el.k} n={el.n} ({el.label})",
             f"local dimension {el.local_dim}",
             f"unisolvent: {rep['pass']} (sigma ratio {rep['sigma_ratio']:.3e})"]
    dofs = elements.cell_dofs(el, elements.single_cell_mesh(REFERENCE[args.dim]), 0)
    for i, dof in enumerate(dofs):
        cls = "shared" if dof.shared else "per-cell"
        deg = "" if dof.test_degree is None else f" test-deg {dof.test_degree}"
        lines.append(f"dof {i:3d}: dim {dof.entity_dim} simplex {dof.entity_verts} "
                     f"{dof.label}{deg} [{cls}]")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if rep["pass"] else 1


def _positive_p(command, p):
    if p < 1:
        raise SystemExit(f"error: {command} needs --p >= 1 (got --p {p})")


def cmd_bc(args):
    _positive_p("bc", args.p)
    m = _load_mesh(args.mesh)
    if m.dim != 2:
        raise SystemExit("error: boundary-count reports are two-dimensional")
    cls = m.classify_boundary(args.bctol)
    try:
        rep = homogeneous_row_report(m, args.p, cls)
    except RuntimeError as exc:
        raise SystemExit(f"error: {exc}")
    out = {
        "V0": cls.v0, "V0s": cls.v0s, "E0": len(m.boundary_simplices(1)),
        "corner_vertices": sorted(cls.corner_vertices),
        "reduced_dims": rep["dims"],
        "formula_dims": rep["formulas"],
        "alternating_sum": rep["alternating"],
        "exact": rep["exact"],
    }
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0 if rep["dims"] == rep["formulas"] and rep["exact"] else 1


def cmd_bgg(args):
    _positive_p("bgg", args.p)
    tol = _tol(args)
    m = _load_mesh(args.mesh)
    try:
        ctx = bgg.BGGContext(m, args.p)     # refuses a mesh that is not 2D
        resid = ctx.identity_residual()
        xi = ctx.xi_complex()
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}")
    stress_p = max(args.p, 3)
    st = bgg.huzhang_stress(stress_p)
    out = {
        "identity_residual": resid,
        "xi": {key: v for key, v in xi.items() if key != "rank_margins"},
        "stress": {
            "p": st.p, "n_dofs": st.n_dofs,
            "skew_interior": st.skew_interior, "sym_interior": st.sym_interior,
            "interior_identity": st.interior_identity,
            "unisolvent": st.unisolvent,
            "sym_restricted_unisolvent": st.sym_restricted_unisolvent,
        },
    }
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    ok = resid < tol and xi["exact"] and st.unisolvent and st.interior_identity
    return 0 if ok else 1


def cmd_compare(args):
    try:
        nx, ny, nz = (int(x) for x in args.grid.split(","))
    except ValueError:
        raise SystemExit("error: --grid expects three comma-separated sizes")
    _positive_p("compare", args.p)
    try:
        m = cube_center_fan_grid(nx, ny, nz)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    rep = dof_savings(args.p, m)
    ok = rep["dim_classical"] == rep["closed_classical"]
    if rep["dim_nodal"] is not None:
        ok = ok and rep["dim_nodal"] == rep["closed_nodal"]
    if args.format == "json":
        _emit(json.dumps(rep, indent=2) + "\n", args.out)
    else:
        lines = ["quantity,value"]
        for key in ("dim_classical", "closed_classical", "dim_nodal",
                    "closed_nodal", "difference", "edge_vertex_ratio",
                    "per_tet_estimate_classical", "per_tet_estimate_nodal",
                    "per_tet_estimate_difference"):
            lines.append(f"{key},{rep[key]}")
        for key, v in rep["counts"].items():
            lines.append(f"count_{key},{v}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_export(args):
    try:
        el = element_def(args.r_parsed, args.p, args.k, args.dim)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    _check_local_size([(el.r, el.p, el.k)], el.n)
    duals, _, _ = dual_basis(el, REFERENCE[args.dim])
    _emit("\n".join(dual_export_lines(el, duals)) + "\n", args.out)
    return 0


def _parse_r(value):
    if value in ("hz", "minus"):
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid family grade {value!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error as the commands' own: one ``error:`` line, exit 2."""
        sys.stderr.write(f"error: {self.prog}: {message}\n")
        raise SystemExit(2)


def build_parser():
    ap = _Parser(prog="derham", description="nodal de Rham family verification tool")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, mesh=False, fmt=False):
        p.add_argument("--out", default=None)
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if mesh:
            p.add_argument("--mesh", required=True)

    t = sub.add_parser("tables", help="family grid with local/global dimensions")
    common(t, mesh=True, fmt=True)
    t.add_argument("--p", type=int, default=None)
    t.add_argument("--p-range", default=None)
    t.add_argument("--dim", type=int, default=None)

    v = sub.add_parser("verify", help="complex + exactness verification")
    common(v, mesh=True)
    v.add_argument("--row", "--r", dest="row", default="1",
                   help="family grade 0|1|2|mixed")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--betti", default=None,
                   help="expected harmonic dimensions, comma separated")

    e = sub.add_parser("element", help="element catalog and unisolvence")
    common(e)
    e.add_argument("--r", dest="r_parsed", type=_parse_r, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--dim", type=int, required=True)
    e.add_argument("--p", type=int, required=True)

    b = sub.add_parser("bc", help="boundary classification and reduced dims")
    common(b, mesh=True)
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--bctol", type=float, default=meshmod.COLLINEAR_TOL)

    g = sub.add_parser("bgg", help="elasticity construction report")
    common(g, mesh=True)
    g.add_argument("--tol", type=float, default=None)
    g.add_argument("--p", type=int, required=True)

    c = sub.add_parser("compare", help="classical vs nodal dimension savings")
    common(c, fmt=True)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--grid", required=True, help="nx,ny,nz")

    x = sub.add_parser("export", help="dual basis in text form")
    common(x)
    x.add_argument("--r", dest="r_parsed", type=_parse_r, required=True)
    x.add_argument("--k", type=int, required=True)
    x.add_argument("--dim", type=int, required=True)
    x.add_argument("--p", type=int, required=True)

    return ap


COMMANDS = {
    "tables": cmd_tables,
    "verify": cmd_verify,
    "element": cmd_element,
    "bc": cmd_bc,
    "bgg": cmd_bgg,
    "compare": cmd_compare,
    "export": cmd_export,
}


def main(argv=None):
    # Move the import-time heap (numpy and derham: modules, functions, dicts)
    # into the collector's permanent generation.  It lives until exit anyway;
    # frozen, neither a full collection nor interpreter shutdown walks and
    # frees it, which otherwise takes longer than most commands' own work.
    # Cyclic garbage is frozen too and never freed: an in-process caller
    # holding some should run gc.collect() before main().
    gc.freeze()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            sys.stderr.write(exc.code + "\n")
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
