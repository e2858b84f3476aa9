"""Command-line front end.

Exit codes: 0 = success / all checks pass, 1 = a verification failed,
2 = usage or input errors.  Outputs are byte-deterministic for fixed inputs,
numpy build and BLAS thread count: the residual and margin digits of
``verify`` move with the thread count (its verdicts do not).
"""

from __future__ import annotations

import gc
import json
import math
import re
import sys
from types import SimpleNamespace

from . import assembly, bgg, elements, mesh as meshmod
from .assembly import (dim_formula, dof_savings, homogeneous_row_report, row_p_min,
                       verify_exactness)
from .elements import dual_basis, dual_export_lines, element_def, unisolvence_check
from .mesh import SimplicialMesh, cube_center_fan_grid


def _load_mesh(path):
    try:
        return SimplicialMesh.load(path)
    except FileNotFoundError:
        raise SystemExit(f"error: mesh file not found: {path}")
    except OSError as exc:
        raise SystemExit(f"error: cannot read mesh file {path}: {exc.strerror}")
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot parse mesh file {path}: {exc}")


def _tol(args):
    """bgg's identity tolerance: --tol, else 1e-10."""
    tol = 1e-10 if args.tol is None else args.tol
    if not 0 < tol < math.inf:
        raise SystemExit(f"error: --tol must be a finite number > 0 (got {tol!r})")
    return tol


def _emit(text, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(f"error: cannot write {out}: {exc.strerror}")
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


def _check_local_size(slots, n, systems=()):
    """Exit 2 if an element of the (r, p, k) slots, or one of the square DoF
    systems given as (description, order), has a dense local DoF matrix over
    MAX_LOCAL_MATRIX_BYTES.  Slots that are no family are left to the
    command's own checks."""
    families = []
    for r, p, k in slots:
        try:
            el = element_def(r, p, k, n)
        except ValueError:
            continue
        families.append((f"family r={r}, k={k}, n={n} at p={p} has local dimension "
                         f"{el.local_dim}", el.local_dim))
    for what, order in families + list(systems):
        if 8 * order ** 2 > MAX_LOCAL_MATRIX_BYTES:
            raise SystemExit(
                f"error: {what}; its dense DoF matrix would take {8 * order ** 2 / 2 ** 20:.0f} "
                f"MiB, over the {MAX_LOCAL_MATRIX_BYTES // 2 ** 20} MiB limit")


REFERENCE = {n: [[0.0] * n] + [[float(i == j) for j in range(n)] for i in range(n)]
             for n in (1, 2, 3)}


def cmd_tables(args):
    m = _load_mesh(args.mesh)
    n = m.dim
    if args.dim is not None and args.dim != n:
        raise SystemExit(f"error: --dim {args.dim} does not match the mesh ({n}D)")
    rows = []
    for p in _p_values(args):
        for r in [0, 1, 2] + (["hz"] if n == 3 else []):
            for k in range(n + 1) if r != "hz" else [2]:
                try:
                    el = element_def(r, p, k, n)
                except ValueError:
                    continue
                rows.append({"r": str(r), "k": k, "p": p, "label": el.label,
                             "local_dim": el.local_dim,
                             "global_dim": dim_formula(r, p, k, n, m.counts)})
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
    row = args.row if args.row == "mixed" else int(args.row)
    if row == "mixed" and m.dim != 3:
        raise SystemExit(f"error: verify --row mixed needs a 3D mesh (got a {m.dim}D mesh)")
    if args.p < row_p_min(m.dim, row):
        raise SystemExit(f"error: verify --row {row} needs --p >= {row_p_min(m.dim, row)} "
                         f"on a {m.dim}D mesh (got --p {args.p})")
    slots = assembly.family_row(m.dim, row, args.p)
    if betti is not None and (len(betti) != len(slots) or min(betti) < 0):
        raise SystemExit(f"error: --betti expects {len(slots)} integers >= 0 for row {row} "
                         f"on a {m.dim}D mesh (got {args.betti!r})")
    _check_local_size(slots, m.dim)
    try:
        rep = verify_exactness(m, row, args.p, expected_betti=betti)
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}")
    _emit(rep.to_json() + "\n", args.out)
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


def _family(args):
    """The element of element's and export's options, refused (exit 2) if it
    is no family or its dense local DoF matrix is too large."""
    try:
        el = element_def(args.r_parsed, args.p, args.k, args.dim)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    _check_local_size([(el.r, el.p, el.k)], el.n)
    return el


def cmd_element(args):
    el = _family(args)
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
    if not 0 <= args.bctol < math.inf:
        raise SystemExit(f"error: --bctol must be a finite number >= 0 (got {args.bctol!r})")
    m = _load_mesh(args.mesh)
    if m.dim != 2:
        raise SystemExit("error: boundary-count reports are two-dimensional")
    _check_local_size(assembly.family_row(2, 1, args.p), 2)
    cls = m.classify_boundary(args.bctol)
    try:
        rep = homogeneous_row_report(m, args.p, cls)
    except RuntimeError as exc:
        raise SystemExit(f"error: {exc}")
    out = {"V0": cls.v0, "V0s": cls.v0s, "E0": len(m.boundary_simplices(1)),
           "corner_vertices": sorted(cls.corner_vertices), "reduced_dims": rep["dims"],
           "formula_dims": rep["formulas"], "alternating_sum": rep["alternating"],
           "exact": rep["exact"]}
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0 if rep["dims"] == rep["formulas"] and rep["exact"] else 1


def cmd_bgg(args):
    _positive_p("bgg", args.p)
    tol = _tol(args)
    m = _load_mesh(args.mesh)
    p, q = args.p, max(args.p, 3)
    stress = 4 * math.comb(q + 2, 2)     # the order of the stress element's DoF system
    _check_local_size([(1, p + 2, 0), (1, p + 1, 1), (1, p, 2), (2, p + 1, 2), (2, p + 3, 0)], 2,
                      [(f"the stress element at p={q} has {stress} DoFs", stress)])
    try:
        ctx = bgg.BGGContext(m, args.p)     # refuses a mesh that is not 2D
        resid = ctx.identity_residual()
        xi = ctx.xi_complex()
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}")
    st = bgg.huzhang_stress(q)
    out = {"identity_residual": resid,
           "xi": {key: v for key, v in xi.items() if key != "rank_margins"},
           "stress": {"p": st.p, "n_dofs": st.n_dofs, "skew_interior": st.skew_interior,
                      "sym_interior": st.sym_interior, "interior_identity": st.interior_identity,
                      "unisolvent": st.unisolvent,
                      "sym_restricted_unisolvent": st.sym_restricted_unisolvent}}
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
        keys = ("dim_classical", "closed_classical", "dim_nodal", "closed_nodal", "difference",
                "edge_vertex_ratio", "per_tet_estimate_classical", "per_tet_estimate_nodal",
                "per_tet_estimate_difference")
        lines = ["quantity,value"] + [f"{key},{rep[key]}" for key in keys]
        lines += [f"count_{key},{v}" for key, v in rep["counts"].items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_export(args):
    el = _family(args)
    duals, _, _ = dual_basis(el, REFERENCE[args.dim])
    _emit("\n".join(dual_export_lines(el, duals)) + "\n", args.out)
    return 0


def _parse_r(value):
    try:
        return value if value in ("hz", "minus") else int(value)
    except ValueError:
        raise ValueError(f"invalid family grade {value!r}") from None


# command -> (function, help line, options); an option is (flag, dest, type,
# default, help): "/" in the flag adds an alias, a tuple type lists the
# choices, and the default REQUIRED makes the option required
REQUIRED = object()
_OUT = ("--out", "out", str, None, "write the output to this file, not stdout")
_FORMAT = ("--format", "format", ("csv", "json"), "csv", "output format")
_MESH = ("--mesh", "mesh", str, REQUIRED, "mesh file (JSON)")
_P = ("--p", "p", int, REQUIRED, "polynomial degree")
_FAMILY = [_OUT, ("--r", "r_parsed", _parse_r, REQUIRED, "family grade: an integer, hz or minus"),
           ("--k", "k", int, REQUIRED, "form degree"),
           ("--dim", "dim", int, REQUIRED, "space dimension"), _P]
COMMANDS = {
    "tables": (cmd_tables, "family grid with local/global dimensions", [
        _OUT, _FORMAT, _MESH, ("--p", "p", int, None, "one degree"),
        ("--p-range", "p_range", str, None, "degrees LO:HI"),
        ("--dim", "dim", int, None, "the mesh dimension, checked")]),
    "verify": (cmd_verify, "complex + exactness verification", [
        _OUT, _MESH, ("--row/--r", "row", str, "1", "family grade 0|1|2|mixed (default 1)"),
        _P, ("--betti", "betti", str, None, "expected harmonic dimensions, comma separated")]),
    "element": (cmd_element, "element catalog and unisolvence", _FAMILY),
    "bc": (cmd_bc, "boundary classification and reduced dims", [
        _OUT, _MESH, _P, ("--bctol", "bctol", float, meshmod.COLLINEAR_TOL, "corner tolerance")]),
    "bgg": (cmd_bgg, "elasticity construction report", [
        _OUT, _MESH, ("--tol", "tol", float, None, "identity tolerance (default 1e-10)"), _P]),
    "compare": (cmd_compare, "classical vs nodal dimension savings", [
        _OUT, _FORMAT, _P, ("--grid", "grid", str, REQUIRED, "nx,ny,nz")]),
    "export": (cmd_export, "dual basis in text form", _FAMILY),
}
_HELP = {"-h": None, "--help": None}


def _usage_error(prog, message):
    """A usage error as the commands' own: one ``error:`` line, exit 2."""
    sys.stderr.write(f"error: {prog}: {message}\n")
    raise SystemExit(2)


def _read_token(prog, flags, token):
    """How argparse reads a token against ``flags`` (flag -> option, None for
    help): None for a value, else (flag, the value given after "="), flag None
    for an unknown option.  An exact flag wins over a prefix, a prefix must be
    unique, and a token that starts with "-" is a value if it is a negative number."""
    if not token.startswith("-") or token == "-":
        return None
    if token in flags:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in flags:
        return head, value
    found = [flag for flag in flags if token[1] == "-" and flag.startswith(head)]
    if len(found) > 1:
        _usage_error(prog, f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else (None, None)


def _help(name=None):
    """-h: the commands, or the options of command ``name``; exit 0."""
    rows = ([(cmd, about) for cmd, (_, about, _) in COMMANDS.items()] if name is None else
            [(flag.replace("/", ", "), about + " (required)" * (default is REQUIRED))
             for flag, _, _, default, about in COMMANDS[name][2]])
    sys.stdout.write(f"usage: derham {name or '<command> [-h]'} [--option value | --option=value]"
                     " ... (a unique prefix names an option)\n\n"
                     + "".join(f"  {left:<12} {right}\n" for left, right in rows))
    raise SystemExit(0)


def parse_args(argv):
    """The namespace of a ``derham`` command line, read by argparse's rules
    (``--opt value`` or ``--opt=value``, unique prefixes, the last value
    wins).  A usage error writes one ``error: derham[ <command>]: ...`` line
    and exits 2; ``-h`` prints help and exits 0."""
    i = 0       # the command is the first value; the tokens before it are left over
    while i < len(argv) and argv[i] != "--" and (read := _read_token("derham", _HELP, argv[i])):
        if read[0]:
            _help()
        i += 1
    if i + (argv[i:i + 1] == ["--"]) >= len(argv):
        _usage_error("derham", "the following arguments are required: command")
    name, extras, argv = argv[i], argv[:i], argv[i + 1:]
    if name not in COMMANDS:
        _usage_error("derham", f"argument command: invalid choice: {name!r} "
                               f"(choose from {', '.join(map(repr, COMMANDS))})")
    prog, options = f"derham {name}", COMMANDS[name][2]
    flags = {**_HELP, **{flag: option for option in options for flag in option[0].split("/")}}
    # every token from a "--" on is left over, and no option takes it as its value
    cut = argv.index("--") if "--" in argv else len(argv)
    reads = [_read_token(prog, flags, t) for t in argv[:cut]] + [(None, None)] * (len(argv) - cut)
    values = {dest: None if default is REQUIRED else default for _, dest, _, default, _ in options}
    steps = iter(range(len(argv)))
    for i in steps:
        flag, text = reads[i] or (None, None)
        if flag is None:
            extras.append(argv[i])
            continue
        if flags[flag] is None:
            _help(name)
        names, dest, kind = flags[flag][:3]
        if text is None:
            if i + 1 == len(argv) or reads[i + 1] is not None:
                _usage_error(prog, f"argument {names}: expected one argument")
            text = argv[next(steps)]
        if isinstance(kind, tuple) and text not in kind:
            _usage_error(prog, f"argument {names}: invalid choice: {text!r} "
                               f"(choose from {', '.join(map(repr, kind))})")
        try:
            values[dest] = text if isinstance(kind, tuple) else kind(text)
        except ValueError as exc:
            why = f"invalid {kind.__name__} value: {text!r}" if kind in (int, float) else exc
            _usage_error(prog, f"argument {names}: {why}")
    # a value that was given is never None
    missing = [flag for flag, dest, _, default, _ in options
               if default is REQUIRED and values[dest] is None]
    if missing:
        _usage_error(prog, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _usage_error("derham", "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=name, **values)


def main(argv=None):
    # Move the import-time heap (numpy and derham: modules, functions, dicts)
    # into the collector's permanent generation.  It lives until exit anyway;
    # frozen, neither a full collection nor interpreter shutdown walks and
    # frees it, which otherwise takes longer than most commands' own work.
    # Cyclic garbage is frozen too and never freed: an in-process caller
    # holding some should run gc.collect() before main().
    gc.freeze()
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return COMMANDS[args.command][0](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            sys.stderr.write(exc.code + "\n")
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
