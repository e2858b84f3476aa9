"""The argparse front end that ``derham.cli.parse_args`` replaced.

Kept verbatim as the reference its replacement is tested against
(``tests/test_cli_parse.py``): the same argv must give the same namespace,
or the same one ``error:`` line and exit code 2.
"""

import argparse
import sys

from derham import mesh as meshmod


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
