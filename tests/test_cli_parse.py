"""The option table of ``derham.cli`` against the argparse front end it
replaced (``cli_reference.py``): the same namespace, or the same one
``error:`` line and exit code 2."""

import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cli_reference import build_parser
from derham import cli
from derham.mesh import two_triangle_square

FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values()
                for option in options for flag in option[0].split("/")})
PREFIXES = ["--me", "--ro", "--p-", "--o", "--f", "--b", "--d", "--g", "--t", "--k"]
VALUES = ["-1", "-0.5", "1e-3", "-1e-3", "-1:3", "3:5", "abc", "csv", "hz", "",
          "2", "json", "mixed", "1,1,1", "m.json"]
# tokens that are neither a flag nor a value above; none of them names -h/--help
STRAY = ["--", "-", "--x", "-x", "--x=1", "--=1", "---", "tables", "a b", "--p 3", "-1x"]
# a value each option accepts, so that most drawn command lines get past
# the required options
GOOD = {"--out": "o.txt", "--format": "json", "--mesh": "m.json", "--p": "2",
        "--p-range": "3:5", "--dim": "2", "--row": "mixed", "--r": "1", "--betti": "1,0,0",
        "--k": "1", "--bctol": "1e-9", "--tol": "1e-8", "--grid": "1,1,1"}


def _run(parse, argv):
    """('ok', vars) or ('exit', code, stderr) of one parse."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return "ok", vars(parse(list(argv)))
    except SystemExit as exc:
        return "exit", exc.code, err.getvalue()


def _reference(argv):
    return build_parser().parse_args(argv)


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(list(cli.COMMANDS) * 3 + ["nope"]))
    head = draw(st.sampled_from([[]] * 15 + [[token] for token in
                                            ["--x", "-1e-3", "--", "-1", "tables"]]))
    options = cli.COMMANDS.get(name, (None, None, []))[2]
    required = [option[0].split("/")[0] for option in options if option[3] is cli.REQUIRED]
    given_flags = draw(st.permutations(required))[draw(st.sampled_from([0, 0, 0, 1])):]
    pieces = [[flag, GOOD[flag]] for flag in given_flags]
    flag = st.sampled_from(FLAGS + PREFIXES)
    value = st.sampled_from(VALUES)
    pieces += draw(st.lists(st.one_of(
        st.tuples(flag, value).map(list),
        st.tuples(flag, value).map(lambda fv: [f"{fv[0]}={fv[1]}"]),
        flag.map(lambda f: [f]),
        value.map(lambda v: [v]),
        st.sampled_from(STRAY).map(lambda s: [s])), max_size=4))
    pieces = draw(st.permutations(pieces))
    return head + [name] + [token for piece in pieces for token in piece]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_parse_args_matches_argparse(argv):
    new, ref = _run(cli.parse_args, argv), _run(_reference, argv)
    assert new == ref, argv
    if new[0] == "exit":
        assert new[1] == 2 and new[2].startswith("error: derham") and new[2].count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["tables", "--mesh", "m.json", "--p", "-1"],               # a negative number is a value
    ["tables", "--mesh", "m.json", "--p-range", "-1:3"],       # ... and "-1:3" is not
    ["tables", "--mesh=m.json", "--p", "3", "--p=4", "--dim", "-0.5"],
    ["tables", "--me", "m.json", "--p-", "3:5", "--f", "json"],
    ["verify", "--mesh", "m.json", "--r", "2", "--ro", "mixed", "--p", "2"],
    ["verify", "--mesh", "m.json", "--p", "2", "--", "x"],
    ["verify", "--mesh", "m.json", "--p", "--", "2"],
    ["verify", "--=1", "--mesh", "m.json", "--p", "2"],        # ambiguous
    ["element", "--r", "x", "--k", "1", "--dim", "2", "--p", "1"],
    ["element", "--r", "minus", "--k", "1", "--dim", "2", "--p", "1", "--k=2"],
    ["compare", "--p", "2", "--grid", "1,1,1", "--format", "xml"],
    ["bc", "--mesh", "m.json", "--p", "4", "--bctol", "1e-3", "stray"],
    ["--x", "bgg", "--mesh", "m.json", "--p", "2", "--tol=-1e-3"],
    ["--", "tables"], ["--"], [], ["--x"], ["nope"], ["-1"],
])
def test_parse_args_matches_argparse_on_quoted_cases(argv):
    assert _run(cli.parse_args, argv) == _run(_reference, argv)


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_help_names_every_option(name, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for option in cli.COMMANDS[name][2]:
        for flag in option[0].split("/"):
            assert flag in out, flag


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert all(f"  {name} " in out for name in cli.COMMANDS)


NO_PARSER_MODULES = """
import sys
import derham.cli
rc = derham.cli.main(["tables", "--mesh", {mesh!r}, "--p", "3", "--out", {out!r}])
loaded = [m for m in ("argparse", "gettext", "locale") if m in sys.modules]
sys.exit(f"{{rc}} {{loaded}}" if rc or loaded else 0)
"""


def test_valid_command_loads_no_argparse_gettext_or_locale(tmp_path):
    # a fresh interpreter: pytest itself loads argparse
    mesh = tmp_path / "square.json"
    two_triangle_square().save(mesh)
    code = NO_PARSER_MODULES.format(mesh=str(mesh), out=str(tmp_path / "t.csv"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "t.csv").read_text().startswith("r,k,p,label")
