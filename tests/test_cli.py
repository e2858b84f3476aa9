import json
import os
import subprocess
import sys

import numpy as np
import pytest

from derham.cli import main
from derham.mesh import (SimplicialMesh, annulus_mesh, reference_tet, split_edge_square,
                         three_tet_fan, triangle_grid, two_tet_mesh, two_triangle_square)

# the nine commands of the benchmark's cli-mix workload, at small sizes
CLI_MIX = [
    ["element", "--r", "2", "--k", "1", "--dim", "2", "--p", "5"],
    ["element", "--r", "1", "--k", "1", "--dim", "3", "--p", "3"],
    ["element", "--r", "hz", "--k", "2", "--dim", "3", "--p", "3"],
    ["export", "--r", "1", "--k", "1", "--dim", "2", "--p", "3"],
    ["tables", "--mesh", "{mesh}", "--p-range", "3:5"],
    ["bc", "--mesh", "{mesh}", "--p", "4"],
    ["bgg", "--mesh", "{mesh}", "--p", "2"],
    ["compare", "--p", "2", "--grid", "1,1,1"],
    ["verify", "--mesh", "{mesh}", "--row", "1", "--p", "2"],
]


@pytest.fixture()
def square_path(tmp_path):
    path = tmp_path / "square.json"
    two_triangle_square().save(path)
    return str(path)


@pytest.fixture()
def annulus_path(tmp_path):
    path = tmp_path / "annulus.json"
    annulus_mesh().save(path)
    return str(path)


def test_tables_csv(square_path, capsys):
    rc = main(["tables", "--mesh", square_path, "--p", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,k,p,label,local_dim,global_dim"
    cells = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    # r=1, k=2 cell is C(p+2,2) * F
    assert int(cells[("1", "2")][5]) == 10 * 2


def test_tables_p_range_json(square_path, capsys):
    rc = main(["tables", "--mesh", square_path, "--p-range", "3:4", "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["p"] for r in rows} == {3, 4}


def test_verify_pass(square_path, capsys):
    rc = main(["verify", "--mesh", square_path, "--row", "1", "--p", "1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True


def test_verify_annulus_fails_without_betti(annulus_path, capsys):
    rc = main(["verify", "--mesh", annulus_path, "--row", "1", "--p", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "--betti" in err


@pytest.mark.parametrize("vertices,cells,hint", [
    # near-sliver quad: contractible, and its float operators are no complex
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-13], [1.0, 1.0]], [(0, 1, 2), (1, 3, 2)], False),
    # annulus: Euler characteristic 0, not the 1 of [1, 0, 0]
    (annulus_mesh().vertices.tolist(), annulus_mesh().cells.tolist(), True),
])
def test_verify_suggests_betti_only_for_another_topology(tmp_path, capsys, vertices, cells, hint):
    path = tmp_path / "mesh.json"
    SimplicialMesh(vertices, cells).save(path)
    rc = main(["verify", "--mesh", str(path), "--row", "1", "--p", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    if hint:
        assert "if the mesh is not contractible pass --betti" in err
    else:
        assert err == "verification failed\n"


def test_verify_annulus_with_betti(annulus_path):
    rc = main(["verify", "--mesh", annulus_path, "--row", "1", "--p", "1",
               "--betti", "1,1,0"])
    assert rc == 0


def test_verify_mixed_row_reads_betti(tmp_path, capsys):
    # the mixed row is one more row of verify: --betti sets what it expects
    path = tmp_path / "fan.json"
    three_tet_fan().save(path)
    argv = ["verify", "--mesh", str(path), "--row", "mixed", "--p", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--betti", "5,5,5,5"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["expected_betti"] == [5, 5, 5, 5]
    assert captured.err == "verification failed\n"


def test_verify_second_grade_row(square_path):
    rc = main(["verify", "--mesh", square_path, "--row", "2", "--p", "2"])
    assert rc == 0


def test_verify_lowest_3d_window(tmp_path):
    # the 3D r=1 row exists from p=0 on; --p 0 is a valid window there
    path = tmp_path / "tet.json"
    reference_tet().save(path)
    assert main(["verify", "--mesh", str(path), "--row", "1", "--p", "0"]) == 0


def test_verify_corrupt_mesh(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["verify", "--mesh", str(bad), "--row", "1", "--p", "1"])
    assert rc == 2
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_verify_nonfinite_coordinate(tmp_path, capsys, token):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "vertices": [[0, 0], [1, 0], [0, %s]], "cells": [[0, 1, 2]]}'
                   % token)
    rc = main(["verify", "--mesh", str(bad), "--row", "1", "--p", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot parse" in err and "vertex 2 has a non-finite coordinate" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--row", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--mesh", "{mesh}", "--row", "1", "--p", "1", "--tol", "1e-3"],
    ["bc", "--mesh", "{mesh}", "--p", "4", "--r", "2"],
    ["element", "--r", "0", "--k", "0", "--dim", "2", "--p", "1", "--format", "json"],
])
def test_flags_nothing_reads_are_rejected(square_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{mesh}", square_path) for a in argv])
    assert exc.value.code == 2


def test_public_names_resolve():
    import derham
    for name in derham.__all__:
        assert getattr(derham, name) is not None, name


def test_element_report(capsys):
    rc = main(["element", "--r", "2", "--k", "1", "--dim", "3", "--p", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "local dimension 105" in out
    assert "unisolvent: True" in out


def test_element_invalid_family(capsys):
    rc = main(["element", "--r", "2", "--k", "0", "--dim", "2", "--p", "4"])
    assert rc == 2
    assert "p >= 5" in capsys.readouterr().err


def test_bc_report(square_path, capsys):
    rc = main(["bc", "--mesh", square_path, "--p", "4"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["V0"] == 4 and data["V0s"] == 0
    assert data["reduced_dims"] == data["formula_dims"]
    assert data["alternating_sum"] == 0


def test_bc_on_a_mesh_with_an_unused_vertex(tmp_path, capsys):
    # vertex 0 lies in no cell: the report is the plain grid's, with the
    # corner vertices numbered as the file numbers them
    grid = triangle_grid(2)
    reports = []
    for name, mesh in (("plain", grid),
                       ("unused", SimplicialMesh(np.vstack([[5.0, 5.0], grid.vertices]),
                                                 grid.cells + 1))):
        mesh.save(tmp_path / f"{name}.json")
        assert main(["bc", "--mesh", str(tmp_path / f"{name}.json"), "--p", "4"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    plain, unused = reports
    assert unused["corner_vertices"] == [v + 1 for v in plain["corner_vertices"]]
    assert {**unused, "corner_vertices": None} == {**plain, "corner_vertices": None}


def test_bgg_report(square_path, capsys):
    rc = main(["bgg", "--mesh", square_path, "--p", "1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["identity_residual"] < 1e-10
    assert data["xi"]["exact"] is True
    assert data["stress"]["interior_identity"] is True


def test_bgg_builds_one_context(square_path, monkeypatch, capsys):
    from derham import bgg
    builds = []
    init = bgg.BGGContext.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)
    monkeypatch.setattr(bgg.BGGContext, "__init__", counted)
    assert main(["bgg", "--mesh", square_path, "--p", "1"]) == 0
    capsys.readouterr()
    assert len(builds) == 1


def test_compare_grid(capsys):
    rc = main(["compare", "--p", "4", "--grid", "1,1,1", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["per_tet_estimate_classical"] == 170.0
    assert data["per_tet_estimate_nodal"] == 30.5
    assert data["dim_classical"] == data["closed_classical"]


COMPARE_P4_GRID2 = """quantity,value
dim_classical,10910
closed_classical,10910
dim_nodal,7254
closed_nodal,7254
difference,3656
edge_vertex_ratio,4.366197183098592
per_tet_estimate_classical,170.0
per_tet_estimate_nodal,30.5
per_tet_estimate_difference,139.5
count_V,71
count_E,310
count_F,432
count_T,192
"""


def test_compare_realises_no_dof(monkeypatch, capsys):
    # the numbering reads the plan's block sizes: no subsimplex chart, frame,
    # trimmed test basis or DoF row is built
    from derham import assembly, elements, exact, forms
    from derham.mesh import SimplicialMesh

    def refuse(*args, **kwargs):
        raise AssertionError("a DoF was realised")
    monkeypatch.setattr(exact, "sub_simplex", refuse)
    monkeypatch.setattr(SimplicialMesh, "frame", refuse)
    monkeypatch.setattr(forms, "trimmed_coeffs", refuse)
    monkeypatch.setattr(elements, "trimmed_coeffs", refuse)
    monkeypatch.setattr(elements, "block_rows", refuse)
    monkeypatch.setattr(assembly, "block_rows", refuse)
    assert main(["compare", "--p", "4", "--grid", "2,2,2"]) == 0
    assert capsys.readouterr().out == COMPARE_P4_GRID2


@pytest.mark.parametrize("argv", [
    ["element", "--r", "0", "--k", "1", "--dim", "3", "--p", "40"],
    ["export", "--r", "0", "--k", "1", "--dim", "3", "--p", "40"],
    ["verify", "--mesh", "{tet}", "--row", "0", "--p", "40"],
    ["verify", "--mesh", "{tet}", "--row", "mixed", "--p", "40"],
])
def test_oversized_local_matrix_exits_2_before_allocating(tmp_path, capsys, argv):
    import time
    import tracemalloc
    path = tmp_path / "tet.json"
    reference_tet().save(path)
    argv = [a.replace("{tet}", str(path)) for a in argv]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        rc = main(argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "MiB limit" in err
    # the p=40 DoF matrices would take 1.1 to 10 GiB
    assert peak < 2 ** 22 and elapsed < 2.0


def test_dense_rank_over_the_limit_exits_2(tmp_path, capsys, monkeypatch):
    # zero a column of D0 whose DoF the constants do not use: the proof
    # fails, and the dense count it falls back to is refused over the limit
    from derham import assembly
    path = tmp_path / "grid.json"
    triangle_grid(4).save(path)
    argv = ["verify", "--mesh", str(path), "--row", "1", "--p", "1"]
    assemble_d = assembly.assemble_d

    def zeroed(src, dst, **kwargs):
        D = assemble_d(src, dst, **kwargs)
        if src.el.k:
            return D
        keep = D.cols != np.flatnonzero(src.constant_coefficients() == 0.0)[0]
        return assembly.Coo(D.rows[keep], D.cols[keep], D.vals[keep], D.shape)
    monkeypatch.setattr(assembly, "assemble_d", zeroed)
    assert main(argv) == 1          # counted densely: one rank too many
    assert "harmonic dimensions [2, 1, 0]" in capsys.readouterr().err
    monkeypatch.setattr(assembly, "MAX_DENSE_BYTES", 2 ** 16)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: the rank of operator 0 (")
    assert "could not be proved" in captured.err and "MiB limit" in captured.err


def test_bc_unproved_rank_over_the_limit_exits_2(square_path, capsys, monkeypatch):
    # where no proof holds, bc's ranks are counted densely, and a dense
    # count over the limit is refused
    from derham import assembly
    argv = ["bc", "--mesh", square_path, "--p", "4"]
    proved = (main(argv), capsys.readouterr())
    monkeypatch.setattr(assembly, "_proof", lambda *args: None)
    assert (main(argv), capsys.readouterr()) == proved
    monkeypatch.setattr(assembly, "MAX_DENSE_BYTES", 2 ** 8)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "could not be proved" in captured.err and "MiB limit" in captured.err


def test_commands_build_no_form_polynomial_or_fraction(tmp_path, monkeypatch, capsys):
    # every command computes on coefficient arrays and float geometry; the
    # exact forms and Fractions are the tests' reference only
    import fractions
    from derham import exact
    split, tets = tmp_path / "split.json", tmp_path / "tet2.json"
    split_edge_square().save(split)
    two_tet_mesh().save(tets)
    commands = [[a.replace("{mesh}", str(split)) for a in argv] for argv in CLI_MIX] + [
        ["export", "--r", "minus", "--k", "2", "--dim", "3", "--p", "2"],
        ["element", "--r", "minus", "--k", "2", "--dim", "3", "--p", "2"],
        ["verify", "--mesh", str(tets), "--row", "mixed", "--p", "3"]]

    def refuse(*args, **kwargs):
        raise AssertionError("exact form algebra built by a command")
    with monkeypatch.context() as patch:
        patch.setattr(exact.FormPolynomial, "__init__", refuse)
        patch.setattr(fractions, "Fraction", refuse)
        refused = [(main(argv), capsys.readouterr()) for argv in commands]
    for argv, result in zip(commands, refused):
        assert (main(argv), capsys.readouterr()) == result, argv


def test_verify_failed_constants_check_is_a_verdict(tmp_path, capsys):
    # a unit quadrilateral split into a 5e-14-area sliver and a normal
    # triangle: the constants check fails, and the report still prints
    path = tmp_path / "sliver.json"
    SimplicialMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-13], [1.0, 1.0]],
                   [(0, 1, 2), (1, 3, 2)]).save(path)
    rc = main(["verify", "--mesh", str(path), "--row", "1", "--p", "2"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rc == 1 and rep["pass"] is False and rep["kernel_is_constants"] is False
    assert "Traceback" not in captured.err


def test_verify_sliver_names_the_ill_conditioned_cell(tmp_path, capsys):
    # on the same sliver, row 2 at p=5 fails the scatter's cross-cell check;
    # the message gives the two cells' DoF-matrix condition numbers
    path = tmp_path / "sliver.json"
    SimplicialMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-13], [1.0, 1.0]],
                   [(0, 1, 2), (1, 3, 2)]).save(path)
    rc = main(["verify", "--mesh", str(path), "--row", "2", "--p", "5"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and "Traceback" not in captured.err
    assert "disagrees across cells" in captured.err and "7.5e+31" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("argv", [["verify", "--row", "0", "--p", "2"], ["bc", "--p", "4"],
                                  ["bgg", "--p", "2"]])
def test_out_of_range_scale_exits_2_with_one_line(tmp_path, capsys, scale, argv):
    # squared edge lengths that overflow (a LinAlgError traceback, warnings)
    # or underflow (a false FAIL) are refused when the mesh is read
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [scale, 0], [0, scale]],
                                "cells": [[0, 1, 2]]}))
    rc = main(argv + ["--mesh", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot parse mesh file ")
    assert "edge (0, 1) has squared length" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e100, 1e-100])
@pytest.mark.parametrize("argv", [["verify", "--row", "1", "--p", "2"], ["bc", "--p", "4"],
                                  ["bgg", "--p", "2"]])
def test_face_out_of_range_scale_exits_2_with_one_line(tmp_path, capsys, scale, argv):
    # edges in range, faces' squared cross-product norms not: verify used to warn
    # and report a false zero volume (or a NaN) from the face frames
    fan = three_tet_fan()
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"dim": 3, "vertices": (fan.vertices * scale).tolist(),
                                "cells": fan.cells.tolist()}))
    rc = main(argv + ["--mesh", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot parse mesh file ")
    assert "face (0, 1, 2) has squared cross-product norm" in captured.err
    assert "rescale the coordinates" in captured.err and "Warning" not in captured.err


@pytest.mark.parametrize("mesh,message", [
    (two_tet_mesh(), "error: the elasticity construction is two-dimensional"),
    # the sliver's Hermite DoF matrix is singular, and the scatter says so
    (SimplicialMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-13], [1.0, 1.0]], [(0, 1, 2), (1, 3, 2)]),
     "disagrees across cells"),
])
def test_bgg_bad_mesh_exits_2_with_one_line(tmp_path, capsys, mesh, message):
    path = tmp_path / "mesh.json"
    mesh.save(path)
    rc = main(["bgg", "--mesh", str(path), "--p", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err


def test_bgg_unproved_rank_over_the_limit_exits_2(annulus_path, capsys, monkeypatch):
    # the annulus's A0 is counted densely (its middle is not exact), and a
    # dense count over the limit is refused
    from derham import assembly
    argv = ["bgg", "--mesh", annulus_path, "--p", "2"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["xi"]["ranks"] == [189, 160]
    monkeypatch.setattr(assembly, "MAX_DENSE_BYTES", 2 ** 16)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "could not be proved" in captured.err and "MiB limit" in captured.err


def test_export_dual_basis(capsys):
    rc = main(["export", "--r", "0", "--k", "0", "--dim", "2", "--p", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# form n=2 k=0 p=1")


def test_outputs_deterministic(square_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["tables", "--mesh", square_path, "--p", "3", "--out", str(a)])
    main(["tables", "--mesh", square_path, "--p", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_impossible_tolerance_fails(square_path, capsys):
    rc = main(["bgg", "--mesh", square_path, "--p", "1", "--tol", "1e-30"])
    capsys.readouterr()
    assert rc == 1   # impossible tolerance makes the identity check fail


def test_console_script_entry_point(square_path):
    proc = subprocess.run(
        [sys.executable, "-m", "derham.cli", "verify", "--mesh", square_path,
         "--row", "1", "--p", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_cold_commands_match_in_process(tmp_path):
    # each cli-mix command in a fresh interpreter, exiting with the frozen
    # import heap, writes the bytes and returns the code of main() in process
    split = tmp_path / "split.json"
    split_edge_square().save(split)
    for i, argv in enumerate(CLI_MIX):
        argv = [a.replace("{mesh}", str(split)) for a in argv]
        cold, warm = tmp_path / f"cold{i}", tmp_path / f"warm{i}"
        proc = subprocess.run([sys.executable, "-m", "derham.cli", *argv, "--out", str(cold)],
                              capture_output=True, text=True)
        assert proc.returncode == main(argv + ["--out", str(warm)]), (argv, proc.stderr)
        assert cold.read_bytes() == warm.read_bytes(), argv


FROZEN = """
import gc
from derham.cli import main
main(["compare", "--p", "2", "--grid", "1,1,1", "--out", {out!r}])
print(gc.isenabled(), gc.get_freeze_count() > 0)
"""


def test_main_freezes_the_import_heap(tmp_path):
    # main() moves the import-time objects out of the collector's reach and
    # leaves collection itself on
    code = FROZEN.format(out=str(tmp_path / "compare.csv"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True\n"


FRESH_RUN = """
import sys
import derham.cli

def check(when):
    loaded = sorted(m for m in sys.modules if m in {names!r} or m.split(".")[0] in {names!r})
    if loaded:
        sys.exit(f"{{when}}: {{loaded}}")

check("after import derham.cli")
for argv in {commands!r}:
    derham.cli.main(argv)
check("after the cli-mix commands")
"""


def _fresh_run(square_path, names):
    """The cli-mix commands in a fresh interpreter, which fails if any of the
    named modules (or a submodule of one) is loaded after the import or after
    the commands: pytest and the test helpers may load them themselves."""
    commands = [[a.replace("{mesh}", square_path) for a in argv] for argv in CLI_MIX]
    return subprocess.run(
        [sys.executable, "-c", FRESH_RUN.format(names=names, commands=commands)],
        capture_output=True, text=True)


def test_runtime_loads_no_scipy(square_path):
    proc = _fresh_run(square_path, ["scipy"])
    assert proc.returncode == 0, proc.stderr


def test_cold_start_loads_no_generated_or_reference_code(square_path):
    # the records are named tuples (no dataclass code is generated), the
    # exact-form stack is the tests' alone, and Fractions are loaded only for
    # a volume that floats cannot decide
    proc = _fresh_run(square_path, ["dataclasses", "fractions", "decimal", "derham.exact"])
    assert proc.returncode == 0, proc.stderr


# mesh files that are JSON but no mesh
BAD_MESH_FILES = {
    "{list}": "[[0, 0], [1, 0]]",
    "{string}": '"mesh"',
    "{flat}": '{"dim": 2, "vertices": 5, "cells": 3}',
    "{int_cells}": '{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "cells": 3}',
    "{null_index}": '{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "cells": [[null, 1, 2]]}',
    "{dict_vertices}": '{"dim": 2, "vertices": {"x": 0}, "cells": [[0, 1, 2]]}',
    "{fraction_index}": ('{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]], '
                         '"cells": [[0.9, 1, 2], ["1", 3, 2.5]]}'),
    "{string_index}": ('{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]], '
                       '"cells": [[0, 1, 2], ["1", 3, 2]]}'),
    "{bool_index}": '{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "cells": [[0, true, 2]]}',
}


@pytest.mark.parametrize("argv,message", [
    (["tables", "--mesh", "{mesh}", "--p-range", "3"], "--p-range expects LO:HI"),
    (["tables", "--mesh", "{mesh}", "--p-range", "a:b"], "--p-range expects LO:HI"),
    (["verify", "--mesh", "{mesh}", "--p", "1", "--betti", "1,x"], "--betti expects"),
    (["verify", "--mesh", "{mesh}", "--p", "1", "--row", "7"], "--row must be"),
    (["compare", "--p", "2", "--grid", "0,1,1"], "grid sizes must be positive"),
    (["bc", "--mesh", "{mesh}", "--p", "0"], "bc needs --p >= 1 (got --p 0)"),
    (["bgg", "--mesh", "{mesh}", "--p", "0"], "bgg needs --p >= 1 (got --p 0)"),
    (["verify", "--mesh", "{mesh}", "--row", "1", "--p", "0"],
     "verify --row 1 needs --p >= 1 on a 2D mesh (got --p 0)"),
    (["verify", "--mesh", "{mesh}", "--row", "2", "--p", "0"],
     "verify --row 2 needs --p >= 2 on a 2D mesh (got --p 0)"),
    (["verify", "--mesh", "{mesh}", "--row", "2", "--p", "1"],
     "verify --row 2 needs --p >= 2 on a 2D mesh (got --p 1)"),
    (["bgg", "--mesh", "{mesh}", "--p", "2", "--tol", "nan"],
     "--tol must be a finite number > 0 (got nan)"),
    (["bgg", "--mesh", "{mesh}", "--p", "2", "--tol", "0"],
     "--tol must be a finite number > 0 (got 0.0)"),
    (["tables", "--mesh", "{mesh}", "--p-range", "5:3"], "--p-range needs LO <= HI (got '5:3')"),
    (["tables", "--mesh", "{mesh}", "--p", "-1"], "tables needs degrees >= 0 (got -1)"),
    (["tables", "--mesh", "{mesh}", "--p", "3", "--out", "{missing}"],
     "/no/such/x.csv: No such file or directory"),
    (["tables", "--mesh", "{mesh}", "--p", "3", "--out", "{dir}"], "cannot write"),
    (["verify", "--mesh", "{dir}", "--p", "1"], "cannot read mesh file"),
    (["verify", "--mesh", "{list}", "--p", "1"], "a mesh file holds one JSON object"),
    (["verify", "--mesh", "{string}", "--p", "1"], "a mesh file holds one JSON object"),
    (["verify", "--mesh", "{flat}", "--p", "1"], "vertices and cells must be lists of number lists"),
    (["bc", "--mesh", "{int_cells}", "--p", "1"], "vertices and cells must be lists of number lists"),
    (["bc", "--mesh", "{null_index}", "--p", "1"], "cannot parse mesh file"),
    (["bc", "--mesh", "{dict_vertices}", "--p", "1"], "cannot parse mesh file"),
    (["bc", "--mesh", "{fraction_index}", "--p", "1"],
     "cell [0.9, 1, 2] has a vertex index that is not an integer: 0.9"),
    (["bc", "--mesh", "{string_index}", "--p", "1"],
     "cell ['1', 3, 2] has a vertex index that is not an integer: '1'"),
    (["bc", "--mesh", "{bool_index}", "--p", "1"],
     "cell [0, True, 2] has a vertex index that is not an integer: True"),
    (["verify", "--mesh", "{mesh}", "--row", "mixed", "--p", "3"],
     "verify --row mixed needs a 3D mesh (got a 2D mesh)"),
    (["verify", "--mesh", "{mesh}", "--p", "1", "--betti", "1,0"],
     "--betti expects 3 integers >= 0 for row 1 on a 2D mesh (got '1,0')"),
    (["verify", "--mesh", "{mesh}", "--p", "1", "--betti", "1,0,0,0"],
     "--betti expects 3 integers >= 0 for row 1 on a 2D mesh (got '1,0,0,0')"),
    (["verify", "--mesh", "{mesh}", "--p", "1", "--betti=-1,0,1"],
     "--betti expects 3 integers >= 0 for row 1 on a 2D mesh (got '-1,0,1')"),
    (["bc", "--mesh", "{mesh}", "--p", "2", "--bctol", "nan"],
     "--bctol must be a finite number >= 0 (got nan)"),
    (["bc", "--mesh", "{mesh}", "--p", "2", "--bctol", "-1"],
     "--bctol must be a finite number >= 0 (got -1.0)"),
    (["bc", "--mesh", "{mesh}", "--p", "2", "--bctol", "inf"],
     "--bctol must be a finite number >= 0 (got inf)"),
    (["bc", "--mesh", "{mesh}", "--p", "200"],
     "family r=1, k=0, n=2 at p=202 has local dimension 20706"),
    (["bgg", "--mesh", "{mesh}", "--p", "200"],
     "family r=1, k=0, n=2 at p=202 has local dimension 20706"),
    (["bgg", "--mesh", "{mesh}", "--p", "44"],
     "the stress element at p=44 has 4140 DoFs; its dense DoF matrix would take 131 MiB"),
])
def test_bad_arguments_exit_2_with_one_line(square_path, tmp_path, capsys, argv, message):
    paths = {"{mesh}": square_path, "{dir}": str(tmp_path),
             "{missing}": str(tmp_path / "no" / "such" / "x.csv")}
    for name, text in BAD_MESH_FILES.items():
        paths[name] = str(tmp_path / f"{name[1:-1]}.json")
        with open(paths[name], "w") as fh:
            fh.write(text)
    rc = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_bad_tolerance_exits_2_before_any_work(square_path, monkeypatch, capsys):
    from derham import bgg

    def refuse(*args):
        raise AssertionError("bgg built a context before reading its tolerance")
    monkeypatch.setattr(bgg.BGGContext, "__init__", refuse)
    rc = main(["bgg", "--mesh", square_path, "--p", "2", "--tol", "nan"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--tol must be a finite number > 0 (got nan)" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["bgg", "--mesh", "{mesh}", "--p", "2", "--tol", "abc"],
     "error: derham bgg: argument --tol: invalid float value: 'abc'"),
    (["element", "--r", "0", "--k", "x", "--dim", "2", "--p", "1"],
     "error: derham element: argument --k: invalid int value: 'x'"),
    (["tables", "--mesh", "{mesh}", "--p-range", "-1:3"],
     "error: derham tables: argument --p-range: expected one argument"),
])
def test_parse_errors_exit_2_with_one_line(square_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{mesh}", square_path) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == message + "\n"


def _test_degrees(out, klass):
    return [int(line.split("test-deg ")[1].split()[0])
            for line in out.splitlines() if f" {klass} test-deg" in line]


def test_element_keeps_native_test_degrees(capsys):
    # trimmed test spaces: the P_{p-1} forms first, then the complement
    assert main(["element", "--r", "0", "--k", "1", "--dim", "2", "--p", "3"]) == 0
    assert _test_degrees(capsys.readouterr().out, "interior") == [1] * 6 + [2] * 2
    # the same split on every face
    assert main(["element", "--r", "1", "--k", "1", "--dim", "3", "--p", "3"]) == 0
    assert _test_degrees(capsys.readouterr().out, "face-trace") == ([1] * 6 + [2] * 2) * 4
