"""Time to verdict of ``derham``: end-to-end and per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload exact3d-delaunay --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each is there):

* ``exact3d-delaunay``: ``verify_exactness`` rows r=1 and r=2 at p=2 on two
  seeded random Delaunay tetrahedrisations of 2 tets each;
* ``exact2d-grid``: row r=0 at p=2 on a seeded similarity image of a
  structured 20 x 20 triangle grid;
* ``cli-mix``: nine ``derham`` commands, one process each.

A run repeats whole rounds until ``--seconds`` have passed (at least
``MIN_ROUNDS``).  Every round starts fresh processes, so no program state
carries from one round to the next.  Times are normalised by a reference
kernel timed between the steps (``refkernel.py``) and reported in seconds at
the reference speed; raw wall seconds are printed beside them.  With
``--trace 1`` one more round runs with spans and call counters installed and
the per-layer metrics are reported instead.  The last line of stdout is the
JSON result.  Exit code 2 if the program's sources are not in ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import refkernel  # noqa: E402
import tracer as tracing  # noqa: E402

MIN_ROUNDS = 2
SETUP_ONLY_ROUNDS = 3      # extra set-up samples per in-process run
# Reference-kernel repetitions per bracket (one repetition is about 30 ms,
# 65 ms with the LAPACK part, which is run only where a share below 1 needs
# it): twelve between in-process verdicts of 5-10 s, eight between commands.
REF_REPEATS = {"inprocess": 12, "cli": 8}
CHILD_TIMEOUT_S = 170
# Share of each workload's verdict time that is interpreter-bound, the rest
# being dense LAPACK/BLAS (rank_of and complex_residual take about half of
# exact2d-grid); set-up is interpreter-bound everywhere.
PYTHON_SHARE = {"exact3d-delaunay": 1.0, "exact2d-grid": 0.5, "cli-mix": 1.0}
SETUP_SHARE = 1.0
# BLAS/OpenMP threads given to the program: one, so that a workload never
# uses more than one of the two vCPUs it was written for.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

CLI_P_RANGE = (3, 5)
CLI_GRID = 2
# (label, derham arguments, check of stdout).  "{mesh}" is the seeded mesh.
CLI_COMMANDS = [
    ("element", ["element", "--r", "2", "--k", "1", "--dim", "2", "--p", "5"],
     lambda out, mesh: checks.check_element(out, 2, 1, 2, 5)),
    ("element", ["element", "--r", "1", "--k", "1", "--dim", "3", "--p", "3"],
     lambda out, mesh: checks.check_element(out, 1, 1, 3, 3)),
    ("element", ["element", "--r", "hz", "--k", "2", "--dim", "3", "--p", "3"],
     lambda out, mesh: checks.check_element(out, "hz", 2, 3, 3)),
    ("export", ["export", "--r", "1", "--k", "1", "--dim", "2", "--p", "3"],
     lambda out, mesh: checks.check_export(out, 1, 2, 3)),
    ("tables", ["tables", "--mesh", "{mesh}", "--p-range", "%d:%d" % CLI_P_RANGE],
     lambda out, mesh: checks.check_tables(out, mesh, *CLI_P_RANGE)),
    ("bc", ["bc", "--mesh", "{mesh}", "--p", "4"],
     lambda out, mesh: checks.check_bc(out, mesh, 4)),
    ("bgg", ["bgg", "--mesh", "{mesh}", "--p", "2"],
     lambda out, mesh: checks.check_bgg(out)),
    ("compare", ["compare", "--p", "4", "--grid", ",".join([str(CLI_GRID)] * 3)],
     lambda out, mesh: checks.check_compare(out, CLI_GRID, 4)),
    ("verify", ["verify", "--mesh", "{mesh}", "--row", "1", "--p", "2"],
     lambda out, mesh: checks.check_exactness(mesh, 1, 2, json.loads(out), "verify")),
]
CLI_LABELS = sorted({label for label, _, _ in CLI_COMMANDS})

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = ["mesh.build", "assembly.space", "elements.local", "elements.dual",
               "elements.unisolvence", "assembly.operator", "assembly.rank",
               "assembly.dd", "bgg.identity", "bgg.xi", "bgg.stress"]
LAYER_COUNTS = ["assembly.space_dofs", "elements.local_entries",
                "elements.dof_apply_calls", "forms.restrict_calls",
                "forms.wedge_calls", "forms.integrate_calls", "forms.d_calls",
                "assembly.operator_entries", "assembly.operator_nnz",
                "assembly.rank_calls", "bgg.context_builds"]


class ProgramError(RuntimeError):
    """An operation of the program did not complete."""


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


def check_import(root, path):
    """The program must come from this checkout's sources."""
    if not path.startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"error: derham imported from {path}, not {root}/src")


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def inprocess_round(root, workload, job, traced):
    """One fresh worker process; normalised times and the verdict reports."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, input=json.dumps(job), capture_output=True, text=True,
                          env=child_env(root), cwd=root, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ProgramError((proc.stderr.strip().splitlines()
                            or [f"exit code {proc.returncode}"])[-1])
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    check_import(root, res["derham_file"])
    refs = res["refs"]
    setup_slow = refkernel.slowdown(refs[0], refs[0], SETUP_SHARE)
    out = {"setup_s": res["setup_wall_s"] / setup_slow,
           "setup_wall_s": res["setup_wall_s"],
           "verdict_s": 0.0, "verdict_wall_s": 0.0,
           "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
           "reports": [v["report"] for v in res["verdicts"]]}
    layer_s = {}
    if traced:
        layer_s["mesh.build"] = res["trace"]["spans"]["mesh.build"]["self_s"] / setup_slow
    for i, v in enumerate(res["verdicts"]):
        slow = refkernel.slowdown(refs[i], refs[i + 1], PYTHON_SHARE[workload])
        out["verdict_s"] += v["wall_s"] / slow
        out["verdict_wall_s"] += v["wall_s"]
        for name, t in v.get("self_s", {}).items():
            if name != "mesh.build":
                layer_s[name] = layer_s.get(name, 0.0) + t / slow
    if traced:
        out["layer_s"] = layer_s
        out["trace"] = res["trace"]
        out["covered_s"] = sum(layer_s.values()) - layer_s["mesh.build"]
    return out


def traced_reports_match(traced, plain):
    """The step-by-step traced verdicts reproduce verify_exactness's."""
    keys = ("dims", "ranks", "nullities", "dd_residuals")
    return traced == [{k: rep[k] for k in keys} for rep in plain]


def check_inprocess(job, reports, where):
    bad = []
    for (mi, r, p), rep in zip(job["verdicts"], reports):
        bad += checks.check_exactness(job["meshes"][mi], r, p, rep,
                                      f"{where} mesh {mi} row {r} p {p}")
    return bad


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

def cli_round(root, mesh_path, traced):
    """Each command in its own process, bracketed by the reference kernel."""
    env = child_env(root)
    entry = [sys.executable, os.path.join(HERE, "cli_entry.py")] + \
        (["--trace"] if traced else []) + ["--"]
    lapack = PYTHON_SHARE["cli-mix"] < 1.0
    refs = [refkernel.measure(REF_REPEATS["cli"], lapack)]
    out = {"setup_s": 0.0, "setup_wall_s": 0.0, "verdict_s": 0.0,
           "verdict_wall_s": 0.0, "peak_rss_mb": 0.0, "stdout": [],
           "failed": 0, "command_s": {}, "commands": [], "traces": []}
    for label, args, _ in CLI_COMMANDS:
        argv = [a.replace("{mesh}", mesh_path) for a in args]
        launched = time.monotonic()
        proc = subprocess.Popen(entry + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, cwd=root)
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        exited = time.monotonic()
        refs.append(refkernel.measure(REF_REPEATS["cli"], lapack))
        marks = [line for line in stderr.decode().splitlines()
                 if line.startswith("PERFBENCH ")]
        if not marks or proc.returncode not in (0, 1):
            out["failed"] += 1
            out["stdout"].append(None)
            continue
        rec = json.loads(marks[-1][len("PERFBENCH "):])
        check_import(root, rec["derham_file"])
        start, command = rec["imported"] - launched, exited - rec["imported"]
        slow = refkernel.slowdown(refs[-2], refs[-1], PYTHON_SHARE["cli-mix"])
        setup_slow = refkernel.slowdown(refs[-2], refs[-1], SETUP_SHARE)
        out["setup_s"] += start / setup_slow
        out["setup_wall_s"] += start
        out["verdict_s"] += command / slow
        out["verdict_wall_s"] += command
        out["command_s"][label] = out["command_s"].get(label, 0.0) + command / slow
        out["commands"].append({"label": label, "start_wall_s": start,
                                "command_wall_s": command, "slowdown": slow})
        out["peak_rss_mb"] = max(out["peak_rss_mb"], rec["peak_rss_kb"] / 1024.0)
        out["stdout"].append((proc.returncode, stdout))
        if traced:
            out["traces"].append((rec["trace"], slow, setup_slow))
    return out


def check_cli(mesh, rounds):
    bad = []
    for i, (label, args, check) in enumerate(CLI_COMMANDS):
        runs = [r["stdout"][i] for r in rounds if r["stdout"][i] is not None]
        if not runs:
            continue
        code, stdout = runs[0]
        if code != 0:
            bad.append(f"{' '.join(args)}: exit code {code}")
        bad += check(stdout, mesh)
        if any(run != runs[0] for run in runs[1:]):
            bad.append(f"{' '.join(args)}: stdout differs between invocations")
    return bad


def cli_layers(traced_round):
    """Per-layer times (normalised) and counts summed over a traced round.

    Layer times are self times, except the ``bgg`` spans: the elasticity
    construction does its work through ``assembly``, so they are reported
    inclusive (that work also shows in the ``assembly`` self times)."""
    layer_s, counts = {}, {}
    for trace, slow, setup_slow in traced_round["traces"]:
        for name, rec in trace["spans"].items():
            scale = setup_slow if name == "mesh.build" else slow
            took = rec["total_s"] if name.startswith("bgg.") else rec["self_s"]
            layer_s[name] = layer_s.get(name, 0.0) + took / scale
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return layer_s, counts


# ---------------------------------------------------------------------------
# metrics and entry point
# ---------------------------------------------------------------------------

def per_layer_metrics(workload, traced_round, untraced_verdict_s):
    if workload == "cli-mix":
        layer_s, counts = cli_layers(traced_round)
    else:
        layer_s, counts = traced_round["layer_s"], traced_round["trace"]["counts"]
    counts = dict(counts, **tracing.layer_counts(counts))
    metrics = {f"{name}_s": (layer_s.get(name, 0.0), "s") for name in LAYER_TIMES}
    metrics.update({name: (counts.get(name, 0), "count") for name in LAYER_COUNTS})
    n_commands = len(CLI_COMMANDS) if workload == "cli-mix" else 0
    metrics["cli.start_s"] = (traced_round["setup_s"] / n_commands
                              if n_commands else 0.0, "s")
    for label in CLI_LABELS:
        metrics[f"cli.{label}_s"] = (
            traced_round.get("command_s", {}).get(label, 0.0), "s")
    metrics["trace.overhead_s"] = (traced_round["verdict_s"] - untraced_verdict_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, layer_s, counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PYTHON_SHARE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "derham", "__init__.py")):
        sys.stderr.write("error: run from the repository root; src/derham not found\n")
        return 2
    # One CPU for the benchmark and everything it starts, so the reference
    # kernel and the program run under the same conditions.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # compile the program's byte code once, as an installed package would be
    subprocess.run([sys.executable, "-c", "import derham.cli"], env=child_env(root),
                   cwd=root, check=True, timeout=CHILD_TIMEOUT_S)

    if args.workload == "cli-mix":
        mesh = inputs.cli_mesh(args.seed)
        mesh_path = os.path.join(results_dir, f"mesh-{os.getpid()}.json")
        with open(mesh_path, "w") as fh:
            json.dump({"dim": 2, **mesh}, fh)
        ops_per_round = len(CLI_COMMANDS)

        def one_round(traced):
            return cli_round(root, mesh_path, traced)
    else:
        job = dict(inputs.in_process_inputs(args.workload, args.seed),
                   ref_repeats=REF_REPEATS["inprocess"],
                   ref_lapack=PYTHON_SHARE[args.workload] < 1.0)
        ops_per_round = len(job["verdicts"])

        def one_round(traced):
            try:
                return inprocess_round(root, args.workload, job, traced)
            except ProgramError as exc:
                sys.stderr.write(f"round failed: {exc}\n")
                return {"failed": ops_per_round}

    try:
        rounds = []
        began = time.monotonic()
        while len(rounds) < MIN_ROUNDS or time.monotonic() - began < args.seconds:
            rounds.append(one_round(False))
        traced_round = one_round(True) if args.trace else None
        setup_only = []
        if args.workload != "cli-mix":
            # more set-up samples: fresh workers that import and build only
            setup_job = dict(job, verdicts=[], ref_lapack=SETUP_SHARE < 1.0)
            setup_only = [inprocess_round(root, args.workload, setup_job, False)
                          for _ in range(SETUP_ONLY_ROUNDS)]
    finally:
        if args.workload == "cli-mix":
            os.remove(mesh_path)

    attempted = ops_per_round * len(rounds)
    failed = sum(r.get("failed", 0) for r in rounds)
    done = [r for r in rounds if "verdict_s" in r and not r.get("failed")]
    if args.workload == "cli-mix":
        # the traced round's output must match the untraced rounds' too
        checked = rounds + ([traced_round] if traced_round else [])
        bad = check_cli(mesh, [r for r in checked if "stdout" in r])
    else:
        bad = []
        for i, rnd in enumerate(rounds):
            if "reports" in rnd:
                bad += check_inprocess(job, rnd["reports"], f"round {i}")
    summary = {
        "verdict_s": median([r["verdict_s"] for r in done]),
        "setup_s": median([r["setup_s"] for r in done + setup_only]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in done]),
    }
    raw = {"verdict_wall_s": median([r["verdict_wall_s"] for r in done]),
           "setup_wall_s": median([r["setup_wall_s"] for r in done + setup_only])}

    record = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
              "summary": summary, "raw": raw,
              "per_round": [{k: r.get(k) for k in ("verdict_s", "verdict_wall_s",
                                                    "setup_s", "setup_wall_s",
                                                    "peak_rss_mb", "commands")}
                            for r in rounds],
              "setup_only": [r["setup_s"] for r in setup_only],
              "check_failures": bad}
    if traced_round is not None:
        if "verdict_s" not in traced_round:
            bad.append("traced round failed")
            metrics = {}
        else:
            metrics, layer_s, counts = per_layer_metrics(
                args.workload, traced_round, summary["verdict_s"])
            if args.workload != "cli-mix":
                if not done or not traced_reports_match(traced_round["reports"],
                                                        done[0]["reports"]):
                    bad.append("traced step-by-step reports differ from verify_exactness")
                record["trace_coverage"] = traced_round["covered_s"] / traced_round["verdict_s"]
            spans = ([t for t, _, _ in traced_round["traces"]]
                     if args.workload == "cli-mix" else traced_round["trace"]["spans"])
            record["trace"] = {"layer_s": layer_s, "counts": counts, "spans": spans,
                               "traced_verdict_s": traced_round["verdict_s"],
                               "traced_verdict_wall_s": traced_round["verdict_wall_s"],
                               "metrics": metrics}
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for line in bad:
        sys.stderr.write(f"CHECK FAILED: {line}\n")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} verdicts attempted, {failed} failed, "
          f"{len(bad)} check failures")
    print(f"  verdict_s   {summary['verdict_s']:.4f} s at reference speed "
          f"(raw wall {raw['verdict_wall_s']:.4f} s)")
    print(f"  setup_s     {summary['setup_s']:.4f} s at reference speed "
          f"(raw wall {raw['setup_wall_s']:.4f} s)")
    print(f"  peak_rss_mb {summary['peak_rss_mb']:.2f} MB")
    if "trace_coverage" in record:
        print(f"  layer self times cover {100 * record['trace_coverage']:.1f} % "
              f"of the traced verdict time")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
