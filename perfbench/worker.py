"""One round of an in-process workload, run in a fresh process.

Reads the round's inputs as JSON on stdin (meshes as vertex and cell lists,
the verdicts to compute, the reference-kernel repeat count and whether its
LAPACK part is needed), and writes one
JSON object on stdout: raw wall times, reference-kernel brackets, the
verdict reports and the process's peak RSS.  With ``--trace`` it computes
the same verdicts step by step through the program's layers instead, with
spans and call counters installed (see ``tracer.py``).

Usage (from the repository root, with ``src`` on PYTHONPATH):
    python3 perfbench/worker.py [--trace] < round.json
"""

from __future__ import annotations

import json
import resource
import sys
import time


def report_fields(rep):
    return {"dims": rep.dims, "ranks": rep.ranks, "nullities": rep.nullities,
            "dd_residuals": rep.dd_residuals, "betti": rep.betti,
            "expected_betti": rep.expected_betti,
            "kernel_is_constants": rep.kernel_is_constants,
            "alternating_ok": rep.alternating_ok, "passed": rep.passed}


def traced_verdict(mesh, r, p):
    """verify_row's steps in its order, each through a wrapped layer call:
    spaces, then every local matrix and dual inverse that the operators
    need, then the operators, their ranks and the d∘d residuals."""
    from derham import assembly
    slots = assembly.family_row(mesh.dim, r, p)
    spaces = [assembly.assemble_space(mesh, rr, pp, k) for (rr, pp, k) in slots]
    for space in spaces[:-1]:
        for ci in range(len(mesh.cells)):
            space.local_matrix(ci)
            space.dual_coeffs(ci)
    ops = [assembly.assemble_d(a, b) for a, b in zip(spaces, spaces[1:])]
    ranks = [assembly.rank_of(op.array) for op in ops]
    dd = [assembly.complex_residual(ops[i + 1], ops[i]) for i in range(len(ops) - 1)]
    dims = [s.dim for s in spaces]
    return {"dims": dims, "ranks": ranks,
            "nullities": [dims[i] - ranks[i] for i in range(len(ranks))],
            "dd_residuals": dd}


def main():
    traced = sys.argv[1:] == ["--trace"]
    job = json.load(sys.stdin)

    t0 = time.perf_counter()
    import derham
    from derham.assembly import verify_exactness
    from derham.mesh import SimplicialMesh
    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install_counters(tracer)
        tracing.install_spans(tracer)
        with tracer.span("mesh.build"):
            meshes = [SimplicialMesh(m["vertices"], m["cells"]) for m in job["meshes"]]
    else:
        meshes = [SimplicialMesh(m["vertices"], m["cells"]) for m in job["meshes"]]
    setup_wall = time.perf_counter() - t0

    import refkernel
    repeats, lapack = job["ref_repeats"], job["ref_lapack"]
    refkernel.measure(1, lapack)              # first-call costs, untimed
    refs = [refkernel.measure(repeats, lapack)]
    verdicts = []
    for mi, r, p in job["verdicts"]:
        before = {k: v["self_s"] for k, v in tracer.spans.items()} if tracer else {}
        t = time.perf_counter()
        if tracer:
            result = traced_verdict(meshes[mi], r, p)
        else:
            result = report_fields(verify_exactness(meshes[mi], r, p))
        wall = time.perf_counter() - t
        refs.append(refkernel.measure(repeats, lapack))
        entry = {"wall_s": wall, "report": result}
        if tracer:
            entry["self_s"] = {k: v["self_s"] - before.get(k, 0.0)
                               for k, v in tracer.spans.items()}
        verdicts.append(entry)

    out = {"setup_wall_s": setup_wall, "refs": refs, "verdicts": verdicts,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "derham_file": derham.__file__}
    if tracer:
        out["trace"] = tracer.to_json()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
