"""Fast smoke test of the benchmark itself: every workload's correctness
checks run end to end at a tiny size, and the checks reject wrong answers.

Run from the repository root:  python3 perfbench/smoke.py
Exit code 0 when everything passes; failures are listed on stderr.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


def transcription_consistent():
    """Local dims from the per-entity counts, summed over one simplex's
    subsimplices, equal the dimension of the full polynomial forms."""
    bad = []
    for n in (2, 3):
        families = [(r, k) for r in (0, 1, 2) for k in range(n + 1)]
        families += [("hz", 2)] if n == 3 else []
        for r, k in families:
            single = checks.counts([list(range(n + 1))])
            for p in range(5, 9):
                if checks.global_dim(r, p, k, n, single) != checks.local_dim(n, p, k):
                    bad.append(f"per-entity counts of r={r} k={k} n={n} p={p}")
    return bad


def checks_reject_wrong_answers(job, report):
    """Each exactness check fires on a report that is wrong in one field."""
    bad = []
    mi, r, p = job["verdicts"][0]
    for field, change in [("dims", lambda v: [v[0] + 1] + v[1:]),
                          ("ranks", lambda v: [v[0] - 1] + v[1:]),
                          ("dd_residuals", lambda v: [1e-6] + v[1:])]:
        wrong = copy.deepcopy(report)
        wrong[field] = change(wrong[field])
        if not checks.check_exactness(job["meshes"][mi], r, p, wrong, "wrong"):
            bad.append(f"check_exactness accepted a wrong {field}")
    if not checks.check_element(b"local dimension 3\nunisolvent: False (x)\n", 0, 0, 2, 1):
        bad.append("check_element accepted a non-unisolvent element")
    return bad


def main():
    root = os.getcwd()
    rng = np.random.default_rng(0)
    bad = transcription_consistent()
    tiny = {
        "exact3d-delaunay": {"meshes": [inputs.delaunay_3d(rng, n_points=4, n_tets=1)],
                             "verdicts": [[0, 1, 2]]},
        "exact2d-grid": {"meshes": [inputs.similar_grid(rng, n=2)],
                         "verdicts": [[0, 0, 2]]},
    }
    for workload, job in tiny.items():
        job.update(ref_repeats=1, ref_lapack=run.PYTHON_SHARE[workload] < 1.0)
        plain = run.inprocess_round(root, workload, job, traced=False)
        traced = run.inprocess_round(root, workload, job, traced=True)
        bad += run.check_inprocess(job, plain["reports"], workload)
        bad += run.check_inprocess(job, traced["reports"], workload + " traced")
        if not run.traced_reports_match(traced["reports"], plain["reports"]):
            bad.append(f"{workload}: traced reports differ from verify_exactness")
        bad += checks_reject_wrong_answers(job, plain["reports"][0])
        print(f"{workload}: tiny round checked")

    mesh = inputs.cli_mesh(0)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results",
                        f"smoke-mesh-{os.getpid()}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"dim": 2, **mesh}, fh)
    try:
        rounds = [run.cli_round(root, path, traced=False),
                  run.cli_round(root, path, traced=True)]
    finally:
        os.remove(path)
    bad += [f"cli-mix: {n} commands failed" for n in [r["failed"] for r in rounds] if n]
    bad += run.check_cli(mesh, rounds)
    if run.cli_layers(rounds[1])[1].get("bgg.context_builds", 0) < 1:
        bad.append("cli-mix: traced bgg built no BGGContext")
    print("cli-mix: two rounds checked")

    for line in bad:
        sys.stderr.write(f"SMOKE FAILED: {line}\n")
    print("smoke: " + ("FAIL" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
