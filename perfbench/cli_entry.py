"""Runs one ``derham`` command for the cli-mix workload.

The command's stdout and exit code are the program's own.  After the
command, one line ``PERFBENCH {json}`` goes to stderr: the monotonic time
at which ``import derham.cli`` had finished (the parent compares it with
its own launch and exit times), the peak RSS, and with ``--trace`` the
spans and call counts (see ``tracer.py``).

Usage (from the repository root, with ``src`` on PYTHONPATH):
    python3 perfbench/cli_entry.py [--trace] -- <derham arguments>
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main():
    sep = sys.argv.index("--")
    traced = "--trace" in sys.argv[1:sep]
    args = sys.argv[sep + 1:]

    import derham.cli
    imported = time.monotonic()
    tracer = None
    if traced:
        import tracer as tracing
        from derham import mesh
        tracer = tracing.Tracer()
        tracing.install_counters(tracer)
        tracing.install_spans(tracer)
        derham.cli._load_mesh = tracer.spanned("mesh.build", derham.cli._load_mesh)
        tracing.replace_function(mesh, "cube_center_fan_grid",
                                 tracer.spanned("mesh.build", mesh.cube_center_fan_grid))
    code = derham.cli.main(args)
    sys.stdout.flush()
    record = {"imported": imported, "derham_file": derham.cli.__file__,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "trace": tracer.to_json() if tracer else None}
    sys.stderr.write("PERFBENCH " + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
