"""Fresh-process entry points the benchmark starts and times.

    python perfbench/child.py setup <workload>
        import cfpp and make the workload's warm-up call, then exit.
    python perfbench/child.py cli <trace.json> -- <cfpp cli arguments>
        run ``cfpp.cli.main`` under the tracer and write its spans and the
        start, import and main times to trace.json; exit with its code.
"""

import time

STARTED_AT = time.time()  # first statement: the interpreter is up

import json  # noqa: E402
import sys  # noqa: E402


def setup(workload_name):
    import workloads

    workloads.make(workload_name).warmup()
    return 0


def traced_cli(trace_path, argv):
    from repo import require_cfpp
    from spans import Tracer

    import layers

    t0 = time.time()
    cfpp = require_cfpp()
    import cfpp.cli

    t1 = time.time()
    tracer = Tracer()
    layers.install(tracer, cfpp)
    tracer.op = 0
    try:
        with tracer.span("op"):
            code = cfpp.cli.main(argv)
    finally:
        tracer.restore()
    t2 = time.time()
    with open(trace_path, "w") as fh:
        json.dump({
            "started_at": STARTED_AT,
            "import_s": t1 - t0,
            "main_s": t2 - t1,
            "rows": tracer.by_name(lambda s: s.name != "op"),
            "counts": tracer.counts,
            "maxima": tracer.maxima,
        }, fh)
    return code


def main(argv):
    if len(argv) == 2 and argv[0] == "setup":
        return setup(argv[1])
    if len(argv) >= 3 and argv[0] == "cli" and argv[2] == "--":
        return traced_cli(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
