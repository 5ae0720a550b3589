"""Run one heishom command in a fresh process for the benchmark.

    python3 bench/worker.py SPEC.json

SPEC.json holds ``argv`` (the arguments of ``heishom.cli.main``), ``mode``
and ``result`` (the path of the JSON result this process writes).  Modes:

run    call ``heishom.cli.main(argv)`` in-process and record its wall time.
trace  the same with every traced heishom function wrapped (see
       tracing.py); the result adds the per-layer metrics.
setup  stop at the first cell solve: record the monotonic clock there and
       exit at once.  The benchmark starts the clock before it spawns this
       process, so the span covers interpreter start, ``import heishom``,
       config parsing and integrand construction.

The process exits with the command's exit code.
"""

import json
import os
import sys
import threading
import time


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _setup(spec):
    import heishom.cli
    import heishom.solve

    from tracing import rebind

    # fanned-out commands reach the first solve on several threads at once;
    # the first one writes the result and ends the process, the others wait
    lock = threading.Lock()

    def first_solve(*_args, **_kwargs):
        now = time.monotonic()
        lock.acquire()
        _write(spec["result"], {"setup_end": now})
        os._exit(0)

    rebind(heishom.solve.solve_cell, first_solve)
    heishom.cli.main(spec["argv"])
    _write(spec["result"], {"error": "the command made no cell solve"})
    return 1


def _run(spec):
    import heishom.cli

    t0 = time.perf_counter()
    rc = heishom.cli.main(spec["argv"])
    _write(spec["result"], {"rc": rc, "main_s": time.perf_counter() - t0})
    return rc


def _trace(spec):
    import heishom.cli

    from tracing import Tracer, cg_grids, layer_metrics, normal_matrix_stats

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        rc = heishom.cli.main(spec["argv"])
        main_s = time.perf_counter() - t0
    finally:
        unrestored = tracer.uninstall()
    stats = {key: normal_matrix_stats(*key) for key in cg_grids(tracer.spans)}
    metrics, solves = layer_metrics(tracer.spans, stats)
    _write(spec["result"], {
        "rc": rc, "main_s": main_s, "unrestored": unrestored,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "solves": solves,
    })
    return rc


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    return {"run": _run, "trace": _trace, "setup": _setup}[spec["mode"]](spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
