"""Regenerate references.json: the outputs of every workload variant.

    python3 bench/make_references.py [WORKLOAD ...]

Runs each variant once through the same worker as the benchmark, at the
workload's own thread setting, and stores the fields that run.py checks.
A variant whose command exits non-zero is reported and stored nowhere.
Only rerun this when a change is meant to alter the numbers.
"""

import json
import os
import shutil
import sys
import time

from run import ROOT, Session
from workloads import REFERENCES, WORKLOADS, reference_values


def main(names):
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as fh:
            refs = json.load(fh)
    workdir = os.path.join(ROOT, ".bench_work", f"refs-{os.getpid()}")
    os.makedirs(workdir)
    status = 0
    try:
        session = Session(workdir, time.monotonic() + 3600.0)
        for name in names or sorted(WORKLOADS):
            w = WORKLOADS[name]
            table = {}
            for variant in range(w.pool_size):
                cfg, out = session.path("config.json"), session.path("out.json")
                w.write_config(variant, cfg)
                r = session.spawn("run", w.argv(cfg, out, w.threads()))
                print(f"{name} variant {variant}: exit {r['exit']}, {r['t1'] - r['t0']:.2f} s",
                      file=sys.stderr, flush=True)
                if r["exit"] != 0:
                    status = 1
                    continue
                with open(out) as fh:
                    table[str(variant)] = reference_values(w.command, json.load(fh))
            refs[name] = table
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
