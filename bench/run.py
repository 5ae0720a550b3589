"""End-to-end benchmark of the heishom command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; heishom is imported from ``src/``.
Each workload is a closed loop of one client: it starts one ``heishom``
invocation (``heishom.cli.main`` in a fresh Python process, see worker.py)
after the previous one has finished and been checked, until ``--seconds``
have passed; at least one invocation runs.

``--trace 0`` reports the end-to-end metrics, as medians over the
invocations of the run:

wall_s       spawn of the process to the checked answer
cpu_s        user + system seconds of the process, BLAS threads included
peak_rss_mb  peak resident set of the process
setup_s      spawn to the first cell solve (interpreter start, import
             heishom, parse the config, build the integrand); the median of
             SETUP_REPEATS processes that stop there

``--trace 1`` runs the workload once untraced, then traced with
``--threads 1`` and traced with ``--threads nproc``, and reports the
per-layer metrics of the traced pass at the workload's own thread setting
(see tracing.py).

Every output is checked against the stored references (workloads.py).  The
last line of stdout is the result object; the lines before it give the
environment and a summary with the run counts and the failure fraction.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_output, fanout_threads, load_references  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 3
DEADLINE_S = 170.0          # the whole run, including set-up
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "OPENBLAS_MAIN_FREE", "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")

# ROADMAP baseline on the default seed (2 cores, OpenBLAS default threads)
BASELINE_CG_ITERATIONS = {1: 71, 2: 487, 3: 1108, 4: 1948}
BASELINE_LBFGS = {"q": (1.0, 0.0), "t": 2, "nit": 217, "objective_calls": 442}
BASELINE_SETTING = {"nproc": 2, "blas_env": {}}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")]


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level):
    """Size of one cache of the given level, from sysconf or else sysfs."""
    try:
        size = int(os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE"))
    except (ValueError, OSError):
        size = 0
    if size > 0:
        return size
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            d = os.path.join(base, index)
            with open(os.path.join(d, "level")) as fh, open(os.path.join(d, "type")) as ft:
                if int(fh.read()) != level or ft.read().strip() == "Instruction":
                    continue
            with open(os.path.join(d, "size")) as fh:
                text = fh.read().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
            return int(text.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return 0


def _blas_build(np):
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # numpy < 1.26 has no dict mode; the build is then unknown
        return "unknown"


def environment():
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "fanout_threads": fanout_threads(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "blas_build": _blas_build(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "l2_mib": _cache_bytes(2) / 2 ** 20,
        "llc_mib": (_cache_bytes(3) or _cache_bytes(2)) / 2 ** 20,
    }


def working_set(workload):
    """CSR size of the normal matrix on the workload's largest grid, for the LLC."""
    sys.path.insert(0, SRC)
    from tracing import normal_matrix_stats

    cfg = workload.make_config(0)
    k = max(cfg["k_list"])
    st = normal_matrix_stats(k, cfg["M"], 1)
    return {"normal_matrix": f"k={k}, M={cfg['M']}", "unknowns": st["unknowns"],
            "nnz": st["nnz"], "csr_mib": st["csr_bytes"] / 2 ** 20,
            # the first-order path (alpha != 2) never assembles it
            "assembled": cfg.get("integrand", {}).get("alpha", cfg.get("alpha")) == 2.0}


# ---------------------------------------------------------------------------
# one worker process
# ---------------------------------------------------------------------------

class Session:
    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._count = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def spawn(self, mode, argv):
        """Run worker.py once; return wall, rusage and the worker's result."""
        self._count += 1
        tag = f"{mode}-{self._count}"
        spec = {"mode": mode, "argv": argv, "result": self.path(tag + ".result.json")}
        with open(self.path(tag + ".spec.json"), "w") as fh:
            json.dump(spec, fh)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        with open(self.path(tag + ".stderr"), "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, WORKER, self.path(tag + ".spec.json")],
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=self.workdir)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {}
        if os.path.exists(spec["result"]):
            with open(spec["result"]) as fh:
                result = json.load(fh)
        return {"t0": t0, "t1": t1, "exit": proc.returncode, "result": result,
                "cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss / 1024.0,
                "stderr": self.path(tag + ".stderr")}


def _tail(path, lines=5):
    with open(path) as fh:
        return "".join(fh.readlines()[-lines:]).strip()


def invoke(session, workload, seed, refs, mode, threads, out_name):
    """One checked invocation; returns (measurement, problems, output bytes)."""
    out = session.path(out_name)
    cfg = session.path("config.json")
    r = session.spawn(mode, workload.argv(cfg, out, threads))
    problems = []
    data = b""
    if r["exit"] != 0:
        problems.append(f"exit code {r['exit']}: {_tail(r['stderr'])}")
    if not os.path.exists(out):
        problems.append("no output written")
    else:
        with open(out, "rb") as fh:
            data = fh.read()
        os.unlink(out)
        try:
            doc = json.loads(data)
        except ValueError:
            problems.append("output is not JSON")
        else:
            problems += check_output(workload, seed, doc, refs)
    r["wall_s"] = time.monotonic() - r["t0"]
    return r, problems, data


def measure_setup(session, workload):
    values = []
    for _ in range(SETUP_REPEATS):
        r = session.spawn("setup", workload.argv(session.path("config.json"),
                                                 session.path("setup-out.json"),
                                                 workload.threads()))
        if r["exit"] != 0 or "setup_end" not in r["result"]:
            raise BenchError(f"set-up run failed: {r['result'].get('error') or _tail(r['stderr'])}")
        values.append(r["result"]["setup_end"] - r["t0"])
    return values


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def tail_percentile(values):
    """Highest of p50..p99.9 that has at least ten samples beyond it, or None."""
    n = len(values)
    ok = [p for p in (50, 75, 90, 95, 99, 99.9) if n * (1 - p / 100.0) >= 10]
    if not ok:
        return None
    q = statistics.quantiles(values, n=1000, method="inclusive")
    return ok[-1], q[int(round(ok[-1] * 10)) - 1]


def timing_summary(values, unit):
    tp = tail_percentile(values)
    return {"median": statistics.median(values), "unit": unit, "count": len(values),
            "tail_percentile": None if tp is None else tp[0],
            "tail_value": None if tp is None else tp[1]}


def run_untraced(session, workload, seed, seconds, refs):
    setup = measure_setup(session, workload)
    samples, failures = [], []
    start = time.monotonic()
    while True:
        r, problems, _ = invoke(session, workload, seed, refs, "run", workload.threads(), "out.json")
        samples.append(r)
        if problems:
            failures.append(problems)
        if time.monotonic() - start >= seconds:
            break
    series = {
        "wall_s": [r["wall_s"] for r in samples],
        "cpu_s": [r["cpu_s"] for r in samples],
        "peak_rss_mb": [r["peak_rss_mb"] for r in samples],
        "setup_s": setup,
    }
    summary = {name: timing_summary(series[name], unit) for name, unit in END_TO_END}
    metrics = {name: {"value": summary[name]["median"], "unit": unit} for name, unit in END_TO_END}
    return metrics, summary, len(samples), failures


def baseline_crosscheck(workload, seed, env, solves):
    """Compare traced counts with the ROADMAP baseline (default input only)."""
    if workload.variant(seed) != 0 or workload.name not in ("ladder_k4", "sweep_alpha3"):
        return {"status": "not applicable"}
    setting = {"nproc": env["nproc"], "blas_env": env["blas_env"]}
    if setting != BASELINE_SETTING:
        return {"status": "skipped: the baseline was counted at another thread setting",
                "setting": setting, "baseline_setting": BASELINE_SETTING}
    if workload.name == "ladder_k4":
        got = {int(s["grid"][0]): s["iterations"] for s in solves if s["method"] == "cg"}
        want = BASELINE_CG_ITERATIONS
    else:
        b = BASELINE_LBFGS
        hit = [s for s in solves if s["method"] == "first_order"
               and tuple(s["q"]) == b["q"] and s["grid"][0] == b["t"]]
        got = {"nit": hit[0]["iterations"], "objective_calls": hit[0]["objective_calls"]} if hit else {}
        want = {"nit": b["nit"], "objective_calls": b["objective_calls"]}
    return {"status": "match" if got == want else "MISMATCH", "traced": got, "baseline": want}


def run_traced(session, workload, seed, refs, env):
    own, wide = workload.threads(), fanout_threads()
    base, base_problems, untraced_bytes = invoke(session, workload, seed, refs, "run", own, "out.json")
    passes, problems = {}, {}
    for threads in sorted({1, wide}):
        r, p, data = invoke(session, workload, seed, refs, "trace", threads, f"out-{threads}.json")
        if r["result"].get("unrestored"):
            p.append(f"wrappers not restored: {r['result']['unrestored']}")
        passes[threads], problems[threads] = (r["result"], data), p
    if not (base["result"].get("main_s") and all(r.get("metrics") for r, _ in passes.values())):
        raise BenchError(f"a pass of the traced run failed: {base_problems} {problems}")
    traced, traced_bytes = passes[own]
    if traced_bytes != untraced_bytes:
        problems[own].append("traced and untraced outputs differ")
    if workload.name == "mc_tiles" and problems[1] == problems[wide] == []:
        if json.loads(passes[1][1])["e"] != json.loads(passes[wide][1])["e"]:
            problems[wide].append("MC table differs between the serial and the nproc pass")

    metrics = dict(traced["metrics"])
    speedup = passes[1][0]["main_s"] / passes[wide][0]["main_s"]
    metrics["homog.map_jobs.speedup"] = {"value": speedup, "unit": "ratio"}
    metrics["homog.map_jobs.efficiency"] = {"value": speedup / wide, "unit": "ratio"}
    metrics["trace.overhead_frac"] = {
        "value": traced["main_s"] / base["result"]["main_s"] - 1.0, "unit": "ratio"}
    summary = {
        "passes_main_s": {"untraced": base["result"]["main_s"],
                          **{f"traced_threads_{t}": r["main_s"] for t, (r, _) in passes.items()}},
        "baseline_crosscheck": baseline_crosscheck(workload, seed, env, traced["solves"]),
    }
    failures = [p for p in [base_problems, *problems.values()] if p]
    return metrics, summary, 1 + len(passes), failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM unwind normally, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "heishom", "cli.py")):
        print(f"bench: no heishom sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    refs = load_references()
    env = environment()
    workdir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        session = Session(workdir, deadline)
        workload.write_config(args.seed, session.path("config.json"))
        if args.trace:
            metrics, summary, attempted, failures = run_traced(session, workload, args.seed, refs, env)
        else:
            metrics, summary, attempted, failures = run_untraced(
                session, workload, args.seed, args.seconds, refs)
        env["working_set"] = working_set(workload)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    failed = len(failures)
    summary.update({"workload": workload.name, "seed": args.seed,
                    "variant": workload.variant(args.seed), "threads": workload.threads(),
                    "fail_frac": {"value": failed / attempted, "unit": "ratio"},
                    "problems": failures})
    print(json.dumps({"environment": env}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
