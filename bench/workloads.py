"""Seeded workload inputs for the benchmark, and the checks on their outputs.

Each workload draws its input from a fixed pool of variants, ``seed mod
len(pool)``, and writes a heishom config file.  Every variant has stored
reference values in ``references.json`` (regenerate them with
``make_references.py``), so the output of every seed is checked, not only
that of the default seed 0.

The variants of one workload are chosen to cost the same, so that runs on
different seeds can be compared:

* ``ladder_k4``     the checkerboard at q = (+-1, 0) and its complement at
                    q = (0, +-1); these are images of one another under the
                    group symmetries (x1, x2) -> (-x2, x1) and u -> -u.  The
                    other pairing (checkerboard at (0, +-1), complement at
                    (+-1, 0)) is left out: its ladder breaks the
                    monotone-trend verdict, so the command exits 1.
* ``sweep_alpha3``  the checkerboard and its complement, swept over the
                    symmetric slope grid {-1, 0, 1}^2 (the rotation maps one
                    sweep onto the other).
* ``mc_tiles``      Monte Carlo over disjoint blocks of eight tile seeds,
                    ``base_seed = 8 * variant``; the ten blocks' CG work
                    (iterations times unknowns) agrees within 2.5%.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

CHECKERBOARD = [[[1.0, 4.0], [4.0, 1.0]], [[4.0, 1.0], [1.0, 4.0]]]
COMPLEMENT = [[[4.0, 1.0], [1.0, 4.0]], [[1.0, 4.0], [4.0, 1.0]]]

# relative tolerances against the stored references
RTOL_CG = 1e-10
RTOL_LBFGS = 1e-6


def _power(alpha, table):
    return {"type": "power", "alpha": alpha,
            "coefficient": {"type": "cell_table", "table": table}}


LADDER_POOL = [
    (CHECKERBOARD, [1.0, 0.0]),
    (CHECKERBOARD, [-1.0, 0.0]),
    (COMPLEMENT, [0.0, 1.0]),
    (COMPLEMENT, [0.0, -1.0]),
]
SWEEP_POOL = [CHECKERBOARD, COMPLEMENT]
MC_POOL = [8 * i for i in range(10)]


def ladder_k4(variant):
    table, q = LADDER_POOL[variant]
    return {"M": 4, "q": q, "k_list": [1, 2, 3, 4], "integrand": _power(2.0, table)}


def sweep_alpha3(variant):
    return {"M": 4, "q_axis": [-1.0, 0.0, 1.0], "k_list": [1, 2],
            "integrand": _power(3.0, SWEEP_POOL[variant])}


def mc_tiles(variant):
    return {"M": 4, "q": [1.0, 0.0], "k_list": [1, 2, 3], "alpha": 2.0,
            "n_samples": 8, "base_seed": MC_POOL[variant],
            "law": {"kind": "two_point", "a": 1.0, "b": 4.0, "prob": 0.5}}


def fanout_threads():
    """Worker threads for the fanned-out workloads: the usable cores, at most 8."""
    return max(1, min(len(os.sched_getaffinity(0)), 8))


class Workload:
    def __init__(self, name, command, make_config, pool_size, serial, rtol):
        self.name = name
        self.command = command
        self.make_config = make_config
        self.pool_size = pool_size
        self.serial = serial      # True when the workload runs with --threads 1
        self.rtol = rtol

    def threads(self):
        return 1 if self.serial else fanout_threads()

    def variant(self, seed):
        return int(seed) % self.pool_size

    def write_config(self, seed, path):
        with open(path, "w") as fh:
            json.dump(self.make_config(self.variant(seed)), fh, indent=1)

    def argv(self, config_path, out_path, threads):
        return [self.command, "--config", config_path, "--format", "json",
                "--out", out_path, "--threads", str(threads)]


WORKLOADS = {
    w.name: w for w in (
        Workload("ladder_k4", "effective", ladder_k4, len(LADDER_POOL), True, RTOL_CG),
        Workload("mc_tiles", "stochastic", mc_tiles, len(MC_POOL), False, RTOL_CG),
        Workload("sweep_alpha3", "sweep", sweep_alpha3, len(SWEEP_POOL), False, RTOL_LBFGS),
    )
}

# the fields of each command's JSON output that are compared with references
REFERENCE_FIELDS = {
    "effective": ("e", "f0_estimate"),
    "sweep": ("qs", "f0"),
    "stochastic": ("seeds", "e", "mean"),
}


def reference_values(command, doc):
    return {k: doc[k] for k in REFERENCE_FIELDS[command]}


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def _flat(v):
    if isinstance(v, list):
        out = []
        for x in v:
            out.extend(_flat(x))
        return out
    return [v]


def verdicts_pass(doc):
    """True when every verdict the command reports holds."""
    cmd = doc["command"]
    if cmd == "effective":
        return all(v for v in doc["verdicts"].values() if v is not None)
    if cmd == "sweep":
        return all(doc["verdicts"].values())
    if cmd == "stochastic":
        return bool(doc["growth_ok"] and doc["concentration"]["ok"])
    return False


def check_output(workload, seed, doc, references):
    """Return a list of problems with one command output (empty when correct)."""
    if not isinstance(doc, dict) or doc.get("command") != workload.command:
        return ["output is not a JSON object for command %r" % workload.command]
    problems = []
    try:
        if not verdicts_pass(doc):
            problems.append("a verdict failed")
    except (KeyError, TypeError, AttributeError):
        problems.append("verdicts missing from the output")
    ref = references[workload.name][str(workload.variant(seed))]
    for key, want in ref.items():
        got = _flat(doc.get(key))
        want = _flat(want)
        if len(got) != len(want):
            problems.append(f"{key}: {len(got)} values, reference has {len(want)}")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            if not isinstance(g, (int, float)) or abs(g - w) > workload.rtol * max(abs(w), 1.0):
                problems.append(f"{key}[{i}] = {g!r}, reference {w!r}")
                break
    return problems
