"""Spans around the public functions of heishom, installed from outside.

``Tracer.install()`` replaces each traced function and method with a wrapper
that records a span (name, start, end, parent, extra fields) and calls the
original.  A module-level function is rebound in every heishom module that
imported it by name, so ``from .solve import solve_cell`` call sites are
traced too.  ``Tracer.uninstall()`` puts every original back.

Parent links follow a per-thread stack.  ``homog.map_jobs`` runs its items in
worker threads, so its wrapper also wraps each item as a
``homog.map_jobs.item`` span whose parent is the ``map_jobs`` span, whatever
thread the item runs on.  Spans are kept in memory; ``list.append`` and
``next`` on ``itertools.count`` are atomic under the interpreter lock.
"""

import functools
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, function, span name); map_jobs gets its own wrapper
FUNCTIONS = [
    ("heishom.solve", "solve_cell", "solve.solve_cell"),
    ("heishom.solve", "gradient_operator", "solve.gradient_operator"),
    ("heishom.solve", "discrete_energy", "solve.discrete_energy"),
    ("heishom.grids", "build_grid", "grids.build_grid"),
    ("heishom.grids", "discrete_h_gradient", "grids.discrete_h_gradient"),
    ("heishom.heisenberg", "pullback_to_cell", "heisenberg.pullback_to_cell"),
    ("heishom.heisenberg", "tile_index", "heisenberg.tile_index"),
    ("heishom.homog", "energy_density_sequence", "homog.energy_density_sequence"),
    ("heishom.cli", "load_config", "cli.load_config"),
    ("heishom.cli", "emit", "cli.emit"),
]

# (module, class, method, span name): the classes the workloads use
METHODS = [
    ("heishom.integrands", "PowerIntegrand", "eval_cells", "integrands.eval_cells"),
    ("heishom.integrands", "PowerIntegrand", "grad_q_cells", "integrands.grad_q_cells"),
    ("heishom.integrands", "PowerIntegrand", "quad_cells", "integrands.quad_cells"),
    ("heishom.integrands", "CellTableCoefficient", "values_at", "integrands.values_at"),
    ("heishom.stochastic", "RandomTileCoefficient", "values_at", "stochastic.values_at"),
    ("heishom.stochastic", "RandomTileCoefficient", "value_for_tile", "stochastic.value_for_tile"),
]


def _grid_key(grid):
    return (grid.t, grid.M, grid.n)


def _solve_info(args, sol):
    problem = args[0]
    return {"method": sol.method, "iterations": int(sol.iterations),
            "grid": _grid_key(problem.grid),
            "q": tuple(float(v) for v in getattr(problem.boundary, "q", ()))}


def _cells_info(args, _out):
    shape = getattr(args[1], "shape", (1,))
    cells = 1
    for s in shape[:-1]:
        cells *= int(s)
    return {"cells": cells}


INSPECT = {
    "solve.solve_cell": _solve_info,
    "solve.gradient_operator": lambda args, _out: {"grid": _grid_key(args[0])},
    "integrands.values_at": _cells_info,
    "stochastic.values_at": _cells_info,
}


def rebind(function, replacement):
    """Point every heishom module global bound to ``function`` at ``replacement``.

    Returns the (module, name, original) records that undo it.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "heishom" or name.startswith("heishom.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is function:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, function))
    return undo


@dataclass
class Span:
    id: int
    parent: int
    name: str
    t0: float
    t1: float
    info: dict = field(default_factory=dict)

    @property
    def dur(self):
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs=None, parent=None, cpu=False):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        c0 = time.process_time() if cpu else 0.0
        t0 = time.perf_counter()
        done = False
        try:
            out = fn(*args, **(kwargs or {}))
            done = True
            return out
        finally:
            t1 = time.perf_counter()
            stack.pop()
            info = {"cpu": time.process_time() - c0} if cpu else {}
            inspect = INSPECT.get(name)
            if done and inspect is not None:
                info.update(inspect(args, out))
            self.spans.append(Span(sid, parent, name, t0, t1, info))

    def _wrapper(self, name, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs)
        return traced

    def _map_jobs_wrapper(self, original):
        @functools.wraps(original)
        def traced(fn, items, threads=1):
            def run(fn, items, threads):
                parent = self._stack()[-1]

                def item(x):
                    return self.call("homog.map_jobs.item", fn, (x,), parent=parent)

                return original(item, items, threads)

            return self.call("homog.map_jobs", run, (fn, items, threads), cpu=True)
        return traced

    def install(self):
        import importlib

        for modname, fname, span in FUNCTIONS:
            original = getattr(importlib.import_module(modname), fname)
            self._undo += rebind(original, self._wrapper(span, original))
        homog = importlib.import_module("heishom.homog")
        self._undo += rebind(homog.map_jobs, self._map_jobs_wrapper(homog.map_jobs))
        for modname, cname, meth, span in METHODS:
            cls = getattr(importlib.import_module(modname), cname)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrapper(span, original))
            self._undo.append((cls, meth, original))

    def uninstall(self):
        """Restore every original; return the names that did not come back."""
        undo, self._undo = self._undo, []
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in undo
                if (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr)) is not original]


# ---------------------------------------------------------------------------
# per-layer numbers from the spans of one traced invocation
# ---------------------------------------------------------------------------

def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it covered by its children."""
    kids = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in kids.get(s.id, ())]
        out[s.id] = s.dur - _union_length([iv for iv in covered if iv[1] > iv[0]])
    return out


def _has_ancestor(span, by_id, pred):
    p = by_id.get(span.parent)
    while p is not None:
        if pred(p):
            return p
        p = by_id.get(p.parent)
    return None


def normal_matrix_stats(t, M, n):
    """Unknowns, nnz and CSR bytes of the normal matrix K = B_i^T B_i of a cell grid.

    Uses the public ``build_grid`` and ``gradient_operator``; the coefficient
    weights scale rows of B and leave the pattern of K unchanged.
    """
    from heishom.grids import build_grid
    from heishom.solve import gradient_operator

    grid = build_grid(t, M, n)
    Bi = gradient_operator(grid).tocsc()[:, grid.interior_flat].tocsr()
    K = (Bi.T @ Bi).tocsr()
    nbytes = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
    return {"unknowns": int(K.shape[0]), "nnz": int(K.nnz),
            "index_bytes": int(K.indices.itemsize), "csr_bytes": int(nbytes)}


def cg_iteration_model(stats):
    """Computed flops and bytes of one Jacobi-PCG iteration.

    One CSR matvec (2 flops per stored entry; value, column index, row
    pointer, one read of p and one write of Kp) plus the vector work of the
    loop body, each operand read or written once: two dots, one norm, two
    axpys, the diagonal scaling and the direction update -- 13 flops and
    17 vector passes of 8 bytes per unknown.
    """
    n, nnz, ib = stats["unknowns"], stats["nnz"], stats["index_bytes"]
    flops = 2 * nnz + 13 * n
    nbytes = nnz * (8 + ib) + (n + 1) * ib + 16 * n + 17 * 8 * n
    return flops, nbytes


def layer_metrics(spans, grid_stats):
    """Aggregate one invocation's spans into the per-layer metrics.

    ``grid_stats`` maps a CG grid key (t, M, n) to ``normal_matrix_stats``.
    The pass-level metrics (map_jobs speed-up and efficiency, tracing
    overhead) are added by the caller, which sees both passes.
    """
    by_id = {s.id: s for s in spans}
    self_t = self_times(spans)
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def calls(name):
        return len(named.get(name, ()))

    def secs(name):
        return sum(s.dur for s in named.get(name, ()))

    m = {}

    def put(name, value, unit):
        m[name] = (float(value) if not isinstance(value, int) else value, unit)

    solves = named.get("solve.solve_cell", [])
    put("solve.solve_cell.calls", len(solves), "count")
    put("solve.solve_cell.s", secs("solve.solve_cell"), "s")
    put("solve.solve_cell.self_s", sum(self_t[s.id] for s in solves), "s")

    cg = [s for s in solves if s.info.get("method") == "cg"]
    cg_it = sum(s.info["iterations"] for s in cg)
    it_at = {}
    for s in cg:
        it_at[s.info["grid"][0]] = it_at.get(s.info["grid"][0], 0) + s.info["iterations"]
    flops = nbytes = 0
    for s in cg:
        f, b = cg_iteration_model(grid_stats[s.info["grid"]])
        flops += f * s.info["iterations"]
        nbytes += b * s.info["iterations"]
    put("solve.cg.iterations", cg_it, "count")
    put("solve.cg.iter_growth", it_at[4] / it_at[2] if it_at.get(4) and it_at.get(2) else 0.0, "ratio")
    put("solve.cg.s_per_iter", sum(self_t[s.id] for s in cg) / cg_it if cg_it else 0.0, "s")
    put("solve.cg.flops_computed", flops, "flop")
    put("solve.cg.bytes_computed", nbytes, "B")

    gops = named.get("solve.gradient_operator", [])
    grids = {s.info["grid"] for s in gops}
    put("solve.gradient_operator.calls", len(gops), "count")
    put("solve.gradient_operator.s", secs("solve.gradient_operator"), "s")
    put("solve.gradient_operator.calls_per_grid", len(gops) / len(grids) if grids else 0.0, "ratio")
    for name in ("grids.build_grid", "solve.discrete_energy"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.s", secs(name), "s")
    put("grids.discrete_h_gradient.s", secs("grids.discrete_h_gradient"), "s")

    lookups = named.get("integrands.values_at", [])
    put("integrands.values_at.calls", len(lookups), "count")
    put("integrands.values_at.s", secs("integrands.values_at"), "s")
    put("integrands.values_at.cells", sum(s.info.get("cells", 0) for s in lookups), "count")
    put("integrands.values_at.lookups_per_solve", len(lookups) / len(solves) if solves else 0.0, "ratio")
    for name in ("integrands.eval_cells", "integrands.grad_q_cells", "integrands.quad_cells"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.s", secs(name), "s")
    put("heisenberg.pullback_to_cell.s", secs("heisenberg.pullback_to_cell"), "s")

    fo_ids = {s.id for s in solves if s.info.get("method") == "first_order"}
    objective = {}
    for s in named.get("integrands.eval_cells", []):
        if _has_ancestor(s, by_id, lambda p: p.name == "solve.discrete_energy"):
            continue
        owner = _has_ancestor(s, by_id, lambda p: p.id in fo_ids)
        if owner is not None:
            objective[owner.id] = objective.get(owner.id, 0) + 1
    nit = sum(s.info["iterations"] for s in solves if s.id in fo_ids)
    obj = sum(objective.values())
    put("solve.lbfgs.nit", nit, "count")
    put("solve.lbfgs.objective_calls", obj, "count")
    put("solve.lbfgs.calls_per_iter", obj / nit if nit else 0.0, "ratio")
    put("solve.lbfgs.s_per_iter",
        sum(s.dur for s in solves if s.id in fo_ids) / nit if nit else 0.0, "s")

    for name in ("stochastic.values_at", "stochastic.value_for_tile"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.s", secs(name), "s")
    put("heisenberg.tile_index.s", secs("heisenberg.tile_index"), "s")

    maps = named.get("homog.map_jobs", [])
    map_s = secs("homog.map_jobs")
    put("homog.map_jobs.s", map_s, "s")
    put("homog.map_jobs.cpu_per_wall", sum(s.info["cpu"] for s in maps) / map_s if map_s else 0.0, "ratio")
    straggler = 0.0
    items = named.get("homog.map_jobs.item", [])
    for mj in maps:
        durs = [s.dur for s in items if s.parent == mj.id]
        if durs and statistics.median(durs) > 0:
            straggler = max(straggler, max(durs) / statistics.median(durs))
    put("homog.map_jobs.straggler_ratio", straggler, "ratio")

    put("homog.energy_density_sequence.calls", calls("homog.energy_density_sequence"), "count")
    put("homog.energy_density_sequence.s", secs("homog.energy_density_sequence"), "s")
    put("cli.load_config.s", secs("cli.load_config"), "s")
    put("cli.emit.s", secs("cli.emit"), "s")

    per_solve = [dict(s.info, objective_calls=objective.get(s.id, 0)) for s in solves]
    return m, per_solve


def cg_grids(spans):
    return sorted({s.info["grid"] for s in spans
                   if s.name == "solve.solve_cell" and s.info.get("method") == "cg"})
