"""Command-line front end.

Commands
--------
verify      structural self-checks (group algebra, tiling, discrete stencil)
cell        solve a single cell problem on a dilated box
effective   energy-density ladder e_k and the effective value f0(q)
sweep       tabulate f0 over a slope grid with convexity/evenness audits
stochastic  Monte Carlo ladder over random tile coefficients
ultimo      exact rescaling identity between dilated and unit-size problems
recover     pointwise recovery of f(x0, q) on shrinking centered boxes

The problem description lives in a JSON config file (``--config``); every
command runs with sensible defaults when the flag is omitted.  Results go to
stdout or, with ``--out``, are written atomically as CSV or JSON.

Exit status: 0 all verdicts pass, 1 a verdict failed, 2 configuration error,
3 numerical failure of a solver.
"""

import argparse
import ast
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from .checks import run_verification
from .heisenberg import GroupParams
from .homog import (
    energy_density_sequence,
    q_sweep,
    recover_integrand_pointwise,
    ultimo_check,
)
from .integrands import (
    CellTableCoefficient,
    ConstantCoefficient,
    MatrixPowerIntegrand,
    PowerIntegrand,
    SmoothCoefficient,
    checkerboard_coefficient,
)
from .solve import NumericalError, mu_q
from .stochastic import (
    RandomTileCoefficient,
    TwoPointLaw,
    UniformLaw,
    check_concentration_inputs,
    concentration_report,
    monte_carlo_effective,
)

COMMANDS = ("verify", "cell", "effective", "sweep", "stochastic", "ultimo", "recover")


class ConfigError(ValueError):
    pass


def _json_matches(value, default):
    """True when a JSON value has the type of a RunConfig default: an int
    takes integers, a float any number, a tuple a list of items like its
    first, and None (x0) null or a list of numbers."""
    if default is None:
        return value is None or _json_matches(value, (0.0,))
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_json_matches(v, default[0]) for v in value)
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


# seeds are non-negative; verify draws samples; a variance needs two samples
_LEAST = {"seed": 0, "base_seed": 0, "samples": 1, "n_samples": 2}


@dataclasses.dataclass
class RunConfig:
    """Everything a command might need; unknown keys are rejected, and so are
    values under the least each key in ``_LEAST`` takes."""

    n: int = 1
    M: int = 4
    q: tuple = (1.0, 0.0)
    k_list: tuple = (1, 2, 3, 4)
    t: float = 2.0
    rho: float = 1.0
    rho_list: tuple = (0.5, 0.25, 0.125)
    x0: tuple = None
    q_axis: tuple = (-2.0, -1.0, 0.0, 1.0, 2.0)
    integrand: dict = dataclasses.field(
        default_factory=lambda: {"type": "power", "alpha": 2.0,
                                 "coefficient": {"type": "constant", "value": 1.0}}
    )
    law: dict = dataclasses.field(
        default_factory=lambda: {"kind": "two_point", "a": 1.0, "b": 4.0, "prob": 0.5}
    )
    alpha: float = 2.0
    n_samples: int = 16
    base_seed: int = 0
    delta: float = 0.25
    seed: int = 0
    samples: int = 10_000

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        defaults = cls()
        for name, value in data.items():
            if not _json_matches(value, getattr(defaults, name)):
                raise ConfigError(f"config key {name!r} has the wrong type: {value!r}")
        for name, least in _LEAST.items():
            if data.get(name, least) < least:
                raise ConfigError(f"config key {name!r} must be >= {least}, got {data[name]!r}")
        cfg = cls(**data)
        for name in ("q", "k_list", "rho_list", "q_axis", "x0"):
            v = getattr(cfg, name)
            if v is not None:
                object.__setattr__(cfg, name, tuple(v))
        return cfg

    def to_json(self) -> dict:
        d = dataclasses.asdict(self)
        for name in ("q", "k_list", "rho_list", "q_axis", "x0"):
            if d[name] is not None:
                d[name] = list(d[name])
        return d


# ---------------------------------------------------------------------------
# integrand factory
# ---------------------------------------------------------------------------

_EXPR_NS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "minimum": np.minimum, "maximum": np.maximum, "pi": np.pi, "e": np.e,
}


_EXPR_FUNCS = {name for name, v in _EXPR_NS.items() if callable(v)}
_EXPR_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call,
    ast.UnaryOp, ast.UAdd, ast.USub,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
)


def _check_expr(tree, N):
    """Admit only arithmetic on numbers, x1..xN, pi, e and calls of _EXPR_NS functions.

    Constants become floats, so no integer arithmetic can grow without bound.
    """
    values = {f"x{i + 1}" for i in range(N)} | {"pi", "e"}
    callees = set()
    for node in ast.walk(tree):  # breadth first: a call precedes its callee name
        if not isinstance(node, _EXPR_NODES):
            raise ConfigError(f"expr may not contain {type(node).__name__}")
        if isinstance(node, ast.Call):
            fn = node.func
            if not (isinstance(fn, ast.Name) and fn.id in _EXPR_FUNCS):
                raise ConfigError(f"expr may only call {sorted(_EXPR_FUNCS)}")
            if node.keywords or len(node.args) != _EXPR_NS[fn.id].nin:
                raise ConfigError(f"{fn.id}() takes {_EXPR_NS[fn.id].nin} positional argument(s)")
            callees.add(fn)
        elif isinstance(node, ast.Name) and node not in callees and node.id not in values:
            raise ConfigError(f"unknown name {node.id!r} in expr")
        elif isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                raise ConfigError(f"expr constant {node.value!r} is not a number")
            node.value = float(node.value)
        elif isinstance(node, ast.Compare) and len(node.ops) > 1:
            raise ConfigError("expr may not chain comparisons")


def _expr_coefficient(spec, n):
    expr = spec.get("expr")
    if not expr or not isinstance(expr, str):
        raise ConfigError("smooth_expr coefficient needs an 'expr' string")
    try:
        tree = ast.parse(expr, "<config>", "eval")
        N = GroupParams(n).N
        _check_expr(tree, N)
        code = compile(tree, "<config>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expr: {exc}") from None
    except (RecursionError, MemoryError):  # the parser's and the compiler's depth limits
        raise ConfigError("expr is nested too deeply") from None

    def fn(X):
        X = np.asarray(X, dtype=float)
        ns = dict(_EXPR_NS)
        ns.update({f"x{i + 1}": X[..., i] for i in range(N)})
        try:
            # a value outside the function's domain becomes nan or inf, which
            # SmoothCoefficient reports against the declared bounds
            with np.errstate(all="ignore"):
                out = eval(code, {"__builtins__": {}}, ns)  # noqa: S307 - checked by _check_expr
        except ArithmeticError as exc:
            raise ConfigError(f"cannot evaluate expr: {exc}") from None
        return np.broadcast_to(np.asarray(out, dtype=float), X.shape[:-1]).copy()

    return SmoothCoefficient(fn, a_min=_number(spec, "a_min", 0.0), a_max=_number(spec, "a_max", np.inf))


# what -> (the key that names an object's type, type -> the other keys it takes)
_SPEC_KEYS = {
    "integrand": ("type", {"power": ("alpha", "coefficient"), "matrix_p": ("matrix", "p")}),
    "coefficient": ("type", {"constant": ("value",), "checkerboard": ("lo", "hi"), "cell_table": ("table",),
                             "smooth_expr": ("expr", "a_min", "a_max"), "random_tiles": ("law", "seed")}),
    "law": ("kind", {"uniform": ("lo", "hi"), "two_point": ("a", "b", "prob")}),
}


def _object(spec, what, default=None):
    """The type of the config object spec (default if it names none), after
    checking that spec is a JSON object of a known type holding only that
    type's keys."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be a JSON object, got {spec!r}")
    tag, types = _SPEC_KEYS[what]
    kind = spec.get(tag, default)
    if not isinstance(kind, str) or kind not in types:
        raise ConfigError(f"unknown {what} {tag} {kind!r}")
    extra = set(spec) - {tag, *types[kind]}
    if extra:
        raise ConfigError(f"unknown {what} keys: {sorted(extra)}")
    return kind


def _number(spec, key, default=None):
    """spec[key] as a float; a missing key without default or a non-number is a ConfigError."""
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key!r} must be a number in {spec!r}")
    return float(value)


def _array(spec, key, what):
    """spec[key] as a float array; a missing, ragged, non-numeric or empty one is a ConfigError."""
    try:
        array = np.asarray(spec[key], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"{what} {key!r} must be a rectangular array of numbers") from None
    if array.size == 0:
        raise ConfigError(f"{what} {key!r} has no entries")
    return array


def coefficient_from_spec(spec: dict, n: int):
    kind = _object(spec, "coefficient")
    if kind == "constant":
        return ConstantCoefficient(_number(spec, "value", 1.0))
    if kind == "checkerboard":
        return checkerboard_coefficient(_number(spec, "lo", 1.0), _number(spec, "hi", 4.0), n=n)
    if kind == "cell_table":
        return CellTableCoefficient(_array(spec, "table", "cell_table"), n=n)
    if kind == "smooth_expr":
        return _expr_coefficient(spec, n)
    # random_tiles
    law = law_from_spec(spec.get("law", {"kind": "uniform", "lo": 1.0, "hi": 2.0}))
    seed = spec.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"'seed' must be a non-negative integer in {spec!r}")
    return RandomTileCoefficient(law, seed)


def integrand_from_spec(spec: dict, n: int):
    if _object(spec, "integrand", "power") == "power":
        coeff = coefficient_from_spec(spec.get("coefficient", {"type": "constant", "value": 1.0}), n)
        return PowerIntegrand(coeff, alpha=_number(spec, "alpha", 2.0))
    # matrix_p
    matrix, m = _array(spec, "matrix", "matrix_p"), GroupParams(n).m
    if matrix.shape != (m, m):
        raise ConfigError(f"matrix_p 'matrix' must be 2n x 2n = {m} x {m}, got shape {matrix.shape}")
    return MatrixPowerIntegrand(matrix, p=_number(spec, "p", 2.0))


def law_from_spec(spec: dict):
    if _object(spec, "law") == "uniform":
        return UniformLaw(_number(spec, "lo"), _number(spec, "hi"))
    return TwoPointLaw(_number(spec, "a"), _number(spec, "b"), _number(spec, "prob", 0.5))


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return "%.12g" % v
    return str(v)


def _rows_to_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def write_output(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".heishom-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(command, cfg, header, rows, payload, fmt, out_path):
    if fmt == "csv":
        write_output(_rows_to_csv(header, rows), out_path)
    else:
        doc = {"schema": 1, "command": command, "config": cfg.to_json()}
        doc.update(_jsonify(payload))
        write_output(json.dumps(doc, indent=2, allow_nan=False) + "\n", out_path)


def _check_finite(value, name="report"):
    """Raise ``NumericalError`` at the first number of a report value, as
    ``_jsonify`` leaves it, that is not finite: JSON has no NaN or Infinity,
    and no result of a command holds one."""
    if isinstance(value, dict):
        for key, v in value.items():
            _check_finite(v, key)
    elif isinstance(value, list):
        for v in value:
            _check_finite(v, name)
    elif isinstance(value, float) and not math.isfinite(value):
        raise NumericalError(f"the reported {name!r} is not finite ({value})")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_verify(cfg, args):
    results = run_verification(n=cfg.n, seed=cfg.seed, samples=cfg.samples)
    for r in results:
        print(r.line(), file=sys.stderr)
    # wall times go to stderr only: emitted artifacts must be byte-identical
    # across runs of the same config.
    header = ["check", "passed", "max_error", "tol", "samples"]
    rows = [(r.name, r.passed, r.max_error, r.tol, r.samples) for r in results]
    payload = {"results": [
        {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_time_s"}
        for r in results
    ]}
    return header, rows, payload, all(r.passed for r in results)


def _cmd_cell(cfg, args):
    f = integrand_from_spec(cfg.integrand, cfg.n)
    sol = mu_q(f, cfg.q, cfg.t, cfg.M, n=cfg.n)
    header = ["t", "M", "energy", "energy_density", "iterations", "residual", "converged", "method"]
    row = (cfg.t, cfg.M, sol.energy, sol.energy / sol.u.grid.volume, sol.iterations,
           sol.residual, sol.converged, sol.method)
    return header, [row], dict(zip(header[2:], row[2:])), sol.converged


def _cmd_effective(cfg, args):
    f = integrand_from_spec(cfg.integrand, cfg.n)
    rep = energy_density_sequence(f, cfg.q, k_list=cfg.k_list, M=cfg.M, n=cfg.n)
    header = ["k", "e_k", "iterations", "residual"]
    rows = [(d["k"], d["e_k"], d["iterations"], d["residual"])
            for d in rep.diagnostics]
    return header, rows, dataclasses.asdict(rep), all(rep.verdicts.values())


def _cmd_sweep(cfg, args):
    f = integrand_from_spec(cfg.integrand, cfg.n)
    table = q_sweep(f, q_axis=cfg.q_axis, k_list=cfg.k_list, M=cfg.M, n=cfg.n,
                    threads=args.threads)
    header = [f"q{i + 1}" for i in range(table.qs.shape[1])] + ["f0"]
    rows = [tuple(qv) + (f0,) for qv, f0 in zip(table.qs, table.f0)]
    return header, rows, dataclasses.asdict(table), all(table.verdicts.values())


def _cmd_stochastic(cfg, args):
    law = law_from_spec(cfg.law)
    if cfg.delta:  # 0 turns the report off; its inputs are checked before any solve
        check_concentration_inputs(cfg.delta, cfg.n_samples, len(cfg.k_list))
    mc = monte_carlo_effective(
        law, cfg.q, k_list=cfg.k_list, n_samples=cfg.n_samples,
        base_seed=cfg.base_seed, alpha=cfg.alpha, M=cfg.M, n=cfg.n,
        threads=args.threads,
    )
    header = ["seed", "k", "e_k", "iterations"]
    rows = [(s, k, mc.e[i, j], mc.diagnostics[i][j]["iterations"])
            for i, s in enumerate(mc.seeds) for j, k in enumerate(mc.k_list)]
    payload = {
        "law": law.to_json(), "alpha": mc.alpha, "q": list(mc.q),
        "k_list": list(mc.k_list), "seeds": list(mc.seeds), "e": mc.e,
        "mean": mc.mean, "variance": mc.variance, "growth_ok": mc.growth_ok,
        "correlation_radius": mc.correlation_radius,
    }
    ok = mc.growth_ok
    if cfg.delta:
        conc = concentration_report(mc, cfg.delta)
        payload["concentration"] = dataclasses.asdict(conc)
        ok = ok and conc.ok
    return header, rows, payload, ok


def _cmd_ultimo(cfg, args):
    f = integrand_from_spec(cfg.integrand, cfg.n)
    rep = ultimo_check(f, cfg.q, cfg.t, rho=cfg.rho, M=cfg.M, n=cfg.n)
    header = ["t", "rho", "M", "energy_direct", "scaled_rescaled", "rel_diff", "ok"]
    rows = [(rep.t, rep.rho, cfg.M, rep.energy_direct, rep.scaled_rescaled, rep.rel_diff, rep.ok)]
    return header, rows, dataclasses.asdict(rep), rep.ok


def _cmd_recover(cfg, args):
    f = integrand_from_spec(cfg.integrand, cfg.n)
    x0 = cfg.x0 if cfg.x0 is not None else (0.0,) * GroupParams(cfg.n).N
    rep = recover_integrand_pointwise(f, x0, cfg.q, rho_list=cfg.rho_list, M=cfg.M, n=cfg.n)
    header = ["rho", "value", "error"]
    rows = list(zip(rep.rho_list, rep.values, rep.errors))
    return header, rows, dataclasses.asdict(rep), rep.strictly_decreasing


_HANDLERS = {
    "verify": _cmd_verify,
    "cell": _cmd_cell,
    "effective": _cmd_effective,
    "sweep": _cmd_sweep,
    "stochastic": _cmd_stochastic,
    "ultimo": _cmd_ultimo,
    "recover": _cmd_recover,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="heishom",
        description="Cell problems and effective integrands for degenerate "
                    "group-invariant energies.",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="JSON config file (defaults are used when omitted)")
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--threads", type=int, default=1, help="parallel independent solves")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed (verify) / base_seed (stochastic)")
    return p


def _finite_float(token):
    """A JSON number or NaN/Infinity token as a float; a non-finite one
    (NaN, Infinity, or a literal like 1e400) is a ConfigError."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config number {token} is not finite")
    return value


def _float_sized_int(token):
    """A JSON integer as an int; one too large for a float is a ConfigError
    (config numbers end up in float arithmetic)."""
    if not math.isfinite(float(token)):
        raise ConfigError(f"config integer {token} is too large for a float")
    return int(token)


def load_config(path) -> RunConfig:
    if not path:
        return RunConfig()
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=_finite_float, parse_int=_float_sized_int,
                             parse_constant=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return RunConfig.from_json(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            cfg.seed = args.seed
            cfg.base_seed = args.seed
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        header, rows, payload, ok = _HANDLERS[args.command](cfg, args)
        _check_finite(_jsonify([payload, rows]))  # before anything is written
        emit(args.command, cfg, header, rows, payload, args.format, args.out)
        return 0 if ok else 1
    except NumericalError as exc:
        print(f"heishom: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        # a grid too large to allocate is a config the machine cannot run
        print(f"heishom: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
