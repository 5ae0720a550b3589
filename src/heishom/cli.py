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

Exit status: 0 all verdicts pass, 1 a verdict failed, 2 configuration error.
"""

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from .checks import run_verification
from .heisenberg import GroupParams
from .homog import (
    HomogConfig,
    energy_density_sequence,
    q_sweep,
    recover_integrand_pointwise,
    ultimo_check,
)
from .integrands import (
    CellTableCoefficient,
    ConstantCoefficient,
    ConstantMatrixField,
    MatrixPowerIntegrand,
    PowerIntegrand,
    SmoothCoefficient,
    checkerboard_coefficient,
)
from .solve import SolverConfig, mu_q
from .stochastic import (
    RandomTileCoefficient,
    TwoPointLaw,
    UniformLaw,
    concentration_report,
    monte_carlo_effective,
)

COMMANDS = ("verify", "cell", "effective", "sweep", "stochastic", "ultimo", "recover")


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class RunConfig:
    """Everything a command might need; unknown keys are rejected."""

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
    trend_slack: float = 1e-6
    solver: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
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

    def solver_config(self) -> SolverConfig:
        try:
            return SolverConfig(**self.solver)
        except TypeError as exc:
            raise ConfigError(f"bad solver config: {exc}") from None


# ---------------------------------------------------------------------------
# integrand factory
# ---------------------------------------------------------------------------

_EXPR_NS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "minimum": np.minimum, "maximum": np.maximum, "pi": np.pi, "e": np.e,
}


def _expr_coefficient(spec, n):
    expr = spec.get("expr")
    if not expr:
        raise ConfigError("smooth_expr coefficient needs an 'expr' string")
    try:
        code = compile(expr, "<config>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expr: {exc}") from None
    N = GroupParams(n).N

    def fn(X):
        X = np.asarray(X, dtype=float)
        ns = dict(_EXPR_NS)
        ns.update({f"x{i + 1}": X[..., i] for i in range(N)})
        out = eval(code, {"__builtins__": {}}, ns)  # noqa: S307 - whitelisted names only
        return np.broadcast_to(np.asarray(out, dtype=float), X.shape[:-1]).copy()

    return SmoothCoefficient(
        fn,
        a_min=float(spec.get("a_min", 0.0)),
        a_max=float(spec.get("a_max", np.inf)),
        h_periodic=bool(spec.get("h_periodic", False)),
        description=expr,
    )


def coefficient_from_spec(spec: dict, n: int):
    kind = spec.get("type")
    if kind == "constant":
        return ConstantCoefficient(float(spec.get("value", 1.0)))
    if kind == "checkerboard":
        return checkerboard_coefficient(float(spec.get("lo", 1.0)), float(spec.get("hi", 4.0)), n=n)
    if kind == "cell_table":
        if "table" not in spec:
            raise ConfigError("cell_table coefficient needs a 'table' array")
        return CellTableCoefficient(np.asarray(spec["table"], dtype=float), n=n)
    if kind == "smooth_expr":
        return _expr_coefficient(spec, n)
    if kind == "random_tiles":
        law = law_from_spec(spec.get("law", {"kind": "uniform", "lo": 1.0, "hi": 2.0}))
        return RandomTileCoefficient(law, int(spec.get("seed", 0)), n=n)
    raise ConfigError(f"unknown coefficient type {kind!r}")


def integrand_from_spec(spec: dict, n: int):
    kind = spec.get("type", "power")
    if kind == "power":
        coeff = coefficient_from_spec(spec.get("coefficient", {"type": "constant", "value": 1.0}), n)
        return PowerIntegrand(coeff, alpha=float(spec.get("alpha", 2.0)))
    if kind == "matrix_p":
        if "matrix" not in spec:
            raise ConfigError("matrix_p integrand needs a 'matrix' (2n x 2n, symmetric positive)")
        field = ConstantMatrixField(np.asarray(spec["matrix"], dtype=float))
        return MatrixPowerIntegrand(field, p=float(spec.get("p", 2.0)))
    raise ConfigError(f"unknown integrand type {kind!r}")


def law_from_spec(spec: dict):
    kind = spec.get("kind")
    if kind == "uniform":
        return UniformLaw(float(spec["lo"]), float(spec["hi"]))
    if kind == "two_point":
        return TwoPointLaw(float(spec["a"]), float(spec["b"]), float(spec.get("prob", 0.5)))
    raise ConfigError(f"unknown law kind {spec.get('kind')!r}")


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
        write_output(json.dumps(doc, indent=2) + "\n", out_path)


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
    emit("verify", cfg, header, rows, payload, args.format, args.out)
    return 0 if all(r.passed for r in results) else 1


def _cmd_cell(cfg, args):
    f = integrand_from_spec(cfg.integrand, cfg.n)
    sol = mu_q(f, cfg.q, cfg.t, cfg.M, n=cfg.n, config=cfg.solver_config())
    from .grids import build_grid

    vol = build_grid(cfg.t, cfg.M, cfg.n).volume
    header = ["t", "M", "energy", "energy_density", "iterations", "residual", "converged", "method"]
    rows = [(cfg.t, cfg.M, sol.energy, sol.energy / vol, sol.iterations,
             sol.residual, sol.converged, sol.method)]
    payload = {"energy": sol.energy, "energy_density": sol.energy / vol,
               "iterations": sol.iterations, "residual": sol.residual,
               "converged": sol.converged, "method": sol.method}
    emit("cell", cfg, header, rows, payload, args.format, args.out)
    return 0 if sol.converged else 1


def _cmd_effective(cfg, args):
    f = integrand_from_spec(cfg.integrand, cfg.n)
    rep = energy_density_sequence(
        f, cfg.q, k_list=cfg.k_list, M=cfg.M, n=cfg.n,
        solver=cfg.solver_config(), trend_slack=cfg.trend_slack,
    )
    header = ["k", "e_k", "iterations", "residual"]
    rows = [(d["k"], d["e_k"], d["iterations"], d["residual"])
            for d in rep.diagnostics]
    payload = {"q": list(rep.q), "k_list": list(rep.k_list), "e": rep.e,
               "f0_estimate": rep.f0_estimate, "verdicts": rep.verdicts,
               "diagnostics": rep.diagnostics}
    emit("effective", cfg, header, rows, payload, args.format, args.out)
    ok = rep.verdicts["bounds_ok"] and rep.verdicts["solves_converged"] and rep.verdicts["monotone_trend_ok"]
    return 0 if ok else 1


def _cmd_sweep(cfg, args):
    f = integrand_from_spec(cfg.integrand, cfg.n)
    hc = HomogConfig(k_list=cfg.k_list, M=cfg.M, n=cfg.n,
                     solver=cfg.solver_config(), trend_slack=cfg.trend_slack)
    table = q_sweep(f, q_axis=cfg.q_axis, cfg=hc, threads=args.threads)
    m = table.qs.shape[1]
    header = [f"q{i + 1}" for i in range(m)] + ["f0"]
    rows = [tuple(qv) + (f0,) for qv, f0 in zip(table.qs, table.f0)]
    payload = {"qs": table.qs, "f0": table.f0, "verdicts": table.verdicts,
               "worst_convexity_violation": table.worst_convexity_violation,
               "worst_symmetry_gap": table.worst_symmetry_gap}
    emit("sweep", cfg, header, rows, payload, args.format, args.out)
    return 0 if all(table.verdicts.values()) else 1


def _cmd_stochastic(cfg, args):
    law = law_from_spec(cfg.law)
    mc = monte_carlo_effective(
        law, cfg.q, k_list=cfg.k_list, n_samples=cfg.n_samples,
        base_seed=cfg.base_seed, alpha=cfg.alpha, M=cfg.M, n=cfg.n,
        solver=cfg.solver_config(), threads=args.threads,
    )
    conc = concentration_report(mc, cfg.delta) if cfg.delta else None
    header = ["seed", "k", "e_k", "iterations"]
    rows = []
    for i, s in enumerate(mc.seeds):
        for j, k in enumerate(mc.k_list):
            rows.append((s, k, mc.e[i, j], mc.diagnostics[i][j]["iterations"]))
    payload = {
        "law": law.to_json(), "alpha": mc.alpha, "q": list(mc.q),
        "k_list": list(mc.k_list), "seeds": list(mc.seeds), "e": mc.e,
        "mean": mc.mean, "variance": mc.variance, "growth_ok": mc.growth_ok,
        "correlation_radius": mc.correlation_radius,
    }
    ok = mc.growth_ok
    if conc is not None:
        payload["concentration"] = {
            "delta": conc.delta, "pooled": conc.pooled,
            "frac_above": conc.frac_above, "frac_below": conc.frac_below,
            "total_exceedance": conc.total_exceedance,
            "inversions": conc.inversions, "ok": conc.ok,
        }
        ok = ok and conc.ok
    emit("stochastic", cfg, header, rows, payload, args.format, args.out)
    return 0 if ok else 1


def _cmd_ultimo(cfg, args):
    f = integrand_from_spec(cfg.integrand, cfg.n)
    rep = ultimo_check(f, cfg.q, cfg.t, rho=cfg.rho, M=cfg.M, n=cfg.n,
                       solver=cfg.solver_config())
    header = ["t", "rho", "M", "energy_direct", "scaled_rescaled", "rel_diff", "ok"]
    rows = [(rep.t, rep.rho, cfg.M, rep.energy_direct, rep.scaled_rescaled, rep.rel_diff, rep.ok)]
    payload = dataclasses.asdict(rep)
    emit("ultimo", cfg, header, rows, payload, args.format, args.out)
    return 0 if rep.ok else 1


def _cmd_recover(cfg, args):
    f = integrand_from_spec(cfg.integrand, cfg.n)
    x0 = cfg.x0 if cfg.x0 is not None else (0.0,) * GroupParams(cfg.n).N
    rep = recover_integrand_pointwise(f, x0, cfg.q, rho_list=cfg.rho_list,
                                      M=cfg.M, n=cfg.n, solver=cfg.solver_config())
    header = ["rho", "value", "error"]
    rows = list(zip(rep.rho_list, rep.values, rep.errors))
    payload = {"x0": list(rep.x0), "q": list(rep.q), "rho_list": list(rep.rho_list),
               "values": rep.values, "reference": rep.reference,
               "errors": rep.errors, "strictly_decreasing": rep.strictly_decreasing}
    emit("recover", cfg, header, rows, payload, args.format, args.out)
    return 0 if rep.strictly_decreasing else 1


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


def load_config(path) -> RunConfig:
    if not path:
        return RunConfig()
    try:
        with open(path) as fh:
            data = json.load(fh)
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
            cfg.seed = args.seed
            cfg.base_seed = args.seed
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        return _HANDLERS[args.command](cfg, args)
    except ValueError as exc:
        print(f"heishom: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
