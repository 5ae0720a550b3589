"""Command-line front end: configs, formats, exit codes."""

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from heishom.cli import RunConfig, coefficient_from_spec, integrand_from_spec, main
from heishom.homog import EffectiveIntegrandTable, HomogReport, RecoveryReport, UltimoReport


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = os.path.join(tmp_path, name)
    with open(p, "w") as fh:
        json.dump(payload, fh)
    return p


CHECKER_SPEC = {"type": "power", "alpha": 2.0,
                "coefficient": {"type": "checkerboard", "lo": 1.0, "hi": 4.0}}


# ---------------------------------------------------------------------------
# config round trip and factories
# ---------------------------------------------------------------------------

def test_runconfig_round_trip():
    cfg = RunConfig(q=(1.0, -0.5), k_list=(1, 2), M=2, integrand=CHECKER_SPEC)
    cfg2 = RunConfig.from_json(cfg.to_json())
    assert cfg2 == cfg


def test_runconfig_rejects_unknown_keys():
    from heishom.cli import ConfigError
    with pytest.raises(ConfigError):
        RunConfig.from_json({"qq": [1.0, 0.0]})


def test_integrand_factory_variants():
    f = integrand_from_spec(CHECKER_SPEC, 1)
    assert f.alpha == 2.0 and f.c2 == 4.0
    fm = integrand_from_spec(
        {"type": "matrix_p", "p": 2.0, "matrix": [[2.0, 0.0], [0.0, 1.0]]}, 1)
    assert fm.alpha == 2.0
    ft = integrand_from_spec(
        {"type": "power", "coefficient": {"type": "cell_table",
                                          "table": np.ones((2, 2, 2)).tolist()}}, 1)
    assert ft.c1 == 1.0
    fr = integrand_from_spec(
        {"type": "power", "coefficient": {"type": "random_tiles", "seed": 3,
                                          "law": {"kind": "two_point", "a": 1.0, "b": 4.0}}}, 1)
    assert fr.c2 == 4.0
    from heishom.cli import ConfigError
    with pytest.raises(ConfigError):
        integrand_from_spec({"type": "exotic"}, 1)
    with pytest.raises(ConfigError):
        coefficient_from_spec({"type": "nope"}, 1)


def test_smooth_expr_coefficient():
    c = coefficient_from_spec(
        {"type": "smooth_expr", "expr": "2 + sin(pi*x1)*sin(pi*x2)",
         "a_min": 1.0, "a_max": 3.0}, 1)
    x = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(c.values_at(x), [3.0, 2.0], rtol=1e-12)
    c = coefficient_from_spec(
        {"type": "smooth_expr", "expr": "1 + minimum(x3*x3, 3.0)", "a_min": 1.0}, 1)
    np.testing.assert_allclose(c.values_at(x), [1.0, 1.0], rtol=0)
    from heishom.cli import ConfigError
    with pytest.raises(ConfigError):
        coefficient_from_spec({"type": "smooth_expr", "expr": "2 +* broken"}, 1)


@pytest.mark.parametrize("expr", [
    "1 + 0*(().__class__.__base__.__subclasses__().__len__())",
    "(1.0).__class__.__name__ and 2",
    "x1.real",
    "x1[0]",
    "(lambda: 1)()",
    "sum([x1 for _ in (0, 1)])",
    "[x1 for _ in (0, 1)][0]",
    "'2'",
    "__import__('os').getpid()",
    "y1 + 1",
    "x4 + 1",
    "sin",
    "sin(x1, x2)",
    "minimum(x1, x2, x3)",
    "sin(x=x1)",
    "1 < x1 < 2",
    "True + x1",
])
def test_smooth_expr_rejects_escapes_at_load(expr):
    from heishom.cli import ConfigError
    with pytest.raises(ConfigError):
        coefficient_from_spec({"type": "smooth_expr", "expr": expr}, 1)


@pytest.mark.parametrize("expr", ["x1 + 1/0", "x1 + 10**400"])
def test_smooth_expr_arithmetic_failure_is_a_config_error(expr):
    from heishom.cli import ConfigError
    c = coefficient_from_spec({"type": "smooth_expr", "expr": expr, "a_min": 1.0}, 1)
    with pytest.raises(ConfigError, match="cannot evaluate"):
        c.values_at(np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# commands end to end
# ---------------------------------------------------------------------------

def test_verify_command(tmp_path, capsys):
    out = os.path.join(tmp_path, "verify.csv")
    rc = main(["verify", "--out", out])
    assert rc == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0].startswith("check,passed,")
    assert len(lines) == 4
    assert all(",true," in ln for ln in lines[1:])


def test_cell_command_json(tmp_path):
    cfg = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "q": [1.0, 0.0], "t": 1.0, "M": 2})
    out = os.path.join(tmp_path, "cell.json")
    rc = main(["cell", "--config", cfg, "--out", out, "--format", "json"])
    assert rc == 0
    doc = json.loads(Path(out).read_text())
    assert doc["schema"] == 1
    assert doc["command"] == "cell"
    assert doc["converged"] is True
    assert doc["energy"] > 0


def test_effective_command_csv(tmp_path):
    cfg = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "q": [1.0, 0.0],
                               "k_list": [1, 2], "M": 2})
    out = os.path.join(tmp_path, "eff.csv")
    rc = main(["effective", "--config", cfg, "--out", out])
    assert rc == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "k,e_k,iterations,residual"
    assert len(lines) == 3
    e1 = float(lines[1].split(",")[1])
    assert 1.0 <= e1 <= 2.5


def test_outputs_are_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "q": [1.0, 0.0],
                               "k_list": [1, 2], "M": 2, "samples": 500})
    for cmd, fmt in (("effective", "csv"), ("effective", "json"),
                     ("verify", "csv"), ("cell", "json")):
        a = os.path.join(tmp_path, f"{cmd}_a.{fmt}")
        b = os.path.join(tmp_path, f"{cmd}_b.{fmt}")
        assert main([cmd, "--config", cfg, "--out", a, "--format", fmt]) == 0
        assert main([cmd, "--config", cfg, "--out", b, "--format", fmt]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), f"{cmd}/{fmt} bytes differ between runs"


def test_sweep_command(tmp_path):
    cfg = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "q_axis": [-1.0, 0.0, 1.0],
                               "k_list": [1], "M": 2})
    out = os.path.join(tmp_path, "sweep.csv")
    rc = main(["sweep", "--config", cfg, "--out", out, "--threads", "2"])
    assert rc == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "q1,q2,f0"
    assert len(lines) == 10


def test_stochastic_command(tmp_path):
    cfg = write_cfg(tmp_path, {"law": {"kind": "two_point", "a": 1.0, "b": 4.0, "prob": 0.5},
                               "q": [1.0, 0.0], "k_list": [1, 2], "M": 2,
                               "n_samples": 8, "base_seed": 0, "delta": 0.5})
    out = os.path.join(tmp_path, "mc.json")
    rc = main(["stochastic", "--config", cfg, "--out", out, "--format", "json"])
    assert rc == 0
    doc = json.loads(Path(out).read_text())
    assert doc["schema"] == 1
    assert len(doc["seeds"]) == 8
    assert np.asarray(doc["e"]).shape == (8, 2)
    assert doc["concentration"]["ok"] is True
    assert doc["correlation_radius"] == pytest.approx(68.0 ** 0.25)


def test_stochastic_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, {"law": {"kind": "two_point", "a": 1.0, "b": 4.0},
                               "q": [1.0, 0.0], "k_list": [1], "M": 2,
                               "n_samples": 2, "delta": 0.0})
    o1 = os.path.join(tmp_path, "a.json")
    o2 = os.path.join(tmp_path, "b.json")
    assert main(["stochastic", "--config", cfg, "--out", o1, "--format", "json", "--seed", "5"]) == 0
    assert main(["stochastic", "--config", cfg, "--out", o2, "--format", "json", "--seed", "9"]) == 0
    assert json.loads(Path(o1).read_text())["seeds"] == [5, 6]
    assert json.loads(Path(o2).read_text())["seeds"] == [9, 10]


def test_ultimo_command(tmp_path):
    cfg = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "q": [1.0, 0.0],
                               "t": 2.0, "rho": 1.0, "M": 2})
    out = os.path.join(tmp_path, "ult.csv")
    rc = main(["ultimo", "--config", cfg, "--out", out])
    assert rc == 0
    rows = Path(out).read_text().strip().splitlines()
    assert rows[1].endswith("true")


def test_recover_command(tmp_path):
    spec = {"type": "power", "alpha": 2.0,
            "coefficient": {"type": "smooth_expr",
                            "expr": "2 + sin(pi*x1)*sin(pi*x2)",
                            "a_min": 1.0, "a_max": 3.0}}
    cfg = write_cfg(tmp_path, {"integrand": spec, "q": [1.0, 0.0],
                               "rho_list": [0.5, 0.25], "M": 2, "x0": [0.0, 0.0, 0.0]})
    out = os.path.join(tmp_path, "rec.csv")
    rc = main(["recover", "--config", cfg, "--out", out])
    assert rc == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "rho,value,error"
    errs = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert errs[1] < errs[0]


def test_recover_default_config_is_an_exact_recovery(tmp_path):
    """A constant coefficient is recovered exactly: errors of 0 pass the verdict."""
    out = os.path.join(tmp_path, "rec.csv")
    assert main(["recover", "--out", out]) == 0
    errs = [float(ln.split(",")[2]) for ln in Path(out).read_text().strip().splitlines()[1:]]
    assert max(errs) <= 1e-10


def test_n2_effective_and_ultimo(tmp_path):
    spec = {"type": "power", "alpha": 2.0,
            "coefficient": {"type": "checkerboard", "lo": 1.0, "hi": 4.0}}
    cfg = write_cfg(tmp_path, {"n": 2, "integrand": spec, "q": [1.0, 0.0, 0.0, 0.0],
                               "k_list": [1, 2], "t": 2.0, "M": 1})
    out = os.path.join(tmp_path, "eff.json")
    assert main(["effective", "--config", cfg, "--out", out, "--format", "json"]) == 0
    doc = json.loads(Path(out).read_text())
    assert all(type(v) is bool for v in doc["verdicts"].values())
    assert all(doc["verdicts"].values())
    # growth bounds c1 |q|^2 <= e_k <= c2 (|q|^2 + 1) with c1 = 1, c2 = 4, |q| = 1
    assert len(doc["e"]) == 2
    assert all(1.0 <= e <= 8.0 for e in doc["e"])
    out = os.path.join(tmp_path, "ult.json")
    assert main(["ultimo", "--config", cfg, "--out", out, "--format", "json"]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["ok"] is True
    assert doc["rel_diff"] <= 1e-10


def test_effective_exits_zero_iff_every_verdict_holds(tmp_path):
    """On the 1/4 checkerboard e_3 - e_2 is not below e_2 - e_1: the trend
    verdict fails, and so does the command."""
    cfg = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "k_list": [1, 2, 3], "M": 2})
    out = os.path.join(tmp_path, "eff.json")
    assert main(["effective", "--config", cfg, "--out", out, "--format", "json"]) == 1
    verdicts = json.loads(Path(out).read_text())["verdicts"]
    assert all(type(v) is bool for v in verdicts.values())
    assert verdicts["monotone_trend_ok"] is False


@pytest.mark.parametrize("command, report, cfg", [
    ("effective", HomogReport, {"k_list": [1, 2]}),
    ("sweep", EffectiveIntegrandTable, {"q_axis": [0.0, 1.0], "k_list": [1]}),
    ("ultimo", UltimoReport, {"t": 1.0}),
    ("recover", RecoveryReport, {"rho_list": [0.5, 0.25]}),
], ids=["effective", "sweep", "ultimo", "recover"])
def test_json_output_is_the_library_report(tmp_path, command, report, cfg):
    """After schema, command and config a JSON output holds the report's
    fields, in order."""
    out = os.path.join(tmp_path, "out.json")
    main([command, "--config", write_cfg(tmp_path, dict(cfg, M=2)), "--out", out, "--format", "json"])
    keys = list(json.loads(Path(out).read_text()))
    assert keys[:3] == ["schema", "command", "config"]
    assert keys[3:] == [f.name for f in dataclasses.fields(report)]


@pytest.mark.parametrize("command", ["verify", "cell", "effective", "sweep", "stochastic",
                                     "ultimo", "recover"])
def test_echoed_config_reproduces_the_output(tmp_path, command):
    """The config object of a JSON output, fed back as --config, gives the same bytes."""
    first, second = os.path.join(tmp_path, "first.json"), os.path.join(tmp_path, "second.json")
    cfg = write_cfg(tmp_path, {"M": 2, "k_list": [1, 2], "n_samples": 8})
    assert main([command, "--config", cfg, "--out", first, "--format", "json"]) == 0
    echo = write_cfg(tmp_path, json.loads(Path(first).read_text())["config"], "echo.json")
    assert main([command, "--config", echo, "--out", second, "--format", "json"]) == 0
    assert Path(second).read_bytes() == Path(first).read_bytes()


def test_stdout_when_no_out(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "q": [1.0, 0.0],
                               "t": 1.0, "M": 2})
    rc = main(["cell", "--config", cfg])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("t,M,energy,")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_config_error_exit_codes(tmp_path, capsys):
    missing = os.path.join(tmp_path, "missing.json")
    assert main(["effective", "--config", missing]) == 2
    bad = write_cfg(tmp_path, {"unknown_key": 1})
    assert main(["effective", "--config", bad]) == 2
    notdict = os.path.join(tmp_path, "list.json")
    with open(notdict, "w") as fh:
        fh.write("[1, 2]")
    assert main(["effective", "--config", notdict]) == 2
    overflow = os.path.join(tmp_path, "overflow.json")
    with open(overflow, "w") as fh:
        fh.write('{"t": 1e400}')  # parses to inf unless rejected
    assert main(["cell", "--config", overflow]) == 2
    badgrid = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "t": 0.25, "M": 1})
    assert main(["cell", "--config", badgrid]) == 2
    badsolver = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "solver": {"kernel_probe": True}})
    assert main(["cell", "--config", badsolver]) == 2
    tikhonov = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "solver": {"tikhonov": 1e-6}})
    assert main(["cell", "--config", tikhonov]) == 2
    # no method key: the integrand picks the path; no energy tolerance either
    for solver in ({"max_iter": 1.5}, {"tol_residual": "1e-12"},
                   {"method": "cg"}, {"tol_rel_energy": 1e-10}):
        capsys.readouterr()
        typed = write_cfg(tmp_path, {"M": 2, "t": 1, "solver": solver})
        assert main(["cell", "--config", typed]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("heishom: config error: ")


@pytest.mark.parametrize("command, payload, key", [
    ("cell", {"q": 5}, "'q'"),
    ("cell", {"integrand": "power"}, "'integrand'"),
    ("cell", {"t": None}, "'t'"),
    ("stochastic", {"law": {"kind": "uniform"}}, "'lo'"),
    ("effective", {"k_list": [1, "a"]}, "'k_list'"),
    ("cell", {"M": 2, "t": 1, "integrand": {"type": "power", "alpha": math.nan}}, "NaN"),
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "power", "coefficient": {"type": "constant", "value": math.inf}}}, "Infinity"),
    ("stochastic", {"M": 2, "k_list": [1, 2], "n_samples": 8, "delta": math.nan}, "NaN"),
    ("cell", {"M": 2, "t": 1, "integrand": {"type": "power", "alpha": 10**400}}, "config integer"),
    ("cell", {"M": 2, "t": 10**400}, "config integer"),
    ("cell", {"M": 10**400, "t": 1}, "config integer"),
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "power", "coefficient": {"type": "random_tiles", "seed": 1.5}}}, "'seed'"),
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "power", "coefficient": {"type": "random_tiles", "seed": -1}}}, "'seed'"),
    ("cell", {"n": 1.0}, "'n'"),
    ("cell", {"n": True}, "'n'"),
    ("verify", {"samples": 0}, "'samples'"),
    ("verify", {"samples": -5}, "'samples'"),
    ("verify", {"seed": -1}, "'seed'"),
    ("stochastic", {"base_seed": -1}, "'base_seed'"),
    ("verify --seed -3", {}, "--seed"),
    ("stochastic --seed -3", {}, "--seed"),
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "matrix_p", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}, "'matrix'"),
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "power", "coefficient": {"type": "cell_table", "table": [[[]]]}}}, "'table'"),
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "power", "coefficient": {"type": "cell_table", "table": [[[1, 2], [3]]]}}}, "'table'"),
    ("cell", {"M": 2, "t": 1, "integrand": {"type": "matrix_p", "matrix": [[1, "a"], [0, 1]]}},
     "'matrix'"),
    # the compiler's recursion limit, then the parser's (a MemoryError with no message)
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "power", "coefficient": {"type": "smooth_expr", "expr": "-" * 1000 + "x1"}}},
     "expr is nested too deeply"),
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "power", "coefficient": {"type": "smooth_expr", "expr": "-" * 50000 + "x1"}}},
     "expr is nested too deeply"),
    # a nested object takes its own type's keys alone
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "power", "coefficient": {"type": "constant", "value": 1, "foo": 2}}}, "'foo'"),
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "power", "coefficient": {"type": "checkerboard", "low": 1, "hi": 4}}}, "'low'"),
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "power", "coefficient": {"type": "smooth_expr", "expr": "1", "h_periodic": "no"}}},
     "'h_periodic'"),
    ("cell", {"M": 2, "t": 1, "integrand": {
        "type": "power", "coefficient": {"type": "random_tiles", "law": {
            "kind": "uniform", "lo": 1, "hi": 2, "prob": 0.5}}}}, "'prob'"),
    ("cell", {"M": 2, "t": 1, "integrand": {"alpah": 3}}, "'alpah'"),
    ("cell", {"M": 2, "t": 1, "integrand": {"type": "matrix_p", "matrix": [[1, 0], [0, 1]], "alpha": 3}},
     "'alpha'"),
    ("stochastic", {"law": {"kind": "two_point", "a": 1, "b": 4, "p": 0.5}}, "'p'"),
    ("stochastic", {"n_samples": 1, "delta": 0}, "'n_samples'"),
], ids=["q-number", "integrand-string", "t-null", "law-missing-lo", "k_list-string",
        "alpha-NaN", "value-Infinity", "delta-NaN", "alpha-huge-int", "t-huge-int",
        "M-huge-int", "seed-fractional", "seed-negative", "n-float", "n-bool",
        "samples-zero", "samples-negative", "verify-seed-negative", "base_seed-negative",
        "verify-flag-seed-negative", "stochastic-flag-seed-negative", "matrix-3x3-at-n1",
        "cell_table-empty", "cell_table-ragged", "matrix-string", "expr-nested-1000", "expr-nested-50000",
        "constant-foo", "checkerboard-low", "smooth_expr-h_periodic", "uniform-law-prob",
        "power-alpah", "matrix_p-alpha", "two_point-p", "n_samples-one"])
def test_malformed_config_values_are_config_errors(tmp_path, capsys, command, payload, key):
    """One config-error line that names the offending key or token, and exit 2."""
    cfg = write_cfg(tmp_path, payload)
    assert main(command.split() + ["--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("heishom: config error: ")
    assert key in err[0]


@pytest.mark.parametrize("payload, key", [
    ({"delta": -0.5}, "'delta'"),
    ({"n_samples": 4}, "'n_samples'"),
    ({"k_list": [2]}, "'k_list'"),
], ids=["delta-negative", "n_samples-under-8", "k_list-one-scale"])
def test_concentration_inputs_are_checked_before_any_solve(tmp_path, capsys, monkeypatch, payload, key):
    """A concentration report that cannot be made is a config error naming
    its key before the Monte Carlo solves start."""
    def refuse(*args, **kwargs):
        raise AssertionError("monte_carlo_effective called")

    monkeypatch.setattr("heishom.cli.monte_carlo_effective", refuse)
    cfg = write_cfg(tmp_path, payload)
    assert main(["stochastic", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("heishom: config error: ")
    assert key in err[0]


@pytest.mark.parametrize("expr, bounds", [
    ("-1 + 0*x1", {"a_min": 1.0}),
    ("50 + 0*x1", {"a_min": 1.0, "a_max": 2.0}),
    ("1 + sqrt(x1)", {"a_min": 1.0, "a_max": 3.0}),
])
def test_coefficient_outside_declared_bounds_is_a_config_error(tmp_path, capsys, expr, bounds):
    spec = {"type": "power", "alpha": 2.0,
            "coefficient": {"type": "smooth_expr", "expr": expr, **bounds}}
    cfg = write_cfg(tmp_path, {"integrand": spec, "q": [1.0, 0.0], "t": 1.0, "M": 2})
    assert main(["cell", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("heishom: config error: ")
    assert "declared bounds" in err[0]


@pytest.mark.parametrize("command, payload, names", [
    ("sweep", {"q_axis": []}, "q_axis"),
    ("recover", {"rho_list": []}, "rho_list"),
    ("recover", {"rho_list": [0.5, 0.5]}, "rho_list"),
    ("cell", {"n": 0}, "n must be"),
    # 56.8 PiB of cell centres: beyond any address space, so nothing is allocated
    ("cell", {"M": 100000, "t": 1}, "Unable to allocate"),
], ids=["sweep-empty-q_axis", "recover-empty-rho_list", "recover-repeated-rho",
        "cell-n-zero", "cell-grid-too-large"])
def test_inputs_that_solve_nothing_are_config_errors(tmp_path, capsys, command, payload, names):
    cfg = write_cfg(tmp_path, payload)
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("heishom: config error: ")
    assert names in err[0]


def test_verdict_failure_exit_code(tmp_path):
    # a coefficient that grows with |x3| makes the ladder increase: the
    # divisibility ordering e_2 <= e_1 fails and the command must signal it
    grower = {"type": "power", "alpha": 2.0,
              "coefficient": {"type": "smooth_expr",
                              "expr": "1 + minimum(x3*x3, 3.0)",
                              "a_min": 1.0, "a_max": 4.0}}
    cfg = write_cfg(tmp_path, {"integrand": grower, "q": [1.0, 0.0],
                               "k_list": [1, 2], "M": 2})
    rc = main(["effective", "--config", cfg, "--out", os.path.join(tmp_path, "g.csv")])
    assert rc == 1
    bad_threads = write_cfg(tmp_path, {"integrand": CHECKER_SPEC})
    assert main(["effective", "--config", bad_threads, "--threads", "0"]) == 2


def test_numerical_failure_exit_code(monkeypatch, capsys):
    from heishom import NumericalError

    def broken(*args, **kwargs):
        raise NumericalError("conjugate gradients met a non-positive curvature direction")

    monkeypatch.setattr("heishom.cli.mu_q", broken)
    assert main(["cell"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "heishom: numerical failure: conjugate gradients met a non-positive curvature direction"]


@pytest.mark.parametrize("cfg", [
    {"M": 4, "t": 2, "q": [1e155, 0.0]},  # the energy overflows to inf
    {"M": 4, "t": 1, "q": [1e300, 0.0]},  # CG's residual overflows to nan
    {"M": 4, "t": 1, "q": [1e155, 0.0],   # Newton's first energy overflows to inf
     "integrand": dict(CHECKER_SPEC, alpha=3.0)},
], ids=["energy_inf", "residual_nan", "newton_energy_inf"])
def test_non_finite_solve_is_a_numerical_failure(tmp_path, capsys, cfg):
    """A solve whose energy or residual is not finite is no converged result;
    it ends as one line on stderr, with no RuntimeWarning (an error here) and
    no traceback."""
    assert main(["cell", "--config", write_cfg(tmp_path, cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("heishom: numerical failure: ")


def test_matrix_p_growth_overflow_is_a_config_error(tmp_path, capsys):
    """|A q|^p whose bound eig_max**p overflows a float is a config error
    (exit 2) with one line on stderr, not an OverflowError traceback."""
    spec = {"type": "matrix_p", "p": 2.0, "matrix": [[1e200, 0], [0, 1e-200]]}
    assert main(["cell", "--config", write_cfg(tmp_path, {"t": 1.0, "M": 2, "integrand": spec})]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("heishom: config error: ")
    assert "p = 2.0" in err and "1e+200" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_report_value_is_a_numerical_failure(tmp_path, capsys, fmt):
    """A variance beyond the float range would print Infinity, which is not
    JSON: the report is refused before anything is written, with exit 3, one
    line on stderr, no RuntimeWarning (an error here) and no --out file."""
    cfg = write_cfg(tmp_path, {"k_list": [1], "n_samples": 2, "M": 2, "delta": 0,
                               "law": {"kind": "uniform", "lo": 1.0, "hi": 1e300}})
    for out_path in (None, os.path.join(tmp_path, f"report.{fmt}")):
        argv = ["stochastic", "--config", cfg, "--format", fmt] + (["--out", out_path] if out_path else [])
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["heishom: numerical failure: the reported 'variance' is not finite (inf)"]
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_json_output_is_strict_json(tmp_path):
    """``emit`` writes JSON with allow_nan=False: a non-finite value that
    reached it would raise, not print NaN or Infinity."""
    from heishom.cli import emit

    with pytest.raises(ValueError, match="JSON compliant"):
        emit("cell", RunConfig(), ["energy"], [(math.inf,)], {"energy": math.inf}, "json",
             os.path.join(tmp_path, "out.json"))
    assert os.listdir(tmp_path) == []
