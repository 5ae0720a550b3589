"""Command-line front end: configs, formats, exit codes."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from heishom.cli import RunConfig, coefficient_from_spec, integrand_from_spec, main


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


def test_n2_effective_and_ultimo(tmp_path):
    spec = {"type": "power", "alpha": 2.0,
            "coefficient": {"type": "checkerboard", "lo": 1.0, "hi": 4.0}}
    cfg = write_cfg(tmp_path, {"n": 2, "integrand": spec, "q": [1.0, 0.0, 0.0, 0.0],
                               "k_list": [1, 2], "t": 2.0, "M": 1})
    out = os.path.join(tmp_path, "eff.json")
    assert main(["effective", "--config", cfg, "--out", out, "--format", "json"]) == 0
    doc = json.loads(Path(out).read_text())
    assert all(doc["verdicts"][k] for k in ("bounds_ok", "monotone_trend_ok", "solves_converged"))
    # growth bounds c1 |q|^2 <= e_k <= c2 (|q|^2 + 1) with c1 = 1, c2 = 4, |q| = 1
    assert len(doc["e"]) == 2
    assert all(1.0 <= e <= 8.0 for e in doc["e"])
    out = os.path.join(tmp_path, "ult.json")
    assert main(["ultimo", "--config", cfg, "--out", out, "--format", "json"]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["ok"] is True
    assert doc["rel_diff"] <= 1e-10


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

def test_config_error_exit_codes(tmp_path):
    missing = os.path.join(tmp_path, "missing.json")
    assert main(["effective", "--config", missing]) == 2
    bad = write_cfg(tmp_path, {"unknown_key": 1})
    assert main(["effective", "--config", bad]) == 2
    notdict = os.path.join(tmp_path, "list.json")
    with open(notdict, "w") as fh:
        fh.write("[1, 2]")
    assert main(["effective", "--config", notdict]) == 2
    badgrid = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "t": 0.25, "M": 1})
    assert main(["cell", "--config", badgrid]) == 2
    badsolver = write_cfg(tmp_path, {"integrand": CHECKER_SPEC, "solver": {"kernel_probe": True}})
    assert main(["cell", "--config", badsolver]) == 2


@pytest.mark.parametrize("expr, bounds", [
    ("-1 + 0*x1", {"a_min": 1.0}),
    ("50 + 0*x1", {"a_min": 1.0, "a_max": 2.0}),
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
