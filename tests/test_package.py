"""Every name a module exports through ``__all__`` exists in that module, and
neither importing the command line nor running it imports scipy.sparse,
scipy.sparse.linalg or scipy.linalg: the solver loads the two compiled scipy
modules it calls by file (``heishom.solve._scipy_extension``)."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import heishom
from heishom.cli import main

SCIPY_PACKAGES = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg")


def test_every_exported_name_resolves():
    modules = [heishom] + [importlib.import_module(f"heishom.{m.name}")
                           for m in pkgutil.iter_modules(heishom.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(modules) > 5 and missing == []


def _fresh_python(code, *args):
    """Run ``python -c code args...`` with this checkout's heishom first on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(heishom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def test_cli_import_leaves_sparse_linalg_unloaded():
    code = f"import sys, heishom.cli; print([m for m in {SCIPY_PACKAGES!r} if m in sys.modules])"
    assert _fresh_python(code).stdout.split() == ["[]"]


_RUN = """
import json, sys
from heishom.cli import main
rc = main(sys.argv[1:])
print(json.dumps([rc, [m for m in {packages!r} if m in sys.modules]]))
"""

_CHECKER = {"type": "cell_table", "table": [[[1.0, 4.0], [4.0, 1.0]], [[4.0, 1.0], [1.0, 4.0]]]}


@pytest.mark.parametrize("command, config, flags, rc", [
    ("sweep", {"M": 2, "k_list": [1], "q_axis": [0.0, 1.0],
               "integrand": {"type": "power", "alpha": 3.0, "coefficient": _CHECKER}}, [], 0),
    ("effective", {"M": 4, "k_list": [1, 2],  # k = 2 has a smoothed level, then the coarse LU
                   "integrand": {"type": "power", "alpha": 2.0, "coefficient": _CHECKER}}, [], 0),
    ("stochastic", {"M": 2, "k_list": [1, 2], "n_samples": 8, "delta": 0.5}, ["--threads", "2"], 0),
    ("cell", {"qq": [1.0, 0.0]}, [], 2),
], ids=["sweep-alpha3", "effective-alpha2", "stochastic-threads2", "config-error"])
def test_commands_import_no_scipy_sparse(tmp_path, capsys, command, config, flags, rc):
    """Each command, run in a fresh interpreter, exits as in this process,
    writes the same bytes and leaves scipy.sparse, scipy.sparse.linalg and
    scipy.linalg unimported."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outs = [tmp_path / "fresh.json", tmp_path / "here.json"]
    argv = [command, "--config", str(cfg), "--format", "json"] + flags
    proc = _fresh_python(_RUN.format(packages=SCIPY_PACKAGES), *argv, "--out", str(outs[0]))
    assert json.loads(proc.stdout.splitlines()[-1]) == [rc, []], proc.stderr
    assert main(argv + ["--out", str(outs[1])]) == rc
    assert proc.stderr == capsys.readouterr().err
    if rc == 0:
        assert outs[0].read_bytes() == outs[1].read_bytes()
    else:
        assert not any(p.exists() for p in outs) and "config error" in proc.stderr
