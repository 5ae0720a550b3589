"""Every name a module exports through ``__all__`` exists in that module, and
importing the command line loads no more of scipy than it needs."""

import importlib
import os
import pkgutil
import subprocess
import sys

import heishom


def test_every_exported_name_resolves():
    modules = [heishom] + [importlib.import_module(f"heishom.{m.name}")
                           for m in pkgutil.iter_modules(heishom.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(modules) > 5 and missing == []


def test_cli_import_leaves_sparse_linalg_unloaded():
    """Only the multigrid coarse solve needs scipy.sparse.linalg; it is imported there."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(heishom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, heishom.cli; print('scipy.sparse.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["False"]
