"""The quick narrative demos run to completion without numpy warnings, and
every demo calls only heishom API that exists, with keywords it takes.

Demos 04 and 05 take tens of seconds each and are run by hand; the static
check below still covers them.
"""

import ast
import glob
import inspect
import os
import subprocess
import sys

import pytest

import heishom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUICK_DEMOS = ["01_group_and_tiling.py", "02_grids_and_gradients.py", "03_cell_problems.py"]
ALL_DEMOS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", os.path.join(ROOT, "demos", name)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def api_misuse(source):
    """Problems with the ``<alias>.<name>`` uses of ``import heishom as <alias>``:
    names heishom lacks, and call keywords the callee does not take."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "heishom"}

    def api_name(node):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            return node.attr
        return None

    problems = []
    for node in ast.walk(tree):
        name = api_name(node)
        if name is not None and not hasattr(heishom, name):
            problems.append(f"line {node.lineno}: heishom has no {name!r}")
        callee = api_name(node.func) if isinstance(node, ast.Call) else None
        if callee is None or not hasattr(heishom, callee):
            continue
        params = inspect.signature(getattr(heishom, callee)).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        for kw in node.keywords:
            if kw.arg is not None and kw.arg not in params:
                problems.append(f"line {node.lineno}: {callee}() takes no {kw.arg!r}")
    return problems


@pytest.mark.parametrize("name", ALL_DEMOS)
def test_demo_uses_existing_api(name):
    with open(os.path.join(ROOT, "demos", name)) as fh:
        assert api_misuse(fh.read()) == []


def test_api_misuse_flags_missing_names_and_keywords():
    src = "import heishom as hh\nhh.q_sweep(f, cfg=hh.NoSuchConfig(k_list=(1,)), M=2)\n"
    assert set(api_misuse(src)) == {
        "line 2: q_sweep() takes no 'cfg'",
        "line 2: heishom has no 'NoSuchConfig'",
    }
