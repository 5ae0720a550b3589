"""The quick narrative demos run to completion without numpy warnings.

Demos 04 and 05 take tens of seconds each and are run by hand.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUICK_DEMOS = ["01_group_and_tiling.py", "02_grids_and_gradients.py", "03_cell_problems.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", os.path.join(ROOT, "demos", name)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
