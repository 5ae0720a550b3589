"""The private scipy kernel the quadratic solver's symmetric operator calls.

``solve._SymmetricDia`` applies K's lower diagonals from its stored upper
rows with ``scipy.sparse._sparsetools.dia_matvec``, the kernel behind
``dia_matrix @ v``, because only it adds into the caller's output vector.
It is not public API, so a scipy release may rename it or change what it
does.  This module imports nothing from heishom, so it still runs, and says
why, when that happens and every solver test fails at import.
"""

import numpy as np
import pytest


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dia_matvec_exists_and_adds_into_its_output(dtype):
    try:
        from scipy.sparse._sparsetools import dia_matvec
    except ImportError as exc:
        pytest.fail("scipy.sparse._sparsetools.dia_matvec is gone; solve._SymmetricDia "
                    f"needs a kernel that adds A x into y ({exc})")
    y = np.array([10.0, 20.0, 30.0], dtype=dtype)
    offsets = np.array([-1, 0], dtype=np.int32)
    data = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]], dtype=dtype)  # DIA rows: A[c - o, c] at column c
    dia_matvec(3, 3, 2, 3, offsets, data, np.ones(3, dtype=dtype), y)
    assert y.tolist() == [13.0, 25.0, 37.0], (
        "scipy.sparse._sparsetools.dia_matvec no longer adds A x into y "
        f"(y = [10, 20, 30] became {y.tolist()}, expected [13, 25, 37]); "
        "solve._SymmetricDia's product relies on it")
