"""The private scipy extension the solver calls.

``heishom.solve`` loads one compiled module straight from its file in
scipy's package directory, so that no solve imports scipy.sparse:
``scipy.sparse._sparsetools`` (``dia_matvec``, ``csr_matvec`` and
``csc_matvec``, the kernels behind ``dia_matrix @ v``, ``csr_matrix @ v`` and
``csc_matrix @ v``, which add into the caller's output vector).  It is not
public API, so a scipy release may move, rename or change it.  This module
imports nothing from heishom, so it still runs, and says why, when that
happens and every solver test fails at import.
"""

import importlib.machinery
import importlib.util
import os

import numpy as np
import pytest
import scipy

EXTENSIONS = ("scipy.sparse._sparsetools",)


def _broken(what):
    return f"scipy {scipy.__version__}: {what}; heishom.solve depends on it"


@pytest.mark.parametrize("name", EXTENSIONS)
def test_extension_files_are_in_scipys_directory(name):
    stem = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                        *name.split(".")[1:])
    found = [stem + s for s in importlib.machinery.EXTENSION_SUFFIXES if os.path.isfile(stem + s)]
    assert found, _broken(f"no compiled extension {stem}{{{','.join(importlib.machinery.EXTENSION_SUFFIXES)}}}")


def _sparsetools():
    try:
        from scipy.sparse import _sparsetools
    except ImportError as exc:
        pytest.fail(_broken(f"scipy.sparse._sparsetools is gone ({exc})"))
    return _sparsetools


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dia_matvec_exists_and_adds_into_its_output(dtype):
    y = np.array([10.0, 20.0, 30.0], dtype=dtype)
    offsets = np.array([-1, 0], dtype=np.int32)
    data = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]], dtype=dtype)  # DIA rows: A[c - o, c] at column c
    _sparsetools().dia_matvec(3, 3, 2, 3, offsets, data, np.ones(3, dtype=dtype), y)
    assert y.tolist() == [13.0, 25.0, 37.0], _broken(
        f"dia_matvec no longer adds A x into y (y = [10, 20, 30] became {y.tolist()}, "
        "expected [13, 25, 37])")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_csr_matvec_exists_and_adds_into_its_output(dtype):
    y = np.array([10.0, 20.0, 30.0], dtype=dtype)
    indptr = np.array([0, 1, 3, 4], dtype=np.int32)  # [[1, 0, 0], [2, 3, 0], [0, 0, 4]]
    indices = np.array([0, 0, 1, 2], dtype=np.int32)
    data = np.array([1.0, 2.0, 3.0, 4.0], dtype=dtype)
    _sparsetools().csr_matvec(3, 3, indptr, indices, data, np.ones(3, dtype=dtype), y)
    assert y.tolist() == [11.0, 25.0, 34.0], _broken(
        f"csr_matvec no longer adds A x into y (y = [10, 20, 30] became {y.tolist()}, "
        "expected [11, 25, 34])")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_csc_matvec_exists_and_adds_into_its_output(dtype):
    y = np.array([10.0, 20.0, 30.0], dtype=dtype)
    indptr = np.array([0, 2, 3, 4], dtype=np.int32)  # [[1, 0, 0], [2, 3, 0], [0, 0, 4]] by columns
    indices = np.array([0, 1, 1, 2], dtype=np.int32)
    data = np.array([1.0, 2.0, 3.0, 4.0], dtype=dtype)
    _sparsetools().csc_matvec(3, 3, indptr, indices, data, np.ones(3, dtype=dtype), y)
    assert y.tolist() == [11.0, 25.0, 34.0], _broken(
        f"csc_matvec no longer adds A x into y (y = [10, 20, 30] became {y.tolist()}, "
        "expected [11, 25, 34])")
