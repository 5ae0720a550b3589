"""Cell problems: minimize the discrete energy over interior node values.

The discrete energy of a node field u is

    E(u) = sum_cells f(x_c, G_c u) * vol_c

with G_c the per-cell discrete horizontal gradient (a linear map of the
2^N corner values).  Boundary nodes are pinned to the prescribed trace and
the minimum value realizes the localized functional mu_q when the trace is
H-affine with slope q.

Three routes:

* ``dense_reference_minimum``  a dense solve for small quadratic problems
  (<= ``DENSE_MAX_UNKNOWNS``) probed through energy evaluations alone; it
  shares no assembly code with the iterative paths (an independent oracle).
* quadratic path (reported as method "cg"; alpha = 2 or p = 2, where
  ``quad_cells`` returns the factor S with f = |S q|^2)  CG on the normal
  system K = sum_c vol (S_c G_c)^T (S_c G_c) on the interior nodes, summed
  by stencil straight into its diagonals (``_normal_matrix``, no gradient
  operator built), preconditioned by one multigrid V-cycle
  (``_multigrid``), to a relative residual tolerance.  K is symmetric and
  stored once per coupling, by its diagonals of offset >= 0
  (``_SymmetricDia``, whose product is bitwise that of the full DIA
  matrix).  CG runs on that float64 K; its residual, its stopping test and
  the energy are float64.  The V-cycle's coarse operators are Galerkin
  products computed by stencil, one axis at a time, with no sparse-sparse
  product; its smoothed levels are float32 and their stencil operators are
  stored by diagonals (4-byte values and no index arrays in its
  memory-bound sweeps; level 0 is K's stored diagonals cast), its set-up
  and coarsest LU float64.
* first-order path (reported as "first_order"; any other convex integrand)
  inexact Newton, matrix-free in the gradient: the cell gradients B u and
  the gradient B^T flux are applied by stencil from the corner weights,
  bitwise the CSR and CSC products with ``gradient_operator`` (which no
  solve builds).  Each step assembles the normal matrix of S_c, the
  per-cell Hessian factor, by the same stencil and solves it by diagonals
  with Jacobi-PCG to the Eisenstat-Walker tolerance min(0.5,
  0.9 (|g_k| / |g_k-1|)^2) (SISC 1996), then backtracks on the energy
  (Armijo); it stops at max|g| <= max(TOL_GRAD, TOL_GRAD_REL max|g_0|)
  (0 steps at q = 0), unconverged when a step cannot decrease the energy.

The stopping rules are constants: a relative residual of ``TOL_RESIDUAL`` on
the quadratic path, max|g| <= max(``TOL_GRAD``, ``TOL_GRAD_REL`` max|g_0|) on
the Newton path (g_0 the gradient at the trace), and at most ``MAX_ITER`` CG
iterations, Newton steps and inner PCG iterations per solve.  A CG solve
whose start already meets its tolerance returns before it builds a
preconditioner.

``solve_cell`` looks the coefficients up once, calls ``_solve_quadratic`` when
the integrand's ``quad_cells`` returns a factor and ``_solve_newton``
otherwise, once from the H-affine trace, and recomputes the energy of
the returned field from those coefficients (the arithmetic of
``discrete_energy``, without its second lookup).  Inner products bypass
BLAS, so results do not depend on its thread setting (its only calls are in
the coarsest sparse LU).  A non-positive (or NaN) diagonal entry or CG
curvature, and a residual, energy, Newton gradient or Hessian factor that is
not finite, raise ``NumericalError``.  Solves are deterministic; distinct
problems share no mutable state.

A solve builds no scipy.sparse object and imports no scipy package.  It
calls three compiled scipy routines: ``dia_matvec`` and ``csr_matvec`` of
``scipy.sparse._sparsetools`` (the kernels of ``dia_matrix @ v`` and
``csr_matrix @ v``) and SuperLU's ``gstrf`` of
``scipy.sparse.linalg._dsolve._superlu`` (what ``splu`` calls), and this
module loads those two extensions from their files (``_scipy_extension``),
so results are bitwise those of the scipy objects.  The packages cost more
than the solves that use them: on 2 cores (Python 3.11, numpy 2.4, scipy
1.17) ``import scipy.sparse`` takes 0.17-0.23 s and 22 MiB over numpy alone,
0.15-0.19 s of it in scipy's array-API layer importing ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``, and ``scipy.sparse.linalg`` 0.12 s and
10 MiB more (it imports scipy.linalg): 22 of the 61 MiB peak of an
alpha = 3 sweep that imports them.  Newton calls ``dia_matvec`` alone.
``gradient_operator`` and ``_SymmetricDia.todia`` import scipy.sparse when
called; only the tests and the benchmark's statistics call them.
"""

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import (
    AnisoGrid,
    HAffineBoundary,
    ScalarField,
    build_grid,
    discrete_h_gradient,
)
from .integrands import Integrand, translate_integrand

__all__ = [
    "NumericalError",
    "CellProblem",
    "CellSolution",
    "discrete_energy",
    "solve_cell",
    "mu_q",
    "dense_reference_minimum",
    "check_translation_invariance",
    "TranslationInvarianceReport",
]


TOL_RESIDUAL = 1e-12   # stopping rule of the quadratic path: relative residual
TOL_GRAD = 1e-8        # Newton stop: max|gradient| <= max(TOL_GRAD, TOL_GRAD_REL max|gradient_0|)
TOL_GRAD_REL = 1e-12   # gradient_0: the gradient at the trace
MAX_ITER = 100_000     # bounds CG iterations, Newton steps and each inner solve
TOL_TRANSLATION = 1e-10  # relative energy gap allowed under a lattice translation
DENSE_MAX_UNKNOWNS = 500  # largest problem dense_reference_minimum takes


def _scipy_extension(name):
    """The compiled scipy module ``name``, loaded from its file in scipy's
    package directory without importing any scipy package, and registered in
    ``sys.modules`` under that name: a later ``import scipy.sparse`` reuses
    it, and one imported earlier is returned as it is.  A missing file raises
    an ``ImportError`` that names it."""
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(f"{name}: scipy is not installed", name=name)
    stem = os.path.join(scipy.submodule_search_locations[0], *name.split(".")[1:])
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((stem + s for s in suffixes if os.path.isfile(stem + s)), None)
    if path is None:
        raise ImportError(f"{name}: no compiled extension {stem}{{{','.join(suffixes)}}}",
                          name=name, path=stem)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_sparsetools = _scipy_extension("scipy.sparse._sparsetools")  # dia_matvec and csr_matvec: y += A x
_superlu = _scipy_extension("scipy.sparse.linalg._dsolve._superlu")  # gstrf, the factorisation of splu
_dia_matvec = _sparsetools.dia_matvec


@dataclass(frozen=True)
class CellProblem:
    grid: AnisoGrid
    integrand: Integrand
    boundary: HAffineBoundary


@dataclass
class CellSolution:
    u: ScalarField
    energy: float
    iterations: int
    residual: float
    converged: bool
    method: str


def discrete_energy(u: ScalarField, f: Integrand) -> float:
    """E(u) recomputed from scratch (never an accumulated solver quantity)."""
    return _energy(u, f, f.coefficients_at(u.grid.cell_centers))


def _energy(u, f, coeffs):
    """E(u) for coefficients already looked up at the cell centres of u's grid."""
    G = discrete_h_gradient(u).reshape(-1, u.grid.m)
    return float(np.sum(f.eval_cells(coeffs, G)) * u.grid.cell_volume)


# ---------------------------------------------------------------------------
# the discrete gradient: corner weights, a sparse operator, stencil products
# ---------------------------------------------------------------------------
#
# Cell c's gradient component a is sum_i w[i][a][c] u(c + corner i).  The
# solvers apply it and its transpose by stencil, one box slice of the node
# grid per corner, adding terms in the order scipy's CSR (B u) and CSC
# (B^T v) products with ``gradient_operator`` add them, so they are bitwise
# those products; ``gradient_operator`` is kept as the tests' oracle.

def _corner_signs(N):
    from itertools import product

    corners = list(product((0, 1), repeat=N))
    signs = np.array([[1.0 if c[a] else -1.0 for a in range(N)] for c in corners])
    return corners, signs


def _corner_weights(grid):
    """w[i][a]: the weight of corner i in gradient component a, per cell.

    Component a differences along axis a plus the vertical difference times
    the frame's shear (-x_(n+a) / 2 for a < n, x_(a-n) / 2 otherwise), each
    averaged over the 2^(N-1) edges of the cell along that axis.  A weight
    depends on the corner only through its two signs, so the 2^N m entries
    share 4 m contiguous arrays of the cell shape.
    """
    N, n, m = grid.N, grid.n, grid.m
    corners, signs = _corner_signs(N)
    edge_w = 1.0 / (2 ** (N - 1))
    inv_steps = [1.0 / s for s in grid.steps]
    x = grid.cell_centers.T.reshape((N,) + grid.cell_shape)
    shear = [-0.5 * x[n + j] for j in range(n)] + [0.5 * x[j] for j in range(n)]
    w = {(a, sa, sv): sa * edge_w * inv_steps[a] + shear[a] * (sv * edge_w * inv_steps[N - 1])
         for a in range(m) for sa in (-1.0, 1.0) for sv in (-1.0, 1.0)}
    return [[w[a, signs[i, a], signs[i, N - 1]] for a in range(m)] for i in range(len(corners))]


def gradient_operator(grid: AnisoGrid):
    """Sparse map from node values to stacked per-cell gradient components, a
    ``scipy.sparse.csr_matrix``.  No solve calls it: it is the tests' oracle,
    and it imports scipy.sparse when called.

    Row layout: cell-major, m components per cell.
    """
    import scipy.sparse as sp

    N, m = grid.N, grid.m
    C = grid.num_cells
    corners, _ = _corner_signs(N)
    w = _corner_weights(grid)

    idx = np.indices(grid.cell_shape).reshape(N, -1)
    col_of_corner = []
    for c in corners:
        col_of_corner.append(
            np.ravel_multi_index(tuple(idx[a] + c[a] for a in range(N)), grid.shape)
        )

    rows, cols, data = [], [], []
    cell_ids = np.arange(C)
    for comp in range(m):
        for ci in range(len(corners)):
            rows.append(cell_ids * m + comp)
            cols.append(col_of_corner[ci])
            data.append(w[ci][comp].reshape(-1))
    B = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(C * m, grid.num_nodes),
    )
    return B.tocsr()


def _cell_gradients(grid, W, u, order):
    """G[c, a] = sum_i W[i][a][c] u(c + corner i) for node values u, with the
    corners i added to 0.0 in the given order: shape the cell shape + (m,),
    contiguous, so ``reshape(-1, m)`` is the cell-major layout of B u.  With
    W the corner weights of ``_corner_weights`` and corners ascending it is
    bitwise ``gradient_operator(grid) @ u`` (a CSR row sums its columns in
    ascending order, and corner order is column order)."""
    corners, _ = _corner_signs(grid.N)
    cells = grid.cell_shape
    u = u.reshape(grid.shape)
    G = np.zeros(cells + (grid.m,))
    G_a = [G[..., a] for a in range(grid.m)]
    term = np.empty(cells)
    for i in order:
        at_corner = u[tuple(slice(c, c + s) for c, s in zip(corners[i], cells))]
        for a, G_at in enumerate(G_a):
            np.multiply(W[i][a], at_corner, out=term)
            np.add(G_at, term, out=G_at)
    return G


def _interior_transpose(grid, W, v):
    """(B^T v) on the interior nodes (flat, in ``interior_flat`` order) for
    per-cell values v of shape the cell shape + (m,).  A node adds its cells
    in ascending order (corner descending), each one component after another,
    to 0.0: the order of the CSC product ``gradient_operator(grid).T @ v``,
    which this is bitwise for the weights W of ``_corner_weights``."""
    corners, _ = _corner_signs(grid.N)
    cells = grid.cell_shape
    R = np.zeros(tuple(s - 1 for s in cells))
    term = np.empty(R.shape)
    v_a = [v[..., a] for a in range(grid.m)]
    for i in reversed(range(len(corners))):
        box = _pair_box(corners[i], corners[i], cells)
        if box is not None:
            cell_box, nodes = box
            at = R[nodes]
            for a, v_at in enumerate(v_a):
                np.multiply(W[i][a][cell_box], v_at[cell_box], out=term)
                np.add(at, term, out=at)
    return R.reshape(-1)


# ---------------------------------------------------------------------------
# the normal system, by stencil
# ---------------------------------------------------------------------------
#
# K = sum_c vol (S_c G_c)^T (S_c G_c) restricted to the interior nodes is a
# 3^N-point stencil: corner i of a cell meets corner j in the diagonal of the
# flat offset of c_j - c_i on the interior node grid.  It is summed straight
# into those diagonals, one box slice of the cell grid per corner pair, with
# no sparse matrix built.  Every entry and every right-hand side value is
# rounded as the sparse products B_i^T (S B_i) and B_i^T (S B u) round it
# (the same terms added in the same order), so K and rhs are bitwise those
# products (a Tier-1 test rebuilds them from ``gradient_operator``).


def _weighted_corners(grid, S, w):
    """V[i, a] = sqrt(vol) sum_b S_c[a, b] w[i][b]: corner i's weight in
    component a of the weighted gradient, per cell (shape (2^N, m) + the cell
    shape), from the corner weights w of ``_corner_weights``.

    S holds one scalar per cell (shape (C,)), one matrix for all cells
    (m, m), or one per cell (C, m, m); a matrix sums over b in ascending order.
    """
    m, cells = grid.m, grid.cell_shape
    sqv = np.sqrt(grid.cell_volume)
    V = np.empty((len(w), m) + cells)
    if np.ndim(S) == 1:
        sig = (S * sqv).reshape(cells)
        for i, wi in enumerate(w):
            for a in range(m):
                np.multiply(sig, wi[a], out=V[i, a])
        return V
    sig = np.broadcast_to(S, (grid.num_cells, m, m)) * sqv
    sig = np.moveaxis(sig, 0, -1).copy().reshape((m, m) + cells)  # contiguous per entry
    for i, wi in enumerate(w):
        for a in range(m):
            np.multiply(sig[a, 0], wi[0], out=V[i, a])
            for b in range(1, m):
                V[i, a] += sig[a, b] * wi[b]
    return V


def _pair_box(ci, cj, cell_shape):
    """The cells whose corners ci and cj are both interior nodes, as slices of
    the cell grid, and the interior nodes at their corner cj; None if no cell
    has both."""
    cells, nodes = [], []
    for a, size in enumerate(cell_shape):
        lo, hi = 1 - min(ci[a], cj[a]), size - max(ci[a], cj[a])
        if hi <= lo:
            return None
        cells.append(slice(lo, hi))
        nodes.append(slice(lo + cj[a] - 1, hi + cj[a] - 1))
    return tuple(cells), tuple(nodes)


class _Dia(NamedTuple):
    """A square matrix by its diagonals in scipy's DIA layout (row k holds
    A[c - offsets[k], c] at column c, offsets ascending), applied by the
    kernel of ``dia_matrix @ v``, so bitwise that product."""

    data: np.ndarray
    offsets: np.ndarray  # int32
    shape: tuple

    def __matmul__(self, v):
        n = self.shape[0]
        out = np.zeros(n, dtype=np.result_type(self.data, v))
        _dia_matvec(n, n, len(self.offsets), self.data.shape[1], self.offsets, self.data, v, out)
        return out

    def csc(self):
        """(data, indices, indptr): the CSC arrays of ``dia_matrix.tocsc()``,
        each column's nonzero entries with their rows ascending (offsets
        descending), int32 indices; zeros, -0.0 too, are dropped."""
        n = self.shape[0]
        data = self.data[::-1, :n].T  # column-major: column c, then offsets descending
        rows = np.arange(n, dtype=np.int32)[:, None] - self.offsets[::-1]
        keep = (rows >= 0) & (rows < n) & (data != 0)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
        return data[keep], rows[keep], indptr


class _SymmetricDia:
    """A symmetric matrix stored by its diagonals of offset >= 0 alone,
    offsets ascending from the main diagonal, each a full row laid out as a
    ``dia_matrix`` row (A[c - o, c] at column c).  It reads like a
    dia_matrix: ``A @ v``, ``diagonal()``, ``astype(dtype)``, ``full()``
    (every diagonal, a ``_Dia``, offsets ascending) and ``todia()`` (that
    ``scipy.sparse.dia_matrix``, for the tests).

    The lower diagonal -o is the stored row o from column o on: A[c + o, c]
    = A[c, c + o].  ``A @ v`` applies the lower diagonals one at a time
    (after ``mirrored()``, all in one call from a copy of them), most
    negative offset first, then the stored rows in one call, each call
    adding into the same zero vector with the kernel ``dia_matrix @`` calls.
    Every row so adds its terms in ascending offset order, as the product
    of ``full()`` does, and the two are bitwise equal.
    """

    def __init__(self, data, offsets):
        self.data, self.offsets = data, np.asarray(offsets, dtype=np.int32)
        self.dtype = data.dtype
        n = data.shape[1]
        self.shape = (n, n)
        # (length, offsets, rows) of each kernel call on the lower diagonals, most negative first
        self._lower = [(n - o, -self.offsets[k:k + 1], data[k, o:])
                       for k, o in reversed(list(enumerate(self.offsets.tolist()))) if o]

    def __matmul__(self, v):
        n = self.shape[0]
        out = np.zeros(n, dtype=np.result_type(self.data, v))
        for length, offsets, diags in self._lower:
            _dia_matvec(n, n, len(offsets), length, offsets, diags, v, out)
        _dia_matvec(n, n, len(self.offsets), n, self.offsets, self.data, v, out)
        return out

    def _lower_rows(self):
        """The lower diagonals, most negative first, as new DIA rows."""
        n, offsets = self.shape[0], self.offsets.tolist()
        rows = np.zeros((len(offsets) - 1, n), dtype=self.dtype)
        for row, k in zip(rows, reversed(range(1, len(offsets)))):
            row[:n - offsets[k]] = self.data[k, offsets[k]:]
        return rows

    def mirrored(self):
        """The same matrix with its lower diagonals copied out once, so that a
        product makes two kernel calls instead of one per diagonal: for small
        matrices, where the calls cost more than the copy's memory."""
        A = _SymmetricDia(self.data, self.offsets)
        A._lower = [(self.shape[0], -self.offsets[:0:-1], self._lower_rows())]
        return A

    def diagonal(self):
        return self.data[0].copy()

    def astype(self, dtype):
        return _SymmetricDia(self.data.astype(dtype), self.offsets)

    def full(self):
        offsets = np.concatenate([-self.offsets[:0:-1], self.offsets])
        return _Dia(np.concatenate([self._lower_rows(), self.data]), offsets, self.shape)

    def todia(self):
        import scipy.sparse as sp

        return sp.dia_matrix(self.full()[:2], shape=self.shape)


def _normal_matrix(grid, V):
    """K on the interior nodes as a float64 ``_SymmetricDia``: its diagonals
    of offset >= 0, ascending from the main one, summed from the weighted
    corners V of ``_weighted_corners``.  Each coupling is stored once.

    An entry adds its cells in ascending order (corner i descending), each
    one component after another.
    """
    corners, _ = _corner_signs(grid.N)
    inner = tuple(s - 1 for s in grid.cell_shape)
    strides = [math.prod(inner[a + 1:]) for a in range(grid.N)]
    upper = {0: []}  # offset >= 0 -> [(i, j, box)], i descending; offset 0 even with no interior
    for i in reversed(range(len(corners))):
        for j, cj in enumerate(corners):
            box = _pair_box(corners[i], cj, grid.cell_shape)
            offset = sum((b - a) * s for a, b, s in zip(corners[i], cj, strides))
            if box is not None and offset >= 0:  # with a box: offset > 0 iff c_j - c_i > 0 (lexicographic)
                upper.setdefault(offset, []).append((i, j, box))
    offsets = sorted(upper)
    data = np.zeros((len(offsets), math.prod(inner)))
    for diag, offset in zip(data, offsets):
        at = diag.reshape(inner)  # DIA keeps entry (col - offset, col) at column col
        for i, j, (cells, nodes) in upper[offset]:
            for a in range(grid.m):
                at[nodes] += V[i, a][cells] * V[j, a][cells]
    return _SymmetricDia(data, offsets)


def _normal_rhs(grid, V, u):
    """rhs = -sum_c vol G_c^T S_c^T S_c G_c u on the interior nodes, for node
    values u that are zero there (the pinned boundary's pull).  Each cell's
    weighted gradient of u adds its corners in descending order."""
    grad = _cell_gradients(grid, V, u, reversed(range(len(V))))
    return -_interior_transpose(grid, V, grad)


# ---------------------------------------------------------------------------
# dense reference (oracle for small quadratic problems)
# ---------------------------------------------------------------------------

def dense_reference_minimum(grid: AnisoGrid, f: Integrand, boundary):
    """Direct minimum of a quadratic discrete energy on a small grid.

    Builds the exact Hessian/gradient of the interior unknowns purely from
    energy evaluations (finite probing is exact for quadratic forms) and
    solves the dense normal system.  Returns (energy, ScalarField).
    """
    c = f.coefficients_at(grid.cell_centers)
    if f.quad_cells(c) is None:
        raise ValueError("dense reference requires an exactly quadratic energy")
    interior = grid.interior_flat
    k = len(interior)
    if k > DENSE_MAX_UNKNOWNS:
        raise ValueError(f"dense reference limited to {DENSE_MAX_UNKNOWNS} unknowns, got {k}")

    base = boundary.trace(grid).copy()
    base.reshape(-1)[interior] = 0.0

    def energy_of(vec):
        vals = base.copy()
        vals.reshape(-1)[interior] = vec
        return _energy(ScalarField(grid, vals), f, c)

    e0 = energy_of(np.zeros(k))
    if k == 0:
        return e0, ScalarField(grid, base)

    gplus = np.empty(k)
    gminus = np.empty(k)
    eye = np.eye(k)
    for i in range(k):
        gplus[i] = energy_of(eye[i])
        gminus[i] = energy_of(-eye[i])
    g = 0.5 * (gplus - gminus)
    Hdiag = gplus + gminus - 2.0 * e0
    H = np.diag(Hdiag)
    for i in range(k):
        for j in range(i + 1, k):
            eij = energy_of(eye[i] + eye[j])
            H[i, j] = H[j, i] = eij - e0 - g[i] - g[j] - 0.5 * (Hdiag[i] + Hdiag[j])

    try:
        v = np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        v, *_ = np.linalg.lstsq(H, -g, rcond=None)
    vals = base.copy()
    vals.reshape(-1)[interior] = v
    return energy_of(v), ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# iterative paths
# ---------------------------------------------------------------------------

class NumericalError(RuntimeError):
    """The assembled system or the iteration broke an assumption of the solver."""


def _dot(a, b):
    """Single-threaded inner product that never calls into BLAS.

    BLAS ``dot``/``nrm2`` split a reduction over the library's own thread
    pool, so their rounding (and with it CG iteration counts) would depend on
    the BLAS thread setting, and those pools contend with ``map_jobs`` worker
    threads.
    """
    return float(np.einsum("i,i->", a, b))


def _positive_diagonal(A):
    diag = A.diagonal()
    if not np.all(diag > 0):  # also catches NaN
        raise NumericalError("assembled normal system has diagonal entries that are not positive")
    return diag


# Multigrid preconditioner.  The sign field (-1)^(i+j+k) has zero discrete
# gradient in every cell (an hourglass mode of the edge-averaged stencil).
# Pinned to zero on the boundary and times a smooth envelope it is a
# near-kernel vector of K that no point smoother damps and no linear
# interpolation represents, so the first coarse space also holds the
# sign-flipped interpolants S P (near-kernel augmentation, as in smoothed
# aggregation).
#
# The smoothed levels run in float32, CG in float64 (mixed-precision
# multigrid: Goeddeke, Strzodka & Turek, IJPEDS 2007).  The V-cycle is memory
# bound and a preconditioner need not be exact: float32 values cost no CG
# iterations on the checkerboard at k <= 4 (up to 13 on some random-tile
# cells), and the residual, the stopping test and the energy stay float64, so
# the solution still meets TOL_RESIDUAL.  A level operator is a 3^N-point
# stencil on its node grid (a 2 x 2 block of them on the augmented levels),
# so it has few diagonals and is stored by them: a DIA product streams the
# values alone, with no column indices.  Level 0 is K's ``_SymmetricDia``
# cast, each coupling stored once; the augmented levels keep the full DIA
# layout: in a prototype, applying their diagonals one at a time cost more
# time than it saved.

_COARSE_UNKNOWNS = 1500   # factor directly at or below this size
_CHEB_DEGREE = 3
_CHEB_RATIO = 30.0        # smoothed part of the spectrum: [lmax / ratio, lmax]
_POWER_STEPS = 15


class _Csr(NamedTuple):
    """A matrix by scipy's CSR arrays, applied by the kernel of
    ``csr_matrix @ v``, so bitwise that product."""

    data: np.ndarray
    indices: np.ndarray  # int32, ascending in each row
    indptr: np.ndarray   # int32
    shape: tuple

    def __matmul__(self, v):
        out = np.zeros(self.shape[0], dtype=np.result_type(self.data, v))
        _sparsetools.csr_matvec(*self.shape, self.indptr, self.indices, self.data, v, out)
        return out

    def transpose(self):
        """The CSR arrays of the transpose, those of ``P.T.tocsr()``: each
        row's columns (this matrix's rows) ascending."""
        nr, nc = self.shape
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(np.arange(nr, dtype=np.int32), np.diff(self.indptr))
        indptr = np.zeros(nc + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.indices, minlength=nc), out=indptr[1:])
        return _Csr(self.data[order], rows[order], indptr, (nc, nr))

    def block_diagonal(self):
        """The CSR arrays of blockdiag(P, P), those of ``sp.block_diag``."""
        nr, nc = self.shape
        return _Csr(np.concatenate([self.data, self.data]),
                    np.concatenate([self.indices, self.indices + nc]),
                    np.concatenate([self.indptr, self.indptr[1:] + self.data.size]), (2 * nr, 2 * nc))


class _Level(NamedTuple):
    """One smoothed level of the V-cycle; every array is float32."""

    A: object            # by diagonals: level 0 a _SymmetricDia (each coupling once), below a _Dia
    dinv: np.ndarray     # inverse diagonal of A
    cheb: tuple          # (theta, delta, sigma) of ``_chebyshev``
    P: _Csr              # interpolation from the next level
    PT: _Csr
    sign: np.ndarray     # (-1)^(i+j+...) on the first level, None below it


def _interpolation(shape):
    """Linear interpolation onto the interior nodes of ``shape`` from every
    second node (grid indices 2, 4, ...) of each axis with at least 3 of them;
    shorter axes are kept.  Returns the float32 ``_Csr`` of the Kronecker
    product of the axes' interpolations and the coarse shape.

    Fine node i of an axis of at least 3 nodes takes coarse node (i - 1) / 2
    with weight 1 if i is odd, and i / 2 - 1 and i / 2, where they exist,
    with weight 1/2 each if it is even.  A row of the product takes one of
    two slots per axis (a zero weight marks an empty one), slots in
    lexicographic order, so its columns ascend; a value is a product of 1s
    and 1/2s, exact in float32.  These are the arrays of ``sp.kron`` of the
    axes' CSR matrices, cast to float32.
    """
    N = len(shape)
    coarse = tuple(nf if nf < 3 else nf // 2 for nf in shape)
    cols = np.zeros(shape + (2,) * N, dtype=np.int32)
    vals = np.ones(shape + (2,) * N, dtype=np.float32)
    for a, (nf, nc) in enumerate(zip(shape, coarse)):
        i = np.arange(nf, dtype=np.int32)
        if nf < 3:
            c, w = np.stack([i, i], 1), np.tile([1.0, 0.0], (nf, 1))
        else:
            odd = i % 2 == 1
            c = np.stack([(i - 1) // 2, i // 2], 1)
            w = np.stack([np.where(odd, 1.0, np.where(i >= 2, 0.5, 0.0)),
                          np.where(odd | (i // 2 >= nc), 0.0, 0.5)], 1)
        at = [1] * (2 * N)
        at[a], at[N + a] = nf, 2
        cols += (c * math.prod(coarse[a + 1:])).reshape(at)
        vals *= w.astype(np.float32).reshape(at)
    cols, vals = cols.reshape(-1, 2 ** N), vals.reshape(-1, 2 ** N)
    keep = vals != 0
    indptr = np.zeros(len(keep) + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return _Csr(vals[keep], cols[keep], indptr, (len(keep), math.prod(coarse))), coarse


# The coarse levels, by stencil.  A level operator A on a node grid is read as
# its 3^N-point stencil, a_o[x] = A[x, x + o] for o in {-1, 0, 1}^N, zero where
# x + o is off the grid.  The interpolation is a tensor product of one-axis
# linear interpolations, so P^T A P is again a 3^N-point stencil, computed one
# axis at a time (black-box multigrid: Dendy, JCP 1982) with no sparse-sparse
# product.

_WEIGHTS = {-1: 0.5, 0: 1.0, 1: 0.5}  # coarse node I of an axis sits at fine node 2I + 1


def _box(o, shape):
    """The nodes x with x + o on the grid, as slices, and the nodes x + o; None
    if there are none."""
    xs, ys = [], []
    for oa, n in zip(o, shape):
        lo, hi = max(0, -oa), n - max(0, oa)
        if hi <= lo:
            return None
        xs.append(slice(lo, hi))
        ys.append(slice(lo + oa, hi + oa))
    return tuple(xs), tuple(ys)


def _flat_offset(o, shape):
    return sum(oa * math.prod(shape[a + 1:]) for a, oa in enumerate(o))


def _dia_stencil(A, shape):
    """o -> a_o of the ``_SymmetricDia`` A on the node grid shape, as a new
    array.  A lower coupling (flat offset f < 0) is read from the stored row
    -f at the node itself: A[x, x + f] = A[x + f, x], kept at column x."""
    rows = {int(f): k for k, f in enumerate(A.offsets)}

    def a(o):
        out = np.zeros(shape)
        box, f = _box(o, shape), _flat_offset(o, shape)
        k = rows.get(abs(f))
        if box is not None and k is not None:
            x, y = box  # DIA keeps A[c - f, c] at column c
            out[x] = A.data[k].reshape(shape)[y if f >= 0 else x]
        return out
    return a


def _coarsen_axis(a, shape, d, symmetric):
    """The stencil of P_d^T A P_d, P_d the linear interpolation along axis d of
    nf >= 3 nodes from nc = nf // 2, from A's stencil a(o):

        c_s[I] = sum of w_p w_q a_r[2I + 1 + p] over p, q in {-1, 0, 1}
                 with r = 2s + q - p in {-1, 0, 1},

    over the I with I + s on the coarse axis and 2I + 1 + p on the fine one (a
    coupling off the grid is zero in a_r).  For a symmetric A, the offsets
    whose other axes start with a -1 are mirrored, c_o[x] = c_(-o)[x + o].
    Returns {o: c_o} and the coarse shape."""
    nf = shape[d]
    nc = nf // 2
    coarse = shape[:d] + (nc,) + shape[d + 1:]

    def along(lo, hi, first=0, step=1):
        idx = [slice(None)] * len(shape)
        idx[d] = slice(first + step * lo, first + step * (hi - 1) + 1, step)
        return tuple(idx)

    terms = []  # (s, r, w_p w_q, coarse nodes I, fine nodes 2I + 1 + p)
    for s, p, q in itertools.product((-1, 0, 1), repeat=3):
        r = 2 * s + q - p
        lo, hi = max(0, -s), min(nc - max(s, 0), (nf - p) // 2)
        if abs(r) <= 1 and hi > lo:
            terms.append((s, r, _WEIGHTS[p] * _WEIGHTS[q], along(lo, hi), along(lo, hi, 1 + p, 2)))
    c = {}
    for rest in itertools.product((-1, 0, 1), repeat=len(shape) - 1):
        if symmetric and rest < tuple(-v for v in rest):
            continue

        def at(r):
            return rest[:d] + (r,) + rest[d:]
        fine = {r: a(at(r)) for r in (-1, 0, 1)}
        out = {s: np.zeros(coarse) for s in (-1, 0, 1)}
        for s, r, w, to, frm in terms:
            out[s][to] += w * fine[r][frm]
        c.update((at(s), v) for s, v in out.items())
    for o in itertools.product((-1, 0, 1), repeat=len(shape)):
        if o not in c:
            c[o] = np.zeros(coarse)
            box = _box(o, coarse)
            if box is not None:
                c[o][box[0]] = c[tuple(-v for v in o)][box[1]]
    return c, coarse


def _galerkin(a, shape, symmetric):
    """P^T A P for P of ``_interpolation(shape)``, from A's stencil a(o), one
    pass per axis of at least 3 nodes: {o: c_o} and the coarse shape.  A pass
    pops the previous pass's arrays as it reads them, so they are freed as it
    goes."""
    for d in range(len(shape)):
        if shape[d] >= 3:
            c, shape = _coarsen_axis(a, shape, d, symmetric)
            a = c.pop
    return c, shape


_SYMMETRIC = (True, False, True)  # of the blocks A11, A21, A22


def _augmented_blocks(K, shape, sign):
    """The stencils of A11 = P^T K P, A21 = P^T S K P and A22 = P^T S K S P,
    the blocks of [P, S P]^T K [P, S P] with S = diag(sign), and the coarse
    shape.  S K has the stencil sign(x) a_o(x) and S K S the stencil
    (-1)^(sum o) a_o: the signs enter the first pass one stencil array at a
    time, and no signed copy of K is built."""
    a = _dia_stencil(K, shape)

    def sk(o):
        v = a(o)
        v *= sign
        return v

    def sks(o):
        v = a(o)
        return np.negative(v, out=v) if sum(o) % 2 else v

    (A11, coarse), (A21, _), (A22, _) = (
        _galerkin(b, shape, sym) for b, sym in zip((a, sk, sks), _SYMMETRIC))
    return (A11, A21, A22), coarse


def _coarse_blocks(blocks, shape):
    """The stencils of blockdiag(P, P)^T A blockdiag(P, P) for the augmented
    level A with the stencil blocks (A11, A21, A22): each block's Galerkin
    product, and the coarse shape."""
    (A11, coarse), (A21, _), (A22, _) = (
        _galerkin(b.__getitem__, shape, sym) for b, sym in zip(blocks, _SYMMETRIC))
    return (A11, A21, A22), coarse


class _BlockStencil:
    """The augmented level [[A11, A21^T], [A21, A22]] on two copies of the node
    grid shape, kept as the float64 stencils of its blocks and read like a
    dia_matrix: ``A @ v`` in float64, ``diagonal()``, ``astype(dtype)`` (a
    ``_Dia``, offsets ascending) and ``full()`` (the float64 one).

    Stencil offset o of a block with flat offset f couples node i to node
    i + f of the flattened grid: A[i, i + f] = a_o[i], and for A21^T
    a21_(-o)[i + f].  A stencil array is zero where x + o is off the grid, so
    it is read over the whole flat range; where offsets of different blocks
    share a diagonal, all but one of them read zero at each entry.  An
    all-zero stencil array adds no diagonal.  The product adds each row's
    terms in ascending offset order, as a DIA product does, so it is bitwise
    that of ``full()``, which is not built.
    """

    def __init__(self, blocks, shape):
        A11, A21, A22 = self.blocks = blocks
        self.center = (0,) * len(shape)
        n = self.n = math.prod(shape)
        self.shape = (2 * n, 2 * n)
        diagonals = {}  # DIA offset -> [(row block, column block, f, values at rows i or at i + f)]
        for o in itertools.product((-1, 0, 1), repeat=len(shape)):
            if _box(o, shape) is None:
                continue
            f = _flat_offset(o, shape)
            pieces = ((0, 0, A11[o], 0), (0, 1, A21[tuple(-v for v in o)], f),
                      (1, 0, A21[o], 0), (1, 1, A22[o], 0))
            for bi, bj, a, shift in pieces:
                if a.any():
                    diagonals.setdefault((bj - bi) * n + f, []).append(
                        (bi, bj, f, a.reshape(-1)[max(0, -f) + shift:n - max(0, f) + shift]))
        self.diagonals = sorted(diagonals.items())

    def __matmul__(self, v):
        n = self.n
        v, out = v.reshape(2, n), np.zeros((2, n))
        for _, pieces in self.diagonals:
            for bi, bj, f, a in pieces:
                out[bi, max(0, -f):n - max(0, f)] += a * v[bj, max(0, f):n + min(0, f)]
        return out.reshape(-1)

    def diagonal(self):
        A11, _, A22 = self.blocks
        return np.concatenate([A11[self.center].reshape(-1), A22[self.center].reshape(-1)])

    def astype(self, dtype):
        n = self.n
        data = np.zeros((len(self.diagonals), 2, n), dtype=dtype)
        for diag, (_, pieces) in zip(data, self.diagonals):
            for _, bj, f, a in pieces:
                diag[bj, max(0, f):n + min(0, f)] += a  # DIA keeps A[c - F, c] at column c
        offsets = np.array([f for f, _ in self.diagonals], dtype=np.int32)
        return _Dia(data.reshape(len(offsets), -1), offsets, self.shape)

    def full(self):
        return self.astype(np.float64)


def _chebyshev(A, dinv):
    """Interval of the degree-3 Chebyshev smoother on D^-1 A (Adams et al.,
    JCP 2003), as (theta, delta, sigma), from float64 A and dinv.

    The largest eigenvalue comes from power iterations started from a fixed
    vector, so the smoother (and the V-cycle) is deterministic.  The three
    values are Python floats: under numpy 2 promotion a numpy float64 scalar
    would turn the float32 smoothing vectors into float64 ones.
    """
    v = np.cos(np.arange(A.shape[0]))
    for _ in range(_POWER_STEPS):
        w = dinv * (A @ v)
        v = w / math.sqrt(_dot(w, w))
    hi = 1.1 * _dot(v, A @ v) / _dot(v, v / dinv)
    lo = hi / _CHEB_RATIO
    theta, delta = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return theta, delta, theta / delta


def _smooth(level, b, x=None):
    """Chebyshev sweeps on level.A x = b from x (zero if None), in float32."""
    A, dinv = level.A, level.dinv
    theta, delta, sigma = level.cheb
    r = dinv * (b if x is None else b - A @ x)
    d = r / theta
    x = d if x is None else x + d
    rho = 1.0 / sigma
    for _ in range(_CHEB_DEGREE - 1):
        r -= dinv * (A @ d)
        rho_new = 1.0 / (2.0 * sigma - rho)
        d = (rho_new * rho) * d + (2.0 * rho_new / delta) * r
        rho = rho_new
        x += d
    return x


def _multigrid(K, shape):
    """One symmetric V-cycle for K on the interior node shape, as r -> z.

    Levels are coarsened by ``_interpolation`` until at most
    ``_COARSE_UNKNOWNS`` unknowns remain, which ``_lu`` factors.  The first
    coarse space is [P, S P] with S = (-1)^(i+j+...), kept as a sign vector;
    later levels interpolate both halves with blockdiag(P', P').  Every coarse
    operator is a Galerkin product computed by stencil, axis by axis
    (``_augmented_blocks`` from K's stored diagonals, then
    ``_coarse_blocks``), and kept as the float64 stencils of its blocks
    (``_BlockStencil``): no sparse matrix product is formed and no CSR copy
    of K is made.

    Set-up is float64: the Galerkin stencils, the diagonals and the Chebyshev
    intervals (level 0's from K itself).  Each smoothed level is then kept as
    a float32 ``_Level``: level 0's operator is K, a ``_SymmetricDia``, cast
    (its stored diagonals of offset >= 0, each coupling once), and a coarser
    level's is written straight into float32 diagonals (a ``_Dia``); P and
    P^T are float32 ``_Csr`` arrays.  The coarsest LU factor stays float64
    and casts on the way in and out.  The returned map takes a float64 r to
    a float64 z through a float32 V-cycle; with no smoothed level (K has at
    most ``_COARSE_UNKNOWNS`` unknowns) it is the exact float64 LU solve.
    """
    levels = []
    A = K
    sign = ((-1.0) ** np.indices(shape).sum(axis=0)).astype(np.float32)  # +-1: exact in either precision
    while A.shape[0] > _COARSE_UNKNOWNS and max(shape) >= 3:
        P, _ = _interpolation(shape)
        dinv = 1.0 / _positive_diagonal(A)
        cheb = _chebyshev(A, dinv)
        if levels:
            P, S = P.block_diagonal(), None
        else:
            S = sign.reshape(-1)
        levels.append(_Level(A.astype(np.float32), dinv.astype(np.float32), cheb, P, P.transpose(), S))
        if len(levels) == 1:
            blocks, shape = _augmented_blocks(K, shape, sign)
        else:
            blocks, shape = _coarse_blocks(A.blocks, shape)
        A = _BlockStencil(blocks, shape)
    _positive_diagonal(A)
    coarse = _lu(A.full())
    if not levels:
        return coarse.solve
    return functools.partial(_precondition, levels, coarse)


def _lu(A):
    """SuperLU's factorisation of the float64 ``_Dia`` A: ``gstrf`` on A's
    CSC arrays with splu's default options, so bitwise ``splu(dia_matrix
    .tocsc())``; its ``solve`` is the coarse solve.  ``csc_construct_func``
    builds the factor's L and U, which nothing reads."""
    data, indices, indptr = A.csc()
    return _superlu.gstrf(A.shape[0], data.size, data, indices, indptr,
                          csc_construct_func=None, ilu=False, options={})


def _precondition(levels, coarse, r):
    """z = M^-1 r for a float64 r, through the float32 V-cycle.

    r is scaled by a power of two (exact, and rounding commutes with it)
    so that its largest entry lies in [0.5, 1): the float32 range then
    limits neither a tiny nor a huge residual.
    """
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(r))))[1])
    z = _vcycle(levels, coarse, (r / scale).astype(np.float32))
    return z.astype(np.float64) * scale


def _vcycle(levels, coarse, b, level=0):
    if level == len(levels):
        return coarse.solve(b.astype(np.float64)).astype(np.float32)
    lv = levels[level]
    x = _smooth(lv, b)
    r = b - lv.A @ x
    if lv.sign is None:
        x += lv.P @ _vcycle(levels, coarse, lv.PT @ r, level + 1)
    else:
        e = _vcycle(levels, coarse, np.concatenate([lv.PT @ r, lv.PT @ (lv.sign * r)]), level + 1)
        nc = lv.P.shape[1]
        x += lv.P @ e[:nc] + lv.sign * (lv.P @ e[nc:])
    return _smooth(lv, b, x)


def _jacobi(K):
    """The diagonal preconditioner r -> r / diag(K)."""
    D = K.diagonal()
    return lambda r: r / D


def _pcg(K, rhs, x0, preconditioner, tol_rel, max_iter):
    """Preconditioned conjugate gradients for SPD / consistent SPSD K.

    ``preconditioner(K)`` returns the map of a residual r to z = M^-1 r for a
    symmetric positive definite M.  It is built only if the starting residual
    misses ``tol_rel``, so a solve that starts converged sets none up.

    rhs and x0 are overwritten: the residual is formed in rhs and the iterate
    in x0, so no copies of them are alive during the preconditioner's
    set-up, where a solve's memory peaks.
    """
    _positive_diagonal(K)
    x, r = x0, rhs
    denom = math.sqrt(_dot(rhs, rhs))
    r -= K @ x
    denom = max(denom, math.sqrt(_dot(r, r)), 1e-300)
    relres = math.sqrt(_dot(r, r)) / denom
    if relres <= tol_rel:
        return x, 0, relres, True
    precond = preconditioner(K)
    z = precond(r)
    p = z.copy()
    rz = _dot(r, z)
    it = 0
    while relres > tol_rel and it < max_iter:
        Kp = K @ p
        pKp = _dot(p, Kp)
        if not pKp > 0:
            raise NumericalError(
                f"conjugate gradients met a non-positive curvature direction (pKp={pKp:.3e})"
            )
        alpha = rz / pKp
        x += alpha * p
        r -= alpha * Kp
        relres = math.sqrt(_dot(r, r)) / denom
        z = precond(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    return x, it, relres, relres <= tol_rel


def _solve_quadratic(problem, S, trace):
    """Assemble the normal system K x = rhs and run PCG on it from the trace.

    rhs lies in the range of K, and the pinned boundary keeps K definite (the
    hourglass modes are nonzero there), so neither PCG nor the coarse LU of
    the V-cycle needs regularisation.
    """
    grid = problem.grid
    interior = grid.interior_flat
    u_bd = trace.copy()
    u_bd[interior] = 0.0
    V = _weighted_corners(grid, S, _corner_weights(grid))
    rhs = _normal_rhs(grid, V, u_bd)
    K = _normal_matrix(grid, V)
    del V, u_bd
    shape = tuple(s - 2 for s in grid.shape)
    return _pcg(K, rhs, trace[interior], lambda K: _multigrid(K, shape), TOL_RESIDUAL, MAX_ITER)


_ARMIJO = 1e-4      # sufficient decrease, as a fraction of the directional slope
_MAX_HALVINGS = 40  # backtracking gives up below a step of 2^-40


def _solve_newton(problem, coeffs, trace):
    """Inexact Newton from the trace.  The corner weights of the gradient are
    computed once; the cell gradients B u and the gradient (B^T flux) on the
    interior nodes are applied by stencil from them (``_cell_gradients``,
    ``_interior_transpose``, bitwise the products with ``gradient_operator``,
    which is not built), and each step's normal matrix is assembled from
    them and its inner Jacobi-PCG runs on it by diagonals.

    The solve stops at max|g| <= max(TOL_GRAD, TOL_GRAD_REL max|g_0|), g_0
    the gradient at the trace.  Each inner solve runs on the gradient scaled
    by a power of two to a largest entry in [0.5, 1), which is exact, so a
    huge slope overflows none of its inner products.  ``MAX_ITER`` bounds
    the steps and each inner solve, whose tolerance stops at |r| <= tol / 2.
    An energy at the trace, a gradient or a Hessian factor that is not
    finite raises ``NumericalError``; a trial step whose energy is not finite
    is rejected."""
    grid, f = problem.grid, problem.integrand
    w, interior = _corner_weights(grid), grid.interior_flat
    ascending = range(2 ** grid.N)
    vol, full = grid.cell_volume, trace.copy()

    def energy(x):
        full[interior] = x
        G = _cell_gradients(grid, w, full, ascending).reshape(-1, grid.m)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed trial step is rejected
            return float(np.sum(f.eval_cells(coeffs, G)) * vol), G

    def finite(name, values):
        if not np.all(np.isfinite(values)):
            raise NumericalError(f"the Newton {name} is not finite")
        return values

    x = trace[interior].copy()
    E, G = energy(x)
    finite("energy", E)
    steps, gnorm_prev = 0, None
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            flux = f.grad_q_cells(coeffs, G) * vol
            g = finite("gradient", _interior_transpose(grid, w, flux.reshape(grid.cell_shape + (grid.m,))))
        gmax = float(np.max(np.abs(g))) if g.size else 0.0
        if steps == 0:
            tol = max(TOL_GRAD, TOL_GRAD_REL * gmax)
        if gmax <= tol or steps == MAX_ITER:
            return x, steps, gmax, gmax <= tol
        e = math.frexp(gmax)[1]
        gs = g * math.ldexp(1.0, -e)
        gnorm = math.ldexp(math.sqrt(_dot(gs, gs)), e)
        eta = 0.5 if gnorm_prev is None else min(0.5, 0.9 * (gnorm / gnorm_prev) ** 2)
        eta, gnorm_prev = max(eta, 0.5 * tol / gnorm), gnorm
        with np.errstate(over="ignore", invalid="ignore"):
            H = finite("Hessian factor", f.hessian_factor_cells(coeffs, G))
        K = _normal_matrix(grid, _weighted_corners(grid, H, w)).mirrored()  # 2 kernel calls per product, not 14
        del H
        d = _pcg(K, -gs, np.zeros_like(g), _jacobi, eta, MAX_ITER)[0] * math.ldexp(1.0, e)
        del K  # the next step's assembly should not overlap it
        slope = _dot(g, d)
        for s in 0.5 ** np.arange(_MAX_HALVINGS):
            E_new, G_new = energy(x + s * d)
            if E_new <= E + _ARMIJO * s * slope:
                break
        else:  # no decrease along d (or a NaN): stop unconverged at the last iterate
            return x, steps, gmax, False
        x, E, G, steps = x + s * d, E_new, G_new, steps + 1


def solve_cell(problem: CellProblem) -> CellSolution:
    """Minimize the discrete energy subject to the boundary trace."""
    grid = problem.grid
    coeffs = problem.integrand.coefficients_at(grid.cell_centers)
    S = problem.integrand.quad_cells(coeffs)
    trace = problem.boundary.trace(grid).reshape(-1)
    if S is not None:
        method = "cg"
        x, it, residual, converged = _solve_quadratic(problem, S, trace)
    else:
        method = "first_order"
        x, it, residual, converged = _solve_newton(problem, coeffs, trace)
    if not math.isfinite(residual):
        raise NumericalError(f"the {method} solve ended with residual {residual}")
    vals = trace.copy()
    vals[grid.interior_flat] = x
    u = ScalarField(grid, vals.reshape(grid.shape))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as a NumericalError
        energy = _energy(u, problem.integrand, coeffs)
    if not math.isfinite(energy):
        raise NumericalError(f"the energy of the {method} solution is {energy}")

    return CellSolution(
        u=u,
        energy=energy,
        iterations=it,
        residual=residual,
        converged=converged,
        method=method,
    )


def mu_q(f: Integrand, q, t, M, n=1) -> CellSolution:
    """Localized minimum over the dilated cell delta_t(Q) with H-affine datum q."""
    grid = build_grid(t, M, n)
    return solve_cell(CellProblem(grid, f, HAffineBoundary(tuple(np.atleast_1d(q)))))


# ---------------------------------------------------------------------------
# lattice translation invariance
# ---------------------------------------------------------------------------

@dataclass
class TranslationInvarianceReport:
    z: tuple
    coeffs_bitwise_equal: bool
    max_coeff_diff: float
    witness_cell: int
    energy_base: float
    energy_translated: float
    rel_energy_gap: float
    ok: bool


def check_translation_invariance(f: Integrand, q, z, t, M, n=1) -> TranslationInvarianceReport:
    """Compare the cell problem for f against the one for f(2z * ., .).

    For lattice-periodic f the per-cell integrand samples must agree bit for
    bit and the minima must coincide to ``TOL_TRANSLATION``.  For aperiodic f
    the report simply carries the witnessed mismatch.
    """
    z = np.asarray(z, dtype=float)
    grid = build_grid(t, M, n)
    g = translate_integrand(f, 2.0 * z)

    X = grid.cell_centers
    qrow = np.broadcast_to(np.asarray(q, dtype=float), (X.shape[0], grid.m))
    a0 = f.eval_cells(f.coefficients_at(X), qrow)
    a1 = g.eval_cells(g.coefficients_at(X), qrow)
    diff = np.abs(a0 - a1)
    wit = int(np.argmax(diff))

    bd = HAffineBoundary(tuple(np.atleast_1d(q)))
    e0 = solve_cell(CellProblem(grid, f, bd)).energy
    e1 = solve_cell(CellProblem(grid, g, bd)).energy
    gap = abs(e0 - e1) / max(1.0, abs(e0))
    equal = bool(np.all(a0 == a1))
    return TranslationInvarianceReport(
        z=tuple(z),
        coeffs_bitwise_equal=equal,
        max_coeff_diff=float(diff[wit]),
        witness_cell=wit,
        energy_base=e0,
        energy_translated=e1,
        rel_energy_gap=float(gap),
        ok=bool(equal and gap <= TOL_TRANSLATION),
    )
