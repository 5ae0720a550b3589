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
  stored once per coupling, by its diagonals of offset >= 0, and applied
  as a ``_Dia`` (``_symmetric``), bitwise the full DIA matrix's product.
  K and rhs are scaled once by 2^-e, e the exponent of K's largest
  diagonal entry (exact, so CG's iterates do not change), and CG runs on
  that float64 K; its residual, its stopping test and the energy are
  float64.  The V-cycle's coarse operators are Galerkin products
  computed by stencil in float64, one axis at a time, with no sparse-sparse
  product.  Its smoothed levels are float32, stored by diagonals (4-byte
  values and no index arrays in its memory-bound sweeps; level 0 is K's
  stored diagonals cast, each level below it its four blocks with no
  padding between them), each set up by one rule from the float32
  operator it applies, and the coarsest, at most ``_COARSE_UNKNOWNS``
  unknowns, is inverted in float64 by elimination in numpy (``_inverse``)
  and applied by ``einsum``.  A solve
  keeps no assembly input beside K: the factor S and the weighted corners
  are dropped once read, and the grid caches no matrix of cell centres.
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

``solve_cell`` looks the coefficients up once, solves once from the H-affine
trace, by ``_solve_quadratic`` when the integrand's ``quad_cells`` returns a
factor (it returns None otherwise) and by ``_solve_newton`` when it does
not, and recomputes the energy of the returned field from those
coefficients (the arithmetic of ``discrete_energy``, without its second
lookup).  No solve calls BLAS or LAPACK: inner products, the coarse
inverse and its product are numpy ufuncs and ``einsum``, so results do
not depend on the BLAS build or thread setting.  A
non-positive (or NaN) diagonal entry, coarse pivot or CG curvature, and a residual,
energy, Newton gradient or Hessian factor that is not finite, raise
``NumericalError``.  Solves are deterministic; distinct
problems share no mutable state.

A solve builds no scipy.sparse object and imports no scipy package.  It
calls three compiled scipy routines, ``dia_matvec``, ``csr_matvec`` and
``csc_matvec`` of ``scipy.sparse._sparsetools`` (the kernels of
``dia_matrix @ v``, ``csr_matrix @ v`` and ``csc_matrix @ v``), and this
module loads that one extension from its file (``_scipy_extension``), so
its products are bitwise those of the scipy objects.
The packages cost more than the solves that use them: on 2 cores (Python 3.11, numpy 2.4, scipy
1.17) ``import scipy.sparse`` takes 0.17-0.23 s and 22 MiB over numpy alone,
0.15-0.19 s of it in scipy's array-API layer importing ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``, and ``scipy.sparse.linalg`` 0.12 s and
10 MiB more (it imports scipy.linalg): 22 of the 61 MiB peak of an
alpha = 3 sweep that imports them.  Newton calls ``dia_matvec`` alone.
``gradient_operator`` imports scipy.sparse when called; only the tests and
the benchmark's statistics call it.
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


_sparsetools = _scipy_extension("scipy.sparse._sparsetools")  # dia_, csr_ and csc_matvec: y += A x
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
    corners = list(itertools.product((0, 1), repeat=N))
    signs = np.array([[1.0 if c[a] else -1.0 for a in range(N)] for c in corners])
    return corners, signs


def _corner_weights(grid):
    """w[i][a]: the weight of corner i in gradient component a, per cell.

    Component a differences along axis a plus the vertical difference times
    the frame's shear (-x_(n+a) / 2 for a < n, x_(a-n) / 2 otherwise), each
    averaged over the 2^(N-1) edges of the cell along that axis.  A weight
    depends on the corner only through its two signs, so the 2^N m entries
    share 4 m contiguous arrays of the cell shape.  Each is computed on the
    cell-centre axis its shear reads and then copied out over the cells, so
    no (C, N) matrix of centres is built.
    """
    N, n, m = grid.N, grid.n, grid.m
    corners, signs = _corner_signs(N)
    edge_w = 1.0 / (2 ** (N - 1))
    inv_steps = [1.0 / s for s in grid.steps]
    x = [grid.axis_broadcast(c, a) for a, c in enumerate(grid.cell_center_axes)]
    shear = [-0.5 * x[n + j] for j in range(n)] + [0.5 * x[j] for j in range(n)]
    w = {(a, sa, sv): np.broadcast_to(sa * edge_w * inv_steps[a] + shear[a] * (sv * edge_w * inv_steps[N - 1]),
                                      grid.cell_shape).copy()
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


def _corner_cells(nodes, c):
    """The cells whose corner c is at the interior nodes ``nodes`` (slices of
    the interior node grid): the nodes shifted by 1 - c."""
    return tuple(slice(x.start + 1 - ca, x.stop + 1 - ca) for x, ca in zip(nodes, c))


def _interior_transpose(grid, W, v):
    """(B^T v) on the interior nodes (flat, in ``interior_flat`` order) for
    per-cell values v of shape the cell shape + (m,).  A node adds its cells
    in ascending order (corner descending), each one component after another,
    to 0.0: the order of the CSC product ``gradient_operator(grid).T @ v``,
    which this is bitwise for the weights W of ``_corner_weights``."""
    corners, _ = _corner_signs(grid.N)
    R = np.zeros(tuple(s - 1 for s in grid.cell_shape))
    term = np.empty(R.shape)
    v_a = [v[..., a] for a in range(grid.m)]
    box = _box((0,) * grid.N, R.shape)  # every interior node
    if box is None:
        return R.reshape(-1)
    for i in reversed(range(len(corners))):
        cells = _corner_cells(box[0], corners[i])
        for a, v_at in enumerate(v_a):
            np.multiply(W[i][a][cells], v_at[cells], out=term)
            np.add(R, term, out=R)
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


class _Dia(NamedTuple):
    """A square matrix of n rows as an ordered tuple of calls of the kernel
    of ``dia_matrix @ v``: ``terms`` holds (offsets, data, row, col, size),
    a DIA of size rows and columns in scipy's layout (row k holds entry
    (c - offsets[k], c) at column c) placed at (row, col) of the matrix.
    ``A @ v`` makes the calls in order, each adding into one zero vector.

    Where every row meets its terms in ascending offset order, the product
    is bitwise that of the padded DIA of the whole matrix (one row per
    offset, ascending): the other terms of a padded row multiply stored
    zeros, and a sum that starts from +0.0 never turns -0.0, so they change
    no bit of it.  ``_symmetric`` and ``_block_dia`` build their terms in
    that order.
    """

    terms: tuple
    n: int

    @property
    def shape(self):
        return (self.n, self.n)

    @property
    def dtype(self):
        return self.terms[0][1].dtype

    def __matmul__(self, v):
        out = np.zeros(self.n, dtype=np.result_type(self.dtype, v))
        for offsets, data, row, col, size in self.terms:
            _dia_matvec(size, size, len(offsets), data.shape[1], offsets, data,
                        v[col:col + size], out[row:row + size])
        return out

    def diagonal(self):
        """The main diagonal, from the offset-0 rows of the terms on it."""
        out = np.zeros(self.n, dtype=self.dtype)
        for offsets, data, row, col, size in self.terms:
            if row == col and 0 in offsets:  # a term's offsets ascend, each once
                out[row:row + size] += data[np.searchsorted(offsets, 0), :size]
        return out

    def dense(self):
        """A as a dense array, each term's entries added into zeros, for the
        coarse inverse and the tests."""
        out = np.zeros(self.shape, dtype=self.dtype)
        for offsets, data, row, col, size in self.terms:
            for o, values in zip(offsets.tolist(), data):
                c = np.arange(max(0, o), min(size, size + o, values.size))  # the columns the kernel reads
                out[row + c - o, col + c] += values[c]
        return out

    def bandwidth(self):
        """The largest |offset| of A's entries, from the terms' offsets."""
        return max(abs(o + col - row) for offsets, _, row, col, _ in self.terms for o in offsets.tolist())


def _symmetric(data, offsets, mirrored=False):
    """K stored by its diagonals of offset >= 0 (``_normal_matrix``) as a
    ``_Dia``: each lower diagonal -o a view of the stored row o from column
    o on (A[c + o, c] = A[c, c + o]), most negative first, then the stored
    rows in one term, so each coupling is stored once.

    ``mirrored`` copies the lower diagonals into one term instead: two
    kernel calls per product, not one per diagonal.  Newton's inner PCG
    takes it for the threads, not for the matrix size: serial solves run as
    fast on the views, but on 2 threads under ``map_jobs`` (the alpha = 3
    sweep over {-1, 0, 1}^2 at k = 1, 2, on 2 cores) the 14 calls per
    product cost about 30% more wall time.  The quadratic path keeps the
    views, since the copy adds 13 rows to K (12.1 MiB at k = 4).
    """
    offsets = np.asarray(offsets, dtype=np.int32)
    n = data.shape[1]
    lower = [(-offsets[k:k + 1], data[k:k + 1, o:], 0, 0, n)
             for k, o in reversed(list(enumerate(offsets.tolist()))) if o]
    if mirrored:
        rows = np.zeros((len(lower), n), dtype=data.dtype)
        for row, (_, values, *_) in zip(rows, lower):
            row[:values.size] = values[0]
        lower = [(-offsets[:0:-1], rows, 0, 0, n)]
    return _Dia(tuple(lower) + ((offsets, data, 0, 0, n),), n)


def _normal_matrix(grid, V):
    """K on the interior nodes as (data, offsets), float64 and int32: its
    diagonals of offset >= 0, ascending from the main one, as ``dia_matrix``
    rows, summed from the weighted corners V of ``_weighted_corners``.  Each
    coupling is stored once; ``_symmetric`` makes the operator.

    An entry adds its cells in ascending order (corner i descending), each
    one component after another.
    """
    corners, _ = _corner_signs(grid.N)
    inner = tuple(s - 1 for s in grid.cell_shape)
    upper = {0: []}  # offset >= 0 -> [(i, j, cells, nodes)], i descending; offset 0 even with no interior
    for i in reversed(range(len(corners))):
        for j, cj in enumerate(corners):
            o = tuple(b - a for a, b in zip(corners[i], cj))
            box, offset = _box(o, inner), _flat_offset(o, inner)
            if box is not None and offset >= 0:  # with a box: offset > 0 iff o > 0 (lexicographic)
                upper.setdefault(offset, []).append((i, j, _corner_cells(box[0], corners[i]), box[1]))
    offsets = sorted(upper)
    data = np.zeros((len(offsets), math.prod(inner)))
    for diag, offset in zip(data, offsets):
        at = diag.reshape(inner)  # DIA keeps entry (col - offset, col) at column col: nodes at corner j
        for i, j, cells, nodes in upper[offset]:
            for a in range(grid.m):
                at[nodes] += V[i, a][cells] * V[j, a][cells]
    return data, np.array(offsets, dtype=np.int32)


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
# iterations on the checkerboard at k <= 5 or on the random-tile cells
# measured, and the residual, the stopping test and the energy stay float64,
# so the solution still meets TOL_RESIDUAL.  ``_solve_quadratic`` puts K's
# largest diagonal entry in [0.5, 1), so the float32 range limits no
# coefficient scale that float64 K takes.  A level operator is a 3^N-point
# stencil on its node grid (a 2 x 2 block of them on the augmented levels),
# so it has few diagonals and is stored by them: a DIA product streams the
# values alone, with no column indices.  Every level is one ``_Dia``, an
# ordered tuple of DIA kernel calls.  Level 0 is ``_symmetric`` on K's
# stored diagonals cast, each coupling stored once.  An augmented level
# (``_block_dia``) has three terms: its diagonal blocks in one DIA over both
# copies, A21 and A21^T in one-copy DIAs, so no value is stored outside the
# four blocks (1.53M values at k = 4 on level 1, against 2.30M in one padded
# DIA) and a product makes three kernel calls, not one per diagonal.  Every
# smoothed level, level 0 included, takes its inverse diagonal and Chebyshev
# interval from the float32 operator it stores and smooths with.  The
# interval must reach the top of the spectrum of D^-1 A, or the smoother
# amplifies the modes above it and the V-cycle is indefinite: a power
# iteration started from cos(i) fell 4-19% short on smooth, near-flat and
# some random-tile coefficients (CG took 1300 iterations on 2 + cos(x3) at
# k = 2).  Started from a hashed pseudo-random vector, 1.1 times its
# estimate covers them: the largest eigenvalue reads 0.92-0.97 of the bound
# on level 0 at k = 2..4 and 0.96-0.996 on the coarser levels.  That margin
# is measured, not proven.
#
# The coarsest level is inverted once per solve in float64, by an LDL^T
# elimination in numpy ufuncs and ``einsum`` (``_inverse``), and the V-cycle
# applies that inverse by ``einsum``: no solve calls BLAS or LAPACK, so none
# wakes a BLAS thread pool and no result depends on its thread setting.  At
# 400 unknowns the coarsest level of the M = 4 checkerboard holds 343
# unknowns at k = 1 (K itself, so that solve is exact: one CG iteration),
# 126, 64 and 270 at k = 2, 3, 4; the n = 2 cell's level of 486 unknowns is
# smoothed instead.  Below 343, K at k = 1 is smoothed and its CG takes 14
# iterations.

_COARSE_UNKNOWNS = 400    # invert directly at or below this size
_CHEB_DEGREE = 3
_CHEB_RATIO = 30.0        # smoothed part of the spectrum: [lmax / ratio, lmax]
_POWER_STEPS = 15


class _Csr(NamedTuple):
    """A matrix by scipy's CSR arrays: ``A @ v`` by the kernel of
    ``csr_matrix @ v``, and A^T v (``rmatvec``) by that of ``csc_matrix @ v``
    on the same arrays, bitwise the CSR product with ``A.T.tocsr()`` (each
    entry adds its terms to 0 in ascending order of A's rows)."""

    data: np.ndarray
    indices: np.ndarray  # int32, ascending in each row
    indptr: np.ndarray   # int32
    shape: tuple

    def __matmul__(self, v):
        out = np.zeros(self.shape[0], dtype=np.result_type(self.data, v))
        _sparsetools.csr_matvec(*self.shape, self.indptr, self.indices, self.data, v, out)
        return out

    def rmatvec(self, v):
        nr, nc = self.shape
        out = np.zeros(nc, dtype=np.result_type(self.data, v))
        _sparsetools.csc_matvec(nc, nr, self.indptr, self.indices, self.data, v, out)
        return out


class _Level(NamedTuple):
    """One smoothed level of the V-cycle, for the normalised K; every array is float32."""

    A: _Dia              # level 0 K's stored diagonals (each coupling once), below the three block terms
    dinv: np.ndarray     # inverse diagonal of A
    cheb: tuple          # (theta, delta, sigma) of ``_chebyshev``
    P: _Csr              # interpolation onto each copy of the node grid (two below level 0)
    sign: np.ndarray     # (-1)^(i+j+...) on the first level, None below it


def _interpolation(shape):
    """Linear interpolation onto the interior nodes of ``shape`` from every
    second node (grid indices 2, 4, ...) of each axis with at least 3 of them;
    shorter axes are kept.  Returns the float32 ``_Csr`` of the Kronecker
    product of the axes' interpolations and the coarse shape.

    The product is built from the last axis outwards, one ``_kron`` per
    axis, straight into its nonzeros; a value is a product of 1s and 1/2s,
    exact in float32.  These are the arrays of ``sp.kron`` of the axes' CSR
    matrices, cast to float32.
    """
    coarse = tuple(nf if nf < 3 else nf // 2 for nf in shape)
    P = None
    for a in reversed(range(len(shape))):
        axis = _axis_interpolation(shape[a], coarse[a])
        P = axis if P is None else _kron(axis, P, math.prod(coarse[a + 1:]))
    return _Csr(*P, (math.prod(shape), math.prod(coarse))), coarse


def _axis_interpolation(nf, nc):
    """One axis's interpolation from nc coarse nodes, as CSR arrays (data,
    indices, indptr).  Fine node i of an axis of at least 3 nodes takes
    coarse node (i - 1) / 2 with weight 1 if i is odd, and i / 2 - 1 and
    i / 2, where they exist, with weight 1/2 each if it is even; an axis of
    fewer nodes is kept (the identity)."""
    i = np.arange(nf, dtype=np.int32)
    if nf < 3:
        cols, w = i[:, None], np.ones((nf, 1))
    else:
        odd = i % 2 == 1
        cols = np.stack([(i - 1) // 2, i // 2], 1)
        w = np.stack([np.where(odd, 1.0, np.where(i >= 2, 0.5, 0.0)),
                      np.where(odd | (i // 2 >= nc), 0.0, 0.5)], 1)
    keep = w != 0
    indptr = np.zeros(nf + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return w[keep].astype(np.float32), cols[keep], indptr


def _kron(a, b, b_cols):
    """The CSR arrays (data, indices, indptr) of kron(A, B), from those of A
    and of B (b_cols columns).  Row (r, s) holds, for each entry of A's row
    r in turn, B's row s with its columns shifted by b_cols times that
    entry's column and its values times that entry's value, so its columns
    ascend.  Each row block r is written in one piece: B's rows, each
    repeated once per entry of A's row r."""
    (va, ja, ia), (vb, jb, ib) = a, b
    ca, cb = np.diff(ia), np.diff(ib)
    indptr = np.zeros(ca.size * cb.size + 1, dtype=np.int32)
    np.cumsum(np.multiply.outer(ca, cb), out=indptr[1:])
    data, indices = np.empty(indptr[-1], dtype=np.float32), np.empty(indptr[-1], dtype=np.int32)
    repeated = {}  # c -> (B's entry, which of A's c entries it pairs with) at each place of c copies
    for r, c in enumerate(ca.tolist()):
        if c not in repeated:
            run = np.repeat(cb, c * cb)  # the length of B's row at each place
            place = np.arange(c * ib[-1]) - np.repeat(c * ib[:-1], c * cb)  # within the repeated row
            repeated[c] = np.repeat(ib[:-1], c * cb) + place % run, place // run
        entry, which = repeated[c]
        at = slice(indptr[r * cb.size], indptr[(r + 1) * cb.size])
        e = ia[r] + which
        np.multiply(va[e], vb[entry], out=data[at])
        np.add(ja[e] * b_cols, jb[entry], out=indices[at])
    return data, indices, indptr


# The coarse levels, by stencil.  A level operator A on a node grid is read as
# its 3^N-point stencil, a_o[x] = A[x, x + o] for o in {-1, 0, 1}^N, zero where
# x + o is off the grid.  The interpolation is a tensor product of one-axis
# linear interpolations, so P^T A P is again a 3^N-point stencil, computed one
# axis at a time (black-box multigrid: Dendy, JCP 1982) with no sparse-sparse
# product.

_WEIGHTS = {-1: 0.5, 0: 1.0, 1: 0.5}  # coarse node I of an axis sits at fine node 2I + 1


def _dia_stencil(data, offsets, shape):
    """o -> the stencil array on the node grid shape of the symmetric matrix
    stored by its diagonals of offset >= 0 (``_normal_matrix``), as a new
    array.  A lower coupling (flat offset f < 0) is read from the stored row
    -f at the node itself: A[x, x + f] = A[x + f, x], kept at column x."""
    rows = {int(f): k for k, f in enumerate(offsets)}

    def a(o):
        out = np.zeros(shape)
        box, f = _box(o, shape), _flat_offset(o, shape)
        k = rows.get(abs(f))
        if box is not None and k is not None:
            x, y = box  # DIA keeps A[c - f, c] at column c
            out[x] = data[k].reshape(shape)[y if f >= 0 else x]
        return out
    return a


def _coarsen_axis(a, shape, d, symmetric):
    """The stencil of P_d^T A P_d, P_d the linear interpolation along axis d of
    nf >= 3 nodes from nc = nf // 2, from A's stencil a(o):

        c_s[I] = sum of w_p w_q a_r[2I + 1 + p] over p, q in {-1, 0, 1}
                 with r = 2s + q - p in {-1, 0, 1},

    over the I with I + s on the coarse axis and 2I + 1 + p on the fine one (a
    coupling off the grid is zero in a_r).  For a symmetric A, the offsets
    whose other axes start with a -1 are left out: ``_Stencils`` mirrors them
    when they are read.  Returns {o: c_o} and the coarse shape."""
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
    return c, coarse


class _Stencils(NamedTuple):
    """One block's stencil arrays o -> a_o on the node grid shape, as
    ``_coarsen_axis`` leaves them: every offset, or a symmetric block's
    offsets but those it leaves out.  Called with o, it returns a_o; an
    offset left out is mirrored, a_o[x] = a_(-o)[x + o], as a new array
    (``_block_dia`` reads the stored a_(-o) shifted instead)."""

    arrays: dict
    shape: tuple

    def __call__(self, o):
        a = self.arrays.get(o)
        return self._mirror(o) if a is None else a

    def pop(self, o):
        """a_o, no longer kept: a pass reads each offset once, so its input
        is freed as it goes (a mirror's source stays until it is popped)."""
        a = self.arrays.pop(o, None)
        return self._mirror(o) if a is None else a

    def _mirror(self, o):
        out = np.zeros(self.shape)
        box = _box(o, self.shape)
        if box is not None:
            out[box[0]] = self.arrays[tuple(-v for v in o)][box[1]]
        return out


def _galerkin(a, shape, symmetric):
    """P^T A P for P of ``_interpolation(shape)``, from A's stencil a(o), one
    pass per axis of at least 3 nodes: its ``_Stencils``.  A pass pops the
    previous pass's arrays as it reads them, so they are freed as it goes."""
    for d in range(len(shape)):
        if shape[d] >= 3:
            c, shape = _coarsen_axis(a, shape, d, symmetric)
            a = _Stencils(c, shape).pop
    return _Stencils(c, shape)


_SYMMETRIC = (True, False, True)  # of the blocks A11, A21, A22


def _augmented_stencils(data, offsets, shape, sign):
    """The stencil readers o -> array of K, S K and S K S, S = diag(sign),
    for K stored as ``_normal_matrix`` returns it; their ``_coarse_blocks``
    are the blocks of [P, S P]^T K [P, S P].  S K has the stencil sign(x)
    a_o(x) and S K S the stencil (-1)^(sum o) a_o: the signs enter the first
    pass one stencil array at a time, and no signed copy of K is built."""
    a = _dia_stencil(data, offsets, shape)

    def sk(o):
        v = a(o)
        v *= sign
        return v

    def sks(o):
        v = a(o)
        return np.negative(v, out=v) if sum(o) % 2 else v
    return a, sk, sks


def _coarse_blocks(stencils, shape):
    """The blocks (A11, A21, A22) of the next level, as ``_Stencils``, and
    its shape: the ``_galerkin`` product of each of the three ``stencils``,
    ``_augmented_stencils`` or the blocks of a coarse level."""
    A11, A21, A22 = (_galerkin(b, shape, sym) for b, sym in zip(stencils, _SYMMETRIC))
    return (A11, A21, A22), A11.shape


def _block_dia(blocks, shape, dtype):
    """The augmented level [[A11, A21^T], [A21, A22]] on two copies of the
    node grid shape (n nodes), from the ``_Stencils`` of its float64 blocks,
    as a ``_Dia`` of dtype, each value rounded once, with no padding between
    the blocks.  Its three terms are A21 as a DIA of n columns into the
    second copy's rows (at (n, 0)), A11 and A22 as one DIA over both copies
    (2n columns), and A21^T as a DIA of n columns into the first copy's
    rows (at (0, n)).  A row of the second copy meets A21's columns before
    its own, and a row of the first its own before A21^T's, so each row adds
    its terms in ascending offset order, as the padded DIA of the whole
    matrix does.

    Stencil offset o with flat offset f couples node i to node i + f of the
    flattened grid: A11[i, i + f] = a11_o[i], kept at column i + f of the
    DIA row of offset f, and so for A21 and A22 (at column n + i + f).
    A21^T[i, i + f] = A21[i + f, i] = a21_(-o)[i + f], read from the stored
    array shifted, as is a symmetric block's offset that is not stored.  A
    stencil array is zero where x + o is off the grid, so it is read over the
    whole flat range; where offsets share a diagonal (axes of 2 nodes), all
    but one of them read zero at each entry.  An all-zero stencil array adds
    no diagonal.  Each of the three DIAs is allocated once, at its final
    size, and its rows are summed from views of the stored arrays.
    """
    A11, A21, A22 = blocks
    n = math.prod(shape)
    pieces = ([], [], [])  # of lower, blocks, upper: (offset, first column, values)
    for o in itertools.product((-1, 0, 1), repeat=len(shape)):
        if _box(o, shape) is None:
            continue
        f = _flat_offset(o, shape)
        lo, hi = max(0, f), n + min(0, f)  # the columns i + f of the rows i with i + f on the grid

        def at(block, transposed=False):  # A[i, i + f] at those columns, or A^T[i, i + f]
            if transposed or o not in block.arrays:
                return block.arrays[tuple(-v for v in o)].reshape(-1)[lo:hi]
            return block.arrays[o].reshape(-1)[lo - f:hi - f]
        for k, a, first in ((1, at(A11), lo), (0, at(A21), lo), (1, at(A22), n + lo), (2, at(A21, True), lo)):
            if a.any():
                pieces[k].append((f, first, a))
    terms = []
    for (row, col, size), block in zip(((n, 0, n), (0, 0, 2 * n), (0, n, n)), pieces):
        offsets = sorted({f for f, _, _ in block})
        index = {f: i for i, f in enumerate(offsets)}
        data = np.zeros((len(offsets), size), dtype=dtype)
        for f, first, values in block:  # offsets that share a diagonal add zero to each other's entries
            data[index[f], first:first + values.size] += values
        terms.append((np.array(offsets, dtype=np.int32), data, row, col, size))
    return _Dia(tuple(terms), 2 * n)


def _chebyshev(A, dinv):
    """Interval of the degree-3 Chebyshev smoother on D^-1 A (Adams et al.,
    JCP 2003), as (theta, delta, sigma), from a level's float32 operator A and
    dinv = 1 / diag(A), with the smoother's own product (no float64 copy of A
    is made).

    The largest eigenvalue is 1.1 times a power-iteration estimate.  The
    start holds no structure of the grid, so it reaches the top modes of
    smooth coefficients too: entry i is the first output of splitmix64
    (Steele, Lea & Flood, OOPSLA 2014) seeded with i, mapped to [-1, 1).  It
    is hashed from the index on uint64 arrays, which wrap silently, so the
    smoother (and the V-cycle) is deterministic without a random generator.
    The three values are Python floats: under numpy 2 promotion a numpy
    float64 scalar would turn the float32 smoothing vectors into float64
    ones.
    """
    z = np.arange(A.shape[0], dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    v = ((z >> np.uint64(11)) * 2.0 ** -52 - 1.0).astype(dinv.dtype)
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


def _smoothed(size, shape):
    """Whether a level of size unknowns on the node grid shape is smoothed and
    coarsened again; the coarsest is inverted instead."""
    return size > _COARSE_UNKNOWNS and max(shape) >= 3


def _multigrid(data, offsets, shape):
    """One symmetric V-cycle for K on the interior node shape, as r -> z, K
    stored by (data, offsets) as ``_normal_matrix`` returns it.

    Levels are coarsened by ``_interpolation`` until at most
    ``_COARSE_UNKNOWNS`` unknowns remain, which ``_inverse`` inverts.  The first
    coarse space is [P, S P] with S = (-1)^(i+j+...), kept as a sign vector;
    later levels interpolate each half with P', bitwise blockdiag(P', P')
    (unbuilt: a row of it reads its own block alone).  Every coarse
    operator is a float64 Galerkin product by stencil, axis by axis, with no
    sparse matrix product: ``_coarse_blocks`` builds each level from the
    stencil readers of the one above it, first ``_augmented_stencils``.

    K is normalised (``_solve_quadratic``).  A smoothed level is a float32
    ``_Level``: its operator is ``_symmetric`` on K's stored diagonals cast
    on level 0, and below it the ``_Dia`` that ``_block_dia`` writes from
    the block stencils; P is a ``_Csr`` on one copy of its node grid.
    Every level's inverse diagonal and Chebyshev interval come from that
    float32 operator, by one rule.  The same writer gives the coarsest level
    in float64, which ``_inverse`` inverts.  With no smoothed level (K has at
    most ``_COARSE_UNKNOWNS`` unknowns) the map is the product with K's
    inverse, an exact solve to rounding.

    A level is set up in the order that keeps the transients apart: P
    (whose build peaks at about 1.3 times its size), the next level's
    blocks, then this level's float32 operator and its bounds.  At k = 4
    the set-up's traced peak is 42.8 MiB, where level 1's float32 operator
    is set up beside its own float64 blocks and the next level's, against
    44.5 MiB in the CG iterations (tracemalloc; Python 3.11, numpy 2.4).
    """
    if not _smoothed(data.shape[1], shape):
        K = _symmetric(data, offsets)
        _positive_diagonal(K)
        return functools.partial(_coarse_solve, _inverse(K))

    def operator(dtype):
        return _symmetric(data.astype(dtype), offsets)
    sign = ((-1.0) ** np.indices(shape).sum(axis=0)).astype(np.float32)  # +-1: exact in either precision
    levels, stencils = [], _augmented_stencils(data, offsets, shape, sign)
    while True:  # operator(dtype): this level's matrix; stencils: its stencil readers
        P, _ = _interpolation(shape)
        blocks, shape = _coarse_blocks(stencils, shape)
        A = operator(np.float32)  # after the coarse blocks, so the two transients do not meet
        dinv = 1.0 / _positive_diagonal(A)
        levels.append(_Level(A, dinv, _chebyshev(A, dinv), P, None if levels else sign.reshape(-1)))
        operator, stencils = functools.partial(_block_dia, blocks, shape), blocks  # rebound: frees this level's
        if not _smoothed(2 * math.prod(shape), shape):
            break
    coarse = operator(np.float64)
    _positive_diagonal(coarse)
    return functools.partial(_precondition, levels, _inverse(coarse))


def _inverse(A):
    """A^-1 for the symmetric positive definite float64 ``_Dia`` A, a dense
    array, by LDL^T elimination in numpy ufuncs and ``einsum``: no BLAS or
    LAPACK call, so its bits depend on no BLAS build or thread setting.

    A's unit lower factor L keeps A's half-bandwidth w (its largest
    |offset|).  Column k of L and the pivot d_k are A's column k less the
    earlier columns' terms, one ``einsum`` over at most w of them
    (left-looking, in place of A's lower triangle).  Then L^-1 is formed a
    row at a time, scaled by D^-1, and A^-1 = L^-T D^-1 L^-1 solved from
    the last row up; each row is computed up to the diagonal alone, and the
    upper triangle is the lower one mirrored, so A^-1 is exactly
    symmetric.  A pivot that is not positive (or NaN) raises
    ``NumericalError``.
    """
    n = A.shape[0]
    w = min(n - 1, A.bandwidth())
    L = A.dense()
    d = np.empty(n)
    for k in range(n):
        lo, hi = max(0, k - w), min(n, k + w + 1)
        v = L[k:hi, k] - np.einsum("ij,j->i", L[k:hi, lo:k], d[lo:k] * L[k, lo:k])
        if not v[0] > 0:
            raise NumericalError(f"the coarsest level has a pivot that is not positive ({v[0]:.3e})")
        d[k] = v[0]
        L[k + 1:hi, k] = v[1:] / v[0]
    X = np.eye(n)  # L^-1, then D^-1 L^-1, then the lower triangle of A^-1
    for i in range(1, n):
        lo = max(0, i - w)
        X[i, :i] -= np.einsum("j,jc->c", L[i, lo:i], X[lo:i, :i])
    X /= d[:, None]
    for k in reversed(range(n - 1)):
        hi = min(n, k + w + 1)
        X[k, :k + 1] -= np.einsum("i,ij->j", L[k + 1:hi, k], X[k + 1:hi, :k + 1])
    X += np.tril(X, -1).T
    return X


def _coarse_solve(inverse, b):
    """The coarse solve inverse @ b, by ``einsum`` (no BLAS call)."""
    return np.einsum("ij,j->i", inverse, b)


def _precondition(levels, coarse, r):
    """z = M^-1 r for a float64 r, through the float32 V-cycle on the levels.

    r is scaled by a power of two 2^-m (exact, and rounding commutes with
    it) so that its largest entry lies in [0.5, 1): the float32 range then
    limits neither a tiny nor a huge residual.  The V-cycle's result is
    scaled back by 2^m, again exactly.
    """
    m = math.frexp(float(np.max(np.abs(r))))[1]
    z = _vcycle(levels, coarse, (r / math.ldexp(1.0, m)).astype(np.float32))
    return np.ldexp(z.astype(np.float64), m)


def _vcycle(levels, coarse, b, level=0):
    if level == len(levels):
        return _coarse_solve(coarse, b.astype(np.float64)).astype(np.float32)
    lv = levels[level]
    x = _smooth(lv, b)
    r = b - lv.A @ x
    halves = r.reshape(2, -1) if lv.sign is None else (r, lv.sign * r)
    e1, e2 = _vcycle(levels, coarse, np.concatenate([lv.P.rmatvec(h) for h in halves]),
                     level + 1).reshape(2, -1)
    Pe1, Pe2 = lv.P @ e1, lv.P @ e2
    x += np.concatenate([Pe1, Pe2]) if lv.sign is None else Pe1 + lv.sign * Pe2
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


def _solve_quadratic(problem, coeffs, trace):
    """Assemble the normal system K x = rhs and run PCG on it from the trace;
    None when the integrand's ``quad_cells`` gives no factor S for coeffs.

    S is dropped once ``_weighted_corners`` has read it, and the weighted
    corners once K and rhs are summed, so neither is alive in the solve.
    K and rhs are scaled in place by 2^-e, e the exponent of K's largest
    diagonal entry (into [0.5, 1), for the float32 V-cycle), which changes
    no CG iterate.  rhs lies in the range of K, and the pinned boundary keeps
    K definite (the hourglass modes are nonzero there), so neither PCG nor
    the coarse inverse of the V-cycle needs regularisation.
    """
    grid = problem.grid
    S = problem.integrand.quad_cells(coeffs)
    if S is None:
        return None
    V = _weighted_corners(grid, S, _corner_weights(grid))
    del S
    interior = grid.interior_flat
    u_bd = trace.copy()
    u_bd[interior] = 0.0
    rhs = _normal_rhs(grid, V, u_bd)
    data, offsets = _normal_matrix(grid, V)
    del V, u_bd
    e = math.frexp(float(np.max(data[0], initial=0.0)))[1]  # the diagonal; a cell may have no interior node
    np.ldexp(data, -e, out=data)
    np.ldexp(rhs, -e, out=rhs)
    shape = tuple(s - 2 for s in grid.shape)
    return _pcg(_symmetric(data, offsets), rhs, trace[interior], lambda K: _multigrid(data, offsets, shape),
                TOL_RESIDUAL, MAX_ITER)


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
        K = _symmetric(*_normal_matrix(grid, _weighted_corners(grid, H, w)), mirrored=True)  # 2 calls, not 14
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
    trace = problem.boundary.trace(grid).reshape(-1)
    method, result = "cg", _solve_quadratic(problem, coeffs, trace)
    if result is None:
        method, result = "first_order", _solve_newton(problem, coeffs, trace)
    x, it, residual, converged = result
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
