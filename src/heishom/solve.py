"""Cell problems: minimize the discrete energy over interior node values.

The discrete energy of a node field u is

    E(u) = sum_cells f(x_c, G_c u) * vol_c

with G_c the per-cell discrete horizontal gradient (a linear map of the
2^N corner values).  Boundary nodes are pinned to the prescribed trace and
the minimum value realizes the localized functional mu_q when the trace is
H-affine with slope q.

Three routes:

* ``dense_reference_minimum``  a direct reference for small quadratic
  problems (<= 500 interior unknowns).  The Hessian and gradient are probed
  through energy evaluations alone, which is exact for quadratic energies,
  and the normal system is solved densely.  It shares no assembly code with
  the iterative paths, so it serves as an independent oracle.
* quadratic path (``method='cg'``)  assembles the sparse weighted gradient
  operator, forms the symmetric positive (semi)definite normal system and
  runs diagonally preconditioned conjugate gradients to a relative residual
  tolerance.  Valid exactly when the integrand reports a quadratic structure
  (power integrands with alpha = 2, matrix powers with p = 2).  Its inner
  products are single-threaded and bypass BLAS, so iteration counts and
  energies do not depend on the BLAS thread setting, and the path makes no
  BLAS call at all (scipy sparse matvecs, numpy ufunc updates).
* first-order path (``method='first_order'``)  limited-memory quasi-Newton
  descent (scipy L-BFGS-B) with the analytic energy gradient, for every
  other convex integrand.

``solve_cell`` looks the coefficients up once at the cell centres, computes
the H-affine boundary trace once and calls ``_solve_quadratic`` or
``_solve_first_order`` once, started from it: the affine field is also the
initial guess of the interior, and every objective call reuses the
coefficients.  ``discrete_energy`` makes its own single lookup.

A diagonal entry or a curvature on the quadratic path that is not positive
(NaN included) raises ``NumericalError``.

Solves are deterministic; distinct problems share no mutable state.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.sparse as sp

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
    "SolverConfig",
    "CellProblem",
    "CellSolution",
    "discrete_energy",
    "solve_cell",
    "mu_q",
    "dense_reference_minimum",
    "check_translation_invariance",
    "TranslationInvarianceReport",
]


@dataclass(frozen=True)
class SolverConfig:
    tol_rel_energy: float = 1e-10
    tol_grad: float = 1e-8
    tol_residual: float = 1e-12   # stopping rule of the quadratic path
    max_iter: int = 100_000
    method: str = "auto"          # auto | cg | first_order

    def __post_init__(self):
        if min(self.tol_rel_energy, self.tol_grad, self.tol_residual) <= 0:
            raise ValueError("tolerances must be positive")
        if self.method not in ("auto", "cg", "first_order"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class CellProblem:
    grid: AnisoGrid
    integrand: Integrand
    boundary: HAffineBoundary
    config: SolverConfig = field(default_factory=SolverConfig)


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
    grid = u.grid
    G = discrete_h_gradient(u).reshape(-1, grid.m)
    vals = f.eval_cells(f.coefficients_at(grid.cell_centers), G)
    return float(np.sum(vals) * grid.cell_volume)


# ---------------------------------------------------------------------------
# discrete gradient as a sparse operator
# ---------------------------------------------------------------------------

def _corner_signs(N):
    from itertools import product

    corners = list(product((0, 1), repeat=N))
    signs = np.array([[1.0 if c[a] else -1.0 for a in range(N)] for c in corners])
    return corners, signs


def _cell_axis_coords(grid):
    """Per-cell center coordinate along every axis, flattened in C order."""
    idx = np.indices(grid.cell_shape).reshape(grid.N, -1)
    return [grid.cell_center_axes[a][idx[a]] for a in range(grid.N)]


def gradient_operator(grid: AnisoGrid) -> sp.csr_matrix:
    """Sparse map from node values to stacked per-cell gradient components.

    Row layout: cell-major, m components per cell.
    """
    N, n, m = grid.N, grid.n, grid.m
    C = grid.num_cells
    corners, signs = _corner_signs(N)
    edge_w = 1.0 / (2 ** (N - 1))
    inv_steps = [1.0 / s for s in grid.steps]
    coords = _cell_axis_coords(grid)

    idx = np.indices(grid.cell_shape).reshape(N, -1)
    col_of_corner = []
    for c in corners:
        col_of_corner.append(
            np.ravel_multi_index(tuple(idx[a] + c[a] for a in range(N)), grid.shape)
        )

    # shear factor multiplying the vertical difference, per component
    shear = []
    for j in range(n):
        shear.append(-0.5 * coords[n + j])
    for j in range(n):
        shear.append(0.5 * coords[j])

    rows, cols, data = [], [], []
    cell_ids = np.arange(C)
    for comp in range(m):
        # component comp differentiates along axis comp, plus the sheared
        # vertical difference
        for ci, c in enumerate(corners):
            w = signs[ci, comp] * edge_w * inv_steps[comp] + shear[comp] * (
                signs[ci, N - 1] * edge_w * inv_steps[N - 1]
            )
            rows.append(cell_ids * m + comp)
            cols.append(col_of_corner[ci])
            data.append(np.broadcast_to(w, (C,)))
    B = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(C * m, grid.num_nodes),
    )
    return B.tocsr()


def _weighted_operator(grid, quad):
    """Scale/mix gradient rows so the energy is ||Btilde u||^2."""
    B = gradient_operator(grid)
    m, C = grid.m, grid.num_cells
    sqv = np.sqrt(grid.cell_volume)
    kind, payload = quad
    if kind == "scalar":
        w = np.repeat(np.sqrt(payload) * sqv, m)
        return sp.diags(w) @ B
    if kind == "matrix":
        S = np.ascontiguousarray(np.broadcast_to(payload, (C, m, m)) * sqv)
        mix = sp.bsr_matrix((S, np.arange(C), np.arange(C + 1)), shape=(C * m, C * m)).tocsr()
        return mix @ B
    raise ValueError(f"unknown quadratic payload {kind!r}")


# ---------------------------------------------------------------------------
# dense reference (oracle for small quadratic problems)
# ---------------------------------------------------------------------------

def dense_reference_minimum(grid: AnisoGrid, f: Integrand, boundary, max_unknowns=500):
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
    if k > max_unknowns:
        raise ValueError(f"dense reference limited to {max_unknowns} unknowns, got {k}")

    base = boundary.trace(grid).copy()
    base.reshape(-1)[interior] = 0.0

    def energy_of(vec):
        vals = base.copy()
        vals.reshape(-1)[interior] = vec
        G = discrete_h_gradient(ScalarField(grid, vals)).reshape(-1, grid.m)
        return float(np.sum(f.eval_cells(c, G)) * grid.cell_volume)

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


def _pcg(K, rhs, x0, tol_rel, max_iter):
    """Diagonally preconditioned conjugate gradients for SPD / consistent SPSD K."""
    diag = K.diagonal()
    if not np.all(diag > 0):  # also catches NaN
        raise NumericalError("assembled normal system has diagonal entries that are not positive")
    minv = 1.0 / diag

    x = x0.copy()
    r = rhs - K @ x
    denom = max(math.sqrt(_dot(rhs, rhs)), math.sqrt(_dot(r, r)), 1e-300)
    z = minv * r
    p = z.copy()
    rz = _dot(r, z)
    it = 0
    relres = math.sqrt(_dot(r, r)) / denom
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
        z = minv * r
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    return x, it, relres, relres <= tol_rel


def _solve_quadratic(problem, quad, trace):
    """Assemble the normal system K x = rhs and run PCG on it from the trace.

    rhs = -Bi^T (Bt u_bd) lies in the range of K = Bi^T Bi, so PCG needs no
    regularisation even where K is only semidefinite.
    """
    grid, cfg = problem.grid, problem.config
    Bt = _weighted_operator(grid, quad)
    interior = grid.interior_flat

    u_bd = trace.copy()
    u_bd[interior] = 0.0
    Bi = Bt.tocsc()[:, interior].tocsr()
    K = (Bi.T @ Bi).tocsr()
    rhs = -(Bi.T @ (Bt @ u_bd))
    del Bt, Bi, u_bd  # free the assembly before the iteration
    return _pcg(K, rhs, trace[interior], cfg.tol_residual, cfg.max_iter)


def _solve_first_order(problem, coeffs, trace):
    """L-BFGS on the energy and its analytic gradient, started from the trace."""
    grid, cfg, f = problem.grid, problem.config, problem.integrand
    B = gradient_operator(grid)
    interior = grid.interior_flat
    m, vol = grid.m, grid.cell_volume

    def fun_jac(vec):
        full = trace.copy()
        full[interior] = vec
        G = (B @ full).reshape(-1, m)
        E = float(np.sum(f.eval_cells(coeffs, G)) * vol)
        gq = f.grad_q_cells(coeffs, G) * vol
        return E, (B.T @ gq.reshape(-1))[interior]

    options = {
        "maxiter": int(cfg.max_iter),
        "ftol": cfg.tol_rel_energy,
        "gtol": cfg.tol_grad,
        "maxcor": 20,
    }
    res = scipy.optimize.minimize(
        fun_jac, trace[interior], jac=True, method="L-BFGS-B", options=options
    )
    gnorm = float(np.max(np.abs(fun_jac(res.x)[1]))) if len(res.x) else 0.0
    return res.x, int(res.nit), gnorm, bool(res.success) or gnorm <= cfg.tol_grad


def solve_cell(problem: CellProblem) -> CellSolution:
    """Minimize the discrete energy subject to the boundary trace."""
    grid, cfg = problem.grid, problem.config
    coeffs = problem.integrand.coefficients_at(grid.cell_centers)
    quad = problem.integrand.quad_cells(coeffs)

    method = cfg.method
    if method == "auto":
        method = "cg" if quad is not None else "first_order"
    if method == "cg" and quad is None:
        raise ValueError("method='cg' requires an exactly quadratic discrete energy")

    trace = problem.boundary.trace(grid).reshape(-1)
    if method == "cg":
        x, it, residual, converged = _solve_quadratic(problem, quad, trace)
    else:
        x, it, residual, converged = _solve_first_order(problem, coeffs, trace)
    vals = trace.copy()
    vals[grid.interior_flat] = x
    u = ScalarField(grid, vals.reshape(grid.shape))

    return CellSolution(
        u=u,
        energy=discrete_energy(u, problem.integrand),
        iterations=it,
        residual=residual,
        converged=converged,
        method=method,
    )


def mu_q(f: Integrand, q, t, M, n=1, config: SolverConfig = None) -> CellSolution:
    """Localized minimum over the dilated cell delta_t(Q) with H-affine datum q."""
    grid = build_grid(t, M, n)
    problem = CellProblem(grid, f, HAffineBoundary(tuple(np.atleast_1d(q))), config or SolverConfig())
    return solve_cell(problem)


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


def check_translation_invariance(
    f: Integrand, q, z, t, M, n=1, config: SolverConfig = None, tol=1e-10
) -> TranslationInvarianceReport:
    """Compare the cell problem for f against the one for f(2z * ., .).

    For lattice-periodic f the per-cell integrand samples must agree bit for
    bit and the minima must coincide up to solver tolerance.  For aperiodic f
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

    cfg = config or SolverConfig()
    bd = HAffineBoundary(tuple(np.atleast_1d(q)))
    e0 = solve_cell(CellProblem(grid, f, bd, cfg)).energy
    e1 = solve_cell(CellProblem(grid, g, bd, cfg)).energy
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
        ok=bool(equal and gap <= tol),
    )
