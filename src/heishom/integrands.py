"""Integrands f(x, q): convex in the horizontal slope, measurable in position.

Shipped families:

* power integrands      f(x, q) = a(x) |q|^alpha        (alpha > 1, a > 0)
* matrix-power          f(x, q) = |A q|^p               (A constant, symmetric positive)

Coefficients a(x) come as constants, value tables on a sub-grid of the unit
cell extended by the group tiling (exactly periodic under the lattice
translations tau_k by construction), smooth closed-form expressions, or
random tile fields (see heishom.stochastic).

Position enters only through ``coefficients_at(X)`` (transform, then lookup);
``eval_cells(c, Q)``, ``grad_q_cells(c, Q)``, ``hessian_factor_cells(c, Q)``
and ``quad_cells(c)`` do pure per-cell arithmetic on its result, so a solve
looks its coefficients up once.  The solver takes one format from both of
the last two: a factor S with f = |S q|^2 (quadratic energies) resp. S^T S
the Hessian of f in q, given per cell as a scalar (shape (C,)), a matrix
(shape (m, m)) shared by every cell, or one matrix per cell (shape (C, m, m)).

``rescale_integrand`` and ``translate_integrand`` compose the position
argument with a dilation resp. a left translation.  Both transforms are kept
flat: an already transformed integrand only updates its (scale, shift)
parameters, so repeated composition stays exact instead of stacking closures.
"""

import math

import numpy as np

from .heisenberg import (
    dilate,
    group_mul,
    pullback_to_cell,
    translate_tau,
)

__all__ = [
    "CoefficientField",
    "ConstantCoefficient",
    "CellTableCoefficient",
    "SmoothCoefficient",
    "checkerboard_coefficient",
    "Integrand",
    "PowerIntegrand",
    "MatrixPowerIntegrand",
    "power_integrand",
    "matrix_p_integrand",
    "rescale_integrand",
    "translate_integrand",
    "AssumptionReport",
    "verify_assumptions",
]


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

# Inward bias for piecewise-constant lookups, in units of the cell index.
# Orders of magnitude above the ulp noise left by exact rescalings of grid
# coordinates, orders of magnitude below any sampling distance to a cell
# boundary, so binning decisions are reproducible across equivalent problems
# while ordinary lookups are untouched.  The public tiling (tile_index with
# the default guard 0) still realizes the exact half-open partition.
BIN_GUARD = 1e-9

# Floor on |q| (resp. |A q|) inside Hessian factors: keeps them finite at
# q = 0 and for alpha < 2, where the exact Hessian blows up.  Above the floor
# the factors are exact.
HESSIAN_FLOOR = 1e-8


class CoefficientField:
    """Scalar coefficient a(x) with known positive bounds.

    Subclasses implement values_at(X) for X of shape (..., N) and set
    a_min, a_max, h_periodic, x_independent.
    """

    a_min = None
    a_max = None
    h_periodic = False
    x_independent = False

    def values_at(self, X):
        raise NotImplementedError


class ConstantCoefficient(CoefficientField):
    x_independent = True
    h_periodic = True

    def __init__(self, value):
        value = float(value)
        if not 0 < value < math.inf:
            raise ValueError(f"coefficient must be positive and finite: {value!r}")
        self.value = value
        self.a_min = value
        self.a_max = value

    def values_at(self, X):
        X = np.asarray(X, dtype=float)
        return np.full(X.shape[:-1], self.value)


class CellTableCoefficient(CoefficientField):
    """Piecewise-constant values on a uniform sub-grid of the unit cell Q.

    A point is pulled back to Q through the tiling (x -> tau_{-k}(x) with
    k = tile_index(x)) and then looked up in the table, so the extension is
    exactly invariant under every lattice translation tau_k.
    """

    h_periodic = True
    x_independent = False

    def __init__(self, table, n=1):
        table = np.asarray(table, dtype=float)
        N = 2 * n + 1
        if table.ndim != N:
            raise ValueError(f"table must have {N} axes for n={n}")
        if table.size == 0:
            raise ValueError(f"table must not be empty, got shape {table.shape}")
        if not np.all((0 < table) & (table < math.inf)):
            raise ValueError("table values must be positive and finite")
        self.n = n
        self.table = table
        self.a_min = float(table.min())
        self.a_max = float(table.max())

    def values_at(self, X):
        X = np.asarray(X, dtype=float)
        _, y = pullback_to_cell(X, guard=BIN_GUARD)
        idx = []
        for ax in range(y.shape[-1]):
            s = self.table.shape[ax]
            i = np.floor((y[..., ax] + 1.0) * (s / 2.0) + BIN_GUARD).astype(np.int64)
            idx.append(np.clip(i, 0, s - 1))
        return self.table[tuple(idx)]


def checkerboard_coefficient(lo, hi, n=1) -> CellTableCoefficient:
    """2-per-axis sub-cell table alternating lo/hi by sub-cell parity."""
    N = 2 * n + 1
    idx = np.indices((2,) * N).sum(axis=0)
    table = np.where(idx % 2 == 0, float(lo), float(hi))
    return CellTableCoefficient(table, n=n)


class SmoothCoefficient(CoefficientField):
    """Closed-form coefficient; periodicity is a claim, the declared bounds are
    checked on every lookup (a value outside [a_min, a_max] or not finite is a
    ValueError)."""

    def __init__(self, fn, a_min, a_max, h_periodic=False):
        if not (0 < a_min <= a_max):
            raise ValueError("need 0 < a_min <= a_max")
        self.fn = fn
        self.a_min = float(a_min)
        self.a_max = float(a_max)
        self.h_periodic = bool(h_periodic)

    def values_at(self, X):
        a = np.asarray(self.fn(np.asarray(X, dtype=float)), dtype=float)
        bad = ~((a >= self.a_min) & (a <= self.a_max) & np.isfinite(a))
        if np.any(bad):
            raise ValueError(
                f"coefficient takes the value {float(a[bad].flat[0])}, outside its "
                f"declared bounds [{self.a_min}, {self.a_max}] or not finite"
            )
        return a


# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------

class Integrand:
    """Base class.  Attributes:

    alpha          growth exponent (> 1)
    c1, c2         growth constants: c1 |q|^alpha <= f <= c2 (|q|^alpha + 1)
    h_periodic, x_independent   structural flags
    """

    alpha = None
    c1 = None
    c2 = None
    h_periodic = False
    x_independent = False

    # position transform x -> shift * delta_scale(x), applied before lookup
    _scale = 1.0
    _shift = None

    def _map_points(self, X):
        X = np.asarray(X, dtype=float)
        if self._scale != 1.0:
            X = dilate(self._scale, X)
        if self._shift is not None:
            X = group_mul(self._shift, X)
        return X

    def eval(self, x, q) -> float:
        return float(self.eval_cells(self.coefficients_at(x), np.asarray(q, dtype=float)))

    def coefficients_at(self, X):
        """Coefficients at the points X (shape (..., N)); the only position lookup."""
        raise NotImplementedError

    def eval_cells(self, c, Q):
        """f at slopes Q (shape (..., m)) for coefficients c = coefficients_at(X)."""
        raise NotImplementedError

    def grad_q_cells(self, c, Q):
        raise NotImplementedError

    def hessian_factor_cells(self, c, Q):
        """Per-cell S (shape (..., m, m)) with S^T S the Hessian of f in q at Q,
        the slope magnitude floored at HESSIAN_FLOOR."""
        raise NotImplementedError

    def quad_cells(self, c):
        """The factor S with f = |S q|^2 for coefficients c (a scalar or a
        matrix per cell, or one matrix for all cells), or None when the
        energy is not a quadratic form."""
        return None

    def _copy_with_map(self, scale, shift):
        import copy

        out = copy.copy(self)
        out._scale = scale
        out._shift = None if shift is None else np.asarray(shift, dtype=float)
        return out


def _norm_pow(Q, alpha):
    return np.sum(np.asarray(Q, dtype=float) ** 2, axis=-1) ** (0.5 * alpha)


def _pow_factor(s, alpha):
    """|w|^(alpha-2) from s = |w|^2.  Where s = 0 it is 0^0 = 1 for alpha = 2,
    so f's gradient stays 2 a w bit for bit, and 0 otherwise: the subgradient
    at 0 is 0."""
    with np.errstate(divide="ignore"):
        return np.where(s > 0, s ** (0.5 * alpha - 1.0), float(alpha == 2.0))


def _power_factor(Q, alpha):
    """S with S^T S = alpha r^(alpha-2) (I + (alpha-2) qh qh^T), the Hessian of
    |q|^alpha, for r = max(|q|, HESSIAN_FLOOR) and qh = q / r."""
    Q = np.asarray(Q, dtype=float)
    r = np.maximum(np.sqrt(np.sum(Q * Q, axis=-1)), HESSIAN_FLOOR)
    qh = Q / r[..., None]
    S = (math.sqrt(alpha - 1.0) - 1.0) * (qh[..., :, None] * qh[..., None, :])
    S += np.eye(Q.shape[-1])
    return S * np.sqrt(alpha * r ** (alpha - 2.0))[..., None, None]


class PowerIntegrand(Integrand):
    """f(x, q) = a(x) |q|^alpha."""

    def __init__(self, coefficient: CoefficientField, alpha=2.0):
        alpha = float(alpha)
        if not 1.0 < alpha < math.inf:
            raise ValueError(f"alpha must be finite and exceed 1: {alpha!r}")
        self.coefficient = coefficient
        self.alpha = alpha
        self.c1 = coefficient.a_min
        self.c2 = coefficient.a_max
        self.h_periodic = coefficient.h_periodic
        self.x_independent = coefficient.x_independent

    def coefficients_at(self, X):
        return self.coefficient.values_at(self._map_points(X))

    def eval_cells(self, a, Q):
        return a * _norm_pow(Q, self.alpha)

    def grad_q_cells(self, a, Q):
        Q = np.asarray(Q, dtype=float)
        fac = _pow_factor(np.sum(Q * Q, axis=-1), self.alpha)
        return (self.alpha * a * fac)[..., None] * Q

    def hessian_factor_cells(self, a, Q):
        return np.sqrt(np.asarray(a, dtype=float))[..., None, None] * _power_factor(Q, self.alpha)

    def quad_cells(self, a):
        return np.sqrt(a) if self.alpha == 2.0 else None


class MatrixPowerIntegrand(Integrand):
    """f(x, q) = |A q|^p for a constant symmetric positive definite matrix A."""

    h_periodic = True
    x_independent = True

    def __init__(self, matrix, p=2.0):
        p = float(p)
        if not 1.0 < p < math.inf:
            raise ValueError(f"p must be finite and exceed 1: {p!r}")
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(A)):
            raise ValueError("matrix entries must be finite")
        if not np.allclose(A, A.T, rtol=0, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        w = np.linalg.eigvalsh(A)
        if w[0] <= 0:
            raise ValueError("matrix must be positive definite")
        self.matrix = 0.5 * (A + A.T)
        self.eig_min = float(w[0])
        self.eig_max = float(w[-1])
        self.alpha = p
        self.c1 = self.eig_min**p
        self.c2 = max(self.eig_max**p, 1.0)

    def coefficients_at(self, X):
        m = np.shape(X)[-1] - 1  # 2n, for points of the group R^(2n+1)
        if m != len(self.matrix):
            raise ValueError(f"the {len(self.matrix)} x {len(self.matrix)} matrix does not act on "
                             f"the 2n = {m} horizontal directions of points in R^{m + 1}")
        return self.matrix

    def eval_cells(self, A, Q):
        Aq = np.einsum("...ij,...j->...i", A, np.asarray(Q, dtype=float))
        return _norm_pow(Aq, self.alpha)

    def grad_q_cells(self, A, Q):
        Q = np.asarray(Q, dtype=float)
        Aq = np.einsum("...ij,...j->...i", A, Q)
        AtAq = np.einsum("...ji,...j->...i", A, Aq)
        fac = _pow_factor(np.sum(Aq * Aq, axis=-1), self.alpha)
        return self.alpha * fac[..., None] * AtAq

    def hessian_factor_cells(self, A, Q):
        # the Hessian is A^T H(Aq) A, with H that of |w|^p
        Aq = np.einsum("...ij,...j->...i", A, np.asarray(Q, dtype=float))
        return np.einsum("...ij,...jk->...ik", _power_factor(Aq, self.alpha), A)

    def quad_cells(self, A):
        return A if self.alpha == 2.0 else None


def power_integrand(coefficient, alpha=2.0) -> PowerIntegrand:
    return PowerIntegrand(coefficient, alpha)


def matrix_p_integrand(matrix, p=2.0) -> MatrixPowerIntegrand:
    return MatrixPowerIntegrand(matrix, p)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def rescale_integrand(f: Integrand, eps) -> Integrand:
    """(x, q) -> f(delta_{1/eps}(x), q).

    Growth constants and convexity survive; exact lattice periodicity does
    not (the period changes), so the flag is cleared unless f ignores x.
    """
    eps = float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    out = f._copy_with_map(f._scale / eps, f._shift)
    if eps != 1.0 and not f.x_independent:
        out.h_periodic = False
    return out


def translate_integrand(f: Integrand, z) -> Integrand:
    """(x, q) -> f(z * x, q).

    Nested translations compose through the group product on the inner
    parameter: translate(translate(f, z1), z2) evaluates like
    translate(f, z1 * z2).  Lattice periodicity survives exactly when the
    horizontal components of z are integers (the conjugated lattice shift
    stays integral); otherwise the flag is cleared.
    """
    z = np.asarray(z, dtype=float)
    shift = dilate(f._scale, z)
    if f._shift is not None:
        shift = group_mul(f._shift, shift)
    out = f._copy_with_map(f._scale, shift)
    if not f.x_independent:
        zh = z[: z.shape[-1] - 1]
        if not np.all(zh == np.round(zh)):
            out.h_periodic = False
    return out


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

class AssumptionReport:
    """Outcome of sampling-based structural checks on an integrand."""

    def __init__(self):
        self.growth_ok = None
        self.convexity_ok = None
        self.periodicity_ok = None
        self.worst_growth_margin = -np.inf
        self.worst_convexity_violation = 0.0
        self.worst_periodicity_gap = 0.0
        self.witness = None

    @property
    def ok(self):
        parts = [self.growth_ok, self.convexity_ok, self.periodicity_ok]
        return all(p is not False for p in parts)

    def __repr__(self):
        return (
            f"AssumptionReport(growth_ok={self.growth_ok}, "
            f"convexity_ok={self.convexity_ok}, periodicity_ok={self.periodicity_ok})"
        )


# verify_assumptions tolerances, relative to max(1, |f|): midpoint
# convexity violation and the gap under a lattice translation
CONVEXITY_TOL = 1e-10
PERIODICITY_TOL = 1e-10

# verify_assumptions draws AUDIT_SAMPLES points (seed 0) from the box
# [-3, 3]^(2n) x [-9, 9], which spans several tiles in every direction
AUDIT_SAMPLES = 2000
AUDIT_BOX = (3.0, 9.0)  # horizontal, vertical half-width


def verify_assumptions(f: Integrand, n=1) -> AssumptionReport:
    """Sample growth bounds, midpoint convexity, and lattice periodicity.

    Violations beyond ``CONVEXITY_TOL`` and ``PERIODICITY_TOL`` are reported
    with a witness point, never raised.
    """
    rng = np.random.default_rng(0)
    samples = AUDIT_SAMPLES
    N, m = 2 * n + 1, 2 * n
    rep = AssumptionReport()

    X = np.empty((samples, N))
    X[:, : 2 * n] = rng.uniform(-AUDIT_BOX[0], AUDIT_BOX[0], size=(samples, 2 * n))
    X[:, 2 * n] = rng.uniform(-AUDIT_BOX[1], AUDIT_BOX[1], size=samples)
    # slope magnitudes spread over several decades, plus exact zeros
    radii = 10.0 ** rng.uniform(-2, 1, size=samples)
    radii[:: max(1, samples // 50)] = 0.0
    Q = rng.normal(size=(samples, m))
    Q *= (radii / np.maximum(np.linalg.norm(Q, axis=1), 1e-300))[:, None]

    c = f.coefficients_at(X)
    vals = f.eval_cells(c, Q)
    qpow = np.sum(Q * Q, axis=-1) ** (0.5 * f.alpha)
    lower_gap = f.c1 * qpow - vals
    upper_gap = vals - f.c2 * (qpow + 1.0)
    margin = np.maximum(lower_gap, upper_gap)
    worst = int(np.argmax(margin))
    rep.worst_growth_margin = float(margin[worst])
    rep.growth_ok = bool(margin[worst] <= 1e-9 * max(1.0, float(np.abs(vals[worst]))))
    if not rep.growth_ok:
        rep.witness = (X[worst].copy(), Q[worst].copy())

    Q2 = rng.normal(size=(samples, m)) * radii[:, None]
    mid = f.eval_cells(c, 0.5 * (Q + Q2))
    avg = 0.5 * (vals + f.eval_cells(c, Q2))
    viol = mid - avg
    scale = np.maximum(1.0, np.abs(avg))
    w = int(np.argmax(viol / scale))
    rep.worst_convexity_violation = float(viol[w] / scale[w])
    rep.convexity_ok = bool(rep.worst_convexity_violation <= CONVEXITY_TOL)
    if not rep.convexity_ok and rep.witness is None:
        rep.witness = (X[w].copy(), Q[w].copy(), Q2[w].copy())

    if f.h_periodic:
        K = rng.integers(-3, 4, size=(samples, N))
        shifted = translate_tau(K.astype(float), X)
        gap = np.abs(f.eval_cells(f.coefficients_at(shifted), Q) - vals)
        scale = np.maximum(1.0, np.abs(vals))
        w = int(np.argmax(gap / scale))
        rep.worst_periodicity_gap = float(gap[w] / scale[w])
        rep.periodicity_ok = bool(rep.worst_periodicity_gap <= PERIODICITY_TOL)
        if not rep.periodicity_ok and rep.witness is None:
            rep.witness = (X[w].copy(), K[w].copy())

    return rep
