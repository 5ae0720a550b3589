"""Integrands f(x, q): convex in the horizontal slope, measurable in position.

Shipped families:

* power integrands      f(x, q) = a(x) |q|^alpha        (alpha > 1, a > 0)
* matrix-power          f(x, q) = |A(x) q|^p            (A symmetric positive)

Coefficients a(x) come as constants, value tables on a sub-grid of the unit
cell extended by the group tiling (exactly periodic under the lattice
translations tau_k by construction), smooth closed-form expressions, or
random tile fields (see heishom.stochastic).

``rescale_integrand`` and ``translate_integrand`` compose the position
argument with a dilation resp. a left translation.  Both transforms are kept
flat: an already transformed integrand only updates its (scale, shift)
parameters, so repeated composition stays exact instead of stacking closures.
"""

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
    "MatrixField",
    "ConstantMatrixField",
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
        if value <= 0:
            raise ValueError("coefficient must be positive")
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
        if np.any(table <= 0):
            raise ValueError("table values must be positive")
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

    def __init__(self, fn, a_min, a_max, h_periodic=False, description=""):
        if not (0 < a_min <= a_max):
            raise ValueError("need 0 < a_min <= a_max")
        self.fn = fn
        self.a_min = float(a_min)
        self.a_max = float(a_max)
        self.h_periodic = bool(h_periodic)
        self.description = description

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
# matrix fields
# ---------------------------------------------------------------------------

class MatrixField:
    """Symmetric positive m x m matrix A(x); eig_min/eig_max bound the spectrum."""

    eig_min = None
    eig_max = None
    h_periodic = False
    x_independent = False

    def matrices_at(self, X):
        raise NotImplementedError


class ConstantMatrixField(MatrixField):
    x_independent = True
    h_periodic = True

    def __init__(self, matrix):
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(A, A.T, rtol=0, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        w = np.linalg.eigvalsh(A)
        if w[0] <= 0:
            raise ValueError("matrix must be positive definite")
        self.matrix = 0.5 * (A + A.T)
        self.eig_min = float(w[0])
        self.eig_max = float(w[-1])

    def matrices_at(self, X):
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(self.matrix, X.shape[:-1] + self.matrix.shape)


# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------

class Integrand:
    """Base class.  Attributes:

    alpha          growth exponent (> 1)
    c1, c2         growth constants: c1 |q|^alpha <= f <= c2 (|q|^alpha + 1)
    convex_in_q, h_periodic, x_independent   structural flags
    """

    alpha = None
    c1 = None
    c2 = None
    convex_in_q = True
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
        return float(self.eval_cells(np.asarray(x, dtype=float), np.asarray(q, dtype=float)))

    def eval_cells(self, X, Q):
        raise NotImplementedError

    def grad_q_cells(self, X, Q):
        raise NotImplementedError

    def quad_cells(self, X):
        """Exact quadratic structure, if any.

        Returns ('scalar', a) with f = a |q|^2, or ('matrix', S) with
        f = |S q|^2, or None when the energy is not a quadratic form.
        """
        return None

    def _copy_with_map(self, scale, shift):
        import copy

        out = copy.copy(self)
        out._scale = scale
        out._shift = None if shift is None else np.asarray(shift, dtype=float)
        return out


def _norm_pow(Q, alpha):
    s = np.sum(np.asarray(Q, dtype=float) ** 2, axis=-1)
    if alpha == 2.0:
        return s
    return s ** (0.5 * alpha)


class PowerIntegrand(Integrand):
    """f(x, q) = a(x) |q|^alpha."""

    def __init__(self, coefficient: CoefficientField, alpha=2.0):
        alpha = float(alpha)
        if alpha <= 1.0:
            raise ValueError("alpha must exceed 1")
        self.coefficient = coefficient
        self.alpha = alpha
        self.c1 = coefficient.a_min
        self.c2 = coefficient.a_max
        self.h_periodic = coefficient.h_periodic
        self.x_independent = coefficient.x_independent

    def _coeff(self, X):
        return self.coefficient.values_at(self._map_points(X))

    def eval_cells(self, X, Q):
        return self._coeff(X) * _norm_pow(Q, self.alpha)

    def grad_q_cells(self, X, Q):
        Q = np.asarray(Q, dtype=float)
        a = self._coeff(X)
        if self.alpha == 2.0:
            return 2.0 * a[..., None] * Q
        s = np.sum(Q * Q, axis=-1)
        # |q|^(alpha-2) with a zero-safe branch; the subgradient at 0 is 0
        with np.errstate(divide="ignore"):
            fac = np.where(s > 0, s ** (0.5 * self.alpha - 1.0), 0.0)
        return (self.alpha * a * fac)[..., None] * Q

    def quad_cells(self, X):
        if self.alpha == 2.0:
            return ("scalar", self._coeff(X))
        return None


class MatrixPowerIntegrand(Integrand):
    """f(x, q) = |A(x) q|^p for a symmetric positive matrix field A."""

    def __init__(self, field: MatrixField, p=2.0):
        p = float(p)
        if p <= 1.0:
            raise ValueError("p must exceed 1")
        self.field = field
        self.alpha = p
        self.c1 = field.eig_min**p
        self.c2 = max(field.eig_max**p, 1.0)
        self.h_periodic = field.h_periodic
        self.x_independent = field.x_independent

    def _mats(self, X):
        return self.field.matrices_at(self._map_points(X))

    def eval_cells(self, X, Q):
        A = self._mats(X)
        Aq = np.einsum("...ij,...j->...i", A, np.asarray(Q, dtype=float))
        return _norm_pow(Aq, self.alpha)

    def grad_q_cells(self, X, Q):
        A = self._mats(X)
        Q = np.asarray(Q, dtype=float)
        Aq = np.einsum("...ij,...j->...i", A, Q)
        AtAq = np.einsum("...ji,...j->...i", A, Aq)
        if self.alpha == 2.0:
            return 2.0 * AtAq
        s = np.sum(Aq * Aq, axis=-1)
        with np.errstate(divide="ignore"):
            fac = np.where(s > 0, s ** (0.5 * self.alpha - 1.0), 0.0)
        return self.alpha * fac[..., None] * AtAq

    def quad_cells(self, X):
        if self.alpha == 2.0:
            return ("matrix", self._mats(X))
        return None


def power_integrand(coefficient, alpha=2.0) -> PowerIntegrand:
    return PowerIntegrand(coefficient, alpha)


def matrix_p_integrand(field, p=2.0) -> MatrixPowerIntegrand:
    return MatrixPowerIntegrand(field, p)


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


def verify_assumptions(
    f: Integrand,
    n=1,
    samples=2000,
    seed=0,
    horizontal_box=3.0,
    vertical_box=9.0,
    convexity_tol=1e-10,
    periodicity_tol=1e-10,
) -> AssumptionReport:
    """Sample growth bounds, midpoint convexity, and lattice periodicity.

    Violations are reported with a witness point, never raised.
    """
    rng = np.random.default_rng(seed)
    N, m = 2 * n + 1, 2 * n
    rep = AssumptionReport()

    X = np.empty((samples, N))
    X[:, : 2 * n] = rng.uniform(-horizontal_box, horizontal_box, size=(samples, 2 * n))
    X[:, 2 * n] = rng.uniform(-vertical_box, vertical_box, size=samples)
    # slope magnitudes spread over several decades, plus exact zeros
    radii = 10.0 ** rng.uniform(-2, 1, size=samples)
    radii[:: max(1, samples // 50)] = 0.0
    Q = rng.normal(size=(samples, m))
    Q *= (radii / np.maximum(np.linalg.norm(Q, axis=1), 1e-300))[:, None]

    vals = f.eval_cells(X, Q)
    qpow = np.sum(Q * Q, axis=-1) ** (0.5 * f.alpha)
    lower_gap = f.c1 * qpow - vals
    upper_gap = vals - f.c2 * (qpow + 1.0)
    margin = np.maximum(lower_gap, upper_gap)
    worst = int(np.argmax(margin))
    rep.worst_growth_margin = float(margin[worst])
    rep.growth_ok = bool(margin[worst] <= 1e-9 * max(1.0, float(np.abs(vals[worst]))))
    if not rep.growth_ok:
        rep.witness = (X[worst].copy(), Q[worst].copy())

    if f.convex_in_q:
        Q2 = rng.normal(size=(samples, m)) * radii[:, None]
        mid = f.eval_cells(X, 0.5 * (Q + Q2))
        avg = 0.5 * (vals + f.eval_cells(X, Q2))
        viol = mid - avg
        scale = np.maximum(1.0, np.abs(avg))
        w = int(np.argmax(viol / scale))
        rep.worst_convexity_violation = float(viol[w] / scale[w])
        rep.convexity_ok = bool(rep.worst_convexity_violation <= convexity_tol)
        if not rep.convexity_ok and rep.witness is None:
            rep.witness = (X[w].copy(), Q[w].copy(), Q2[w].copy())

    if f.h_periodic:
        K = rng.integers(-3, 4, size=(samples, N))
        shifted = translate_tau(K.astype(float), X)
        gap = np.abs(f.eval_cells(shifted, Q) - vals)
        scale = np.maximum(1.0, np.abs(vals))
        w = int(np.argmax(gap / scale))
        rep.worst_periodicity_gap = float(gap[w] / scale[w])
        rep.periodicity_ok = bool(rep.worst_periodicity_gap <= periodicity_tol)
        if not rep.periodicity_ok and rep.witness is None:
            rep.witness = (X[w].copy(), K[w].copy())

    return rep
