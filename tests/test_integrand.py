"""Coefficient fields, convex integrands, and the position transforms."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heishom import (
    CellTableCoefficient,
    ConstantCoefficient,
    MatrixPowerIntegrand,
    PowerIntegrand,
    SmoothCoefficient,
    TwoPointLaw,
    UniformLaw,
    checkerboard_coefficient,
    concentration_report,
    matrix_p_integrand,
    mu_q,
    power_integrand,
    rescale_integrand,
    translate_integrand,
    verify_assumptions,
)
from heishom.integrands import HESSIAN_FLOOR
from heishom.heisenberg import dilate, group_mul, pullback_to_cell, translate_tau
from heishom.stochastic import MonteCarloReport


def rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def at(f, X, Q):
    """f(x, q) per row: one coefficient lookup, then the per-cell arithmetic."""
    return f.eval_cells(f.coefficients_at(X), Q)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_checkerboard_frozen_values():
    """Parity of the sub-cell index inside the base cell picks lo or hi."""
    a = checkerboard_coefficient(1.0, 4.0)
    # sub-cell centers of the base cell: parity of floor(y+1) summed
    assert a.values_at(np.array([-0.5, -0.5, -0.5])) == 1.0   # (0,0,0) even
    assert a.values_at(np.array([0.5, -0.5, -0.5])) == 4.0    # (1,0,0) odd
    assert a.values_at(np.array([0.5, 0.5, -0.5])) == 1.0     # (1,1,0) even
    assert a.values_at(np.array([0.5, 0.5, 0.5])) == 4.0      # (1,1,1) odd
    assert a.a_min == 1.0 and a.a_max == 4.0
    assert a.h_periodic


def test_cell_table_lookup_is_lattice_periodic():
    """Value at x equals the value at the cell representative of x."""
    gen = rng(40)
    table = gen.uniform(1.0, 3.0, size=(4, 4, 4))
    a = CellTableCoefficient(table)
    x = gen.uniform(-9, 9, size=(800, 3))
    _, y = pullback_to_cell(x)
    np.testing.assert_array_equal(a.values_at(x), a.values_at(y))
    # explicitly: shifting by any lattice translation never changes the value
    for k in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, 3, 1)):
        xs = translate_tau(np.asarray(k, dtype=float), x)
        np.testing.assert_array_equal(a.values_at(xs), a.values_at(x))


def test_cell_table_bins():
    table = np.arange(8.0).reshape(2, 2, 2) + 1.0
    a = CellTableCoefficient(table)
    # center of sub-cell (i, j, k) maps to table[i, j, k]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                x = np.array([-0.5 + i, -0.5 + j, -0.5 + k])
                assert a.values_at(x) == table[i, j, k]


def test_constant_and_smooth_coefficients():
    c = ConstantCoefficient(2.5)
    assert c.values_at(np.zeros(3)) == 2.5
    assert c.x_independent and c.h_periodic
    s = SmoothCoefficient(lambda X: 2.0 + np.sin(X[..., 0]), 1.0, 3.0)
    x = rng(41).uniform(-2, 2, size=(100, 3))
    np.testing.assert_allclose(s.values_at(x), 2.0 + np.sin(x[:, 0]), rtol=1e-15)
    assert not s.h_periodic
    assert SmoothCoefficient(lambda X: 2.0 + 0.0 * X[..., 0], 1.0, math.inf).a_max == math.inf


def _mc_report():
    e = np.arange(16.0).reshape(8, 2)
    return MonteCarloReport(
        law=TwoPointLaw(1.0, 4.0), alpha=2.0, q=(1.0, 0.0), k_list=(1, 2), base_seed=0,
        seeds=tuple(range(8)), e=e, mean=e.mean(axis=0), variance=e.var(axis=0, ddof=1),
        growth_ok=True, correlation_radius=1.0, diagnostics=[],
    )


@pytest.mark.parametrize("build", [
    lambda: ConstantCoefficient(math.nan),
    lambda: ConstantCoefficient(math.inf),
    lambda: CellTableCoefficient([[[1.0, 2.0], [2.0, 1.0]], [[2.0, 1.0], [1.0, math.nan]]]),
    lambda: CellTableCoefficient([[[1.0, 2.0], [2.0, 1.0]], [[2.0, 1.0], [1.0, math.inf]]]),
    lambda: checkerboard_coefficient(1.0, math.inf),
    lambda: PowerIntegrand(ConstantCoefficient(1.0), alpha=math.nan),
    lambda: PowerIntegrand(ConstantCoefficient(1.0), alpha=math.inf),
    lambda: MatrixPowerIntegrand(np.eye(2), p=math.nan),
    lambda: MatrixPowerIntegrand(np.eye(2), p=math.inf),
    lambda: MatrixPowerIntegrand(np.array([[math.inf, 0.0], [0.0, 1.0]])),
    lambda: UniformLaw(1.0, math.inf),
    lambda: TwoPointLaw(math.inf, 1.0),
    lambda: concentration_report(_mc_report(), math.nan),
], ids=["constant-nan", "constant-inf", "table-nan", "table-inf", "checkerboard-inf",
        "alpha-nan", "alpha-inf", "p-nan", "p-inf", "matrix-inf", "uniform-inf",
        "two_point-inf", "delta-nan"])
def test_constructors_reject_non_finite_values(build):
    with pytest.raises(ValueError):
        build()


def test_matrix_integrand_validation():
    with pytest.raises(ValueError):
        MatrixPowerIntegrand(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        MatrixPowerIntegrand(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    F = MatrixPowerIntegrand(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert F.eig_min > 0 and F.eig_max < 3.0


@pytest.mark.parametrize("matrix, p", [
    ([[1e200, 0.0], [0.0, 1e-200]], 2.0),  # eig_max**p overflows, eig_min**p underflows
    ([[1e200, 0.0], [0.0, 1.0]], 2.0),     # eig_max**p overflows
    ([[1.0, 0.0], [0.0, 1e-200]], 2.0),    # eig_min**p underflows to 0
    ([[4.0, 0.0], [0.0, 1.0]], 600.0),     # a large p alone overflows
], ids=["both", "overflow", "underflow", "large-p"])
def test_matrix_integrand_growth_constants_must_be_floats(matrix, p):
    """c1 = eig_min**p and c2 = eig_max**p bound the integrand; one outside
    the float range is a ValueError naming p and the eigenvalue range, not
    an OverflowError or a bound of 0."""
    with pytest.raises(ValueError, match=r"p = [0-9.]+ over the eigenvalue range \[.*\]"):
        MatrixPowerIntegrand(np.array(matrix), p=p)


@pytest.mark.parametrize("shape", [(1, 1, 0), (0, 2, 2), (2, 0, 2, 2, 2)])
def test_cell_table_rejects_an_empty_table(shape):
    with pytest.raises(ValueError, match="table must not be empty"):
        CellTableCoefficient(np.zeros(shape), n=(len(shape) - 1) // 2)


@pytest.mark.parametrize("size, n", [(3, 1), (4, 1), (2, 2)])
def test_matrix_integrand_rejects_a_grid_of_another_size(size, n):
    """The matrix acts on the 2n horizontal directions; a lookup at points of
    another group names both sizes instead of failing in numpy's broadcast."""
    f = MatrixPowerIntegrand(np.eye(size))
    X = np.zeros((5, 2 * n + 1))
    with pytest.raises(ValueError, match=rf"{size} x {size} matrix .* 2n = {2 * n} "):
        f.coefficients_at(X)
    np.testing.assert_array_equal(MatrixPowerIntegrand(np.eye(2 * n)).coefficients_at(X), np.eye(2 * n))


def test_mu_q_of_a_4x4_matrix_at_n1_is_a_value_error():
    with pytest.raises(ValueError, match=r"4 x 4 matrix .* 2n = 2 "):
        mu_q(MatrixPowerIntegrand(np.eye(4)), (1.0, 0.0), 1, 2)


# ---------------------------------------------------------------------------
# integrands: values, gradients, growth
# ---------------------------------------------------------------------------

def test_power_integrand_values_and_growth():
    f = power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0)
    gen = rng(42)
    X = gen.uniform(-3, 3, size=(200, 3))
    Q = gen.uniform(-2, 2, size=(200, 2))
    vals = at(f, X, Q)
    nq = np.sum(Q * Q, axis=-1)
    assert np.all(vals >= f.c1 * nq - 1e-12)
    assert np.all(vals <= f.c2 * (nq + 1.0) + 1e-12)
    assert f.alpha == 2.0 and f.c1 == 1.0 and f.c2 == 4.0


def test_power_integrand_gradient_matches_fd():
    for alpha in (2.0, 3.0, 1.5):
        f = power_integrand(ConstantCoefficient(2.0), alpha)
        gen = rng(43)
        X = gen.uniform(-2, 2, size=(50, 3))
        Q = gen.uniform(0.2, 2, size=(50, 2)) * gen.choice([-1.0, 1.0], size=(50, 2))
        c = f.coefficients_at(X)
        g = f.grad_q_cells(c, Q)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (f.eval_cells(c, Q + e) - f.eval_cells(c, Q - e)) / (2 * h)
            np.testing.assert_allclose(g[:, i], fd, rtol=1e-5, atol=1e-5)


def test_power_gradient_zero_safe():
    f = power_integrand(ConstantCoefficient(1.0), 1.5)
    g = f.grad_q_cells(f.coefficients_at(np.zeros((1, 3))), np.zeros((1, 2)))
    assert np.all(np.isfinite(g)) and np.all(g == 0.0)


_HESSIAN_CASES = {
    "power": lambda e: power_integrand(ConstantCoefficient(2.5), e),
    "matrix_p": lambda e: matrix_p_integrand([[2.0, 0.5], [0.5, 1.0]], e),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(_HESSIAN_CASES)),
    exponent=st.sampled_from([1.5, 3.0, 4.0]),
    angle=st.floats(0.0, 2.0 * np.pi),
    log_radius=st.floats(np.log10(20 * HESSIAN_FLOOR), 1.0),
)
def test_hessian_factor_matches_fd_jacobian_of_gradient(kind, exponent, angle, log_radius):
    """S^T S is the Jacobian of grad_q (central differences) once the slope,
    resp. A q, is well above the floor."""
    f = _HESSIAN_CASES[kind](exponent)
    c = f.coefficients_at(np.zeros((1, 3)))
    q = 10.0**log_radius * np.array([[np.cos(angle), np.sin(angle)]])
    Aq = q @ np.asarray(c).T if kind == "matrix_p" else q
    assume(np.linalg.norm(Aq) > 10 * HESSIAN_FLOOR)
    S = f.hessian_factor_cells(c, q)[0]
    h = 1e-5 * np.linalg.norm(q)
    jac = np.empty((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        jac[:, i] = (f.grad_q_cells(c, q + e) - f.grad_q_cells(c, q - e))[0] / (2 * h)
    np.testing.assert_allclose(S.T @ S, jac, rtol=0, atol=1e-6 * np.abs(jac).max())


@pytest.mark.parametrize("kind", sorted(_HESSIAN_CASES))
@pytest.mark.parametrize("exponent", [1.5, 3.0, 4.0])
def test_hessian_factor_is_finite_at_zero_slope(kind, exponent):
    f = _HESSIAN_CASES[kind](exponent)
    S = f.hessian_factor_cells(f.coefficients_at(np.zeros((3, 3))), np.zeros((3, 2)))
    assert S.shape == (3, 2, 2) and np.all(np.isfinite(S))
    assert np.all(np.linalg.eigvalsh(np.swapaxes(S, 1, 2) @ S) > 0)


def test_matrix_integrand_quadratic_case():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = matrix_p_integrand(A, 2.0)
    gen = rng(44)
    X = gen.uniform(-2, 2, size=(80, 3))
    Q = gen.uniform(-2, 2, size=(80, 2))
    expect = np.sum((Q @ A.T) ** 2, axis=-1)
    np.testing.assert_allclose(at(f, X, Q), expect, rtol=1e-14)
    # the factor contract: f = |S q|^2
    S = f.quad_cells(f.coefficients_at(X))
    np.testing.assert_array_equal(S, A)
    np.testing.assert_allclose(np.sum((Q @ S.T) ** 2, axis=-1), at(f, X, Q), rtol=1e-14)
    f3 = matrix_p_integrand(A, 3.0)
    assert f3.quad_cells(f3.coefficients_at(X)) is None


def test_quad_cells_only_for_quadratic_power():
    a = checkerboard_coefficient(1.0, 4.0)
    gen = rng(45)
    X = gen.uniform(-2, 2, size=(30, 3))
    Q = gen.uniform(-2, 2, size=(30, 2))
    f = power_integrand(a, 2.0)
    # the factor contract: f = |S q|^2 with one scalar S per cell
    S = f.quad_cells(f.coefficients_at(X))
    np.testing.assert_array_equal(S, np.sqrt(a.values_at(X)))
    np.testing.assert_allclose(np.sum((S[:, None] * Q) ** 2, axis=-1), at(f, X, Q), rtol=1e-14)
    f = power_integrand(a, 2.5)
    assert f.quad_cells(f.coefficients_at(X)) is None


def _slopes_with_zero_rows(seed):
    Q = rng(seed).normal(size=(200, 2)) * 10.0 ** rng(seed + 1).uniform(-3, 3, size=(200, 1))
    Q[::7] = 0.0
    Q[3::7] = -0.0
    Q[5::7, 0] = 0.0
    return Q


def test_quadratic_power_values_and_gradients_are_the_plain_formulas():
    """At alpha = 2 the general |q|^alpha formulas give a |q|^2 and 2 a q bit for bit."""
    Q = _slopes_with_zero_rows(46)
    a = rng(48).uniform(1.0, 4.0, size=len(Q))
    f = PowerIntegrand(ConstantCoefficient(1.0), 2.0)
    assert np.array_equal(f.eval_cells(a, Q), a * np.sum(Q**2, axis=-1))
    assert np.array_equal(f.grad_q_cells(a, Q), 2.0 * a[:, None] * Q)


def test_quadratic_matrix_values_and_gradients_are_the_plain_formulas():
    """At p = 2 the general |Aq|^p formulas give |Aq|^2 and 2 A^T A q bit for bit."""
    Q = _slopes_with_zero_rows(49)
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = MatrixPowerIntegrand(A, 2.0)
    Aq = np.einsum("ij,...j->...i", A, Q)
    assert np.array_equal(f.eval_cells(A, Q), np.sum(Aq**2, axis=-1))
    assert np.array_equal(f.grad_q_cells(A, Q), 2.0 * np.einsum("ji,...j->...i", A, Aq))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_rescale_evaluates_at_dilated_points():
    f = power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0)
    gen = rng(46)
    X = gen.uniform(-3, 3, size=(300, 3))
    Q = gen.uniform(-2, 2, size=(300, 2))
    for eps in (0.5, 2.0):
        g = rescale_integrand(f, eps)
        np.testing.assert_array_equal(at(g, X, Q), at(f, dilate(1.0 / eps, X), Q))
        assert not g.h_periodic
    assert rescale_integrand(f, 1.0).h_periodic


def test_translate_evaluates_at_shifted_points():
    f = power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0)
    gen = rng(47)
    X = gen.uniform(-3, 3, size=(300, 3))
    Q = gen.uniform(-2, 2, size=(300, 2))
    z = np.array([0.3, -0.7, 0.2])
    g = translate_integrand(f, z)
    np.testing.assert_array_equal(at(g, X, Q), at(f, group_mul(z, X), Q))
    # fractional horizontal shift breaks lattice periodicity;
    # integral horizontal shift (any vertical) keeps it
    assert not g.h_periodic
    assert translate_integrand(f, np.array([1.0, 2.0, 0.37])).h_periodic


def test_translate_composition_law():
    """Nested shifts combine through the group product on the inside."""
    f = power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0)
    gen = rng(48)
    X = gen.uniform(-3, 3, size=(200, 3))
    Q = gen.uniform(-2, 2, size=(200, 2))
    z1 = np.array([0.4, -0.2, 0.9])
    z2 = np.array([-1.1, 0.6, -0.3])
    lhs = translate_integrand(translate_integrand(f, z1), z2)
    rhs = translate_integrand(f, group_mul(z1, z2))
    np.testing.assert_array_equal(at(lhs, X, Q), at(rhs, X, Q))
    # and both concretely evaluate f at z1 * z2 * x
    np.testing.assert_array_equal(
        at(lhs, X, Q), at(f, group_mul(z1, group_mul(z2, X)), Q))


def test_rescale_translate_interchange():
    f = power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0)
    gen = rng(49)
    X = gen.uniform(-2, 2, size=(150, 3))
    Q = gen.uniform(-2, 2, size=(150, 2))
    z = np.array([0.5, 0.25, -0.4])
    eps = 2.0
    a = rescale_integrand(translate_integrand(f, z), eps)
    b = translate_integrand(rescale_integrand(f, eps), dilate(eps, z))
    np.testing.assert_array_equal(at(a, X, Q), at(b, X, Q))


def test_transforms_do_not_mutate_original():
    f = power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0)
    X = rng(50).uniform(-3, 3, size=(100, 3))
    Q = np.ones((100, 2))
    before = at(f, X, Q).copy()
    _ = translate_integrand(f, np.array([0.3, 0.1, 0.0]))
    _ = rescale_integrand(f, 3.0)
    np.testing.assert_array_equal(at(f, X, Q), before)
    assert f.h_periodic


# ---------------------------------------------------------------------------
# assumption audit
# ---------------------------------------------------------------------------

def test_assumption_audit_accepts_valid_integrands():
    rep = verify_assumptions(power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0))
    assert rep.ok, rep
    rep2 = verify_assumptions(power_integrand(ConstantCoefficient(1.0), 3.0))
    assert rep2.ok


def test_assumption_audit_catches_false_periodicity():
    lying = SmoothCoefficient(lambda X: 2.0 + np.sin(X[..., 0]), 1.0, 3.0, h_periodic=True)
    rep = verify_assumptions(power_integrand(lying, 2.0))
    assert not rep.ok


def test_assumption_audit_catches_wrong_growth():
    f = power_integrand(ConstantCoefficient(2.0), 2.0)
    f.c2 = 0.5  # claim an upper bound that the values exceed
    rep = verify_assumptions(f)
    assert not rep.ok
