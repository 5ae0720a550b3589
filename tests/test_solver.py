"""Cell-problem minimization: operator assembly, the two iterative paths,
and the dense reference oracle.

The oracle builds the Hessian of the discrete energy purely from energy
evaluations (exact for quadratics) and solves the normal equations densely;
it shares no assembly code with the iterative solvers, so agreement is a
two-route check.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import heishom
from heishom import (
    CellProblem,
    ConstantCoefficient,
    HAffineBoundary,
    NumericalError,
    PowerIntegrand,
    ScalarField,
    SolverConfig,
    apply_boundary,
    build_grid,
    checkerboard_coefficient,
    check_translation_invariance,
    dense_reference_minimum,
    discrete_energy,
    discrete_h_gradient,
    gradient_operator,
    h_affine_field,
    integrate_cells,
    mean_h_gradient,
    mu_q,
    power_integrand,
    solve_cell,
)
from heishom.solve import _pcg


def rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


CHECKER = power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def test_gradient_operator_matches_stencil():
    g = build_grid(1.0, 2)
    B = gradient_operator(g)
    assert B.shape == (g.num_cells * g.m, g.num_nodes)
    gen = rng(60)
    for _ in range(5):
        u = gen.uniform(-2, 2, size=g.shape)
        via_op = (B @ u.reshape(-1)).reshape(g.cell_shape + (g.m,))
        via_stencil = discrete_h_gradient(ScalarField(g, u))
        np.testing.assert_allclose(via_op, via_stencil, rtol=1e-13, atol=1e-13)


def test_discrete_energy_is_cell_quadrature():
    g = build_grid(1.0, 2)
    gen = rng(61)
    u = ScalarField(g, gen.uniform(-1, 1, g.shape))
    hg = discrete_h_gradient(u)
    X = g.cell_centers
    vals = CHECKER.eval_cells(X, hg.reshape(-1, g.m))
    expect = integrate_cells(vals.reshape(g.cell_shape), g)
    assert discrete_energy(u, CHECKER) == pytest.approx(expect, rel=1e-14)


# ---------------------------------------------------------------------------
# exactness for x-independent quadratic integrands
# ---------------------------------------------------------------------------

def test_constant_coefficient_minimizer_is_affine():
    f = power_integrand(ConstantCoefficient(1.0), 2.0)
    for t in (1.0, 2.0):
        for q in ((1.0, 0.0), (0.0, 1.0), (2.0, -1.0)):
            sol = mu_q(f, q, t, 4)
            g = sol.u.grid
            qa = np.asarray(q)
            expect = float(qa @ qa) * g.volume
            assert sol.energy == pytest.approx(expect, rel=1e-10)
            ua = h_affine_field(g, qa)
            assert np.abs(sol.u.values - ua.values).max() < 1e-6
            assert sol.converged


def test_solution_satisfies_boundary_and_mean_gradient():
    sol = mu_q(CHECKER, (1.0, -0.5), 1.0, 4)
    g = sol.u.grid
    bd = HAffineBoundary((1.0, -0.5))
    mask = g.boundary_mask
    np.testing.assert_array_equal(sol.u.values[mask], bd.trace(g)[mask])
    np.testing.assert_allclose(mean_h_gradient(sol.u, bd), [1.0, -0.5], rtol=0, atol=1e-12)


def test_minimum_beats_affine_candidate():
    """With oscillating coefficients the corrector strictly lowers the energy."""
    sol = mu_q(CHECKER, (1.0, 0.0), 1.0, 4)
    g = sol.u.grid
    e_aff = discrete_energy(h_affine_field(g, np.array([1.0, 0.0])), CHECKER)
    assert sol.energy < e_aff - 1e-3


# ---------------------------------------------------------------------------
# dense oracle vs iterative paths
# ---------------------------------------------------------------------------

def test_cg_matches_dense_oracle():
    gen = rng(62)
    for t, M in ((1.0, 1), (1.0, 2)):
        g = build_grid(t, M)
        for _ in range(3):
            q = gen.uniform(-2, 2, size=2)
            bd = HAffineBoundary(tuple(q))
            e_ref, u_ref = dense_reference_minimum(g, CHECKER, bd)
            sol = solve_cell(CellProblem(g, CHECKER, bd, SolverConfig()))
            assert sol.energy == pytest.approx(e_ref, rel=1e-10)
            np.testing.assert_allclose(sol.u.values, u_ref.values, rtol=0, atol=1e-7)


def test_first_order_matches_cg_on_quadratic():
    g = build_grid(1.0, 2)
    bd = HAffineBoundary((1.0, -1.0))
    cg = solve_cell(CellProblem(g, CHECKER, bd, SolverConfig(method="cg")))
    fo = solve_cell(CellProblem(g, CHECKER, bd, SolverConfig(method="first_order")))
    assert cg.method == "cg" and fo.method == "first_order"
    assert fo.energy == pytest.approx(cg.energy, rel=1e-7)


def test_dense_oracle_respects_size_cap():
    g = build_grid(2.0, 4)  # way more than 500 interior nodes
    with pytest.raises(ValueError):
        dense_reference_minimum(g, CHECKER, HAffineBoundary((1.0, 0.0)))


# ---------------------------------------------------------------------------
# method selection and validation
# ---------------------------------------------------------------------------

def test_auto_dispatch():
    g = build_grid(1.0, 2)
    bd = HAffineBoundary((1.0, 0.0))
    sol2 = solve_cell(CellProblem(g, CHECKER, bd, SolverConfig()))
    assert sol2.method == "cg"
    f3 = power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0)
    sol3 = solve_cell(CellProblem(g, f3, bd, SolverConfig()))
    assert sol3.method == "first_order"
    assert sol3.converged


def test_cg_refuses_nonquadratic():
    g = build_grid(1.0, 2)
    f3 = power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0)
    with pytest.raises(ValueError):
        solve_cell(CellProblem(g, f3, HAffineBoundary((1.0, 0.0)), SolverConfig(method="cg")))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="newton")
    with pytest.raises(ValueError):
        SolverConfig(tol_rel_energy=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_energy_is_recomputed_from_returned_field():
    """The reported energy must equal the functional at the returned u."""
    sol = mu_q(CHECKER, (0.7, 1.1), 1.0, 4)
    assert sol.energy == pytest.approx(discrete_energy(sol.u, CHECKER), rel=1e-14)


def test_tikhonov_regularization_stays_close():
    g = build_grid(1.0, 2)
    bd = HAffineBoundary((1.0, 0.0))
    base = solve_cell(CellProblem(g, CHECKER, bd, SolverConfig()))
    reg = solve_cell(CellProblem(g, CHECKER, bd, SolverConfig(tikhonov=1e-12)))
    assert reg.energy == pytest.approx(base.energy, rel=1e-8)


def test_first_order_evaluates_the_energy_about_once_per_iteration(monkeypatch):
    """No per-iteration callback re-runs the objective."""
    calls = []
    original = PowerIntegrand.eval_cells

    def counted(self, X, Q):
        calls.append(len(Q))
        return original(self, X, Q)

    monkeypatch.setattr(PowerIntegrand, "eval_cells", counted)
    sol = mu_q(power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0), (1.0, 0.0), 1, 2)
    assert sol.method == "first_order" and sol.converged
    assert len(calls) <= 1.3 * sol.iterations + 2


@pytest.mark.parametrize("d", [0.0, -1.0, np.nan])
def test_pcg_rejects_non_positive_diagonal(d):
    K = sp.csr_matrix(np.diag([1.0, d]))
    with pytest.raises(NumericalError, match="diagonal"):
        _pcg(K, np.ones(2), np.zeros(2), 1e-12, 100)


def test_pcg_rejects_non_positive_curvature():
    K = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NumericalError, match="curvature"):
        _pcg(K, np.array([1.0, -1.0]), np.zeros(2), 1e-12, 100)


def test_pcg_reports_non_convergence_and_solves_spd():
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    b = np.array([1.0, 2.0, 3.0])
    _, it, relres, converged = _pcg(sp.csr_matrix(A), b, np.zeros(3), 1e-12, 1)
    assert it == 1 and relres > 1e-12 and converged is False
    x, it, relres, converged = _pcg(sp.csr_matrix(A), b, np.zeros(3), 1e-12, 100)
    assert converged is True and it <= 3
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-12)


_CG_FINGERPRINT = """
from heishom import checkerboard_coefficient, mu_q, power_integrand
s = mu_q(power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0), (1.0, 0.0), 1, 12)
print(s.iterations, s.residual.hex(), s.energy.hex())
"""


def test_cg_result_does_not_depend_on_blas_threads():
    """The PCG reductions bypass BLAS, whose threaded dot/nrm2 round differently."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(heishom.__file__)))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _CG_FINGERPRINT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outs.append(proc.stdout.split())
    assert outs[0] == outs[1]


def test_alpha3_first_order_converges_and_improves():
    f3 = power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0)
    g = build_grid(1.0, 2)
    bd = HAffineBoundary((1.0, 0.0))
    sol = solve_cell(CellProblem(g, f3, bd, SolverConfig()))
    assert sol.converged
    e_aff = discrete_energy(apply_boundary(h_affine_field(g, np.array([1.0, 0.0])), bd), f3)
    assert sol.energy < e_aff


# ---------------------------------------------------------------------------
# translation invariance of the discrete problem
# ---------------------------------------------------------------------------

def test_translation_invariance_lattice_shifts():
    for z in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)):
        rep = check_translation_invariance(CHECKER, (1.0, 0.0), z, 1.0, 4)
        assert rep.coeffs_bitwise_equal, z
        assert rep.rel_energy_gap <= 1e-10, z
        assert rep.ok


def test_translation_invariance_detects_fractional_shift():
    rep = check_translation_invariance(CHECKER, (1.0, 0.0), (0.25, 0.0, 0.0), 1.0, 4)
    assert not rep.coeffs_bitwise_equal
    assert rep.max_coeff_diff > 0.1
