"""Energy-density ladders, rescaling identity, recovery, slope sweeps."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heishom import (
    ConstantCoefficient,
    SmoothCoefficient,
    TwoPointLaw,
    checkerboard_coefficient,
    energy_density_sequence,
    matrix_p_integrand,
    monte_carlo_effective,
    mu_q,
    noninteger_scale_check,
    power_integrand,
    q_sweep,
    recover_integrand_pointwise,
    rescale_integrand,
    sample_random_integrand,
    ultimo_check,
)
from heishom import homog, stochastic
from heishom.homog import ULTIMO_TOL, map_jobs

CHECKER = power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0)


def test_ladder_constant_integrand_is_flat():
    f = power_integrand(ConstantCoefficient(2.0), 2.0)
    rep = energy_density_sequence(f, (1.0, 0.0), k_list=(1, 2), M=4)
    np.testing.assert_allclose(rep.e, 2.0, rtol=1e-10)
    assert rep.f0_estimate == pytest.approx(2.0, rel=1e-10)
    assert all(rep.verdicts[k] for k in ("bounds_ok", "monotone_trend_ok", "solves_converged"))


def test_ladder_checkerboard_between_arithmetic_bounds():
    """Effective value sits strictly inside [harmonic-ish, arithmetic] band."""
    rep = energy_density_sequence(CHECKER, (1.0, 0.0), k_list=(1, 2), M=4)
    mean_coeff = 2.5
    assert np.all(rep.e >= 1.0 - 1e-12)
    assert np.all(rep.e <= mean_coeff + 1e-12)
    assert rep.e[1] <= rep.e[0] + 1e-12
    assert rep.verdicts["bounds_ok"] and rep.verdicts["solves_converged"]


def test_ladder_input_validation():
    with pytest.raises(ValueError):
        energy_density_sequence(CHECKER, (1.0, 0.0), k_list=())
    with pytest.raises(ValueError):
        energy_density_sequence(CHECKER, (1.0, 0.0), k_list=(2, 1))
    with pytest.raises(ValueError):
        energy_density_sequence(CHECKER, (1.0, 0.0), k_list=(0, 1))


def test_effective_integrand_zero_slope():
    # q = 0: the affine trace is flat, nothing beats the zero field
    assert energy_density_sequence(CHECKER, (0.0, 0.0), k_list=(1,), M=2).f0_estimate == 0.0


def test_ultimo_identity_is_exact():
    for t in (2.0, 3.0):
        rep = ultimo_check(CHECKER, (1.0, -0.5), t, rho=1.0, M=2)
        assert rep.ok
        assert rep.rel_diff <= 1e-10
        # the two raw energies differ by the volume factor t^4
        assert rep.energy_direct == pytest.approx((t ** 4) * rep.energy_rescaled, rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(M=st.integers(1, 3), intervals=st.integers(1, 9),
       q=st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_ultimo_identity_at_random_rational_scales(M, intervals, q):
    """t = intervals / (2M) gives an integral horizontal count 2tM on [-1, 1];
    t is often not an integer, and the identity is exact at any such t."""
    t = intervals / (2 * M)
    rep = ultimo_check(CHECKER, (q[0] / 2, q[1] / 2), t, rho=1.0, M=M)
    assert rep.ok and rep.rel_diff <= ULTIMO_TOL


def test_ultimo_with_explicit_rescale_of_rescale():
    # applying the identity twice composes the scales
    f2 = rescale_integrand(CHECKER, 0.5)
    rep = ultimo_check(f2, (1.0, 0.0), 2.0, rho=0.5, M=4)
    assert rep.ok


def test_noninteger_scales_stay_in_band():
    rep = noninteger_scale_check(CHECKER, (1.0, 0.0), (2.0, 2.5), M=4)
    assert rep.ok
    # integer entry is compared against itself: zero gap
    assert abs(rep.e_t[0] - rep.e_floor[0]) == 0.0
    with pytest.raises(ValueError):
        noninteger_scale_check(CHECKER, (1.0, 0.0), (0.5,), M=4)


def test_recovery_shrinks_to_pointwise_value():
    a = SmoothCoefficient(
        lambda X: 2.0 + np.sin(np.pi * X[..., 0]) * np.sin(np.pi * X[..., 1]),
        1.0, 3.0)
    f = power_integrand(a, 2.0)
    rep = recover_integrand_pointwise(f, (0.3, 0.1, 0.0), (1.0, 0.0),
                                      rho_list=(0.5, 0.25, 0.125), M=2)
    assert rep.strictly_decreasing
    assert rep.errors[-1] < 0.05
    assert rep.reference == pytest.approx(2.0 + np.sin(0.3 * np.pi) * np.sin(0.1 * np.pi))


def test_recovery_validates_rho_list():
    with pytest.raises(ValueError):
        recover_integrand_pointwise(CHECKER, (0.0, 0.0, 0.0), (1.0, 0.0), rho_list=(0.25, 0.5))


@pytest.mark.parametrize("rho_list", [(), (0.5, 0.5), (0.5, 0.25, 0.25)])
def test_recovery_rejects_empty_or_repeated_radii(rho_list):
    with pytest.raises(ValueError, match="rho_list"):
        recover_integrand_pointwise(CHECKER, (0.0, 0.0, 0.0), (1.0, 0.0), rho_list=rho_list)


def test_q_sweep_rejects_an_empty_axis():
    with pytest.raises(ValueError, match="q_axis"):
        q_sweep(CHECKER, q_axis=(), k_list=(1,), M=2)


def test_q_sweep_structure_and_audits():
    tab = q_sweep(CHECKER, q_axis=(-1.0, 0.0, 1.0), k_list=(1,), M=2)
    assert tab.qs.shape == (9, 2)
    assert tab.f0.shape == (9,)
    assert tab.verdicts["growth_ok"]
    assert tab.verdicts["convexity_ok"]
    assert tab.verdicts["symmetry_ok"]
    # center of the table is q = 0
    i0 = int(np.flatnonzero(np.all(tab.qs == 0.0, axis=1))[0])
    assert tab.f0[i0] == 0.0
    # evenness holds pairwise by symmetry of the solves
    for i, qv in enumerate(tab.qs):
        j = int(np.flatnonzero(np.all(tab.qs == -qv, axis=1))[0])
        assert tab.f0[i] == pytest.approx(tab.f0[j], rel=1e-9)
    # the slopes the sweep took from their negation are bitwise their direct solves
    mapped = [i for i, j in enumerate(homog._sign_classes(tab.qs)) if i != j]
    assert len(mapped) == 4
    for i in mapped:
        assert energy_density_sequence(CHECKER, tab.qs[i], k_list=(1,), M=2).f0_estimate == tab.f0[i]


def test_q_sweep_threads_bitwise_equal():
    a = q_sweep(CHECKER, q_axis=(-1.0, 1.0), k_list=(1,), M=2, threads=1)
    b = q_sweep(CHECKER, q_axis=(-1.0, 1.0), k_list=(1,), M=2, threads=4)
    np.testing.assert_array_equal(a.f0, b.f0)


@pytest.mark.parametrize("f, q, t, M, n", [
    (CHECKER, (1.0, 0.5), 3, 2, 1),  # V-cycle CG: 4235 unknowns, coarse levels below
    (power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0), (1.0, -0.5), 2, 2, 1),
    (power_integrand(checkerboard_coefficient(1.0, 4.0), 2.5), (0.7, 1.3), 1, 4, 1),
    (matrix_p_integrand([[2.0, 0.5], [0.5, 1.0]], 3.0), (1.0, 0.5), 1, 4, 1),
    (sample_random_integrand(4, TwoPointLaw(1.0, 4.0)), (0.3, -1.0), 2, 2, 1),
    (power_integrand(SmoothCoefficient(lambda X: 2.0 + np.sin(X[..., 0]), 1.0, 3.0), 2.0),
     (1.0, 0.5), 2, 2, 1),
    (power_integrand(checkerboard_coefficient(1.0, 4.0, n=2), 2.0), (1.0, 0.5, -0.25, 2.0), 1, 2, 2),
    (power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0), (1.0, 0.0), 1, 4, 1),
], ids=["vcycle", "newton_alpha3", "newton_alpha2.5", "matrix_p", "random_tiles", "smooth", "n2",
        "zero_entry"])
def test_mu_q_is_odd_in_the_slope(f, q, t, M, n):
    """The premise of q_sweep's sign classes: the minimiser for -q is exactly
    -u_q, with the same energy, iterations, residual and verdict."""
    a = mu_q(f, np.asarray(q), t, M, n)
    b = mu_q(f, -np.asarray(q), t, M, n)
    np.testing.assert_array_equal(b.u.values, -a.u.values)
    assert (b.energy, b.iterations, b.residual, b.converged) == (
        a.energy, a.iterations, a.residual, a.converged)


@pytest.mark.parametrize("q_axis, calls", [
    ((-1.0, 0.0, 1.0), 5),
    ((-2.0, -1.0, 0.0, 1.0, 2.0), 13),
    ((1.0, 1.0), 1),                        # duplicate entries are one class
    ((0.3, -0.30000000000000004), 4),       # close to -q is not -q
    ((-0.0, 0.0, 1.0), 4),                  # +0.0 and -0.0 match
])
def test_q_sweep_solves_one_slope_per_sign_class(monkeypatch, q_axis, calls):
    solved = []

    def counted(f, q, *args, **kwargs):
        solved.append(tuple(q))
        return energy_density_sequence(f, q, *args, **kwargs)

    monkeypatch.setattr(homog, "energy_density_sequence", counted)
    tab = q_sweep(CHECKER, q_axis=q_axis, k_list=(1,), M=2)
    assert len(solved) == calls
    threaded = q_sweep(CHECKER, q_axis=q_axis, k_list=(1,), M=2, threads=4)
    np.testing.assert_array_equal(threaded.f0, tab.f0)
    # a slope whose first nonzero entry is negative is solved only if its
    # negation is not in the table
    table = set(map(tuple, tab.qs))
    for q in solved:
        first = next((v for v in q if v != 0), 0.0)
        assert first >= 0 or tuple(-v for v in q) not in table
    direct = [energy_density_sequence(CHECKER, q, k_list=(1,), M=2).f0_estimate for q in tab.qs]
    np.testing.assert_array_equal(tab.f0, direct)


def test_map_jobs_preserves_order():
    out = map_jobs(lambda v: v * v, range(20), threads=4)
    assert out == [v * v for v in range(20)]


@pytest.mark.parametrize("run", [
    lambda: q_sweep(CHECKER, q_axis=(0.0, 1.0), k_list=(1,), M=2),
    lambda: monte_carlo_effective(TwoPointLaw(1.0, 4.0), (1.0, 0.0), k_list=(1,), n_samples=2, M=2),
], ids=["q_sweep", "monte_carlo_effective"])
def test_fan_out_jobs_survive_pickling(monkeypatch, run):
    """The job map_jobs fans out is a module-level callable with plain
    arguments: after a pickle round trip it gives the same report."""
    jobs = []

    def pickling_map_jobs(fn, items, threads=1):
        jobs.append(fn)
        fn = pickle.loads(pickle.dumps(fn))
        return [fn(item) for item in items]

    expected = run()
    monkeypatch.setattr(homog, "map_jobs", pickling_map_jobs)
    monkeypatch.setattr(stochastic, "map_jobs", pickling_map_jobs)
    got = run()
    assert len(jobs) == 1
    np.testing.assert_equal(dataclasses.asdict(got), dataclasses.asdict(expected))
