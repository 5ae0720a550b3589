"""End-to-end checks, one per advertised guarantee of the toolkit.

Each test exercises a full user-visible pipeline at fixed tolerances and
records a single pass/fail line (printed in the terminal summary by
conftest.py).  The checks are ordered from algebraic foundations to the
stochastic sampler:

  01  group operations, dilations and the horizontal frame are exact
  02  the tiling partitions space: unique index, exact round trip
  03  interior values cannot move the mean horizontal gradient
  04  constant quadratic integrands have affine minimizers in closed form
  05  the iterative solver agrees with a dense assembled reference
  06  solving on a dilated box equals rescaling the integrand
  07  integer translations leave coefficients and minima unchanged
  08  the checkerboard energy-density ladder stays in its a priori band
  09  the effective integrand inherits growth, convexity and evenness
  10  shrinking-window recovery converges for a smooth coefficient
  11  non-integer scales stay inside the comparison band
  12  random-tile sampling concentrates and is reproducible bit for bit
"""

import time

import numpy as np
import pytest

import heishom as hh


def _rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def _checkerboard_quadratic():
    return hh.power_integrand(hh.checkerboard_coefficient(1.0, 4.0), 2.0)


def test_01_group_algebra_is_exact(acceptance_log):
    rng = np.random.default_rng(7)
    N = 10_000
    X = rng.uniform(-5.0, 5.0, size=(N, 3))
    Y = rng.uniform(-5.0, 5.0, size=(N, 3))
    Z = rng.uniform(-5.0, 5.0, size=(N, 3))

    t0 = time.perf_counter()
    errs = {}
    errs["associativity"] = _rel(
        hh.group_mul(hh.group_mul(X, Y), Z), hh.group_mul(X, hh.group_mul(Y, Z))
    )
    errs["identity"] = _rel(hh.group_mul(X, hh.origin(1)), X)
    errs["inverse"] = float(np.max(np.abs(hh.group_mul(X, hh.group_inv(X)))))
    for t in (0.5, 2.0, 3.0):
        errs[f"dilation_hom_{t}"] = _rel(
            hh.dilate(t, hh.group_mul(X, Y)),
            hh.group_mul(hh.dilate(t, X), hh.dilate(t, Y)),
        )
        errs[f"dilation_comp_{t}"] = _rel(
            hh.dilate(t, hh.dilate(1.7, X)), hh.dilate(1.7 * t, X)
        )
        errs[f"norm_hom_{t}"] = _rel(
            hh.homogeneous_norm(hh.dilate(t, X)), t * hh.homogeneous_norm(X)
        )
    errs["norm_symmetry"] = _rel(
        hh.homogeneous_norm(hh.group_inv(X)), hh.homogeneous_norm(X)
    )
    S = hh.sigma(X)
    errs["frame_top_block"] = float(np.max(np.abs(S[:, :2, :] - np.eye(2))))
    errs["frame_ext_det"] = float(np.max(np.abs(np.linalg.det(hh.sigma_ext(X)) - 1.0)))
    u = hh.h_linear((2.0, -1.0), 0.5)
    grad_err = 0.0
    for x in X[:50]:
        grad_err = max(grad_err, float(np.max(np.abs(hh.h_gradient_exact(u, x) - [2.0, -1.0]))))
    errs["h_linear_gradient"] = grad_err
    elapsed = time.perf_counter() - t0

    worst = max(errs.values())
    ok = worst <= 1e-12 and elapsed < 1.0
    acceptance_log(1, "group-algebra-exact", ok, f"max_rel_err={worst:.2e} over {N} samples", elapsed)
    for name, err in errs.items():
        assert err <= 1e-12, f"{name}: {err:.3e}"
    assert elapsed < 1.0


def test_02_tiling_partitions_space(acceptance_log):
    rng = np.random.default_rng(11)
    N = 10_000
    X = rng.uniform(-10.0, 10.0, size=(N, 3))

    t0 = time.perf_counter()
    k, y = hh.pullback_to_cell(X)
    in_cell = bool(np.all(y >= -1.0) and np.all(y < 1.0))
    round_err = _rel(hh.translate_tau(k, y), X)

    # Exhaustive uniqueness on a subsample: over every index in a window that
    # provably contains all candidates, exactly one pullback lands in the cell.
    sub = X[:100]
    k_sub = k[:100]
    ax = np.arange(-6, 7)
    vert = np.arange(-66, 67)
    KK = np.stack(np.meshgrid(ax, ax, vert, indexing="ij"), axis=-1).reshape(-1, 3)
    Yall = hh.translate_tau(-KK[:, None, :], sub[None, :, :])
    hits = np.all((Yall >= -1.0) & (Yall < 1.0), axis=-1)
    counts = hits.sum(axis=0)
    unique = bool(np.all(counts == 1))
    winners = KK[np.argmax(hits, axis=0)]
    agrees = bool(np.array_equal(winners, k_sub))

    rescaled_err = 0.0
    rescaled_in_cell = True
    for t in (0.5, 2.0, 3.0):
        kt = hh.rescaled_tile_index(X, t)
        yt = hh.translate_tau(-kt, hh.dilate(1.0 / t, X))
        rescaled_in_cell &= bool(np.all(yt >= -1.0) and np.all(yt < 1.0))
        rescaled_err = max(rescaled_err, _rel(hh.dilate(t, hh.translate_tau(kt, yt)), X))
    elapsed = time.perf_counter() - t0

    ok = (
        in_cell and unique and agrees and rescaled_in_cell
        and round_err <= 1e-12 and rescaled_err <= 1e-12 and elapsed < 1.0
    )
    acceptance_log(
        2, "tiling-unique-round-trip", ok,
        f"round_trip={round_err:.2e} rescaled={rescaled_err:.2e} unique={unique}", elapsed,
    )
    assert in_cell, "pullback left the fundamental cell"
    assert round_err <= 1e-12
    assert unique, f"index counts: {np.unique(counts)}"
    assert agrees, "exhaustive winner disagrees with tile_index"
    assert rescaled_in_cell and rescaled_err <= 1e-12
    assert elapsed < 1.0


def test_03_interior_values_cannot_move_mean_gradient(acceptance_log):
    rng = np.random.default_rng(13)
    t0 = time.perf_counter()
    worst = 0.0
    n_fields = 0
    for t in (1, 2):
        for M in (2, 4):
            grid = hh.build_grid(t, M)
            for _ in range(100):
                q = rng.uniform(-2.0, 2.0, size=2)
                bd = hh.HAffineBoundary((float(q[0]), float(q[1])))
                u = hh.apply_boundary(
                    hh.ScalarField(grid, rng.normal(0.0, 5.0, size=grid.shape)), bd
                )
                m = hh.mean_h_gradient(u, bd)
                worst = max(worst, float(np.max(np.abs(m - q))))
                n_fields += 1
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and elapsed < 5.0
    acceptance_log(3, "mean-gradient-pinned-by-boundary", ok,
                   f"max_err={worst:.2e} over {n_fields} random fields", elapsed)
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_04_constant_quadratic_closed_form(acceptance_log):
    f = hh.power_integrand(hh.ConstantCoefficient(1.0), 2.0)
    t0 = time.perf_counter()
    worst_energy = 0.0
    worst_minimizer = 0.0
    for q in ((1.0, 0.0), (0.0, 1.0), (2.0, -1.0)):
        for t in (1, 2):
            sol = hh.mu_q(f, q, t, 4)
            vol = (2.0 * t) ** 2 * (2.0 * t * t)
            exact = (q[0] ** 2 + q[1] ** 2) * vol
            worst_energy = max(worst_energy, abs(sol.energy - exact) / exact)
            affine = hh.h_affine_field(sol.u.grid, q)
            worst_minimizer = max(
                worst_minimizer, float(np.max(np.abs(sol.u.values - affine.values)))
            )
            assert sol.converged
    elapsed = time.perf_counter() - t0

    ok = worst_energy <= 1e-8 and worst_minimizer <= 1e-6 and elapsed < 30.0
    acceptance_log(4, "constant-coefficient-closed-form", ok,
                   f"energy_rel={worst_energy:.2e} minimizer_max={worst_minimizer:.2e}", elapsed)
    assert worst_energy <= 1e-8, "energy must equal |q|^2 * 8 t^4"
    assert worst_minimizer <= 1e-6, "minimizer must be the h-affine field itself"
    assert elapsed < 30.0


def test_05_iterative_matches_dense_reference(acceptance_log):
    f = _checkerboard_quadratic()
    q = (1.0, 0.0)
    t0 = time.perf_counter()
    worst = 0.0
    for M in (1, 2):
        grid = hh.build_grid(1, M)
        bd = hh.HAffineBoundary(q)
        dense_energy, _ = hh.dense_reference_minimum(grid, f, bd)
        sol = hh.mu_q(f, q, 1, M)
        worst = max(worst, abs(sol.energy - dense_energy) / abs(dense_energy))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-10 and elapsed < 1.0
    acceptance_log(5, "dense-reference-agreement", ok, f"rel_gap={worst:.2e}", elapsed)
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_06_exact_rescaling_identity(acceptance_log):
    f = _checkerboard_quadratic()
    t0 = time.perf_counter()
    worst = 0.0
    all_ok = True
    for t in (2, 3):
        rep = hh.ultimo_check(f, (1.0, 0.0), t, rho=1.0, M=4)
        worst = max(worst, rep.rel_diff)
        all_ok &= rep.ok
    elapsed = time.perf_counter() - t0

    ok = all_ok and worst <= 1e-10 and elapsed < 60.0
    acceptance_log(6, "dilated-box-equals-rescaled-integrand", ok,
                   f"max_rel_diff={worst:.2e}", elapsed)
    assert all_ok and worst <= 1e-10
    assert elapsed < 60.0


def test_07_integer_translation_invariance(acceptance_log):
    f = _checkerboard_quadratic()
    q = (1.0, 0.0)
    t0 = time.perf_counter()
    bitwise = True
    worst_gap = 0.0
    for z in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)):
        rep = hh.check_translation_invariance(f, q, z, t=1, M=4)
        bitwise &= rep.coeffs_bitwise_equal
        worst_gap = max(worst_gap, rep.rel_energy_gap)
        assert rep.ok, f"translation by {z} failed: {rep}"
    elapsed = time.perf_counter() - t0

    ok = bitwise and worst_gap <= 1e-10 and elapsed < 30.0
    acceptance_log(7, "lattice-translation-invariance", ok,
                   f"coeffs_bitwise={bitwise} energy_gap={worst_gap:.2e}", elapsed)
    assert bitwise, "translated coefficient tables must match bit for bit"
    assert worst_gap <= 1e-10
    assert elapsed < 30.0


def test_08_checkerboard_ladder_stays_in_band(acceptance_log):
    f = _checkerboard_quadratic()
    t0 = time.perf_counter()
    rep = hh.energy_density_sequence(f, (1.0, 0.0), k_list=(1, 2, 3, 4), M=4)
    elapsed = time.perf_counter() - t0

    e = np.asarray(rep.e)
    in_band = bool(np.all((e >= 1.0) & (e <= 2.5)))
    dyadic_gap_shrinks = abs(e[2] - e[3]) < abs(e[0] - e[1])
    below = rep.f0_estimate < 2.5
    ok = in_band and dyadic_gap_shrinks and below and elapsed < 600.0
    acceptance_log(
        8, "checkerboard-ladder-band", ok,
        f"e={np.array2string(e, precision=6)} f0={rep.f0_estimate:.6f}", elapsed,
    )
    assert in_band, f"e outside [1, 2.5]: {e}"
    assert dyadic_gap_shrinks, f"|e3-e4|={abs(e[2]-e[3]):.4f} vs |e1-e2|={abs(e[0]-e[1]):.4f}"
    assert below, f"f0 estimate {rep.f0_estimate} not strictly below 2.5"
    assert rep.verdicts["solves_converged"]
    assert elapsed < 600.0


def test_09_effective_integrand_properties(acceptance_log, monkeypatch):
    f = _checkerboard_quadratic()
    solved = []

    def recorded(f, q, *args, **kwargs):
        solved.append(tuple(q))
        return hh.energy_density_sequence(f, q, *args, **kwargs)

    monkeypatch.setattr(hh.homog, "energy_density_sequence", recorded)
    t0 = time.perf_counter()
    tab = hh.q_sweep(f, q_axis=(-2.0, -1.0, 0.0, 1.0, 2.0), k_list=(1, 2), M=4, threads=4)
    elapsed = time.perf_counter() - t0
    monkeypatch.undo()

    # the oracle: every slope the sweep did not solve is solved directly here
    solved_set = set(solved)
    mapped = [i for i, q in enumerate(tab.qs) if tuple(q) not in solved_set]
    direct = hh.homog.map_jobs(
        lambda i: hh.energy_density_sequence(f, tab.qs[i], k_list=(1, 2), M=4).f0_estimate,
        mapped, threads=4)
    mapped_bitwise = len(solved) + len(mapped) == 25 and all(tab.f0[mapped] == direct)

    nq = np.sum(np.asarray(tab.qs) ** 2, axis=1)
    growth = bool(
        np.all(tab.f0 >= 1.0 * nq - 1e-9) and np.all(tab.f0 <= 4.0 * (nq + 1.0) + 1e-9)
    )
    convex = tab.verdicts["convexity_ok"]
    even = tab.worst_symmetry_gap <= 2e-10
    ok = growth and convex and even and mapped_bitwise and elapsed < 900.0
    acceptance_log(
        9, "effective-integrand-structure", ok,
        f"growth={growth} convexity_violation={tab.worst_convexity_violation:.2e} "
        f"symmetry_gap={tab.worst_symmetry_gap:.2e} on 25 slopes "
        f"({len(solved)} solved, {len(mapped)} mapped, bitwise={mapped_bitwise})", elapsed,
    )
    assert growth, "growth envelope a_min|q|^2 <= f0 <= a_max(|q|^2+1) violated"
    assert convex and tab.verdicts["growth_ok"]
    assert even, f"f0(q) vs f0(-q) gap {tab.worst_symmetry_gap:.3e}"
    assert mapped_bitwise, f"mapped slopes {tab.qs[mapped]}: {tab.f0[mapped]} vs direct {direct}"
    assert elapsed < 900.0


def test_10_smooth_recovery_shrinking_windows(acceptance_log):
    a = hh.SmoothCoefficient(
        lambda X: 2.0 + np.sin(np.pi * X[..., 0]) * np.sin(np.pi * X[..., 1]), 1.0, 3.0
    )
    f = hh.power_integrand(a, 2.0)
    t0 = time.perf_counter()
    rep = hh.recover_integrand_pointwise(
        f, (0.0, 0.0, 0.0), (1.0, 0.0), rho_list=(0.5, 0.25, 0.125), M=4
    )
    elapsed = time.perf_counter() - t0

    errors = np.asarray(rep.errors)
    ok = rep.strictly_decreasing and elapsed < 120.0
    acceptance_log(
        10, "pointwise-recovery-converges", ok,
        f"errors={np.array2string(errors, precision=6)} ref={rep.reference:g}", elapsed,
    )
    assert rep.strictly_decreasing, f"errors not strictly decreasing: {errors}"
    assert np.all(np.isfinite(errors))
    assert elapsed < 120.0


def test_11_noninteger_scale_band(acceptance_log):
    f = _checkerboard_quadratic()
    q = (1.0, 0.0)
    t0 = time.perf_counter()
    sol2 = hh.mu_q(f, q, 2.0, 4)
    sol25 = hh.mu_q(f, q, 2.5, 4)
    e2 = sol2.energy / ((2 * 2.0) ** 2 * (2 * 2.0 ** 2))
    e25 = sol25.energy / ((2 * 2.5) ** 2 * (2 * 2.5 ** 2))
    gap = abs(e25 - e2)
    # comparison band for f <= a_max (|xi|^2 + 1): the non-integer scale can
    # deviate from the floor scale by at most the volume fraction not covered
    # by whole dyadic tiles.
    bound = 4.0 * (1.0 + 1.0) * (1.0 - 2.0 ** 4 / 2.5 ** 4) + 1e-6
    rep = hh.noninteger_scale_check(f, q, t_list=(2.0, 2.5), M=4)
    elapsed = time.perf_counter() - t0

    ok = gap <= bound and rep.ok and elapsed < 120.0
    acceptance_log(11, "noninteger-scale-band", ok,
                   f"|e_2.5 - e_2|={gap:.4f} <= {bound:.4f}", elapsed)
    assert gap <= bound
    assert rep.ok
    assert elapsed < 120.0


def test_12_random_tiles_concentrate_and_reproduce(acceptance_log):
    law = hh.TwoPointLaw(1.0, 4.0, 0.5)
    q = (1.0, 0.0)
    t0 = time.perf_counter()
    mc = hh.monte_carlo_effective(
        law, q, k_list=(1, 2, 3), n_samples=16, base_seed=0, M=4, threads=4
    )
    mc2 = hh.monte_carlo_effective(
        law, q, k_list=(1, 2, 3), n_samples=16, base_seed=0, M=4, threads=4
    )
    # coefficient tables must reproduce bit for bit from the seed alone
    probe = np.random.default_rng(3).uniform(-8.0, 8.0, size=(512, 3))
    coeffs_bitwise = True
    for seed in list(mc.seeds)[:4]:
        c1 = hh.RandomTileCoefficient(law, int(seed))
        c2 = hh.RandomTileCoefficient(law, int(seed))
        coeffs_bitwise &= bool(np.array_equal(c1.values_at(probe), c2.values_at(probe)))
    elapsed = time.perf_counter() - t0

    var_drops = mc.variance[-1] < mc.variance[0]
    runs_bitwise = bool(np.array_equal(mc.e, mc2.e))
    ok = var_drops and mc.growth_ok and runs_bitwise and coeffs_bitwise and elapsed < 900.0
    acceptance_log(
        12, "random-tiles-concentration", ok,
        f"var={np.array2string(np.asarray(mc.variance), precision=4)} "
        f"growth_ok={mc.growth_ok} bitwise={runs_bitwise and coeffs_bitwise}", elapsed,
    )
    assert var_drops, f"Var(e_3)={mc.variance[-1]:.4f} not below Var(e_1)={mc.variance[0]:.4f}"
    assert mc.growth_ok, "a realization violated the uniform growth bounds"
    assert runs_bitwise, "identical seeds must give identical energy tables"
    assert coeffs_bitwise, "coefficient draws must be reproducible from the seed"
    assert elapsed < 900.0
