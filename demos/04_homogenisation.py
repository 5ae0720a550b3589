# From cell problems to an effective integrand
#
# Solving the cell problem on larger and larger dyadic boxes gives a sequence
# of energy densities e_k whose limit (approximated by the infimum over the
# computed scales) is the effective integrand f0(q): the energy density of a
# fictitious homogeneous medium equivalent to the periodic one.  This script
# runs the ladder for the checkerboard, verifies the exact-rescaling and
# translation-invariance identities behind it, sweeps f0 over a grid of
# slopes, and recovers a smooth coefficient pointwise.

import numpy as np

import heishom as hh


def main():
    f = hh.power_integrand(hh.checkerboard_coefficient(1.0, 4.0), 2.0)
    q = (1.0, 0.0)

    # -- the ladder: densities on boxes of size 1, 2, 3, 4.  Monotonicity
    #    holds along divisibility (k=2 vs k=4), not between neighbours.
    rep = hh.energy_density_sequence(f, q, k_list=(1, 2, 3, 4), M=4)
    print("e_k:", np.round(rep.e, 8))
    print("f0 estimate (infimum):", rep.f0_estimate)
    print("verdicts:", rep.verdicts)

    # -- exact rescaling: solving on the dilated box with f equals solving on
    #    the unit box with the rescaled integrand, node for node.
    for t in (2, 3):
        ur = hh.ultimo_check(f, q, t, rho=1.0, M=4)
        print(f"rescaling identity t={t}: relative difference {ur.rel_diff:.2e}")

    # -- translating the medium by a lattice element changes nothing: the
    #    coefficient tables match bit for bit and the minima agree.
    tr = hh.check_translation_invariance(f, q, (1.0, 1.0, 1.0), t=1, M=4)
    print("translation by (1,1,1): coefficients bitwise equal =",
          tr.coeffs_bitwise_equal, " energy gap =", tr.rel_energy_gap)

    # -- sweep f0 over a 5x5 grid of slopes and check the structure it must
    #    inherit: quadratic growth, midpoint convexity, evenness.
    tab = hh.q_sweep(f, q_axis=(-2.0, -1.0, 0.0, 1.0, 2.0), k_list=(1, 2), M=4, threads=4)
    grid = tab.f0.reshape(5, 5)
    print("\nf0 on the slope grid (rows: q1, cols: q2):")
    print(np.array2string(grid, precision=4))
    print("verdicts:", tab.verdicts)

    # -- for a smooth (locally almost constant) coefficient, solving on a
    #    small window around x0 recovers f(x0, q) as the window shrinks.
    a = hh.SmoothCoefficient(
        lambda X: 2.0 + np.sin(np.pi * X[..., 0]) * np.sin(np.pi * X[..., 1]),
        1.0, 3.0,
    )
    rec = hh.recover_integrand_pointwise(
        hh.power_integrand(a, 2.0), (0.0, 0.0, 0.0), q,
        rho_list=(0.5, 0.25, 0.125), M=4,
    )
    print("\npointwise recovery at the origin (reference value 2):")
    for rho, val, err in zip(rec.rho_list, rec.values, rec.errors):
        print(f"  rho={rho:<6} value={val:.6f}  error={err:.2e}")
    print("errors strictly decreasing:", rec.strictly_decreasing)


if __name__ == "__main__":
    main()
