# Anisotropic grids, scalar fields and the discrete horizontal gradient
#
# Energies are discretized on box grids whose vertical extent scales like the
# square of the horizontal extent, matching the dilations of the group.  This
# script builds grids, evaluates fields on them, and shows the key structural
# fact of the discretization: the mean horizontal gradient only depends on
# the boundary values.

import os
import tempfile

import numpy as np

import heishom as hh


def main():
    # -- build_grid(t, M) spans [-t,t)^2 x [-t^2,t^2) with spacing 1/M along
    #    the horizontal axes and the matching square scaling vertically.
    grid = hh.build_grid(2, 2)
    print("grid shape:", grid.shape)
    print("horizontal axis:", np.round(grid.axes[0][:5], 3), "...")
    print("vertical axis:  ", np.round(grid.axes[2][:5], 3), "...")
    print("cell volume:", grid.cell_volume)

    # -- an h-affine field is linear in the horizontal coordinates only; its
    #    discrete horizontal gradient is constant and equal to the slope.
    q = (1.5, -0.5)
    u = hh.h_affine_field(grid, q)
    g = hh.discrete_h_gradient(u)
    print("\nslope q =", q)
    print("discrete gradient min/max per component:")
    print("  ", g.reshape(-1, 2).min(axis=0), g.reshape(-1, 2).max(axis=0))

    # -- overwrite every interior node with noise; with the boundary trace
    #    intact the volume-averaged gradient still equals q exactly.
    rng = np.random.default_rng(42)
    noisy = hh.apply_boundary(
        hh.ScalarField(grid, rng.normal(0.0, 10.0, size=grid.shape)),
        hh.HAffineBoundary(q),
    )
    mean = hh.mean_h_gradient(noisy, hh.HAffineBoundary(q))
    print("\nmean gradient of a noisy interior:", mean, "(= q)")

    # -- energies integrate an integrand of the gradient over the grid cells.
    f = hh.power_integrand(hh.ConstantCoefficient(1.0), 2.0)
    e_affine = hh.discrete_energy(u, f)
    e_noisy = hh.discrete_energy(noisy, f)
    print("\nenergy of the affine field:", e_affine)
    print("energy of the noisy field: ", e_noisy, "(affine is far lower)")

    # -- fields round-trip through CSV for inspection in other tools.
    path = os.path.join(tempfile.mkdtemp(), "field.csv")
    hh.field_to_csv(u, path)
    u2 = hh.field_from_csv(path)
    print("\nCSV round trip exact:", bool(np.array_equal(u.values, u2.values)))
    print("wrote", path)


if __name__ == "__main__":
    main()
