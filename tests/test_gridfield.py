"""Anisotropic grids, node fields, and the cell-based gradient stencil."""

import os

import numpy as np
import pytest

from heishom import (
    HAffineBoundary,
    ScalarField,
    apply_boundary,
    build_grid,
    centered_box_grid,
    dilated_box_grid,
    discrete_h_gradient,
    field_from_csv,
    field_to_csv,
    grid_from_axes,
    h_affine_field,
    h_gradient_exact,
    integrate_cells,
    mean_h_gradient,
)
from heishom.closedform import Polynomial


def rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_grid_shapes_frozen():
    g = build_grid(1.0, 2)
    assert g.shape == (5, 5, 5)
    assert g.num_nodes == 125
    g2 = build_grid(2.0, 2)
    assert g2.shape == (9, 9, 17)
    # vertical extent grows like t^2, horizontal like t
    assert g2.axes[0][0] == -2.0 and g2.axes[0][-1] == 2.0
    assert g2.axes[2][0] == -4.0 and g2.axes[2][-1] == 4.0


def test_grid_volume_frozen():
    # box (2t)^2 x (2 t^2): t=3 gives 6 * 6 * 18
    g = dilated_box_grid(3.0, 1.0, 1)
    assert g.volume == pytest.approx(648.0, rel=0, abs=0)
    assert build_grid(1.0, 4).volume == pytest.approx(8.0)


def test_grid_spacing_uniform_per_axis():
    g = build_grid(2.0, 4)
    for ax, st in zip(g.axes, g.steps):
        np.testing.assert_allclose(np.diff(ax), st, rtol=1e-12)
    # horizontal spacing is 1/M by construction
    assert g.steps[0] == pytest.approx(0.25)
    assert g.steps[1] == pytest.approx(0.25)


def test_fractional_scale_needs_compatible_resolution():
    # 2 t M horizontal intervals must come out integral; the error names the
    # smallest resolution that fixes it
    g = build_grid(0.5, 2)
    assert g.axes[0][-1] == 0.5
    assert build_grid(0.5, 1).shape[0] == 2  # 2tM = 1 is fine
    with pytest.raises(ValueError, match="smallest valid M is 2"):
        build_grid(0.25, 1)
    with pytest.raises(ValueError, match="smallest valid M is 3"):
        build_grid(1.0 / 3.0, 1)


def test_invalid_args_rejected():
    with pytest.raises(ValueError):
        build_grid(-1.0, 2)
    with pytest.raises(ValueError):
        build_grid(1.0, 0)
    with pytest.raises(ValueError):
        centered_box_grid((0.0, 0.0, 0.0), -0.5, 2)


def test_centered_box_is_euclidean_cube():
    g = centered_box_grid((0.3, -0.2, 1.0), 0.25, 4)
    assert g.shape == (9, 9, 9)
    for i, c in enumerate((0.3, -0.2, 1.0)):
        assert g.axes[i][0] == pytest.approx(c - 0.25)
        assert g.axes[i][-1] == pytest.approx(c + 0.25)


def test_grid_from_axes_validates():
    g = build_grid(1.0, 2)
    g2 = grid_from_axes(g.axes, 1)
    assert g2.shape == g.shape
    bad = (np.array([0.0, 1.0, 3.0]),) + g.axes[1:]
    with pytest.raises(ValueError):
        grid_from_axes(bad, 1)


def test_boundary_masks_partition_nodes():
    g = build_grid(1.0, 2)
    mask = g.boundary_mask
    assert mask.shape == g.shape
    assert mask.sum() + len(g.interior_flat) == g.num_nodes
    # all six faces are boundary
    assert mask[0].all() and mask[-1].all()
    assert mask[:, 0].all() and mask[:, -1].all()
    assert mask[:, :, 0].all() and mask[:, :, -1].all()
    assert not mask[1:-1, 1:-1, 1:-1].any()


# ---------------------------------------------------------------------------
# fields and boundary data
# ---------------------------------------------------------------------------

def test_field_validation():
    g = build_grid(1.0, 2)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((3, 3, 3)))
    vals = np.zeros(g.shape)
    vals[2, 2, 2] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, vals)


def test_apply_boundary_only_touches_boundary():
    g = build_grid(1.0, 2)
    gen = rng(30)
    u = ScalarField(g, gen.uniform(-1, 1, g.shape))
    bd = HAffineBoundary((2.0, -1.0), a=0.3)
    v = apply_boundary(u, bd)
    mask = g.boundary_mask
    np.testing.assert_array_equal(v.values[~mask], u.values[~mask])
    np.testing.assert_array_equal(v.values[mask], bd.trace(g)[mask])
    # idempotent
    w = apply_boundary(v, bd)
    np.testing.assert_array_equal(w.values, v.values)


def test_integrate_cells_exact_for_constants():
    g = build_grid(2.0, 4)
    ones = np.ones(g.cell_shape)
    assert integrate_cells(ones, g) == pytest.approx(g.volume, rel=1e-15)


# ---------------------------------------------------------------------------
# the stencil
# ---------------------------------------------------------------------------

def test_affine_fields_have_exact_constant_gradient():
    gen = rng(31)
    for t, M in ((1.0, 2), (2.0, 4), (0.5, 2)):
        g = build_grid(t, M)
        q = gen.uniform(-3, 3, size=2)
        u = h_affine_field(g, q, a=0.5)
        hg = discrete_h_gradient(u)
        assert hg.shape == g.cell_shape + (2,)
        np.testing.assert_allclose(hg, np.broadcast_to(q, hg.shape),
                                   rtol=0, atol=1e-13)


def test_mean_gradient_ignores_interior():
    """Volume-averaged stencil gradient is a boundary functional: exactly q."""
    gen = rng(32)
    for t in (1.0, 2.0):
        for M in (2, 4):
            g = build_grid(t, M)
            for _ in range(25):
                q = gen.uniform(-2, 2, size=2)
                bd = HAffineBoundary(tuple(q), a=float(gen.uniform(-1, 1)))
                u = apply_boundary(ScalarField(g, gen.uniform(-5, 5, g.shape)), bd)
                np.testing.assert_allclose(mean_h_gradient(u, bd), q, rtol=0, atol=1e-12)


def test_mean_gradient_rejects_wrong_trace():
    g = build_grid(1.0, 2)
    u = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        mean_h_gradient(u, HAffineBoundary((1.0, 0.0)))


def test_stencil_consistency_on_smooth_field():
    """Second-order convergence to the exact frame gradient at cell centers."""
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))
    u = x * x * y + z * y - x * z + Polynomial.constant(1.0, 3)
    errs = []
    for M in (2, 4, 8):
        g = build_grid(1.0, M)
        uf = ScalarField.from_function(g, u.value)
        hg = discrete_h_gradient(uf)
        exact = h_gradient_exact(u, g.cell_centers).reshape(g.cell_shape + (2,))
        errs.append(np.abs(hg - exact).max())
    errs = np.asarray(errs)
    assert np.all(errs[1:] < errs[:-1])
    # convergence order ~ h^2
    rate = np.log2(errs[:-1] / errs[1:])
    assert rate.min() > 1.7


@pytest.mark.parametrize("n", (1, 2))
def test_csv_round_trip(tmp_path, n):
    g = build_grid(1.0, 2, n)
    u = ScalarField.from_function(g, lambda X: np.sin(X[..., 0]) + X[..., 2] ** 2)
    p = os.path.join(tmp_path, "field.csv")
    field_to_csv(u, p)
    with open(p) as fh:
        header = [line for line in fh if not line.startswith("#")][0]
    assert header == ",".join(f"x{i + 1}" for i in range(2 * n + 1)) + ",value\n"
    v = field_from_csv(p)
    np.testing.assert_array_equal(v.values, u.values)
    assert v.grid.shape == g.shape
    assert v.grid.t == g.t and v.grid.M == g.M
    for a, b in zip(v.grid.axes, g.axes):
        np.testing.assert_array_equal(a, b)
