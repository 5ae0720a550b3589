"""Randomized verification suites for the algebra, tiling, and stencil layers.

Each check draws a seeded batch of points, evaluates both sides of an exact
identity with vectorized kernels, and reports the worst deviation.  They are
used by the command-line ``verify`` subcommand and reused by the test suite;
all of them are fast (well under a second at the default sample counts).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .heisenberg import (
    GroupParams,
    dilate,
    group_inv,
    group_mul,
    homogeneous_norm,
    origin,
    pullback_to_cell,
    rescaled_tile_index,
    sigma,
    sigma_ext,
    tile_index,
    translate_tau,
)
from .grids import (
    HAffineBoundary,
    ScalarField,
    apply_boundary,
    build_grid,
    discrete_h_gradient,
    h_affine_field,
    mean_h_gradient,
)

__all__ = ["CheckResult", "check_group_algebra", "check_tiling", "check_divergence", "run_verification"]

# every check compares the two sides of an exact identity: rounding only
CHECK_TOL = 1e-12
BOX_HALF_WIDTH = 10.0   # group and tiling checks draw points from [-10, 10]^N
DIVERGENCE_FIELDS = 25  # random interior fields per grid in check_divergence


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tol: float
    samples: int
    wall_time_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return (f"[{status}] {self.name}: max_error={self.max_error:.3e} "
                f"tol={self.tol:.1e} samples={self.samples} ({self.wall_time_s:.3f}s)")


def _box_points(gen, count, N):
    return gen.uniform(-BOX_HALF_WIDTH, BOX_HALF_WIDTH, size=(count, N))


def check_group_algebra(n=1, samples=10_000, seed=0) -> CheckResult:
    """Group axioms, dilation homomorphisms, frame normalization, gauge norm."""
    t0 = time.perf_counter()
    par = GroupParams(n)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = _box_points(gen, samples, par.N)
    y = _box_points(gen, samples, par.N)
    z = _box_points(gen, samples, par.N)
    e = origin(n)

    errs = {}
    # associativity and identity / inverse laws
    errs["associativity"] = np.abs(group_mul(group_mul(x, y), z) - group_mul(x, group_mul(y, z))).max()
    errs["identity"] = max(np.abs(group_mul(x, e) - x).max(), np.abs(group_mul(e, x) - x).max())
    errs["inverse"] = max(np.abs(group_mul(x, group_inv(x))).max(),
                          np.abs(group_mul(group_inv(x), x)).max())
    # dilations: automorphisms, one-parameter group
    s_, t_ = 0.7, 1.9
    errs["dilation_hom"] = np.abs(dilate(t_, group_mul(x, y)) - group_mul(dilate(t_, x), dilate(t_, y))).max()
    errs["dilation_comp"] = np.abs(dilate(s_, dilate(t_, x)) - dilate(s_ * t_, x)).max()
    # frame: top block identity, extended matrix unit determinant
    sg = sigma(x[:64])
    errs["frame_top"] = np.abs(sg[:, : par.m, :] - np.eye(par.m)).max()
    det = np.linalg.det(sigma_ext(x[:64]))
    errs["frame_det"] = np.abs(det - 1.0).max()
    # gauge norm: homogeneity and symmetry
    nm = homogeneous_norm(x)
    errs["norm_homog"] = np.abs(homogeneous_norm(dilate(t_, x)) - t_ * nm).max()
    errs["norm_sym"] = np.abs(homogeneous_norm(group_inv(x)) - nm).max()

    worst = float(max(errs.values()))
    return CheckResult("group_algebra", worst <= CHECK_TOL, worst, CHECK_TOL, samples,
                       time.perf_counter() - t0, {k: float(v) for k, v in errs.items()})


def check_tiling(n=1, samples=10_000, seed=1) -> CheckResult:
    """Tiling is a partition: pullbacks land in the half-open cell and invert exactly."""
    t0 = time.perf_counter()
    par = GroupParams(n)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = _box_points(gen, samples, par.N)

    errs = {}
    k, y = pullback_to_cell(x)
    errs["cell_membership"] = float(max(0.0, (y.max() - 1.0), (-1.0 - y.min())))
    # strict half-open membership is a boolean, fold it into the error
    if y.max() >= 1.0:
        errs["cell_membership"] = max(errs["cell_membership"], 1.0)
    errs["round_trip"] = np.abs(translate_tau(k, y) - x).max()
    # points already inside the cell are their own representatives
    inside = gen.uniform(-1.0, 1.0 - 1e-9, size=(samples, par.N))
    errs["interior_fixed"] = np.abs(tile_index(inside)).max()
    # anisotropic rescaling consistency, including a non-integer scale
    for t in (0.5, 2.0, 3.0):
        kr = rescaled_tile_index(x, t)
        kd = tile_index(dilate(1.0 / t, x))
        errs[f"rescaled_t={t}"] = np.abs(kr - kd).max()

    worst = float(max(errs.values()))
    return CheckResult("tiling", worst <= CHECK_TOL, worst, CHECK_TOL, samples,
                       time.perf_counter() - t0, {k_: float(v) for k_, v in errs.items()})


def check_divergence(n=1, seed=2) -> CheckResult:
    """Volume-averaged discrete gradient depends only on the boundary trace.

    Overwriting the interior of an affine-data field with arbitrary values
    must leave the mean gradient at exactly q.
    """
    t0 = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    worst = 0.0
    count = 0
    for t in (1.0, 2.0):
        for M in (2, 4):
            g = build_grid(t, M, n)
            for _ in range(DIVERGENCE_FIELDS):
                q = gen.uniform(-2.0, 2.0, size=g.m)
                bd = HAffineBoundary(q, a=float(gen.uniform(-1, 1)))
                vals = gen.uniform(-5.0, 5.0, size=g.shape)
                u = apply_boundary(ScalarField(g, vals), bd)
                mg = mean_h_gradient(u, bd)
                worst = max(worst, float(np.abs(mg - q).max()))
                count += 1
    # also confirm the gradient of the exact affine field is constant q
    g = build_grid(2.0, 4, n)
    q = np.arange(1.0, g.m + 1.0)
    hg = discrete_h_gradient(h_affine_field(g, q))
    worst = max(worst, float(np.abs(hg - q).max()))
    return CheckResult("divergence", worst <= CHECK_TOL, worst, CHECK_TOL, count,
                       time.perf_counter() - t0)


def run_verification(n=1, seed=0, samples=10_000) -> list:
    """Run every structural check; returns the list of results."""
    return [
        check_group_algebra(n=n, samples=samples, seed=seed),
        check_tiling(n=n, samples=samples, seed=seed + 1),
        check_divergence(n=n, seed=seed + 2),
    ]
