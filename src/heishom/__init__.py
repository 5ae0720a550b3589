"""Numerical homogenisation of degenerate energies with group-invariant structure.

The package discretizes integral functionals whose gradient is taken along a
step-2 stratified (Heisenberg-type) horizontal frame, solves cell-problem
minimizations with affine-in-the-frame boundary data, and estimates the
effective (homogenised) integrand through the anisotropic scaling ladder --
for periodic tile coefficients and for short-correlated random ones.

Layout:

``heisenberg``   exact group operations, anisotropic dilations, tiling
``grids``        anisotropic boxes, scalar fields, the discrete horizontal
                 gradient, boundary traces
``integrands``   coefficient fields and convex integrands f(x, q)
``solve``        cell-problem minimization (preconditioned CG for quadratic
                 energies, a first-order method otherwise, a dense probe
                 oracle for small grids)
``homog``        energy-density ladders, effective-integrand estimation,
                 rescaling and recovery diagnostics, slope sweeps
``stochastic``   random tile coefficients and Monte Carlo concentration
``checks``       randomized structural self-checks
``cli``          the ``heishom`` command-line front end
"""

from .heisenberg import (
    GroupParams,
    dilate,
    group_inv,
    group_mul,
    h_gradient_exact,
    homogeneous_distance,
    homogeneous_norm,
    origin,
    pullback_to_cell,
    rescaled_tile_index,
    sigma,
    sigma_ext,
    split_coords,
    tau_compose,
    tile_index,
    translate_tau,
)
from .closedform import LeftTranslate, Polynomial, SmoothFunction, h_linear
from .grids import (
    AnisoGrid,
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
    integrate_cells,
    mean_h_gradient,
)
from .integrands import (
    CellTableCoefficient,
    ConstantCoefficient,
    ConstantMatrixField,
    Integrand,
    MatrixPowerIntegrand,
    PowerIntegrand,
    SmoothCoefficient,
    checkerboard_coefficient,
    matrix_p_integrand,
    power_integrand,
    rescale_integrand,
    translate_integrand,
    verify_assumptions,
)
from .solve import (
    CellProblem,
    CellSolution,
    NumericalError,
    SolverConfig,
    check_translation_invariance,
    dense_reference_minimum,
    discrete_energy,
    gradient_operator,
    mu_q,
    solve_cell,
)
from .homog import (
    HomogConfig,
    HomogReport,
    effective_integrand,
    energy_density_sequence,
    noninteger_scale_check,
    q_sweep,
    recover_integrand_pointwise,
    ultimo_check,
)
from .stochastic import (
    RandomTileCoefficient,
    TwoPointLaw,
    UniformLaw,
    concentration_report,
    monte_carlo_effective,
    sample_random_integrand,
    tile_correlation_radius,
)
from .checks import run_verification

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
