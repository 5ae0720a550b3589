"""Effective-integrand estimation through the anisotropic cell-problem ladder.

For a fixed slope q the normalized minima

    e_k(q) = mu_q(delta_k(Q)) / |delta_k(Q)|

converge, as the dilation parameter k grows, to the effective integrand value
f0(q); the limit is also the infimum over k, so the minimum over a computed
ladder is the natural estimator and every e_k is an upper bound.

This module also hosts the structural cross-checks that make the estimator
trustworthy on a grid:

* ``ultimo_check``      the exact discrete identity between the problem on a
  dilated box with integrand f and the problem on the unit-size box with the
  dilation-rescaled integrand (energies match after scaling by t^(2n+2)).
* ``noninteger_scale_check``   non-integer dilation parameters stay within
  the volume-ratio band of the integer ladder.
* ``recover_integrand_pointwise``   shrinking boxes centered at a point
  recover f(x0, q) for continuous-in-x integrands.
* ``q_sweep``           tabulates f0 over a slope grid and audits convexity,
  growth, and evenness.
"""

from dataclasses import dataclass

import numpy as np

from .grids import HAffineBoundary, centered_box_grid, dilated_box_grid, grid_from_axes
from .integrands import Integrand, rescale_integrand
from .solve import CellProblem, mu_q, solve_cell

__all__ = [
    "HomogReport",
    "energy_density_sequence",
    "UltimoReport",
    "ultimo_check",
    "ScaleBandReport",
    "noninteger_scale_check",
    "RecoveryReport",
    "recover_integrand_pointwise",
    "EffectiveIntegrandTable",
    "q_sweep",
]

# verdict tolerances
TREND_SLACK = 1e-6           # ladder gaps at or below this are ties (monotone_trend_ok)
BOUNDS_SLACK = 1e-9          # allowance on each growth bound, relative to max(1, bound) (bounds_ok)
FLOOR_SLACK = 1e-12          # a scale this close below an integer has that integer as its floor
ULTIMO_TOL = 1e-10           # relative gap, direct against rescaled energy
SCALE_SLACK = 1e-6           # absolute allowance on every non-integer scale band
RECOVERY_ZERO = 1e-10        # relative recovery error at or below which a value is exact
SWEEP_CONVEXITY_TOL = 1e-3   # midpoint convexity violation, relative to max(1, |f0|)
SWEEP_SYMMETRY_TOL = 2e-10   # evenness gap |f0(q) - f0(-q)|, relative to max(1, |f0|)


@dataclass
class HomogReport:
    q: tuple
    k_list: tuple
    e: np.ndarray
    f0_estimate: float
    diagnostics: list
    verdicts: dict


def map_jobs(fn, items, threads=1):
    """Order-preserving map, optionally over a thread pool.

    The threads share one interpreter lock, which the solves hold for much
    of their time: Newton's steps and the V-cycle set-up are many short
    numpy calls.  So threads speed a batch of solves up by well under their
    count.  Measured on 2 cores: the 18 solves of an alpha = 3 sweep over
    {-1, 0, 1}^2 at k = 1, 2 took 1.55-1.63 s serial, 1.33-1.35 s on 2
    threads and 0.83-1.08 s as 2 processes; in an 8-sample Monte Carlo
    ladder (k = 1..3) the V-cycle set-ups took 1.27-1.35 s of thread time
    serial and 1.59-1.71 s on 2 threads.  Eight random-tile solves (q = (1, 0),
    M = 4) ran at k = 2 x1.00-1.11 the serial speed on 2 threads and
    x1.44-1.68 as 2 forked processes, and at k = 3 x1.2-1.9 on threads and
    x1.6-2.0 as processes.  The only BLAS calls are the small dense blocks of
    the coarsest-level LU (at most 1500 unknowns).
    """
    items = list(items)
    if threads and int(threads) > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=int(threads)) as ex:
            return list(ex.map(fn, items))
    return [fn(it) for it in items]


def energy_density_sequence(f: Integrand, q, k_list=(1, 2, 3, 4), M=4, n=1) -> HomogReport:
    """Compute the ladder e_k = mu_q(delta_k(Q)) / |delta_k(Q)|.

    The grid spacing is fixed by M across the whole ladder, so the k-th solve
    refines nothing; it only enlarges the box.  Verdicts:

    bounds_ok          c1 |q|^a <= e_k <= c2 (|q|^a + 1) for every k, each
                       within BOUNDS_SLACK (relative to max(1, bound))
    monotone_trend_ok  e_k' <= e_k + TREND_SLACK whenever k divides k' --
                       a dilated box tiles exactly by copies of the smaller
                       one only along divisibility, so consecutive entries
                       need not be ordered -- and the last consecutive gap
                       is smaller than the first (vacuous when all gaps are
                       within TREND_SLACK, e.g. x-independent integrands)
    solves_converged   every cell solve reported convergence
    """
    k_list = tuple(k_list)
    if len(k_list) == 0 or any(k <= 0 for k in k_list):
        raise ValueError("k_list must contain positive scales")
    if list(k_list) != sorted(k_list):
        raise ValueError("k_list must be increasing")
    q = np.atleast_1d(np.asarray(q, dtype=float))

    e = []
    diagnostics = []
    for k in k_list:
        sol = mu_q(f, q, k, M, n)
        grid = sol.u.grid
        e.append(sol.energy / grid.volume)
        diagnostics.append(
            {
                "k": k,
                "e_k": e[-1],
                "iterations": sol.iterations,
                "residual": sol.residual,
                "converged": bool(sol.converged),
                "num_nodes": grid.num_nodes,
            }
        )
    e = np.asarray(e)

    qpow = float(np.sum(q * q) ** (0.5 * f.alpha))
    lo, hi = f.c1 * qpow, f.c2 * (qpow + 1.0)
    bounds_ok = bool(np.all(e >= lo - BOUNDS_SLACK * max(1.0, lo))
                     and np.all(e <= hi + BOUNDS_SLACK * max(1.0, hi)))

    deltas = np.abs(np.diff(e))
    divis_ordered = True
    for i, ki in enumerate(k_list):
        for j, kj in enumerate(k_list):
            is_multiple = (
                ki < kj
                and float(ki).is_integer()
                and float(kj).is_integer()
                and int(kj) % int(ki) == 0
            )
            if is_multiple:
                divis_ordered = divis_ordered and (e[j] <= e[i] + TREND_SLACK)
    if len(deltas) >= 2:
        shrinking = bool(deltas[-1] < deltas[0]) or bool(np.all(deltas <= TREND_SLACK))
    else:
        shrinking = True
    verdicts = {
        "bounds_ok": bounds_ok,
        "monotone_trend_ok": bool(divis_ordered and shrinking),
        "solves_converged": bool(all(d["converged"] for d in diagnostics)),
        "ultimo_ok": None,
    }

    f0 = float(np.min(e))
    return HomogReport(
        q=tuple(q),
        k_list=k_list,
        e=e,
        f0_estimate=f0,
        diagnostics=diagnostics,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# exact rescaling identity
# ---------------------------------------------------------------------------

@dataclass
class UltimoReport:
    t: float
    rho: float
    energy_direct: float
    energy_rescaled: float
    scaled_rescaled: float
    rel_diff: float
    ok: bool


def ultimo_check(f: Integrand, q, t, rho=1.0, M=4, n=1) -> UltimoReport:
    """Discrete form of the rescaling identity.

    Solve once on the dilated box delta_t([-rho, rho]^N) with integrand f and
    once on [-rho, rho]^N with the rescaled integrand f(delta_t(.), .) on the
    node-for-node dilated grid; the first energy must equal t^(2n+2) times
    the second to ``ULTIMO_TOL`` (the two discrete problems are images
    of each other under an exact change of variables).
    """
    t = float(t)
    bd = HAffineBoundary(tuple(np.atleast_1d(q)))

    big = dilated_box_grid(t, rho, M, n)
    small_axes = tuple(
        ax / t if i < 2 * n else ax / (t * t) for i, ax in enumerate(big.axes)
    )
    small = grid_from_axes(small_axes, n)
    f_small = rescale_integrand(f, 1.0 / t)

    e_big = solve_cell(CellProblem(big, f, bd)).energy
    e_small = solve_cell(CellProblem(small, f_small, bd)).energy

    hdim = 2 * n + 2
    scaled = (t**hdim) * e_small
    rel = abs(e_big - scaled) / max(abs(e_big), 1e-300)
    return UltimoReport(
        t=t,
        rho=float(rho),
        energy_direct=e_big,
        energy_rescaled=e_small,
        scaled_rescaled=scaled,
        rel_diff=float(rel),
        ok=bool(rel <= ULTIMO_TOL),
    )


# ---------------------------------------------------------------------------
# non-integer scales
# ---------------------------------------------------------------------------

@dataclass
class ScaleBandReport:
    t_list: tuple
    e_t: np.ndarray
    e_floor: np.ndarray
    bounds: np.ndarray
    ok: bool


def noninteger_scale_check(f: Integrand, q, t_list, M=4, n=1) -> ScaleBandReport:
    """Check |e_t - e_floor(t)| against the volume-ratio band.

    The comparison constant is c2 (|q|^alpha + 1) (1 - (floor(t)/t)^hdim),
    the discrete counterpart of sandwiching a non-integer box between the
    integer ladder: trivially tight at integer t (up to ``SCALE_SLACK``).
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    hdim = 2 * n + 2
    qpow = float(np.sum(q * q) ** (0.5 * f.alpha))

    e_t, e_fl, bounds = [], [], []
    cache = {}
    for t in t_list:
        t = float(t)
        if t < 1:
            raise ValueError("scales below 1 are not compared against an integer floor")
        k = int(np.floor(t + FLOOR_SLACK))
        sol = mu_q(f, q, t, M, n)
        e_t.append(sol.energy / sol.u.grid.volume)
        if k not in cache:
            sk = mu_q(f, q, k, M, n)
            cache[k] = sk.energy / sk.u.grid.volume
        e_fl.append(cache[k])
        bounds.append(f.c2 * (qpow + 1.0) * (1.0 - (k / t) ** hdim) + SCALE_SLACK)

    e_t = np.asarray(e_t)
    e_fl = np.asarray(e_fl)
    bounds = np.asarray(bounds)
    ok = bool(np.all(np.abs(e_t - e_fl) <= bounds))
    return ScaleBandReport(tuple(float(t) for t in t_list), e_t, e_fl, bounds, ok)


# ---------------------------------------------------------------------------
# pointwise recovery
# ---------------------------------------------------------------------------

@dataclass
class RecoveryReport:
    x0: tuple
    q: tuple
    rho_list: tuple
    values: np.ndarray
    reference: float
    errors: np.ndarray
    strictly_decreasing: bool  # non-increasing, and strictly where above RECOVERY_ZERO


def recover_integrand_pointwise(
    f: Integrand, x0, q, rho_list=(0.5, 0.25, 0.125), M=4, n=1
) -> RecoveryReport:
    """Normalized minima on shrinking boxes centered at x0 approach f(x0, q).

    Boxes are Euclidean cubes [x0 - rho, x0 + rho]^N resolved self-similarly
    (2M intervals per axis regardless of rho), so the sequence of discrete
    problems is geometrically similar and the error trend reflects the
    continuum localization.
    """
    x0 = np.asarray(x0, dtype=float)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    rho_list = tuple(float(r) for r in rho_list)
    decreasing = all(b < a for a, b in zip(rho_list, rho_list[1:]))
    if not (rho_list and rho_list[-1] > 0 and decreasing):
        raise ValueError("rho_list must be non-empty, positive and strictly decreasing")

    ref = f.eval(x0, q)
    bd = HAffineBoundary(tuple(q))
    vals = []
    for rho in rho_list:
        grid = centered_box_grid(x0, rho, M, n)
        sol = solve_cell(CellProblem(grid, f, bd))
        vals.append(sol.energy / grid.volume)
    vals = np.asarray(vals)
    errors = np.abs(vals - ref)
    # errors within RECOVERY_ZERO (relative) count as zero: they may stay
    # there (an exact recovery), but may not rise out of it
    resolved = np.where(errors > RECOVERY_ZERO * max(1.0, abs(ref)), errors, 0.0)
    return RecoveryReport(
        x0=tuple(x0),
        q=tuple(q),
        rho_list=rho_list,
        values=vals,
        reference=float(ref),
        errors=errors,
        strictly_decreasing=all(b < a or a == b == 0.0 for a, b in zip(resolved, resolved[1:])),
    )


# ---------------------------------------------------------------------------
# slope sweeps
# ---------------------------------------------------------------------------

@dataclass
class EffectiveIntegrandTable:
    qs: np.ndarray
    f0: np.ndarray
    verdicts: dict
    worst_convexity_violation: float
    worst_symmetry_gap: float


def _slope_key(q):
    """q rounded to 9 decimals: slopes that agree there are the same table entry."""
    return tuple(np.round(q, 9))


def q_sweep(
    f: Integrand, q_axis=(-2.0, -1.0, 0.0, 1.0, 2.0), k_list=(1, 2, 3, 4), M=4, n=1, threads=1
) -> EffectiveIntegrandTable:
    """Tabulate f0 over the grid q_axis x ... x q_axis (m factors).

    Audits growth bounds per entry, midpoint convexity on all collinear
    triples inside the table (to ``SWEEP_CONVEXITY_TOL``) and evenness
    f0(q) = f0(-q) (to ``SWEEP_SYMMETRY_TOL``), both relative to the local
    value scale.  ``k_list``, ``M`` and ``n`` are passed to
    ``energy_density_sequence``; ``threads`` fans the slopes out.
    """
    if len(q_axis) == 0:
        raise ValueError("q_axis must contain at least one slope")
    m = 2 * n
    axes = [np.asarray(q_axis, dtype=float)] * m
    mesh = np.meshgrid(*axes, indexing="ij")
    qs = np.stack([mm.reshape(-1) for mm in mesh], axis=-1)

    def one(qv):
        return energy_density_sequence(f, qv, k_list=k_list, M=M, n=n)

    reports = map_jobs(one, qs, threads)
    f0 = np.array([rep.f0_estimate for rep in reports])
    growth_ok = all(rep.verdicts["bounds_ok"] for rep in reports)

    index = {_slope_key(p): i for i, p in enumerate(qs)}
    worst_conv = 0.0
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            # a table entry k at the midpoint of entries i and j
            k = index.get(_slope_key(0.5 * (qs[i] + qs[j])))
            if k is not None and k != i and k != j:
                avg = 0.5 * (f0[i] + f0[j])
                worst_conv = max(worst_conv, (f0[k] - avg) / max(1.0, abs(avg)))
    convex_ok = worst_conv <= SWEEP_CONVEXITY_TOL

    worst_sym = 0.0
    for i, qv in enumerate(qs):
        jj = index.get(_slope_key(-qv))
        if jj is not None:
            worst_sym = max(worst_sym, abs(f0[i] - f0[jj]) / max(1.0, abs(f0[i])))
    sym_ok = worst_sym <= SWEEP_SYMMETRY_TOL

    return EffectiveIntegrandTable(
        qs=qs,
        f0=f0,
        verdicts={
            "growth_ok": bool(growth_ok),
            "convexity_ok": bool(convex_ok),
            "symmetry_ok": bool(sym_ok),
        },
        worst_convexity_violation=float(worst_conv),
        worst_symmetry_gap=float(worst_sym),
    )
