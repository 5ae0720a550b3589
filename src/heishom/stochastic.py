"""Random tile coefficients and Monte Carlo estimation of the effective energy.

A random coefficient assigns one independently drawn value to every tile of
the group tiling.  The draw for tile k under seed s is a pure function of
(s, k): the generator is keyed by a seed sequence whose spawn key encodes the
tile index, so values never depend on evaluation order and rerunning any part
of a pipeline reproduces identical coefficients bit for bit.

Such fields are stationary in law under the lattice translations (each tau_h
permutes tiles, and tile values are i.i.d.) but no realization is pointwise
periodic.  Two points farther apart than the tile diameter in the gauge
distance always lie in different tiles, hence carry independent values; that
diameter is recorded in reports as the correlation radius.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .heisenberg import tile_index
from .integrands import BIN_GUARD, CoefficientField, PowerIntegrand
from .homog import energy_density_sequence, map_jobs

__all__ = [
    "UniformLaw",
    "TwoPointLaw",
    "RandomTileCoefficient",
    "sample_random_integrand",
    "tile_correlation_radius",
    "MonteCarloReport",
    "monte_carlo_effective",
    "ConcentrationReport",
    "check_concentration_inputs",
    "concentration_report",
]


@dataclass(frozen=True)
class UniformLaw:
    lo: float
    hi: float

    def __post_init__(self):
        if not (0 < self.lo <= self.hi < math.inf):
            raise ValueError("need 0 < lo <= hi < inf")

    @property
    def support(self):
        return (self.lo, self.hi)

    def sample(self, gen):
        return float(gen.uniform(self.lo, self.hi))

    def to_json(self):
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class TwoPointLaw:
    a: float
    b: float
    prob: float = 0.5  # probability of drawing a

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError("values must be positive and finite")
        if not (0 <= self.prob <= 1):
            raise ValueError("prob must lie in [0, 1]")

    @property
    def support(self):
        return (min(self.a, self.b), max(self.a, self.b))

    def sample(self, gen):
        return float(self.a if gen.random() < self.prob else self.b)

    def to_json(self):
        return {"kind": "two_point", "a": self.a, "b": self.b, "prob": self.prob}


def _zigzag(v: int) -> int:
    v = int(v)
    return 2 * v if v >= 0 else -2 * v - 1


def _draw(seed, k, law):
    # spawn_key entries must be non-negative; fold signs with a zigzag code
    key = tuple(_zigzag(int(c)) for c in k)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return law.sample(np.random.Generator(np.random.Philox(ss)))


class RandomTileCoefficient(CoefficientField):
    """One i.i.d. coefficient value per tile, keyed by (seed, tile index)."""

    h_periodic = False
    x_independent = False

    def __init__(self, law, seed):
        self.law = law
        self.seed = int(seed)
        self.a_min, self.a_max = law.support

    def value_for_tile(self, k) -> float:
        return _draw(self.seed, k, self.law)

    def values_at(self, X):
        """Tile values at the points X (shape (..., N)), one draw per distinct tile.

        The integer tile rows are grouped by one lexicographic sort and a scan
        for the rows that differ from their predecessor, which yields the
        distinct tiles in ascending order and each point's tile position.  No
        row is packed into a single integer, so indices of any int64 size work.
        """
        X = np.asarray(X, dtype=float)
        K = tile_index(X, guard=BIN_GUARD).reshape(-1, X.shape[-1])
        order = np.lexsort(K.T[::-1])
        Ks = K[order]
        new = np.ones(len(Ks), dtype=bool)
        np.any(Ks[1:] != Ks[:-1], axis=1, out=new[1:])
        inv = np.empty(len(Ks), dtype=np.intp)
        inv[order] = np.cumsum(new) - 1
        vals = np.array([self.value_for_tile(k) for k in Ks[new]], dtype=float)
        return vals[inv].reshape(X.shape[:-1])


def sample_random_integrand(seed, law, alpha=2.0) -> PowerIntegrand:
    """Power integrand with a fresh random tile coefficient for this seed."""
    return PowerIntegrand(RandomTileCoefficient(law, seed), alpha)


def tile_correlation_radius(n=1) -> float:
    """Gauge diameter of a tile: points farther apart carry independent values.

    The supremum of |y^-1 * x|_h over the closed unit cell is attained at
    opposite corners with vanishing shear, giving ((8n)^2 + 4)^(1/4).
    """
    return float(((8.0 * n) ** 2 + 4.0) ** 0.25)


@dataclass
class MonteCarloReport:
    law: object
    alpha: float
    q: tuple
    k_list: tuple
    base_seed: int
    seeds: tuple
    e: np.ndarray          # (n_samples, len(k_list))
    mean: np.ndarray
    variance: np.ndarray
    growth_ok: bool
    correlation_radius: float
    diagnostics: list


def _sample_ladder(seed, law, alpha, q, k_list, M, n):
    """The ladder of the medium drawn under seed: one Monte Carlo job."""
    f = sample_random_integrand(seed, law, alpha=alpha)
    return energy_density_sequence(f, q, k_list=k_list, M=M, n=n)


def monte_carlo_effective(
    law,
    q,
    k_list=(1, 2, 3),
    n_samples=16,
    base_seed=0,
    alpha=2.0,
    M=4,
    n=1,
    threads=1,
) -> MonteCarloReport:
    """Ladder statistics over independent coefficient realizations.

    Seeds are base_seed + i for i < n_samples, so the whole table is a pure
    function of (base_seed, configuration) -- independent of threads.
    """
    if n_samples < 2:
        raise ValueError(f"'n_samples' must be at least 2 for variance estimates, got {n_samples}")
    q = np.atleast_1d(np.asarray(q, dtype=float))
    seeds = tuple(int(base_seed) + i for i in range(int(n_samples)))

    job = partial(_sample_ladder, law=law, alpha=alpha, q=q, k_list=k_list, M=M, n=n)
    reports = map_jobs(job, seeds, threads)
    e = np.stack([rep.e for rep in reports])
    growth_ok = all(rep.verdicts["bounds_ok"] for rep in reports)
    diagnostics = [rep.diagnostics for rep in reports]
    with np.errstate(over="ignore"):  # a variance beyond the float range reads inf, as the CLI reports it
        variance = e.var(axis=0, ddof=1)

    return MonteCarloReport(
        law=law,
        alpha=float(alpha),
        q=tuple(q),
        k_list=tuple(k_list),
        base_seed=int(base_seed),
        seeds=seeds,
        e=e,
        mean=e.mean(axis=0),
        variance=variance,
        growth_ok=bool(growth_ok),
        correlation_radius=tile_correlation_radius(n),
        diagnostics=diagnostics,
    )


@dataclass
class ConcentrationReport:
    delta: float
    pooled: float
    frac_above: np.ndarray
    frac_below: np.ndarray
    total_exceedance: np.ndarray
    inversions: int
    ok: bool


def check_concentration_inputs(delta, n_samples, n_scales) -> float:
    """delta as a float, once the inputs of a concentration report hold: a
    positive finite delta, at least eight samples and at least two scales.
    A ValueError names the config key at fault: delta, n_samples or k_list."""
    delta = float(delta)
    if not 0 < delta < math.inf:
        raise ValueError(f"'delta' must be positive and finite, got {delta!r}")
    if n_samples < 8:
        raise ValueError(f"'n_samples' must be at least 8 for a concentration report, got {n_samples}")
    if n_scales < 2:
        raise ValueError(f"'k_list' needs at least two scales for a concentration report, got {n_scales}")
    return delta


def concentration_report(mc: MonteCarloReport, delta) -> ConcentrationReport:
    """Exceedance fractions |e_k - pooled| > delta per scale.

    The pooled estimate is the sample mean at the largest scale.  The verdict
    asks the total exceedance fraction to be non-increasing in k, tolerating
    a single inversion (small-sample noise).
    """
    delta = check_concentration_inputs(delta, len(mc.seeds), len(mc.k_list))

    pooled = float(mc.mean[-1])
    above = (mc.e > pooled + delta).mean(axis=0)
    below = (mc.e < pooled - delta).mean(axis=0)
    total = above + below
    inversions = int(np.sum(np.diff(total) > 0))
    return ConcentrationReport(
        delta=delta,
        pooled=pooled,
        frac_above=above,
        frac_below=below,
        total_exceedance=total,
        inversions=inversions,
        ok=bool(inversions <= 1),
    )
