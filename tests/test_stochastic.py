"""Random tile coefficients: keyed determinism, stationarity in law,
variance decay across scales."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heishom import (
    RandomTileCoefficient,
    TwoPointLaw,
    UniformLaw,
    concentration_report,
    monte_carlo_effective,
    sample_random_integrand,
    tile_correlation_radius,
)
from heishom.heisenberg import homogeneous_distance, tile_index, translate_tau
from heishom.integrands import BIN_GUARD


def rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

def test_two_point_law():
    law = TwoPointLaw(1.0, 4.0, 0.5)
    g = rng(70)
    draws = np.array([law.sample(g) for _ in range(4000)])
    assert set(np.unique(draws)) == {1.0, 4.0}
    assert abs((draws == 1.0).mean() - 0.5) < 0.05
    assert law.support == (1.0, 4.0)
    with pytest.raises(ValueError):
        TwoPointLaw(-1.0, 4.0)
    with pytest.raises(ValueError):
        TwoPointLaw(1.0, 4.0, prob=1.5)


def test_uniform_law():
    law = UniformLaw(1.0, 2.0)
    g = rng(71)
    draws = np.array([law.sample(g) for _ in range(4000)])
    assert draws.min() >= 1.0 and draws.max() <= 2.0
    assert abs(draws.mean() - 1.5) < 0.05
    with pytest.raises(ValueError):
        UniformLaw(0.0, 1.0)
    with pytest.raises(ValueError):
        UniformLaw(2.0, 1.0)


# ---------------------------------------------------------------------------
# keyed tile values
# ---------------------------------------------------------------------------

def test_tile_values_independent_of_evaluation_order():
    law = UniformLaw(1.0, 2.0)
    a = RandomTileCoefficient(law, seed=5)
    b = RandomTileCoefficient(law, seed=5)
    tiles = [(0, 0, 0), (3, -2, 7), (-1, 0, 4), (2, 2, 2)]
    va = [a.value_for_tile(k) for k in tiles]
    vb = [b.value_for_tile(k) for k in reversed(tiles)][::-1]
    assert va == vb


def test_tile_values_differ_between_tiles_and_seeds():
    law = UniformLaw(1.0, 2.0)
    a = RandomTileCoefficient(law, seed=5)
    vals = {a.value_for_tile((i, j, k)) for i in range(3) for j in range(3) for k in range(3)}
    assert len(vals) == 27  # continuous law: collisions would signal key reuse
    b = RandomTileCoefficient(law, seed=6)
    assert a.value_for_tile((0, 0, 0)) != b.value_for_tile((0, 0, 0))


def test_negative_tile_indices_get_distinct_keys():
    """The sign fold must be injective: (k, -k) pairs never share a value."""
    law = UniformLaw(1.0, 2.0)
    a = RandomTileCoefficient(law, seed=9)
    for k in ((1, 0, 0), (0, -1, 2), (-3, 4, -5)):
        mk = tuple(-c for c in k)
        assert a.value_for_tile(k) != a.value_for_tile(mk)


def test_values_at_consistent_with_tiles():
    law = TwoPointLaw(1.0, 4.0, 0.5)
    a = RandomTileCoefficient(law, seed=12)
    g = rng(72)
    x = g.uniform(-6, 6, size=(400, 3))
    vals = a.values_at(x)
    for xi, vi in zip(x[:50], vals[:50]):
        k = tile_index(xi, guard=BIN_GUARD)
        assert vi == a.value_for_tile(tuple(int(c) for c in k))


@st.composite
def point_clouds(draw):
    """Points of H^n (n = 1, 2) with repeats, up to +-1e17 per coordinate.

    In each horizontal pair (x1_j, x2_j) at most one coordinate is large, so
    the vertical tile index, which holds k1_j x2_j and k2_j x1_j, stays in
    int64; the tile indices of a cloud still span far more than a packed
    one-integer key could hold.
    """
    n = draw(st.sampled_from((1, 2)))
    small = st.floats(-10.0, 10.0, allow_nan=False)
    big = st.floats(-1e17, 1e17, allow_nan=False)
    big_axes = [j + n * draw(st.sampled_from((0, 1))) for j in range(n)] + [2 * n]
    coord = [big if a in big_axes else small for a in range(2 * n + 1)]
    distinct = draw(st.lists(st.tuples(*coord), max_size=12))
    if not distinct:
        return np.zeros((0, 2 * n + 1))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=30))
    return np.array([distinct[i] for i in picks])


@settings(max_examples=80, deadline=None)
@given(X=point_clouds(), seed=st.integers(0, 2**32 - 1))
@example(X=np.zeros((0, 3)), seed=0)
@example(X=np.zeros((0, 5)), seed=0)
@example(X=np.array([[1e17, -3.0, 1e17], [-1e17, 10.0, -1e17], [3.0, 1e17, -5e16]] * 2), seed=1)
def test_values_at_equals_per_point_tile_lookup(X, seed):
    """Tiling round trip: the grouped lookup returns, at every point, the value
    of the tile that ``tile_index`` assigns to that point alone."""
    law = UniformLaw(1.0, 2.0)  # continuous: a point given another tile's value shows
    vals = RandomTileCoefficient(law, seed).values_at(X)
    ref = RandomTileCoefficient(law, seed)
    expected = [ref.value_for_tile(tile_index(x, guard=BIN_GUARD)) for x in X]
    assert vals.shape == (len(X),)
    assert vals.tolist() == expected


def test_field_constant_on_each_tile():
    law = UniformLaw(1.0, 2.0)
    a = RandomTileCoefficient(law, seed=13)
    g = rng(73)
    y = g.uniform(-1, 1 - 1e-9, size=(100, 3))
    for k in ((0, 0, 0), (2, -1, 3)):
        pts = translate_tau(np.asarray(k, dtype=float), y)
        vals = a.values_at(pts)
        assert np.all(vals == vals[0])
        assert vals[0] == a.value_for_tile(k)


def test_stationarity_in_law():
    """Shifted fields are fresh draws from the same law: same marginal stats."""
    law = UniformLaw(1.0, 2.0)
    vals0, vals1 = [], []
    for seed in range(200):
        a = RandomTileCoefficient(law, seed=seed)
        vals0.append(a.value_for_tile((0, 0, 0)))
        vals1.append(a.value_for_tile((5, -3, 2)))
    vals0, vals1 = np.asarray(vals0), np.asarray(vals1)
    assert abs(vals0.mean() - vals1.mean()) < 0.06
    assert abs(vals0.var() - vals1.var()) < 0.03


def test_correlation_radius_frozen():
    # sup over the closed cell of the gauge distance between opposite corners
    assert tile_correlation_radius(1) == pytest.approx(68.0 ** 0.25, rel=1e-15)
    c1 = np.array([-1.0, -1.0, -1.0])
    c2 = np.array([1.0, 1.0, 1.0])
    assert homogeneous_distance(c2, c1) <= tile_correlation_radius(1) + 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_reproducible_and_concentrating():
    law = TwoPointLaw(1.0, 4.0, 0.5)
    mc1 = monte_carlo_effective(law, (1.0, 0.0), k_list=(1, 2), n_samples=8, base_seed=3, M=2)
    mc2 = monte_carlo_effective(law, (1.0, 0.0), k_list=(1, 2), n_samples=8, base_seed=3, M=2)
    np.testing.assert_array_equal(mc1.e, mc2.e)
    assert mc1.seeds == tuple(range(3, 11))
    assert mc1.variance[1] < mc1.variance[0]
    assert mc1.growth_ok
    rep = concentration_report(mc1, 0.5)
    assert rep.pooled == pytest.approx(mc1.mean[-1])
    assert rep.ok


def test_single_tile_energy_equals_tile_value():
    """At k=1 with slope e1 the affine field is optimal and the energy
    density is exactly the (single) tile value."""
    law = TwoPointLaw(1.0, 4.0, 0.5)
    for seed in range(6):
        f = sample_random_integrand(seed, law)
        from heishom import energy_density_sequence
        rep = energy_density_sequence(f, (1.0, 0.0), k_list=(1,), M=2)
        a0 = f.coefficient.value_for_tile((0, 0, 0))
        assert rep.e[0] == pytest.approx(a0, rel=0, abs=0)


def test_monte_carlo_validation():
    law = TwoPointLaw(1.0, 4.0, 0.5)
    with pytest.raises(ValueError, match="'n_samples'"):
        monte_carlo_effective(law, (1.0, 0.0), k_list=(1,), n_samples=1, M=2)
    mc = monte_carlo_effective(law, (1.0, 0.0), k_list=(1, 2), n_samples=8, M=2)
    with pytest.raises(ValueError):
        concentration_report(mc, -1.0)
    mc_small = monte_carlo_effective(law, (1.0, 0.0), k_list=(1, 2), n_samples=4, M=2)
    with pytest.raises(ValueError):
        concentration_report(mc_small, 0.5)
