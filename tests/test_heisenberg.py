"""Group algebra, dilations, tiling: exact identities and frozen values.

The tile-index tests use an independent brute-force oracle (search over a
window of lattice shifts) so the closed-form floor expressions are checked
against something that cannot share their bugs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heishom import (
    GroupParams,
    dilate,
    group_inv,
    group_mul,
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


def rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# brute-force tiling oracle
# ---------------------------------------------------------------------------

def tile_index_oracle(x, n=1, window=6):
    """Find the unique k with tau_{-k}(x) in [-1, 1)^N by exhaustive search."""
    x = np.asarray(x, dtype=float)
    hits = []
    for k in itertools.product(range(-window, window + 1), repeat=2 * n + 1):
        y = translate_tau(-np.asarray(k, dtype=float), x)
        # tau_{-k} means the inverse action: y = (-2k) * x
        if np.all(y >= -1.0) and np.all(y < 1.0):
            hits.append(k)
    assert len(hits) == 1, f"tiling not a partition at {x}: {hits}"
    return np.asarray(hits[0])


# ---------------------------------------------------------------------------
# frozen scalar cases (worked by hand)
# ---------------------------------------------------------------------------

def test_group_mul_frozen():
    # third slot: 3 + 6 + (1*5 - 2*4)/2 = 9 - 3/2
    z = group_mul(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    np.testing.assert_array_equal(z, [5.0, 7.0, 7.5])


def test_translate_frozen():
    # 2k = (2,0,0); third slot: 0 + 0 + (2*1 - 0*0)/2 = 1
    z = translate_tau(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(z, [2.0, 1.0, 1.0])


def test_tile_index_frozen():
    k = tile_index(np.array([2.0, 1.0, 1.0]))
    np.testing.assert_array_equal(k, [1, 1, 1])
    np.testing.assert_array_equal(k, tile_index_oracle([2.0, 1.0, 1.0]))
    # and the representative it implies round-trips
    kk, y = pullback_to_cell(np.array([2.0, 1.0, 1.0]))
    np.testing.assert_array_equal(kk, k)
    np.testing.assert_array_equal(y, [0.0, -1.0, 0.0])
    np.testing.assert_array_equal(translate_tau(k, y), [2.0, 1.0, 1.0])


def test_norm_frozen():
    assert homogeneous_norm(np.array([0.0, 0.0, 4.0])) == pytest.approx(2.0, abs=0)
    assert homogeneous_norm(np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0, rel=1e-15)


def test_tau_compose_frozen():
    z = tau_compose(np.array([1, 0, 0]), np.array([0, 1, 0]))
    np.testing.assert_array_equal(z, [1, 1, 1])
    assert z.dtype.kind == "i"


# ---------------------------------------------------------------------------
# axioms, randomized
# ---------------------------------------------------------------------------

def test_group_axioms_batch():
    g = rng(11)
    x, y, z = (g.uniform(-10, 10, size=(500, 3)) for _ in range(3))
    lhs = group_mul(group_mul(x, y), z)
    rhs = group_mul(x, group_mul(y, z))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
    e = origin(1)
    np.testing.assert_array_equal(group_mul(x, e), x)
    np.testing.assert_allclose(group_mul(x, group_inv(x)), 0.0, rtol=0, atol=1e-12)


def test_group_axioms_n2():
    g = rng(12)
    x, y = (g.uniform(-5, 5, size=(200, 5)) for _ in range(2))
    par = GroupParams(2)
    assert par.N == 5 and par.m == 4 and par.hdim == 6
    z = group_mul(x, y)
    x1, x2, x3 = split_coords(x)
    y1, y2, y3 = split_coords(y)
    expect3 = x3 + y3 + 0.5 * (np.sum(x1 * y2, axis=-1) - np.sum(x2 * y1, axis=-1))
    np.testing.assert_allclose(z[:, -1], expect3, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(group_mul(z, group_inv(y)), x, rtol=0, atol=1e-12)


def points(n, count):
    """``count`` random points of the n-th group, coordinates in [-10, 10]."""
    coord = st.floats(-10.0, 10.0, allow_subnormal=False)
    return st.lists(st.lists(coord, min_size=2 * n + 1, max_size=2 * n + 1),
                    min_size=count, max_size=count).map(np.array)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2]))
def test_group_laws_at_random_points(data, n):
    x, y, z = data.draw(points(n, 3))
    e = origin(n)
    np.testing.assert_allclose(group_mul(group_mul(x, y), z), group_mul(x, group_mul(y, z)),
                               rtol=0, atol=1e-11)
    # identity and inverse hold exactly: the cross terms cancel bit for bit
    np.testing.assert_array_equal(group_mul(x, e), x)
    np.testing.assert_array_equal(group_mul(e, x), x)
    np.testing.assert_array_equal(group_mul(x, group_inv(x)), e)
    np.testing.assert_array_equal(group_mul(group_inv(x), x), e)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2]),
       s=st.floats(0.1, 10.0), t=st.floats(0.1, 10.0))
def test_dilation_laws_at_random_points(data, n, s, t):
    x, y = data.draw(points(n, 2))
    np.testing.assert_allclose(dilate(t, group_mul(x, y)), group_mul(dilate(t, x), dilate(t, y)),
                               rtol=0, atol=1e-11 * t * t)
    np.testing.assert_allclose(dilate(s, dilate(t, x)), dilate(s * t, x), rtol=1e-14, atol=1e-300)


def test_noncommutative():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert not np.array_equal(group_mul(x, y), group_mul(y, x))


def test_dilation_laws():
    g = rng(13)
    x = g.uniform(-10, 10, size=(400, 3))
    y = g.uniform(-10, 10, size=(400, 3))
    for t in (0.5, 2.0, 3.7):
        np.testing.assert_allclose(
            dilate(t, group_mul(x, y)), group_mul(dilate(t, x), dilate(t, y)),
            rtol=0, atol=1e-11)
    np.testing.assert_allclose(dilate(2.0, dilate(3.0, x)), dilate(6.0, x), rtol=1e-15, atol=0)
    np.testing.assert_array_equal(dilate(1.0, x), x)
    with pytest.raises(ValueError):
        dilate(0.0, x)
    with pytest.raises(ValueError):
        dilate(-2.0, x)


def test_dilation_scales_slots_anisotropically():
    x = np.array([1.0, 1.0, 1.0])
    np.testing.assert_array_equal(dilate(3.0, x), [3.0, 3.0, 9.0])


# ---------------------------------------------------------------------------
# frame matrices
# ---------------------------------------------------------------------------

def test_sigma_shape_and_blocks():
    g = rng(14)
    x = g.uniform(-10, 10, size=(50, 3))
    sg = sigma(x)
    assert sg.shape == (50, 3, 2)
    np.testing.assert_array_equal(sg[:, :2, :], np.broadcast_to(np.eye(2), (50, 2, 2)))
    np.testing.assert_array_equal(sg[:, 2, 0], -0.5 * x[:, 1])
    np.testing.assert_array_equal(sg[:, 2, 1], 0.5 * x[:, 0])


def test_sigma_ext_unit_determinant():
    g = rng(15)
    for n in (1, 2):
        x = g.uniform(-10, 10, size=(50, 2 * n + 1))
        det = np.linalg.det(sigma_ext(x))
        np.testing.assert_allclose(det, 1.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------

def test_tile_index_matches_oracle():
    g = rng(16)
    x = g.uniform(-8, 8, size=(60, 3))
    fast = tile_index(x)
    for xi, ki in zip(x, fast):
        np.testing.assert_array_equal(ki, tile_index_oracle(xi))


def test_pullback_partition():
    g = rng(17)
    x = g.uniform(-10, 10, size=(5000, 3))
    k, y = pullback_to_cell(x)
    assert y.min() >= -1.0 and y.max() < 1.0
    np.testing.assert_allclose(translate_tau(k, y), x, rtol=0, atol=1e-12)
    inside = g.uniform(-1, 1 - 1e-9, size=(1000, 3))
    np.testing.assert_array_equal(tile_index(inside), 0)


def test_tau_compose_matches_composition():
    g = rng(18)
    k = g.integers(-5, 6, size=(200, 3))
    h = g.integers(-5, 6, size=(200, 3))
    x = g.uniform(-3, 3, size=(200, 3))
    z = tau_compose(k, h)
    lhs = translate_tau(k.astype(float), translate_tau(h.astype(float), x))
    rhs = translate_tau(z.astype(float), x)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
    assert z.dtype.kind == "i"


def test_translation_action_is_transitive_on_tiles():
    # tau_k maps the base tile onto the tile indexed k, for every k
    g = rng(19)
    k = g.integers(-4, 5, size=(100, 3)).astype(float)
    y = g.uniform(-1, 1 - 1e-9, size=(100, 3))
    np.testing.assert_array_equal(tile_index(translate_tau(k, y)), k.astype(int))


def test_rescaled_tile_index():
    g = rng(20)
    x = g.uniform(-10, 10, size=(2000, 3))
    for t in (0.5, 2.0, 3.0):
        np.testing.assert_array_equal(rescaled_tile_index(x, t), tile_index(dilate(1.0 / t, x)))


# ---------------------------------------------------------------------------
# gauge norm
# ---------------------------------------------------------------------------

def test_norm_homogeneous_and_symmetric():
    g = rng(21)
    x = g.uniform(-10, 10, size=(3000, 3))
    nm = homogeneous_norm(x)
    assert np.all(nm[np.any(x != 0, axis=-1)] > 0)
    for t in (0.25, 2.0, 5.0):
        np.testing.assert_allclose(homogeneous_norm(dilate(t, x)), t * nm, rtol=1e-13, atol=0)
    np.testing.assert_array_equal(homogeneous_norm(group_inv(x)), nm)


def test_distance_left_invariant():
    g = rng(22)
    x = g.uniform(-5, 5, size=(500, 3))
    y = g.uniform(-5, 5, size=(500, 3))
    z = g.uniform(-5, 5, size=(500, 3))
    d = homogeneous_distance(x, y)
    dz = homogeneous_distance(group_mul(z, x), group_mul(z, y))
    np.testing.assert_allclose(dz, d, rtol=1e-9, atol=1e-11)
