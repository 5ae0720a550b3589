"""Exact algebra of the n-th Heisenberg group on R^(2n+1).

Points are plain numpy arrays whose last axis has length N = 2n + 1 and is
laid out as (x1, x2, x3) with x1, x2 in R^n and x3 a scalar.  Every operation
is a closed-form polynomial in the coordinates, broadcasts over leading batch
axes, and never mutates its inputs.

The group structure:

* product        x * y = (x1 + y1, x2 + y2, x3 + y3 + (x1.y2 - x2.y1)/2)
* identity       the origin, inverse is coordinate negation
* dilations      delta_t(x) = (t x1, t x2, t^2 x3), a group automorphism
* translations   tau_k(x) = (2k) * x for lattice k in Z^N; the orbit of the
                 semiopen cell Q = [-1, 1)^N under {tau_k} tiles R^N

The horizontal frame consists of the 2n left-invariant vector fields whose
coefficient matrix ``sigma(x)`` has an identity 2n x 2n top block and last
row (-x2/2, x1/2).  Appending the vertical direction e_N gives ``sigma_ext``
with determinant one, so Lebesgue measure is bi-invariant and scales under
delta_t by t^(2n+2), the homogeneous dimension.

A gauge norm compatible with the dilations is

    |x|_h = ((|x1|^2 + |x2|^2)^2 + x3^2)^(1/4),

and d_h(x, y) = |y^-1 * x|_h is the associated left-invariant distance.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupParams",
    "group_mul",
    "group_inv",
    "origin",
    "dilate",
    "translate_tau",
    "tau_compose",
    "sigma",
    "sigma_ext",
    "h_gradient_exact",
    "tile_index",
    "pullback_to_cell",
    "rescaled_tile_index",
    "homogeneous_norm",
    "homogeneous_distance",
    "split_coords",
    "group_index",
]


@dataclass(frozen=True)
class GroupParams:
    """Dimensional bookkeeping for the n-th Heisenberg group."""

    n: int

    def __post_init__(self):
        # an integral float such as 1.0 would fail later, in (axis,) * (2 * n)
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"group index n must be a positive integer, got {self.n!r}")

    @property
    def N(self) -> int:
        """Topological (ambient) dimension 2n + 1."""
        return 2 * self.n + 1

    @property
    def m(self) -> int:
        """Number of horizontal directions, 2n."""
        return 2 * self.n

    @property
    def hdim(self) -> int:
        """Homogeneous dimension 2n + 2 (equals N + 1)."""
        return 2 * self.n + 2


def group_index(x) -> int:
    """Infer n from the length of the last axis of a point array."""
    N = np.shape(x)[-1]
    if N < 3 or N % 2 == 0:
        raise ValueError(f"point arrays must have odd last-axis length >= 3, got {N}")
    return (N - 1) // 2


def split_coords(x):
    """Split a point array into (x1, x2, x3) views along the last axis."""
    x = np.asarray(x)
    n = group_index(x)
    return x[..., :n], x[..., n : 2 * n], x[..., 2 * n]


def origin(n: int) -> np.ndarray:
    return np.zeros(2 * n + 1)


def group_mul(x, y) -> np.ndarray:
    """Group product x * y.  Broadcasts over leading axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    n = group_index(x)
    x1, x2, x3 = split_coords(x)
    y1, y2, y3 = split_coords(y)
    z3 = x3 + y3 + 0.5 * (np.sum(x1 * y2, axis=-1) - np.sum(x2 * y1, axis=-1))
    lead = z3.shape
    return np.concatenate(
        [
            np.broadcast_to(x1 + y1, lead + (n,)),
            np.broadcast_to(x2 + y2, lead + (n,)),
            z3[..., None],
        ],
        axis=-1,
    )


def group_inv(x) -> np.ndarray:
    """Group inverse; for this product it is coordinate negation."""
    return -np.asarray(x, dtype=float)


def dilate(t, x) -> np.ndarray:
    """Anisotropic dilation delta_t: horizontal axes scale by t, vertical by t^2."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("dilation parameter t must be positive")
    x = np.asarray(x, dtype=float)
    n = group_index(x)
    th = t[..., None] if t.ndim else t
    out = np.empty(np.broadcast_shapes(x.shape[:-1], t.shape) + (x.shape[-1],))
    out[..., : 2 * n] = th * x[..., : 2 * n]
    out[..., 2 * n] = (t * t) * x[..., 2 * n]
    return out


def translate_tau(k, x) -> np.ndarray:
    """Left translation tau_k(x) = (2k) * x.  k may be any point, not only a lattice index."""
    return group_mul(2.0 * np.asarray(k, dtype=float), x)


def tau_compose(k, h):
    """The index z with tau_k o tau_h = tau_z.

    Closed under integer indices: z = (k1 + h1, k2 + h2, k3 + h3 + k1.h2 - k2.h1).
    Integer inputs yield an integer result array.
    """
    k = np.asarray(k)
    h = np.asarray(h)
    if k.shape[-1] != h.shape[-1]:
        raise ValueError("index dimension mismatch")
    n = group_index(k)
    k1, k2, k3 = split_coords(k)
    h1, h2, h3 = split_coords(h)
    z3 = k3 + h3 + np.sum(k1 * h2, axis=-1) - np.sum(k2 * h1, axis=-1)
    return np.concatenate(np.broadcast_arrays(k1 + h1, k2 + h2, z3[..., None]), axis=-1)


def sigma(x) -> np.ndarray:
    """Coefficient matrix of the horizontal frame, shape (..., N, 2n).

    Column j is the j-th horizontal vector field at x: the top 2n x 2n block
    is the identity and the last row is (-x2/2, x1/2).
    """
    x = np.asarray(x, dtype=float)
    n = group_index(x)
    N, m = 2 * n + 1, 2 * n
    out = np.zeros(x.shape[:-1] + (N, m))
    for i in range(m):
        out[..., i, i] = 1.0
    out[..., N - 1, :n] = -0.5 * x[..., n : 2 * n]
    out[..., N - 1, n:m] = 0.5 * x[..., :n]
    return out


def sigma_ext(x) -> np.ndarray:
    """sigma(x) extended by the vertical column e_N; unit determinant for every x."""
    x = np.asarray(x, dtype=float)
    n = group_index(x)
    N = 2 * n + 1
    out = np.zeros(x.shape[:-1] + (N, N))
    out[..., :, : N - 1] = sigma(x)
    out[..., N - 1, N - 1] = 1.0
    return out


def h_gradient_exact(u, x) -> np.ndarray:
    """Horizontal gradient sigma(x)^T grad(u)(x) of a function with an exact Euclidean gradient.

    ``u`` must expose ``gradient(x) -> (..., N)``; see heishom.closedform for
    polynomial and closed-form test classes.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(u.gradient(x), dtype=float)
    return np.einsum("...ij,...i->...j", sigma(x), g)


def tile_index(x, guard=0.0) -> np.ndarray:
    """The unique lattice index k with x in tau_k([-1, 1)^N).

    Horizontal components invert Euclidean shifts; the vertical component
    compensates the shear the horizontal shift induces on x3.

    ``guard`` biases the floor decisions upward by that amount (in units of
    the cell index).  With the default 0 the map realizes the exact
    half-open partition.  Lookup code passes a tiny positive guard so that
    coordinates reproduced through exact rescalings -- equal up to a few
    ulps -- cannot straddle a cell boundary; the bias is additive on exact
    integer shifts, so lattice periodicity of guarded lookups is preserved
    bit for bit.
    """
    x = np.asarray(x, dtype=float)
    n = group_index(x)
    x1, x2, x3 = split_coords(x)
    k1 = np.floor(0.5 * (x1 + 1.0) + guard).astype(np.int64)
    k2 = np.floor(0.5 * (x2 + 1.0) + guard).astype(np.int64)
    s = x3 - np.sum(k1 * x2, axis=-1) + np.sum(k2 * x1, axis=-1)
    k3 = np.floor(0.5 * (s + 1.0) + guard).astype(np.int64)
    lead = k3.shape
    return np.concatenate(
        [
            np.broadcast_to(k1, lead + (n,)),
            np.broadcast_to(k2, lead + (n,)),
            k3[..., None],
        ],
        axis=-1,
    )


def pullback_to_cell(x, guard=0.0):
    """Return (k, y) with y = tau_{-k}(x) in the unit cell [-1, 1)^N."""
    k = tile_index(x, guard=guard)
    return k, translate_tau(-k, x)


def rescaled_tile_index(x, t) -> np.ndarray:
    """Index of x in the rescaled tiling tau_{delta_t(k)}(delta_t(Q))."""
    return tile_index(dilate(1.0 / float(t), x))


def homogeneous_norm(x) -> np.ndarray:
    """Gauge norm |x|_h = ((|x1|^2 + |x2|^2)^2 + x3^2)^(1/4)."""
    x = np.asarray(x, dtype=float)
    n = group_index(x)
    s = np.sum(x[..., : 2 * n] ** 2, axis=-1)
    return (s * s + x[..., 2 * n] ** 2) ** 0.25


def homogeneous_distance(x, y) -> np.ndarray:
    """Left-invariant distance d_h(x, y) = |y^-1 * x|_h."""
    return homogeneous_norm(group_mul(group_inv(y), x))
