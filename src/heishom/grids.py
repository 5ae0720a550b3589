"""Anisotropic box grids, scalar fields, and the discrete horizontal gradient.

Grids are tensor products of uniform 1-d node axes: 2n horizontal axes plus
one vertical axis whose extent may differ (for a dilated cell delta_t(Q) the
vertical extent is t^2 while the horizontal extents are t).  Scalar fields
live on nodes; horizontal gradients live on cells.

The per-cell gradient uses forward differences along each axis, averaged over
the 2^(N-1) parallel edges of the cell, with the frame's shear coefficients
evaluated at the cell-center horizontal coordinates:

    comp_j     = D_j u     - (x2c_j / 2) Dv u
    comp_{n+j} = D_{n+j} u + (x1c_j / 2) Dv u

This stencil is chosen so the cell-volume-weighted mean of the discrete
horizontal gradient depends on boundary node values only (the differences
telescope, and the shear coefficient is constant along each vertical column).
Consequently every field with H-affine boundary trace q has mean horizontal
gradient exactly q, which is what makes affine data an exact minimizer for
x-independent convex integrands.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .heisenberg import GroupParams

__all__ = [
    "AnisoGrid",
    "ScalarField",
    "HAffineBoundary",
    "build_grid",
    "dilated_box_grid",
    "centered_box_grid",
    "grid_from_axes",
    "h_affine_field",
    "apply_boundary",
    "discrete_h_gradient",
    "integrate_cells",
    "mean_h_gradient",
    "field_to_csv",
    "field_from_csv",
]

_INTEGRALITY_RTOL = 1e-9
TRACE_TOL = 1e-12  # boundary mismatch, relative to the trace scale, mean_h_gradient accepts


@dataclass(frozen=True)
class AnisoGrid:
    """Tensor-product node grid over a box in R^(2n+1).

    axes   : one ascending, uniformly spaced coordinate array per dimension
    steps  : nominal spacing per axis, (hi - lo) / intervals, used by all
             difference quotients so affine data differentiates exactly
    t, M   : construction metadata when built as a dilated cell, else None
    """

    n: int
    axes: tuple
    steps: tuple
    t: float = None
    M: int = None

    @property
    def N(self) -> int:
        return 2 * self.n + 1

    @property
    def m(self) -> int:
        return 2 * self.n

    @property
    def shape(self) -> tuple:
        return tuple(len(a) for a in self.axes)

    @property
    def cell_shape(self) -> tuple:
        return tuple(len(a) - 1 for a in self.axes)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.cell_shape))

    @property
    def volume(self) -> float:
        v = 1.0
        for a in self.axes:
            v *= float(a[-1] - a[0])
        return v

    @property
    def cell_volume(self) -> float:
        return self.volume / self.num_cells

    def axis_broadcast(self, arr, axis):
        """Reshape a per-axis coordinate array for broadcasting over the grid."""
        shp = [1] * self.N
        shp[axis] = len(arr)
        return np.asarray(arr).reshape(shp)

    @cached_property
    def cell_center_axes(self) -> tuple:
        return tuple(0.5 * (a[1:] + a[:-1]) for a in self.axes)

    @property
    def cell_centers(self) -> np.ndarray:
        """All cell centers as a (num_cells, N) matrix in C order, built anew
        on each access: a grid does not keep it (3.0 MiB at k = 4, M = 4),
        and a solve reads it once, for the coefficient lookup."""
        mesh = np.meshgrid(*self.cell_center_axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        for ax in range(self.N):
            sl = [slice(None)] * self.N
            sl[ax] = 0
            mask[tuple(sl)] = True
            sl[ax] = -1
            mask[tuple(sl)] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def interior_flat(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_mask.reshape(-1))

    def h_affine_values(self, q, a=0.0) -> np.ndarray:
        """Node values of q . (x1, x2) + a over the whole grid."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.m,):
            raise ValueError(f"q must have shape ({self.m},), got {q.shape}")
        vals = np.full(self.shape, float(a))
        for j in range(self.m):
            vals = vals + q[j] * self.axis_broadcast(self.axes[j], j)
        return vals


def _smallest_valid_M(t, rho):
    for M in range(1, 100001):
        v = 2.0 * t * rho * M
        if abs(v - round(v)) <= _INTEGRALITY_RTOL * max(1.0, abs(v)):
            return M
    return None


def _subdivide(extent, M, what, t, rho):
    v = 2.0 * extent * M
    r = round(v)
    if abs(v - r) <= _INTEGRALITY_RTOL * max(1.0, abs(v)) and r >= 1:
        return int(r)
    if what == "vertical":
        return max(1, math.ceil(v - _INTEGRALITY_RTOL))
    good = _smallest_valid_M(t, rho)
    hint = f"; smallest valid M is {good}" if good else ""
    raise ValueError(
        f"horizontal subdivision 2*t*rho*M = {v} is not an integer for "
        f"t={t}, rho={rho}, M={M}{hint}"
    )


def dilated_box_grid(t, rho, M, n=1) -> AnisoGrid:
    """Grid over delta_t([-rho, rho]^N): horizontal half-width t*rho, vertical t^2*rho.

    Horizontal axes get 2*t*rho*M intervals, which must come out integral
    (spacing 1/M when rho = 1); the vertical axis gets ceil(2*t^2*rho*M)
    intervals.  Raises a configuration error naming the smallest valid M if
    the horizontal count is non-integral.
    """
    GroupParams(n)
    t = float(t)
    rho = float(rho)
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite: {t!r}")
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite: {rho!r}")
    if not 1 <= M < math.inf or int(M) != M:
        raise ValueError(f"M must be a positive integer: {M!r}")
    M = int(M)
    half_h = t * rho
    half_v = t * t * rho
    ih = _subdivide(half_h, M, "horizontal", t, rho)
    iv = _subdivide(half_v, M, "vertical", t, rho)
    hax = np.linspace(-half_h, half_h, ih + 1)
    vax = np.linspace(-half_v, half_v, iv + 1)
    axes = (hax,) * (2 * n) + (vax,)
    steps = (2.0 * half_h / ih,) * (2 * n) + (2.0 * half_v / iv,)
    return AnisoGrid(n=n, axes=axes, steps=steps, t=t, M=M)


def build_grid(t, M, n=1) -> AnisoGrid:
    """Grid over the dilated unit cell delta_t(Q), Q = [-1, 1]^N."""
    return dilated_box_grid(t, 1.0, M, n)


def centered_box_grid(center, rho, M, n=1) -> AnisoGrid:
    """Euclidean box [center - rho, center + rho]^N with 2M intervals per axis."""
    center = np.asarray(center, dtype=float)
    N = GroupParams(n).N
    if center.shape != (N,):
        raise ValueError(f"center must have shape ({N},)")
    if not np.all(np.isfinite(center)):
        raise ValueError(f"center must be finite: {center.tolist()!r}")
    rho = float(rho)
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite: {rho!r}")
    if not 1 <= M < math.inf or int(M) != M:
        raise ValueError(f"M must be a positive integer: {M!r}")
    iv = 2 * int(M)
    axes = tuple(np.linspace(c - rho, c + rho, iv + 1) for c in center)
    steps = (2.0 * rho / iv,) * N
    return AnisoGrid(n=n, axes=axes, steps=steps)


def grid_from_axes(axes, n, t=None, M=None) -> AnisoGrid:
    """Wrap explicit node axes (each ascending and uniform) into a grid."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if len(axes) != GroupParams(n).N:
        raise ValueError("need 2n + 1 axes")
    steps = []
    for a in axes:
        if a.ndim != 1 or len(a) < 2:
            raise ValueError("each axis needs at least two nodes")
        d = np.diff(a)
        if np.any(d <= 0):
            raise ValueError("axes must be strictly ascending")
        h = (a[-1] - a[0]) / (len(a) - 1)
        if np.max(np.abs(d - h)) > 1e-9 * max(1.0, abs(h)):
            raise ValueError("axes must be uniformly spaced")
        steps.append(float(h))
    return AnisoGrid(n=n, axes=axes, steps=tuple(steps), t=t, M=M)


@dataclass(frozen=True)
class ScalarField:
    """Node values over a grid."""

    grid: AnisoGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid, fn):
        mesh = np.meshgrid(*grid.axes, indexing="ij")
        pts = np.stack(mesh, axis=-1)
        return cls(grid, np.asarray(fn(pts), dtype=float))


@dataclass(frozen=True)
class HAffineBoundary:
    """Boundary trace of the H-affine function q . (x1, x2) + a."""

    q: tuple
    a: float = 0.0

    def __post_init__(self):
        q, a = tuple(float(c) for c in np.atleast_1d(self.q)), float(self.a)
        if not all(map(math.isfinite, q)):
            raise ValueError(f"q must be finite: {q!r}")
        if not math.isfinite(a):
            raise ValueError(f"a must be finite: {a!r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", a)

    def trace(self, grid: AnisoGrid) -> np.ndarray:
        return grid.h_affine_values(np.asarray(self.q), self.a)


def h_affine_field(grid, q, a=0.0) -> ScalarField:
    return ScalarField(grid, grid.h_affine_values(np.asarray(q, dtype=float), a))


def apply_boundary(u: ScalarField, bd) -> ScalarField:
    """Overwrite boundary nodes of u with the trace of bd (idempotent)."""
    tr = bd.trace(u.grid)
    vals = u.values.copy()
    mask = u.grid.boundary_mask
    vals[mask] = tr[mask]
    return ScalarField(u.grid, vals)


def _edge_averaged_diff(vals, axis, step, N):
    """Forward difference along one axis divided by the nominal step,
    averaged over the transverse node pairs so the result lives on cells."""
    d = np.diff(vals, axis=axis) * (1.0 / step)
    for b in range(N):
        if b == axis:
            continue
        lo = [slice(None)] * N
        hi = [slice(None)] * N
        lo[b] = slice(None, -1)
        hi[b] = slice(1, None)
        d = 0.5 * (d[tuple(lo)] + d[tuple(hi)])
    return d


def discrete_h_gradient(u: ScalarField) -> np.ndarray:
    """Cellwise discrete horizontal gradient of a node field, shape cell_shape + (2n,)."""
    g = u.grid
    n, N = g.n, g.N
    vals = u.values
    vert = _edge_averaged_diff(vals, N - 1, g.steps[N - 1], N)
    comps = []
    for j in range(n):
        dj = _edge_averaged_diff(vals, j, g.steps[j], N)
        x2c = g.axis_broadcast(g.cell_center_axes[n + j], n + j)
        comps.append(dj - 0.5 * x2c * vert)
    for j in range(n):
        dj = _edge_averaged_diff(vals, n + j, g.steps[n + j], N)
        x1c = g.axis_broadcast(g.cell_center_axes[j], j)
        comps.append(dj + 0.5 * x1c * vert)
    return np.stack([np.broadcast_to(c, g.cell_shape) for c in comps], axis=-1)


def integrate_cells(values, grid: AnisoGrid) -> float:
    """Sum of per-cell values times the cell volume.

    Computed as volume * mean so that integrating the constant 1 returns the
    box volume exactly.
    """
    values = np.asarray(values, dtype=float)
    if values.size != grid.num_cells:
        raise ValueError("per-cell value array has wrong size")
    return float(grid.volume * (np.sum(values) / grid.num_cells))


def mean_h_gradient(u: ScalarField, bd: HAffineBoundary) -> np.ndarray:
    """Volume-weighted mean of the discrete horizontal gradient.

    Requires the boundary nodes of u to carry the H-affine trace of bd; a
    mismatch beyond TRACE_TOL (relative to the trace scale) is an error.
    By the telescoping property the result equals bd.q up to rounding, no
    matter what the interior values are.
    """
    tr = bd.trace(u.grid)
    mask = u.grid.boundary_mask
    scale = max(1.0, float(np.max(np.abs(tr[mask]))) if tr[mask].size else 1.0)
    gap = float(np.max(np.abs(u.values[mask] - tr[mask]))) if tr[mask].size else 0.0
    if gap > TRACE_TOL * scale:
        raise ValueError(f"boundary trace mismatch {gap:.3e} exceeds tolerance")
    g = discrete_h_gradient(u)
    return np.asarray(
        [float(np.mean(g[..., c])) for c in range(u.grid.m)]
    )


def field_to_csv(u: ScalarField, path):
    """Dump a field with full coordinate columns; row-major over nodes."""
    g = u.grid
    with open(path, "w") as fh:
        fh.write("# heishom-field schema=1\n")
        fh.write(f"# n={g.n} t={g.t} M={g.M} shape={','.join(map(str, g.shape))}\n")
        for i, a in enumerate(g.axes):
            fh.write(f"# axis{i}=" + ",".join(repr(float(c)) for c in a) + "\n")
        cols = [f"x{i + 1}" for i in range(g.N)] + ["value"]
        fh.write(",".join(cols) + "\n")
        mesh = np.meshgrid(*g.axes, indexing="ij")
        flat = [m.reshape(-1) for m in mesh] + [u.values.reshape(-1)]
        for row in zip(*flat):
            fh.write(",".join(repr(float(c)) for c in row) + "\n")


def field_from_csv(path) -> ScalarField:
    n = t = M = None
    axes = []
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("n="):
                    parts = dict(p.split("=", 1) for p in body.split())
                    n = int(parts["n"])
                    t = None if parts["t"] == "None" else float(parts["t"])
                    M = None if parts["M"] == "None" else int(parts["M"])
                elif body.startswith("axis"):
                    _, data = body.split("=", 1)
                    axes.append(np.array([float(c) for c in data.split(",")]))
                continue
            if line.startswith("x1,") or line.startswith("x1;"):
                continue
            values.append(float(line.split(",")[-1]))
    if n is None or not axes:
        raise ValueError("not a heishom field dump")
    grid = grid_from_axes(tuple(axes), n, t=t, M=M)
    return ScalarField(grid, np.asarray(values).reshape(grid.shape))
