"""Cell-problem minimization: operator assembly, the two iterative paths,
and the dense reference oracle.

The oracle builds the Hessian of the discrete energy purely from energy
evaluations (exact for quadratics) and solves the normal equations densely;
it shares no assembly code with the iterative solvers, so agreement is a
two-route check.
"""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import heishom
from heishom import (
    CellProblem,
    ConstantCoefficient,
    HAffineBoundary,
    NumericalError,
    PowerIntegrand,
    RandomTileCoefficient,
    ScalarField,
    TwoPointLaw,
    apply_boundary,
    build_grid,
    checkerboard_coefficient,
    check_translation_invariance,
    dense_reference_minimum,
    discrete_energy,
    discrete_h_gradient,
    gradient_operator,
    h_affine_field,
    integrate_cells,
    matrix_p_integrand,
    mean_h_gradient,
    mu_q,
    power_integrand,
    sample_random_integrand,
    solve_cell,
)
from heishom import solve
from heishom.solve import _multigrid, _pcg


def rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


CHECKER = power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def test_gradient_operator_matches_stencil():
    g = build_grid(1.0, 2)
    B = gradient_operator(g)
    assert B.shape == (g.num_cells * g.m, g.num_nodes)
    gen = rng(60)
    for _ in range(5):
        u = gen.uniform(-2, 2, size=g.shape)
        via_op = (B @ u.reshape(-1)).reshape(g.cell_shape + (g.m,))
        via_stencil = discrete_h_gradient(ScalarField(g, u))
        np.testing.assert_allclose(via_op, via_stencil, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("t, M", [(1.0, 2), (2.0, 4), (2.5, 2)])
def test_gradient_operator_has_hourglass_kernel(t, M):
    """The alternating sign fields have zero discrete gradient in every cell:
    the multigrid preconditioner augments its coarse space for this reason."""
    g = build_grid(t, M)
    B = gradient_operator(g)
    i, j, k = np.indices(g.shape)
    for parity in (i + j + k, i + j, i + k, j + k):
        assert np.max(np.abs(B @ (-1.0) ** parity.reshape(-1))) == 0.0
    control = np.max(np.abs(B @ (-1.0) ** i.reshape(-1)))
    assert 4.0 <= control <= 8.0


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2]), M=st.integers(1, 4), intervals=st.integers(1, 8))
def test_gradient_operator_kernel_on_random_grids(n, M, intervals):
    """Every sign field alternating along two or more axes (the four of n = 1)
    has zero gradient up to the rounding of summing one row of B (exact zero
    holds on some grids only); the field alternating along x1 does not."""
    if n == 2:
        M, intervals = min(M, 2), min(intervals, 3)  # keep the 5-d grids small
    g = build_grid(intervals / (2 * M), M, n)
    B = gradient_operator(g)
    bound = 2**g.N * np.finfo(float).eps * (abs(B) @ np.ones(g.num_nodes))
    idx = np.indices(g.shape).reshape(g.N, -1)
    for r in range(2, g.N + 1):
        for axes in itertools.combinations(range(g.N), r):
            assert np.all(np.abs(B @ (-1.0) ** idx[list(axes)].sum(axis=0)) <= bound)
    assert np.max(np.abs(B @ (-1.0) ** idx[0])) >= 1.0


def _product_assembly(grid, S, u):
    """The normal system by sparse products: K = B_i^T B_i and rhs = -B_i^T (Bt u),
    with Bt = blockdiag(sqrt(vol) S_c) B and B_i its interior columns."""
    B, m, C = gradient_operator(grid), grid.m, grid.num_cells
    sqv = np.sqrt(grid.cell_volume)
    if np.ndim(S) == 1:
        Bt = sp.diags(np.repeat(S * sqv, m)) @ B
    else:
        blocks = np.ascontiguousarray(np.broadcast_to(S, (C, m, m)) * sqv)
        Bt = sp.bsr_matrix((blocks, np.arange(C), np.arange(C + 1)), shape=(C * m, C * m)).tocsr() @ B
    Bi = Bt.tocsc()[:, grid.interior_flat].tocsr()
    return (Bi.T @ Bi).tocsr(), -(Bi.T @ (Bt @ u))


@st.composite
def random_grids(draw):
    """A grid for n = 1 or 2 with 2 or more nodes per axis (an axis of 2 leaves
    no interior) and random, not dyadic, origins and steps."""
    n = draw(st.sampled_from([1, 2]))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    lengths = gen.integers(2, 8 if n == 1 else 5, size=2 * n + 1)
    return heishom.grid_from_axes(
        [gen.uniform(-2, 2) + gen.uniform(0.05, 1.5) * np.arange(L) for L in lengths], n)


@settings(max_examples=60, deadline=None)
@given(grid=random_grids(), kind=st.sampled_from(["scalar", "matrix", "per_cell", "newton"]),
       seed=st.integers(0, 2**32 - 1))
def test_normal_matrix_is_the_product_assembly_bitwise(grid, kind, seed):
    """The stencil assembly adds the product assembly's terms in its order:
    K (its full form, offsets ascending) and rhs are bitwise equal for a
    scalar factor, a matrix for all cells, one per cell, and a Newton Hessian
    factor.  K stores each coupling once: its offsets >= 0, ascending."""
    gen, m, C = rng(seed), grid.m, grid.num_cells
    if kind == "scalar":
        S = gen.uniform(0.1, 3.0, C)
    elif kind == "matrix":
        S = gen.uniform(-1.0, 1.0, (m, m))
    elif kind == "per_cell":
        S = gen.uniform(-1.0, 1.0, (C, m, m))
    else:
        f = power_integrand(checkerboard_coefficient(1.0, 4.0, n=grid.n), 3.0)
        S = f.hessian_factor_cells(f.coefficients_at(grid.cell_centers), gen.standard_normal((C, m)))
    u = HAffineBoundary(tuple(gen.uniform(-2, 2, m)), gen.uniform(-1, 1)).trace(grid).reshape(-1)
    u[grid.interior_flat] = 0.0
    K_ref, rhs_ref = _product_assembly(grid, S, u)

    V = solve._weighted_corners(grid, S, solve._corner_weights(grid))
    (data, offsets), rhs = solve._normal_matrix(grid, V), solve._normal_rhs(grid, V, u)
    assert data.dtype == np.float64 and offsets.dtype == np.int32
    assert offsets[0] == 0 and np.all(np.diff(offsets) > 0)
    assert offsets.size <= (3**grid.N + 1) // 2 and data.shape == (offsets.size, len(grid.interior_flat))
    K = solve._symmetric(data, offsets)
    assert type(K) is solve._Dia and K.dtype == np.float64
    full = _padded(K)
    assert np.all(np.diff(full.offsets) > 0) and full.offsets.size == 2 * offsets.size - 1
    Kc = full.tocsr()
    assert Kc.shape == K_ref.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(Kc, name), getattr(K_ref, name))
    np.testing.assert_array_equal(rhs, rhs_ref)
    np.testing.assert_array_equal(np.signbit(rhs), np.signbit(rhs_ref))


def _signed_zeros_or_normal(gen, size, dtype):
    """Standard normal values, most of them replaced by +0.0 or -0.0."""
    x = gen.standard_normal(size)
    zero = gen.random(size) < 0.6
    x[zero] = np.where(gen.random(size) < 0.5, 0.0, -0.0)[zero]
    return x.astype(dtype)


def _padded(A):
    """The padded DIA layout of the ``_Dia`` A as a ``scipy.sparse.dia_matrix``:
    one row of n columns per offset o + col - row of its terms, ascending,
    each entry a term stores written by assignment, so signed zeros survive.
    A zero stored where an earlier term wrote an entry does not overwrite
    it (a DIA over both copies of a block level spans the off-diagonal
    blocks), and no two terms store a nonzero at one entry."""
    entries = []  # (padded offset, columns, values)
    for offsets, data, row, col, size in A.terms:
        for o, values in zip(offsets.tolist(), data):
            c = np.arange(max(0, o), min(size, size + o, values.size))  # the columns the kernel reads
            entries.append((o + col - row, col + c, values[c]))
    offsets = sorted({f for f, _, _ in entries})
    data = np.zeros((len(offsets), A.n), dtype=A.dtype)
    written = np.zeros(data.shape, dtype=bool)
    for f, c, values in entries:
        k = offsets.index(f)
        assert not np.any(written[k, c] & (data[k, c] != 0) & (values != 0))
        keep = ~written[k, c] | (values != 0)
        data[k, c[keep]] = values[keep]
        written[k, c] = True
    return sp.dia_matrix((data, np.array(offsets, dtype=np.int32)), shape=A.shape)


def _random_symmetric_rows(shape, gen, dtype):
    """A random symmetric 3^N-point stencil on the node grid shape as its
    full DIA rows (offsets ascending), most values +-0.0."""
    n = math.prod(shape)
    nodes = np.arange(n).reshape(shape)
    rows = {0: _signed_zeros_or_normal(gen, n, dtype)}  # full DIA rows: A[c - f, c] at column c
    for o in itertools.product((-1, 0, 1), repeat=len(shape)):
        box = solve._box(o, shape)
        if o <= (0,) * len(shape) or box is None:
            continue  # each coupling once, from its lexicographically positive offset
        (x, y), f = box, solve._flat_offset(o, shape)
        v = _signed_zeros_or_normal(gen, nodes[x].size, dtype)
        rows.setdefault(f, np.zeros(n, dtype))[nodes[y].reshape(-1)] = v
        rows.setdefault(-f, np.zeros(n, dtype))[nodes[x].reshape(-1)] = v
    offsets = np.array(sorted(rows), dtype=np.int32)
    return np.array([rows[f] for f in offsets]), offsets


@pytest.mark.filterwarnings("ignore:Constructing a DIA matrix")  # the oracle's N = 5 padded layout
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("kind", ["symmetric", "mirrored", "block"])
@settings(max_examples=80, deadline=None)
@given(shape=st.one_of(st.lists(st.integers(1, 9), min_size=1, max_size=3),
                       st.lists(st.integers(1, 4), min_size=4, max_size=5)),
       seed=st.integers(0, 2**32 - 1))
@example(shape=[3, 3, 3, 3, 3], seed=0)  # all 243 offsets, as in K at n = 2
@example(shape=[2, 9, 5], seed=0)        # a short axis, kept on the coarse level
@example(shape=[3, 3, 3, 3, 5], seed=1)  # N = 5 axes, as at n = 2
def test_dia_product_is_the_padded_dia_product_bitwise(kind, dtype, shape, seed):
    """Every operator the solver builds, in float32 and float64: K by
    ``_symmetric`` (a view per lower diagonal, or ``mirrored``, Newton's one
    copied block), on random symmetric 3^N-point stencils, and a block level
    by ``_block_dia`` from random SPD stencils.  ``A @ v`` is bitwise, sign
    bits included, scipy's ``dia_matrix`` product on its padded layout, on
    float32 and float64 vectors with signed zeros.  Most values are +-0.0,
    so a row that added its terms in another order, or started from its
    first term instead of 0.0, would differ in a last bit or leave -0.0
    where the padded product has +0.0.  ``dense()``, ``diagonal()`` and
    ``bandwidth()`` read what the padded layout holds."""
    shape, gen = tuple(shape), rng(seed)
    n = math.prod(shape)
    if kind == "block":
        assume(max(shape) >= 3)
        sign = (-1.0) ** np.indices(shape).sum(axis=0)
        data, offsets = _random_spd_stencil(shape, gen)
        blocks, coarse = solve._coarse_blocks(solve._augmented_stencils(data, offsets, shape, sign), shape)
        A = solve._block_dia(blocks, coarse, dtype)
        n = math.prod(coarse)  # A11 and A22 in one DIA of 2n columns, A21 and A21^T in DIAs of n columns
        assert type(A) is solve._Dia and A.shape == (2 * n, 2 * n)
        assert [(row, col, size) for _, _, row, col, size in A.terms] == [(n, 0, n), (0, 0, 2 * n), (0, n, n)]
        assert [data.shape[1] for _, data, *_ in A.terms] == [n, 2 * n, n]
        D = _padded(A)
    else:
        full, offsets = _random_symmetric_rows(shape, gen, dtype)
        assert shape != (3,) * 5 or offsets.size == 243
        upper = offsets >= 0
        A = solve._symmetric(full[upper], offsets[upper], mirrored=kind == "mirrored")
        assert type(A) is solve._Dia and A.shape == (n, n)
        stored = A.terms[-1][1]
        lower = A.terms[:-1]  # most negative first: one view each, or one copied block when mirrored
        assert len(lower) == (1 if kind == "mirrored" else offsets.size // 2)
        assert all(np.shares_memory(data, stored) == (kind != "mirrored") for _, data, *_ in lower)
        D = _padded(A)
        np.testing.assert_array_equal(D.offsets, offsets)
        np.testing.assert_array_equal(D.data, full)
        np.testing.assert_array_equal(np.signbit(D.data), np.signbit(full))
    assert A.dtype == dtype and all(data.dtype == dtype for _, data, *_ in A.terms)
    assert all(offs.dtype == np.int32 and np.all(np.diff(offs) > 0) for offs, *_ in A.terms)
    assert np.all(np.diff(D.offsets) > 0)
    for x in (_signed_zeros_or_normal(gen, A.n, np.float32), _signed_zeros_or_normal(gen, A.n, np.float64)):
        _assert_bitwise(A @ x, D @ x)  # the bytes: sign bits included
    np.testing.assert_array_equal(A.dense(), D.toarray())
    np.testing.assert_array_equal(A.diagonal(), D.diagonal())
    assert A.bandwidth() == max(abs(int(o)) for o in D.offsets)


def test_quadratic_solve_does_not_build_the_gradient_operator(monkeypatch):
    """Both paths apply the gradient by stencil: the quadratic path assembles
    K from the corner weights, and Newton applies B and B^T from them."""
    cases = [(CHECKER, (1.0, -0.5), 2, 4, 1),
             (power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0), (1.0, 0.0), 1, 2, 1),
             (power_integrand(checkerboard_coefficient(1.0, 4.0, n=2), 3.0), (1.0, 0.0, 0.5, 0.0), 1, 1, 2)]
    expected = [mu_q(f, q, t, M, n=n) for f, q, t, M, n in cases]

    def refuse(grid):
        raise AssertionError("gradient_operator called")

    monkeypatch.setattr(solve, "gradient_operator", refuse)
    for (f, q, t, M, n), want in zip(cases, expected):
        sol = mu_q(f, q, t, M, n=n)
        assert sol.method == ("cg" if f.alpha == 2.0 else "first_order") and sol.converged
        assert (sol.energy, sol.iterations, sol.residual) == (want.energy, want.iterations, want.residual)
        np.testing.assert_array_equal(sol.u.values, want.u.values)


@settings(max_examples=40, deadline=None)
@given(grid=random_grids(), seed=st.integers(0, 2**32 - 1))
def test_stencil_gradient_products_are_the_operator_products_bitwise(grid, seed):
    """Newton's B u (corners ascending) and B^T v on the interior nodes
    (corners descending, components inner) are bitwise, sign bits included,
    the CSR and CSC products with ``gradient_operator``.  Most values are
    +-0.0, so a sum that started at its first term instead of 0.0 would leave
    -0.0 where the products have +0.0."""
    gen, m = rng(seed), grid.m
    B, w = gradient_operator(grid), solve._corner_weights(grid)

    def sparse(shape):
        x = gen.standard_normal(shape)
        zero = gen.random(shape) < 0.85
        x[zero] = np.where(gen.random(shape) < 0.5, 0.0, -0.0)[zero]
        return x

    u, v = sparse(grid.num_nodes), sparse((grid.num_cells, m))
    G = solve._cell_gradients(grid, w, u, range(2 ** grid.N))
    assert G.shape == grid.cell_shape + (m,) and G.flags.c_contiguous
    R = solve._interior_transpose(grid, w, v.reshape(grid.cell_shape + (m,)))
    for got, ref in ((G.reshape(-1), B @ u), (R, (B.T @ v.reshape(-1))[grid.interior_flat])):
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


def test_discrete_energy_is_cell_quadrature():
    g = build_grid(1.0, 2)
    gen = rng(61)
    u = ScalarField(g, gen.uniform(-1, 1, g.shape))
    hg = discrete_h_gradient(u)
    X = g.cell_centers
    vals = CHECKER.eval_cells(CHECKER.coefficients_at(X), hg.reshape(-1, g.m))
    expect = integrate_cells(vals.reshape(g.cell_shape), g)
    assert discrete_energy(u, CHECKER) == pytest.approx(expect, rel=1e-14)


# ---------------------------------------------------------------------------
# exactness for x-independent quadratic integrands
# ---------------------------------------------------------------------------

def test_constant_coefficient_minimizer_is_affine():
    f = power_integrand(ConstantCoefficient(1.0), 2.0)
    for t in (1.0, 2.0):
        for q in ((1.0, 0.0), (0.0, 1.0), (2.0, -1.0)):
            sol = mu_q(f, q, t, 4)
            g = sol.u.grid
            qa = np.asarray(q)
            expect = float(qa @ qa) * g.volume
            assert sol.energy == pytest.approx(expect, rel=1e-10)
            ua = h_affine_field(g, qa)
            assert np.abs(sol.u.values - ua.values).max() < 1e-6
            assert sol.converged


def test_solution_satisfies_boundary_and_mean_gradient():
    sol = mu_q(CHECKER, (1.0, -0.5), 1.0, 4)
    g = sol.u.grid
    bd = HAffineBoundary((1.0, -0.5))
    mask = g.boundary_mask
    np.testing.assert_array_equal(sol.u.values[mask], bd.trace(g)[mask])
    np.testing.assert_allclose(mean_h_gradient(sol.u, bd), [1.0, -0.5], rtol=0, atol=1e-12)


def test_minimum_beats_affine_candidate():
    """With oscillating coefficients the corrector strictly lowers the energy."""
    sol = mu_q(CHECKER, (1.0, 0.0), 1.0, 4)
    g = sol.u.grid
    e_aff = discrete_energy(h_affine_field(g, np.array([1.0, 0.0])), CHECKER)
    assert sol.energy < e_aff - 1e-3


# ---------------------------------------------------------------------------
# dense oracle vs iterative paths
# ---------------------------------------------------------------------------

def test_cg_matches_dense_oracle():
    gen = rng(62)
    for t, M in ((1.0, 1), (1.0, 2)):
        g = build_grid(t, M)
        for _ in range(3):
            q = gen.uniform(-2, 2, size=2)
            bd = HAffineBoundary(tuple(q))
            e_ref, u_ref = dense_reference_minimum(g, CHECKER, bd)
            sol = solve_cell(CellProblem(g, CHECKER, bd))
            assert sol.energy == pytest.approx(e_ref, rel=1e-10)
            np.testing.assert_allclose(sol.u.values, u_ref.values, rtol=0, atol=1e-7)


def test_first_order_matches_cg_on_quadratic():
    g = build_grid(1.0, 2)
    problem = CellProblem(g, CHECKER, HAffineBoundary((1.0, -1.0)))
    cg = solve_cell(problem)
    trace = problem.boundary.trace(g).reshape(-1)
    x, _, _, converged = solve._solve_newton(problem, CHECKER.coefficients_at(g.cell_centers), trace)
    vals = trace.copy()
    vals[g.interior_flat] = x
    fo = discrete_energy(ScalarField(g, vals.reshape(g.shape)), CHECKER)
    assert cg.method == "cg" and converged
    assert fo == pytest.approx(cg.energy, rel=1e-7)


def test_dense_oracle_respects_size_cap():
    g = build_grid(2.0, 4)  # way more than 500 interior nodes
    with pytest.raises(ValueError):
        dense_reference_minimum(g, CHECKER, HAffineBoundary((1.0, 0.0)))


# ---------------------------------------------------------------------------
# path selection and validation
# ---------------------------------------------------------------------------

def test_auto_dispatch():
    g = build_grid(1.0, 2)
    bd = HAffineBoundary((1.0, 0.0))
    sol2 = solve_cell(CellProblem(g, CHECKER, bd))
    assert sol2.method == "cg"
    f3 = power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0)
    sol3 = solve_cell(CellProblem(g, f3, bd))
    assert sol3.method == "first_order"
    assert sol3.converged


def test_energy_is_recomputed_from_returned_field():
    """The reported energy is the functional at the returned u, bit for bit."""
    sol = mu_q(CHECKER, (0.7, 1.1), 1.0, 4)
    assert sol.energy == discrete_energy(sol.u, CHECKER)


@pytest.mark.parametrize("f, q, t, M, n", [
    (power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0), (1.0, 0.0), 1.0, 3, 1),
    (sample_random_integrand(4, TwoPointLaw(1.0, 4.0, 0.5)), (0.3, -1.0), 2.0, 2, 1),
    (sample_random_integrand(4, TwoPointLaw(1.0, 4.0, 0.5), alpha=3.0), (1.0, 0.5), 1.0, 3, 1),
    (power_integrand(checkerboard_coefficient(1.0, 4.0, n=2), 2.0), (1.0, 0.0, 0.5, 0.0), 1.0, 2, 2),
    (power_integrand(checkerboard_coefficient(1.0, 4.0, n=2), 3.0), (1.0, 0.0, 0.5, 0.0), 1.0, 2, 2),
], ids=["checker_alpha3", "random_tile", "random_tile_alpha3", "checker_n2", "checker_n2_alpha3"])
def test_energy_equals_discrete_energy_bitwise(f, q, t, M, n):
    """The solve's energy, computed from its own coefficient lookup, is the
    recompute-from-scratch value on both paths, random tiles and n = 2."""
    sol = mu_q(f, q, t, M, n=n)
    assert sol.method == ("cg" if f.alpha == 2.0 else "first_order")
    assert sol.energy == discrete_energy(sol.u, f)


def test_first_order_evaluates_the_energy_about_once_per_iteration(monkeypatch):
    """No per-iteration callback re-runs the objective."""
    calls = []
    original = PowerIntegrand.eval_cells

    def counted(self, c, Q):
        calls.append(len(Q))
        return original(self, c, Q)

    monkeypatch.setattr(PowerIntegrand, "eval_cells", counted)
    sol = mu_q(power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0), (1.0, 0.0), 1, 2)
    assert sol.method == "first_order" and sol.converged
    assert len(calls) <= 1.3 * sol.iterations + 2


@pytest.mark.parametrize("alpha", [2.0, 3.0])
@pytest.mark.parametrize("coefficient", [
    checkerboard_coefficient(1.0, 4.0),
    RandomTileCoefficient(TwoPointLaw(1.0, 4.0, 0.5), seed=2),
], ids=["cell_table", "random_tile"])
def test_coefficients_are_looked_up_exactly_once_per_solve(monkeypatch, coefficient, alpha):
    """One lookup binds the solve's coefficients; the energy is recomputed from them."""
    calls = []
    cls = type(coefficient)
    original = cls.values_at

    def counted(self, X):
        calls.append(len(X))
        return original(self, X)

    monkeypatch.setattr(cls, "values_at", counted)
    sol = mu_q(power_integrand(coefficient, alpha), (1.0, 0.0), 1, 2)
    assert sol.converged and sol.method == ("cg" if alpha == 2.0 else "first_order")
    assert calls == [build_grid(1, 2).num_cells]


def jacobi(K):
    """The diagonal preconditioner, the reference the multigrid path is held to."""
    return lambda r: r / K.diagonal()


@pytest.mark.parametrize("d", [0.0, -1.0, np.nan])
def test_pcg_rejects_non_positive_diagonal(d):
    data, offsets = np.array([[1.0, d]]), np.array([0], dtype=np.int32)
    for A in (sp.csr_matrix(np.diag([1.0, d])), solve._symmetric(data, offsets)):
        with pytest.raises(NumericalError, match="diagonal"):
            _pcg(A, np.ones(2), np.zeros(2), jacobi, 1e-12, 100)
    with pytest.raises(NumericalError, match="diagonal"):
        _multigrid(data, offsets, (2,))


def test_pcg_rejects_non_positive_curvature():
    K = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NumericalError, match="curvature"):
        _pcg(K, np.array([1.0, -1.0]), np.zeros(2), jacobi, 1e-12, 100)


def test_solve_that_starts_converged_builds_no_v_cycle(monkeypatch):
    """A constant coefficient's minimizer is the H-affine trace, so CG starts
    at a residual under TOL_RESIDUAL and returns before it asks for a
    preconditioner (the cell has more unknowns than the V-cycle's coarsest
    level)."""
    f = power_integrand(ConstantCoefficient(1.0), 2.0)
    expected = mu_q(f, (0.3, -1.2), 3, 4)

    def refuse(data, offsets, shape):
        raise AssertionError("_multigrid called")

    monkeypatch.setattr(solve, "_multigrid", refuse)
    sol = mu_q(f, (0.3, -1.2), 3, 4)
    assert len(sol.u.grid.interior_flat) > solve._COARSE_UNKNOWNS
    assert sol.method == "cg" and sol.converged and sol.iterations == 0
    assert (sol.energy, sol.residual) == (expected.energy, expected.residual)


def test_pcg_reports_non_convergence_and_solves_spd():
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    b = np.array([1.0, 2.0, 3.0])
    K = sp.csr_matrix(A)
    _, it, relres, converged = _pcg(K, b.copy(), np.zeros(3), jacobi, 1e-12, 1)
    assert it == 1 and relres > 1e-12 and converged is False
    x, it, relres, converged = _pcg(K, b.copy(), np.zeros(3), jacobi, 1e-12, 100)
    assert converged is True and it <= 3
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-12)


def _random_tile_sample():
    return sample_random_integrand(3, TwoPointLaw(1.0, 4.0, 0.5))


@pytest.mark.parametrize("make_f, q, t, M, n", [
    (lambda: CHECKER, (1.0, 0.0), 3.0, 3, 1),        # misaligned with the table
    (lambda: CHECKER, (1.0, -0.5), 2.5, 2, 1),       # odd vertical interval count
    (lambda: matrix_p_integrand([[2.0, 0.5], [0.5, 1.0]], 2.0), (1.0, 0.5), 2.0, 4, 1),
    (_random_tile_sample, (1.0, 0.0), 2.0, 4, 1),
    (lambda: power_integrand(checkerboard_coefficient(1.0, 4.0, n=2), 2.0),
     (1.0, 0.0, 0.0, 0.0), 1.0, 3, 2),              # 3125 unknowns: one coarse level
], ids=["checker_t3_M3", "checker_t2.5_M2", "matrix_p2", "random_tiles", "checker_n2"])
def test_multigrid_matches_jacobi_reference(monkeypatch, make_f, q, t, M, n):
    """Both preconditioners reach the same minimum from a perturbed start (the
    H-affine start is already exact for x-independent integrands)."""
    f, grid = make_f(), build_grid(t, M, n)
    problem = CellProblem(grid, f, HAffineBoundary(q))
    coeffs = f.coefficients_at(grid.cell_centers)
    trace = problem.boundary.trace(grid).reshape(-1)
    start = trace.copy()
    start[grid.interior_flat] += rng(63).uniform(-1.0, 1.0, grid.interior_flat.size)

    def energy_and_iterations():
        x, it, _, converged = solve._solve_quadratic(problem, coeffs, start)
        assert converged
        vals = trace.copy()
        vals[grid.interior_flat] = x
        return discrete_energy(ScalarField(grid, vals.reshape(grid.shape)), f), it

    e_mg, it_mg = energy_and_iterations()
    monkeypatch.setattr(solve, "_multigrid", lambda data, offsets, _: jacobi(solve._symmetric(data, offsets)))
    e_ref, it_ref = energy_and_iterations()
    assert e_mg == pytest.approx(e_ref, rel=1e-10)
    assert it_mg < it_ref


def test_multigrid_iterations_grow_slowly_with_the_cell():
    its = {k: mu_q(CHECKER, (1.0, 0.0), k, 4).iterations for k in (1, 2, 3)}
    assert its[1] == 1  # 343 unknowns: the coarse inverse solves it
    assert its[2] <= 25 and its[3] <= 31  # the counts under the wide-band degree-6 smoother, plus 2
    assert its[3] <= 2 * its[2]


def test_multigrid_iterations_on_a_smooth_coefficient():
    """On 2 + cos(x3) a power iteration started from cos(i) fell short of
    the top of the spectrum of D^-1 K: the V-cycle was indefinite there and
    CG took 1300 / 156 iterations at k = 2 / 3."""
    its = {k: mu_q(SMOOTH, (1.0, 0.0), k, 4).iterations for k in (2, 3)}
    assert its[2] <= 23 and its[3] <= 24  # the counts under the wide-band degree-6 smoother, plus 2


def test_multigrid_iterations_on_the_n2_checkerboard():
    """The first H^2 cell, 16,807 unknowns: 130 iterations under the degree-3
    smoother on [lmax / 30, lmax], 62 under the wide band."""
    sol = mu_q(power_integrand(checkerboard_coefficient(1.0, 4.0, n=2), 2.0), (1.0, 0.0, 0.5, 0.0), 1, 4, 2)
    assert sol.converged and sol.iterations <= 80


def _hierarchy(monkeypatch, f, q, t, M, n=1):
    """The normal matrix K, as (data, offsets), and the preconditioner that
    ``mu_q`` builds for it."""
    built, multigrid = [], solve._multigrid

    def capture(data, offsets, shape):
        built.append(((data, offsets), multigrid(data, offsets, shape)))
        return built[-1][1]

    monkeypatch.setattr(solve, "_multigrid", capture)
    mu_q(f, q, t, M, n)
    (K, precond), = built
    return K, precond


class _Float32Only:
    """A sparse matrix that fails any product with, or giving, a non-float32 vector."""

    def __init__(self, A):
        self.A, self.shape = A, A.shape

    def __matmul__(self, v):
        return self._product(self.A.__matmul__, v)

    def rmatvec(self, v):
        return self._product(self.A.rmatvec, v)

    @staticmethod
    def _product(op, v):
        assert v.dtype == np.float32
        out = op(v)
        assert out.dtype == np.float32
        return out


def test_multigrid_levels_are_float32(monkeypatch):
    (data, offsets), precond = _hierarchy(monkeypatch, CHECKER, (1.0, 0.0), 2, 4)
    levels, coarse = precond.args
    assert len(levels) == 2 and data.dtype == np.float64
    level = levels[0]
    # level 0 is the normalised K's stored diagonals cast to float32, at K's
    # offsets (the 14 of offset >= 0, each coupling once: every lower term a
    # view of them), its largest diagonal entry in [0.5, 1); no index arrays
    assert offsets.size == 14
    assert type(level.A) is solve._Dia and level.A.dtype == np.float32
    stored_offsets, stored, *_ = level.A.terms[-1]
    assert all(part.dtype == np.float32 and np.shares_memory(part, stored) for _, part, *_ in level.A.terms)
    np.testing.assert_array_equal(stored_offsets, offsets)
    np.testing.assert_array_equal(stored, data.astype(np.float32))
    assert 0.5 <= level.A.diagonal().max() < 1.0
    assert not any(hasattr(level.A, name) for name in ("indices", "indptr", "coords"))
    for a in (level.dinv, level.R.data, level.sign):
        assert a.dtype == np.float32
    # R = P^T is CSR arrays by coarse rows applied by scipy's kernels (P by the CSC one), with no
    # scipy.sparse object
    assert type(level.R) is solve._Csr and level.R.indices.dtype == level.R.indptr.dtype == np.int32
    # level 1 is the three block terms on two copies of its grid, every array float32, with no sign
    below = levels[1]
    assert type(below.A) is solve._Dia and len(below.A.terms) == 3 and below.sign is None
    assert all(part.dtype == np.float32 for _, part, *_ in below.A.terms)
    for a in (below.dinv, below.R.data):
        assert a.dtype == np.float32
    assert all(type(c) is float for lv in levels for c in lv.cheb)  # a numpy scalar would upcast
    # the coarsest level is its float64 inverse, dense and exactly symmetric
    assert type(coarse) is np.ndarray and coarse.dtype == np.float64
    assert coarse.shape == (2 * below.R.shape[0],) * 2 and coarse.shape[0] <= solve._COARSE_UNKNOWNS
    np.testing.assert_array_equal(coarse, coarse.T)

    r = np.cos(np.arange(data.shape[1]))
    z = precond(r)
    assert z.dtype == np.float64
    # one V-cycle, every product checked: no silent float64 promotion inside
    checked = [lv._replace(A=_Float32Only(lv.A), R=_Float32Only(lv.R)) for lv in levels]
    b = r.astype(np.float32)
    e = solve._vcycle(checked, coarse, b)
    assert e.dtype == np.float32
    np.testing.assert_array_equal(e, solve._vcycle(levels, coarse, b))


def test_preconditioner_without_smoothed_levels_is_the_coarse_inverse(monkeypatch):
    """K of at most ``_COARSE_UNKNOWNS`` unknowns (the checkerboard at k = 1,
    343) gets the V-cycle map with no levels: the residual's power-of-two
    scaling is exact and the coarsest level solves in float64, so the map is
    bitwise the product with K's inverse."""
    (data, offsets), precond = _hierarchy(monkeypatch, CHECKER, (1.0, 0.0), 1, 4)
    levels, coarse = precond.args
    assert data.shape[1] == 343 and levels == []
    inverse = solve._inverse(solve._symmetric(data, offsets))
    np.testing.assert_array_equal(coarse, inverse)
    for scale in (1.0, 3e-7, 5e200):
        r = scale * np.cos(np.arange(data.shape[1]))
        z = precond(r)
        assert z.dtype == np.float64
        assert z.tobytes() == solve._coarse_solve(inverse, r).tobytes()


def test_level_set_up_reads_the_operator_it_holds(monkeypatch):
    """Every level's inverse diagonal and Chebyshev interval come from the
    float32 operator it stores and smooths with, through the same kernel
    product: K's stored diagonals cast on level 0, the three block terms
    below it."""
    f = power_integrand(checkerboard_coefficient(1.0, 3.0), 2.0)
    _, precond = _hierarchy(monkeypatch, f, (1.0, 0.0), 3, 4)
    levels, _ = precond.args
    assert [type(level.A) for level in levels] == [solve._Dia] * 3
    assert [len(level.A.terms) for level in levels] == [14, 3, 3]
    assert all(part.dtype == np.float32 for level in levels for _, part, *_ in level.A.terms)
    for level in levels:
        assert level.A.dtype == np.float32
        dinv = 1.0 / level.A.diagonal()
        assert dinv.dtype == np.float32
        np.testing.assert_array_equal(level.dinv, dinv)
        assert level.cheb == solve._chebyshev(level.A, dinv)


SMOOTH = power_integrand(heishom.SmoothCoefficient(lambda X: 2.0 + np.cos(X[..., 2]), 1.0, 3.0), 2.0)
NEAR_FLAT = power_integrand(checkerboard_coefficient(1.0, 1.001), 2.0)


@pytest.mark.parametrize("f, k, coarser", [
    pytest.param(CHECKER, 2, 1, id="2-1"),
    pytest.param(CHECKER, 3, 2, id="3-2"),
    pytest.param(SMOOTH, 2, 1, id="smooth-2-1"),
    pytest.param(SMOOTH, 3, 2, id="smooth-3-2"),
    pytest.param(NEAR_FLAT, 2, 1, id="near-flat-2-1"),
    pytest.param(NEAR_FLAT, 3, 2, id="near-flat-3-2"),
    pytest.param(sample_random_integrand(26, TwoPointLaw(1.0, 4.0)), 2, 1, id="tile-26-2-1"),
    pytest.param(sample_random_integrand(44, TwoPointLaw(1.0, 4.0)), 3, 2, id="tile-44-3-2"),
])
def test_chebyshev_interval_covers_each_level(monkeypatch, f, k, coarser):
    """theta + delta, the top of each level's smoothing interval, lies at
    least 7% above the largest eigenvalue of D^-1 A for the float32 operator
    and inverse diagonal the level stores: the degree-6 polynomial on
    [lmax / 400, lmax] amplifies a mode 1% above its top by 1.53 per sweep,
    and the V-cycle need not be definite.  A power iteration started from
    cos(i) fell 4-19% short on the smooth coefficient 2 + cos(x3), the
    1/1.001 checkerboard and tile seed 26 at level 0; 15 power steps from
    the hashed start left tile seed 44 at k = 3 at 0.996 of the bound on
    level 1, the top Ritz value of 10 Lanczos steps at 0.948, and the
    largest Gershgorin disc of their tridiagonal at 0.917.  Every smoothed
    level is checked: level 0 and the ``coarser`` smoothed levels below it
    (the second number of the id)."""
    from scipy.sparse.linalg import eigsh

    _, precond = _hierarchy(monkeypatch, f, (1.0, 0.0), k, 4)
    levels = precond.args[0]
    assert len(levels) == 1 + coarser
    for level in levels:
        A = _padded(level.A)
        h = sp.diags(np.sqrt(level.dinv.astype(np.float64)))
        lmax = eigsh(h @ A.astype(np.float64) @ h, k=1, which="LA", return_eigenvectors=False)[0]
        theta, delta, _ = level.cheb
        assert lmax <= 0.93 * (theta + delta)


def _random_spd_stencil(shape, gen):
    """A random symmetric 3^N-point stencil operator on the node grid shape,
    strictly diagonally dominant with a positive diagonal (so SPD), as its
    float64 stored diagonals (data, offsets), whose ``_symmetric`` operator
    has the dia_matrix it was cut from as its padded layout, bitwise."""
    n = int(np.prod(shape))
    nodes = np.arange(n).reshape(shape)
    rows, cols, vals = [], [], []
    for o in itertools.product((-1, 0, 1), repeat=len(shape)):
        if o <= (0,) * len(shape):
            continue  # each coupling once, from its lexicographically positive offset
        x = tuple(slice(max(0, -a), m - max(0, a)) for a, m in zip(o, shape))
        y = tuple(slice(max(0, -a) + a, m - max(0, a) + a) for a, m in zip(o, shape))
        r, c = nodes[x].reshape(-1), nodes[y].reshape(-1)
        v = gen.uniform(-1.0, 1.0, r.size)
        rows += [r, c]
        cols += [c, r]
        vals += [v, v]
    off = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n))
    dominance = np.asarray(abs(off).sum(axis=1)).reshape(-1)
    D = (off + sp.diags(dominance + gen.uniform(0.5, 2.0, n))).todia()
    assert np.all(np.diff(D.offsets) > 0) and D.data.shape[1] == n
    upper = D.offsets >= 0
    data, offsets = D.data[upper], D.offsets[upper]
    full = _padded(solve._symmetric(data, offsets))
    np.testing.assert_array_equal(full.offsets, D.offsets)
    np.testing.assert_array_equal(full.data, D.data)
    return data, offsets


def _kron_interpolation(shape):
    """P, whose transpose ``_interpolation`` builds, as scipy builds it:
    ``sp.kron`` of the axes' float64 CSR interpolations (format "csr")."""
    P = None
    for nf in shape:
        if nf < 3:
            P1 = sp.identity(nf, format="csr")
        else:
            nc = nf // 2
            c = np.arange(nc)
            rows = np.concatenate([2 * c + 1, 2 * c, 2 * c + 2])
            vals = np.repeat([1.0, 0.5, 0.5], nc)
            keep = rows < nf
            P1 = sp.csr_matrix((vals[keep], (rows[keep], np.tile(c, 3)[keep])), shape=(nf, nc))
        P = P1 if P is None else sp.kron(P, P1, format="csr")
    return P


def _check_galerkin_levels(data, offsets, shape):
    """The first two stencil Galerkin levels of ``_multigrid`` against the sparse
    products built from scipy's interpolation: [P, S P]^T A [P, S P] for
    A = 2^-3 K, K stored by (data, offsets), then blockdiag(P', P')^T A1
    blockdiag(P', P'), each to 1e-14 of its largest entry."""
    sign = (-1.0) ** np.indices(shape).sum(axis=0)
    P, (_, coarse) = _kron_interpolation(shape), solve._interpolation(shape)
    Q = sp.hstack([P, sp.diags(sign.reshape(-1)) @ P], format="csr")
    data = data * 2.0**-3
    ref = (Q.T @ _padded(solve._symmetric(data, offsets)).tocsr() @ Q).tocsr()
    blocks, got_shape = solve._coarse_blocks(solve._augmented_stencils(data, offsets, shape, sign), shape)
    assert got_shape == coarse
    _check_level(blocks, coarse, ref)
    if max(coarse) < 3:
        return
    P2, (_, coarse2) = _kron_interpolation(coarse), solve._interpolation(coarse)
    Q2 = sp.block_diag((P2, P2), format="csr")
    blocks2, got_shape2 = solve._coarse_blocks(blocks, coarse)
    assert got_shape2 == coarse2
    _check_level(blocks2, coarse2, (Q2.T @ ref @ Q2).tocsr())


def _check_level(blocks, shape, ref):
    """The level ``_block_dia`` writes from the block stencils against its
    sparse product ref: the padded DIA of its float64 storage, its diagonal
    and its product; its float32 storage, the float64 one cast, its
    diagonal and its product."""
    level = solve._block_dia(blocks, shape, np.float64)
    assert type(level) is solve._Dia
    D = _padded(level)
    assert D.offsets.dtype == np.int32 and D.data.dtype == np.float64
    assert D.shape == ref.shape
    assert np.all(np.diff(D.offsets) > 0)
    assert abs(D.tocsr() - ref).max() <= 1e-14 * abs(ref).max()
    np.testing.assert_array_equal(level.diagonal(), D.diagonal())
    single = solve._block_dia(blocks, shape, np.float32)
    assert type(single) is solve._Dia and single.shape == level.shape and single.dtype == np.float32
    for (got_offsets, got, *got_place), (want_offsets, want, *want_place) in zip(single.terms, level.terms):
        np.testing.assert_array_equal(got_offsets, want_offsets)
        np.testing.assert_array_equal(got, want.astype(np.float32))
        assert got_place == want_place
    D32 = _padded(single)
    np.testing.assert_array_equal(D32.data, D.data.astype(np.float32))
    np.testing.assert_array_equal(single.diagonal(), D.diagonal().astype(np.float32))
    v = np.cos(np.arange(level.n))
    _assert_bitwise(level @ v, D @ v)
    for x in (v, v.astype(np.float32)):  # either input dtype; the smoother's and the bound's are float32
        _assert_bitwise(single @ x, D32 @ x)


@settings(max_examples=120, deadline=None)
@given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=3).filter(lambda s: max(s) >= 3),
       seed=st.integers(0, 2**32 - 1))
def test_galerkin_levels_by_stencil_equal_the_sparse_products(shape, seed):
    """Odd and even axis lengths, axes under 3 nodes (kept, not coarsened) and
    N = 1..3 axes, on random SPD stencils."""
    shape = tuple(shape)
    _check_galerkin_levels(*_random_spd_stencil(shape, rng(seed)), shape)


def test_galerkin_levels_of_the_n2_checkerboard(monkeypatch):
    """N = 5 axes (243 diagonals in K, 122 of them stored), from the normal
    matrix a solve builds."""
    f = power_integrand(checkerboard_coefficient(1.0, 4.0, n=2), 2.0)
    (data, offsets), _ = _hierarchy(monkeypatch, f, (1.0, 0.0, 0.0, 0.0), 1, 4, 2)
    grid = build_grid(1, 4, 2)
    assert offsets.size == 122 and _padded(solve._symmetric(data, offsets)).offsets.size == 243
    _check_galerkin_levels(data, offsets, tuple(s - 2 for s in grid.shape))


def test_first_augmented_level_stores_no_padding():
    """Level 1 at k = 4 (15 x 15 x 63 nodes per copy) stores 27 offsets for
    each of its four blocks, 1,530,900 float32 values, where the padded DIA
    of the same matrix holds 81 rows of 2n, 2,296,350.  Its symmetric blocks
    keep 15 of their 27 float64 stencil arrays."""
    grid = build_grid(4, 4)
    S = CHECKER.quad_cells(CHECKER.coefficients_at(grid.cell_centers))
    data, offsets = solve._normal_matrix(grid, solve._weighted_corners(grid, S, solve._corner_weights(grid)))
    shape = tuple(s - 2 for s in grid.shape)
    sign = (-1.0) ** np.indices(shape).sum(axis=0)
    blocks, coarse = solve._coarse_blocks(solve._augmented_stencils(data, offsets, shape, sign), shape)
    assert coarse == (15, 15, 63) and [len(b.arrays) for b in blocks] == [15, 27, 15]
    level = solve._block_dia(blocks, coarse, np.float32)
    assert [part_offsets.size for part_offsets, *_ in level.terms] == [27, 27, 27]
    assert sum(part.size for _, part, *_ in level.terms) == 1_530_900
    assert _padded(level).data.size == 2_296_350


def _centre_matrix(grid):
    """The (C, N) matrix of cell centres as grids used to cache it."""
    mesh = np.meshgrid(*grid.cell_center_axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def test_grid_keeps_no_cell_centres():
    """A quadratic solve reads the cell centres once, for the coefficient
    lookup, and leaves no (C, N) matrix on the grid; each access builds the
    same bits."""
    grid = build_grid(2, 4)
    assert solve_cell(CellProblem(grid, CHECKER, HAffineBoundary((1.0, 0.0)))).method == "cg"
    assert "cell_centers" not in vars(grid)
    _assert_bitwise(grid.cell_centers, _centre_matrix(grid))
    assert "cell_centers" not in vars(grid)


@pytest.mark.parametrize("grid", [build_grid(2.5, 2), build_grid(1, 3, 2)], ids=["n1", "n2"])
def test_corner_weights_are_those_of_the_centre_matrix(grid):
    """The corner weights, computed on the cell-centre axes, are bitwise those
    computed from the (C, N) matrix of centres, and each is a contiguous array
    of the whole cell shape: Newton's transpose slices them by box."""
    N, n = grid.N, grid.n
    _, signs = solve._corner_signs(N)
    x = _centre_matrix(grid).T.reshape((N,) + grid.cell_shape)
    shear = [-0.5 * x[n + j] for j in range(n)] + [0.5 * x[j] for j in range(n)]
    edge_w, inv_steps = 1.0 / 2 ** (N - 1), [1.0 / s for s in grid.steps]
    for i, wi in enumerate(solve._corner_weights(grid)):
        for a, got in enumerate(wi):
            want = signs[i, a] * edge_w * inv_steps[a] + shear[a] * (signs[i, N - 1] * edge_w * inv_steps[N - 1])
            assert got.shape == grid.cell_shape and got.flags.c_contiguous and got.flags.owndata
            _assert_bitwise(got, want)


def _assert_same_arrays(got, want, names, dtype):
    """got's arrays ``names`` equal want's, dtypes too; its data is want's
    cast to dtype (the level's precision)."""
    assert tuple(got.shape) == want.shape
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b)
    assert got.data.dtype == dtype
    np.testing.assert_array_equal(got.data, want.data.astype(dtype))
    np.testing.assert_array_equal(np.signbit(got.data), np.signbit(want.data))


_SHAPES = st.one_of(st.lists(st.integers(1, 8), min_size=3, max_size=3),
                    st.lists(st.integers(1, 4), min_size=5, max_size=5)).filter(lambda s: max(s) >= 3)


@settings(max_examples=80, deadline=None)
@given(shape=_SHAPES)
@example(shape=[1, 2, 5])
@example(shape=[2, 1, 3, 1, 4])
def test_interpolation_arrays_are_scipys(shape):
    """R = P^T, built as CSR arrays by coarse rows, is the CSR of the
    transpose of ``sp.kron``'s P (int32 indices, values cast to float32, as
    the levels keep them), for N = 3 and 5 axes with axes of 1 and 2 nodes."""
    shape = tuple(shape)
    R, _ = solve._interpolation(shape)
    assert type(R) is solve._Csr and R.indices.dtype == R.indptr.dtype == np.int32
    _assert_same_arrays(R, _kron_interpolation(shape).T.tocsr(), ("indptr", "indices"), np.float32)


def _assert_bitwise(got, *wants):
    for want in wants:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(shape=_SHAPES, seed=st.integers(0, 2**32 - 1))
@example(shape=[1, 2, 5], seed=0)
@example(shape=[2, 1, 3, 1, 4], seed=1)
def test_interpolation_products_are_scipys(shape, seed):
    """What the V-cycle applies, on float32 vectors with 0.0, -0.0 and
    subnormal entries: R r = P^T r by the CSR kernel on R's arrays is
    bitwise scipy's ``P.T @ r`` and the CSR product with ``P.T.tocsr()``,
    and P e by the CSC kernel on them is bitwise scipy's ``P @ e``; R and
    R^T applied to each half of a two-copy vector are bitwise those
    products with ``sp.block_diag((P, P))``."""
    shape, gen = tuple(shape), rng(seed)
    R, _ = solve._interpolation(shape)
    ref = _kron_interpolation(shape).astype(np.float32)
    block = sp.block_diag((ref, ref), format="csr")

    def vector(size):
        x = _signed_zeros_or_normal(gen, size, np.float32)
        tiny = gen.random(size) < 0.2
        x[tiny] = (1e-39 * gen.standard_normal(size)).astype(np.float32)[tiny]  # float32 subnormals
        return x

    r, e = vector(2 * R.shape[1]), vector(2 * R.shape[0])
    r1, e1 = r[:R.shape[1]], e[:R.shape[0]]
    _assert_bitwise(R @ r1, ref.T @ r1, ref.T.tocsr() @ r1)
    _assert_bitwise(R.rmatvec(e1), ref @ e1)
    _assert_bitwise(np.concatenate([R @ h for h in r.reshape(2, -1)]), block.T @ r, block.T.tocsr() @ r)
    _assert_bitwise(np.concatenate([R.rmatvec(h) for h in e.reshape(2, -1)]), block @ e)


_COARSE_SHAPES = st.one_of(st.lists(st.integers(1, 9), min_size=1, max_size=3),
                           st.lists(st.integers(1, 4), min_size=5, max_size=5)).filter(
    lambda s: math.prod(s) <= solve._COARSE_UNKNOWNS)


@pytest.mark.filterwarnings("ignore:Constructing a DIA matrix")  # the oracle's N = 5 padded layout
@settings(max_examples=80, deadline=None)
@given(shape=_COARSE_SHAPES, seed=st.integers(0, 2**32 - 1))
@example(shape=[7, 7, 7], seed=0)        # K's shape at k = 1, M = 4: 343 unknowns
@example(shape=[3, 3, 3, 3, 3], seed=1)  # N = 5 axes, as at n = 2
def test_coarse_inverse_solves_like_numpy(shape, seed):
    """The coarse solve, the dense inverse of ``_inverse`` applied by
    ``_coarse_solve``, agrees with ``numpy.linalg.solve`` to 1e-12 on random
    SPD stencils of at most ``_COARSE_UNKNOWNS`` unknowns and, where the
    shape coarsens, on their first augmented level (the kind of matrix the
    V-cycle inverts, with offsets near +-n).  The inverse is exactly
    symmetric, and ``dense()`` is scipy's dense matrix."""
    shape, gen = tuple(shape), rng(seed)
    data, offsets = _random_spd_stencil(shape, gen)
    K = solve._symmetric(data, offsets)
    np.testing.assert_array_equal(K.dense(), _padded(K).toarray())
    matrices = [K]
    if max(shape) >= 3:
        sign = (-1.0) ** np.indices(shape).sum(axis=0)
        blocks, coarse = solve._coarse_blocks(solve._augmented_stencils(data, offsets, shape, sign), shape)
        matrices.append(solve._block_dia(blocks, coarse, np.float64))
    for A in matrices:
        X, D = solve._inverse(A), A.dense()
        assert X.dtype == np.float64 and X.shape == A.shape
        np.testing.assert_array_equal(X, X.T)
        for b in gen.standard_normal((2, A.shape[0])):
            want = np.linalg.solve(D, b)
            assert np.max(np.abs(solve._coarse_solve(X, b) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("A", [
    [[1.0, 1.0], [1.0, 1.0]],                    # positive diagonal, second pivot 0
    [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # second pivot -3: indefinite
    [[1.0, np.nan], [np.nan, 1.0]],
], ids=["zero", "negative", "nan"])
def test_coarse_inverse_rejects_a_pivot_that_is_not_positive(A):
    A = np.array(A)
    n = len(A)
    offsets = np.arange(1 - n, n, dtype=np.int32)
    data = np.zeros((offsets.size, n))
    for row, o in zip(data, offsets.tolist()):  # DIA rows: A[c - o, c] at column c
        c = np.arange(max(0, o), min(n, n + o))
        row[c] = A[c - o, c]
    D = solve._Dia(((offsets, data, 0, 0, n),), n)
    np.testing.assert_array_equal(D.dense(), A)
    with pytest.raises(NumericalError, match="pivot"):
        solve._inverse(D)


def _fresh_python(code):
    """The stdout of ``python -c code`` with this checkout's heishom first on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(heishom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout


_SOLVE_IMPORTS = """
import sys
from heishom import checkerboard_coefficient, mu_q, power_integrand
s = mu_q(power_integrand(checkerboard_coefficient(1.0, 4.0), 2.0), (1.0, 0.0), 3, 4)
print(s.iterations, s.energy.hex(), s.u.values.tobytes().hex()[:64])
print(sorted(m for m in ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg",
                          "scipy.sparse.linalg._dsolve._superlu") if m in sys.modules))
"""


def test_quadratic_solve_imports_no_scipy_sparse():
    """A k=3 solve (three smoothed levels and the coarse inverse) runs on
    scipy's compiled kernels alone: in a fresh interpreter it imports neither
    scipy.sparse nor scipy.sparse.linalg nor scipy.linalg, loads no SuperLU
    extension (nor the OpenBLAS it links), and gives this process's
    result."""
    result, loaded = _fresh_python(_SOLVE_IMPORTS).splitlines()
    s = mu_q(CHECKER, (1.0, 0.0), 3, 4)
    assert result == f"{s.iterations} {s.energy.hex()} {s.u.values.tobytes().hex()[:64]}"
    assert loaded == "[]"


def test_missing_scipy_extension_is_an_import_error_naming_its_file():
    with pytest.raises(ImportError, match=r"scipy/sparse/_no_such_kernel\{\.") as exc:
        solve._scipy_extension("scipy.sparse._no_such_kernel")
    assert exc.value.name == "scipy.sparse._no_such_kernel"
    assert "scipy.sparse._no_such_kernel" not in sys.modules


def test_solver_kernels_are_the_modules_scipy_sparse_uses():
    """The extension the solver loads by file is the one a later
    ``import scipy.sparse`` uses: one copy, in a fresh interpreter and in
    this one."""
    code = ("import heishom.solve as s, scipy.sparse\n"
            "from scipy.sparse import _compressed, _dia\n"
            "print(s._sparsetools is _compressed._sparsetools, s._dia_matvec is _dia.dia_matvec)")
    assert _fresh_python(code).split() == ["True"] * 2
    import scipy.sparse._compressed
    assert solve._sparsetools is scipy.sparse._compressed._sparsetools


def test_multigrid_preconditioner_is_symmetric_positive_definite(monkeypatch):
    """CG needs M^-1 symmetric and definite; float32 rounding may break the
    symmetry only at single precision.  Coefficient jumps of 4 stress it with
    random residuals; on 2 + cos(x3) and on tile seed 44 at k = 3 (the
    thinnest bound margin measured) the residuals K v of the top
    eigenvectors v of D^-1 K are where a smoother bound short of them makes
    M indefinite."""
    from scipy.sparse.linalg import eigsh

    (data, _), precond = _hierarchy(monkeypatch, _random_tile_sample(), (1.0, 0.0), 2.0, 4)
    gen = rng(11)
    for _ in range(4):
        r, s = gen.standard_normal((2, data.shape[1]))
        zr, zs = precond(r), precond(s)
        assert abs(s @ zr - r @ zs) <= 1e-5 * np.linalg.norm(s) * np.linalg.norm(zr)
        assert r @ zr > 0 and s @ zs > 0

    for f, k in ((SMOOTH, 2), (sample_random_integrand(44, TwoPointLaw(1.0, 4.0)), 3)):
        K, precond = _hierarchy(monkeypatch, f, (1.0, 0.0), k, 4)
        K = solve._symmetric(*K)
        h = sp.diags(1.0 / np.sqrt(K.diagonal()))
        _, W = eigsh(h @ _padded(K) @ h, k=4, which="LA")
        for v in (h @ W).T:
            r = K @ v
            assert r @ precond(r) > 0


@pytest.mark.parametrize("e", [-120, 130, -510, 500])
def test_float32_range_does_not_limit_the_slope(e):
    """mu_q is 2-homogeneous in q, and scaling q by a power of two is exact in
    float64; the float32 V-cycle must not lose that to underflow or overflow,
    nor CG's inner products at 2^-510, where |r|^2 underflowed as CG
    converged (a NaN curvature) before rhs was scaled into [0.5, 1)."""
    base = mu_q(CHECKER, (1.0, 0.0), 2, 4)
    sol = mu_q(CHECKER, (2.0 ** e, 0.0), 2, 4)
    assert sol.converged and sol.iterations == base.iterations
    assert sol.energy == base.energy * 2.0 ** (2 * e)


def test_solve_normalises_k_once(monkeypatch):
    """The K the V-cycle gets is scaled by the power of two that puts its
    largest diagonal entry in [0.5, 1), so it is bitwise the same K for a
    coefficient scaled by 2^-140 or 2^130."""
    captured = []
    for scale in (1.0, 2.0**-140, 2.0**130):
        f = power_integrand(checkerboard_coefficient(scale, 4.0 * scale), 2.0)
        (data, offsets), _ = _hierarchy(monkeypatch, f, (1.0, 0.0), 2, 4)
        assert 0.5 <= solve._symmetric(data, offsets).diagonal().max() < 1.0
        captured.append((data, offsets))
    for data, offsets in captured[1:]:
        np.testing.assert_array_equal(offsets, captured[0][1])
        assert data.tobytes() == captured[0][0].tobytes()


@pytest.mark.parametrize("e", [-140, 130])
def test_float32_range_does_not_limit_the_coefficient(e):
    """mu_q is linear in the coefficient, and scaling it by an even power of
    two scales K exactly; the float32 levels (two smoothed at k = 3) must not
    underflow or overflow where CG's float64 K does not."""
    base = mu_q(CHECKER, (1.0, 0.0), 3, 4)
    sol = mu_q(power_integrand(checkerboard_coefficient(2.0 ** e, 2.0 ** (e + 2)), 2.0), (1.0, 0.0), 3, 4)
    assert sol.converged and sol.iterations == base.iterations
    assert sol.energy == base.energy * 2.0 ** e


_CG_FINGERPRINT = """
import hashlib
from heishom import checkerboard_coefficient, mu_q, power_integrand
for alpha, t, M in ((2.0, 1, 12), (2.0, 2, 4), (3.0, 2, 4)):
    # (2, 4) at alpha=2: two smoothed levels, a coarsest of 126 unknowns; alpha=3: Newton
    s = mu_q(power_integrand(checkerboard_coefficient(1.0, 4.0), alpha), (1.0, 0.0), t, M)
    print(s.iterations, s.residual.hex(), s.energy.hex(),
          hashlib.sha256(s.u.values.tobytes()).hexdigest())
"""


def test_cg_result_does_not_depend_on_blas_threads():
    """The PCG, smoother and Newton reductions bypass BLAS, whose threaded
    dot/nrm2 round differently; the dense inverse of the coarsest level and
    its product must not depend on the BLAS thread count either."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(heishom.__file__)))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _CG_FINGERPRINT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outs.append(proc.stdout.split())
    assert outs[0] == outs[1]


def test_alpha3_first_order_converges_and_improves():
    f3 = power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0)
    g = build_grid(1.0, 2)
    bd = HAffineBoundary((1.0, 0.0))
    sol = solve_cell(CellProblem(g, f3, bd))
    assert sol.converged
    e_aff = discrete_energy(apply_boundary(h_affine_field(g, np.array([1.0, 0.0])), bd), f3)
    assert sol.energy < e_aff


# energies of the L-BFGS solver this path replaced, q = (1, 0) on the
# checkerboard (1, 4) and q = (1, 0.5) for |A q|^3, M = 4
_LBFGS_ENERGY = {
    ("checker", 1.5, 1): 17.930031699370346,
    ("checker", 1.5, 2): 282.31556256453246,
    ("checker", 3.0, 1): 17.980751198686665,
    ("checker", 3.0, 2): 288.9975036150196,
    ("checker", 4.0, 1): 17.901244982391113,
    ("checker", 4.0, 2): 288.88823871221257,
    ("matrix_p", 3.0, 1): 119.4174008467778,
    ("matrix_p", 3.0, 2): 1910.6784135484447,
}


@pytest.mark.parametrize("kind, alpha, t", sorted(_LBFGS_ENERGY))
def test_newton_energy_is_not_above_lbfgs(kind, alpha, t):
    if kind == "checker":
        f, q = power_integrand(checkerboard_coefficient(1.0, 4.0), alpha), (1.0, 0.0)
    else:
        f, q = matrix_p_integrand([[2.0, 0.5], [0.5, 1.0]], alpha), (1.0, 0.5)
    sol = mu_q(f, q, t, 4)
    assert sol.method == "first_order" and sol.converged
    assert sol.residual <= solve.TOL_GRAD
    assert sol.energy <= _LBFGS_ENERGY[kind, alpha, t] * (1 + 1e-6)


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_newton_at_zero_slope_returns_the_trace(alpha):
    f = power_integrand(checkerboard_coefficient(1.0, 4.0), alpha)
    sol = mu_q(f, (0.0, 0.0), 2, 4)
    grid = sol.u.grid
    assert sol.iterations == 0 and sol.converged and sol.energy == 0.0
    np.testing.assert_array_equal(sol.u.values, HAffineBoundary((0.0, 0.0)).trace(grid))


def test_newton_stops_relative_to_a_huge_starting_gradient():
    """q -> 1e100 q scales the minimizer by 1e100 and the energy of |q|^3 by
    1e300.  max|g| <= 1e-8 is out of reach at that scale; the stop relative
    to the gradient at the trace ends the solve in about as many steps, and
    the power-of-two scaling of the inner solves keeps their inner products
    finite."""
    f = power_integrand(checkerboard_coefficient(1.0, 4.0), 3.0)
    base = mu_q(f, (1.0, 0.0), 1, 4)
    sol = mu_q(f, (1e100, 0.0), 1, 4)
    assert sol.method == "first_order" and sol.converged
    assert sol.iterations <= base.iterations + 2 and sol.residual > solve.TOL_GRAD
    assert sol.energy == pytest.approx(1e300 * base.energy, rel=1e-12)
    np.testing.assert_allclose(sol.u.values, 1e100 * base.u.values, rtol=1e-7, atol=1e91)


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_newton_stop_is_scale_covariant(alpha):
    """The energy of c f is c times that of f, and of |q|^3 at slope s q s^3
    times: the stop max|g| <= max(TOL_GRAD min(1, s_0), TOL_GRAD_REL
    max|g_0|), s_0 the largest entry of |B|^T |flux_0|, scales with the
    problem below unit size.  An absolute 1e-8 alone stopped c <= 1e-8 and
    slope 1e-4 at the trace (energy 320 against 289.00 and 282.32, 11-13%
    high) and c = 1e-7 after 2 steps 0.13% high.  The Hessian floor is
    relative to the largest slope: an absolute 1e-8 took 225 steps at
    alpha = 3, slope 2^-30, and stopped alpha = 1.5, slope 2^-300, at the
    trace 13% high.  An affine trace that is the minimiser (a constant
    coefficient) still takes no step."""
    f = power_integrand(checkerboard_coefficient(1.0, 4.0), alpha)
    base = mu_q(f, (1.0, 0.0), 2, 4)
    assert base.converged and base.iterations > 0
    for c in (1e-100, 1e-12, 1e-8, 1e-7, 1e-4, 1e8):
        sol = mu_q(power_integrand(checkerboard_coefficient(c, 4.0 * c), alpha), (1.0, 0.0), 2, 4)
        assert sol.converged and sol.iterations > 0, c
        assert sol.energy / c == pytest.approx(base.energy, rel=1e-15, abs=0.0), c
    for slope in (1e-4, 2.0 ** -14, 1e-6, 2.0 ** -30 if alpha == 3.0 else 2.0 ** -300):
        sol = mu_q(f, (slope, 0.0), 2, 4)
        assert sol.converged and 0 < sol.iterations <= base.iterations + 1, slope
        assert sol.energy / slope ** alpha == pytest.approx(base.energy, rel=1e-15, abs=0.0), slope
    flat = mu_q(power_integrand(ConstantCoefficient(1e-10), alpha), (1.0, 0.0), 2, 4)
    assert flat.converged and flat.iterations == 0


class _WrongGradient(PowerIntegrand):
    """Reports the negated gradient, so every Newton direction ascends."""

    def grad_q_cells(self, a, Q):
        return -super().grad_q_cells(a, Q)


def test_newton_without_descent_ends_unconverged():
    f = _WrongGradient(checkerboard_coefficient(1.0, 4.0), 3.0)
    bd = HAffineBoundary((1.0, 0.0))
    g = build_grid(1.0, 4)
    sol = solve_cell(CellProblem(g, f, bd))
    assert sol.method == "first_order" and not sol.converged
    assert sol.iterations == 0 and sol.residual > solve.TOL_GRAD
    assert sol.energy == discrete_energy(h_affine_field(g, np.array([1.0, 0.0])), f)


# ---------------------------------------------------------------------------
# translation invariance of the discrete problem
# ---------------------------------------------------------------------------

def test_translation_invariance_lattice_shifts():
    for z in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)):
        rep = check_translation_invariance(CHECKER, (1.0, 0.0), z, 1.0, 4)
        assert rep.coeffs_bitwise_equal, z
        assert rep.rel_energy_gap <= 1e-10, z
        assert rep.ok


def test_translation_invariance_detects_fractional_shift():
    rep = check_translation_invariance(CHECKER, (1.0, 0.0), (0.25, 0.0, 0.0), 1.0, 4)
    assert not rep.coeffs_bitwise_equal
    assert rep.max_coeff_diff > 0.1
