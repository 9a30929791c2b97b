"""Discretization tests: stencil moments, scheme cross-checks
and Markov structure.

Oracles: exact moment identities of the ball indicator, Fourier modes
(the multiplier scheme diagonalizes on the rfft lattice), and dense
assemblies small enough for eigvalsh.
"""

import dataclasses
import functools
import math
import os

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from ballwalk import analysis
from ballwalk.densities import eval_potential, make_density, tempered_A_h
from ballwalk.eigensolve import bottom_k, count_at_most, top_k
from ballwalk.errors import ConfigError, KernelUnderResolved, NumericalError
from ballwalk.multiplier import eval_Gd, find_min_M
from ballwalk.operators import (
    _BLOCK_ROWS,
    BANDED,
    MULTIPLIER,
    DiscreteOperator,
    Grid,
    SchrodingerOperator,
    band_weights,
    build_ball_average,
    build_conjugated,
    build_markov,
    build_schrodinger,
    taper_profile,
)
from ballwalk.walk import _evolve_tv

M_1 = find_min_M(1)[1]


@pytest.fixture(scope="module")
def gauss_half():
    return make_density("gaussian", 1, 0.5)


@pytest.fixture(scope="module")
def tempered_unit():
    return make_density("tempered", 1, 1.0, R=0.5)


# --- grid ------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(3, 1.0, 16)
    with pytest.raises(ConfigError):
        Grid(1, 1.0, 15)  # odd
    with pytest.raises(ConfigError):
        Grid(1, 1.0, 6)  # too small
    with pytest.raises(ConfigError):
        Grid(1, -2.0, 16)
    # a float count once built a grid whose slices failed downstream
    with pytest.raises(ConfigError, match="N must be an integer"):
        Grid(1, 12.0, 2400.0)
    with pytest.raises(ConfigError, match="dim must be an integer"):
        Grid(1.0, 12.0, 2400)


def test_grid_geometry():
    g = Grid(1, 3.0, 12)
    assert g.delta == pytest.approx(0.5)
    x = g.axis_nodes()
    assert x[0] == pytest.approx(-3.0 + 0.25)
    np.testing.assert_allclose(x, -x[::-1], atol=1e-15)  # cell-centered, no node at 0
    assert g.size == 12
    g2 = Grid(2, 3.0, 12)
    assert g2.size == 144
    assert g2.nodes().shape == (144, 2)


@pytest.mark.parametrize("L, N", [(3.0, 12), (9.0, 720), (12.0, 2400), (8.0, 96), (0.3, 10),
                                  (1e-3, 998)])
def test_grid_nodes_are_mirror_symmetric_to_the_bit(L, N):
    # x_{N-1-i} = -x_i exactly, so every banded T-tilde commutes with the
    # mirror that count_at_most folds on, and the cell centres stay within
    # rounding of -L + (i + 1/2) delta
    g = Grid(1, L, N)
    x = g.axis_nodes()
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_allclose(x, -L + (np.arange(N) + 0.5) * g.delta, rtol=0, atol=4e-16 * L)


def test_d2_radii_are_those_of_one_wedge():
    # with mirror-exact nodes, |(x, y)| depends on the unordered pair
    # (|x|, |y|) alone: the radii of all N^2 nodes are those of the wedge
    # 0 < x <= y, at most (N/2)(N/2 + 1)/2 values that ball_mass_grid
    # integrates once each (935 on this grid: pairs such as (0.5, 3.5) and
    # (2.5, 2.5) cells share a radius, and rounding splits some)
    g = Grid(2, 8.0, 96)
    radius = lambda xy: np.sqrt(np.sum(xy * xy, axis=-1))  # as ball_mass_grid takes it
    radii = np.unique(radius(g.nodes()))
    x = g.axis_nodes()[g.N // 2 :]
    i, j = np.triu_indices(g.N // 2)
    np.testing.assert_array_equal(radii, np.unique(radius(np.column_stack([x[i], x[j]]))))
    assert radii.size == 935 <= (g.N // 2) * (g.N // 2 + 1) // 2


# --- stencil weights --------------------------------------------------------

def test_band_weights_interior_and_edge():
    h, delta = 0.25, 0.00625
    c = band_weights(h, delta)
    K = len(c) - 1
    assert K == 39  # largest K with K*delta < h (40*delta == h is excluded)
    np.testing.assert_allclose(c[: K - 1], delta, rtol=0, atol=0)
    assert c[K - 1] > 0 and c[K] > 0


def test_band_weights_moments_exact():
    # mass 2h and second moment 2h^3/3 are matched identically, which is
    # what makes constants and the h^2 eigenvalue scale exact downstream,
    # down to a delta whose cube is just above the least normal float
    for h, delta in [(0.25, 0.00625), (0.5, 0.031), (0.3, 0.09), (0.4, 0.1333),
                     (1.05e-102, 3e-103)]:
        c = band_weights(h, delta)
        m = np.arange(len(c), dtype=float)
        mass = c[0] + 2.0 * c[1:].sum()
        m2 = 2.0 * np.sum(c[1:] * (m[1:] * delta) ** 2)
        assert mass == pytest.approx(2.0 * h, rel=1e-14)
        assert m2 == pytest.approx(2.0 * h**3 / 3.0, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    h=st.floats(0.05, 1.0),
    ratio=st.floats(3.01, 80.0),
)
def test_band_weights_positive(h, ratio):
    c = band_weights(h, h / ratio)
    assert np.all(c > 0)


def test_band_weights_edge_pair_bounded_below():
    # in units of delta the edge pair depends on t = h / delta alone:
    # u = ((t - K + 3/2) K^2 - t^3/3 + S) / (2K - 1) and v = t - K + 3/2 - u,
    # S = sum of j^2 for j <= K - 2. Scanned over K = 2 .. 399 with 20,000
    # t per K in (K, K + 1], u >= 1/3 (reached at h = 3 delta) and v > 7/18
    # (its infimum as h -> 2 delta from above): the pair is never near 0
    frac = np.arange(1, 20001) / 20000.0
    lo_u = lo_v = np.inf
    for K in range(2, 400):
        t = K + frac
        S = (K - 2) * (K - 1) * (2 * K - 3) / 6.0
        mass = t - (K - 1.5)
        u = (mass * K * K - (t**3 / 3.0 - S)) / (2 * K - 1)
        lo_u, lo_v = min(lo_u, u.min()), min(lo_v, (mass - u).min())
        for i in (0, 4999, 9999, 19999):  # the closed form is band_weights' pair
            c = band_weights(t[i], 1.0)
            assert len(c) - 1 == K
            np.testing.assert_allclose(c[-2:], [u[i], mass[i] - u[i]], rtol=0, atol=1e-10)
    assert lo_u >= 1.0 / 3.0 - 1e-15
    assert lo_v > 7.0 / 18.0


def test_kernel_under_resolved():
    with pytest.raises(KernelUnderResolved):
        band_weights(0.25, 0.13)  # K = 1
    with pytest.raises(KernelUnderResolved):
        build_ball_average(Grid(1, 4.0, 16), 0.5)  # h < 3 delta


def test_scheme_validation(gauss_half):
    g = Grid(1, 6.0, 240)
    with pytest.raises(ConfigError):
        build_ball_average(g, 0.25, scheme="dense")
    with pytest.raises(ConfigError):
        build_ball_average(Grid(2, 6.0, 48), 0.5, scheme=BANDED)
    with pytest.raises(ConfigError):
        build_conjugated(Grid(2, 6.0, 48), gauss_half, 0.5)  # dim mismatch


def test_default_scheme_follows_the_dimension(gauss_half):
    # banded in d = 1: it builds on a box too narrow for the multiplier's
    # taper buffer (7.07 at alpha = 0.5); the multiplier in d = 2
    g = Grid(1, 6.0, 240)
    assert build_conjugated(g, gauss_half, 0.25).scheme == BANDED
    assert build_ball_average(g, 0.25).scheme == BANDED
    with pytest.raises(ConfigError, match="taper buffer"):
        build_conjugated(g, gauss_half, 0.25, scheme=MULTIPLIER)
    g2 = Grid(2, 8.0, 96)
    assert build_conjugated(g2, make_density("gaussian", 2, 1.0), 0.5).scheme == MULTIPLIER
    assert build_ball_average(g2, 0.5).scheme == MULTIPLIER


# --- ball average: constants and Fourier modes ------------------------------

def test_constant_fixing():
    g = Grid(1, 12.0, 960)
    one = np.ones(g.size)
    ym = build_ball_average(g, 0.25, scheme=MULTIPLIER).matvec(one)
    np.testing.assert_allclose(ym, 1.0, atol=1e-13)
    yb = build_ball_average(g, 0.25, scheme=BANDED).matvec(one)
    interior = np.abs(g.axis_nodes()) < g.L - 0.25
    np.testing.assert_allclose(yb[interior], 1.0, atol=1e-8)
    # edge rows lose exactly the mass that falls outside the box
    assert np.all(yb <= 1.0 + 1e-12)


def test_multiplier_scheme_diagonalizes_grid_modes():
    h = 0.25
    g = Grid(1, 12.0, 3840)
    T = build_ball_average(g, h, scheme=MULTIPLIER)
    x = g.axis_nodes()
    for j in (3, 12, 24):
        xi = 2.0 * math.pi * j / (2.0 * g.L)
        u = np.cos(xi * x)
        np.testing.assert_allclose(T.matvec(u), eval_Gd(1, h * xi) * u, atol=1e-12)


def test_multiplier_matvec_matches_rfftn():
    # the matvec is exactly the n-d real transform pair over the grid's
    # axes, lscale * irfftn(symbol * rfftn(rscale * u)), in d = 1 and d = 2
    rng = np.random.default_rng(7)
    for g, h in ((Grid(1, 12.0, 960), 0.25), (Grid(2, 8.0, 96), 0.6)):
        dens = make_density("gaussian", g.dim, 1.0)
        T = build_conjugated(g, dens, h, scheme=MULTIPLIER)
        u = rng.standard_normal(g.size)
        shape, axes = (g.N,) * g.dim, range(g.dim)
        w = np.fft.rfftn((T.rscale * u).reshape(shape), s=shape, axes=axes)
        ref = T.lscale * np.fft.irfftn(w * T.symbol, s=shape, axes=axes).ravel()
        assert np.array_equal(T.matvec(u), ref)


def test_banded_symbol_error_third_order_in_delta():
    # the edge pair matches mass and second moment but not the fourth,
    # leaving an O(delta^3) symbol defect at fixed xi
    h, xi = 0.25, 2.0
    errs = {}
    for q in (20, 40):
        c = band_weights(h, h / q)
        m = np.arange(len(c))
        sym = (c[0] + 2.0 * np.sum(c[1:] * np.cos(m[1:] * (h / q) * xi))) / (2.0 * h)
        errs[q] = abs(sym - eval_Gd(1, h * xi))
    assert errs[40] < 2.5e-7
    assert errs[20] < 2.0e-6
    assert 4.0 < errs[20] / errs[40] < 12.0


def test_cross_scheme_matvec_wave_packet():
    h = 0.25
    devs = {}
    for q in (20, 40):
        g = Grid(1, 12.0, int(2 * 12.0 / (h / q)))
        x = g.axis_nodes()
        u = np.exp(-(x**2) / 2.0) * np.cos(2.0 * x)
        devs[q] = np.max(
            np.abs(
                build_ball_average(g, h, scheme=BANDED).matvec(u)
                - build_ball_average(g, h, scheme=MULTIPLIER).matvec(u)
            )
        )
    assert devs[20] < 5e-6
    assert devs[40] < 1e-6
    assert devs[20] / devs[40] > 4.0


def test_cross_scheme_top_eigenvalues(gauss_half):
    # the binding agreement level: leading 5 eigenvalues of the conjugated
    # operator from both schemes, each with its own mass (in-box stencil
    # for banded, quadrature for multiplier)
    h = 0.25
    g = Grid(1, 12.0, 3840)  # delta = h/40
    lam_b = top_k(build_conjugated(g, gauss_half, h, scheme=BANDED), 5)
    lam_m = top_k(build_conjugated(g, gauss_half, h, scheme=MULTIPLIER), 5)
    np.testing.assert_allclose(lam_b.eigenvalues, lam_m.eigenvalues, atol=1e-6)


# --- symmetry and form bounds ------------------------------------------------

def test_conjugated_symmetry_probes(gauss_half):
    h = 0.25
    g = Grid(1, 12.0, 1920)
    rng = np.random.default_rng(101)
    for scheme in (BANDED, MULTIPLIER):
        T = build_conjugated(g, gauss_half, h, scheme=scheme)
        for _ in range(20):
            u = rng.standard_normal(g.size)
            v = rng.standard_normal(g.size)
            defect = abs(u @ T.matvec(v) - v @ T.matvec(u))
            assert defect <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)


def test_quadratic_form_floor_on_probes(gauss_half):
    h = 0.25
    g = Grid(1, 12.0, 1920)
    T = build_conjugated(g, gauss_half, h, scheme=MULTIPLIER)
    rng = np.random.default_rng(202)
    for _ in range(20):
        u = rng.standard_normal(g.size)
        assert u @ T.matvec(u) >= (M_1 - 1e-6) * (u @ u)


def test_spectrum_top_at_one(gauss_half):
    g = Grid(1, 9.0, 720)
    T = build_conjugated(g, gauss_half, 0.25, scheme=BANDED)
    lam = np.linalg.eigvalsh(T.to_dense())
    assert lam[-1] <= 1.0 + 1e-8
    assert lam[-1] >= 1.0 - 1e-10  # stationary direction is exact


def test_tempered_spectrum_inside_band(tempered_unit):
    # tight box on purpose (rho at the walls is 0.2 of its peak), so the
    # walls shape both ends of the spectrum: the walk restricted to the box
    # keeps lam_0 = 1, and the lowest eigenvalue clears the floor by 1.6e-3
    h = 0.18
    g = Grid(1, 1.778, 800)
    T = build_conjugated(g, tempered_unit, h, scheme=BANDED)
    lam = np.linalg.eigvalsh(T.to_dense())
    floor = M_1 * tempered_A_h(tempered_unit, h) - 1e-3
    assert lam[0] >= floor
    assert lam[-1] <= 1.0 + 1e-8


# --- Markov form -------------------------------------------------------------

def test_markov_row_sums(gauss_half):
    # the chain is the walk restricted to the box: every row, the wall rows
    # included, sums to 1, also when the stencil (2K + 1 = 23 cells at
    # h = 3 on 8 nodes) is wider than the grid
    for g, h in ((Grid(1, 9.0, 720), 0.25), (Grid(1, 1.0, 8), 3.0)):
        P = build_markov(g, gauss_half, h)
        np.testing.assert_allclose(P.to_dense().sum(axis=1), 1.0, rtol=0, atol=1e-14)


def test_markov_stationary_row_vector(gauss_half):
    g = Grid(1, 9.0, 720)
    P = build_markov(g, gauss_half, 0.25)
    pi = P.meta["stationary"]
    assert pi.sum() == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(pi @ P.to_dense(), pi, atol=1e-12)


def test_markov_similar_to_conjugated(gauss_half):
    # P = S^{-1} T-tilde S with S = diag(sqrt(rho * m)), exactly, when the
    # conjugation uses the in-box stencil mass
    g = Grid(1, 9.0, 720)
    P = build_markov(g, gauss_half, 0.25)
    T = build_conjugated(g, gauss_half, 0.25, scheme=BANDED)
    s = np.sqrt(P.rscale / P.lscale)
    lhs = (1.0 / s)[:, None] * T.to_dense() * s[None, :]
    np.testing.assert_allclose(lhs, P.to_dense(), atol=1e-12)


def test_discrete_mass_matches_stencil(gauss_half):
    from ballwalk.densities import eval_density

    g = Grid(1, 6.0, 240)
    m = 1.0 / build_markov(g, gauss_half, 0.25).lscale
    c = band_weights(0.25, g.delta)
    x = g.axis_nodes()
    # an arbitrary interior row, and the wall row, whose ball reaches past
    # the box: the mass counts the in-box cells only
    for i in (57, 0):
        ref = sum(c[abs(j - i)] * eval_density(gauss_half, x[j])
                  for j in range(max(i - len(c) + 1, 0), i + len(c)))
        assert m[i] == pytest.approx(ref, rel=1e-14)


# --- conjugation against the flat limit --------------------------------------

def test_plateau_conjugation_reduces_to_ball_average():
    # on a wide quartic core the density is locally flat, so D_a T-bar D_a
    # and T-bar act the same on a centered bump up to O(V(0)) = O(1/R)
    plat = make_density("tempered", 1, 1.0, R=50.0)
    g = Grid(1, 60.0, 4800)
    x = g.axis_nodes()
    u = np.exp(-(x**2))
    yt = build_conjugated(g, plat, 0.25, scheme=BANDED).matvec(u)
    yb = build_ball_average(g, 0.25, scheme=BANDED).matvec(u)
    assert np.max(np.abs(yt - yb)) < 5e-4


# --- truncation insensitivity -------------------------------------------------

def test_truncation_insensitivity_gaussian(gauss_half):
    h = 0.25
    a = top_k(build_conjugated(Grid(1, 12.0, 3840), gauss_half, h, scheme=MULTIPLIER), 3)
    b = top_k(build_conjugated(Grid(1, 15.0, 4800), gauss_half, h, scheme=MULTIPLIER), 3)
    np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-8)


def test_truncation_insensitivity_tempered(tempered_unit):
    # shallow core holds a single discrete mode; anything further up is a
    # box-dependent band state, so the insensitivity claim applies to k=1
    h = 0.25
    a = top_k(build_conjugated(Grid(1, 12.0, 3840), tempered_unit, h, scheme=MULTIPLIER), 1)
    b = top_k(build_conjugated(Grid(1, 15.0, 4800), tempered_unit, h, scheme=MULTIPLIER), 1)
    assert abs(a.eigenvalues[0] - b.eigenvalues[0]) < 1e-6


def test_truncation_insensitivity_tempered_wide_core():
    # wide core: several discrete modes below the band, all well localized
    deep = make_density("tempered", 1, 1.0, R=8.0)
    h = 0.25
    a = top_k(build_conjugated(Grid(1, 24.0, 7680), deep, h, scheme=MULTIPLIER), 3)
    b = top_k(build_conjugated(Grid(1, 30.0, 9600), deep, h, scheme=MULTIPLIER), 3)
    np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-6)


# --- Schrodinger comparison operator ------------------------------------------

def test_schrodinger_free_dirichlet_values():
    n, delta = 400, 0.01
    L = SchrodingerOperator(Grid(1, n * delta / 2, n), np.full(n, 2.0 / delta**2))
    r = bottom_k(L, 3)
    exact = 4.0 / delta**2 * np.sin(np.arange(1, 4) * math.pi / (2.0 * (n + 1))) ** 2
    np.testing.assert_allclose(r.eigenvalues, exact, rtol=1e-9)


def test_schrodinger_gaussian_levels_second_order(gauss_half):
    delta = 0.01
    g = Grid(1, 6.0, int(2 * 6.0 / delta))
    r = bottom_k(build_schrodinger(g, gauss_half), 2)
    assert abs(r.eigenvalues[0]) <= delta**2
    assert abs(r.eigenvalues[1] - 2.0) <= 0.35 * delta**2


def test_schrodinger_factorization_positivity(gauss_half, tempered_unit):
    # ground state of -Lap + V is the density itself, so the discrete
    # bottom can only undershoot zero by discretization
    for dens in (gauss_half, tempered_unit):
        g = Grid(1, 6.0, 300)
        r = bottom_k(build_schrodinger(g, dens), 1)
        assert r.eigenvalues[0] >= -10.0 * g.delta**2


@pytest.mark.parametrize("dim", [1, 2])
def test_schrodinger_matrix_matches_stencil(dim):
    # -Lap + V entry by entry: 2d/delta^2 + V on the diagonal, -1/delta^2
    # for each axis neighbor inside the box, nothing else
    g = Grid(dim, 4.0, 40 if dim == 1 else 12)
    dens = make_density("tempered", 1, 1.0, R=0.5) if dim == 1 else make_density("gaussian", 2, 1.0)
    L = build_schrodinger(g, dens)
    V = eval_potential(dens, g.nodes())
    idx = np.arange(g.size).reshape((g.N,) * dim)
    A = np.diag(2.0 * dim / g.delta**2 + V)
    for axis in range(dim):
        lo = np.take(idx, np.arange(g.N - 1), axis=axis).ravel()
        hi = np.take(idx, np.arange(1, g.N), axis=axis).ravel()
        A[lo, hi] = A[hi, lo] = -1.0 / g.delta**2
    np.testing.assert_array_equal(L.to_dense(), A)
    u = np.random.default_rng(2).standard_normal(g.size)
    np.testing.assert_allclose(L.matvec(u), A @ u, rtol=1e-13, atol=1e-13 * np.abs(A).max())


def _kronsum_reference(grid, density):
    """-Lap + V as the Kronecker sum of the d = 1 Dirichlet difference with
    itself, plus diag(V)."""
    V = eval_potential(density, grid.nodes())
    D = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(grid.N, grid.N))
    lap = functools.reduce(scipy.sparse.kronsum, [D / grid.delta**2] * grid.dim)
    return scipy.sparse.csr_array(lap + scipy.sparse.diags_array(V))


@pytest.mark.parametrize("grid, density", [
    (Grid(1, 8.0, 8), make_density("gaussian", 1, 0.5)),
    (Grid(2, 4.0, 8), make_density("gaussian", 2, 1.0)),
    (Grid(2, 7.0, 70), make_density("gaussian", 2, 0.5)),
    (analysis._ladder_grid(make_density("tempered", 1, 1.0, R=0.5), analysis.MU_DELTAS[0]),
     make_density("tempered", 1, 1.0, R=0.5)),
], ids=["d1", "d2", "d2-bench", "ladder-12750"])
def test_schrodinger_bands_are_the_kronsum_to_the_bit(grid, density):
    L, ref = build_schrodinger(grid, density), _kronsum_reference(grid, density)
    np.testing.assert_array_equal(L.diagonal, ref.diagonal())
    u = np.random.default_rng(3).standard_normal(grid.size)
    np.testing.assert_array_equal(L.matvec(u), ref @ u)
    if grid.size <= 4096:
        np.testing.assert_array_equal(L.to_dense(), ref.toarray())


def test_schrodinger_refuses_a_density_of_another_dimension(gauss_half):
    for g, dens in ((Grid(2, 4.0, 16), gauss_half),
                    (Grid(1, 4.0, 16), make_density("gaussian", 2, 0.5))):
        with pytest.raises(ConfigError, match="dimension mismatch"):
            build_schrodinger(g, dens)


def test_schrodinger_d2_bands_no_row_wrap():
    g = Grid(2, 4.0, 16)
    dens = make_density("gaussian", 2, 1.0)
    L = build_schrodinger(g, dens)
    A = L.to_dense()
    np.testing.assert_allclose(A, A.T, atol=0)
    # no coupling between the last cell of a row and the first of the next
    assert A[15, 16] == 0.0
    assert A[31, 32] == 0.0
    assert A[15, 31] != 0.0  # vertical neighbor is coupled


# --- d = 2 multiplier ----------------------------------------------------------

def test_d2_ball_average_constant():
    g = Grid(2, 4.0, 64)
    T = build_ball_average(g, 0.5)
    np.testing.assert_allclose(T.matvec(np.ones(g.size)), 1.0, atol=1e-13)


def test_d2_conjugated_symmetry_and_ground():
    dens = make_density("gaussian", 2, 4.0)
    g = Grid(2, 4.0, 64)
    T = build_conjugated(g, dens, 0.5)
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = rng.standard_normal(g.size)
        v = rng.standard_normal(g.size)
        defect = abs(u @ T.matvec(v) - v @ T.matvec(u))
        assert defect <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)
    r = top_k(T, 3)
    assert abs(r.eigenvalues[0] - 1.0) < 1e-9
    # angular-momentum pair of the radial density stays degenerate
    assert abs(r.eigenvalues[1] - r.eigenvalues[2]) < 1e-9


def test_taper_profile_per_node():
    # smootherstep of the distance to the wall over the buffer width,
    # one factor per axis, evaluated node by node
    def drop(x, L, buf):
        t = min(max((L - abs(x)) / buf, 0.0), 1.0)
        return t**3 * (6.0 * t * t - 15.0 * t + 10.0)

    h, alpha = 0.25, 1.0  # buffer max(5h, 5/sqrt(alpha)) = 5
    for g in (Grid(1, 8.0, 64), Grid(2, 8.0, 32)):
        nodes = np.reshape(g.nodes(), (g.size, g.dim))
        ref = [math.prod(drop(x, g.L, 5.0) for x in p) for p in nodes]
        np.testing.assert_allclose(taper_profile(g, h, alpha), ref, rtol=1e-14, atol=1e-15)


def test_box_where_rho_underflows_is_refused():
    # alpha = 0.5 on [-48, 48]: rho and the ball mass are exactly 0 from
    # |x| ~ 38 on, where a_h would be 0/0 and 1/m infinite. On [-38.4, 38.4]
    # the wall masses are subnormal, not 0: 1/m overflowed in build_markov,
    # and the banded T-tilde took sqrt(rho / m) of them
    dens = make_density("gaussian", 1, 0.5)
    for g in (Grid(1, 48.0, 12800), Grid(1, 38.4, 2560)):
        for scheme in (BANDED, MULTIPLIER):
            with pytest.raises(NumericalError, match="underflow to 0 from radius 3[78]"):
                build_conjugated(g, dens, 0.3, scheme=scheme)
        with pytest.raises(NumericalError, match="underflow to 0 from radius 3[78]"):
            build_markov(g, dens, 0.3)


def test_taper_needs_room(gauss_half):
    with pytest.raises(ConfigError):
        taper_profile(Grid(1, 5.0, 200), 0.25, 0.5)  # buffer 5/sqrt(alpha) > L
    prof = taper_profile(Grid(1, 12.0, 960), 0.25, 0.5)
    assert prof.max() == 1.0 and prof.min() >= 0.0


# --- dense/banded assembly consistency ------------------------------------------

def test_to_dense_matches_matvec():
    dens = make_density("gaussian", 1, 1.0)  # taper buffer 5 fits in L=6
    g = Grid(1, 6.0, 240)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.size)
    for scheme in (BANDED, MULTIPLIER):
        T = build_conjugated(g, dens, 0.25, scheme=scheme)
        np.testing.assert_allclose(T.to_dense() @ u, T.matvec(u), atol=1e-12)


# (grid, h): K = 2 on n = 200 (h = 3 delta exactly, dyadic), K = 5 and
# K = 41 > B on n = 250; neither n is a multiple of the block height
@pytest.mark.parametrize("g, h, K", [(Grid(1, 6.25, 200), 0.1875, 2),
                                     (Grid(1, 6.0, 250), 0.25, 5),
                                     (Grid(1, 6.0, 250), 2.0, 41)],
                         ids=["K2", "K5", "K41"])
def test_banded_block_product_matches_dense(g, h, K):
    assert g.size % _BLOCK_ROWS != 0
    dens = make_density("gaussian", 1, 1.0)
    rng = np.random.default_rng(11)
    P = build_markov(g, dens, h)
    for op in (P, build_conjugated(g, dens, h, scheme=BANDED)):
        assert len(op.stencil) - 1 == K
        A = op.to_dense()
        for u in rng.standard_normal((3, g.size)):
            ref = A @ u
            y = op.matvec(u)
            np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
            # the vector kernel (a band convolution) against the block one,
            # relative to |A| |u|, the scale both sums round on
            *_, step = op.powers(u[:, None], 1)
            np.testing.assert_allclose(y, step[:, 0], rtol=0,
                                       atol=1e-15 * np.max(np.abs(A) @ np.abs(u)))
    # the block path of the kernel: the exact TV evolution carries its
    # starts as the columns of one (n, S) block, checked against dense
    # powers of the Markov matrix's transpose
    A, nu = P.to_dense(), P.meta["stationary"][:, None]
    starts = np.linspace(0, g.size - 1, 6).astype(int)  # both walls and between
    p = np.zeros((g.size, starts.size))
    p[starts, np.arange(starts.size)] = 1.0
    ref = []
    for _ in range(16):
        ref.append(0.5 * np.sum(np.abs(p - nu), axis=0))
        p = A.T @ p
    np.testing.assert_allclose(_evolve_tv(P, starts, 15), np.array(ref), rtol=0, atol=1e-13)


def test_powers_match_dense():
    # K = 41 > _BLOCK_ROWS on a ragged n = 250, three columns, a random
    # positive lscale and rscale: (diag(lscale) C diag(rscale))^k q0
    # against dense powers of the band
    g, h = Grid(1, 6.0, 250), 2.0
    assert g.size % _BLOCK_ROWS != 0
    rng = np.random.default_rng(3)
    lscale, rscale = rng.uniform(0.5, 1.5, (2, g.size))
    op = dataclasses.replace(build_ball_average(g, h, scheme=BANDED), lscale=lscale,
                             rscale=rscale)
    c = op.stencil
    assert len(c) - 1 > _BLOCK_ROWS
    idx = np.arange(g.size)
    dist = np.abs(idx[:, None] - idx[None, :])
    C = np.where(dist < len(c), c[np.minimum(dist, len(c) - 1)], 0.0)
    q0 = rng.standard_normal((g.size, 3))
    ref = q0
    for k, q in enumerate(op.powers(q0, 3)):
        np.testing.assert_allclose(q, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
        ref = lscale[:, None] * (C @ (rscale[:, None] * ref))
    assert k == 3
    with pytest.raises(ConfigError):
        next(build_ball_average(g, h, scheme=MULTIPLIER).powers(q0, 1))
    # a yielded power is the next step's input: an in-place edit of it
    # carries into every later power, which walk._evolve relies on
    kick = rng.standard_normal((g.size, 3))
    ref = q0
    for k, q in enumerate(op.powers(q0, 4)):
        np.testing.assert_allclose(q, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
        if k == 1:
            q += kick
            ref = ref + kick
        ref = lscale[:, None] * (C @ (rscale[:, None] * ref))


def test_products_leave_operand_alone(gauss_half):
    # ARPACK keeps reading the work vector it hands to matvec: a product
    # that wrote into its operand, or returned memory shared with it,
    # would corrupt the Krylov basis
    g = Grid(1, 6.0, 250)
    P = build_markov(g, gauss_half, 0.25)
    u = np.random.default_rng(5).standard_normal(g.size)
    before = u.copy()
    y = P.matvec(u)
    assert y.shape == u.shape
    assert not np.shares_memory(y, u)
    np.testing.assert_array_equal(u, before)
    # powers copies its start block in: no power it yields is q0's memory
    q0 = np.random.default_rng(6).standard_normal((g.size, 3))
    before = q0.copy()
    for q in P.powers(q0, 3):
        assert not np.shares_memory(q, q0)
        q += 1.0  # an edit of a power carries forward, not back into q0
    np.testing.assert_array_equal(q0, before)


def test_operand_shapes_rejected(gauss_half):
    g = Grid(1, 6.0, 240)
    P = build_markov(g, gauss_half, 0.25)
    n = g.size
    for bad in (np.ones(n + 1), np.ones((n, 3)), np.ones((n - 1, 3)), np.ones((n, 2, 2))):
        with pytest.raises(ConfigError):
            P.matvec(bad)
    with pytest.raises(ConfigError):
        build_ball_average(g, 0.25, scheme=MULTIPLIER).matvec(np.ones((n, 2)))
    # powers takes an (n, S) block: these once raised an untyped ValueError
    for bad in (np.ones((n + 1, 2)), np.ones((250, 2)), np.ones(n), np.ones((n, 2, 2))):
        with pytest.raises(ConfigError, match="block"):
            next(P.powers(bad, 1))


def test_symmetry_follows_the_scales(gauss_half):
    # A = diag(lscale) C diag(rscale) is symmetric only when its scales
    # agree: a to_banded that read lscale on both sides of a T-tilde whose
    # lscale alone was replaced would count the wrong operator
    g = Grid(1, 6.0, 240)
    T = build_conjugated(g, gauss_half, 0.25, scheme=BANDED)
    assert T.symmetric
    rng = np.random.default_rng(17)
    for lscale in (2.0 * T.lscale, rng.uniform(0.5, 1.5, g.size)):
        A = dataclasses.replace(T, lscale=lscale)
        assert not A.symmetric
        with pytest.raises(ConfigError, match="symmetric"):
            top_k(A, 2)
        with pytest.raises(ConfigError, match="symmetric"):
            count_at_most([A], [0.5, 1.0])
        with pytest.raises(NumericalError, match="symmetric"):
            A.to_banded()


def test_transpose_swaps_the_scales(gauss_half):
    # the band C is symmetric, so P^T is the Markov form P with lscale and
    # rscale swapped, the operator walk._evolve runs
    P = build_markov(Grid(1, 6.0, 240), gauss_half, 0.25)
    PT = dataclasses.replace(P, lscale=P.rscale, rscale=P.lscale)
    np.testing.assert_allclose(PT.to_dense(), P.to_dense().T, rtol=1e-15, atol=0)


def test_to_banded_matches_dense(gauss_half):
    g = Grid(1, 6.0, 240)
    T = build_conjugated(g, gauss_half, 0.25, scheme=BANDED)
    bands = T.to_banded()
    A = T.to_dense()
    n = g.size
    for k in range(bands.shape[0]):
        np.testing.assert_allclose(bands[k, : n - k], np.diag(A, k), atol=1e-15)


# a ball wider than the box: K = 19 on 8 nodes, and K = n = 8
@pytest.mark.parametrize("h, K", [(5.0, 19), (2.2, 8)])
def test_to_banded_of_a_stencil_longer_than_the_grid(gauss_half, h, K):
    T = build_conjugated(Grid(1, 1.0, 8), gauss_half, h, scheme=BANDED)
    assert len(T.stencil) - 1 == K
    bands = T.to_banded()
    A = T.to_dense()
    assert bands.shape == (K + 1, 8)
    for k in range(K + 1):
        np.testing.assert_array_equal(bands[k, : max(8 - k, 0)], np.diag(A, k))
        np.testing.assert_array_equal(bands[k, max(8 - k, 0):], 0.0)


def test_to_dense_refuses_large(gauss_half):
    g = Grid(1, 12.0, 4200)
    T = build_conjugated(g, gauss_half, 0.25, scheme=MULTIPLIER)
    with pytest.raises(NumericalError):
        T.to_dense()
    with pytest.raises(NumericalError):
        build_markov(Grid(1, 9.0, 720), gauss_half, 0.25).to_banded()  # not symmetric
