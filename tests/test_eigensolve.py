"""Eigensolver tests against dense references.

Everything here is checked twice over: once through the ARPACK and
Sturm-bisection paths under test, once through numpy's eigh on the
assembled matrix. Multiplicities of degenerate levels are checked
against the known level structure, since ARPACK finds repeated
eigenvalues through rounding rather than by construction.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from ballwalk import eigensolve
from ballwalk.analysis import LAMBDA_ZERO_TOL, _box_grid, weyl_curve
from ballwalk.densities import eval_potential, make_density
from ballwalk.eigensolve import (
    CLUSTER_RTOL,
    MAX_K,
    RESIDUAL_RTOL,
    EigenResult,
    bottom_k,
    bottom_values,
    count_at_most,
    dense_reference,
    levels_at_most,
    top_k,
)
from ballwalk.errors import ConfigError, NoConvergence
from ballwalk.operators import (
    BANDED,
    MULTIPLIER,
    DiscreteOperator,
    Grid,
    build_conjugated,
    build_markov,
    build_schrodinger,
)


@pytest.fixture(scope="module")
def gauss_half():
    return make_density("gaussian", 1, 0.5)


@pytest.fixture(scope="module")
def banded_op(gauss_half):
    return build_conjugated(Grid(1, 9.0, 720), gauss_half, 0.25, scheme=BANDED)


@pytest.fixture(scope="module")
def weyl_op(gauss_half):
    # the h = 0.3 operator weyl_curve factors, on the drivers' grid
    return build_conjugated(_box_grid(gauss_half, 0.3), gauss_half, 0.3, scheme=BANDED)


@pytest.fixture(scope="module")
def identity_op():
    g = Grid(1, 4.0, 64)
    one = np.ones(g.size)
    return DiscreteOperator(MULTIPLIER, g, 0.5, lscale=one, rscale=one,
                            symbol=np.ones(g.N // 2 + 1))


@pytest.fixture(scope="module")
def conjugated_d2():
    return build_conjugated(Grid(2, 8.0, 96), make_density("gaussian", 2, 1.0), 0.5)


# --- ARPACK vs dense -----------------------------------------------------------

def test_top_k_matches_dense(banded_op):
    r = top_k(banded_op, 6)
    lam = np.linalg.eigvalsh(banded_op.to_dense())[::-1][:6]
    np.testing.assert_allclose(r.eigenvalues, lam, atol=1e-9)
    assert r.method == "ARPACK"
    assert np.all(r.residuals <= 1e-9)


def test_top_k_multiplier_matches_dense(gauss_half):
    T = build_conjugated(Grid(1, 12.0, 1600), gauss_half, 0.25, scheme=MULTIPLIER)
    r = top_k(T, 4)
    lam = np.linalg.eigvalsh(T.to_dense())[::-1][:4]
    np.testing.assert_allclose(r.eigenvalues, lam, atol=1e-9)


# the d = 1 drivers' banded T-tilde by shift-invert Lanczos; the tempered
# k = 2 and 4 cases have box modes crowding lambda_1. The Gaussian cases
# converge in the first Lanczos pass of ncv = 20 vectors, 21 solves.
@pytest.mark.parametrize("kind, h, k, max_solves", [
    ("tempered", 0.25, 2, 45),
    ("tempered", 0.25, 4, 60),
    ("gaussian", 0.25, 4, 21),
    ("gaussian", 0.1, 2, 21),
])
def test_top_k_shift_invert_matches_dense(kind, h, k, max_solves):
    density = make_density(kind, 1, 1.0 if kind == "tempered" else 0.5,
                           R=0.5 if kind == "tempered" else None)
    T = build_conjugated(_box_grid(density, h), density, h, scheme=BANDED)
    r = top_k(T, k)
    lam = np.linalg.eigvalsh(T.to_dense())[::-1][:k]
    np.testing.assert_allclose(r.eigenvalues, lam, rtol=0, atol=1e-12)
    assert 0 < r.matvecs <= max_solves


def test_top_k_refuses_a_banded_operator_that_reaches_the_shift(gauss_half):
    # scaled by 1.1, the banded T-tilde's top eigenvalue (about 1.21) lies
    # above the shift, so sigma I - T has no Cholesky factor
    T = build_conjugated(_box_grid(gauss_half, 0.25), gauss_half, 0.25, scheme=BANDED)
    big = 1.1 * T.lscale
    T = dataclasses.replace(T, lscale=big, rscale=big)
    with pytest.raises(ConfigError, match=r"sigma = 1\.001"):
        top_k(T, 4)


def test_top_k_multiplier_route_needs_no_band(identity_op):
    # h < 3 delta: the band cannot resolve the radius, the symbol needs
    # none, and the multiplier route solves on the matvec alone
    r = top_k(dataclasses.replace(identity_op, h=0.2), 3)
    np.testing.assert_allclose(r.eigenvalues, 1.0, atol=1e-12)
    assert r.method == "ARPACK" and r.matvecs > 0


def test_dense_reference_agrees(banded_op):
    r = dense_reference(banded_op, k=6)
    s = top_k(banded_op, 6)
    np.testing.assert_allclose(r.eigenvalues, s.eigenvalues, atol=1e-9)
    assert r.method == "DenseReference"
    # the k-pair subset solve agrees with the top of the full spectrum
    full = dense_reference(banded_op)
    np.testing.assert_allclose(r.eigenvalues, full.eigenvalues[:6], atol=1e-12)


# the identity operator makes every start vector an eigenvector, so
# ARPACK restarts on an invariant subspace at once
@pytest.mark.parametrize("name", ["banded_op", "identity_op", "conjugated_d2"])
def test_top_k_deterministic(name, request):
    op = request.getfixturevalue(name)
    a = top_k(op, 5)
    b = top_k(op, 5)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)


def test_eigenvectors_orthonormal(banded_op):
    r = top_k(banded_op, 6)
    V = r.eigenvectors * np.sqrt(banded_op.grid.delta)  # undo L^2(dx) scale
    G = V.T @ V
    np.testing.assert_allclose(G, np.eye(6), atol=1e-8)


def test_eigenvector_equation(banded_op):
    r = top_k(banded_op, 3)
    for j in range(3):
        v = r.eigenvectors[:, j]
        resid = np.linalg.norm(banded_op.matvec(v) - r.eigenvalues[j] * v)
        assert resid <= 1e-9 * np.linalg.norm(v)


def test_identity_operator_multiplicity(identity_op):
    r = top_k(identity_op, 3)
    np.testing.assert_allclose(r.eigenvalues, 1.0, atol=1e-12)
    assert r.clusters == [(pytest.approx(1.0), 3)]


def test_degenerate_levels_d2():
    # radial harmonic well: levels 0, 2, 2, 4, 4, 4; the grid keeps the
    # (2,0)/(0,2) pair exactly degenerate while (1,1) splits at O(delta^2)
    g = Grid(2, 7.0, 70)
    dens = make_density("gaussian", 2, 0.5)
    r = bottom_k(build_schrodinger(g, dens), 6)
    mu = r.eigenvalues
    assert abs(mu[0]) < 0.01
    np.testing.assert_allclose(mu[1:3], 2.0, atol=0.04)
    np.testing.assert_allclose(mu[3:6], 4.0, atol=0.05)
    assert abs(mu[1] - mu[2]) < 1e-7
    assert abs(mu[3] - mu[4]) < 1e-7
    sizes = [s for _, s in r.clusters]
    assert sizes[0] == 1 and 2 in sizes
    assert sum(sizes) == 6


def test_top_k_degenerate_levels_d2(conjugated_d2):
    # the grid's square symmetry keeps the (1,0)/(0,1) and (2,0)/(0,2)
    # levels of T-tilde exactly paired
    r = top_k(conjugated_d2, 6)
    assert abs(r.eigenvalues[0] - 1.0) <= LAMBDA_ZERO_TOL
    assert [s for _, s in r.clusters] == [1, 2, 2, 1]
    assert r.method == "ARPACK"
    assert np.all(r.residuals <= RESIDUAL_RTOL / 10 * np.max(np.abs(r.eigenvalues)))


def test_top_k_d2_multiplier_matches_dense():
    # the d = 2 multiplier route against eigh of the assembled circulant
    T = build_conjugated(Grid(2, 6.0, 40), make_density("gaussian", 2, 1.0), 0.9)
    r = top_k(T, 6)
    lam = np.linalg.eigvalsh(T.to_dense())[::-1][:6]
    np.testing.assert_allclose(r.eigenvalues, lam, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def multiplier_d1(gauss_half):
    T = build_conjugated(Grid(1, 12.0, 960), gauss_half, 0.25, scheme=MULTIPLIER)
    return T, dense_reference(T, 3)


@pytest.fixture(scope="module")
def multiplier_d2():
    # 2,304 nodes; lambda_1 = lambda_2 is a degenerate pair
    T = build_conjugated(Grid(2, 8.0, 48), make_density("gaussian", 2, 1.0), 1.0)
    return T, dense_reference(T, 3)


def _spy_on_eigsh(monkeypatch):
    """The ncv of every eigsh call top_k makes (None where it passes none)."""
    seen, eigsh = [], eigensolve.eigsh

    def spy(A, **kwargs):
        seen.append(kwargs.get("ncv"))
        return eigsh(A, **kwargs)

    monkeypatch.setattr(eigensolve, "eigsh", spy)
    return seen


# the multiplier route runs ARPACK on a basis of 2k + 1 vectors (scipy's
# formula without its floor of 20), and the degenerate d = 2 pair must
# still come out whole
@pytest.mark.parametrize("name, atol", [("multiplier_d1", 1e-9), ("multiplier_d2", 1e-12)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_top_k_multiplier_basis_is_2k_plus_1(name, atol, k, request, monkeypatch):
    T, ref = request.getfixturevalue(name)
    seen = _spy_on_eigsh(monkeypatch)
    r = top_k(T, k)
    assert seen == [2 * k + 1]
    np.testing.assert_allclose(r.eigenvalues, ref.eigenvalues[:k], rtol=0, atol=atol)
    assert np.all(r.residuals <= RESIDUAL_RTOL * np.max(np.abs(r.eigenvalues)))


def test_top_k_banded_keeps_the_default_basis(banded_op, monkeypatch):
    # 2k + 1 vectors cost the shift-invert route 4-6x the solves on
    # crowded band spectra, so it passes no ncv
    seen = _spy_on_eigsh(monkeypatch)
    top_k(banded_op, 2)
    assert seen == [None]


def test_shift_invert_solve_is_cho_solve_banded_to_the_bit(banded_op, monkeypatch):
    ab = -banded_op.to_banded()
    ab[0] += eigensolve._SHIFT
    chol = scipy.linalg.cholesky_banded(ab, lower=True)
    x = np.random.default_rng(5).standard_normal(banded_op.grid.size)
    np.testing.assert_array_equal(scipy.linalg.lapack.dpbtrs(chol, x, lower=1)[0],
                                  scipy.linalg.cho_solve_banded((chol, True), x))
    # and top_k's eigenpairs, with the checked solve in the raw one's place
    raw = top_k(banded_op, 4)
    monkeypatch.setattr(eigensolve, "dpbtrs", lambda c, b, lower: (
        scipy.linalg.cho_solve_banded((c, bool(lower)), b), 0))
    checked = top_k(banded_op, 4)
    np.testing.assert_array_equal(raw.eigenvalues, checked.eigenvalues)
    np.testing.assert_array_equal(raw.eigenvectors, checked.eigenvectors)
    assert raw.matvecs == checked.matvecs


# a ball wider than the box: K = 19 on 8 nodes, and K = n = 8; the bands
# past the grid are zero, and the near-zero eigenvalues cluster within
# 1e-16, so the shifts keep 0.01 clear of every eigenvalue
@pytest.mark.parametrize("h, K", [(5.0, 19), (2.2, 8)])
def test_stencil_longer_than_the_grid_counts_and_solves(gauss_half, h, K):
    T = build_conjugated(Grid(1, 1.0, 8), gauss_half, h, scheme=BANDED)
    assert len(T.stencil) - 1 == K
    ev = np.linalg.eigvalsh(T.to_dense())
    shifts = np.array([-0.5, -0.01, 0.01, 0.5, 1.5])
    assert np.min(np.abs(ev[:, None] - shifts)) >= 0.005
    counts, _ = count_at_most([T], shifts)
    np.testing.assert_array_equal(counts[0], np.count_nonzero(ev[:, None] <= shifts, axis=0))
    r = top_k(T, 2)
    np.testing.assert_allclose(r.eigenvalues, dense_reference(T, 2).eigenvalues, rtol=0, atol=1e-12)


# the d = 2 bottom_k sums the levels of the d = 1 line read off the
# matrix, the construction _kronsum_levels repeats, so the dense eigh of
# the assembled matrix is the independent oracle for it

def _kronsum_levels(grid, alpha, k):
    """The k lowest levels of the d = 2 Gaussian -Lap + V on grid, as
    pairwise sums of the d = 1 tridiagonal spectra (with exact
    multiplicities: e_i + e_j and e_j + e_i are the same float), after
    checking that V(x, y) = V_1(x) + V_1(y) on the grid, which makes the
    d = 2 matrix the Kronecker sum of the d = 1 one with itself."""
    line = Grid(1, grid.L, grid.N)
    d1 = make_density("gaussian", 1, alpha)
    v1 = eval_potential(d1, line.nodes())
    v2 = eval_potential(make_density("gaussian", 2, alpha), grid.nodes())
    np.testing.assert_allclose(v2, np.add.outer(v1, v1).ravel(), rtol=1e-14, atol=1e-14)
    A = build_schrodinger(line, d1).matrix
    e = scipy.linalg.eigh_tridiagonal(A.diagonal(), A.diagonal(1), eigvals_only=True)
    return np.sort(np.add.outer(e, e).ravel())[:k]


def test_bottom_k_d2_multiplicities_match_kronsum():
    op = build_schrodinger(Grid(2, 7.0, 64), make_density("gaussian", 2, 0.5))
    r = bottom_k(op, 6)
    ref = _kronsum_levels(op.grid, 0.5, 6)
    assert r.method == "SturmKroneckerSum"
    np.testing.assert_allclose(r.eigenvalues, ref, rtol=0, atol=1e-9)
    sizes = [s for _, s in r.clusters]
    assert sizes == list(np.unique(ref, return_counts=True)[1]) == [1, 2, 2, 1]
    assert np.all(r.residuals <= RESIDUAL_RTOL / 10 * np.max(np.abs(r.eigenvalues)))


# k = 2, 3, 5, 6 cut inside and at the edge of the degenerate pairs of the
# levels [1, 2, 2, 1]; k = 50 on an 8 x 8 grid asks for more levels than
# the d = 1 line has (N = 8)
@pytest.mark.parametrize("N, k", [(32, 2), (32, 3), (32, 5), (32, 6), (8, 50)])
def test_bottom_k_d2_matches_dense(N, k):
    L = 7.0 if N == 32 else 4.0
    op = build_schrodinger(Grid(2, L, N), make_density("gaussian", 2, 0.5))
    r = bottom_k(op, k)
    ref = dense_reference(op, k)
    np.testing.assert_allclose(r.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-9)
    assert [s for _, s in r.clusters] == [s for _, s in ref.clusters]
    np.testing.assert_allclose([v for v, _ in r.clusters], [v for v, _ in ref.clusters],
                               rtol=0, atol=1e-9)
    assert np.all(r.residuals <= RESIDUAL_RTOL / 10 * np.max(np.abs(r.eigenvalues)))


def test_bottom_k_d2_refuses_a_non_separable_matrix():
    # bottom_k reads its d = 1 line off the matrix, so a matrix that is not
    # that line's Kronecker sum fails the residual gate, which is taken
    # against the matrix: a bump at one node, and V(x, y) = V_1(x) + 2 V_1(y),
    # separable but with two different axes, so half the diagonal at x = y
    # is neither axis's line
    op = build_schrodinger(Grid(2, 7.0, 32), make_density("gaussian", 2, 0.5))
    bump = np.zeros(op.grid.size)
    bump[op.grid.size // 2 + op.grid.N // 2] = 1e-3
    v1 = eval_potential(make_density("gaussian", 1, 0.5), op.grid.axis_nodes())
    skew = np.add.outer(np.zeros(op.grid.N), v1).ravel()  # one more V_1(y)
    for extra in (bump, skew):
        bad = dataclasses.replace(op, matrix=scipy.sparse.csr_array(
            op.matrix + scipy.sparse.diags_array(extra)))
        with pytest.raises(NoConvergence):
            bottom_k(bad, 3)


def test_dense_reference_d2_schrodinger_matches_kronsum():
    op = build_schrodinger(Grid(2, 7.0, 24), make_density("gaussian", 2, 0.5))
    r = dense_reference(op, 6)
    ref = _kronsum_levels(op.grid, 0.5, 6)
    assert r.method == "DenseReference"
    np.testing.assert_allclose(r.eigenvalues, ref, rtol=0, atol=1e-9)
    assert [s for _, s in r.clusters] == list(np.unique(ref, return_counts=True)[1])


# the same operator as conjugated_d2 (N = 96) on finer grids; the kernel
# needs h >= 3 delta, so N = 96 is the coarsest grid this box allows
@pytest.mark.parametrize("N", [112, 128])
def test_top_k_d2_multiplicities_across_resolutions(N):
    op = build_conjugated(Grid(2, 8.0, N), make_density("gaussian", 2, 1.0), 0.5)
    r = top_k(op, 6)
    assert [s for _, s in r.clusters] == [1, 2, 2, 1]
    assert np.all(r.residuals <= RESIDUAL_RTOL / 10 * np.max(np.abs(r.eigenvalues)))


def test_bottom_k_d1_is_sturm(gauss_half):
    g = Grid(1, 6.0, 1200)
    r = bottom_k(build_schrodinger(g, gauss_half), 4)
    assert r.method == "SturmBisection"
    target = np.array([0.0, 2.0, 4.0, 6.0])
    for k in range(4):
        assert abs(r.eigenvalues[k] - target[k]) <= 2e-4 * (1 + k)


@pytest.mark.parametrize("kind, L, N, k", [
    ("gaussian", 6.0, 1200, 4),
    ("tempered", 25.5, 12750, 2),
    ("tempered", 25.5, 12750, 1),
])
def test_bottom_values_are_bottom_k_eigenvalues(kind, L, N, k):
    dens = make_density(kind, 1, 0.5 if kind == "gaussian" else 1.0,
                        R=0.5 if kind == "tempered" else None)
    op = build_schrodinger(Grid(1, L, N), dens)
    np.testing.assert_array_equal(bottom_values(op, k), bottom_k(op, k).eigenvalues)


@pytest.mark.parametrize("kind, L, N", [("gaussian", 6.0, 200), ("tempered", 8.0, 320)])
def test_levels_at_most_counts_the_ladder(kind, L, N, banded_op):
    dens = make_density(kind, 1, 0.5 if kind == "gaussian" else 1.0,
                        R=0.5 if kind == "tempered" else None)
    op = build_schrodinger(Grid(1, L, N), dens)
    ev = np.linalg.eigvalsh(op.to_dense())
    mid = (ev[:-1] + ev[1:]) / 2.0  # between levels, bottom and top
    for s in (ev[0] - 1.0, *mid[:8], *mid[-3:], ev[-1] + 1.0, math.inf):
        assert levels_at_most(op, s) == np.count_nonzero(ev <= s)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ConfigError, match="bound must not be NaN or -inf"):
            levels_at_most(op, bad)
    d2 = build_schrodinger(Grid(2, 6.0, 40), make_density("gaussian", 2, 0.5))
    for other in (d2, banded_op):
        with pytest.raises(ConfigError, match="d = 1 SchrodingerOperator"):
            levels_at_most(other, 1.0)


def test_bottom_values_refuses_what_it_cannot_solve(gauss_half, banded_op):
    op = build_schrodinger(Grid(1, 6.0, 200), gauss_half)
    for k in (0, MAX_K + 1):
        with pytest.raises(ConfigError):
            bottom_values(op, k)
    d2 = build_schrodinger(Grid(2, 6.0, 40), make_density("gaussian", 2, 0.5))
    for other in (d2, banded_op):
        with pytest.raises(ConfigError, match="d = 1 SchrodingerOperator"):
            bottom_values(other, 2)


def test_sigma_monotone(banded_op):
    r = top_k(banded_op, 6)
    sigma = (1.0 - r.eigenvalues) / banded_op.h**2
    assert np.all(np.diff(sigma) >= -1e-12)


def test_lambda_one_stable_under_n_doubling(gauss_half):
    lam = [
        top_k(build_conjugated(Grid(1, 12.0, n), gauss_half, 0.25, scheme=MULTIPLIER), 2).eigenvalues
        for n in (800, 1600)
    ]
    assert abs(lam[0][1] - lam[1][1]) < 1e-8


def test_eigenvector_mass_localized(gauss_half):
    g = Grid(1, 12.0, 1920)
    r = top_k(build_conjugated(g, gauss_half, 0.25, scheme=MULTIPLIER), 4)
    outside = np.abs(g.axis_nodes()) > 8.0
    for j in range(4):
        v = r.eigenvectors[:, j]
        assert np.sum(v[outside] ** 2) / np.sum(v**2) < 1e-6


# --- failure modes ------------------------------------------------------------

def test_k_validation(banded_op):
    with pytest.raises(ConfigError):
        top_k(banded_op, 0)
    with pytest.raises(ConfigError):
        top_k(banded_op, MAX_K + 1)


def test_no_convergence_on_tiny_budget(gauss_half, monkeypatch):
    # top_k runs on ARPACK's default restart budget; cut it to 4 restarts.
    # A multiplier operator: a banded shift-invert solve converges within 4
    T = build_conjugated(_box_grid(gauss_half, 0.1), gauss_half, 0.1, scheme=MULTIPLIER)
    arpack = eigensolve.eigsh
    monkeypatch.setattr(eigensolve, "eigsh", lambda *a, **kw: arpack(*a, maxiter=4, **kw))
    with pytest.raises(NoConvergence):
        top_k(T, 5)


# --- inertia counts -----------------------------------------------------------

def _interval_count(op, a, b):
    """Eigenvalues in (a, b], as a difference of two inertia counts."""
    (lo, hi), = count_at_most([op], [a, b])[0]
    return int(hi - lo)


def test_count_matches_dense(banded_op):
    lam = np.linalg.eigvalsh(banded_op.to_dense())
    assert _interval_count(banded_op, 0.5, 0.95) == int(np.sum((lam > 0.5) & (lam <= 0.95)))


def test_count_half_open_at_exact_hits(banded_op):
    # a computed eigenvalue placed on a bound must resolve as (a, b]; the
    # counts are at s + eps (count_at_most's contract), and so is the
    # oracle, since lam_0 = 1 may round to either side of 1.0
    lam, eps = np.linalg.eigvalsh(banded_op.to_dense()), 1e-12
    hit = lam[-3]
    assert _interval_count(banded_op, hit, 1.0) == int(np.sum((lam > hit + eps) & (lam <= 1.0 + eps)))
    assert _interval_count(banded_op, 0.5, hit) == int(np.sum((lam > 0.5 + eps) & (lam <= hit + eps)))


def test_count_catches_top_eigenvalue_at_one(banded_op):
    # lam_0 = 1 up to last-bit rounding on either side; an interval ending
    # at 1.0 must still contain it
    r = top_k(banded_op, 2)
    mid = 0.5 * (1.0 + r.eigenvalues[1])
    assert _interval_count(banded_op, mid, 1.0) == 1


def test_count_interval_rejects_infinite_bounds(banded_op):
    for bad in ([-np.inf, 1.0], [0.5, np.inf], [np.nan], []):
        with pytest.raises(ConfigError):
            count_at_most([banded_op], bad)


def test_count_at_most_rejects_non_banded_operators(gauss_half):
    g = Grid(1, 9.0, 360)
    banded = build_conjugated(g, gauss_half, 0.25, scheme=BANDED)
    for op in (build_conjugated(g, gauss_half, 0.25, scheme=MULTIPLIER),
               build_markov(g, gauss_half, 0.25),
               build_schrodinger(g, gauss_half)):
        with pytest.raises(ConfigError, match="symmetric banded"):
            count_at_most([op], [0.5])
        with pytest.raises(ConfigError, match="symmetric banded"):
            count_at_most([banded, op], [0.5])
    for ops in ([], banded):  # no operator, or one not in a list
        with pytest.raises(ConfigError, match="symmetric banded"):
            count_at_most(ops, [0.5])


# --- multi-shift counts ---------------------------------------------------------

@pytest.mark.parametrize("h", [0.3, 0.2, 0.15])
def test_count_at_most_weyl_grid_matches_eigvals_banded(gauss_half, h):
    # the counting sweep's operators on the drivers' own grids: the sweep
    # counts every shift, and LAPACK's recount is never taken
    op = build_conjugated(_box_grid(gauss_half, h), gauss_half, h, scheme=BANDED)
    shifts = np.append(1.0 - np.linspace(0.10, 0.30, 9), 1.0)  # weyl_curve's
    ev = scipy.linalg.eigvals_banded(op.to_banded(), lower=True)
    (counts,), (flagged,) = count_at_most([op], shifts)
    assert not flagged.any()
    assert list(counts) == [int(np.sum(ev <= s + 1e-12)) for s in shifts]


def test_count_at_most_leaves_a_narrower_centre_unchecked(gauss_half):
    # a K = 9 operator batched with a K = 10 one carries a unit pivot past
    # its 9 x 9 centre block; at the shift 1e14 that pivot is below the
    # floor 1e-13 * (max|A| + 1e14), so it must not be checked
    ops = [build_conjugated(_box_grid(gauss_half, h), gauss_half, h, scheme=BANDED)
           for h in (0.35, 0.3)]
    assert [len(op.stencil) for op in ops] == [11, 10]
    counts, flagged = count_at_most(ops, [1e14])
    assert counts.tolist() == [[op.grid.size] for op in ops] and not flagged.any()


@pytest.mark.parametrize("h", [1.2, 1.9])
def test_count_at_most_on_a_half_no_wider_than_the_band(gauss_half, h):
    # 8 nodes at K = 4 and 7: M = 4 <= K, so the sweep takes no pivot and
    # the centre blocks are the whole halves (at K = 7, three eigenvalues
    # within 1e-16 of 0 sit inside eps of the shifts between them)
    op = build_conjugated(Grid(1, 1.0, 8), gauss_half, h, scheme=BANDED)
    assert len(op.stencil) - 1 >= op.grid.N // 2
    lam = np.linalg.eigvalsh(op.to_dense())
    shifts = np.concatenate([[lam[0] - 0.1], 0.5 * (lam[1:] + lam[:-1]), [lam[-1] + 0.1]])
    counts, flagged = count_at_most([op], shifts)
    assert not flagged.any()
    assert counts.tolist() == [[int(np.sum(lam <= s + 1e-12)) for s in shifts]]


def test_count_at_most_order_and_duplicates(gauss_half):
    op = build_conjugated(Grid(1, 9.0, 360), gauss_half, 0.25, scheme=BANDED)
    shifts = [0.95, 0.5, 0.95, 0.7, 0.5]
    (sorted_unique,), _ = count_at_most([op], [0.5, 0.7, 0.95])
    lookup = dict(zip([0.5, 0.7, 0.95], sorted_unique))
    assert list(count_at_most([op], shifts)[0][0]) == [lookup[s] for s in shifts]
    ev = np.linalg.eigvalsh(op.to_dense())
    assert list(sorted_unique) == [int(np.sum(ev <= s)) for s in (0.5, 0.7, 0.95)]


@pytest.mark.parametrize("N", [720, 360])
def test_count_at_most_forced_retry(gauss_half, N):
    # the nudged shift lands exactly on the first pivot A[0, 0]: the sweep
    # flags that shift alone, LAPACK counts it and its neighbours keep
    # their counts. On 360 nodes the off-diagonals (near 0.09) keep pivot
    # 0's multipliers past _GROWTH_CAP for any nudge of order 1e-12
    op = build_conjugated(Grid(1, 9.0, N), gauss_half, 0.25, scheme=BANDED)
    a00 = op.to_banded()[0, 0]
    s = a00 - 1e-12
    assert s + 1e-12 == a00
    (counts,), (flagged,) = count_at_most([op], [0.5, s, 0.95])
    assert flagged.sum() == 1
    (clean,), (clean_flagged,) = count_at_most([op], [0.5, 0.95])
    assert not clean_flagged.any()
    assert [counts[0], counts[2]] == list(clean)
    ev = np.linalg.eigvalsh(op.to_dense())
    assert list(counts) == [int(np.sum(ev <= t)) for t in (0.5, s, 0.95)]


def test_count_at_most_counts_a_shift_on_a_pivot(banded_op, monkeypatch):
    # with no nudge the shift sits exactly on the first pivot A[0, 0],
    # which is no eigenvalue of A: LAPACK counts the flagged shift
    monkeypatch.setattr(eigensolve, "_NUDGE", 0.0)
    a00 = banded_op.to_banded()[0, 0]
    ev = np.linalg.eigvalsh(banded_op.to_dense())
    assert np.min(np.abs(ev - a00)) > 1e-9
    counts, flagged = count_at_most([banded_op], [a00])
    assert flagged.sum() == 1
    assert counts.tolist() == [[int(np.sum(ev <= a00))]]


# --- the multi-shift sweep on its own -------------------------------------------

_CHUNK = eigensolve._SWEEP_CHUNK


def _dense(bands):
    """The symmetric matrix whose banded storage is bands[k, i] = A[i, i+k]."""
    Kb, n = bands.shape
    A = np.zeros((n, n))
    for k in range(min(Kb, n)):
        A += np.diag(bands[k, : n - k], k)
        if k:
            A += np.diag(bands[k, : n - k], -k)
    return A


def _bands(A, Kb):
    n = A.shape[0]
    bands = np.zeros((Kb, n))
    for k in range(min(Kb, n)):
        bands[k, : n - k] = np.diag(A, k)
    return bands


def _shifts_away(rng, lam, size):
    """size shifts across the spectrum, each at least 1e-3 from every eigenvalue."""
    s = rng.uniform(lam[0] - 1.0, lam[-1] + 1.0, 20 * size)
    far = s[np.min(np.abs(s[:, None] - lam), axis=1) > 1e-3][:size]
    assert far.size == size
    return far


def _inertia(neg, windows):
    """Negatives of A - s*I from the sweep's output: the leading pivots'
    plus those of the Schur complement they leave (Haynsworth)."""
    return neg + np.sum(np.linalg.eigvalsh(windows) < 0.0, axis=-1)


def _embedded(window, K):
    """A (..., k, k) window as the sweep gives it at the wider K: in the
    leading block, with the identity past it."""
    out = np.broadcast_to(np.eye(K), window.shape[:-2] + (K, K)).copy()
    k = window.shape[-1]
    out[..., :k, :k] = window
    return out


@pytest.mark.parametrize("Kb", [2, 3, 11, 25])
@pytest.mark.parametrize("n", [3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_ldl_sweep_matches_dense_across_chunk_edges(n, Kb):
    # a random indefinite band of n + K rows, so that the sweep takes n
    # steps and pivots of both signs meet every chunk edge: before the
    # first full chunk, on it, one past it, and in a ragged last chunk;
    # the window it leaves carries the last K rows' negatives
    rng = np.random.default_rng([n, Kb])
    bands = rng.standard_normal((Kb, n + Kb - 1))
    lam = np.linalg.eigvalsh(_dense(bands))
    for S in (1, 10):
        shifts = _shifts_away(rng, lam, S)
        neg, ok, windows = eigensolve._ldl_sweep([bands], shifts)
        assert ok.all() and windows.shape == (1, S, Kb - 1, Kb - 1)
        assert list(_inertia(neg, windows)[0]) == [int(np.sum(lam < s)) for s in shifts]


@pytest.mark.parametrize("Kb", [3, 11, 25])
def test_ldl_sweep_window_is_a_short_band_itself(Kb):
    # n <= K rows: no pivot is taken, and the window is A - s*I itself
    # with the identity past it, both when the sweep ends there and when
    # a longer band batched with it runs on past it
    rng = np.random.default_rng(Kb)
    K = Kb - 1
    long = rng.standard_normal((Kb, 3 * _CHUNK + K))
    for n in sorted({1, 2, K - 1, K}):
        short = rng.standard_normal((Kb, n))
        lams = [np.linalg.eigvalsh(_dense(b)) for b in (short, long)]
        shifts = _shifts_away(rng, np.sort(np.concatenate(lams)), 5)
        for batch in ([short], [short, long]):
            neg, ok, windows = eigensolve._ldl_sweep(batch, shifts)
            assert ok.all() and not neg[0].any()
            np.testing.assert_array_equal(
                windows[0], _embedded(_dense(short) - shifts[:, None, None] * np.eye(n), K))
            assert _inertia(neg, windows).tolist() == [
                [int(np.sum(lam < s)) for s in shifts] for lam in lams[: len(batch)]]


# a leading block of 3 chunks and a ragged 6 columns, and a column in its
# second chunk and one in its last
_N = 3 * _CHUNK + 6
_MIDDLE, _RAGGED = _CHUNK + 5, 3 * _CHUNK + 2


def _weak_band(seed, mirror=True):
    """A = diag(a) C diag(a), C a Toeplitz band with C[0] = 1 and ten
    off-diagonals near 1e-3, as a banded DiscreteOperator on 2 (_N + 10)
    nodes: with scales a that are mirror-symmetric (count_at_most takes
    it, and the sweep of its half takes _N steps), or drawn at random."""
    rng = np.random.default_rng(seed)
    stencil = np.append(1.0, 1e-3 * rng.uniform(-1.0, 1.0, 10))
    a = rng.uniform(0.5, 1.5, _N + 10)
    a = np.concatenate([a, a[::-1]]) if mirror else rng.uniform(0.5, 1.5, 2 * a.size)
    return DiscreteOperator(BANDED, Grid(1, 1.0, a.size), 0.5, stencil=stencil, lscale=a, rscale=a)


def _vanishing_shift(A, j):
    """mu, an eigenvalue of A's leading (j+1) x (j+1) block whose
    eigenvector weighs on coordinate j: pivot j of A - mu*I vanishes."""
    mus, vecs = np.linalg.eigh(A[: j + 1, : j + 1])
    return mus[np.argmax(np.abs(vecs[j]))]


def test_count_at_most_refuses_a_band_that_is_not_mirror_symmetric():
    op = _weak_band(0, mirror=False)
    with pytest.raises(ConfigError, match="mirror"):
        count_at_most([op], [0.5])
    with pytest.raises(ConfigError, match="mirror"):
        count_at_most([_weak_band(0), op], [0.5])


@pytest.mark.parametrize("j", [_MIDDLE, _RAGGED])
def test_late_vanishing_pivot_flags_only_its_shift(j):
    # mu makes pivot j of the half sweep vanish, a pivot that both halves
    # of the fold share
    op = _weak_band(j)
    A = op.to_dense()
    half, _ = eigensolve._mirror_fold(op.to_banded())
    assert half.shape == (11, _N + 10)
    lam = np.linalg.eigvalsh(A)
    mu = _vanishing_shift(_dense(half), j)
    assert np.min(np.abs(lam - mu)) > 1e-9
    below, above = lam[0] - 0.5, lam[-1] + 0.5
    (neg,), (ok,), _ = eigensolve._ldl_sweep([half], np.array([below, mu, above]))
    assert list(ok) == [True, False, True]
    assert [neg[0], neg[2]] == [0, _N]
    # count_at_most evaluates at s + eps, eps = 1e-12 * max(|shifts|, 1):
    # it lands on mu, is flagged, and LAPACK's eigenvalues count it
    s = mu - 1e-12 * max(abs(below), above, 1.0)
    counts, flagged = count_at_most([op], [below, s, above])
    assert flagged.tolist() == [[False, True, False]]
    assert counts.tolist() == [[0, int(np.sum(lam <= s)), A.shape[0]]]


def test_vanishing_centre_pivot_flags_only_its_shift():
    # mu, an eigenvalue of the leading (j+1) x (j+1) block of the even
    # half A_LL + C' for a row j of the centre block, passes the sweep and
    # makes pivot j - _N = 4 of S + C vanish: the centre blocks flag that
    # shift alone, and LAPACK counts it
    op = _weak_band(1)
    A = op.to_dense()
    half, C = eigensolve._mirror_fold(op.to_banded())
    even = _dense(half)
    even[_N:, _N:] += C
    mu = _vanishing_shift(even, _N + 4)
    lam = np.linalg.eigvalsh(A)
    assert np.min(np.abs(lam - mu)) > 1e-9
    below, above = lam[0] - 0.5, lam[-1] + 0.5
    assert eigensolve._ldl_sweep([half], np.array([below, mu, above]))[1].all()
    s = mu - 1e-12 * max(abs(below), above, 1.0)
    counts, flagged = count_at_most([op], [below, s, above])
    assert flagged.tolist() == [[False, True, False]]
    assert counts.tolist() == [[0, int(np.sum(lam <= s)), A.shape[0]]]


def test_centre_growth_alone_flags_only_its_pair(monkeypatch):
    # S +- C holds [[1e-11, 1], [1, 0]] on rows 1, 2 at the second shift:
    # its pivot 1e-11 is above the floor, but its multiplier is past
    # _GROWTH_CAP; each block has one negative eigenvalue
    S = np.eye(4)
    S[1:3, 1:3] = [[1e-11, 1.0], [1.0, 0.0]]
    windows = np.stack([np.eye(4), S])[None]
    counts = lambda: eigensolve._centre_counts(windows.copy(), [np.zeros((4, 4))],
                                               np.ones((1, 2)))
    neg, ok = counts()
    assert neg.tolist() == [[0, 2]] and ok.tolist() == [[True, False]]
    monkeypatch.setattr(eigensolve, "_GROWTH_CAP", np.inf)
    assert counts()[1].all()


def test_stopped_operator_runs_on_without_flagging(weyl_op):
    # mu makes pivot j of A_LL vanish for a row j of the centre block, a
    # pivot the sweep never takes: batched with a longer operator, the
    # sweep runs on past the stop, and the pair still passes
    half = eigensolve._mirror_fold(_weak_band(2).to_banded())[0]
    mu = _vanishing_shift(_dense(half), _N + 4)
    longer = eigensolve._mirror_fold(weyl_op.to_banded())[0]
    assert eigensolve._ldl_sweep([half, longer], np.array([mu]))[1].all()


@pytest.mark.parametrize("j", [_MIDDLE, _RAGGED])
def test_growth_alone_flags_only_its_shift(j, monkeypatch):
    # A - s*I holds the 2 x 2 block [[1e-11, 1], [1, 0]] at rows j, j + 1,
    # cut off from the rest: pivot j is 1e-11, above the floor, but its
    # multiplier is 1e11, past _GROWTH_CAP (_N + K rows: the sweep takes
    # _N steps)
    rng = np.random.default_rng(j)
    n, Kb, s = _N + 10, 11, 0.3
    A = _dense(rng.standard_normal((Kb, n)))
    A[j : j + 2, :] = A[:, j : j + 2] = 0.0
    A[j : j + 2, j : j + 2] = [[s + 1e-11, 1.0], [1.0, s]]
    bands = _bands(A, Kb)
    lam = np.linalg.eigvalsh(A)
    shifts = np.append(_shifts_away(rng, lam, 4), s)
    neg, (ok,), windows = eigensolve._ldl_sweep([bands], shifts)
    assert list(ok) == [True] * 4 + [False]
    assert list(_inertia(neg, windows)[0, :4]) == [int(np.sum(lam < t)) for t in shifts[:4]]
    monkeypatch.setattr(eigensolve, "_GROWTH_CAP", np.inf)
    assert eigensolve._ldl_sweep([bands], shifts)[1].all()


# --- one sweep over several operators -------------------------------------------

def _assert_batched_is_alone(bands, shifts):
    """The batched sweep gives each band's own pivots' negatives, pass
    mask and window, the window bit for bit inside the identity."""
    neg, ok, windows = eigensolve._ldl_sweep(bands, shifts)
    for o, b in enumerate(bands):
        (alone_neg,), (alone_ok,), (alone_window,) = eigensolve._ldl_sweep([b], shifts)
        np.testing.assert_array_equal(neg[o], alone_neg)
        np.testing.assert_array_equal(ok[o], alone_ok)
        np.testing.assert_array_equal(windows[o], _embedded(alone_window, windows.shape[-1]))
    return neg, ok, windows


def test_batched_sweep_matches_one_operator_at_a_time(gauss_half):
    # weyl_curve's operators of mixed n and K: the halves of 686 nodes at
    # K = 10, 800 and 1,600 at K = 9, batched in both orders
    ops = [build_conjugated(_box_grid(gauss_half, h), gauss_half, h, scheme=BANDED)
           for h in (0.35, 0.3, 0.15)]
    halves = [eigensolve._mirror_fold(op.to_banded())[0] for op in ops]
    assert [b.shape for b in halves] == [(11, 343), (10, 400), (10, 800)]
    shifts = np.append(1.0 - np.linspace(0.10, 0.30, 9), 1.0) + 1e-12  # weyl_curve's, nudged
    for order in (halves, halves[::-1]):
        _, ok, _ = _assert_batched_is_alone(order, shifts)
        assert ok.all()


def test_batched_sweep_pads_without_counting_or_flagging():
    # random indefinite bands shorter and longer, narrower and wider than
    # each other (one wider than its matrix), so that the sweep passes
    # operators' stops before its first step, inside it and at its end;
    # at the shift 0 a padded row of A - s*I would be all zero without
    # its unit diagonal, and at 1e14 that unit pivot, and the unit pivots
    # of a stopped operator, are below the pivot floor, so they must not
    # be checked
    rng = np.random.default_rng(11)
    bands = [rng.standard_normal(shape) for shape in [(2, 3), (11, 53), (25, 17), (3, _CHUNK)]]
    lams = [np.linalg.eigvalsh(_dense(b)) for b in bands]
    every = np.sort(np.concatenate(lams))
    shifts = np.append(_shifts_away(rng, every, 9), [0.0, 1e14])
    assert np.min(np.abs(every)) > 1e-3
    neg, ok, windows = _assert_batched_is_alone(bands, shifts)
    assert ok.all()
    assert _inertia(neg, windows).tolist() == [[int(np.sum(lam < s)) for s in shifts]
                                               for lam in lams]


@pytest.mark.parametrize("j", [_MIDDLE, _RAGGED])
def test_batched_sweep_flags_only_the_vanishing_pair(j, weyl_op, monkeypatch):
    # test_late_vanishing_pivot_flags_only_its_shift's operator, batched
    # with a longer, narrower Weyl operator: only its own (operator, shift)
    # pair is flagged, and LAPACK counts that operator alone, on its full band
    op = _weak_band(j)
    A = op.to_dense()
    lam = np.linalg.eigvalsh(A)
    half = eigensolve._mirror_fold(op.to_banded())[0]
    mu = _vanishing_shift(_dense(half), j)
    below, above = lam[0] - 0.5, lam[-1] + 0.5
    neg, ok, _ = eigensolve._ldl_sweep([half, eigensolve._mirror_fold(weyl_op.to_banded())[0]],
                                       np.array([below, mu, above]))
    assert ok.tolist() == [[True, False, True], [True, True, True]]
    assert [neg[0, 0], neg[0, 2]] == [0, _N]
    s = mu - 1e-12 * max(abs(below), above, 1.0)
    (alone,), _ = count_at_most([weyl_op], [below, s, above])
    recounted = []
    eigvals_banded = scipy.linalg.eigvals_banded
    monkeypatch.setattr(scipy.linalg, "eigvals_banded",
                        lambda b, **kw: recounted.append(b.shape) or eigvals_banded(b, **kw))
    (weak, weyl), flagged = count_at_most([op, weyl_op], [below, s, above])
    assert recounted == [(11, A.shape[0])]
    assert flagged.tolist() == [[False, True, False], [False, False, False]]
    assert list(weak) == [0, int(np.sum(lam <= s)), A.shape[0]]
    assert list(weyl) == list(alone)


def test_weyl_curve_sweeps_once(gauss_half, monkeypatch):
    # one sweep for the whole h list, of mixed K, over each operator's
    # mirror half, with each h's rows as its own weyl_curve gives them
    singles = [weyl_curve(gauss_half, [h]).rows for h in (0.35, 0.3)]
    sweeps = []
    sweep = eigensolve._ldl_sweep
    monkeypatch.setattr(eigensolve, "_ldl_sweep",
                        lambda bands, shifts: sweeps.append([b.shape for b in bands])
                        or sweep(bands, shifts))
    rep = weyl_curve(gauss_half, [0.35, 0.3])
    assert sweeps == [[(11, 343), (10, 400)]]
    assert rep.rows == singles[0] + singles[1]


def test_weyl_rows_equal_per_interval_counts(gauss_half, weyl_op):
    rep = weyl_curve(gauss_half, [0.3])
    assert [n for _, _, n, _ in rep.rows] == [
        _interval_count(weyl_op, 1.0 - lam, 1.0) for _, lam, _, _ in rep.rows
    ]


# --- serialization --------------------------------------------------------------

def test_eigen_result_json(banded_op):
    r = top_k(banded_op, 3)
    blob = json.loads(r.to_json())
    assert blob["method"] == "ARPACK"
    np.testing.assert_allclose(blob["eigenvalues"], r.eigenvalues)
    assert len(blob["residuals"]) == 3
    assert blob["grid"]["N"] == 720
    assert [tuple(c) for c in blob["clusters"]] == [
        (pytest.approx(v), s) for v, s in r.clusters
    ]



def test_eigen_result_json_carries_the_solve_cost(banded_op, gauss_half):
    # solves on the banded route, matvecs on the multiplier one
    T = build_conjugated(_box_grid(gauss_half, 0.5), gauss_half, 0.5, scheme=MULTIPLIER)
    for r in (top_k(T, 3), top_k(banded_op, 3)):
        blob = json.loads(r.to_json())
        assert blob["matvecs"] == r.matvecs > 0
    # Sturm bisection asks for neither
    blob = json.loads(bottom_k(build_schrodinger(Grid(1, 7.0, 70), gauss_half), 3).to_json())
    assert blob["matvecs"] == 0
