"""Eigensolver tests against dense references.

Everything here is checked twice over: once through the matvec-only
ARPACK/bisection paths under test, once through numpy's eigh on the
assembled matrix. Multiplicities of degenerate levels are checked
against the known level structure, since ARPACK finds repeated
eigenvalues through rounding rather than by construction.
"""

import json

import numpy as np
import pytest
import scipy.linalg

from ballwalk import eigensolve
from ballwalk.analysis import LAMBDA_ZERO_TOL, _box_grid, weyl_curve
from ballwalk.densities import eval_potential, make_density
from ballwalk.eigensolve import (
    CLUSTER_RTOL,
    MAX_K,
    RESIDUAL_RTOL,
    EigenResult,
    bottom_k,
    count_at_most,
    dense_reference,
    top_k,
)
from ballwalk.errors import ConfigError, NoConvergence, ShiftHitsEigenvalue
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


# ARPACK stops at RESIDUAL_RTOL / 100, not machine precision, and repeated
# eigenvalues still come out of it only through rounding; these pin the
# multiplicities and the residual margin that the earlier stop must keep

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
    assert r.method == "ARPACK"
    np.testing.assert_allclose(r.eigenvalues, ref, rtol=0, atol=1e-9)
    sizes = [s for _, s in r.clusters]
    assert sizes == list(np.unique(ref, return_counts=True)[1]) == [1, 2, 2, 1]
    assert np.all(r.residuals <= RESIDUAL_RTOL / 10 * np.max(np.abs(r.eigenvalues)))


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


def test_no_convergence_on_tiny_budget(banded_op, monkeypatch):
    # top_k runs on ARPACK's default restart budget; cut it to 4 restarts
    arpack = eigensolve.eigsh
    monkeypatch.setattr(eigensolve, "eigsh", lambda *a, **kw: arpack(*a, maxiter=4, **kw))
    with pytest.raises(NoConvergence):
        top_k(banded_op, 5)


# --- inertia counts -----------------------------------------------------------

def _interval_count(op, a, b):
    """Eigenvalues in (a, b], as a difference of two inertia counts."""
    lo, hi = count_at_most(op, [a, b]).counts
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
            count_at_most(banded_op, bad)


def test_count_at_most_rejects_non_banded_operators(gauss_half):
    g = Grid(1, 9.0, 360)
    for op in (build_conjugated(g, gauss_half, 0.25, scheme=MULTIPLIER),
               build_markov(g, gauss_half, 0.25),
               build_schrodinger(g, gauss_half)):
        with pytest.raises(ConfigError, match="symmetric banded"):
            count_at_most(op, [0.5])


# --- multi-shift counts ---------------------------------------------------------

def test_count_at_most_weyl_grid_matches_eigvals_banded(weyl_op):
    shifts = np.append(1.0 - np.linspace(0.10, 0.30, 9), 1.0)  # weyl_curve's
    ev = scipy.linalg.eigvals_banded(weyl_op.to_banded(), lower=True)
    r = count_at_most(weyl_op, shifts)
    assert r.retries == 0
    assert list(r.counts) == [int(np.sum(ev <= s + 1e-12)) for s in shifts]


def test_count_at_most_order_and_duplicates(gauss_half):
    op = build_conjugated(Grid(1, 9.0, 360), gauss_half, 0.25, scheme=BANDED)
    shifts = [0.95, 0.5, 0.95, 0.7, 0.5]
    sorted_unique = count_at_most(op, [0.5, 0.7, 0.95]).counts
    lookup = dict(zip([0.5, 0.7, 0.95], sorted_unique))
    assert list(count_at_most(op, shifts).counts) == [lookup[s] for s in shifts]
    ev = np.linalg.eigvalsh(op.to_dense())
    assert list(sorted_unique) == [int(np.sum(ev <= s)) for s in (0.5, 0.7, 0.95)]


def test_count_at_most_forced_retry(banded_op):
    # the nudged shift lands exactly on the first pivot A[0, 0]: that
    # shift alone is swept again and its neighbours keep their counts
    a00 = banded_op.to_banded()[0, 0]
    s = a00 - 1e-12
    assert s + 1e-12 == a00
    r = count_at_most(banded_op, [0.5, s, 0.95])
    assert r.retries >= 1
    clean = count_at_most(banded_op, [0.5, 0.95])
    assert clean.retries == 0
    assert [r.counts[0], r.counts[2]] == list(clean.counts)
    ev = np.linalg.eigvalsh(banded_op.to_dense())
    assert r.counts[1] == int(np.sum(ev <= s))


def test_count_at_most_gives_up_after_retries(banded_op, monkeypatch):
    # with no nudge every retry sweeps the same shift, which sits exactly on
    # the first pivot A[0, 0]: the retries run out and the shift is named
    monkeypatch.setattr(eigensolve, "_NUDGE", 0.0)
    a00 = banded_op.to_banded()[0, 0]
    with pytest.raises(ShiftHitsEigenvalue, match="after 3 retries") as err:
        count_at_most(banded_op, [a00])
    assert str(np.array([a00])) in str(err.value)


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

