"""Ball-walk sampler, path-simulation and TV-bound tests.

The oracle for the Monte-Carlo paths is the exact grid evolution that
simulate_paths carries alongside them: the MC TV estimate must agree
with it to within a z-score gate from the reported standard error. The
exact evolution itself is checked against powers of the dense Markov
matrix, the nu_h quadratures against scipy.integrate.quad, the d = 2
one-step law's mean displacement against dblquad, and the stationary
sampler's moments against the grid chain's stationary vector.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import dblquad, quad

from ballwalk import walk
from ballwalk.densities import eval_density, make_density
from ballwalk.errors import ConfigError, RejectionBudgetExceeded, WitnessHypothesisViolated
from ballwalk.operators import _BLOCK_ROWS, BANDED, Grid, build_conjugated, build_markov
from ballwalk.walk import (
    TV_START_STRIDE,
    _TV_CHUNK_ROWS,
    WalkConfig,
    _agresti_coull_se,
    _evolve_tv,
    _step_batch,
    _tv_window,
    make_rng,
    nu_h_tail,
    p_tau,
    sample_stationary,
    simulate_paths,
    step_sample,
    tv_lower_bound_witness,
    tv_upper_bound_curve,
)

# Bonferroni over <= 100 horizons at a family-wise level of 1e-4
Z_GATE = 5.0


@pytest.fixture(scope="module")
def gauss_half():
    return make_density("gaussian", 1, 0.5)


@pytest.fixture(scope="module")
def tempered_half():
    return make_density("tempered", 1, 1.0, R=0.5)


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 12.0, 2400)  # delta = h/25 for h = 0.25


# From x0 = 2 the MC paths start at 2 while the grid chain starts at the
# nearest node, and a grid row reaches only h - delta/2 where the
# continuum ball reaches h, so about delta/(2h) of the n = 1 mass misses
# the witness set: an O(delta) offset of the grid chain, large at n = 1
# and a few SE at n = 2 with 20k paths. 10k paths keep n = 2 clear of
# the gate; a sampler with a biased envelope misses it by far.
@pytest.mark.parametrize("x0, paths", [(2.0, 10_000), (None, 20_000)])
def test_mc_tv_matches_exact(gauss_half, grid, x0, paths):
    cfg = WalkConfig(gauss_half, 0.25, x0=x0, paths=paths, n_max=100, seed=1)
    r = simulate_paths(cfg, grid)
    z = (r.tv_mc - r.tv_exact) / r.tv_mc_se
    assert np.max(np.abs(z[2:])) <= Z_GATE
    if x0 is not None:
        assert np.all(np.diff(r.tv_exact) <= 1e-12)


def test_tv_mc_se_at_the_edges(gauss_half, grid):
    n = 1000
    for emp in (0.0, 1.0):
        assert _agresti_coull_se(emp, n) >= 1.0 / (n + 4)
    # from a point start all paths share one cell at n = 0, so the share
    # inside the witness set is 0 or 1 (both give the same SE)
    r = simulate_paths(WalkConfig(gauss_half, 0.25, x0=2.0, paths=n, n_max=2), grid)
    assert r.tv_mc_se[0] == pytest.approx(_agresti_coull_se(1.0, n), rel=1e-12)


def test_paths_reject_grids_the_exact_curve_cannot_use(gauss_half):
    with pytest.raises(ConfigError, match="delta <= h/20"):
        simulate_paths(WalkConfig(gauss_half, 0.25, x0=1.0, paths=10, n_max=2), Grid(1, 8.0, 200))
    with pytest.raises(ConfigError, match="d = 1"):
        simulate_paths(WalkConfig(gauss_half, 0.25, x0=1.0, paths=10, n_max=2), Grid(2, 8.0, 40))


@pytest.mark.parametrize("x0", [20.0, -12.0, math.nan, math.inf])
def test_paths_reject_starts_off_the_box(gauss_half, grid, x0):
    # the chain lives on |x| < L: a start outside would pair paths from x0
    # with a chain from the wall node, and a NaN start never gets accepted
    with pytest.raises(ConfigError, match="x0"):
        simulate_paths(WalkConfig(gauss_half, 0.25, x0=x0, paths=10, n_max=2), grid)


def test_same_seed_bit_identical(gauss_half, grid):
    cfg = WalkConfig(gauss_half, 0.25, x0=None, paths=2000, n_max=10, seed=5)
    a, b = simulate_paths(cfg, grid), simulate_paths(cfg, grid)
    np.testing.assert_array_equal(a.final_positions, b.final_positions)
    np.testing.assert_array_equal(a.tv_mc, b.tv_mc)
    np.testing.assert_array_equal(a.tv_mc_se, b.tv_mc_se)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("dim,x", [
    (1, math.nan), (1, math.inf), (1, -math.inf),
    (2, [math.nan, 0.0]), (2, [0.5, math.inf]), (2, [-math.inf, math.nan]),
], ids=["nan", "inf", "-inf", "d2-nan", "d2-inf", "d2-both"])
def test_step_sample_rejects_non_finite_start(dim, x, monkeypatch):
    # from NaN no proposal is ever accepted, and from +-inf rho and its
    # envelope are both 0, so an infinite "step" passes the test 0 <= 0;
    # the small budget keeps a sampler that takes the point fast to fail
    monkeypatch.setattr(walk, "REJECTION_BUDGET", 1000)
    rng = make_rng(4)
    with pytest.raises(ConfigError, match="finite"):
        step_sample(make_density("gaussian", dim, 0.5), 0.25, x, rng)
    assert rng.uniform() == make_rng(4).uniform()  # no draw was made


def test_step_sample_d2_stays_in_ball():
    dens = make_density("gaussian", 2, 0.5)
    x, h = np.array([1.0, -0.5]), 0.4
    # rho peaks over the ball at radius |x| - h, the point nearest 0
    top = eval_density(dens, [np.linalg.norm(x) - h, 0.0])
    rng = make_rng(3)
    for _ in range(50):
        assert np.linalg.norm(step_sample(dens, h, x, rng) - x) <= h
        u = rng.uniform(-1.0, 1.0, size=2)
        assert eval_density(dens, x + h * u / max(1.0, np.linalg.norm(u))) <= top


def test_step_batch_d2_mean_displacement():
    # the one-step law t_h(x, dy) = 1_{|y-x|<h} rho(y) dy / m_h(x): its mean
    # displacement by dblquad against 20k batched draws from one point
    dens = make_density("gaussian", 2, 0.5)
    x, h, n = np.array([1.0, -0.5]), 0.4, 20_000
    y = _step_batch(dens, h, np.tile(x, (n, 1)), make_rng(11))
    d = y - x
    assert np.all(np.sum(d * d, axis=1) <= h * h)

    def ball(f):
        return dblquad(
            lambda v, u: f(u, v) * eval_density(dens, [x[0] + u, x[1] + v]),
            -h, h, lambda u: -math.sqrt(h * h - u * u), lambda u: math.sqrt(h * h - u * u),
            epsabs=0.0, epsrel=1e-10,
        )[0]

    m = ball(lambda u, v: 1.0)
    drift = [ball(lambda u, v: u) / m, ball(lambda u, v: v) / m]
    z = (d.mean(axis=0) - drift) / (d.std(axis=0) / math.sqrt(n))
    assert np.all(np.abs(z) <= Z_GATE)


def test_witness_hypothesis(gauss_half):
    h, tau, n = 0.25, 2.0, 10
    edge = tau + (n + 1) * h
    with pytest.raises(WitnessHypothesisViolated):
        tv_lower_bound_witness(gauss_half, h, edge - 0.01, tau, n)
    w = tv_lower_bound_witness(gauss_half, h, -edge, tau, n)
    assert 0.0 < w.value < 1.0


@pytest.mark.parametrize("x, tau, n", [(math.nan, 2.0, 10), (math.inf, 2.0, 10),
                                       (-math.inf, 2.0, 10), (6.0, -1.0, 3),
                                       (6.0, math.inf, 3), (6.0, math.nan, 3)],
                         ids=["nan", "inf", "-inf", "negative-tau", "inf-tau", "nan-tau"])
def test_witness_rejects_bad_inputs(gauss_half, x, tau, n):
    # |nan| < tau + (n+1)h is False: the hypothesis check alone lets NaN
    # through; tau < 0 counts the tail twice (nu_tail 1.84 at tau = -1);
    # tau = inf fails the hypothesis for every x, a ConfigError's case
    with pytest.raises(ConfigError, match="needs finite x and finite tau"):
        tv_lower_bound_witness(gauss_half, 0.25, x, tau, n)


@pytest.mark.parametrize("tau", [math.inf, math.nan], ids=["inf", "nan"])
def test_upper_bound_rejects_non_finite_tau(gauss_half, tempered_half, dense_grid, tau):
    # tau = inf starts a curve at every 4th node of the box, and its q
    # factor is inf (Gaussian) or 1/rho(inf) = 1/0 (tempered): the bound
    # was all NaN with c_fit = 0; tau = nan finds no start at all
    for dens in (gauss_half, tempered_half):
        with pytest.raises(ConfigError, match="finite tau"):
            tv_upper_bound_curve(dens, H_DENSE, tau, 20, dense_grid, 0.05)


# --- quadrature of nu_h -----------------------------------------------------

def _quad(f, a, b, kinks=()):
    pts = [p for p in kinks if a < p < b] or None
    return quad(f, a, b, points=pts, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _nu_tail_by_quad(dens, h, tau, cut=60.0):
    """nu_h(|y| >= tau) with the ball mass itself from an inner quad."""
    rho = lambda y: float(eval_density(dens, y))
    joints = (-dens.R, dens.R) if dens.kind == "tempered" else ()
    f = lambda x: rho(x) * _quad(rho, x - h, x + h, joints)
    kinks = (dens.R - h, dens.R, dens.R + h) if dens.kind == "tempered" else ()
    return _quad(f, tau, cut, kinks) / _quad(f, 0.0, cut, kinks)


@pytest.mark.parametrize("tau", [0.3, 2.0])
def test_nu_h_tail_against_quad(gauss_half, tempered_half, tau):
    for dens in (gauss_half, tempered_half):
        ref = _nu_tail_by_quad(dens, 0.25, tau)
        assert nu_h_tail(dens, 0.25, tau) == pytest.approx(ref, rel=1e-11)


def test_p_tau_tempered_against_quad(tempered_half):
    rho2 = lambda y: float(eval_density(tempered_half, y)) ** 2
    for tau in (0.3, 2.0):
        ref = 2.0 * _quad(rho2, tau, 60.0, (tempered_half.R,))
        assert p_tau(tempered_half, 0.25, tau) == pytest.approx(ref, rel=1e-11)


# --- exact grid evolution and the gap-rate upper bound -----------------------

H_DENSE = 0.5


@pytest.fixture(scope="module")
def dense_grid():
    return Grid(1, 8.0, 800)  # delta = h/25, inside the dense-assembly cap


def test_exact_tv_matches_dense_powers(gauss_half, dense_grid):
    # one start off the envelope's |x| < 1 window, evolved by _evolve_tv
    # and by simulate_paths, the two consumers of _evolve
    P = build_markov(dense_grid, gauss_half, H_DENSE)
    A, nu = P.to_dense(), P.meta["stationary"]
    i0 = int(np.argmin(np.abs(dense_grid.axis_nodes() - 1.3)))
    tv = _evolve_tv(P, [i0], 40)
    p = np.zeros(dense_grid.size)
    p[i0] = 1.0
    ref = []
    for _ in range(41):
        ref.append(0.5 * np.sum(np.abs(p - nu)))
        p = A.T @ p
    np.testing.assert_allclose(tv[:, 0], ref, rtol=0, atol=1e-13)
    assert np.all(np.diff(tv[:, 0]) <= 1e-12)  # TV to stationarity never grows
    paths = simulate_paths(WalkConfig(gauss_half, H_DENSE, x0=1.3, paths=200, n_max=40), dense_grid)
    np.testing.assert_allclose(paths.tv_exact, ref, rtol=0, atol=1e-13)
    still = simulate_paths(WalkConfig(gauss_half, H_DENSE, x0=None, paths=200, n_max=40), dense_grid)
    # nu is exactly stationary for the grid chain, so from it TV is exactly 0
    assert len(still.tv_exact) == 41 and np.all(still.tv_exact == 0)
    with pytest.raises(ConfigError):  # delta = h/6.25
        tv_upper_bound_curve(gauss_half, H_DENSE, 1.3, 5, Grid(1, 8.0, 200), 0.05)


@pytest.fixture(scope="module")
def dense_gap(gauss_half, dense_grid):
    """1 - lambda_1 of the grid chain, from LAPACK on the symmetric form."""
    T = build_conjugated(dense_grid, gauss_half, H_DENSE, scheme=BANDED)
    n = dense_grid.size
    lam = scipy.linalg.eigvals_banded(T.to_banded(), lower=True, select="i",
                                      select_range=(n - 2, n - 1))
    return 1.0 - lam[0]


def test_upper_bound_dominates_past_fit_window(gauss_half, dense_grid, dense_gap):
    rep = tv_upper_bound_curve(gauss_half, H_DENSE, 1.0, 60, dense_grid, dense_gap)
    fit = rep.fit_horizon
    assert fit == 30  # the early window n <= n_max // 2
    assert rep.dominated
    assert np.all(rep.envelope[fit + 1 :] <= rep.bound[fit + 1 :])
    # the constant is fitted on the window: the bound touches the envelope there
    assert np.max(rep.envelope[: fit + 1] / rep.bound[: fit + 1]) == pytest.approx(1.0)
    # a rate faster than the chain's own is caught past the window
    fast = tv_upper_bound_curve(gauss_half, H_DENSE, 1.0, 60, dense_grid, 3.0 * dense_gap)
    assert not fast.dominated


def test_upper_bound_envelope_matches_dense_powers(gauss_half, dense_grid, dense_gap):
    P = build_markov(dense_grid, gauss_half, H_DENSE)
    A, nu = P.to_dense(), P.meta["stationary"][:, None]
    starts = np.flatnonzero(np.abs(dense_grid.axis_nodes()) < 1.0)[::TV_START_STRIDE]
    p = np.zeros((dense_grid.size, starts.size))
    p[starts, np.arange(starts.size)] = 1.0
    ref = []
    for _ in range(61):
        ref.append(0.5 * np.sum(np.abs(p - nu), axis=0))
        p = A.T @ p
    ref = np.array(ref)
    # every start's curve, not only the envelope over them
    tv = _evolve_tv(P, starts, 60)
    np.testing.assert_allclose(tv, ref, rtol=0, atol=1e-13)
    assert np.all(np.diff(tv, axis=0) <= 1e-12)  # TV to stationarity never grows
    rep = tv_upper_bound_curve(gauss_half, H_DENSE, 1.0, 60, dense_grid, dense_gap)
    np.testing.assert_allclose(rep.envelope, ref.max(axis=1), rtol=0, atol=1e-13)


def test_tempered_tv_matches_dense_powers(tempered_half):
    # the evolution runs in e = (p - nu) / m, with the tempered mass falling
    # from the core to e^-8 at the walls; 810 nodes leave a ragged last block
    g = Grid(1, 8.0, 810)  # delta = h/25.3
    assert g.size % _BLOCK_ROWS != 0
    P = build_markov(g, tempered_half, H_DENSE)
    A, nu = P.to_dense(), P.meta["stationary"][:, None]
    starts = np.arange(0, g.size, 45)  # from the wall at -8 across the core to 7.1
    p = np.zeros((g.size, starts.size))
    p[starts, np.arange(starts.size)] = 1.0
    ref = []
    for _ in range(41):
        ref.append(0.5 * np.sum(np.abs(p - nu), axis=0))
        p = A.T @ p
    tv = _evolve_tv(P, starts, 40)
    np.testing.assert_allclose(tv, np.array(ref), rtol=0, atol=1e-13)


def test_tempered_chain_is_stochastic_and_stationary_on_the_wall_rows(tempered_half):
    # the tempered mass falls from the core to e^-8 at the walls, where a
    # mass that counted rho past the box would leave rows short of 1 and
    # nu off stationarity on the K rows at each wall
    g = Grid(1, 8.0, 810)
    P = build_markov(g, tempered_half, H_DENSE)
    A, m, nu = P.to_dense(), 1.0 / P.lscale, P.meta["stationary"]
    np.testing.assert_allclose(A.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    assert np.max(np.abs((nu @ A - nu) / m)) <= 1e-14 * np.max(nu / m)


def test_stationary_start_stays_stationary(gauss_half, grid):
    # nu is a fixed point of P^T (P with its scales swapped), which
    # _evolve runs, on every row of the 2,400-node box, so the banded
    # powers from nu itself keep TV at rounding for 200 steps
    P = build_markov(grid, gauss_half, 0.25)
    nu = P.meta["stationary"]
    PT = replace(P, lscale=P.rscale, rscale=P.lscale)
    tv = [0.5 * np.sum(np.abs(p[:, 0] - nu)) for p in PT.powers(nu[:, None], 200)]
    assert len(tv) == 201 and max(tv) <= 1e-15


def test_chunked_tv_matches_dense_powers(gauss_half):
    # the TV reduction runs over row chunks: 2,400 nodes are more than one
    # chunk and leave a ragged last one
    g = Grid(1, 12.0, 2400)
    assert g.size > _TV_CHUNK_ROWS and g.size % _TV_CHUNK_ROWS != 0
    P = build_markov(g, gauss_half, 0.25)
    A, nu = P.to_dense(), P.meta["stationary"][:, None]
    starts = np.linspace(0, g.size - 1, 7).astype(int)  # both walls and between
    p = np.zeros((g.size, starts.size))
    p[starts, np.arange(starts.size)] = 1.0
    ref = []
    for _ in range(21):
        ref.append(0.5 * np.sum(np.abs(p - nu), axis=0))
        p = A.T @ p
    np.testing.assert_allclose(_evolve_tv(P, starts, 20), np.array(ref), rtol=0, atol=1e-13)


@pytest.fixture(scope="module")
def mixing_chain(gauss_half, grid):
    """The chain and the 100 starts of tv_upper_bound_curve at h = 0.25,
    tau = 2 on the 2,400-node box (the mixing benchmark's inputs)."""
    P = build_markov(grid, gauss_half, 0.25)
    return P, np.flatnonzero(np.abs(grid.axis_nodes()) < 2.0)[::TV_START_STRIDE]


def test_trimmed_tv_matches_the_whole_box(mixing_chain):
    # _evolve_tv drops the rows where reversibility bounds |p_n - nu|
    # below 2^-65 in all (|x| > 7.58); the reference evolves the measures
    # p_n themselves on every row, by the banded powers the dense-powers
    # tests above check (200 dense products on 2,400 nodes take seconds)
    P, starts = mixing_chain
    assert starts.size == 100
    assert _tv_window(P, starts, 200)[0].grid.size <= 1600
    nu = P.meta["stationary"][:, None]
    PT = replace(P, lscale=P.rscale, rscale=P.lscale)
    p = np.zeros((P.grid.size, starts.size))
    p[starts, np.arange(starts.size)] = 1.0
    d = np.empty(p.shape)  # one scratch: a fresh (2400, 100) pair per step doubles the time
    ref = [0.5 * np.abs(np.subtract(q, nu, out=d), out=d).sum(axis=0) for q in PT.powers(p, 200)]
    np.testing.assert_allclose(_evolve_tv(P, starts, 200), np.array(ref), rtol=0, atol=1e-13)


def test_tv_window_keeps_the_box_it_cannot_bound(mixing_chain, tempered_half, grid):
    P, starts = mixing_chain
    for wall in (0, grid.size - 1):  # the window keeps every start
        assert _tv_window(P, np.append(starts, wall), 200)[0].grid.size == grid.size
    # the tempered tail: nu of the two wall rows alone is past the cut
    Pt = build_markov(grid, tempered_half, 0.25)
    assert _tv_window(Pt, starts, 200)[0].grid.size == grid.size


def test_tv_window_keeps_the_box_where_nu_underflows(gauss_half):
    # on the 30-wide box nu is 0 at |x| > 27.35: beta = 1 + 1/0 would cut
    # by 0 * inf = NaN, an invalid-value warning (an error here)
    g = Grid(1, 30.0, 600)
    P = build_markov(g, gauss_half, 0.5)
    starts = np.array([10, 300])
    assert P.meta["stationary"][10] == 0.0
    assert _tv_window(P, starts, 5)[0].grid.size == g.size
    tv = _evolve_tv(P, starts, 5)
    assert np.all(np.isfinite(tv)) and tv[0, 0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("kind", ["gaussian", "tempered"])
def test_witness_bounds_the_exact_curve_from_a_far_start(gauss_half, tempered_half, grid, kind):
    # finite speed: a step moves less than h, so for n <= n* =
    # ceil((|x0| - tau)/h) - 2 the chain from x0 = 6 has no mass in
    # |y| < tau and TV_n >= nu_grid(|y| < tau); the witness's quadrature
    # 1 - nu_h(|y| >= tau) must stay below the whole exact curve. nu(x0)
    # is tiny, so the TV window spans nearly the whole box.
    dens = gauss_half if kind == "gaussian" else tempered_half
    h, x0, tau = 0.25, 6.0, 2.0
    n_star = math.ceil((x0 - tau) / h) - 2
    assert n_star == 14
    P = build_markov(grid, dens, h)
    x = grid.axis_nodes()
    tv = _evolve_tv(P, [int(np.argmin(np.abs(x - x0)))], n_star)[:, 0]
    inner = np.sum(P.meta["stationary"][np.abs(x) < tau])
    witness = tv_lower_bound_witness(dens, h, x0, tau, n_star)
    assert tv.size == n_star + 1
    assert np.all(tv >= inner) and np.all(tv >= witness.value)


@pytest.mark.parametrize("dens, tau", [(make_density("gaussian", 1, 0.5), 40.0),
                                       (make_density("tempered", 1, 1.0, R=0.5), 800.0)],
                         ids=["gaussian", "tempered"])
def test_upper_bound_refuses_an_overflowing_q_before_evolving(dens, tau, monkeypatch):
    # q = e^{alpha tau (tau + 3h)} = e^{830} (Gaussian) or 1/(rho(800) sqrt(h))
    # with rho(800) = 0 (tempered): refused before the chain is built
    def no_chain(*args):
        raise AssertionError("build_markov ran before q was checked")

    monkeypatch.setattr(walk, "build_markov", no_chain)
    with pytest.raises(ConfigError, match="overflows"):
        tv_upper_bound_curve(dens, 0.5, tau, 20, Grid(1, 8.0, 800), 0.05)


def test_upper_bound_refuses_an_underflowing_shape_before_evolving(gauss_half, monkeypatch):
    # q e^{-g n} = e^{1.25 - 800 n} is 0 by n = 1, so the fit would divide
    # by zero on the window n <= 10: refused before the chain is built
    def no_chain(*args):
        raise AssertionError("build_markov ran before q e^{-g n} was checked")

    monkeypatch.setattr(walk, "build_markov", no_chain)
    with pytest.raises(ConfigError, match="underflows"):
        tv_upper_bound_curve(gauss_half, 0.5, 1.0, 20, Grid(1, 8.0, 800), 800.0)


@pytest.mark.parametrize("tau, h", [(1.0, 0.25), (3.0, 0.1)])
def test_q_factor_values(gauss_half, tempered_half, tau, h):
    # Gaussian: e^{alpha tau (tau + 3h)}, in any dimension
    for dens in (gauss_half, make_density("gaussian", 2, 1.5)):
        want = math.exp(dens.alpha * tau * (tau + 3.0 * h))
        assert walk.q_factor(dens, h, tau) == pytest.approx(want, rel=1e-14)
    # tempered (d = 1): 1 / (rho(tau) h^{1/2}), on the tail rho = beta e^{-alpha tau}
    want = 1.0 / (tempered_half.beta * math.exp(-tempered_half.alpha * tau) * math.sqrt(h))
    assert walk.q_factor(tempered_half, h, tau) == pytest.approx(want, rel=1e-14)


def test_upper_bound_rejects_tv_grids_it_cannot_evolve(gauss_half):
    with pytest.raises(ConfigError, match="delta <= h/20"):
        tv_upper_bound_curve(gauss_half, 0.25, 1.0, 20, Grid(1, 8.0, 200), 0.05)
    with pytest.raises(ConfigError, match="d = 1"):
        tv_upper_bound_curve(gauss_half, 0.25, 1.0, 20, Grid(2, 8.0, 40), 0.05)


def test_upper_bound_validation(gauss_half, dense_grid):
    with pytest.raises(ConfigError, match="n_max"):  # window n <= 0: no step to fit
        tv_upper_bound_curve(gauss_half, H_DENSE, 1.0, 1, dense_grid, 0.05)
    with pytest.raises(ConfigError):  # nearest nodes sit at +-delta/2 = 0.01
        tv_upper_bound_curve(gauss_half, H_DENSE, 0.005, 20, dense_grid, 0.05)


# --- stationary sampler ---------------------------------------------------------

def test_tempered_proposals_are_budgeted(monkeypatch):
    # the Laplace proposal accepts like e^{-3 alpha R / 8} in the core,
    # about 1.5e-8 at R = 48: without a budget this draw spins for minutes
    monkeypatch.setattr(walk, "REJECTION_BUDGET", 10**4)
    deep = make_density("tempered", 1, 1.0, R=48.0)
    with pytest.raises(RejectionBudgetExceeded):
        sample_stationary(deep, 0.25, make_rng(0), size=1)


def test_hopeless_tempered_density_refused_before_drawing():
    # the Laplace envelope accepts alpha / (2 beta) of its proposals, 1.08e-7
    # at R = 48: past the real budget the sampler refuses without a draw
    deep = make_density("tempered", 1, 1.0, R=48.0)
    assert 2.0 * deep.beta / deep.alpha > walk.REJECTION_BUDGET
    rng = make_rng(0)
    t0 = time.perf_counter()
    with pytest.raises(RejectionBudgetExceeded):
        sample_stationary(deep, 0.25, rng, size=1)
    assert time.perf_counter() - t0 < 1.0
    # the rng has not moved: its next draws are a fresh one's
    np.testing.assert_array_equal(rng.random(4), make_rng(0).random(4))


def test_stationary_budget_refuses_before_drawing(monkeypatch):
    # R = 8 passes the up-front check (2 beta / alpha = 6.8), but the first
    # chunk of 64 proposals is past a budget of 10 per draw
    monkeypatch.setattr(walk, "REJECTION_BUDGET", 10)
    well = make_density("tempered", 1, 1.0, R=8.0)
    assert 2.0 * well.beta / well.alpha <= walk.REJECTION_BUDGET
    rng = make_rng(0)
    with pytest.raises(RejectionBudgetExceeded, match="starved"):
        sample_stationary(well, 0.25, rng, size=1)
    np.testing.assert_array_equal(rng.random(4), make_rng(0).random(4))


def test_sample_stationary_moments(gauss_half, tempered_half):
    # second and fourth moments of 20k exact draws against the grid chain's
    # stationary vector (delta = h/25 on a box where rho is below 1e-12).
    # In the R = 8 well (rho(40)/rho(0) = 8.5e-17) the Laplace envelope
    # rejects most proposals before their ball mass is computed.
    h, n = 0.25, 20_000
    well = make_density("tempered", 1, 1.0, R=8.0)
    for dens, L in ((gauss_half, 12.0), (tempered_half, 30.0), (well, 40.0)):
        g = Grid(1, L, int(round(2 * L / (h / 25))))
        nu, x = build_markov(g, dens, h).meta["stationary"], g.axis_nodes()
        draws = sample_stationary(dens, h, make_rng(4), size=n)
        for k in (2, 4):
            z = (np.mean(draws**k) - nu @ x**k) / (np.std(draws**k) / math.sqrt(n))
            assert abs(z) <= Z_GATE
