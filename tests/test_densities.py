"""Density-family tests against independent quadrature and finite-difference
oracles (scipy.integrate.quad / dblquad, scipy.stats.ncx2, central
differences)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad
from scipy.stats import ncx2

from ballwalk.densities import (
    MASS_RTOL,
    Density,
    ball_mass_grid,
    eval_density,
    eval_potential,
    kappa_analytic,
    make_density,
    tempered_A_h,
    weight_a_h,
    _adaptive_gl,
    _adaptive_gl_batch,
    _mass_quadrature,
    _radius,
)
from ballwalk.errors import ConfigError, NumericalError, QuadratureNotConverged, WrongDensityKind
from ballwalk.multiplier import gamma_d
from ballwalk.operators import Grid


@pytest.fixture(scope="module")
def gauss_half():
    return make_density("gaussian", 1, 0.5)


@pytest.fixture(scope="module")
def gauss2d():
    return make_density("gaussian", 2, 1.0)


@pytest.fixture(scope="module")
def tempered_unit():
    return make_density("tempered", 1, 1.0, R=1.0)


# --- construction and closed forms ---------------------------------------

def test_construction_validation():
    with pytest.raises(ConfigError):
        make_density("lognormal", 1, 1.0)
    with pytest.raises(ConfigError):
        make_density("gaussian", 3, 1.0)
    with pytest.raises(ConfigError):
        make_density("gaussian", 1, -1.0)
    with pytest.raises(ConfigError):
        make_density("tempered", 1, 1.0)  # missing R
    with pytest.raises(ConfigError):
        make_density("tempered", 2, 1.0, R=1.0)
    with pytest.raises(ConfigError):
        make_density("gaussian", 1, 1.0, R=2.0)


def test_gaussian_pointwise(gauss_half):
    assert eval_density(gauss_half, 0.0) == pytest.approx(
        math.sqrt(1.0 / (2.0 * math.pi)), rel=1e-15
    )
    ratio = eval_density(gauss_half, 2.0) / eval_density(gauss_half, 0.0)
    assert ratio == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_tempered_tail_is_pure_exponential(tempered_unit):
    ratio = eval_density(tempered_unit, 3.0) / eval_density(tempered_unit, 2.0)
    assert ratio == pytest.approx(math.exp(-1.0), rel=1e-14)
    # exponent equals |x| exactly outside the core
    lhs = eval_density(tempered_unit, 5.0)
    rhs = tempered_unit.beta * math.exp(-5.0)
    assert lhs == pytest.approx(rhs, rel=1e-15)


def test_normalization_by_independent_quadrature(gauss_half, gauss2d, tempered_unit):
    n1, _ = quad(lambda x: eval_density(gauss_half, x), -np.inf, np.inf)
    assert abs(n1 - 1.0) < 1e-8
    core, _ = quad(lambda x: eval_density(tempered_unit, x), -1.0, 1.0, limit=200)
    tail, _ = quad(lambda x: eval_density(tempered_unit, x), 1.0, np.inf)
    assert abs(core + 2.0 * tail - 1.0) < 1e-8
    n2, _ = quad(
        lambda r: 2.0 * math.pi * r * eval_density(gauss2d, [r, 0.0]), 0, np.inf
    )
    assert abs(n2 - 1.0) < 1e-8


def test_gaussian_potential_closed_form(gauss_half, gauss2d):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-6, 6, size=100)
    a = gauss_half.alpha
    assert np.allclose(
        eval_potential(gauss_half, xs), 4 * a * a * xs * xs - 2 * a, atol=1e-13
    )
    pts = rng.uniform(-3, 3, size=(100, 2))
    r2 = np.sum(pts * pts, axis=-1)
    assert np.allclose(eval_potential(gauss2d, pts), 4 * r2 - 4, atol=1e-12)


def test_potential_matches_fd_laplacian(gauss_half, tempered_unit):
    # V = (Delta rho)/rho by 5-point central differences, both families
    eps = 1e-3
    for dens, pts in ((gauss_half, [0.0, 0.7, 2.5]), (tempered_unit, [0.0, 0.4, 2.0, 4.0])):
        for x in pts:
            stencil = np.array([x - 2 * eps, x - eps, x, x + eps, x + 2 * eps])
            rho = eval_density(dens, stencil)
            lap = (-rho[0] + 16 * rho[1] - 30 * rho[2] + 16 * rho[3] - rho[4]) / (
                12 * eps * eps
            )
            assert abs(lap / rho[2] - eval_potential(dens, x)) < 1e-6


def test_tempered_tail_potential_and_kappa(tempered_unit):
    for x in (1.5, 3.0, 8.0):
        assert eval_potential(tempered_unit, x) == pytest.approx(1.0, abs=1e-14)
    assert kappa_analytic(tempered_unit) == 1.0
    assert eval_potential(tempered_unit, 0.0) == pytest.approx(-1.5, abs=1e-14)
    assert math.isinf(kappa_analytic(make_density("gaussian", 1, 1.0)))


def test_tempered_c2_joint(tempered_unit):
    # value, slope, and V (which carries s'') are continuous across |x| = R;
    # jumps would show up as O(1) differences, continuity as O(eps)
    eps = 1e-6
    lo, hi = eval_density(tempered_unit, 1.0 - eps), eval_density(tempered_unit, 1.0 + eps)
    assert abs(hi - lo) < 3.0 * eps  # ~ 2 eps |rho'|
    slope_lo = (eval_density(tempered_unit, 1.0 - eps) - eval_density(tempered_unit, 1.0 - 3 * eps)) / (2 * eps)
    slope_hi = (eval_density(tempered_unit, 1.0 + 3 * eps) - eval_density(tempered_unit, 1.0 + eps)) / (2 * eps)
    assert abs(slope_hi - slope_lo) < 3.0 * eps
    v_lo = eval_potential(tempered_unit, 1.0 - eps)
    v_hi = eval_potential(tempered_unit, 1.0 + eps)
    assert abs(v_hi - v_lo) < 10.0 * eps  # s''' jump makes V Lipschitz, not C^1


def test_tempered_log_derivative_bound(tempered_unit):
    # |rho'| <= alpha * rho everywhere (|s'| <= 1)
    xs = np.linspace(-6, 6, 400)
    eps = 1e-6
    d = (eval_density(tempered_unit, xs + eps) - eval_density(tempered_unit, xs - eps)) / (2 * eps)
    assert np.all(np.abs(d) <= tempered_unit.alpha * eval_density(tempered_unit, xs) * (1 + 1e-8))


# --- ball mass -------------------------------------------------------------

def test_ball_mass_frozen_example(gauss_half):
    # integral of (2 pi)^{-1/2} e^{-y^2/2} over [-0.25, 0.25]
    m = ball_mass_grid(gauss_half, 0.0, 0.25)
    assert m == pytest.approx(0.19741265136584746, rel=1e-12)
    oracle, _ = quad(
        lambda y: eval_density(gauss_half, y), -0.25, 0.25, epsabs=1e-14, epsrel=1e-14
    )
    assert m == pytest.approx(oracle, rel=1e-11)


@pytest.mark.parametrize("h", [1e-4, 1e-3, 1e-2])
def test_ball_mass_gaussian_erfc_small_h(gauss_half, h):
    # rounding sqrt(alpha)(|x| -+ h) costs about eps |x| / (2h) relative in
    # the erfc difference; at h = 1e-4 that is ~1e-11, inside MASS_RTOL
    xs = np.linspace(0.0, 10.0, 81)
    m = ball_mass_grid(gauss_half, xs, h)
    for x, mx in zip(xs, m):
        oracle, _ = quad(
            lambda y: eval_density(gauss_half, y), x - h, x + h, epsabs=0.0, epsrel=1e-13
        )
        assert abs(mx - oracle) <= MASS_RTOL * oracle


def test_ball_mass_tempered_against_quad(tempered_unit):
    for x, h in ((0.0, 0.3), (0.9, 0.25), (1.05, 0.2), (4.0, 0.5)):
        m = ball_mass_grid(tempered_unit, x, h)
        oracle, _ = quad(
            lambda y: eval_density(tempered_unit, y), x - h, x + h,
            points=[-1.0, 1.0] if x - h < 1.0 < x + h else None,
            epsabs=1e-14, epsrel=1e-13,
        )
        assert m == pytest.approx(oracle, rel=1e-10)


def test_ball_mass_tempered_tail_identity(tempered_unit):
    # pure-tail mass is rho * 2 sinh(alpha h)/alpha exactly
    for x, h in ((1.3, 0.3), (5.0, 0.2), (9.0, 0.4)):
        expected = eval_density(tempered_unit, x) * 2.0 * math.sinh(h) / 1.0
        assert ball_mass_grid(tempered_unit, x, h) == pytest.approx(expected, rel=1e-13)


def test_ball_mass_2d_against_disk_quadrature(gauss2d):
    h = 0.4
    for r0 in (0.0, 0.7, 1.3, 2.5):
        m = ball_mass_grid(gauss2d, [r0, 0.0], h)
        oracle, _ = dblquad(
            lambda y, x: eval_density(gauss2d, [x, y]),
            r0 - h, r0 + h,
            lambda x: -math.sqrt(max(h * h - (x - r0) ** 2, 0.0)),
            lambda x: math.sqrt(max(h * h - (x - r0) ** 2, 0.0)),
            epsabs=1e-12, epsrel=1e-11,
        )
        assert m == pytest.approx(oracle, rel=1e-8)


def test_ball_mass_small_h_limit(gauss_half, tempered_unit):
    # m_h / (alpha_d h^d rho) -> 1
    for dens, x in ((gauss_half, 0.6), (tempered_unit, 0.3)):
        ratios = []
        for h in (0.1, 0.05, 0.025):
            ratios.append(ball_mass_grid(dens, x, h) / (2 * h * float(eval_density(dens, x))))
        assert abs(ratios[-1] - 1.0) < 1e-3
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


def test_gauss_mass_ratio_grows(gauss_half):
    # m_h/(h rho) grows without bound in the tail
    vals = [
        ball_mass_grid(gauss_half, x, 0.25) / (0.25 * float(eval_density(gauss_half, x)))
        for x in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mass_lower_bound_constant(gauss_half, tempered_unit):
    # m_h >= C h^d rho with a strictly positive fitted C on a wide grid
    h = 0.25
    for dens in (gauss_half, tempered_unit):
        xs = np.linspace(-10, 10, 81)
        c = np.min(ball_mass_grid(dens, xs, h) / (h * eval_density(dens, xs)))
        assert c > 1.9  # near alpha_1 = 2 for these decaying densities


def test_grid_path_matches_pointwise(gauss_half, tempered_unit):
    h = 0.25
    xs = np.linspace(-11.0, 11.0, 57)
    for dens in (gauss_half, tempered_unit):
        grid = ball_mass_grid(dens, xs, h)
        point = np.array([ball_mass_grid(dens, x, h) for x in xs])
        assert np.max(np.abs(grid - point) / point) < 1e-12


def test_grid_path_single_point_is_scalar(gauss_half, tempered_unit):
    # a lone d = 1 point gives a scalar on both families, on either side
    # of the tempered closed-form shell
    for dens in (gauss_half, tempered_unit):
        for x in (0.3, -0.1, 4.0):
            m = ball_mass_grid(dens, x, 0.25)
            assert np.ndim(m) == 0
            assert m == pytest.approx(ball_mass_grid(dens, np.array([x]), 0.25)[0], rel=1e-12)


def test_grid_path_d2_rows_match_pointwise(gauss2d):
    pts = np.array([[0.0, 0.0], [0.7, -0.2], [2.5, 1.0]])
    point = [ball_mass_grid(gauss2d, p, 0.4) for p in pts]
    np.testing.assert_array_equal(ball_mass_grid(gauss2d, pts, 0.4), point)


def test_grid_path_single_point_is_scalar_d2(gauss2d):
    m = ball_mass_grid(gauss2d, [0.3, 0.1], 0.4)
    assert np.ndim(m) == 0
    assert m == ball_mass_grid(gauss2d, np.array([[0.3, 0.1]]), 0.4)[0]


def test_grid_path_dedup_is_exact(gauss2d, tempered_unit):
    # one quadrature row per distinct radius gives the same bits as one
    # row per point, since the rows of the batch are independent
    x = Grid(2, 8.0, 96).nodes()
    r = _radius(gauss2d, x)
    assert np.unique(r).size < r.size // 4
    np.testing.assert_array_equal(
        ball_mass_grid(gauss2d, x, 0.5), _mass_quadrature(gauss2d, r, 0.5)
    )
    # d = 1 tempered core: repeats and +-x pairs, some straddling |x| = R
    xs = np.array([0.0, 0.3, -0.3, 0.3, 1.1, -1.1, 0.0, -0.7, 0.7, 1.1])
    h = 0.25
    assert np.all(np.abs(xs) < tempered_unit.R + h)
    np.testing.assert_array_equal(
        ball_mass_grid(tempered_unit, xs, h), _mass_quadrature(tempered_unit, np.abs(xs), h)
    )


def test_grid_path_output_shapes(gauss_half, tempered_unit, gauss2d):
    x1 = np.linspace(-3.0, 3.0, 12).reshape(4, 3)
    for dens in (gauss_half, tempered_unit):
        assert ball_mass_grid(dens, x1, 0.25).shape == (4, 3)
        assert np.ndim(ball_mass_grid(dens, 0.5, 0.25)) == 0
    x2 = np.random.default_rng(0).uniform(-2.0, 2.0, (5, 7, 2))
    assert ball_mass_grid(gauss2d, x2, 0.4).shape == (5, 7)


def test_quadrature_failure_raises():
    with pytest.raises(QuadratureNotConverged):
        _adaptive_gl(lambda t: 1.0 / np.sqrt(np.abs(t) + 1e-300), 0.0, 1.0, rel_tol=1e-14)
    # one row with the same endpoint singularity fails a batch of smooth rows
    power = np.array([0.0, 0.5, 0.0])
    with pytest.raises(QuadratureNotConverged):
        _adaptive_gl_batch(
            lambda rows, t: (np.abs(t) + 1e-300) ** -power[rows, None],
            np.zeros(3), np.ones(3), rel_tol=1e-14,
        )


@pytest.mark.parametrize("L, N, alpha, h", [(8.0, 96, 1.0, 0.5), (12.0, 128, 0.5, 0.3)])
def test_grid_path_d2_against_ncx2(L, N, alpha, h):
    # 2 alpha |Y - x|^2 is noncentral chi^2_2 with noncentrality 2 alpha |x|^2
    # for Y ~ rho, so m_h(x) is its CDF at 2 alpha h^2; ncx2 underflows to 0
    # in the far corners, so compare where the mass is representable there
    x = Grid(2, L, N).nodes()
    m = ball_mass_grid(make_density("gaussian", 2, alpha), x, h)
    oracle = ncx2.cdf(2.0 * alpha * h * h, 2, 2.0 * alpha * np.sum(x * x, axis=-1))
    keep = m > 1e-40
    assert keep.sum() > 0.8 * m.size
    assert np.max(np.abs(m[keep] - oracle[keep]) / oracle[keep]) < 1e-12


def test_grid_path_tempered_core_against_quad(tempered_unit):
    # every ball that meets the smoothed core, many straddling |x| = R = 1
    h = 0.3
    xs = np.linspace(-1.29, 1.29, 44)
    m = ball_mass_grid(tempered_unit, xs, h)
    for x, mx in zip(xs, m):
        lo, hi = x - h, x + h
        oracle, _ = quad(
            lambda y: eval_density(tempered_unit, y), lo, hi,
            points=[p for p in (-1.0, 1.0) if lo < p < hi] or None,
            epsabs=1e-14, epsrel=1e-13,
        )
        assert mx == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("h", [0.0, -0.25, math.nan, math.inf])
def test_grid_path_rejects_nonpositive_h(gauss_half, tempered_unit, gauss2d, h):
    for dens, x in (
        (gauss_half, np.array([0.0, 1.0])),
        (tempered_unit, np.array([0.0, 1.0, 4.0])),
        (gauss2d, np.array([[0.0, 0.0], [1.0, 0.5]])),
    ):
        with pytest.raises(ConfigError, match="h must be finite and positive"):
            ball_mass_grid(dens, x, h)


# --- weights and tail constants -------------------------------------------

def test_weight_on_plateau():
    # a slow core (large R) is locally flat, so a_h is 1 up to O((h/R)^2)
    plateau = make_density("tempered", 1, 1.0, R=50.0)
    assert abs(weight_a_h(plateau, 0.0, 0.1) - 1.0) < 1e-4


def test_weight_frozen_example(gauss_half):
    m = ball_mass_grid(gauss_half, 0.0, 0.25)
    expected = math.sqrt(2 * 0.25 * float(eval_density(gauss_half, 0.0)) / m)
    assert weight_a_h(gauss_half, 0.0, 0.25) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("dens, x", [
    (make_density("gaussian", 1, 0.5), np.linspace(-10.0, 10.0, 41)),
    (make_density("tempered", 1, 1.0, R=1.0), np.linspace(-4.0, 4.0, 33)),
    (make_density("gaussian", 2, 1.0), np.array([[0.0, 0.0], [0.7, -0.2], [2.5, 1.0], [-4.0, 3.0]])),
], ids=["gaussian", "tempered", "gaussian_d2"])
def test_weight_on_arrays_matches_points(dens, x):
    # one batched call gives each point's own value, bit for bit, across
    # the erfc, tempered closed-form/core and d = 2 quadrature mass routes
    h = 0.25
    batch = weight_a_h(dens, x, h)
    assert batch.shape == (len(x),)
    np.testing.assert_array_equal(batch, [weight_a_h(dens, p, h) for p in x])


def test_gaussian_weight_decays_monotonically(gauss_half):
    vals = [weight_a_h(gauss_half, x, 0.25) for x in (2.0, 3.0, 4.0, 6.0, 8.0, 10.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_tempered_weight_expansion(tempered_unit):
    # a_h^2 = 1 - gamma_d h^2 V + O(h^4) away from the C^2 joints;
    # at the joints the s''' jump costs an O(h^3) term with constant
    # near jump/48 = 1/16
    g = gamma_d(1)
    for h in (0.2, 0.1):
        xs = [x for x in np.linspace(0, 3, 61) if abs(x - 1.0) > h + 0.02]
        resid = [
            abs(weight_a_h(tempered_unit, x, h) ** 2 - 1.0 + g * h * h * eval_potential(tempered_unit, x))
            for x in xs
        ]
        assert max(resid) < 0.12 * h**4
        at_joint = abs(
            weight_a_h(tempered_unit, 1.0, h) ** 2 - 1.0 + g * h * h * eval_potential(tempered_unit, 1.0)
        )
        assert at_joint < 0.1 * h**3


def test_gaussian_inverse_weight_expansion(gauss_half):
    # a_h^{-2} = 1 + h^2 V / (2(d+2)) + O(|x|^4 h^4) on |x| <= 2
    fits = {}
    for h in (0.1, 0.05):
        cs = []
        for x in np.linspace(0.25, 2.0, 15):
            inv = 1.0 / weight_a_h(gauss_half, x, h) ** 2
            resid = abs(inv - 1.0 - h * h * eval_potential(gauss_half, x) / 6.0)
            cs.append(resid / (x**4 * h**4))
        fits[h] = max(cs)
        assert fits[h] < 8.0
    # quartic scaling: the fitted constant is h-stable
    assert fits[0.05] < 1.1 * fits[0.1]


def test_gaussian_inverse_weight_lower_bounds(gauss_half):
    # a_h^{-2} >= max(1 + C h^2 x^2, C e^{h x}) past the V > 0 radius,
    # with the best-fit C above a 0.05 floor
    h = 0.25
    c1, c2 = [], []
    for x in np.linspace(1.5, 8.0, 14):
        inv = 1.0 / weight_a_h(gauss_half, x, h) ** 2
        c1.append((inv - 1.0) / (h * h * x * x))
        c2.append(inv / math.exp(h * x))
    assert min(min(c1), min(c2)) > 0.05


def test_tempered_potential_is_kappa_on_the_tail(tempered_unit):
    # past the core V = alpha^2 s'^2 - alpha s'' is the constant alpha^2 = 1
    v = eval_potential(tempered_unit, [1.25, 2.0, 5.0, 9.0])
    np.testing.assert_allclose(v, 1.0, rtol=0, atol=1e-12)


def test_gaussian_tail_weight_decays(gauss_half):
    # no essential band: the limsup of a_h^2 trends toward 0
    near = np.max(weight_a_h(gauss_half, np.array([2.0, 3.0]), 0.25) ** 2)
    far = np.max(weight_a_h(gauss_half, np.array([6.0, 8.0]), 0.25) ** 2)
    assert far < near


def test_weight_refuses_underflowed_mass(gauss_half):
    # at |x| = 40 rho and m_h are both exactly 0 for alpha = 0.5, so a_h
    # would be 0/0; the weight refuses it, typed
    with pytest.raises(NumericalError, match="underflow"):
        weight_a_h(gauss_half, 40.0, 0.25)


def test_exact_A_h_rejects_gaussian(gauss_half):
    with pytest.raises(WrongDensityKind):
        tempered_A_h(gauss_half, 0.2)


def test_exact_A_h_second_order_residual():
    # |A_h - 1 + kappa gamma h^2| / h^4 stays in the narrow analytic window
    # around the sinh quartic term 7/360 over the whole sweep
    dens = make_density("tempered", 1, 1.0, R=0.5)
    kg = kappa_analytic(dens) * gamma_d(1)
    for h in (0.4, 0.3, 0.2, 0.15):
        r = abs(tempered_A_h(dens, h) - (1.0 - kg * h**2))
        assert 0.0185 <= r / h**4 <= 0.0200


# --- properties --------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=-10, max_value=10),
    h=st.floats(min_value=0.05, max_value=1.0),
)
def test_mass_in_unit_interval(x, h):
    dens = make_density("tempered", 1, 1.0, R=1.0)
    m = ball_mass_grid(dens, x, h)
    assert 0.0 < m <= 1.0
    assert weight_a_h(dens, x, h) > 0.0


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=1.5, max_value=20.0),
    h=st.floats(min_value=0.05, max_value=0.5),
)
def test_tail_weight_is_constant(x, h):
    dens = make_density("tempered", 1, 1.0, R=1.0)
    if x < dens.R + h:
        return
    a2 = weight_a_h(dens, x, h) ** 2
    assert a2 == pytest.approx(tempered_A_h(dens, h), rel=1e-12)
