"""Spectral-analysis report tests: the report logic itself (fits, flags,
guards) and the reference levels. The fixed box and lambda sweep of
the reports are module constants; the guard tests move them with
monkeypatch.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from ballwalk import analysis
from ballwalk.analysis import (
    essential_band,
    mu_reference,
    spectral_gap,
    verify_asymptotics,
    weyl_curve,
)
from ballwalk.densities import MASS_RTOL, eval_potential, make_density, tempered_A_h
from ballwalk.eigensolve import bottom_values, count_at_most
from ballwalk.errors import ConfigError, InsufficientHPoints, WrongDensityKind
from ballwalk.operators import BANDED, Grid, build_conjugated

H_SWEEP = [0.5, 0.35, 0.25, 0.18]


@pytest.fixture(scope="module")
def gauss_half():
    return make_density("gaussian", 1, 0.5)


@pytest.fixture(scope="module")
def tempered_unit():
    return make_density("tempered", 1, 1.0, R=0.5)


@pytest.fixture(scope="module")
def asym(gauss_half):
    return verify_asymptotics(gauss_half, 3, H_SWEEP)


# --- reference levels ---------------------------------------------------------

def test_mu_reference_gaussian_closed_form(gauss_half):
    np.testing.assert_array_equal(mu_reference(gauss_half, 3), [0.0, 2.0, 4.0, 6.0])
    g2 = make_density("gaussian", 2, 1.0)
    np.testing.assert_array_equal(mu_reference(g2, 3), [0.0, 4.0, 4.0, 8.0])
    # level 4 alpha m of the d = 2 oscillator holds m + 1 states
    np.testing.assert_array_equal(mu_reference(g2, 9), [0, 4, 4, 8, 8, 8, 12, 12, 12, 12])


def test_mu_reference_tempered_deep_well():
    deep = make_density("tempered", 1, 1.0, R=8.0)
    mu = mu_reference(deep, 3)
    # wide quartic core: four levels below the tail curvature kappa = 1
    np.testing.assert_allclose(mu, [0.0, 0.35769, 0.67525, 0.92946], atol=2e-4)
    assert np.all(mu < 1.0)


@pytest.mark.parametrize("k_max", [-1, 1.5, "1", [1]])
@pytest.mark.parametrize("kind", ["gaussian", "tempered"])
def test_mu_reference_refuses_bad_k_max(kind, k_max):
    density = make_density(kind, 1, 1.0, R=0.5 if kind == "tempered" else None)
    with pytest.raises(ConfigError, match="k_max"):
        mu_reference(density, k_max)


# --- asymptotics report ---------------------------------------------------------

def test_asymptotics_passes(asym):
    assert asym.passed
    assert np.all(asym.orders >= 3.5)
    np.testing.assert_allclose(asym.eigenvalues[:, 0], 1.0, atol=1e-6)
    # residuals shrink monotonically along the descending h sweep
    for k in range(1, 4):
        assert np.all(np.diff(asym.residuals[:, k]) < 0)
    np.testing.assert_allclose(asym.gaps, 1.0 - asym.eigenvalues[:, 1], atol=0)


def test_asymptotics_prediction_structure(asym):
    # predicted table is exactly 1 - gamma mu_k h^2
    h2 = asym.h_values[:, None] ** 2
    np.testing.assert_allclose(
        asym.predicted, 1.0 - asym.gamma * h2 * asym.mu[None, :], atol=0
    )
    assert asym.gamma == pytest.approx(1.0 / 6.0)


def test_order_fit_stability(gauss_half, asym):
    dropped = verify_asymptotics(gauss_half, 3, H_SWEEP[1:])
    assert np.max(np.abs(asym.orders - dropped.orders)) < 0.3


def test_asymptotics_fails_on_wrong_reference_levels(gauss_half, asym, monkeypatch):
    # mu_1..mu_3 off by 0.02 leave an h^2 term in every residual: the
    # fitted orders fall below ORDER_MIN and the report must fail
    mu_reference = analysis.mu_reference
    monkeypatch.setattr(analysis, "mu_reference",
                        lambda d, k: mu_reference(d, k) + np.r_[0.0, [0.02] * k])
    rep = verify_asymptotics(gauss_half, 3, H_SWEEP)
    assert not rep.passed
    assert np.all(rep.orders < asym.orders)
    assert rep.orders.min() < analysis.ORDER_MIN


def test_cross_theorem_single_constant(gauss_half):
    # one h^4 constant per k, stable across the sweep, bounded overall
    rep = verify_asymptotics(gauss_half, 4, H_SWEEP)
    for k in range(1, 5):
        ratio = rep.residuals[:, k] / rep.h_values**4
        assert ratio.max() / ratio.min() < 2.5
    assert np.max(rep.residuals / rep.h_values[:, None] ** 4) < 2.0


def test_asymptotics_validation(gauss_half):
    with pytest.raises(InsufficientHPoints):
        verify_asymptotics(gauss_half, 2, [0.5, 0.25])
    with pytest.raises(ConfigError):
        verify_asymptotics(gauss_half, 2, [0.25, 0.35, 0.5])  # ascending


def test_asymptotics_needs_a_level_to_fit(gauss_half):
    # k_max = 0 leaves only lambda_0: no order to fit and no gap column
    with pytest.raises(ConfigError, match="k_max"):
        verify_asymptotics(gauss_half, 0, H_SWEEP)


@pytest.mark.parametrize("k_max", [1.5, "1", [1]])
def test_asymptotics_refuses_a_k_max_that_is_not_an_integer(gauss_half, k_max):
    with pytest.raises(ConfigError, match="k_max must be an integer"):
        verify_asymptotics(gauss_half, k_max, H_SWEEP)


@pytest.fixture
def tight_d2_box(monkeypatch):
    # a d = 2 box barely wider than the taper buffer (5 at alpha = 1), on
    # a coarse grid: the ground value degrades to lambda_0 = 0.9943 at
    # h = 0.5, and a report must refuse rather than fit garbage
    monkeypatch.setattr(analysis, "BOX_L", 5.5)
    monkeypatch.setattr(analysis, "GRID_RULE", 3)
    return make_density("gaussian", 2, 1.0)


def test_asymptotics_guards_lambda_zero(tight_d2_box):
    with pytest.raises(ConfigError, match="lambda_0"):
        verify_asymptotics(tight_d2_box, 1, [0.5, 0.35, 0.25])


def test_gap_guards_lambda_zero(tight_d2_box):
    # a gap read off that grid would be the taper's, not the operator's
    with pytest.raises(ConfigError, match="lambda_0"):
        spectral_gap(tight_d2_box, 0.5)


def test_banded_lambda_zero_holds_on_a_tight_box(gauss_half, monkeypatch):
    # the d = 1 banded chain has no taper: lambda_0 = 1 even on the box
    # the multiplier scheme was refused on (1 - 3.7e-3 at h = 0.25)
    monkeypatch.setattr(analysis, "BOX_L", 7.5)
    for h in (0.5, 0.35, 0.25):
        assert abs(analysis._top_levels(gauss_half, h, 2).eigenvalues[0] - 1.0) <= 1e-13
    assert verify_asymptotics(gauss_half, 1, [0.5, 0.35, 0.25]).eigenvalues.shape == (3, 2)


# every driver refuses an h outside (0, inf) up front, with one message
@pytest.mark.parametrize("h", [0.0, -0.2, math.nan, math.inf])
@pytest.mark.parametrize("driver", [
    lambda g, t, h: verify_asymptotics(g, 3, [0.5, 0.35, h]),
    lambda g, t, h: spectral_gap(g, h),
    lambda g, t, h: weyl_curve(g, [0.3, h]),
    lambda g, t, h: essential_band(t, h),
], ids=["verify_asymptotics", "spectral_gap", "weyl_curve", "essential_band"])
def test_drivers_refuse_bad_h(driver, h, gauss_half, tempered_unit):
    with pytest.raises(ConfigError, match="h must be finite and positive"):
        driver(gauss_half, tempered_unit, h)


def test_asymptotics_json_roundtrip(asym):
    blob = json.loads(asym.to_json())
    assert blob["passed"] is True
    np.testing.assert_allclose(blob["orders"], asym.orders)
    assert len(blob["eigenvalues"]) == len(H_SWEEP)


def test_solve_costs_json_roundtrip(asym, gauss_half):
    blob = json.loads(asym.to_json())
    assert blob["matvecs"] == asym.matvecs
    assert len(asym.matvecs) == len(H_SWEEP) and min(asym.matvecs) > 0
    rep = spectral_gap(gauss_half, 0.25)
    blob = json.loads(rep.to_json())
    assert blob["matvecs"] == rep.matvecs > 0


# the tempered alpha = 0.5 tail was too slow for the multiplier taper on
# BOX_L = 12 (lambda_0 = 0.99995 at h = 0.4); the banded chain runs it
@pytest.mark.parametrize("h, n", [(0.4, 600), (0.25, 960)])
def test_gap_runs_a_slow_tempered_tail(h, n):
    density = make_density("tempered", 1, 0.5, R=0.5)
    op = build_conjugated(analysis._box_grid(density, h), density, h, scheme=BANDED)
    assert op.grid.size == n
    lam = np.linalg.eigvalsh(op.to_dense())[::-1][:2]
    lam_0 = analysis._top_levels(density, h, 2).eigenvalues[0]
    assert lam_0 == pytest.approx(1.0, rel=0, abs=1e-13)
    rep = spectral_gap(density, h)
    assert rep.lambda_1 == pytest.approx(lam[1], rel=0, abs=1e-12)
    assert 0.0 < rep.comparison < rep.gap < 1.0


# --- essential band ---------------------------------------------------------------

def test_band_report_tempered(tempered_unit):
    rep = essential_band(tempered_unit, 0.2)
    assert not rep.compact
    assert rep.A_h == pytest.approx(0.2 / math.sinh(0.2), rel=1e-14)
    assert rep.A_h_probe == pytest.approx(rep.A_h, abs=1e-9)
    assert rep.band[0] < 0 < rep.band[1] <= 1.0
    assert rep.band[0] == pytest.approx(rep.M * rep.A_h, rel=1e-14)
    assert rep.kappa == 1.0
    assert rep.passed


def test_band_report_gaussian_compact(gauss_half):
    rep = essential_band(gauss_half, 0.2)
    assert rep.compact
    assert rep.band == ()
    assert math.isnan(rep.A_h)


@pytest.mark.parametrize("alpha, h", [(4.0, 1.0), (2.0, 2.0)])
def test_band_gate_reads_the_tail_quadrature(alpha, h):
    # the probes' 2 h rho / m_h meet the closed form alpha h / sinh(alpha h)
    # well inside the quadrature tolerance, also where the h^2 series is poor
    rep = essential_band(make_density("tempered", 1, alpha, R=0.5), h)
    assert rep.passed
    assert abs(rep.A_h_probe - rep.A_h) <= 1e-13 * rep.A_h


def test_band_gate_fails_on_a_wrong_mass(tempered_unit, monkeypatch):
    # masses off by twice MASS_RTOL move every probe outside the gate
    quad = analysis._mass_quadrature
    monkeypatch.setattr(analysis, "_mass_quadrature",
                        lambda d, r, h: quad(d, r, h) * (1.0 + 2.0 * MASS_RTOL))
    rep = essential_band(tempered_unit, 0.2)
    assert not rep.passed
    assert rep.A_h == 0.2 / math.sinh(0.2)


def test_band_json(tempered_unit):
    blob = json.loads(essential_band(tempered_unit, 0.2).to_json())
    assert blob["compact"] is False
    assert blob["passed"] is True
    assert len(blob["band"]) == 2


# --- Weyl curve -------------------------------------------------------------------

def test_weyl_curve_exponent(gauss_half):
    rep = weyl_curve(gauss_half, [0.3, 0.2, 0.15])
    assert rep.passed
    assert rep.exponent <= 1.3
    assert 0.8 <= rep.exponent  # counting does grow: not a degenerate fit
    assert rep.c_dominating < 10.0
    counts = {(h, lam): n for h, lam, n, _ in rep.rows}
    # monotone in lambda at fixed h
    for h in (0.3, 0.2, 0.15):
        ns = [n for (hh, _), n in sorted(counts.items()) if hh == h]
        assert ns == sorted(ns)


@pytest.fixture(scope="module")
def weyl_family():
    """70 banded T-tilde, Gaussian and tempered, over weyl_curve's h range
    and two boxes."""
    dens = [make_density("gaussian", 1, a) for a in (0.25, 0.5, 1.0, 2.0)]
    dens += [make_density("tempered", 1, 1.0, R=R) for R in (0.1, 0.5, 8.0)]
    ops = [build_conjugated(Grid(1, L, analysis._even_grid(L, h, analysis.GRID_RULE)), d, h)
           for d in dens for h in (0.5, 0.3, 0.2, 0.15, 0.1) for L in (6.0, 12.0)]
    assert len(ops) == 70 and all(op.scheme == BANDED for op in ops)
    return ops


def test_weyl_count_at_one_is_every_node(weyl_family):
    # weyl_curve reads N(lambda, h) as n minus the count at 1 - lambda,
    # because the banded T-tilde is similar to a row-stochastic matrix:
    # #{lambda <= 1} is n on every operator of the family, in one sweep
    counts, _ = count_at_most(weyl_family, [1.0])
    assert counts[:, 0].tolist() == [op.grid.size for op in weyl_family]


def test_weyl_family_counts_match_eigvals_banded(weyl_family, monkeypatch):
    # the mirror fold against LAPACK's eigenvalues of each full band, at
    # 41 shifts across [-0.25, 1]: the counts are the strict negatives of
    # A - (s + eps)I, eps = 1e-12. The pairs the fold flags (the shift 0
    # on 57 operators) are recounted from the same eigenvalues, served
    # from the oracle's so that LAPACK runs once per operator
    shifts = np.linspace(-0.25, 1.0, 41)
    bands = [op.to_banded() for op in weyl_family]
    eigenvalues = [scipy.linalg.eigvals_banded(b, lower=True) for b in bands]
    served = {b.tobytes(): ev for b, ev in zip(bands, eigenvalues)}
    monkeypatch.setattr(scipy.linalg, "eigvals_banded", lambda b, **kw: served[b.tobytes()])
    counts, flagged = count_at_most(weyl_family, shifts)
    assert counts.tolist() == [np.searchsorted(ev, shifts + 1e-12, side="left").tolist()
                               for ev in eigenvalues]
    assert not flagged[:, shifts != 0.0].any()


def test_weyl_below_gap_counts_one(gauss_half, monkeypatch):
    monkeypatch.setattr(analysis, "WEYL_LAMBDAS", (0.01,))
    rep = weyl_curve(gauss_half, [0.25])
    assert [n for _, _, n, _ in rep.rows] == [1]


def test_weyl_one_abscissa_has_no_exponent(gauss_half, monkeypatch):
    # one point fixes no slope: the least-squares min-norm answer 0 is
    # not a measured exponent and must not pass
    monkeypatch.setattr(analysis, "WEYL_LAMBDAS", (0.01,))
    rep = weyl_curve(gauss_half, [0.25])
    assert math.isnan(rep.exponent)
    assert not rep.passed


def test_weyl_json(gauss_half):
    rep = weyl_curve(gauss_half, [0.3])
    blob = json.loads(rep.to_json())
    assert blob["retries"] == rep.retries == 0
    assert blob["passed"] is rep.passed
    assert blob["rows"] == [[h, lam, n, s] for h, lam, n, s in rep.rows]


def test_weyl_validation(gauss_half, tempered_unit):
    with pytest.raises(WrongDensityKind):
        weyl_curve(tempered_unit, [0.2])


def test_weyl_needs_an_h(gauss_half):
    with pytest.raises(ConfigError, match="at least one h"):
        weyl_curve(gauss_half, [])


def test_weyl_nothing_counted_reports_nan(gauss_half, monkeypatch):
    # lambda = 0 counts the empty window (1, 1]: no abscissa has N >= 1, so
    # neither the exponent nor the dominating constant is measured
    monkeypatch.setattr(analysis, "WEYL_LAMBDAS", (0.0,))
    rep = weyl_curve(gauss_half, [0.3])
    assert [n for _, _, n, _ in rep.rows] == [0]
    assert math.isnan(rep.exponent) and math.isnan(rep.c_dominating)
    assert not rep.passed


# --- spectral gap -----------------------------------------------------------------

def test_gap_matches_h2_scale(gauss_half):
    rep = spectral_gap(gauss_half, 0.25)
    assert 0.0 < rep.gap < 1.0
    assert rep.gap / (0.25**2 / 3.0) == pytest.approx(1.0, abs=0.1)
    assert rep.comparison == pytest.approx(0.25**2 / 3.0, rel=1e-12)


def test_gap_quarters_when_h_halves(gauss_half):
    g1 = spectral_gap(gauss_half, 0.2).gap
    g2 = spectral_gap(gauss_half, 0.1).gap
    assert g1 / g2 == pytest.approx(4.0, rel=0.15)


def test_gap_comparison_value(gauss_half, tempered_unit):
    # gaussian: min picks mu_1, so the comparison is the leading term of g
    # itself and overshoots it by the O(h^4) eigenvalue correction
    rep = spectral_gap(gauss_half, 0.25)
    assert rep.comparison / rep.gap == pytest.approx(1.0, abs=0.02)
    # tempered: min picks the (1-alpha) kappa floor, far below the gap
    rep = spectral_gap(tempered_unit, 0.25)
    assert rep.comparison == pytest.approx(0.25**2 / 6.0 * 0.1, rel=1e-12)
    assert rep.gap > rep.comparison


def test_gap_skips_the_ladder_above_the_floor(tempered_unit, monkeypatch):
    # mu_1 = 1.015 lies far above the 0.1 kappa floor: the coarse screen
    # settles the min, and the Richardson pair is never solved
    expected = spectral_gap(tempered_unit, 0.25).comparison

    def no_ladder(*args):
        raise AssertionError("reference ladder solved")

    monkeypatch.setattr(analysis, "mu_reference", no_ladder)
    assert spectral_gap(tempered_unit, 0.25).comparison == expected


# the screen counts the coarse ladder's levels up to the margin; the
# decision must be the one its two bottom levels give
@pytest.mark.parametrize("alpha_cfg", [0.5, 0.9])
@pytest.mark.parametrize("alpha, R", [(0.5, 0.5), (1.0, 0.5), (1.0, 8.0), (2.0, 0.1)])
def test_gap_screen_decides_as_the_coarse_levels_do(alpha, R, alpha_cfg, monkeypatch):
    density = make_density("tempered", 1, alpha, R=R)
    monkeypatch.setattr(analysis, "ALPHA_CFG", alpha_cfg)
    floor = (1.0 - alpha_cfg) * alpha**2
    mu_1 = bottom_values(analysis._ladder_op(density, analysis.MU_DELTAS[0]), 2)[1]
    below = mu_1 <= floor * (1.0 + analysis.MU_1_MARGIN)
    level = min(float(mu_reference(density, 1)[1]), floor) if below else floor
    solved = []
    monkeypatch.setattr(analysis, "mu_reference", lambda *a: solved.append(a) or mu_reference(*a))
    assert spectral_gap(density, 0.25).comparison == 0.25**2 / 6.0 * level
    assert len(solved) == below  # the Richardson pair runs only below the margin


@pytest.mark.parametrize("alpha, R", [(0.5, 0.5), (1.0, 0.5), (1.0, 8.0), (2.0, 0.1)])
def test_gap_screen_counts_on_the_ladder_diagonals(alpha, R, monkeypatch):
    # the screen counts on the coarser ladder operator's line, whose two
    # diagonals are 2/delta^2 + V and -1/delta^2 to the bit
    density = make_density("tempered", 1, alpha, R=R)
    grid = analysis._ladder_grid(density, analysis.MU_DELTAS[0])
    seen, count = [], analysis.levels_at_most
    monkeypatch.setattr(analysis, "levels_at_most", lambda op, b: seen.append(op) or count(op, b))
    monkeypatch.setattr(analysis, "mu_reference", lambda *a: np.zeros(2))
    analysis._mu_1_if_below(density, 0.1 * alpha**2)
    [op] = seen
    assert op.grid == grid
    d, e = op.line()
    np.testing.assert_array_equal(d, 2.0 / grid.delta**2 + eval_potential(density, grid.nodes()))
    np.testing.assert_array_equal(e, np.full(grid.N - 1, -1.0 / grid.delta**2))


@pytest.mark.parametrize("alpha_cfg", [0.5, 0.64, 0.643, 0.9])
def test_gap_comparison_is_the_full_min(alpha_cfg, monkeypatch):
    # R = 8 has mu_1 = 0.3577: floors of 0.5, 0.36 (mu_1 below them),
    # 0.357 (within the screen's margin) and 0.1 (clear of it)
    deep = make_density("tempered", 1, 1.0, R=8.0)
    monkeypatch.setattr(analysis, "ALPHA_CFG", alpha_cfg)
    floor = (1.0 - alpha_cfg) * 1.0
    full = 0.25**2 / 6.0 * min(float(mu_reference(deep, 1)[1]), floor)
    assert spectral_gap(deep, 0.25).comparison == full
