"""Spectral-analysis report tests: the report logic itself (fits, flags,
guards) and the reference levels. The fixed box and lambda sweep of
the reports are module constants; the guard tests move them with
monkeypatch.
"""

import json
import math

import numpy as np
import pytest

from ballwalk import analysis, eigensolve
from ballwalk.analysis import (
    essential_band,
    mu_reference,
    spectral_gap,
    verify_asymptotics,
    weyl_curve,
)
from ballwalk.densities import make_density, tempered_A_h
from ballwalk.errors import ConfigError, InsufficientHPoints, WrongDensityKind

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


def test_asymptotics_guards_lambda_zero(gauss_half, monkeypatch):
    # box barely wider than the taper buffer: ground value degrades and
    # the report must refuse rather than fit garbage
    monkeypatch.setattr(analysis, "BOX_L", 7.5)
    with pytest.raises(ConfigError):
        verify_asymptotics(gauss_half, 1, [0.5, 0.35, 0.25])


def test_gap_guards_lambda_zero(gauss_half, monkeypatch):
    # the same too-tight box: lambda_0 = 1 - 3.7e-3 at h = 0.25, and a gap
    # read off that grid would be the taper's, not the operator's
    monkeypatch.setattr(analysis, "BOX_L", 7.5)
    with pytest.raises(ConfigError, match="lambda_0"):
        spectral_gap(gauss_half, 0.25)


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


def test_twin_start_leaves_the_asymptotics_unchanged(asym, gauss_half, monkeypatch):
    monkeypatch.setattr(eigensolve, "_twin_start", lambda *args: None)  # seeded start
    seeded = verify_asymptotics(gauss_half, 3, H_SWEEP)
    np.testing.assert_allclose(asym.eigenvalues, seeded.eigenvalues, rtol=0, atol=1e-13)
    np.testing.assert_allclose(asym.orders, seeded.orders, rtol=0, atol=1e-9)
    assert asym.passed == seeded.passed
    assert sum(asym.matvecs) < sum(seeded.matvecs)


# the two gap calls of the spectral bench workload
@pytest.mark.parametrize("kind, h", [("gaussian", 0.1), ("tempered", 0.25)])
def test_twin_start_leaves_the_gap_unchanged(kind, h, gauss_half, tempered_unit, monkeypatch):
    density = gauss_half if kind == "gaussian" else tempered_unit
    rep = spectral_gap(density, h)
    monkeypatch.setattr(eigensolve, "_twin_start", lambda *args: None)
    seeded = spectral_gap(density, h)
    assert rep.lambda_1 == pytest.approx(seeded.lambda_1, rel=0, abs=1e-13)
    assert rep.gap == pytest.approx(seeded.gap, rel=0, abs=1e-13)
    assert rep.comparison == seeded.comparison
    assert rep.matvecs < seeded.matvecs


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
    # the tail expansion constant: |A_h - 1 + kappa h^2/6| / h^4 -> 7/360
    assert rep.c_fit == pytest.approx(7.0 / 360.0, rel=0.05)


def test_band_report_gaussian_compact(gauss_half):
    rep = essential_band(gauss_half, 0.2)
    assert rep.compact
    assert rep.band == ()
    assert math.isnan(rep.A_h)


def test_band_lemma_residual_gate(tempered_unit):
    # |A_h - 1 + kappa gamma h^2| / h^4 stays in the narrow analytic window
    # around the sinh quartic term 7/360 over the whole sweep
    resid = essential_band(tempered_unit, 0.2).lemma_residuals
    assert sorted(resid) == [0.15, 0.2, 0.3, 0.4]
    for h, r in resid.items():
        assert 0.0185 <= r / h**4 <= 0.0200


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


@pytest.mark.parametrize("alpha_cfg", [0.5, 0.64, 0.643, 0.9])
def test_gap_comparison_is_the_full_min(alpha_cfg, monkeypatch):
    # R = 8 has mu_1 = 0.3577: floors of 0.5, 0.36 (mu_1 below them),
    # 0.357 (within the screen's margin) and 0.1 (clear of it)
    deep = make_density("tempered", 1, 1.0, R=8.0)
    monkeypatch.setattr(analysis, "ALPHA_CFG", alpha_cfg)
    floor = (1.0 - alpha_cfg) * 1.0
    full = 0.25**2 / 6.0 * min(float(mu_reference(deep, 1)[1]), floor)
    assert spectral_gap(deep, 0.25).comparison == full
