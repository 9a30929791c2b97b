"""Convergence study behind analysis.GRID_RULE, the delta <= h/GRID_RULE
grid that verify_asymptotics, spectral_gap and weyl_curve put T-tilde on.

Each scheme is checked against a finer grid: the multiplier top levels
and the banded ones against delta <= h/40, the banded Weyl counts
against delta <= h/20. The banded levels move by about delta^3 between
grids, so they are held to a stated fraction of the h^4 term that
verify_asymptotics measures rather than to a fixed tolerance. The
knife-edge test makes sure that the counts agree with margin, not by
luck: every shift clears its nearest eigenvalue by at least three times
what that grid change moves the eigenvalues in the window.
"""

import numpy as np
import pytest
import scipy.linalg

from ballwalk.analysis import (
    BOX_L,
    LAMBDA_ZERO_TOL,
    WEYL_LAMBDAS,
    _box_grid,
    _even_grid,
    mu_reference,
    weyl_curve,
)
from ballwalk.densities import make_density
from ballwalk.eigensolve import count_at_most, top_k
from ballwalk.multiplier import gamma_d
from ballwalk.operators import BANDED, MULTIPLIER, Grid, build_conjugated

WEYL_H = (0.3, 0.2, 0.15)  # the sweep of test_analysis.test_weyl_curve_exponent
SHIFTS = np.append(1.0 - np.array(WEYL_LAMBDAS), 1.0)  # weyl_curve's count shifts
GAUSS = make_density("gaussian", 1, 0.5)
TEMPERED = make_density("tempered", 1, 1.0, R=0.5)


def _operator(density, h, scheme, rule=None):
    """T-tilde on the drivers' grid, or on delta <= h/rule when rule is set."""
    g = _box_grid(density, h) if rule is None else Grid(1, BOX_L, _even_grid(BOX_L, h, rule))
    return build_conjugated(g, density, h, scheme=scheme)


def _window_eigenvalues(op):
    """Eigenvalues above the lowest shift and a margin, in descending order."""
    lo = float(SHIFTS.min()) - 0.1
    ev = scipy.linalg.eigvals_banded(op.to_banded(), lower=True, select="v",
                                     select_range=(lo, 2.0))
    return np.sort(ev)[::-1]


# --- top levels against delta <= h/40 -------------------------------------------

# the Gaussian rho is analytic, so the grid error is spectrally small; the
# tempered kink at R leaves an algebraic error, here kept 10x inside
# LAMBDA_ZERO_TOL
@pytest.mark.parametrize("density, atol", [(GAUSS, 1e-12), (TEMPERED, LAMBDA_ZERO_TOL / 10)],
                         ids=["gaussian", "tempered"])
@pytest.mark.parametrize("h", [0.5, 0.25, 0.1])
def test_multiplier_top_levels_match_h40(density, atol, h):
    lam = top_k(_operator(density, h, MULTIPLIER), 3).eigenvalues
    fine = top_k(_operator(density, h, MULTIPLIER, rule=40), 3).eigenvalues
    np.testing.assert_allclose(lam, fine, rtol=0, atol=atol)


# the d = 1 drivers' scheme: the grid error of lambda_k, k = 1..3, stays
# within 2% of the h^4 term |1 - gamma mu_k h^2 - lambda_k| on the h/40
# grid (largest ratio 0.0079 for the Gaussian, 0.0111 for the tempered)
@pytest.mark.parametrize("density", [GAUSS, TEMPERED], ids=["gaussian", "tempered"])
@pytest.mark.parametrize("h", [0.5, 0.25, 0.1])
def test_banded_top_levels_match_h40_within_the_h4_term(density, h):
    lam = top_k(_operator(density, h, BANDED), 4).eigenvalues[1:]
    fine = top_k(_operator(density, h, BANDED, rule=40), 4).eigenvalues[1:]
    h4_term = np.abs(1.0 - gamma_d(1) * mu_reference(density, 3)[1:] * h**2 - fine)
    assert np.all(np.abs(lam - fine) <= 0.02 * h4_term)


# --- banded scheme: Weyl counts against delta <= h/20 ---------------------------

@pytest.fixture(scope="module")
def weyl_rows():
    return weyl_curve(GAUSS, list(WEYL_H)).rows


def test_weyl_counts_match_h20(weyl_rows):
    assert len(weyl_rows) == len(WEYL_H) * len(WEYL_LAMBDAS)
    fine = []
    for h in WEYL_H:
        counts = count_at_most([_operator(GAUSS, h, BANDED, rule=20)], SHIFTS)[0][0]
        fine += [int(counts[-1] - below) for below in counts[:-1]]
    assert [n for _, _, n, _ in weyl_rows] == fine


@pytest.mark.parametrize("h", WEYL_H)
def test_weyl_shifts_clear_the_discretization_error(h):
    ev = _window_eigenvalues(_operator(GAUSS, h, BANDED))
    fine = _window_eigenvalues(_operator(GAUSS, h, BANDED, rule=20))
    # the shift 1 sits on lambda_0 = 1 by construction, and count_at_most
    # nudges every shift up by 1e-12, so lambda_0 must stay 1 to 10x that
    assert abs(ev[0] - 1.0) <= 1e-13 and abs(fine[0] - 1.0) <= 1e-13
    # the eigenvalues above the lowest shift and the first one below it
    m = int(np.sum(ev > SHIFTS.min())) + 1
    assert min(ev.size, fine.size) > m
    move = float(np.max(np.abs(ev[:m] - fine[:m])))
    edges = np.min(np.abs(SHIFTS[:, None] - ev[None, 1:]), axis=1)
    shown = np.array2string(edges, formatter={"float_kind": "{:.1e}".format})
    print(f"h = {h}: shift-to-eigenvalue distances {shown}, "
          f"largest move to the h/20 grid {move:.1e}")
    assert edges.min() >= 3.0 * move
