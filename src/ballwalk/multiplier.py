"""Radial Fourier multiplier of the ball-average operator.

The plain ball average over a radius-h ball acts on Fourier modes as
multiplication by G_d(h*xi), where G_d is the normalized Fourier transform
of the unit-ball indicator. G_d is radial; everything here works with
r = |xi| >= 0.

Both supported dimensions have closed forms: G_1(r) = sin(r)/r and
G_2(r) = 2 J_1(r)/r, with G_2'(r) = -2 J_2(r)/r. Below r = 1e-3 the d = 2
values come from the Taylor polynomial 1 - r^2/8 + r^4/192 instead, because
j1 loses its last digits (and finally underflows) as r reaches the
subnormal range.
"""

import math

import numpy as np
from scipy.special import j1, jv

from .errors import NumericalError

_MAX_DIM = 2
# below this radius d = 2 uses its Taylor polynomials; their first dropped
# terms, r^6/9216 and r^5/1536, stay under 1e-18 there
_R_TAYLOR = 1e-3


def unit_ball_volume(d):
    """Volume alpha_d of the unit ball in R^d (alpha_0 = 1 by convention)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def gamma_d(d):
    """Second-moment constant 1/(2(d+2)) of the unit-ball average."""
    return 1.0 / (2.0 * (d + 2))


def _check_dim(d):
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    if d > _MAX_DIM:
        raise ValueError(f"d={d} not supported (exact evaluation is d <= {_MAX_DIM})")


def _piecewise(r, small, near, far):
    out = np.empty_like(r)
    out[small] = near(r[small])
    out[~small] = far(r[~small])
    return out


def eval_Gd(d, r):
    """Radial multiplier value G_d(r) for r >= 0 (scalar or array).

    Both dimensions use closed forms, accurate to a few ulps (tested against
    an adaptive quadrature of the dimensional-reduction integral).
    """
    _check_dim(d)
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    if np.any(r_arr < 0):
        raise ValueError("radial argument must be >= 0")

    if d == 1:
        # sin(r)/r, stable at 0 through numpy's normalized sinc
        out = np.sinc(r_arr / math.pi)
    else:
        out = _piecewise(r_arr, r_arr < _R_TAYLOR,
                         lambda s: 1.0 - s * s / 8.0 + s**4 / 192.0,
                         lambda s: 2.0 * j1(s) / s)
    return float(out[0]) if scalar else out


def eval_Gd_prime(d, r):
    """Radial derivative dG_d/dr (used by the minimum refinement)."""
    _check_dim(d)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if d == 1:
        # odd series -r/3 + r^3/30 - r^5/840 near 0
        out = _piecewise(r_arr, np.abs(r_arr) < 1e-4,
                         lambda s: -s / 3.0 + s**3 / 30.0 - s**5 / 840.0,
                         lambda s: (s * np.cos(s) - np.sin(s)) / s**2)
    else:
        out = _piecewise(r_arr, r_arr < _R_TAYLOR,
                         lambda s: -s / 4.0 + s**3 / 48.0,
                         lambda s: -2.0 * jv(2, s) / s)
    return float(out[0]) if np.ndim(r) == 0 else out


_SCAN_STEP = 1e-2
_SCAN_RMAX = 50.0


def find_min_M(d):
    """Locate the global minimum of the radial profile.

    Returns (r_star, M). Strategy: coarse scan to the first negative lobe,
    derivative bisection inside it, then a dense safety scan out to r = 50
    confirming no deeper value (the minimum of these oscillatory profiles
    sits in the first negative lobe; the scan guards the assumption).
    """
    _check_dim(d)
    grid = np.arange(_SCAN_STEP, _SCAN_RMAX, _SCAN_STEP)
    vals = eval_Gd(d, grid)
    i0 = int(np.argmax(vals < 0))  # first sign change
    if vals[i0] >= 0:
        raise NumericalError("no negative lobe found in scan range")
    # bracket the derivative sign change: G' < 0 entering the lobe,
    # > 0 leaving it
    i = i0
    while i + 1 < grid.size and vals[i + 1] < vals[i]:
        i += 1
    lo, hi = grid[i - 1], grid[i + 1]
    flo = eval_Gd_prime(d, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = eval_Gd_prime(d, mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-13:
            break
    r_star = 0.5 * (lo + hi)
    M = eval_Gd(d, r_star)
    deeper = vals.min()
    if deeper < M - 1e-12:
        raise NumericalError(
            f"safety scan found a deeper value {deeper} at "
            f"r={grid[int(np.argmin(vals))]}; first-lobe assumption violated"
        )
    return r_star, M


def taylor_check(d, r_samples):
    """Small-r structure report: 1 - G_d(r) = gamma_d r^2 + O(r^4).

    Returns a dict with the fitted quartic constant
    C = max |1 - G_d(r) - gamma_d r^2| / r^4 over the samples and the
    values F(r^2) = (1 - G_d(r))/r^2, all of which must be positive.
    """
    r = np.asarray(r_samples, dtype=float)
    if np.any((r <= 0) | (r > 1)):
        raise ValueError("taylor_check samples must lie in (0, 1]")
    g = eval_Gd(d, r)
    gd = gamma_d(d)
    resid = np.abs(1.0 - g - gd * r * r)
    F = (1.0 - g) / (r * r)
    return {
        "gamma_d": gd,
        "C_fit": float(np.max(resid / r**4)),
        "F_values": F,
        "F_positive": bool(np.all(F > 0)),
    }
