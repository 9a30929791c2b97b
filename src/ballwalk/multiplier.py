"""Radial Fourier multiplier of the ball-average operator.

The plain ball average over a radius-h ball acts on Fourier modes as
multiplication by G_d(h*xi), where G_d is the normalized Fourier transform
of the unit-ball indicator. G_d is radial; everything here works with
r = |xi| >= 0.

Both supported dimensions have closed forms: G_1(r) = sin(r)/r and
G_2(r) = 2 J_1(r)/r. Below r = 1e-3 the d = 2 values come from the Taylor
polynomial 1 - r^2/8 + r^4/192 instead, because j1 loses its last
digits (and finally underflows) as r reaches the subnormal range.
"""

import math

import numpy as np
from scipy.special import j1

from .errors import ConfigError

_MAX_DIM = 2
# below this radius d = 2 uses its Taylor polynomial; its first dropped
# term, r^6/9216, stays under 1e-18 there
_R_TAYLOR = 1e-3


def unit_ball_volume(d):
    """Volume alpha_d of the unit ball in R^d (alpha_0 = 1 by convention)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def gamma_d(d):
    """Second-moment constant 1/(2(d+2)) of the unit-ball average."""
    return 1.0 / (2.0 * (d + 2))


def _check_dim(d):
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ConfigError(f"dimension must be a positive integer, got {d!r}")
    if d > _MAX_DIM:
        raise ConfigError(f"d={d} not supported (exact evaluation is d <= {_MAX_DIM})")


def eval_Gd(d, r):
    """Radial multiplier value G_d(r) for finite r >= 0 (scalar or array);
    a negative, NaN or infinite r raises ConfigError.

    Both dimensions use closed forms, accurate to a few ulps (tested against
    an adaptive quadrature of the dimensional-reduction integral).
    """
    _check_dim(d)
    r = np.asarray(r, dtype=float)
    if not np.all((r >= 0) & (r < math.inf)):
        raise ConfigError("radial argument must be finite and >= 0, got a negative, NaN or "
                          "infinite value")
    if d == 1:
        # sin(r)/r, stable at 0 through numpy's normalized sinc
        out = np.sinc(r / math.pi)
    else:
        small = r < _R_TAYLOR
        near, far = r[small], r[~small]
        out = np.empty_like(r)
        out[small] = 1.0 - near * near / 8.0 + near**4 / 192.0
        out[~small] = 2.0 * j1(far) / far
    return out[()]


# First minimizers: the first positive root of tan r = r for d = 1, where
# G_1'(r) = (r cos r - sin r)/r^2, and j_{2,1}, the first zero of J_2, for
# d = 2, where G_2'(r) = -2 J_2(r)/r. Both lie in the first negative lobe,
# which holds the global minimum of these decaying oscillatory profiles.
_R_STAR = {1: 4.493409457909064, 2: 5.135622301840683}


def find_min_M(d):
    """The global minimum of the radial profile: (r_star, M = G_d(r_star))."""
    _check_dim(d)
    return _R_STAR[d], eval_Gd(d, _R_STAR[d])
