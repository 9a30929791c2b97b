"""Density families and the derived quantities the walk analysis needs.

Two families, both radial:

  * gaussian:  rho(x) = (alpha/pi)^{d/2} exp(-alpha |x|^2),  d in {1, 2}
  * tempered:  rho(x) = beta exp(-alpha s(|x|)),  d = 1, where s(u) = u for
    u >= R and an even quartic on [-R, R] chosen so s is C^2 at the joints
    (s(R) = R, s'(R) = 1, s''(R) = 0) with a single smooth bump at 0.

Derived quantities: the Schrodinger potential V = (Delta rho)/rho, the ball
mass m_h(x) = integral of rho over the radius-h ball at x, the conjugation
weight a_h = (alpha_d h^d rho / m_h)^{1/2}, and the tail constants kappa
(liminf of V) and A_h (limsup of a_h^2).

Every mass, for one point or many, comes from ball_mass_grid. For the
tempered tail the mass integral is elementary,
m_h(x) = rho(x) * 2 sinh(alpha h)/alpha for |x| >= R + h, which makes
A_h = alpha h / sinh(alpha h) exact rather than a probe estimate.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfc, i0e

from .errors import ConfigError, NumericalError, ProbeInsideCore, QuadratureNotConverged
from .multiplier import gamma_d, unit_ball_volume

GAUSSIAN = "gaussian"
TEMPERED = "tempered"

MASS_RTOL = 1e-10


@dataclass(frozen=True)
class Density:
    """Immutable density model. Build through make_density."""

    kind: str
    dim: int
    alpha: float
    R: float  # tempered transition radius; 0.0 for gaussian
    beta: float  # normalization, integral of rho is 1


def make_density(kind, dim, alpha, R=None):
    if kind not in (GAUSSIAN, TEMPERED):
        raise ConfigError(f"unknown density kind {kind!r}")
    if dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {dim!r}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ConfigError(f"alpha must be finite and positive, got {alpha!r}")
    if kind == GAUSSIAN:
        if R is not None and R != 0.0:
            raise ConfigError("gaussian density takes no transition radius R")
        beta = (alpha / math.pi) ** (dim / 2.0)
        return Density(GAUSSIAN, dim, float(alpha), 0.0, beta)
    # tempered
    if dim != 1:
        raise ConfigError("tempered density is implemented for d = 1 only")
    if R is None or not (math.isfinite(R) and R > 0):
        raise ConfigError(f"tempered density needs a finite transition radius R > 0, got {R!r}")
    beta = 1.0 / _tempered_norm_integral(float(alpha), float(R))
    return Density(TEMPERED, 1, float(alpha), float(R), beta)


# ---------------------------------------------------------------------------
# smooth core of the tempered exponent

def _s(R, u):
    """Even C^2 exponent: s(u) = |u| outside [-R, R], quartic inside."""
    u = np.abs(u)
    core = 3.0 * R / 8.0 + 3.0 * u * u / (4.0 * R) - u**4 / (8.0 * R**3)
    return np.where(u >= R, u, core)


def _ds(R, u):
    sign = np.sign(u)
    u = np.abs(u)
    core = 3.0 * u / (2.0 * R) - u**3 / (2.0 * R**3)
    return sign * np.where(u >= R, 1.0, core)


def _d2s(R, u):
    u = np.abs(u)
    core = 3.0 / (2.0 * R) - 3.0 * u * u / (2.0 * R**3)
    return np.where(u >= R, 0.0, core)


def _tempered_norm_integral(alpha, R):
    # 2 * (core quadrature + exact exponential tail)
    core = _adaptive_gl(
        lambda u: np.exp(-alpha * _s(R, u)), 0.0, R, rel_tol=1e-13
    )
    return 2.0 * (core + math.exp(-alpha * R) / alpha)


# ---------------------------------------------------------------------------
# evaluation

def eval_density(density, x):
    """rho(x). For d = 2, x has the coordinate pair on its last axis."""
    r = _radius(density, x)
    if density.kind == GAUSSIAN:
        return density.beta * np.exp(-density.alpha * r * r)
    return density.beta * np.exp(-density.alpha * _s(density.R, r))


def eval_potential(density, x):
    """Potential V = (Delta rho)/rho.

    Gaussian: 4 alpha^2 |x|^2 - 2 d alpha. Tempered d=1 with rho = beta
    e^{-alpha s}: alpha^2 s'^2 - alpha s'', which is the constant alpha^2
    on the tail.
    """
    r = _radius(density, x)
    a = density.alpha
    if density.kind == GAUSSIAN:
        return 4.0 * a * a * r * r - 2.0 * density.dim * a
    ds = _ds(density.R, r)
    return a * a * ds * ds - a * _d2s(density.R, r)


def kappa_analytic(density):
    """liminf of V at infinity: alpha^2 (tempered) or +inf (gaussian)."""
    if density.kind == GAUSSIAN:
        return math.inf
    return density.alpha**2


def _require_h(h):
    """The one check on a ball radius, wherever h enters: ConfigError
    unless h is finite and positive."""
    if not (math.isfinite(h) and h > 0):
        raise ConfigError(f"h must be finite and positive, got {h!r}")


def _radius(density, x):
    x = np.asarray(x, dtype=float)
    if density.dim == 1:
        return np.abs(x)
    if x.shape[-1] != 2:
        raise ConfigError("d=2 points need a trailing axis of length 2")
    return np.sqrt(np.sum(x * x, axis=-1))


# ---------------------------------------------------------------------------
# ball mass

def ball_mass_grid(density, x, h):
    """m_h(x), the rho-measure of the radius-h ball at x, at one point (a
    scalar) or over an array of points (d = 2: (n, 2) rows).

    Gaussian d = 1 uses the erfc difference on |x|. The difference itself
    does not cancel, because the two arguments sit 2*alpha*h*|x| apart in
    exponent, but rounding sqrt(alpha)(|x| -+ h) costs up to about
    eps*|x|/(2h) relative, still inside MASS_RTOL down to h = 1e-4 for
    |x| <= 10. The tempered tail uses its closed form. All other points
    go into one batched quadrature to MASS_RTOL, one row per distinct
    radius; the rows do not depend on each other, so sharing a row gives
    the same bits. d = 2 is a radial integral through the scaled Bessel
    i0e.
    """
    _require_h(h)
    r = _radius(density, x)
    if density.kind == GAUSSIAN and density.dim == 1:
        sq = math.sqrt(density.alpha)
        return 0.5 * (erfc(sq * (r - h)) - erfc(sq * (r + h)))
    flat = r.ravel()
    out = np.empty_like(flat)
    core = np.ones(flat.shape, dtype=bool)
    if density.kind == TEMPERED:
        core = flat < density.R + h
        out[~core] = _tail_mass(density, flat[~core], h)
    radii, where = np.unique(flat[core], return_inverse=True)
    out[core] = _mass_quadrature(density, radii, h)[where]
    return out.reshape(r.shape)[()]


def _tail_mass(density, r, h):
    # the ball sits in the pure-exponential tail: rho(r) 2 sinh(alpha h)/alpha
    a = density.alpha
    return eval_density(density, r) * 2.0 * math.sinh(a * h) / a


def _mass_quadrature(density, r, h):
    """m_h at every radius of the 1-D array r, as one batched quadrature."""
    a = density.alpha
    if density.dim == 1:
        splits = () if density.kind == GAUSSIAN else (-density.R, density.R)
        return _adaptive_gl_batch(
            lambda rows, t: eval_density(density, t), r - h, r + h,
            rel_tol=MASS_RTOL, splits=splits,
        )
    # d = 2 gaussian: rotate around x; the angular integral is
    # 2 pi I_0(2 alpha r t), written with i0e to avoid overflow
    def radial(rows, t):
        rr = r[rows, None]
        return 2.0 * a * t * np.exp(-a * (rr - t) ** 2) * i0e(2.0 * a * rr * t)

    return _adaptive_gl_batch(
        radial, np.zeros_like(r), np.full_like(r, h), rel_tol=MASS_RTOL
    )


def _require_mass(density, x, m):
    """Refuse points where m is 0 or subnormal: a_h = 0/0 or 1/m = inf."""
    low = ~(m >= np.finfo(float).tiny)
    if np.any(low):
        r = np.min(_radius(density, x)[low])
        raise NumericalError(f"ball masses are subnormal or underflow to 0 from radius {r:.6g}")


def weight_a_h(density, x, h):
    """Conjugation weight a_h = (alpha_d h^d rho / m_h)^{1/2}, elementwise in
    x; NumericalError where the mass underflows to 0."""
    m = ball_mass_grid(density, x, h)
    _require_mass(density, x, m)
    vol = unit_ball_volume(density.dim) * h**density.dim
    return np.sqrt(vol * eval_density(density, x) / m)


# ---------------------------------------------------------------------------
# tail constants

class TailConstants(NamedTuple):
    kappa_est: float
    A_h_est: float
    lemma_residual: float  # |A_h - 1 + kappa h^2/(2(d+2))|; nan for gaussian


def tail_constants(density, h, probe_radii):
    """Probe-shell estimates of kappa and A_h.

    kappa_est is the inf of V over the probes, A_h_est the sup of a_h^2.
    For the tempered family the returned residual checks the second-order
    law A_h = 1 - kappa h^2 / (2(d+2)) + O(h^4) against the analytic
    kappa = alpha^2. Probes must sit strictly outside the smoothed core.
    """
    radii = np.atleast_1d(np.asarray(probe_radii, dtype=float))
    if radii.size == 0:
        raise ConfigError("need at least one probe radius")
    if np.any(radii <= density.R):
        raise ProbeInsideCore(
            f"probe radii must exceed the transition radius {density.R}"
        )
    if density.dim == 2:
        pts = np.column_stack([radii, np.zeros_like(radii)])
    else:
        pts = radii
    kappa_est = float(np.min(eval_potential(density, pts)))
    A_h_est = float(np.max(weight_a_h(density, pts, h) ** 2))
    if density.kind == TEMPERED:
        resid = abs(A_h_est - 1.0 + kappa_analytic(density) * h * h * gamma_d(density.dim))
    else:
        resid = math.nan
    return TailConstants(kappa_est, A_h_est, resid)


def tempered_A_h(density, h):
    """Exact A_h = alpha h / sinh(alpha h) for the tempered family.

    On |x| >= R + h the ball sits entirely in the pure-exponential region,
    so a_h^2 = 2 h rho / m_h = alpha h / sinh(alpha h) exactly, independent
    of x; the limsup is attained everywhere on that shell.
    """
    if density.kind != TEMPERED:
        raise ConfigError("exact A_h formula applies to the tempered family")
    ah = density.alpha * h
    return ah / math.sinh(ah)


# ---------------------------------------------------------------------------
# quadrature

_GL_LO = np.polynomial.legendre.leggauss(16)
_GL_HI = np.polynomial.legendre.leggauss(32)
_MAX_PANEL_SPLITS = 48


def _adaptive_gl(f, a, b, rel_tol, splits=()):
    """Integral of f(t) over [a, b]: the one-row case of _adaptive_gl_batch."""
    return float(_adaptive_gl_batch(lambda rows, t: f(t), [a], [b], rel_tol, splits)[0])


def _adaptive_gl_batch(f, a, b, rel_tol, splits=()):
    """Adaptive Gauss-Legendre for many nonnegative integrals at once.

    Row i integrates f over [a[i], b[i]] (a <= b); f(rows, t) evaluates
    the integrand of row rows[j] at the nodes t[j, :]. Positivity means
    panel-local relative control implies global relative control, so each
    panel is bisected until its 16/32-point estimates agree. Every pass
    evaluates both rules on all live panels of all rows together. Each
    row's sum is reduced over that row's own panels only, in an order
    fixed by the row, so a row's result does not depend on which other
    rows share the batch. splits lists kink locations that seed panel
    edges wherever they fall strictly inside a row's interval.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    edges = np.column_stack([a] + [np.clip(s, a, b) for s in sorted(splits)] + [b])
    p, q = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    rows = np.repeat(np.arange(a.size), edges.shape[1] - 1)
    live = p < q
    p, q, rows = p[live], q[live], rows[live]
    total = np.zeros(a.size)
    depth = 0  # every live panel has been bisected depth times
    while p.size:
        centre = (0.5 * (p + q))[:, None]
        half = 0.5 * (q - p)
        coarse, fine = (
            half * np.sum(f(rows, centre + half[:, None] * nodes) * weights, axis=-1)
            for nodes, weights in (_GL_LO, _GL_HI)
        )
        ok = np.abs(fine - coarse) <= rel_tol * np.maximum(np.abs(fine), 1e-300)
        total += np.bincount(rows[ok], weights=fine[ok], minlength=a.size)
        if ok.all():
            break
        if depth >= _MAX_PANEL_SPLITS:
            bad = np.flatnonzero(~ok)[0]
            raise QuadratureNotConverged(
                f"panel [{p[bad]}, {q[bad]}] failed to reach rel_tol={rel_tol}"
            )
        p, q, rows = p[~ok], q[~ok], rows[~ok]
        mid = 0.5 * (p + q)
        p, q = np.concatenate([p, mid]), np.concatenate([mid, q])
        rows = np.concatenate([rows, rows])
        depth += 1
    return total
