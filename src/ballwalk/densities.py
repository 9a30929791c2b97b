"""Density families and the derived quantities the walk analysis needs.

Two families, both radial:

  * gaussian:  rho(x) = (alpha/pi)^{d/2} exp(-alpha |x|^2),  d in {1, 2}
  * tempered:  rho(x) = beta exp(-alpha s(|x|)),  d = 1, where s(u) = u for
    u >= R and an even quartic on [-R, R] chosen so s is C^2 at the joints
    (s(R) = R, s'(R) = 1, s''(R) = 0) with a single smooth bump at 0.

Derived quantities: the Schrodinger potential V = (Delta rho)/rho, the ball
mass m_h(x) = integral of rho over the radius-h ball at x, the conjugation
weight a_h = (alpha_d h^d rho / m_h)^{1/2}, and the tail constants kappa
(liminf of V) and A_h (limsup of a_h^2), both in closed form.

Every mass, for one point or many, comes from ball_mass_grid. For the
tempered tail the mass integral is elementary,
m_h(x) = rho(x) * 2 sinh(alpha h)/alpha for |x| >= R + h, so a_h^2 is the
constant A_h = alpha h / sinh(alpha h) there (tempered_A_h), and V the
constant kappa = alpha^2 (kappa_analytic).
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, i0e

from .errors import ConfigError, NumericalError, QuadratureNotConverged, WrongDensityKind
from .multiplier import unit_ball_volume

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
    _require_positive("alpha", alpha)
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
    return _rho_at_radius(density, _radius(density, x))


def _rho_at_radius(density, r):
    """rho at the radius r >= 0 (an array or a scalar), in any dim."""
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


def _require_positive(name, value):
    """ConfigError naming the argument unless value is finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")


def _require_h(h):
    """The one check on a ball radius, wherever h enters."""
    _require_positive("h", h)


def _require_int(name, value, least):
    """The one check on a count, wherever one enters: ConfigError naming
    the argument unless value is an integer >= least; returns it as one."""
    try:
        k = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if k < least:
        raise ConfigError(f"{name} must be at least {least}, got {value!r}")
    return k


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
        if not core.all():
            out[~core] = _tail_mass(density, flat[~core], h)
    radii, where = np.unique(flat[core], return_inverse=True)
    out[core] = _mass_quadrature(density, radii, h)[where]
    return out.reshape(r.shape)[()]


def _tail_mass(density, r, h):
    # the ball sits in the pure-exponential tail: rho(r) 2 sinh(alpha h)/alpha
    a = density.alpha
    return eval_density(density, r) * 2.0 * _sinh(a * h) / a


def _sinh(ah):
    """math.sinh(alpha h), ConfigError where it overflows (alpha h past
    about 710)."""
    try:
        return math.sinh(ah)
    except OverflowError:
        raise ConfigError(f"sinh(alpha h) overflows at alpha h = {ah!r}") from None


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


def tempered_A_h(density, h):
    """Exact A_h = alpha h / sinh(alpha h) for the tempered family.

    On |x| >= R + h the ball sits entirely in the pure-exponential region,
    so a_h^2 = 2 h rho / m_h = alpha h / sinh(alpha h) exactly, independent
    of x; the limsup is attained everywhere on that shell. ConfigError
    unless h is finite and positive, or where sinh(alpha h) overflows.
    """
    _require_h(h)
    if density.kind != TEMPERED:
        raise WrongDensityKind("exact A_h formula applies to the tempered family")
    ah = density.alpha * h
    return ah / _sinh(ah)


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
