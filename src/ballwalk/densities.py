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

Every mass, for one point or many, comes from ball_mass_grid. In d = 2
(Gaussian only) it is a Poisson mixture of gamma distribution functions
(_disc_mass). For the tempered tail the mass integral is elementary,
m_h(x) = rho(x) * 2 sinh(alpha h)/alpha for |x| >= R + h, so a_h^2 is the
constant A_h = alpha h / sinh(alpha h) there (tempered_A_h), and V the
constant kappa = alpha^2 (kappa_analytic).
"""

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammainc, gammaln

from .errors import ConfigError, NumericalError, QuadratureNotConverged, WrongDensityKind
from .multiplier import unit_ball_volume

GAUSSIAN = "gaussian"
TEMPERED = "tempered"

MASS_RTOL = 1e-10
_R_MAX = 1e76  # the tempered core divides u^4 by R^3 for |u| < R: R^{+-4} stay normal floats


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
    dim = _require_int("dim", dim, 1)
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
    if not (_finite_real(R) and R > 0):
        raise ConfigError(f"tempered density needs a finite transition radius R > 0, got {R!r}")
    if not 1.0 / _R_MAX <= R <= _R_MAX:
        raise ConfigError(f"tempered density needs R in [{1.0 / _R_MAX:g}, {_R_MAX:g}], "
                          f"where R^4 and R^-4 are finite, got {R!r}")
    norm = _tempered_norm_integral(float(alpha), float(R))
    if not norm > 1.0 / np.finfo(float).max:  # beta = 1/norm must be finite
        raise ConfigError(f"tempered density at alpha R = {alpha * R:g}: integral of "
                          f"exp(-alpha s) underflows, so beta overflows")
    return Density(TEMPERED, 1, float(alpha), float(R), 1.0 / norm)


# ---------------------------------------------------------------------------
# smooth core of the tempered exponent

# At u = +-inf the quartic core is inf - inf, which np.where discards.

def _s(R, u):
    """Even C^2 exponent: s(u) = |u| outside [-R, R], quartic inside."""
    u = np.abs(u)
    with np.errstate(invalid="ignore"):
        core = 3.0 * R / 8.0 + 3.0 * u * u / (4.0 * R) - u**4 / (8.0 * R**3)
    return np.where(u >= R, u, core)


def _ds(R, u):
    sign = np.sign(u)
    u = np.abs(u)
    with np.errstate(invalid="ignore"):
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
    """rho(x). For d = 2, x has the coordinate pair on its last axis. A
    NaN point raises ConfigError (_point_radius); rho is 0 at an infinite
    one."""
    return _rho_at_radius(density, _point_radius(density, x))


def _rho_at_radius(density, r):
    """rho at the radius r >= 0 (an array or a scalar), in any dim."""
    if density.kind == GAUSSIAN:
        return density.beta * np.exp(-density.alpha * r * r)
    return density.beta * np.exp(-density.alpha * _s(density.R, r))


def _log_rho_at_radius(density, r):
    """log rho at the radius r >= 0 in closed form, with no exp: finite
    where rho itself underflows to 0."""
    if density.kind == GAUSSIAN:
        return math.log(density.beta) - density.alpha * r * r
    return math.log(density.beta) - density.alpha * _s(density.R, r)


def eval_potential(density, x):
    """Potential V = (Delta rho)/rho.

    Gaussian: 4 alpha^2 |x|^2 - 2 d alpha. Tempered d=1 with rho = beta
    e^{-alpha s}: alpha^2 s'^2 - alpha s'', which is the constant alpha^2
    on the tail, so also at an infinite point, where the Gaussian V is inf.
    A NaN point raises ConfigError (_point_radius).
    """
    r = _point_radius(density, x)
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


def _finite_real(value):
    """The one test that a scalar argument is a finite real number, a
    Python or numpy int or float (not None, a string or an array), made
    before any check compares it."""
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _require_positive(name, value):
    """ConfigError naming the argument unless value is a finite and
    positive real number; returns it."""
    if not (_finite_real(value) and value > 0):
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    return value


def _require_h(h):
    """The one check on a ball radius, wherever h enters; returns h."""
    return _require_positive("h", h)


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


def _point_radius(density, x):
    """_radius of points from outside: the one check on them, ConfigError
    for a NaN point (an infinite one has radius inf). The walk's own
    steps, whose points are finite, take _radius unchecked."""
    r = _radius(density, x)
    if math.isnan(r.max(initial=0.0)):
        raise ConfigError("points must be finite or infinite, not NaN")
    return r


# ---------------------------------------------------------------------------
# ball mass

def ball_mass_grid(density, x, h):
    """m_h(x), the rho-measure of the radius-h ball at x, at one point (a
    scalar) or over an array of points (d = 2: (n, 2) rows).

    Gaussian d = 1 uses the erfc difference on |x|. The difference itself
    does not cancel, because the two arguments sit 2*alpha*h*|x| apart in
    exponent, but rounding sqrt(alpha)(|x| -+ h) costs up to about
    eps*|x|/(2h) relative, still inside MASS_RTOL down to h = 1e-4 for
    |x| <= 10. The tempered tail uses its closed form, and the tempered
    core one batched quadrature to MASS_RTOL (_mass_quadrature). d = 2 is
    the Gaussian's Poisson-gamma series (_disc_mass). Both take one row
    per distinct radius; the rows do not depend on each other, so sharing
    a row gives the same bits. The mass is 0 at an infinite point, and a
    NaN point raises ConfigError (_point_radius).
    """
    _require_h(h)
    r = _point_radius(density, x)
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
    per_radius = _mass_quadrature if density.dim == 1 else _disc_mass
    out[core] = per_radius(density, radii, h)[where]
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
    """m_h at every radius of the 1-D array r in d = 1, as one batched
    quadrature of rho over [r - h, r + h], with panel edges at the
    tempered joints +-R."""
    return _adaptive_gl_batch(
        lambda rows, t: eval_density(density, t), r - h, r + h,
        rel_tol=MASS_RTOL, splits=(-density.R, density.R),
    )


_SERIES_CHUNK = 16  # series terms per pass of _disc_mass
_MAX_SERIES_TERMS = 2**16
_FAR = 746.0  # exp(-746) < 2^-1075, half the least subnormal
_HEAD_WIDTHS = 10.0  # a row starts this many sqrt(mode) below its largest term, or at 0


def _disc_mass(density, r, h):
    """m_h at every radius of the 1-D array r, d = 2 Gaussian, as a
    series. For Y ~ rho, 2 alpha |Y - x|^2 is noncentral chi^2 with 2
    degrees of freedom and noncentrality 2 alpha |x|^2, a Poisson
    mixture of central ones, so with lam = alpha r^2 and u = alpha h^2

        m_h = sum_j t_j,  t_j = e^{-lam} lam^j / j! * P(j + 1, u),

    P the regularized lower incomplete gamma function (gammainc). The
    Poisson weight and P(j + 1, u) are both log-concave in j, so t_j is:
    the ratios t_{j+1}/t_j fall with j. They are at most
    q_j = min(lam/(j + 1), lam u/((j + 1)(j + 2))), since P(j + 2, u) <=
    P(j + 1, u) and P(j + 2, u)/P(j + 1, u) <= u/(j + 2), so no term past
    the mode bound min(lam, sqrt(lam u)) is larger than the one before it.

    A row starts at j0 = floor(m - _HEAD_WIDTHS sqrt(m)), m its mode
    bound, or at j0 = 0 where that is below 1 (m up to about 110, every
    row of the bench among them), with its weights as
    j log lam - lam - log j!. A row with j0 > 0 takes its weights in
    Loader's form (_log_poisson_far), since j log lam and log j! are large
    there. Below j0 every ratio is at least rho = t_{j0+1}/t_{j0}, so the
    skipped head is at most t_{j0}/(rho - 1) (0 where t_{j0} underflows);
    a row where that exceeds 2^-54/3 of its sum raises NumericalError. A
    row stops at the first j >= s = m + 2 sqrt(m) + 1, where q_s < 1, whose
    term is at most 2^-54 / max(1, 3 q_s/(1 - q_s)) of its sum so far: its
    tail, at most t_j q_s/(1 - q_s), is then at most 2^-54/3 of the sum,
    and no later term moves it. The term count depends on the row alone,
    so a row's bits do not depend on the batch; a row with j0 = 0 gets the
    bits of a sum to convergence. P(j + 1, u) depends on j alone, so a
    batch evaluates it once per j, for all the rows that reach that j.
    A row still running after _MAX_SERIES_TERMS terms raises
    NumericalError. Where r - h >= sqrt(_FAR / alpha) the mass is below
    P(|Y| >= r - h) = e^{-alpha (r - h)^2} < 2^-1075, so it is 0 (r = inf
    too). scipy's chndtr cannot serve: it returns 0 where the mass is
    about 4e-57 (r = 16, alpha = 0.5, h = 0.25).
    """
    a = density.alpha
    out = np.zeros_like(r)
    live = np.flatnonzero(r - h < math.sqrt(_FAR / a))
    lam, u = a * r[live] ** 2, a * h * h
    mode = np.minimum(lam, np.sqrt(lam * u))
    first = np.floor(np.maximum(mode - _HEAD_WIDTHS * np.sqrt(mode), 0.0))
    far = first > 0.0
    out[live[~far]] = _disc_series(lam[~far], u, 0.0, _log_poisson_near, r[live[~far]], h)
    if far.any():
        out[live[far]] = _disc_series(lam[far], u, first[far], _log_poisson_far, r[live[far]], h)
    return out


def _log_poisson_near(j, lam):
    """log(e^{-lam} lam^j / j!) as j log lam - lam - log j!, whose rounding
    grows with j log lam; lam below the least normal float changes no bit
    of the mass."""
    return j * np.log(np.maximum(lam, np.finfo(float).tiny)) - lam - gammaln(j + 1.0)


_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _log_poisson_far(j, lam):
    """log(e^{-lam} lam^j / j!) for j >= 1 as -bd0 - log(2 pi j)/2 - s(j)
    (Loader, 2000), with no large term to cancel: the deviance
    bd0 = j log(j/lam) + lam - j by its series in v = (j - lam)/(j + lam)
    where |v| < 0.1, and s(j) = log j! - (j + 1/2) log j + j - log(2 pi)/2
    by Stirling's series past j = 15."""
    v = (j - lam) / (j + lam)
    odd = 2.0 * j * v**3 * np.polynomial.polynomial.polyval(v * v, 1.0 / np.arange(3.0, 19.0, 2.0))
    bd0 = np.where(np.abs(v) < 0.1, (j - lam) * v + odd, j * np.log(j / lam) + lam - j)
    k = np.maximum(j, 16.0)
    s = np.where(j > 15.0, np.polynomial.polynomial.polyval(k**-2, _STIRLING) / k,
                 gammaln(j + 1.0) - (j + 0.5) * np.log(j) + j - 0.5 * math.log(2.0 * math.pi))
    return -bd0 - 0.5 * np.log(2.0 * math.pi * j) - s


def _disc_series(lam, u, first, log_poisson, radii, h):
    """_disc_mass's sums for the rows lam, each from its term j = first:
    0 for every row, or one start per row, whose skipped heads are
    bounded."""
    mode = np.minimum(lam, np.sqrt(lam * u))
    past = mode + 2.0 * np.sqrt(mode) + 1.0
    q = np.minimum(lam / (past + 1.0), lam * u / ((past + 1.0) * (past + 2.0)))
    slack = np.maximum(1.0, 3.0 * q / (1.0 - q))
    out = np.empty_like(lam)
    rows = np.arange(lam.size)
    total = np.zeros_like(lam)
    base, gamma = np.min(first), np.empty(0)
    for j0 in range(0, _MAX_SERIES_TERMS, _SERIES_CHUNK):
        j = first + np.arange(j0, j0 + _SERIES_CHUNK, dtype=float)[:, None]
        top = int(np.max(j) - base) + 1
        if top > gamma.size:  # P(j + 1, u) once per j, however many rows share it
            gamma = np.append(gamma, gammainc(base + np.arange(gamma.size, top) + 1.0, u))
        terms = np.exp(log_poisson(j, lam)) * gamma[(j - base).astype(int)]
        if j0 == 0 and np.ndim(first):  # the head bound t_j0 / (rho - 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                head = np.where(terms[0] > 0.0, terms[0] / (terms[1] / terms[0] - 1.0), 0.0)
        sums = np.cumsum(np.vstack([total, terms]), axis=0)[1:]
        done = (j >= past) & (slack * terms <= 2.0**-54 * sums)
        stop = done.any(axis=0)
        last = np.where(stop, done.argmax(axis=0), _SERIES_CHUNK - 1)
        total = sums[last, np.arange(rows.size)]
        if np.ndim(first):
            bad = stop & ~((head >= 0.0) & (3.0 * head <= 2.0**-54 * total))
            if bad.any():
                raise NumericalError(f"ball mass series skipped more than its head bound at "
                                     f"radius {radii[rows[bad][0]]:.6g}, h = {h!r}")
            first, head = first[~stop], head[~stop]
        out[rows[stop]] = total[stop]
        rows, lam, past, slack, total = (v[~stop] for v in (rows, lam, past, slack, total))
        if not rows.size:
            return out
    raise NumericalError(f"ball mass series still running after {_MAX_SERIES_TERMS} terms "
                         f"at radius {radii[rows[0]]:.6g}, h = {h!r}")


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
# Panels that bisection may add to a batch's first ones. An integrand
# noisier than rel_tol fails every panel, so the live panels double on
# each pass long before _MAX_PANEL_SPLITS. Tier-1 and the bench inputs add
# at most 53 (one row of a tempered core mass); the cap bounds each pass's
# (panels, 32) node arrays to about 17 MB past the first pass.
_MAX_ADDED_PANELS = 2**16


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
    edges wherever they fall strictly inside a row's interval. A panel
    still failing after _MAX_PANEL_SPLITS bisections, or a pass that would
    leave more than _MAX_ADDED_PANELS live panels past the first pass's,
    raises QuadratureNotConverged.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    edges = np.column_stack([a] + [np.clip(s, a, b) for s in sorted(splits)] + [b])
    p, q = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    rows = np.repeat(np.arange(a.size), edges.shape[1] - 1)
    live = p < q
    p, q, rows = p[live], q[live], rows[live]
    total = np.zeros(a.size)
    first = p.size
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
        failed = np.flatnonzero(~ok)
        if depth >= _MAX_PANEL_SPLITS or 2 * failed.size > first + _MAX_ADDED_PANELS:
            raise QuadratureNotConverged(
                f"panel [{p[failed[0]]}, {q[failed[0]]}] failed to reach rel_tol={rel_tol}, "
                f"one of {failed.size} after {depth} bisections"
            )
        p, q, rows = p[~ok], q[~ok], rows[~ok]
        mid = 0.5 * (p + q)
        p, q = np.concatenate([p, mid]), np.concatenate([mid, q])
        rows = np.concatenate([rows, rows])
        depth += 1
    return total
