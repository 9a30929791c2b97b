"""Quantitative spectral checks on top of the discrete operators.

Each report pairs measured spectra with the second-order predictions and
keeps the raw numbers, so a failed gate can be read off the report
without rerunning anything.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .densities import (MASS_RTOL, _mass_quadrature, _require_h, _require_int, eval_density,
                        kappa_analytic, tempered_A_h)
from .eigensolve import bottom_values, count_at_most, top_k
from .errors import ConfigError, InsufficientHPoints, WrongDensityKind
from .multiplier import find_min_M, gamma_d
from .operators import BANDED, Grid, build_conjugated, build_schrodinger
from .report import Report

LAMBDA_ZERO_TOL = 1e-6  # lambda_0 must sit at 1 for every h
ORDER_MIN = 3.5
ALPHA_CFG = 0.9  # curvature levels mu < ALPHA_CFG * kappa are trusted as discrete
BOX_L = 12.0  # verify_asymptotics, weyl_curve and spectral_gap run on [-BOX_L, BOX_L]^d
GRID_RULE = 10  # their T-tilde grids have delta <= h/GRID_RULE (tests/test_grid_convergence.py)
WEYL_LAMBDAS = tuple(np.linspace(0.10, 0.30, 9))  # weyl_curve's sweep; 0.3 stands in for delta_0
MU_DELTAS = (4e-3, 2e-3)  # Richardson pair for the -Lap + V reference levels
MU_1_MARGIN = 1e-2  # spectral_gap skips the pair when mu_1(MU_DELTAS[0]) > floor (1 + this)


def _even_grid(L, h, rule):
    """Smallest even N with delta = 2L/N <= h/rule."""
    n = int(math.ceil(2.0 * L * rule / h))
    return n + (n % 2)


def _box_grid(density, h):
    """The T-tilde grid of every driver here: [-BOX_L, BOX_L]^d at
    delta <= h/GRID_RULE. ConfigError unless h is finite and positive."""
    _require_h(h)
    return Grid(density.dim, BOX_L, _even_grid(BOX_L, h, GRID_RULE))


def _fit_loglog_slope(x, y):
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    A = np.column_stack([lx, np.ones_like(lx)])
    slope, _ = np.linalg.lstsq(A, ly, rcond=None)[0]
    return float(slope)


def _fit_through_origin(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.dot(x, y) / np.dot(x, x))


# ---------------------------------------------------------------------------
# reference levels of the comparison operator

def _ladder_op(density, delta):
    """-Lap + V on [-L, L], L = R + 25/alpha, at grid step <= delta: the
    grids of mu_reference's Richardson pair."""
    L = density.R + 25.0 / density.alpha
    return build_schrodinger(Grid(1, L, _even_grid(L, 1.0, 1.0 / delta)), density)


def mu_reference(density, k_max):
    """Bottom k_max+1 levels of -Lap + V, Richardson-extrapolated in delta.

    Gaussian densities in d=1,2 have the closed-form ladder spacing
    4*alpha; those values are returned directly and the extrapolation is
    reserved for densities without a closed form. No eigenvector enters
    the ladder, so its two solves ask Sturm bisection for eigenvalues
    alone (bottom_values). ConfigError unless k_max is an integer >= 0
    (and, where the ladder is solved, below MAX_K).

    The pair does not follow a clean delta^4 law on every density: on
    tempered R = 0.5, alpha = 1, where V' jumps at |x| = R, the
    (4e-3, 2e-3) pair is off a finer Romberg reference by -4.0e-7 to
    -1.6e-6 for mu_1 .. mu_3, against 2.3e-10 for R = 8. The tests hold
    the ladder to 2e-4.
    """
    k_max = _require_int("k_max", k_max, 0)
    if density.kind == "gaussian":
        levels, m = [], 0
        while len(levels) <= k_max:  # level 4 alpha m has C(m + d - 1, d - 1) states
            levels += [4.0 * density.alpha * m] * math.comb(m + density.dim - 1, density.dim - 1)
            m += 1
        return np.array(levels[: k_max + 1])
    mus = [bottom_values(_ladder_op(density, delta), k_max + 1) for delta in MU_DELTAS]
    r = (MU_DELTAS[0] / MU_DELTAS[1]) ** 2
    return (r * mus[1] - mus[0]) / (r - 1.0)


# ---------------------------------------------------------------------------
# eigenvalue asymptotics

def _top_levels(density, h, k):
    """top_k's result for the k largest eigenvalues of T-tilde on
    [-BOX_L, BOX_L]^d at delta <= h/GRID_RULE, in build_conjugated's
    default scheme (operators._SCHEME_OF_DIM). lambda_0 must be 1 within
    LAMBDA_ZERO_TOL, or the box or the d = 2 taper is too tight
    (ConfigError); the d = 1 chain has lambda_0 = 1 by construction."""
    op = build_conjugated(_box_grid(density, h), density, h)
    res = top_k(op, k)
    lam = res.eigenvalues
    if abs(lam[0] - 1.0) > LAMBDA_ZERO_TOL:
        raise ConfigError(f"lambda_0({h}) = {lam[0]!r} is not 1: box or taper too tight")
    return res


@dataclass
class AsymptoticsReport(Report):
    h_values: np.ndarray = field(metadata={"json": "h"})
    mu: np.ndarray  # reference levels, k = 0..k_max
    eigenvalues: np.ndarray  # shape (len(h), k_max+1)
    predicted: np.ndarray
    residuals: np.ndarray
    orders: np.ndarray  # p_k for k = 1..k_max
    c_fits: np.ndarray
    gaps: np.ndarray  # g(h) = 1 - lambda_1(h)
    matvecs: list  # ARPACK's solves (d = 1) or matvecs (d = 2), one count per h
    passed: bool
    gamma: float


def verify_asymptotics(density, k_max, h_list):
    """Fit the order of |1 - gamma_d mu_k h^2 - lambda_k(h)| against h,
    with lambda_k(h) the top levels of T-tilde from _top_levels (scheme:
    operators._SCHEME_OF_DIM) on [-BOX_L, BOX_L]^d at delta <= h/GRID_RULE
    (ConfigError where lambda_0 is not 1).

    PASS means every k = 1..k_max fits order >= 3.5 and the smallest-h
    residual stays within twice its own h^4 trend line (so the last point
    is on the curve, not an outlier the slope fit smoothed over). A k_max
    that is not an integer >= 1 (0 leaves no level to fit) raises
    ConfigError, and so does an h that is not finite and positive, before
    any solve.
    """
    k_max = _require_int("k_max", k_max, 1)
    h_list = [float(h) for h in h_list]
    for h in h_list:
        _require_h(h)
    if len(h_list) < 3:
        raise InsufficientHPoints(f"order fit needs >= 3 h values, got {len(h_list)}")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ConfigError("h_list must be strictly decreasing")
    gam = gamma_d(density.dim)
    mu = mu_reference(density, k_max)

    solves = [_top_levels(density, h, k_max + 1) for h in h_list]
    lams = np.array([r.eigenvalues for r in solves])
    hs = np.array(h_list)
    predicted = 1.0 - gam * np.outer(hs**2, mu)
    residuals = np.abs(predicted - lams)

    orders = np.empty(k_max)
    c_fits = np.empty(k_max)
    ok = True
    for k in range(1, k_max + 1):
        r = residuals[:, k]
        orders[k - 1] = _fit_loglog_slope(hs, r)
        c_fits[k - 1] = _fit_through_origin(hs**4, r)
        if orders[k - 1] < ORDER_MIN or r[-1] > 2.0 * c_fits[k - 1] * hs[-1] ** 4:
            ok = False
    return AsymptoticsReport(
        h_values=hs,
        mu=mu,
        eigenvalues=lams,
        predicted=predicted,
        residuals=residuals,
        orders=orders,
        c_fits=c_fits,
        gaps=1.0 - lams[:, 1],
        matvecs=[r.matvecs for r in solves],
        passed=ok,
        gamma=gam,
    )


# ---------------------------------------------------------------------------
# essential-spectrum band

@dataclass
class BandReport(Report):
    h: float
    compact: bool
    M: float
    A_h: float = float("nan")  # closed form alpha h / sinh(alpha h)
    A_h_probe: float = float("nan")  # max of 2 h rho / m_h over the tail probes
    band: tuple = ()
    kappa: float = float("nan")
    passed: bool = True


def essential_band(density, h):
    """Band [M A_h, A_h] of T-tilde, with A_h = alpha h / sinh(alpha h)
    from tempered_A_h.

    Gaussian densities have no essential band (the operator is compact);
    the report says so instead of erroring. For the tempered family,
    a_h^2 = 2 h rho / m_h is evaluated at four tail points |x| >= R + h
    with m_h from the ball-mass quadrature, not from A_h's closed form;
    PASS iff every one is within MASS_RTOL * A_h of A_h, and A_h_probe is
    their max. An h that is not finite and positive raises ConfigError.
    """
    _require_h(h)
    M = find_min_M(density.dim)[1]
    if density.kind == "gaussian":
        return BandReport(h=h, compact=True, M=M)

    A_h = tempered_A_h(density, h)
    probes = density.R + 2.0 + 0.5 * np.arange(4) + h
    a2 = 2.0 * h * eval_density(density, probes) / _mass_quadrature(density, probes, h)
    return BandReport(
        h=h,
        compact=False,
        M=M,
        A_h=A_h,
        A_h_probe=float(np.max(a2)),
        band=(M * A_h, A_h),
        kappa=kappa_analytic(density),
        passed=bool(np.all(np.abs(a2 - A_h) <= MASS_RTOL * A_h)),
    )


# ---------------------------------------------------------------------------
# Weyl counting curve

@dataclass
class WeylReport(Report):
    dim: int
    rows: list  # (h, lam, count, 1 + lam/h^2)
    exponent: float
    c_dominating: float
    passed: bool
    retries: int = 0  # flagged shifts counted by LAPACK, summed over h


def weyl_curve(density, h_list):
    """Count N(lambda, h) = #{eigenvalues of T-tilde in [1-lambda, 1]} for
    lambda in WEYL_LAMBDAS (0.10 to 0.30 in steps of 0.025) and fit the
    growth exponent against 1 + lambda h^{-2}.

    T-tilde is the banded scheme on [-BOX_L, BOX_L]^d at delta <= h/GRID_RULE.
    It is similar to the row-stochastic Markov form, so all its n
    eigenvalues are at most 1 and N(lambda, h) = n - #{<= 1 - lambda},
    all from one count_at_most call on the whole h_list's operators. PASS
    iff the fitted exponent is <= d + 0.3; the dominating constant
    max N / (1 + lambda h^{-2})^d is reported alongside. Fewer than two
    distinct abscissae with N >= 1 leave the exponent undetermined: it is
    reported as nan and the check fails; with none, c_dominating is nan
    too. An empty h_list, or an h that is not finite and positive, raises
    ConfigError before any count.
    """
    if density.kind != "gaussian":
        raise WrongDensityKind("the counting bound is checked on Gaussian densities")
    if len(h_list) == 0:
        raise ConfigError("the Weyl sweep needs at least one h")

    grids = [_box_grid(density, h) for h in h_list]
    ops = [build_conjugated(g, density, h, scheme=BANDED) for h, g in zip(h_list, grids)]
    counts, flagged = count_at_most(ops, 1.0 - np.array(WEYL_LAMBDAS))
    rows = []
    for h, g, row in zip(h_list, grids, counts):
        for lam, below in zip(WEYL_LAMBDAS, row):
            rows.append((float(h), float(lam), int(g.size - below), 1.0 + lam / h**2))

    pts = [(s, n) for _, _, n, s in rows if n >= 1]
    if len({s for s, _ in pts}) >= 2:
        exponent = _fit_loglog_slope([s for s, _ in pts], [n for _, n in pts])
    else:
        exponent = math.nan
    c_dom = max((n / s**density.dim for s, n in pts), default=math.nan)
    return WeylReport(
        dim=density.dim,
        rows=rows,
        exponent=exponent,
        c_dominating=float(c_dom),
        passed=bool(exponent <= density.dim + 0.3),
        retries=int(flagged.sum()),
    )


# ---------------------------------------------------------------------------
# spectral gap

@dataclass
class GapReport(Report):
    h: float
    gap: float
    lambda_1: float
    comparison: float  # h^2 gamma_d min(mu_1, (1-alpha_cfg) kappa)
    alpha_cfg: float
    matvecs: int  # ARPACK's solves (d = 1) or matvecs (d = 2) for lambda_1


def _mu_1_if_below(density, floor):
    """mu_reference's mu_1 where it can decide min(mu_1, floor), inf where
    it cannot. With a finite floor (tempered), one Sturm pass on the
    coarser ladder grid first bisects only the levels up to
    floor * (1 + MU_1_MARGIN); without a second one there, mu_1 is above
    the floor and the Richardson pair is not solved. Measured over alpha
    0.5-2 and R 0.1-8, the extrapolation moves the coarse mu_1 by at most
    3.3e-5 of the floor, well inside the margin."""
    if math.isfinite(floor):
        op = _ladder_op(density, MU_DELTAS[0])
        if bottom_values(op, 2, upto=floor * (1.0 + MU_1_MARGIN)).size < 2:
            return math.inf
    return float(mu_reference(density, 1)[1])


def spectral_gap(density, h):
    """Gap 1 - lambda_1 of T-tilde from _top_levels (scheme:
    operators._SCHEME_OF_DIM) on [-BOX_L, BOX_L]^d at delta <= h/GRID_RULE,
    next to h^2 gamma_d min(mu_1, (1 - ALPHA_CFG) kappa),
    with mu_1 solved only where it can be below the floor (_mu_1_if_below).
    Like verify_asymptotics, it refuses (ConfigError) an h that is not
    finite and positive, and a grid where lambda_0 is not 1 within
    LAMBDA_ZERO_TOL."""
    res = _top_levels(density, h, 2)
    lam = res.eigenvalues
    kappa = kappa_analytic(density)
    floor = (1.0 - ALPHA_CFG) * kappa if math.isfinite(kappa) else math.inf
    comparison = h**2 * gamma_d(density.dim) * min(_mu_1_if_below(density, floor), floor)
    return GapReport(
        h=h,
        gap=float(1.0 - lam[1]),
        lambda_1=float(lam[1]),
        comparison=float(comparison),
        alpha_cfg=ALPHA_CFG,
        matvecs=res.matvecs,
    )
