"""Ball-walk simulation and total-variation analysis.

Sampling is exact rejection against closed-form envelopes: a step bounds
rho over the ball at the point nearest the origin, and the stationary
sampler is one loop that tests its envelope ratio r before r m_h / m_h(0).
Witness lower bounds on TV come from quadrature. The exact grid evolution,
_evolve, carries the deviation e = p - nu from the stationary measure nu
under DiscreteOperator.powers of the Markov form's transpose, of which nu
is an exact fixed point; TV is 1 . |e| / 2. It has two consumers:
gap-rate upper bounds fitted to the curves from many starts (their TV one
abs and one GEMV per cache-sized row chunk), and Monte-Carlo paths
checked against the curve from their own start.

The many-start curves evolve only the rows that some TV value can see.
The chain is reversible for nu, so p_n(y) = nu(y) P^n(y, x0) / nu(x0) <=
nu(y) / nu(x0) and |e_n(y)| <= beta nu(y), beta = 1 + 1 / min nu(start).
P^T cut to a row window W does not grow the 1-norm, so each TV_n moves by
at most (n + 1) beta nu(W^c) / 2 against the whole box; _tv_window drops
the outer rows while that stays below 2^-65.
"""

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .densities import (_adaptive_gl, _adaptive_gl_batch, _finite_real, _log_rho_at_radius,
                        _radius, _require_h, _require_int, _require_positive, _rho_at_radius,
                        ball_mass_grid, eval_density)
from .errors import ConfigError, RejectionBudgetExceeded, WitnessHypothesisViolated
from .operators import Grid, build_markov
from .report import Report

RNG_ALGORITHM = "philox4x64"  # counter-based: reproducible and splittable
REJECTION_BUDGET = 10**6
_NU_RTOL = 1e-12
TV_START_STRIDE = 4  # every 4th node inside |x| < tau starts a TV curve


def make_rng(seed):
    """Philox generator; ConfigError unless seed is an integer >= 0."""
    return np.random.Generator(np.random.Philox(_require_int("seed", seed, 0)))


# ---------------------------------------------------------------------------
# exact samplers

def step_sample(density, h, x, rng):
    """One exact draw from t_h(x, .): the one-point case of _step_batch
    (a float for d = 1, a length-2 array for d = 2). A bad h, or a
    non-finite x that no proposal could leave, raises ConfigError."""
    _require_h(h)
    if not np.all(np.isfinite(x)):
        raise ConfigError(f"step start must be finite, got {x!r}")
    row = np.reshape(np.asarray(x, dtype=float), (1, 2) if density.dim == 2 else (1,))
    y = _step_batch(density, h, row, rng)[0]
    return float(y) if density.dim == 1 else y


def _step_batch(density, h, xs, rng):
    """Advance every point of xs ((n,) for d = 1, (n, 2) for d = 2) one
    step by vectorized rejection: proposals x + h u, u uniform in [-1, 1]^d
    (outside the unit ball: rejected), under the envelope rho at radius
    max(|x| - h, 0), where rho peaks over the ball: accept when
    v rho_sup <= rho(y), v uniform in [0, 1). Where rho_sup is not a
    normal float (rho underflows over the ball, and the product test would
    read 0 <= 0), the same test runs in log space on the closed-form
    log rho, log v + log rho_sup <= log rho(y). Each pass gives every
    live point one trial: one still live after REJECTION_BUDGET passes
    raises RejectionBudgetExceeded."""
    xs = np.asarray(xs, dtype=float)
    out = xs.copy()
    alive = np.ones(xs.shape[0], dtype=bool)
    passes = 0
    while alive.any():
        idx = np.nonzero(alive)[0]
        x = out[idx]
        u = rng.uniform(-1.0, 1.0, size=x.shape)
        y = x + h * u
        r_sup = np.maximum(_radius(density, x) - h, 0.0)
        sup = _rho_at_radius(density, r_sup)
        v = rng.uniform(size=idx.size)
        ok = v * sup <= eval_density(density, y)
        low = sup < np.finfo(float).tiny
        if low.any():
            with np.errstate(divide="ignore"):  # v = 0 accepts, log v = -inf
                ok[low] = np.log(v[low]) + _log_rho_at_radius(density, r_sup[low]) <= (
                    _log_rho_at_radius(density, _radius(density, y[low])))
        ok &= _radius(density, u) <= 1.0  # always true for d = 1
        out[idx[ok]] = y[ok]
        alive[idx[ok]] = False
        passes += 1
        if passes >= REJECTION_BUDGET and alive.any():
            raise RejectionBudgetExceeded(f"path stuck after {REJECTION_BUDGET} trials")
    return out


def sample_stationary(density, h, rng, size):
    """size exact draws from nu_h ~ m_h rho by one rejection loop.

    Proposals X come from g = rho (Gaussian) or the Laplace density
    alpha/2 e^{-alpha|x|}, which dominates rho/c at c = 2 beta/alpha since
    s(x) >= |x| (tempered). X is kept when u m_h(0) <= r(X) m_h(X), with
    r = rho/(c g). m_h peaks at the origin, so u > r(X) rejects without
    the mass, which ball_mass_grid computes only where u <= r(X). An
    envelope accepting fewer than 1 in REJECTION_BUDGET proposals is
    refused before any draw; past that, REJECTION_BUDGET proposals per draw.
    A size that is not an integer >= 1 raises ConfigError.
    """
    if density.dim != 1:
        raise ConfigError("stationary sampling is implemented for d = 1")
    n = _require_int("size", size, 1)
    m0 = ball_mass_grid(density, 0.0, h)
    gaussian = density.kind == "gaussian"
    c = 1.0 if gaussian else 2.0 * density.beta / density.alpha
    if c > REJECTION_BUDGET:
        raise RejectionBudgetExceeded(f"the proposal envelope accepts {1.0 / c:.3g} of its "
                                      f"draws, fewer than 1 in {REJECTION_BUDGET}")
    got, proposals = np.empty(0), 0
    while got.size < n:
        chunk = max(2 * (n - got.size), 64)
        proposals += chunk
        if proposals > REJECTION_BUDGET * n:
            raise RejectionBudgetExceeded(f"stationary sampler starved after {proposals} proposals")
        if gaussian:
            x = rng.normal(0.0, 1.0 / math.sqrt(2.0 * density.alpha), size=chunk)
            r = np.ones(chunk)
        else:
            x = rng.laplace(0.0, 1.0 / density.alpha, size=chunk)
            r = eval_density(density, x) / (density.beta * np.exp(-density.alpha * np.abs(x)))
        u = rng.uniform(size=chunk)
        ok = u <= r
        x, u, r = x[ok], u[ok], r[ok]
        got = np.concatenate([got, x[u * m0 <= r * ball_mass_grid(density, x, h)]])
    return got[:n]


# ---------------------------------------------------------------------------
# quadrature of nu_h

def _decay_cut(density, extra=0.0):
    if density.kind == "gaussian":
        return math.sqrt(45.0 / density.alpha) + extra
    return density.R + 45.0 / density.alpha + extra


def _require_tau(tau):
    if not (_finite_real(tau) and tau >= 0):
        raise ConfigError(f"tau must be finite and >= 0, got {tau!r}")


def nu_h_tail(density, h, tau):
    """nu_h(|y| >= tau) by quadrature (d = 1); ConfigError unless h is
    finite and positive and tau finite and >= 0."""
    _require_h(h)
    _require_tau(tau)
    if density.dim != 1:
        raise ConfigError("nu_h quadrature is implemented for d = 1")
    cut = _decay_cut(density, extra=h)
    if tau >= cut:
        return 0.0

    def nu_density(rows, x):
        return ball_mass_grid(density, x, h) * eval_density(density, x)

    splits = (density.R - h, density.R, density.R + h)  # joints of the tempered rho and m_h
    # the normalizer and the tail are two rows of one batch
    z, tail = _adaptive_gl_batch(nu_density, [0.0, tau], [cut, cut], _NU_RTOL, splits)
    return float(tail / z)


def p_tau(density, h, tau):
    """The tail weight the lower-bound theorem pairs with the witness:
    e^{-2 alpha tau (tau - h)} for the Gaussian family, the squared-density
    tail integral for the tempered one; ConfigError unless h is finite
    and positive and tau finite and >= 0."""
    _require_h(h)
    _require_tau(tau)
    if density.kind == "gaussian":
        return math.exp(-2.0 * density.alpha * tau * (tau - h))
    rho2 = lambda x: eval_density(density, x) ** 2
    return 2.0 * _adaptive_gl(rho2, tau, _decay_cut(density), _NU_RTOL, (density.R,))


# ---------------------------------------------------------------------------
# exact grid evolution

def _require_tv_grid(grid, h):
    _require_h(h)
    if grid.dim != 1:
        raise ConfigError("the exact TV evolution is implemented for d = 1")
    if grid.delta > h / 20.0 + 1e-15:
        raise ConfigError(f"TV grid needs delta <= h/20, got delta={grid.delta}")


def _evolve(P, starts, n_max):
    """Yield e_n = p_n - nu, n = 0 .. n_max, the deviations from P's
    stationary measure nu of the row measures p_n = p_0 P^n, one column of
    an (n, S) block per node of `starts` (a point mass there).

    nu is a fixed point of P^T, P with its scales swapped, so e_n is the
    n-th power of P^T on e_0: -nu broadcast, no (n, S) array of its own,
    with the point masses added to the first view powers yields. Each e_n
    is a view that the step to e_{n+2} overwrites (a caller must be done
    with e_n before it asks for e_{n+2}).
    """
    nu = P.meta["stationary"]
    PT = replace(P, lscale=P.rscale, rscale=P.lscale)
    powers = PT.powers(np.broadcast_to(-nu[:, None], (nu.size, len(starts))), n_max)
    e = next(powers)
    e[starts, np.arange(len(starts))] += 1.0
    yield e
    yield from powers


# Every TV_n of a trimmed box is within this of the whole box's: half an
# ulp of 2^-12, far below the rounding of the 1 . |e_n| sum itself.
_TV_TRIM = 2.0**-65


def _tv_window(P, starts, n_max):
    """P on the rows _evolve_tv evolves for n <= n_max from `starts`, and
    the starts as indices into those rows.

    The window drops lo rows at each end, the most with
    beta nu(dropped) <= _TV_TRIM / (n_max + 1) that keep every start and
    at least 8 rows. It is the cell-centred Grid(1, L - lo delta, N - 2 lo),
    and P on it is P with its scales and nu sliced; nu is not
    renormalized, so e_0 on the window is the whole box's. A start where
    nu is subnormal or 0, so that beta overflows, keeps the whole box.
    """
    starts = np.asarray(starts)
    nu, N = P.meta["stationary"], P.grid.N
    nu0 = nu[starts].min()
    if not nu0 >= np.finfo(float).tiny:
        return P, starts
    half = N // 2 - 4
    outer = np.cumsum(nu[:half]) + np.cumsum(nu[: -half - 1 : -1])
    lo = np.searchsorted((1.0 + 1.0 / nu0) * outer, _TV_TRIM / (n_max + 1), side="right")
    lo = int(min(lo, starts.min(), N - 1 - starts.max()))
    keep = slice(lo, N - lo)
    grid = Grid(1, P.grid.L - lo * P.grid.delta, N - 2 * lo)
    return replace(P, grid=grid, lscale=P.lscale[keep], rscale=P.rscale[keep],
                   meta={"stationary": nu[keep]}), starts - lo


# Rows per chunk of the TV reduction, whose (chunk, S) scratch stays in
# cache between its abs and weighted sum. Interleaved timings of
# _evolve_tv over 200 steps of 100 starts, one BLAS thread, 2 shared
# CPUs, on the 1,516-row window of the 2,400-node grid (Gaussian
# alpha = 0.5, h = 0.25), best of 5 in each of 10 rounds: 128, 256 and
# 512 rows tie (medians 129, 127 and 131 ms; 128 beats 256 in 2 rounds,
# 512 in 4). On all 2,400 rows 1024 took 134-146 ms and one unchunked
# pass 149-153 ms, against 131-139 ms for 128 to 512.
_TV_CHUNK_ROWS = 256


def _evolve_tv(P, starts, n_max):
    """TV distances to P's stationary measure nu of the row measures
    p_n = p_0 P^n from point masses at the nodes `starts`, evolved together
    by _evolve as the columns of one (n, S) block of deviations e_n; returns
    the (n_max + 1, S) table TV_n = 1 . |e_n| / 2, one abs and one GEMV per
    chunk of _TV_CHUNK_ROWS rows through one (chunk, S) scratch.

    The block holds only the rows of _tv_window, so every TV_n is within
    _TV_TRIM = 2^-65 of the whole box's (the bound is in the module
    docstring).
    """
    P, starts = _tv_window(P, starts, n_max)
    n, S = P.grid.size, len(starts)
    chunks = [slice(lo, min(lo + _TV_CHUNK_ROWS, n)) for lo in range(0, n, _TV_CHUNK_ROWS)]
    ones = np.ones(min(_TV_CHUNK_ROWS, n))
    scratch = np.empty((ones.size, S))
    part = np.empty((len(chunks), S))
    tv = np.empty((n_max + 1, S))
    for k, e in enumerate(_evolve(P, starts, n_max)):
        for j, c in enumerate(chunks):
            d = scratch[: c.stop - c.start]
            np.abs(e[c], out=d)
            np.matmul(ones[: len(d)], d, out=part[j])
        part.sum(axis=0, out=tv[k])
    tv *= 0.5
    return tv


# ---------------------------------------------------------------------------
# witness lower bound

@dataclass
class WitnessReport(Report):
    value: float  # 1 - nu_h(|y| >= tau)
    nu_tail: float
    p_tau: float
    implied_C: float
    x: float
    tau: float
    n: int
    h: float


def tv_lower_bound_witness(density, h, x, tau, n):
    """Finite speed: n steps from x with |x| >= tau + (n+1)h cannot reach
    |y| < tau, so the +-1 indicator witness evaluates exactly and the TV
    lower bound reduces to 1 - nu_h(|y| >= tau), a pure quadrature. An h
    that is not finite and positive, an n that is not an integer >= 0, a
    non-finite x or a tau that is not finite and >= 0 raises ConfigError."""
    _require_h(h)
    n = _require_int("n", n, 0)
    if not (_finite_real(x) and _finite_real(tau) and tau >= 0):
        raise ConfigError(f"witness needs finite x and finite tau >= 0: got {x!r}, {tau!r}")
    if abs(x) < tau + (n + 1) * h:
        raise WitnessHypothesisViolated(
            f"|x|={abs(x)} < tau + (n+1)h = {tau + (n + 1) * h}"
        )
    tail = nu_h_tail(density, h, tau)
    p = p_tau(density, h, tau)
    return WitnessReport(
        value=1.0 - tail,
        nu_tail=tail,
        p_tau=p,
        implied_C=tail / p if p > 0 else math.inf,
        x=float(x),
        tau=float(tau),
        n=n,
        h=float(h),
    )


# ---------------------------------------------------------------------------
# gap-rate upper bound

@dataclass
class UpperBoundReport(Report):
    q: float
    gap: float
    c_fit: float
    ns: np.ndarray
    bound: np.ndarray  # c_fit * q * exp(-n g)
    envelope: np.ndarray  # max over starts of the exact curves
    dominated: bool
    fit_horizon: int


def q_factor(density, h, tau):
    """q(tau, h): e^{alpha tau (tau + 3h)} (Gaussian) or 1 / (rho(tau)
    h^{d/2}) (tempered, rho radially nonincreasing). ConfigError unless h
    is finite and positive, tau finite and >= 0, q a finite float and a
    tempered rho(tau) a normal one."""
    _require_h(h)
    _require_tau(tau)
    if density.kind == "gaussian":
        power = density.alpha * tau * (tau + 3.0 * h)
        q = math.exp(power) if power <= math.log(sys.float_info.max) else math.inf
    else:
        rho = float(eval_density(density, tau))
        q = 1.0 / rho / math.sqrt(h) ** density.dim if rho >= sys.float_info.min else math.inf
    if not math.isfinite(q):
        raise ConfigError(f"q(tau, h) overflows a float at tau = {tau!r}, h = {h!r}")
    return q


def tv_upper_bound_curve(density, h, tau, n_max, grid, gap):
    """Envelope of exact TV curves over starts |x0| < tau against
    C q(tau,h) e^{-n g(h)}, with C fitted on the window n <= n_max // 2.

    Every TV_START_STRIDE-th node inside |x| < tau is a start; all of them
    evolve together under one Markov operator. TV is against the grid
    chain's own stationary measure (rho * m normalized), which the
    continuum nu_h approaches as delta -> 0: the bin-projection estimator
    of d_TV(T^n(x, .), nu_h). Each curve is within 2^-65 of the whole
    box's: by reversibility p_n(y) <= nu(y) / nu(x0), so the rows where
    beta nu, beta = 1 + 1 / min nu(x0), sums below 2^-65 / (n_max + 1) are
    not evolved, and P^T cut to the rest does not grow the 1-norm
    (_tv_window).

    The fit window keeps the domination check honest: the fitted constant
    has to keep dominating beyond the data that produced it. An n_max
    that is not an integer >= 2 (no step in the window), a tau or a gap
    not finite and positive, a q that overflows, or a q e^{-n g} below
    the smallest normal float inside the window: ConfigError.
    """
    _require_tv_grid(grid, h)
    n_max = _require_int("n_max", n_max, 2)
    if not _finite_real(tau):
        raise ConfigError(f"the TV curve needs a finite tau, got {tau!r}")
    _require_positive("gap", gap)
    fit_horizon = n_max // 2
    starts = np.flatnonzero(np.abs(grid.axis_nodes()) < tau)[::TV_START_STRIDE]
    if starts.size == 0:
        raise ConfigError("no grid starts inside |x| < tau")
    q = q_factor(density, h, tau)
    if q * math.exp(-gap * fit_horizon) < sys.float_info.min:
        raise ConfigError(f"q e^(-gap n) underflows by n = {fit_horizon} at gap = {gap!r}")
    tv = _evolve_tv(build_markov(grid, density, h), starts, n_max)
    env = tv.max(axis=1)
    ns = np.arange(n_max + 1)
    shape = q * np.exp(-gap * ns)
    c_fit = float(np.max(env[: fit_horizon + 1] / shape[: fit_horizon + 1]))
    bound = c_fit * shape
    return UpperBoundReport(
        q=q,
        gap=gap,
        c_fit=c_fit,
        ns=ns,
        bound=bound,
        envelope=env,
        dominated=bool(np.all(env <= bound * (1.0 + 1e-12))),
        fit_horizon=fit_horizon,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo paths

@dataclass
class WalkConfig:
    density: object
    h: float
    x0: float = None  # None means: start from sample_stationary
    paths: int = 10**5
    n_max: int = 50
    seed: int = 0

    def __post_init__(self):
        _require_h(self.h)
        _require_int("paths", self.paths, 1)
        _require_int("n_max", self.n_max, 0)
        _require_int("seed", self.seed, 0)


@dataclass
class PathReport(Report):
    config: WalkConfig = field(metadata={"json": ("paths", "seed")})
    ns: np.ndarray
    tv_mc: np.ndarray
    tv_mc_se: np.ndarray
    tv_exact: np.ndarray
    final_positions: np.ndarray = field(metadata={"json": None})
    rng_algorithm: str = field(default=RNG_ALGORITHM, metadata={"json": "rng"})


def _cell_index(grid, xs):
    idx = np.floor((xs + grid.L) / grid.delta).astype(np.int64)
    return np.clip(idx, 0, grid.N - 1)


def _agresti_coull_se(emp, n):
    """SE of a binomial proportion emp over n draws, taken at the
    Agresti-Coull centre (k + 2) / (n + 4) so it is positive at 0 and 1."""
    centre = (emp * n + 2.0) / (n + 4.0)
    return math.sqrt(centre * (1.0 - centre) / (n + 4.0))


def simulate_paths(config, grid):
    """Run the ensemble and estimate TV against the exact evolution.

    The exact curve is one column of _evolve, p_n - nu, from a point mass
    at the node nearest x0. From stationarity p_n = nu exactly,
    the grid chain's nu being stationary, so nothing is evolved. The grid
    must pass _require_tv_grid, and x0 must be None or finite inside the
    box, |x0| < grid.L (ConfigError otherwise).

    From x0, tv_mc[0] is not comparable with tv_exact[0]: the paths start
    at x0, binned by floor, and the exact curve at the nearest node. At
    x0 = 2.0 on Grid(1, 12, 2400), a cell boundary, those are cell 1400
    and node 1399, so tv_mc[0] is about 0 against tv_exact[0] about 1.

    The per-n estimator is the signed measure difference on the exact
    curve's maximizing set A*_n = {p_n > nu}: a binomial proportion, so it
    is unbiased with an exact standard error, unlike the plug-in half-l1
    distance whose positive bias grows with the bin count. When p_n = nu
    (stationary start) the set degenerates to the cells from the grid
    centre to the nu-median, about 1% of nu at h = 0.25 on 2400 nodes.
    The standard error is the Agresti-Coull one, which stays away from
    zero when every path or none lands in the set.

    The continuum paths and the grid chain differ by O(delta), and the
    difference belongs to the grid chain, not to the estimator or the
    sampler: a grid row reaches only (K + 1/2) delta = h - delta/2 from
    its node, where the continuum ball reaches h, so about delta/(2h) of
    the n = 1 mass falls outside the witness set. From a node start the
    n = 1 offset is about -2.07 delta (about 15 SE with 20k paths from
    x0 = 2 at delta = 0.01); it is a few SE at n = 2 and halves with
    delta.
    """
    _require_tv_grid(grid, config.h)
    if config.x0 is not None and not abs(float(config.x0)) < grid.L:
        raise ConfigError(f"x0 must be None or finite with |x0| < L = {grid.L}, got {config.x0}")
    dens = config.density
    rng = make_rng(config.seed)
    P = build_markov(grid, dens, config.h)
    nu = P.meta["stationary"]

    if config.x0 is None:
        xs = sample_stationary(dens, config.h, rng, size=config.paths)
        diffs = [np.zeros(grid.size)] * (config.n_max + 1)
    else:
        xs = np.full(config.paths, float(config.x0))
        start = np.argmin(np.abs(grid.axis_nodes() - config.x0))
        diffs = (e[:, 0] for e in _evolve(P, [start], config.n_max))

    # fallback witness set: the cells from the grid centre to the nu-median
    half = np.searchsorted(np.cumsum(nu), 0.5)
    fixed_set = np.zeros(grid.size, dtype=bool)
    lo, hi = sorted((grid.N // 2, half))
    fixed_set[lo : hi + 1] = True

    ns = np.arange(config.n_max + 1)
    tv_mc = np.empty(ns.size)
    tv_se = np.empty(ns.size)
    tv_exact = np.empty(ns.size)
    for n, diff in enumerate(diffs):
        tv_exact[n] = 0.5 * np.sum(np.abs(diff))
        mask = diff > 0 if np.max(np.abs(diff)) > 1e-12 else fixed_set
        emp = np.mean(mask[_cell_index(grid, xs)])
        tv_mc[n] = emp - float(np.sum(nu[mask]))
        tv_se[n] = _agresti_coull_se(emp, config.paths)
        if n < config.n_max:
            xs = _step_batch(dens, config.h, xs, rng)
    return PathReport(
        config=config,
        ns=ns,
        tv_mc=tv_mc,
        tv_mc_se=tv_se,
        tv_exact=tv_exact,
        final_positions=xs,
    )
