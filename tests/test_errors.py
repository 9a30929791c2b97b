"""Error paths that span the package.

Every error the package raises on purpose is a typed error from
ballwalk.errors: a lint over the source keeps a bare ValueError (or any
other builtin) from coming back. Every entry point where a ball radius h
enters refuses one that is not finite and positive with the same
ConfigError, before any draw, solve or quadrature, and every entry point
where a count enters (k, k_max, size, paths, n_max, n, seed) refuses one
that is not an integer in range with one ConfigError naming the argument.
"""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from ballwalk import errors, walk
from ballwalk.analysis import essential_band, spectral_gap, verify_asymptotics, weyl_curve
from ballwalk.densities import (ball_mass_grid, eval_density, eval_potential, make_density,
                                tempered_A_h)
from ballwalk.eigensolve import (bottom_k, bottom_values, count_at_most, dense_reference,
                                 levels_at_most, top_k)
from ballwalk.errors import ConfigError, NumericalError, RejectionBudgetExceeded
from ballwalk.multiplier import eval_Gd
from ballwalk.operators import (
    BANDED,
    MULTIPLIER,
    Grid,
    band_weights,
    build_ball_average,
    build_conjugated,
    build_markov,
    build_schrodinger,
    taper_profile,
)
from ballwalk.walk import (
    WalkConfig,
    make_rng,
    nu_h_tail,
    p_tau,
    q_factor,
    sample_stationary,
    simulate_paths,
    step_sample,
    tv_lower_bound_witness,
    tv_upper_bound_curve,
)

SRC = Path(errors.__file__).parent
TYPED = {name for name, obj in vars(errors).items()
         if inspect.isclass(obj) and obj.__module__ == errors.__name__}


def _raised_class(exc):
    node = exc.func if isinstance(exc, ast.Call) else exc
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", ast.unparse(node))


def test_every_raise_is_a_typed_error():
    # a bare re-raise (`raise` with no operand) passes on what it caught
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 8
    untyped = [
        f"{path.name}:{node.lineno} raises {_raised_class(node.exc)}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_class(node.exc) not in TYPED
    ]
    assert not untyped, "\n".join(untyped)


GAUSS = make_density("gaussian", 1, 0.5)
TEMPERED = make_density("tempered", 1, 1.0, R=0.5)
GRID = Grid(1, 12.0, 2400)
COUNT_T = build_conjugated(Grid(1, 9.0, 360), GAUSS, 0.25, scheme=BANDED)
COUNT_SCHROD = build_schrodinger(Grid(1, 9.0, 360), GAUSS)


def _paths_with_h(h):
    # WalkConfig refuses the h itself; past it, simulate_paths checks again
    cfg = WalkConfig(GAUSS, 0.25, x0=1.0, paths=10, n_max=2)
    cfg.h = h
    return simulate_paths(cfg, GRID)


@pytest.mark.parametrize("h", [0.0, -0.25, math.nan, math.inf, None, "0.25"])
@pytest.mark.parametrize("call", [
    lambda h, rng: ball_mass_grid(GAUSS, [0.0, 1.0], h),
    lambda h, rng: step_sample(GAUSS, h, 0.5, rng),
    lambda h, rng: step_sample(make_density("gaussian", 2, 0.5), h, [0.5, 0.0], rng),
    lambda h, rng: sample_stationary(GAUSS, h, rng, size=10),
    lambda h, rng: WalkConfig(GAUSS, h, x0=1.0),
    lambda h, rng: _paths_with_h(h),
    lambda h, rng: tv_upper_bound_curve(GAUSS, h, 1.0, 20, GRID, 0.05),
    lambda h, rng: tv_lower_bound_witness(GAUSS, h, 6.0, 2.0, 3),
    lambda h, rng: build_conjugated(GRID, GAUSS, h, scheme=MULTIPLIER),
    lambda h, rng: build_conjugated(GRID, GAUSS, h, scheme=BANDED),
    lambda h, rng: build_markov(GRID, GAUSS, h),
    lambda h, rng: build_ball_average(GRID, h, scheme=BANDED),
    lambda h, rng: tempered_A_h(TEMPERED, h),
    lambda h, rng: p_tau(GAUSS, h, 1.0),
    lambda h, rng: nu_h_tail(GAUSS, h, 100.0),
    lambda h, rng: q_factor(TEMPERED, h, 1.0),
    lambda h, rng: band_weights(h, 0.01),
    lambda h, rng: taper_profile(GRID, h, 0.5),
], ids=["ball_mass_grid", "step_sample", "step_sample-d2", "sample_stationary", "WalkConfig",
        "simulate_paths", "tv_upper_bound_curve", "tv_lower_bound_witness", "build_conjugated",
        "build_conjugated-banded", "build_markov", "build_ball_average", "tempered_A_h", "p_tau",
        "nu_h_tail", "q_factor", "band_weights", "taper_profile"])
def test_bad_h_refused_at_every_entry_point(call, h):
    # at h = nan the step sampler used to spin its whole rejection budget;
    # unchecked, tempered_A_h divided by zero at h = 0 and returned a value
    # at h < 0, p_tau and nu_h_tail (tau = 100, past the decay cut)
    # returned one at h < 0, and q_factor hit a math domain error at h < 0
    # and called a NaN h an overflow; band_weights raised an untyped
    # ValueError at h = nan and an OverflowError at h = inf, and
    # taper_profile returned a profile at h = 0 and h < 0, all NaN at nan;
    # an h of None or a string raised a TypeError from math.isfinite
    rng = make_rng(4)
    with pytest.raises(ConfigError, match="h must be finite and positive"):
        call(h, rng)
    assert rng.uniform() == make_rng(4).uniform()  # no draw was made


@pytest.mark.parametrize("call", [
    lambda: make_density("gaussian", 1, math.inf),
    lambda: make_density("gaussian", 1, math.nan),
    lambda: make_density("tempered", 1, math.inf, R=0.5),
    lambda: make_density("tempered", 1, 1.0, R=math.inf),
    lambda: make_density("tempered", 1, 1.0, R=math.nan),
    lambda: Grid(1, math.inf, 8),
    lambda: Grid(1, math.nan, 8),
    lambda: tv_upper_bound_curve(GAUSS, 0.25, 1.0, 20, GRID, math.nan),
    lambda: tv_upper_bound_curve(GAUSS, 0.25, 1.0, 20, GRID, math.inf),
    lambda: tv_upper_bound_curve(GAUSS, 0.25, 1.0, 20, GRID, -1.0),
    lambda: tv_upper_bound_curve(GAUSS, 0.25, 1.0, 20, GRID, 0.0),
    lambda: nu_h_tail(GAUSS, 0.25, -1.0),
    lambda: nu_h_tail(GAUSS, 0.25, math.nan),
    lambda: nu_h_tail(GAUSS, 0.25, math.inf),
    lambda: p_tau(GAUSS, 0.25, math.nan),
    lambda: p_tau(make_density("tempered", 1, 1.0, R=0.5), 0.25, -1.0),
    lambda: q_factor(GAUSS, 0.25, -1.0),
    lambda: band_weights(0.25, 0.0),
    lambda: band_weights(0.25, math.nan),
    lambda: band_weights(0.25, -0.1),
    lambda: taper_profile(GRID, 0.25, 0.0),
    lambda: taper_profile(GRID, 0.25, -1.0),
    lambda: eval_Gd(1, math.nan),
    lambda: eval_Gd(2, [1.0, math.nan]),
    lambda: eval_Gd(1, math.inf),
    lambda: eval_Gd(2, [1.0, math.inf]),
    lambda: Grid(1, 1e308, 8),
    lambda: eval_density(GAUSS, [0.0, math.nan]),
    lambda: eval_density(make_density("gaussian", 2, 0.5), [math.nan, 0.0]),
    lambda: eval_potential(GAUSS, math.nan),
    lambda: eval_potential(TEMPERED, [1.0, math.nan]),
    lambda: ball_mass_grid(GAUSS, math.nan, 0.25),
    lambda: ball_mass_grid(TEMPERED, [0.1, math.nan], 0.25),
    lambda: ball_mass_grid(make_density("gaussian", 2, 0.5), [[0.0, 0.0], [math.nan, 1.0]], 0.4),
], ids=["gaussian-alpha-inf", "gaussian-alpha-nan", "tempered-alpha-inf", "tempered-R-inf",
        "tempered-R-nan", "grid-L-inf", "grid-L-nan", "gap-nan", "gap-inf", "gap-negative",
        "gap-zero", "nu_h_tail-tau-negative", "nu_h_tail-tau-nan", "nu_h_tail-tau-inf",
        "p_tau-tau-nan", "p_tau-tau-negative", "q_factor-tau-negative", "band_weights-delta-zero",
        "band_weights-delta-nan", "band_weights-delta-negative", "taper_profile-alpha-zero",
        "taper_profile-alpha-negative", "eval_Gd-nan", "eval_Gd-d2-nan", "eval_Gd-inf",
        "eval_Gd-d2-inf", "grid-delta-overflows", "eval_density-nan", "eval_density-d2-nan",
        "eval_potential-nan", "eval_potential-tempered-nan", "ball_mass_grid-nan",
        "ball_mass_grid-tempered-nan", "ball_mass_grid-d2-nan"])
def test_non_finite_inputs_refused(call):
    # alpha = inf once gave a Density with beta = inf, R or L = inf a bare
    # RuntimeWarning, a nan or negative gap a silent c_fit = nan or a
    # "dominated" verdict against a growing bound, and a tau < 0 or nan a
    # "probability" nu_h_tail of 1.84 or 0.0, a p_tau of nan and a q_factor
    # at tau = -1; band_weights divided by a zero delta, gave an untyped
    # ValueError at nan and a misleading KernelUnderResolved at -0.1,
    # taper_profile divided by a zero alpha and hit a math domain error at
    # -1, and eval_Gd returned nan for a NaN or infinite radius; a Grid
    # with a finite L whose delta = 2L/N overflows had nodes at +-inf; a
    # NaN point gave a NaN density, potential and d = 1 mass, and the
    # d = 2 quadrature mass raised QuadratureNotConverged
    with pytest.raises(ConfigError, match="finite"):
        call()


@pytest.mark.parametrize("match, call", [
    ("h must be finite and positive", lambda: weyl_curve(GAUSS, [None])),
    ("h must be finite and positive", lambda: spectral_gap(GAUSS, "0.3")),
    ("h must be finite and positive", lambda: essential_band(TEMPERED, None)),
    ("h must be finite and positive", lambda: verify_asymptotics(GAUSS, 2, ["0.5", "0.35", "0.25"])),
    ("L must be finite and positive", lambda: Grid(1, "a", 8)),
    ("delta must be finite and positive", lambda: band_weights(0.5, None)),
    ("alpha must be finite and positive", lambda: make_density("gaussian", 1, "a")),
    ("transition radius R", lambda: make_density("tempered", 1, 1.0, R="a")),
    ("tau must be finite", lambda: q_factor(GAUSS, 0.25, None)),
    ("tau must be finite", lambda: nu_h_tail(GAUSS, 0.25, None)),
    ("tau must be finite", lambda: p_tau(GAUSS, 0.25, None)),
    ("gap must be finite and positive", lambda: tv_upper_bound_curve(GAUSS, 0.25, 1.0, 20, GRID, "a")),
    ("finite x", lambda: tv_lower_bound_witness(GAUSS, 0.25, "a", 2.0, 3)),
    ("finite tau", lambda: tv_lower_bound_witness(GAUSS, 0.25, 6.0, "a", 3)),
    ("bound", lambda: levels_at_most(COUNT_SCHROD, "a")),
    ("shifts", lambda: count_at_most([COUNT_T], ["a"])),
    ("h_list", lambda: weyl_curve(GAUSS, 0.3)),
    ("h_list", lambda: weyl_curve(GAUSS, None)),
    ("h_list", lambda: verify_asymptotics(GAUSS, 3, 0.3)),
], ids=["weyl_curve-h-none", "spectral_gap-h-string", "essential_band-h-none",
        "verify_asymptotics-h-strings", "grid-L-string", "band_weights-delta-none",
        "make_density-alpha-string", "make_density-R-string", "q_factor-tau-none",
        "nu_h_tail-tau-none", "p_tau-tau-none", "tv_upper_bound_curve-gap-string",
        "witness-x-string", "witness-tau-string", "levels_at_most-bound-string",
        "count_at_most-shifts-string", "weyl_curve-h_list-scalar", "weyl_curve-h_list-none",
        "verify_asymptotics-h_list-scalar"])
def test_non_real_scalars_refused(match, call):
    # each raised a TypeError from math.isfinite, a comparison or len(),
    # or numpy's ValueError for a shift that is a string, and
    # verify_asymptotics took the strings for floats and ran
    with pytest.raises(ConfigError, match=match):
        call()


def test_numpy_reals_pass_the_real_number_check():
    # the check is numbers.Real, which numpy's ints and floats register with
    assert make_density("gaussian", np.int64(1), np.float32(0.5)).dim == 1
    assert Grid(1, np.float64(4.0), 8).L == 4.0
    assert levels_at_most(COUNT_SCHROD, np.float64(math.inf)) == COUNT_SCHROD.grid.size
    assert levels_at_most(COUNT_SCHROD, np.float32(3.0)) == levels_at_most(COUNT_SCHROD, 3.0)


@pytest.mark.parametrize("name, call", [
    ("size", lambda rng: sample_stationary(GAUSS, 0.25, rng, size=math.nan)),
    ("size", lambda rng: sample_stationary(GAUSS, 0.25, rng, size=-3)),
    ("size", lambda rng: sample_stationary(GAUSS, 0.25, rng, size=2.7)),
    ("paths", lambda rng: WalkConfig(GAUSS, 0.25, x0=1.0, paths=2.5)),
    ("paths", lambda rng: WalkConfig(GAUSS, 0.25, x0=1.0, paths=math.nan)),
    ("paths", lambda rng: WalkConfig(GAUSS, 0.25, x0=1.0, paths="10")),
    ("n_max", lambda rng: WalkConfig(GAUSS, 0.25, x0=1.0, n_max=math.nan)),
    ("seed", lambda rng: WalkConfig(GAUSS, 0.25, x0=1.0, seed=None)),
    ("seed", lambda rng: WalkConfig(GAUSS, 0.25, x0=1.0, seed=-1)),
    ("seed", lambda rng: WalkConfig(GAUSS, 0.25, x0=1.0, seed=1.5)),
    ("seed", lambda rng: WalkConfig(GAUSS, 0.25, x0=1.0, seed="3")),
    ("n_max", lambda rng: tv_upper_bound_curve(GAUSS, 0.25, 1.0, 2.5, GRID, 0.05)),
    ("n", lambda rng: tv_lower_bound_witness(GAUSS, 0.25, 6.0, 2.0, 2.5)),
    ("n", lambda rng: tv_lower_bound_witness(GAUSS, 0.25, 6.0, 2.0, -3)),
    ("k", lambda rng: top_k(COUNT_T, 2.0)),
    ("k", lambda rng: top_k(COUNT_T, "2")),
    ("k", lambda rng: bottom_k(COUNT_SCHROD, 2.5)),
    ("k", lambda rng: bottom_k(COUNT_SCHROD, None)),
    ("k", lambda rng: bottom_values(COUNT_SCHROD, 2.5)),
    ("k", lambda rng: dense_reference(COUNT_SCHROD, 2.5)),
    ("seed", lambda rng: make_rng(-1)),
    ("dim", lambda rng: make_density("gaussian", 1.0, 0.5)),
], ids=["size-nan", "size-negative", "size-fractional", "paths-fractional", "paths-nan",
        "paths-string", "n_max-nan", "seed-none", "seed-negative", "seed-fractional",
        "seed-string", "tv-n_max-fractional", "witness-n-fractional", "witness-n-negative",
        "top_k-k-float", "top_k-k-string", "bottom_k-k-fractional", "bottom_k-k-none",
        "bottom_values-k-fractional", "dense_reference-k-fractional", "make_rng-seed-negative",
        "make_density-dim-float"])
def test_bad_count_refused_at_every_entry_point(name, call):
    # unchecked, these gave an untyped ValueError or TypeError, an empty
    # sample at size -3, 2 draws at size 2.7, and a witness reporting n = 2
    # for n = 2.5; seed = None drew OS entropy, so the run could not be
    # repeated. A k of 2.0 made ARPACK return NULL without an exception (a
    # SystemError), one of 2.5 gave scipy's ValueError from the Sturm
    # solvers and 2 eigenvalues from dense_reference; make_density took
    # dim = 1.0, on which mu_reference raised a TypeError from math.comb
    rng = make_rng(4)
    with pytest.raises(ConfigError, match=rf"^{name} must be (an integer|at least)"):
        call(rng)
    assert rng.uniform() == make_rng(4).uniform()  # no draw was made


GAUSS_2D = make_density("gaussian", 2, 0.5)


@pytest.mark.parametrize("error, match, call", [
    (ConfigError, "implemented for d = 1", lambda: build_markov(Grid(2, 6.0, 48), GAUSS_2D, 0.5)),
    (ConfigError, "implemented for d = 1",
     lambda: sample_stationary(GAUSS_2D, 0.25, make_rng(4), size=10)),
    (ConfigError, "implemented for d = 1", lambda: nu_h_tail(GAUSS_2D, 0.25, 1.0)),
    (ConfigError, "trailing axis of length 2", lambda: eval_density(GAUSS_2D, np.zeros(3))),
    (ConfigError, "expects a SchrodingerOperator",
     lambda: bottom_k(build_conjugated(Grid(1, 4.0, 64), GAUSS, 0.5, scheme=BANDED), 2)),
    (NumericalError, "refusing dense assembly at N=4900",
     lambda: build_schrodinger(Grid(2, 7.0, 70), GAUSS_2D).to_dense()),
    (ConfigError, "sinh", lambda: tempered_A_h(TEMPERED, 800.0)),
    (ConfigError, "sinh", lambda: essential_band(TEMPERED, 800.0)),
    (ConfigError, "sinh", lambda: ball_mass_grid(TEMPERED, 1000.0, 800.0)),
    (ConfigError, "bound",
     lambda: levels_at_most(build_schrodinger(Grid(1, 8.0, 200), GAUSS), -math.inf)),
    (ConfigError, "expected shape", lambda: COUNT_SCHROD.matvec(np.ones(5))),
    (ConfigError, r"normal delta\*\*3", lambda: band_weights(1e-110, 1e-111)),
    (ConfigError, r"normal delta\*\*3", lambda: band_weights(1e-100, 1e-104)),
    (ConfigError, r"normal delta\*\*3", lambda: band_weights(1e-300, 1e-301)),
], ids=["build_markov-d2", "sample_stationary-d2", "nu_h_tail-d2", "eval_density-d2-shape",
        "bottom_k-discrete", "schrodinger-to_dense-cap", "tempered_A_h-sinh",
        "essential_band-sinh", "ball_mass_grid-tail-sinh", "levels_at_most-bound-minus-inf",
        "schrodinger-matvec-length", "band_weights-delta-cube-subnormal",
        "band_weights-delta-cube-subnormal-off", "band_weights-delta-cube-zero"])
def test_unsupported_input_refused(error, match, call):
    # d = 1 only paths, a point of the wrong shape, the wrong operator
    # class and a dense matrix past the size cap each raise, typed; so do
    # a sinh(alpha h) that overflows (alpha h = 800) and a count bound of
    # -inf, which raised a bare OverflowError and met LAPACK stebz's
    # illegal-argument check (VU <= VL), a Schrodinger matvec of the
    # wrong length, which raised scipy's ValueError, and a delta whose
    # cube is subnormal, on which band_weights returned the edge pair
    # (11.9, -9.4) delta at delta = 1e-111 (no Markov kernel), one 2.4e-5
    # off at 1e-104, and NaN with a RuntimeWarning at 1e-301
    with pytest.raises(error, match=match):
        call()


def test_core_mass_needs_no_tail_closed_form():
    # a core point never reads the tail's sinh: at h = 800 the ball holds
    # all of rho, which the quadrature finds
    assert ball_mass_grid(TEMPERED, 1.0, 800.0) == pytest.approx(1.0, rel=1e-12)


def test_nu_h_tail_is_zero_past_the_decay_cut():
    assert nu_h_tail(GAUSS, 0.25, 10.0) == 0.0


def test_step_batch_stops_at_the_rejection_budget(monkeypatch):
    # at x = 8 the envelope rho(x - h) rejects most proposals: with one
    # pass allowed, some of the 64 paths are left stuck
    monkeypatch.setattr(walk, "REJECTION_BUDGET", 1)
    with pytest.raises(RejectionBudgetExceeded, match="after 1 trials"):
        walk._step_batch(GAUSS, 0.25, np.full(64, 8.0), make_rng(3))
