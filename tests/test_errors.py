"""Error paths that span the package.

Every error the package raises on purpose is a typed error from
ballwalk.errors: a lint over the source keeps a bare ValueError (or any
other builtin) from coming back. Every entry point where a ball radius h
enters refuses one that is not finite and positive with the same
ConfigError, before any draw, solve or quadrature.
"""

import ast
import inspect
import math
from pathlib import Path

import pytest

from ballwalk import errors
from ballwalk.densities import ball_mass_grid, make_density
from ballwalk.errors import ConfigError
from ballwalk.operators import BANDED, Grid, build_ball_average, build_conjugated, build_markov
from ballwalk.walk import (
    WalkConfig,
    make_rng,
    sample_stationary,
    simulate_paths,
    step_sample,
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
GRID = Grid(1, 12.0, 2400)


def _paths_with_h(h):
    # WalkConfig refuses the h itself; past it, simulate_paths checks again
    cfg = WalkConfig(GAUSS, 0.25, x0=1.0, paths=10, n_max=2)
    cfg.h = h
    return simulate_paths(cfg, GRID)


@pytest.mark.parametrize("h", [0.0, -0.25, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda h, rng: ball_mass_grid(GAUSS, [0.0, 1.0], h),
    lambda h, rng: step_sample(GAUSS, h, 0.5, rng),
    lambda h, rng: step_sample(make_density("gaussian", 2, 0.5), h, [0.5, 0.0], rng),
    lambda h, rng: sample_stationary(GAUSS, h, rng, size=10),
    lambda h, rng: WalkConfig(GAUSS, h, x0=1.0),
    lambda h, rng: _paths_with_h(h),
    lambda h, rng: tv_upper_bound_curve(GAUSS, h, 1.0, 20, GRID, 0.05),
    lambda h, rng: build_conjugated(GRID, GAUSS, h),
    lambda h, rng: build_conjugated(GRID, GAUSS, h, scheme=BANDED),
    lambda h, rng: build_markov(GRID, GAUSS, h),
    lambda h, rng: build_ball_average(GRID, h, scheme=BANDED),
], ids=["ball_mass_grid", "step_sample", "step_sample-d2", "sample_stationary", "WalkConfig",
        "simulate_paths", "tv_upper_bound_curve", "build_conjugated", "build_conjugated-banded",
        "build_markov", "build_ball_average"])
def test_bad_h_refused_at_every_entry_point(call, h):
    # at h = nan the step sampler used to spin its whole rejection budget
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
], ids=["gaussian-alpha-inf", "gaussian-alpha-nan", "tempered-alpha-inf", "tempered-R-inf",
        "tempered-R-nan", "grid-L-inf", "grid-L-nan", "gap-nan", "gap-inf", "gap-negative",
        "gap-zero"])
def test_non_finite_inputs_refused(call):
    # alpha = inf once gave a Density with beta = inf, R or L = inf a bare
    # RuntimeWarning, and a nan or negative gap a silent c_fit = nan or a
    # "dominated" verdict against a growing bound
    with pytest.raises(ConfigError, match="finite"):
        call()
