"""Ball-walk sampler and path-simulation tests.

The oracle for the Monte-Carlo paths is the exact grid evolution that
simulate_paths carries alongside them: the MC TV estimate must agree
with it to within a z-score gate from the reported standard error.
"""

import numpy as np
import pytest

from ballwalk.densities import eval_density, make_density
from ballwalk.errors import WitnessHypothesisViolated
from ballwalk.operators import Grid
from ballwalk.walk import (
    WalkConfig,
    _agresti_coull_se,
    _nearest_in_ball,
    make_rng,
    simulate_paths,
    step_sample,
    tv_lower_bound_witness,
)

# Bonferroni over <= 100 horizons at a family-wise level of 1e-4
Z_GATE = 5.0


@pytest.fixture(scope="module")
def gauss_half():
    return make_density("gaussian", 1, 0.5)


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 12.0, 2400)  # delta = h/25 for h = 0.25


# From x0 = 2 the MC paths start at 2 while the grid chain starts at the
# nearest node, and one step of the grid chain covers slightly fewer cells
# than the continuum ball: a discretisation offset of the estimator, large
# at n = 1 and a few SE at n = 2 with 20k paths. 10k paths keep n = 2
# clear of the gate while the biased sampler still misses it by far.
@pytest.mark.parametrize("x0, paths", [(2.0, 10_000), (None, 20_000)])
def test_mc_tv_matches_exact(gauss_half, grid, x0, paths):
    cfg = WalkConfig(gauss_half, 0.25, x0=x0, paths=paths, n_max=100, seed=1)
    r = simulate_paths(cfg, grid)
    z = (r.tv_mc - r.tv_exact) / r.tv_mc_se
    assert np.max(np.abs(z[2:])) <= Z_GATE
    if x0 is not None:
        assert np.all(np.diff(r.tv_exact) <= 1e-12)


def test_tv_mc_se_at_the_edges(gauss_half, grid):
    n = 1000
    for emp in (0.0, 1.0):
        assert _agresti_coull_se(emp, n) >= 1.0 / (n + 4)
    # from a point start all paths share one cell at n = 0, so the share
    # inside the witness set is 0 or 1 (both give the same SE)
    r = simulate_paths(WalkConfig(gauss_half, 0.25, x0=2.0, paths=n, n_max=2), grid)
    assert r.tv_mc_se[0] == pytest.approx(_agresti_coull_se(1.0, n), rel=1e-12)


def test_same_seed_bit_identical(gauss_half, grid):
    cfg = WalkConfig(gauss_half, 0.25, x0=None, paths=2000, n_max=10, seed=5)
    a, b = simulate_paths(cfg, grid), simulate_paths(cfg, grid)
    np.testing.assert_array_equal(a.final_positions, b.final_positions)
    np.testing.assert_array_equal(a.tv_mc, b.tv_mc)
    np.testing.assert_array_equal(a.tv_mc_se, b.tv_mc_se)
    assert a.to_json() == b.to_json()


def test_step_sample_d2_stays_in_ball():
    dens = make_density("gaussian", 2, 0.5)
    x, h = np.array([1.0, -0.5]), 0.4
    top = eval_density(dens, _nearest_in_ball(x, h))
    rng = make_rng(3)
    for _ in range(50):
        assert np.linalg.norm(step_sample(dens, h, x, rng) - x) <= h
        u = rng.uniform(-1.0, 1.0, size=2)
        assert eval_density(dens, x + h * u / max(1.0, np.linalg.norm(u))) <= top


def test_witness_hypothesis(gauss_half):
    h, tau, n = 0.25, 2.0, 10
    edge = tau + (n + 1) * h
    with pytest.raises(WitnessHypothesisViolated):
        tv_lower_bound_witness(gauss_half, h, edge - 0.01, tau, n)
    w = tv_lower_bound_witness(gauss_half, h, -edge, tau, n)
    assert 0.0 < w.value < 1.0
