"""Oracle tests for the radial multiplier.

Independent routes used here:
  * d=1 closed form sin(r)/r evaluated directly,
  * d=2 adaptive 1-D quadrature (scipy.integrate.quad) of the dimensional
    reduction integral
        G_2(r) = (2/pi) * integral_{-1}^{1} sqrt(1-u^2) cos(r u) du,
    which shares nothing with the package's Bessel closed form or its
    small-r Taylor polynomial,
  * minimum locations against the classical characterizations
    (tan r = r for d=1, the first zero of J_2 for d=2).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import j1, jn_zeros

from ballwalk.errors import ConfigError
from ballwalk.multiplier import (
    eval_Gd,
    find_min_M,
    gamma_d,
    unit_ball_volume,
)

# frozen minimum values; r* solves tan r = r (d=1) and J_2(r) = 0 (d=2)
R_STAR_1 = 4.493409457909064
M_1 = -0.21723362821122165
R_STAR_2 = 5.135622301840683
M_2 = -0.13227948739610004


def _G2_reduction_oracle(r):
    val, _ = quad(
        lambda u: (2.0 / math.pi) * math.sqrt(1.0 - u * u) * math.cos(r * u),
        -1.0, 1.0, limit=400, epsabs=1e-13, epsrel=1e-13,
    )
    return val


def test_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
    assert unit_ball_volume(0) == pytest.approx(1.0, abs=1e-15)


def test_gamma_d_values():
    assert gamma_d(1) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert gamma_d(2) == pytest.approx(1.0 / 8.0, abs=1e-16)


def test_G1_closed_form():
    r = np.linspace(1e-3, 40.0, 100)
    expected = np.sin(r) / r
    assert np.max(np.abs(eval_Gd(1, r) - expected)) < 1e-14
    assert eval_Gd(1, 0.0) == 1.0


def test_G2_against_reduction_quadrature():
    r_values = np.linspace(1e-3, 60.0, 200)
    errs = [abs(eval_Gd(2, r) - _G2_reduction_oracle(r)) for r in r_values]
    assert max(errs) < 1e-10


def test_G2_small_r_path():
    # j1(r) loses its last digits and then underflows as r reaches the
    # subnormals, so 2 j1(r)/r would read 0 or exceed 1 there
    for r in (0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-8):
        g = eval_Gd(2, r)
        assert g <= 1.0 + 1e-14
        assert abs(g - _G2_reduction_oracle(r)) < 1e-13
    # both sides of the switch to the closed form at r = 1e-3
    below, above = np.nextafter(1e-3, 0.0), np.nextafter(1e-3, 1.0)
    for r in (below, above):
        assert abs(eval_Gd(2, r) - _G2_reduction_oracle(r)) < 1e-13
    assert abs(eval_Gd(2, below) - eval_Gd(2, above)) < 1e-15


def test_scalar_and_array_shapes():
    for d in (1, 2):
        assert isinstance(eval_Gd(d, 1.3), float)
    arr = eval_Gd(2, np.array([0.0, 1.0, 5.0]))
    assert arr.shape == (3,)
    assert arr[0] == 1.0


def test_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        eval_Gd(3, 1.0)
    with pytest.raises(ConfigError):
        eval_Gd(0, 1.0)
    with pytest.raises(ConfigError):
        eval_Gd(1, -0.5)


def test_min_d1_frozen():
    r_star, M = find_min_M(1)
    assert abs(r_star - R_STAR_1) < 1e-9
    assert abs(M - M_1) < 1e-12
    # characterization: tan(r*) = r*, hence G(r*) = cos(r*)
    assert abs(math.tan(r_star) - r_star) < 1e-7
    assert abs(M - math.cos(r_star)) < 1e-12
    # no deeper value anywhere on a fine scan out to r = 50
    assert eval_Gd(1, np.arange(1e-3, 50.0, 1e-3)).min() >= M - 1e-15


def test_min_d2_frozen():
    r_star, M = find_min_M(2)
    j21 = jn_zeros(2, 1)[0]
    assert abs(r_star - R_STAR_2) < 1e-9
    assert abs(r_star - j21) < 1e-9
    assert abs(M - M_2) < 1e-12
    assert abs(M - 2.0 * j1(j21) / j21) < 1e-12
    assert eval_Gd(2, np.arange(1e-3, 50.0, 1e-3)).min() >= M - 1e-15


def test_package_import_leaves_scipy_optimize_out():
    # Every scipy subpackage the package loads adds to the import time of
    # every process that uses it (scipy.optimize alone ~0.16 s and ~12 MB);
    # none of these has a caller in the package. A fresh interpreter,
    # because the oracles here (scipy.integrate) load some of them.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    unwanted = ("scipy.optimize", "scipy.integrate", "scipy.stats", "scipy.ndimage",
                "scipy.fft")
    code = ("import sys, ballwalk.analysis, ballwalk.walk; "
            f"sys.exit(sorted(m for m in {unwanted!r} if m in sys.modules) or 0)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_taylor_structure():
    # 1 - G_d(r) = gamma_d r^2 + O(r^4) on (0, 1]
    r = np.linspace(0.05, 1.0, 40)
    for d, quartic in ((1, 1.0 / 120.0), (2, 1.0 / 192.0)):
        g = eval_Gd(d, r)
        F = (1.0 - g) / r**2
        assert np.all(F > 0)
        # the quartic constant approaches the next series coefficient
        C = np.max(np.abs(1.0 - g - gamma_d(d) * r**2) / r**4)
        assert abs(C - quartic) < 2e-4
        if d == 1:
            # F(r^2) = (1 - G)/r^2 decreases from gamma_d
            assert np.all(F < gamma_d(1))
            assert np.all(np.diff(F) < 0)


def test_d2_decay_rate():
    # |G_2(r)| <= C r^{-3/2} with C near 2 sqrt(2/pi)
    r = np.linspace(30.0, 300.0, 120)
    assert np.max(np.abs(eval_Gd(2, r)) * r**1.5) < 1.7


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    r=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_multiplier_bounded_by_one(d, r):
    # G_d is an average of cos over the unit ball, so |G_d| <= 1 with
    # equality only at r = 0
    g = eval_Gd(d, r)
    assert g <= 1.0 + 1e-14
    assert abs(g) <= 1.0 + 1e-14
    if r > 0.5:
        assert g < 1.0


@settings(max_examples=100, deadline=None)
@given(r=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_minimum_is_global_d1(r):
    assert eval_Gd(1, r) >= M_1 - 1e-12


@settings(max_examples=100, deadline=None)
@given(r=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_minimum_is_global_d2(r):
    assert eval_Gd(2, r) >= M_2 - 1e-12
