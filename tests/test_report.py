"""Golden JSON for every report class.

Each report is built from literal values, with no solver in the loop, so
its to_json() bytes are the same on any machine. The expected strings
were captured from the per-class to_json methods the shared serializer
replaced; numpy scalars, 2-D arrays, nan, inf, an empty band and float
dict keys that sort differently as strings ('10.0' < '2.0') are covered.
"""

import math

import numpy as np
import pytest

from ballwalk.analysis import AsymptoticsReport, BandReport, GapReport, WeylReport
from ballwalk.densities import make_density
from ballwalk.eigensolve import EigenResult
from ballwalk.walk import PathReport, UpperBoundReport, WalkConfig, WitnessReport


def _reports():
    third = 1.0 / 3.0
    return {
        "asymptotics": AsymptoticsReport(
            h_values=np.array([0.4, 0.3, 0.2]),
            mu=np.array([0.0, 2.0]),
            eigenvalues=np.array([[1.0, 0.9466666666666667], [1.0, third], [1.0, 0.9866]]),
            predicted=np.array([[1.0, 0.9466], [1.0, 0.97], [1.0, 0.9866666666666667]]),
            residuals=np.array([[0.0, 6.66e-05], [0.0, math.nan], [0.0, 2.1e-06]]),
            orders=np.array([3.97]),
            c_fits=np.array([np.float64(0.0104)]),
            gaps=np.array([0.0533, 0.03, 0.0134]),
            matvecs=[35, np.int64(36), 64],
            passed=np.bool_(True),
            gamma=1.0 / 6.0,
        ),
        "band_tempered": BandReport(
            h=0.2,
            compact=False,
            M=np.float64(-0.21723362821122166),
            A_h=0.9933554817275746,
            A_h_probe=np.float64(0.99335548172757),
            band=(np.float64(-0.2157902), 0.9933554817275746),
            kappa=1.0,
            lemma_residuals={2.0: 1.5e-05, 10.0: third, 0.2: 4.4e-06},
            c_fit=0.0027,
            passed=np.bool_(False),
        ),
        "band_gaussian": BandReport(h=0.25, compact=True, M=-0.21723362821122166),
        "weyl": WeylReport(
            dim=1,
            rows=[(0.3, 0.1, 3, np.float64(2.111111111111111)),
                  (0.3, 0.3, np.int64(5), 4.333333333333333)],
            exponent=1.24,
            c_dominating=np.float64(third),
            passed=np.bool_(True),
            retries=np.int64(2),
        ),
        "weyl_one_abscissa": WeylReport(
            dim=1, rows=[(0.3, 0.1, 1, 2.111111111111111)], exponent=math.nan,
            c_dominating=0.47368421052631576, passed=False,
        ),
        "gap": GapReport(h=0.1, gap=np.float64(0.0016658), lambda_1=0.9983342,
                         comparison=third, alpha_cfg=0.9, matvecs=92),
        "witness": WitnessReport(value=0.9999, nu_tail=1e-4, p_tau=0.0, implied_C=math.inf,
                                 x=6.0, tau=2.0, n=10, h=0.25),
        "upper_bound": UpperBoundReport(
            q=np.float64(54.59815003314423), gap=0.0154, c_fit=third,
            ns=np.arange(3, dtype=np.int64), bound=np.array([1.5, 1.2, 0.9]),
            envelope=np.array([1.0, 0.8, 0.6]), dominated=np.bool_(True), fit_horizon=1,
        ),
        "paths": PathReport(
            config=WalkConfig(make_density("gaussian", 1, 0.5), 0.25, x0=2.0,
                              paths=1000, n_max=2, seed=7),
            ns=np.arange(3), tv_mc=np.array([1.0, 0.98, 0.95]),
            tv_mc_se=np.array([0.0019, third, 0.0068]), tv_exact=np.array([1.0, 0.97, 0.94]),
            final_positions=np.zeros(1000),
        ),
        "eigen": EigenResult(
            np.array([1.0, 0.9916666666666667]), np.eye(2), np.array([1e-15, 2.5e-15]),
            "ARPACK", {"dim": 1, "L": 12.0, "N": 720, "h": 0.3},
            [(1.0, 1), (0.9916666666666667, np.int64(1))], matvecs=177, start="banded twin",
        ),
    }


GOLDEN = {
    'asymptotics': '{"c_fits": [0.0104], "eigenvalues": [[1.0, 0.9466666666666667], [1.0, 0.3333333333333333], [1.0, 0.9866]], "gamma": 0.16666666666666666, "gaps": [0.0533, 0.03, 0.0134], "h": [0.4, 0.3, 0.2], "matvecs": [35, 36, 64], "mu": [0.0, 2.0], "orders": [3.97], "passed": true, "predicted": [[1.0, 0.9466], [1.0, 0.97], [1.0, 0.9866666666666667]], "residuals": [[0.0, 6.66e-05], [0.0, NaN], [0.0, 2.1e-06]]}',
    'band_gaussian': '{"A_h": NaN, "A_h_probe": NaN, "M": -0.21723362821122166, "band": [], "c_fit": NaN, "compact": true, "h": 0.25, "kappa": NaN, "lemma_residuals": {}, "passed": true}',
    'band_tempered': '{"A_h": 0.9933554817275746, "A_h_probe": 0.99335548172757, "M": -0.21723362821122166, "band": [-0.2157902, 0.9933554817275746], "c_fit": 0.0027, "compact": false, "h": 0.2, "kappa": 1.0, "lemma_residuals": {"0.2": 4.4e-06, "10.0": 0.3333333333333333, "2.0": 1.5e-05}, "passed": false}',
    'eigen': '{"clusters": [[1.0, 1], [0.9916666666666667, 1]], "eigenvalues": [1.0, 0.9916666666666667], "grid": {"L": 12.0, "N": 720, "dim": 1, "h": 0.3}, "matvecs": 177, "method": "ARPACK", "residuals": [1e-15, 2.5e-15], "start": "banded twin"}',
    'gap': '{"alpha_cfg": 0.9, "comparison": 0.3333333333333333, "gap": 0.0016658, "h": 0.1, "lambda_1": 0.9983342, "matvecs": 92}',
    'paths': '{"ns": [0, 1, 2], "paths": 1000, "rng": "philox4x64", "seed": 7, "tv_exact": [1.0, 0.97, 0.94], "tv_mc": [1.0, 0.98, 0.95], "tv_mc_se": [0.0019, 0.3333333333333333, 0.0068]}',
    'upper_bound': '{"bound": [1.5, 1.2, 0.9], "c_fit": 0.3333333333333333, "dominated": true, "envelope": [1.0, 0.8, 0.6], "fit_horizon": 1, "gap": 0.0154, "ns": [0, 1, 2], "q": 54.59815003314423}',
    'weyl': '{"c_dominating": 0.3333333333333333, "dim": 1, "exponent": 1.24, "passed": true, "retries": 2, "rows": [[0.3, 0.1, 3, 2.111111111111111], [0.3, 0.3, 5, 4.333333333333333]]}',
    'weyl_one_abscissa': '{"c_dominating": 0.47368421052631576, "dim": 1, "exponent": NaN, "passed": false, "retries": 0, "rows": [[0.3, 0.1, 1, 2.111111111111111]]}',
    'witness': '{"h": 0.25, "implied_C": Infinity, "n": 10, "nu_tail": 0.0001, "p_tau": 0.0, "tau": 2.0, "value": 0.9999, "x": 6.0}',
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_to_json_golden(name):
    assert _reports()[name].to_json() == GOLDEN[name]


def test_every_report_has_a_golden_string():
    assert set(_reports()) == set(GOLDEN)
