"""The benchmark workloads: set-up, one timed iteration, and checks.

Each workload is a closed loop over a fixed set of paper-level driver
calls. ``setup`` builds the inputs from the seed, ``iterate`` runs the
driver calls once and returns their results with per-stage wall times,
and ``check`` compares the results with independent oracles outside the
timed region. ``marks`` names the functions whose entries and exits cut
an iteration into the segments of the floor (see run.py). Why each
workload exists is written down in README.md.
"""

import math
import time

import numpy as np
import scipy.linalg
import scipy.sparse

from ballwalk import analysis, densities, eigensolve, operators, walk

# MC-vs-exact gate: |z| over the horizons n >= 2 of one simulate_paths run.
# Bonferroni over <= 100 horizons at a family-wise level of 1e-4 gives 4.9.
Z_GATE = 5.0
# test_analysis.test_gap_matches_h2_scale: gap / (h^2/3) = 1 within 0.1
GAP_SCALE_TOL = 0.1


def _seeds(seed, n):
    """Independent walk seeds derived from the workload seed."""
    ss = np.random.SeedSequence(seed)
    return [int(s.generate_state(1, dtype=np.uint64)[0]) for s in ss.spawn(n)]


class Check:
    """One driver call's correctness verdict with a readable reason."""

    def __init__(self, call, ok, detail):
        self.call = call
        self.ok = bool(ok)
        self.detail = detail


# ---------------------------------------------------------------------------
# spectral: extreme eigenpairs by matvec-only Krylov on the FFT scheme

class Spectral:
    name = "spectral"
    calls_per_iteration = 5
    marks = ("eigensolve.top_k", "eigensolve.bottom_k", "operators.build_conjugated",
             "operators.build_schrodinger", "operators.matvec",
             "operators.matvec.schrodinger", "densities.ball_mass")

    def setup(self, seed):
        return {
            "gauss": densities.make_density("gaussian", 1, 0.5),
            "tempered": densities.make_density("tempered", 1, 1.0, R=0.5),
            "gauss2_a1": densities.make_density("gaussian", 2, 1.0),
            "gauss2_half": densities.make_density("gaussian", 2, 0.5),
            "grid_top": operators.Grid(2, 8.0, 96),
            "grid_bottom": operators.Grid(2, 7.0, 70),
            "h_sweep": [0.5, 0.35, 0.25, 0.18],
        }

    def iterate(self, inp):
        t0 = time.perf_counter()
        asym = analysis.verify_asymptotics(inp["gauss"], 3, inp["h_sweep"])
        t1 = time.perf_counter()
        gap_g = analysis.spectral_gap(inp["gauss"], 0.1)
        gap_t = analysis.spectral_gap(inp["tempered"], 0.25)
        t2 = time.perf_counter()
        top = eigensolve.top_k(
            operators.build_conjugated(inp["grid_top"], inp["gauss2_a1"], 0.5), 6
        )
        bottom = eigensolve.bottom_k(
            operators.build_schrodinger(inp["grid_bottom"], inp["gauss2_half"]), 6
        )
        t3 = time.perf_counter()
        results = {"asym": asym, "gap_g": gap_g, "gap_t": gap_t, "top": top,
                   "bottom": bottom}
        stages = {"asymptotics_s": t1 - t0, "gap_s": t2 - t1, "eigs_2d_s": t3 - t2}
        return results, stages

    def check(self, inp, res):
        asym = res["asym"]
        lam0 = np.abs(asym.eigenvalues[:, 0] - 1.0)
        out = [Check("verify_asymptotics",
                     asym.passed and np.all(lam0 <= analysis.LAMBDA_ZERO_TOL),
                     f"passed={asym.passed} max|lambda_0-1|={lam0.max():.2e}")]
        g = res["gap_g"]
        ratio = g.gap / (g.h**2 / 3.0)
        out.append(Check("spectral_gap[gaussian]", abs(ratio - 1.0) <= GAP_SCALE_TOL,
                         f"gap/(h^2/3)={ratio:.4f}"))
        t = res["gap_t"]
        out.append(Check("spectral_gap[tempered]", 0.0 < t.comparison < t.gap < 1.0,
                         f"gap={t.gap:.4e} comparison={t.comparison:.4e}"))
        for key in ("top", "bottom"):
            r = res[key]
            sizes = [s for _, s in r.clusters]
            ok = sizes[0] == 1 and 2 in sizes and sum(sizes) == 6
            if key == "top":
                ok = ok and abs(r.eigenvalues[0] - 1.0) <= analysis.LAMBDA_ZERO_TOL
            out.append(Check(f"{key}_k[d=2]", ok, f"cluster sizes {sizes}"))
        return out


# ---------------------------------------------------------------------------
# counting: Sylvester inertia on the banded scheme, no Krylov and no FFT

class Counting:
    name = "counting"
    calls_per_iteration = 2
    marks = ("eigensolve.count_in_interval",)
    # a count factors the operator twice, whatever the interval, so every
    # count on one grid does the same work
    same_work = {"eigensolve.count_in_interval": lambda op, a, b: op.grid.size}
    H = (0.3, 0.2, 0.15)
    LAMBDAS = np.linspace(0.10, 0.30, 9)  # weyl_curve's default sweep

    def setup(self, seed):
        return {
            "gauss": densities.make_density("gaussian", 1, 0.5),
            "tempered": densities.make_density("tempered", 1, 1.0, R=0.5),
        }

    def iterate(self, inp):
        weyl = analysis.weyl_curve(inp["gauss"], list(self.H))
        band = analysis.essential_band(inp["tempered"], 0.2)
        return {"weyl": weyl, "band": band}, {}

    def oracle_counts(self, inp):
        """Counts from every eigenvalue of the same banded matrix that
        weyl_curve factors, by LAPACK's banded symmetric eigensolver."""
        counts = {}
        L = 12.0  # weyl_curve's defaults: L = 12, delta <= h/20
        for h in self.H:
            grid = operators.Grid(1, L, analysis._even_grid(L, h, 20))
            op = operators.build_conjugated(grid, inp["gauss"], h,
                                            scheme=operators.BANDED)
            ev = scipy.linalg.eigvals_banded(op.to_banded(), lower=True)
            for lam in self.LAMBDAS:
                lo, hi = 1.0 - lam, 1.0
                eps = 1e-12 * max(abs(lo), abs(hi), 1.0)
                counts[(h, float(lam))] = int(np.sum(ev <= hi + eps)
                                              - np.sum(ev <= lo + eps))
        return counts

    def check(self, inp, res):
        if "oracle" not in inp:
            inp["oracle"] = self.oracle_counts(inp)
        weyl = res["weyl"]
        bad = [(h, lam, n, inp["oracle"][(h, lam)]) for h, lam, n, _ in weyl.rows
               if inp["oracle"][(h, lam)] != n]
        out = [Check("weyl_curve", weyl.passed and not bad and len(weyl.rows) == 27,
                     f"passed={weyl.passed} exponent={weyl.exponent:.3f} "
                     f"count mismatches={bad}")]
        # the probe-shell A_h comes from quadrature of the ball mass; on the
        # pure-exponential tail it must meet alpha h / sinh(alpha h)
        band = res["band"]
        a = band.h * inp["tempered"].alpha
        exact = a / math.sinh(a)
        out.append(Check("essential_band",
                         band.passed and abs(band.A_h_probe - exact) <= 1e-9
                         and band.band == (band.M * exact, exact),
                         f"passed={band.passed} A_h_probe={band.A_h_probe!r} "
                         f"exact={exact!r}"))
        return out


# ---------------------------------------------------------------------------
# mixing: exact TV evolution by small banded matvecs, no Krylov timed


def _markov_sparse(P):
    """The Markov matrix P[i, j] = lscale_i c_|i-j| rscale_j as a sparse
    matrix, so the oracle evolution does not go through
    DiscreteOperator.matvec."""
    c = P.stencil
    n = P.grid.size
    offsets = list(range(-(c.size - 1), c.size))
    diags = [np.full(n - abs(k), c[abs(k)]) for k in offsets]
    C = scipy.sparse.diags(diags, offsets, format="csr")
    return scipy.sparse.diags(P.lscale) @ C @ scipy.sparse.diags(P.rscale)


def _evolve(PT, p0, n_max):
    """Rows p_0..p_n_max of the measure evolution p <- P^T p."""
    rows = [p0]
    for _ in range(n_max):
        rows.append(PT @ rows[-1])
    return np.array(rows)


class Mixing:
    name = "mixing"
    calls_per_iteration = 2
    marks = ("walk.tv_exact_grid",)
    # every start evolves the same full-length vector n_max times
    same_work = {"walk.tv_exact_grid":
                 lambda density, h, x0, n_max, grid: (grid.size, n_max)}
    H = 0.25
    TAU = 2.0
    WITNESS_X, WITNESS_N = 6.0, 10

    def setup(self, seed):
        gauss = densities.make_density("gaussian", 1, 0.5)
        return {
            "gauss": gauss,
            "grid": operators.Grid(1, 12.0, 2400),
            "gap": analysis.spectral_gap(gauss, self.H).gap,
        }

    def iterate(self, inp):
        t0 = time.perf_counter()
        upper = walk.tv_upper_bound_curve(inp["gauss"], self.H, self.TAU, 200,
                                          inp["grid"], inp["gap"])
        t1 = time.perf_counter()
        witness = walk.tv_lower_bound_witness(inp["gauss"], self.H, self.WITNESS_X,
                                              self.TAU, self.WITNESS_N)
        return {"upper": upper, "witness": witness}, {"tv_bound_s": t1 - t0}

    def _oracle(self, inp):
        """Exact evolutions by sparse products, computed once per run."""
        grid = inp["grid"]
        x = grid.axis_nodes()
        P = operators.build_markov(grid, inp["gauss"], self.H)
        PT = _markov_sparse(P).T.tocsr()
        nu = P.meta["stationary"]
        starts = np.flatnonzero(np.abs(x) < self.TAU)[::4]  # tv_upper_bound_curve's
        p = np.zeros((PT.shape[0], starts.size))
        p[starts, np.arange(starts.size)] = 1.0
        tv = [0.5 * np.abs(p - nu[:, None]).sum(axis=0)]  # one column per start
        for _ in range(200):
            p = PT @ p
            tv.append(0.5 * np.abs(p - nu[:, None]).sum(axis=0))
        tv = np.array(tv)
        w0 = np.zeros(PT.shape[0])
        w0[np.argmin(np.abs(x - self.WITNESS_X))] = 1.0
        wit = _evolve(PT, w0, self.WITNESS_N)
        return {"envelope": tv.max(axis=1),
                "monotone": bool(np.all(np.diff(tv, axis=0) <= 1e-12)),
                "witness_tv": 0.5 * np.abs(wit[-1] - nu).sum()}

    def check(self, inp, res):
        if "oracle" not in inp:
            inp["oracle"] = self._oracle(inp)
        orc = inp["oracle"]
        up = res["upper"]
        env_err = float(np.max(np.abs(up.envelope - orc["envelope"])))
        wit = res["witness"]
        return [
            Check("tv_upper_bound_curve",
                  up.dominated and orc["monotone"] and env_err <= 1e-10
                  and np.all(np.diff(up.envelope) <= 1e-12),
                  f"dominated={up.dominated} monotone={orc['monotone']} "
                  f"|envelope - oracle|={env_err:.1e}"),
            Check("tv_lower_bound_witness", 0.0 < wit.value <= orc["witness_tv"],
                  f"witness={wit.value!r} exact TV={orc['witness_tv']!r}"),
        ]


# ---------------------------------------------------------------------------
# sampler: Monte-Carlo paths against the exact evolution. Not declared in
# BENCHMARK.json: the batched d=1 sampler is biased (ROADMAP item 1), so
# every run fails its MC-vs-exact checks until that is fixed.

class Sampler:
    name = "sampler"
    calls_per_iteration = 3
    marks = ("walk.simulate_paths",)

    def setup(self, seed):
        gauss = densities.make_density("gaussian", 1, 0.5)
        tempered = densities.make_density("tempered", 1, 1.0, R=0.5)
        s = _seeds(seed, 3)
        common = {"h": Mixing.H, "paths": 20000, "n_max": 100}
        return {
            "grid": operators.Grid(1, 12.0, 2400),
            "walks": [
                walk.WalkConfig(gauss, x0=2.0, seed=s[0], **common),
                walk.WalkConfig(gauss, x0=None, seed=s[1], **common),
                walk.WalkConfig(tempered, x0=2.0, seed=s[2], **common),
            ],
        }

    def iterate(self, inp):
        t0 = time.perf_counter()
        paths = [walk.simulate_paths(cfg, inp["grid"]) for cfg in inp["walks"]]
        steps = sum(cfg.paths * cfg.n_max for cfg in inp["walks"])
        return {"paths": paths}, {"path_steps_per_s": steps / (time.perf_counter() - t0)}

    def _oracle(self, inp):
        """Exact TV and witness-set mass per horizon, by sparse products."""
        grid = inp["grid"]
        x = grid.axis_nodes()
        out = []
        for cfg in inp["walks"]:
            P = operators.build_markov(grid, cfg.density, cfg.h)
            nu = P.meta["stationary"]
            if cfg.x0 is None:
                rows = np.tile(nu, (cfg.n_max + 1, 1))
            else:
                p0 = np.zeros(grid.size)
                p0[np.argmin(np.abs(x - cfg.x0))] = 1.0
                rows = _evolve(_markov_sparse(P).T.tocsr(), p0, cfg.n_max)
            diff = rows - nu
            # witness set A*_n = {p_n > nu}; a stationary start has none, and
            # simulate_paths then uses the centred half-mass interval
            half = int(np.searchsorted(np.cumsum(nu), 0.5))
            lo, hi = sorted((grid.N // 2, half))
            fixed = np.zeros(grid.size, dtype=bool)
            fixed[lo:hi + 1] = True
            degenerate = np.max(np.abs(diff), axis=1) <= 1e-12
            masks = np.where(degenerate[:, None], fixed[None, :], diff > 0)
            out.append({"tv": 0.5 * np.abs(diff).sum(axis=1),
                        "nu_A": (masks * nu).sum(axis=1)})
        return out

    def check(self, inp, res):
        if "oracle" not in inp:
            inp["oracle"] = self._oracle(inp)
        out = []
        for i, (rep, o) in enumerate(zip(res["paths"], inp["oracle"])):
            z = mc_z_scores(rep, o["nu_A"])
            zmax = float(np.max(np.abs(z[2:])))
            tv_err = float(np.max(np.abs(rep.tv_exact - o["tv"])))
            monotone = rep.config.x0 is None or bool(np.all(np.diff(rep.tv_exact) <= 1e-12))
            out.append(Check(
                f"simulate_paths[{i}]",
                zmax <= Z_GATE and tv_err <= 1e-10 and monotone,
                f"max|z| n>=2 = {zmax:.1f} (gate {Z_GATE}), z at n=1 = {z[1]:.1f}, "
                f"|tv_exact - oracle|={tv_err:.1e}"))
        return out


def mc_z_scores(rep, nu_A):
    """z of the MC TV estimate against the exact one, per horizon n.

    emp = tv_mc + nu(A*_n) is the share of paths inside the witness set, a
    binomial proportion over rep.config.paths draws. Its SE uses the
    Agresti-Coull centre (k + 2) / (n + 4), which stays away from 0 and 1;
    PathReport.tv_mc_se floors emp(1 - emp) at 1e-300 instead and blows up
    z when emp is 0 or 1.
    """
    n = rep.config.paths
    emp = rep.tv_mc + nu_A
    centre = (emp * n + 2.0) / (n + 4.0)
    se = np.sqrt(centre * (1.0 - centre) / (n + 4.0))
    return (rep.tv_mc - rep.tv_exact) / se


WORKLOADS = {w.name: w for w in (Spectral(), Counting(), Mixing(), Sampler())}
