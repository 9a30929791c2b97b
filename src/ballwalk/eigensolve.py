"""Eigensolvers for the discrete operators.

Three routes, matched to the operator shapes:

  * top_k: ARPACK's implicitly restarted Lanczos (scipy eigsh) on the
    matvec alone, so it works for the FFT multiplier scheme where no
    matrix exists. Repeated eigenvalues surface through rounding across
    the restarts rather than by construction, so the degenerate-level
    tests are the arbiter of multiplicities; _finish's true residuals
    gate every returned pair.
  * bottom_k: d=1 Schrodinger operators are tridiagonal, solved by the
    LAPACK Sturm bisection path; d=2 goes through ARPACK's smallest
    algebraic eigenvalues of L.
  * count_in_interval: Sylvester inertia. Banded operators use an
    unpivoted banded LDL^T written here (LAPACK has no banded symmetric
    indefinite driver); a near-zero or exploding pivot means the shift
    essentially hit an eigenvalue, which is answered by a tiny shift
    perturbation and retry. Densified multiplier operators go through
    the pivoted dense LDL^T.

Eigenvectors are returned with unit L^2(dx) norm (grid weight delta^d).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConfigError, NoConvergence, ShiftHitsEigenvalue
from .operators import MULTIPLIER, DiscreteOperator, SchrodingerOperator

CLUSTER_RTOL = 1e-8
MAX_K = 50

_LANCZOS_SEED = 0x9E3779B97F4A7C15  # fixed: solves must be reproducible


@dataclass
class EigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, unit L^2(dx) norm
    residuals: np.ndarray
    method: str  # DenseReference | ARPACK | SturmBisection
    grid_meta: dict
    clusters: list = field(default_factory=list)  # (value, size) pairs

    def to_json(self):
        return json.dumps(
            {
                "eigenvalues": [float(v) for v in self.eigenvalues],
                "residuals": [float(r) for r in self.residuals],
                "method": self.method,
                "grid": self.grid_meta,
                "clusters": [[float(v), int(s)] for v, s in self.clusters],
            },
            sort_keys=True,
        )


def _cluster(values):
    """Group values within CLUSTER_RTOL relative into (mean, size) pairs."""
    out = []
    i = 0
    vals = np.asarray(values, dtype=float)
    while i < vals.size:
        j = i + 1
        while j < vals.size and abs(vals[j] - vals[j - 1]) <= CLUSTER_RTOL * max(
            1.0, abs(vals[j]), abs(vals[j - 1])
        ):
            j += 1
        out.append((float(np.mean(vals[i:j])), j - i))
        i = j
    return out


def _finish(vals, vecs, matvec, grid, method, h=None, ascending=False):
    """Sort, L^2(dx)-normalize, attach true matvec residuals."""
    order = np.argsort(np.asarray(vals, dtype=float))
    if not ascending:
        order = order[::-1]
    vals = np.asarray(vals, dtype=float)[order]
    vecs = vecs[:, order]
    w = math.sqrt(grid.delta**grid.dim)
    resid = np.empty_like(vals)
    for i in range(vals.size):
        v = vecs[:, i] / (w * np.linalg.norm(vecs[:, i]))
        vecs[:, i] = v
        resid[i] = w * np.linalg.norm(matvec(v) - vals[i] * v)
    meta = {"dim": grid.dim, "L": grid.L, "N": grid.N}
    if h is not None:
        meta["h"] = h
    return vals, vecs, resid, meta


def _arpack(matvec, n, k, which, max_iter):
    """k extreme eigenpairs of a symmetric matvec by ARPACK's implicitly
    restarted Lanczos, from a start vector fixed by _LANCZOS_SEED."""
    A = LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    try:
        return eigsh(A, k=k, which=which, v0=v0, maxiter=max_iter)
    except ArpackNoConvergence as exc:
        raise NoConvergence(str(exc)) from exc


def top_k(op, k, max_iter=None):
    """k largest eigenvalues (descending, with multiplicities) of a
    symmetric DiscreteOperator, by ARPACK on the matvec. max_iter is
    ARPACK's restart budget; None leaves ARPACK's default."""
    if not isinstance(op, DiscreteOperator) or not op.symmetric:
        raise ConfigError("top_k needs a symmetric DiscreteOperator")
    n = op.grid.size
    if not (1 <= k <= min(MAX_K, n - 1)):
        raise ConfigError(f"k must be in [1, {min(MAX_K, n - 1)}]")
    vals, vecs = _arpack(op.matvec, n, k, "LA", max_iter)
    vals, vecs, resid, meta = _finish(vals, vecs, op.matvec, op.grid, "ARPACK", h=op.h)
    if np.any(resid > 1e-9 * np.max(np.abs(vals))):
        raise NoConvergence("Ritz residuals above budget", residuals=resid)
    return EigenResult(vals, vecs, resid, "ARPACK", meta, _cluster(vals))


def bottom_k(op, k, max_iter=None):
    """k smallest eigenvalues of a SchrodingerOperator, ascending. d = 1
    is tridiagonal and goes through Sturm bisection (max_iter unused);
    d = 2 goes through ARPACK with max_iter as in top_k."""
    if not isinstance(op, SchrodingerOperator):
        raise ConfigError("bottom_k expects a SchrodingerOperator")
    n = op.grid.size
    if not (1 <= k <= min(MAX_K, n - 1)):
        raise ConfigError(f"k must be in [1, {min(MAX_K, n - 1)}]")
    if op.grid.dim == 1:
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            op.bands[0], op.bands[1][: n - 1], select="i", select_range=(0, k - 1)
        )
        method = "SturmBisection"
    else:
        vals, vecs = _arpack(op.matvec, n, k, "SA", max_iter)
        method = "ARPACK"
    # Gershgorin bound on the spectral radius sets the residual gate's scale
    specrad = float(
        np.max(np.abs(op.bands[0])) + 2.0 * sum(np.max(np.abs(b)) for b in op.bands[1:])
    )
    vals, vecs, resid, meta = _finish(vals, vecs, op.matvec, op.grid, method, ascending=True)
    if np.any(resid > 1e-9 * specrad):
        raise NoConvergence("residuals above budget", residuals=resid)
    return EigenResult(vals, vecs, resid, method, meta, _cluster(vals))


def dense_reference(op, k=None):
    """Dense eigh reference: descending for DiscreteOperator, ascending
    for SchrodingerOperator. Guarded by the dense-assembly size cap."""
    A = op.to_dense()
    vals, vecs = scipy.linalg.eigh(A)
    schrod = isinstance(op, SchrodingerOperator)
    if k is not None:
        vals, vecs = (vals[:k], vecs[:, :k]) if schrod else (vals[-k:], vecs[:, -k:])
    vals, vecs, resid, meta = _finish(
        vals, vecs, op.matvec, op.grid, "DenseReference", ascending=schrod
    )
    return EigenResult(vals, vecs, resid, "DenseReference", meta, _cluster(vals))


# ---------------------------------------------------------------------------
# inertia counts

@dataclass
class CountResult:
    interval: tuple
    count: int
    method: str
    retries: int = 0

    def to_json(self):
        return json.dumps(
            {
                "interval": [float(self.interval[0]), float(self.interval[1])],
                "count": int(self.count),
                "method": self.method,
                "retries": int(self.retries),
            },
            sort_keys=True,
        )


_PIVOT_FLOOR = 1e-13
_GROWTH_CAP = 1e10


def _banded_neg_count(bands, shift):
    """Negatives of A - shift*I by unpivoted banded LDL^T.

    bands[k, i] = A[i, i+k]. Raises ShiftHitsEigenvalue on a pivot too
    close to zero or on factor growth, the symptoms of an eigenvalue at
    or near the shift where the unpivoted factorization loses footing.
    """
    Kb, n = bands.shape
    K = Kb - 1
    scale = float(np.max(np.abs(bands))) + abs(shift)
    d = np.zeros(n)
    Lb = np.zeros((K + 1, n))  # Lb[k, j] = L[j+k, j]
    ks = np.arange(1, K + 1)
    for j in range(n):
        t = np.arange(1, min(K, j) + 1)
        g = Lb[t, j - t]
        wd = g * d[j - t]
        piv = bands[0, j] - shift - float(g @ wd)
        if abs(piv) <= _PIVOT_FLOOR * scale:
            raise ShiftHitsEigenvalue(f"pivot {piv:.3e} at column {j}")
        kmax = min(K, n - 1 - j)
        if kmax > 0:
            a = bands[1 : kmax + 1, j].copy()
            if t.size:
                # s_k = sum_t L[j+k, j-t] L[j, j-t] d[j-t], live while k+t <= K
                kk = ks[:kmax, None] + t[None, :]
                M = np.where(kk <= K, Lb[np.minimum(kk, K), j - t[None, :]], 0.0)
                a -= M @ wd
            col = a / piv
            if np.max(np.abs(col)) > _GROWTH_CAP:
                raise ShiftHitsEigenvalue(f"factor growth at column {j}")
            Lb[1 : kmax + 1, j] = col
        d[j] = piv
    return int(np.sum(d < 0.0))


def _dense_neg_count(A, shift):
    """Negatives via pivoted dense LDL^T (1x1 and 2x2 blocks)."""
    n = A.shape[0]
    _, D, _ = scipy.linalg.ldl(A - shift * np.eye(n))
    scale = float(np.max(np.abs(A))) + abs(shift)
    neg = 0
    i = 0
    while i < n:
        if i + 1 < n and D[i, i + 1] != 0.0:
            det = D[i, i] * D[i + 1, i + 1] - D[i, i + 1] ** 2
            if det == 0.0:
                raise ShiftHitsEigenvalue(f"singular 2x2 block at {i}")
            neg += 1 if det < 0 else (2 if D[i, i] + D[i + 1, i + 1] < 0 else 0)
            i += 2
        else:
            if abs(D[i, i]) <= _PIVOT_FLOOR * scale:
                raise ShiftHitsEigenvalue(f"zero pivot at {i}")
            neg += 1 if D[i, i] < 0 else 0
            i += 1
    return neg


def _contiguous_bands(op):
    """Full bands[k, i] = A[i, i+k] array for banded-storage operators."""
    if isinstance(op, SchrodingerOperator):
        K = max(op.offsets)
        full = np.zeros((K + 1, op.grid.size))
        for row, k in zip(op.bands, op.offsets):
            full[k] = row
        return full
    return op.to_banded()


def count_in_interval(op, a, b):
    """Number of eigenvalues in (a, b] by Sylvester inertia.

    Each bound s is evaluated as #{lambda <= s} = neg(A - (s + eps)I)
    with eps = 1e-12 relative, so a bound that lands exactly on an
    eigenvalue (up to roundoff) resolves to the half-open convention
    instead of flapping. A further perturbation of the same size is
    applied when the factorization itself flags the shift (3 retries).
    Eigenvalue pairs closer than the nudge are not resolved.
    """
    if not (a < b):
        raise ConfigError(f"need a < b, got [{a}, {b}]")
    if isinstance(op, DiscreteOperator) and op.scheme == MULTIPLIER:
        if op.grid.size > 2000:
            raise ConfigError("densified multiplier counts are limited to N <= 2000")
        bands, dense = None, op.to_dense()
    else:
        bands, dense = _contiguous_bands(op), None

    scale = max(abs(a), abs(b), 1.0)
    retries = 0

    def at_most(s):
        nonlocal retries
        shift = s + 1e-12 * scale
        for attempt in range(4):
            try:
                if bands is not None:
                    return _banded_neg_count(bands, shift)
                return _dense_neg_count(dense, shift)
            except ShiftHitsEigenvalue:
                if attempt == 3:
                    raise
                retries += 1
                shift = shift + (attempt + 1) * 1e-12 * scale
        raise AssertionError("unreachable")

    count = at_most(b) - at_most(a)
    method = "inertia-banded" if bands is not None else "inertia-dense"
    return CountResult((float(a), float(b)), count, method, retries)
