"""Eigensolvers for the discrete operators.

Three routes, matched to the operator shapes:

  * top_k: ARPACK's implicitly restarted Lanczos (scipy eigsh), one
    route per scheme. A symmetric banded operator B is solved in
    shift-invert mode: one banded Cholesky factor of sigma I - B at
    sigma = 1 + 1e-3, just above the top of a T-tilde, and Lanczos on
    its solves, so the eigenvalues nearest 1 converge first. Its OPinv
    is the negated Cholesky solve, (B - sigma I)^{-1}: scipy maps the
    Ritz values back through 1/(lambda - sigma), so (sigma I - B)^{-1}
    would give the right vectors with wrong eigenvalues. A multiplier
    operator, which has no matrix, is solved on its matvec alone. Both
    start from a vector fixed by a seed, and ARPACK stops once each Ritz
    pair's residual estimate is below RESIDUAL_RTOL / 100 relative to
    its Ritz value, 100x under the gate rather than at machine
    precision; _finish's true residuals then gate every returned pair
    at RESIDUAL_RTOL. Repeated eigenvalues still surface only through
    rounding across the restarts, so the degenerate-level tests are the
    arbiter of multiplicities. The result records how many operator
    applications ARPACK asked for: solves on the banded route, matvecs
    on the multiplier one.
  * bottom_k: LAPACK Sturm bisection (eigh_tridiagonal) on the two
    diagonals of the d = 1 Schrodinger matrix. In d = 2 it reads the
    d = 1 line L_1 off the matrix, whose bottom levels are then the
    smallest sums lambda_i + lambda_j of one d = 1 Sturm solve, with
    eigenvectors u_i (x) u_j; the two orders of a pair give the same
    float, so degenerate levels come out exactly paired. bottom_values
    is the d = 1 path's eigenvalues alone, without the inverse iteration
    for the eigenvectors, optionally only those below a bound.
  * count_at_most: Sylvester inertia of the symmetric banded scheme, by
    one unpivoted banded LDL^T sweep that carries every (operator, shift)
    pair along at once, for a list of operators of any sizes and band
    widths (LAPACK has no banded symmetric indefinite driver). A pair
    whose sweep meets a near-singular leading block of A - s*I, not
    necessarily an eigenvalue of A, is counted from that operator's
    LAPACK banded eigenvalues instead.

Every eigenpair solver ends in one _finish: eigenpairs sorted (ascending
for a SchrodingerOperator, descending otherwise), eigenvectors with unit
L^2(dx) norm (grid weight delta^d), true residuals through the operator's
matvec, and the RESIDUAL_RTOL gate for every route but the dense
reference.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .densities import _require_int
from .errors import ConfigError, NoConvergence
from .operators import BANDED, DiscreteOperator, SchrodingerOperator
from .report import Report

CLUSTER_RTOL = 1e-8
MAX_K = 50
RESIDUAL_RTOL = 1e-9  # true-residual gate, relative to the spectral scale

_LANCZOS_SEED = 0x9E3779B97F4A7C15  # fixed: solves must be reproducible
_SHIFT = 1.0 + 1e-3  # banded shift-invert target, just above the top of a T-tilde


@dataclass
class EigenResult(Report):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(metadata={"json": None})  # columns, unit L^2(dx) norm
    residuals: np.ndarray
    method: str  # DenseReference | ARPACK | SturmBisection | SturmKroneckerSum
    grid_meta: dict = field(metadata={"json": "grid"})
    clusters: list = field(default_factory=list)  # (value, size) pairs
    matvecs: int = 0  # ARPACK's operator applications, solves or matvecs (not _finish's)


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


def _finish(op, vals, vecs, method, scale=None, **cost):
    """Sort (ascending for a SchrodingerOperator, descending otherwise),
    L^2(dx)-normalize and attach the true matvec residuals of op; with a
    scale, every residual must be <= RESIDUAL_RTOL * scale (NoConvergence
    otherwise)."""
    vals = np.asarray(vals, dtype=float)
    order = np.argsort(vals)
    if not isinstance(op, SchrodingerOperator):
        order = order[::-1]
    vals, vecs = vals[order], vecs[:, order]
    grid = op.grid
    w = math.sqrt(grid.delta**grid.dim)
    resid = np.empty_like(vals)
    for i in range(vals.size):
        v = vecs[:, i] / (w * np.linalg.norm(vecs[:, i]))
        vecs[:, i] = v
        resid[i] = w * np.linalg.norm(op.matvec(v) - vals[i] * v)
    if scale is not None and np.any(resid > RESIDUAL_RTOL * scale):
        raise NoConvergence(f"{method} residuals above budget", residuals=resid)
    meta = {"dim": grid.dim, "L": grid.L, "N": grid.N}
    if isinstance(op, DiscreteOperator):
        meta["h"] = op.h
    return EigenResult(vals, vecs, resid, method, meta, _cluster(vals), **cost)


def _require_k(op, k):
    k = _require_int("k", k, 1)
    n = op.grid.size
    if not k <= min(MAX_K, n - 1):
        raise ConfigError(f"k must be in [1, {min(MAX_K, n - 1)}]")


def top_k(op, k):
    """k largest eigenvalues (descending, with multiplicities) of a
    symmetric DiscreteOperator, by ARPACK's implicitly restarted Lanczos
    with its default restart budget, started from a vector fixed by
    _LANCZOS_SEED: in shift-invert mode at _SHIFT on one banded Cholesky
    factor for the banded scheme (ConfigError where _SHIFT I - A has none,
    that is where A reaches _SHIFT), on the matvec for the multiplier
    scheme. The result records the solves or matvecs ARPACK asked for.
    ARPACK stops at RESIDUAL_RTOL / 100 and every pair's true residual
    must be <= RESIDUAL_RTOL * max|lambda|; multiplicities come from
    rounding and are pinned by the degenerate-level tests."""
    if not isinstance(op, DiscreteOperator) or not op.symmetric:
        raise ConfigError("top_k needs a symmetric DiscreteOperator")
    _require_k(op, k)
    n = op.grid.size
    applied = 0

    def counted(apply):
        def f(u):
            nonlocal applied
            applied += 1
            return apply(u)
        return LinearOperator((n, n), matvec=f, dtype=float)

    mode = {"which": "LA"}
    if op.scheme == BANDED:
        ab = -op.to_banded()
        ab[0] += _SHIFT
        try:
            chol = scipy.linalg.cholesky_banded(ab, lower=True)
        except np.linalg.LinAlgError as exc:
            raise ConfigError(f"sigma I - A has no Cholesky factor at sigma = {_SHIFT}: "
                              "A reaches the shift") from exc
        # OPinv must apply (A - sigma I)^{-1}; in this mode ARPACK applies
        # OPinv alone, never A
        mode = {"sigma": _SHIFT, "OPinv": counted(
            lambda x: -scipy.linalg.cho_solve_banded((chol, True), x, check_finite=False))}
    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    try:
        vals, vecs = eigsh(counted(op.matvec), k=k, v0=v0, tol=RESIDUAL_RTOL / 100, **mode)
    except ArpackNoConvergence as exc:
        raise NoConvergence(str(exc)) from exc
    return _finish(op, vals, vecs, "ARPACK", scale=np.max(np.abs(vals)), matvecs=applied)


def bottom_k(op, k):
    """k smallest eigenvalues of a SchrodingerOperator, ascending, by
    Sturm bisection on a tridiagonal matrix: in d = 1 the operator's own,
    whose first k pairs are the result; in d = 2 the d = 1 line L_1 read
    off the matrix (half its diagonal at the nodes x = y, and the
    couplings inside one row of nodes), whose first min(k, N) pairs give
    the k smallest sums lambda_i + lambda_j with eigenvectors u_i (x) u_j
    in row-major node order. The matrix is L_1 (+) L_1, up to V's
    rounding, exactly when V(x, y) = V_1(x) + V_1(y). Every true residual,
    taken against the matrix, must be <= RESIDUAL_RTOL times the largest
    absolute row sum, a Gershgorin bound on the spectral radius, so any
    other V raises NoConvergence."""
    if not isinstance(op, SchrodingerOperator):
        raise ConfigError("bottom_k expects a SchrodingerOperator")
    _require_k(op, k)
    grid = op.grid
    A = op.matrix
    diag, off = A.diagonal(), A.diagonal(1)
    if grid.dim == 2:
        diag, off = diag[:: grid.N + 1] / 2, off[: grid.N - 1]
    m = min(k, grid.N)
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, m - 1))
    method = "SturmBisection"
    if grid.dim == 2:
        sums = np.add.outer(vals, vals).ravel()
        pick = np.argsort(sums, kind="stable")[:k]
        i, j = np.divmod(pick, m)
        vals = sums[pick]
        vecs = (vecs[:, None, i] * vecs[None, :, j]).reshape(grid.size, k)
        method = "SturmKroneckerSum"
    scale = float(abs(A).sum(axis=1).max())
    return _finish(op, vals, vecs, method, scale=scale)


def bottom_values(op, k, upto=math.inf):
    """k smallest eigenvalues of a d = 1 SchrodingerOperator, ascending,
    by bottom_k's Sturm bisection without the eigenvectors, so with no
    residuals to gate; with upto = inf they are bottom_k's to the bit. A
    finite upto bisects only the eigenvalues at most upto, so fewer than
    k may come back, at a cost that grows with how many there are; they
    agree with bottom_k's to the bisection tolerance, not to the bit. An
    upto that is NaN or -inf raises ConfigError."""
    if not isinstance(op, SchrodingerOperator) or op.grid.dim != 1:
        raise ConfigError("bottom_values expects a d = 1 SchrodingerOperator")
    _require_k(op, k)
    if not upto > -math.inf:
        raise ConfigError(f"upto must not be NaN or -inf, got {upto!r}")
    A = op.matrix
    if upto == math.inf:
        select, bounds = "i", (0, k - 1)
    else:
        select, bounds = "v", (-math.inf, upto)
    vals = scipy.linalg.eigh_tridiagonal(
        A.diagonal(), A.diagonal(1), eigvals_only=True, select=select, select_range=bounds
    )
    return vals[:k]


def dense_reference(op, k=None):
    """Dense eigh reference: descending for DiscreteOperator, ascending
    for SchrodingerOperator. Guarded by the dense-assembly size cap; with
    k, LAPACK computes only the k wanted eigenpairs. No residual gate:
    the reference is what the iterative solvers are checked against."""
    schrod = isinstance(op, SchrodingerOperator)
    n = op.grid.size
    subset = None
    if k is not None:
        _require_k(op, k)
        subset = (0, k - 1) if schrod else (n - k, n - 1)
    vals, vecs = scipy.linalg.eigh(op.to_dense(), subset_by_index=subset)
    return _finish(op, vals, vecs, "DenseReference")


# ---------------------------------------------------------------------------
# inertia counts

_PIVOT_FLOOR = 1e-13
_GROWTH_CAP = 1e10
_NUDGE = 1e-12  # shifts move by this, relative, off computed eigenvalues
# Steps per staged chunk of _ldl_sweep; even, so that a step's window
# buffer is fixed by its place in the chunk. Timed on weyl_curve's one
# batched sweep (n = 800, 1200, 1600 at K = 9, 10 shifts, 30 columns),
# one BLAS thread, 2 shared CPUs, best of 10 per round: in 40 interleaved
# rounds of 8, 16 and 32 steps, 16 beat 8 in 35 and 32 beat 16 in 29;
# in 20 more rounds of 16 against 32 alone, 32 won 17, median 22.0
# against 25.3 ms (a loaded box: rounds swung from 18 to 55 ms). 16
# stays: 32's edge is about 3% of the sweep, and the chunk-edge tests'
# sizes follow this constant. It keeps the staged rows and multipliers
# at 73 KB for these inputs.
_SWEEP_CHUNK = 16


def _ldl_sweep(bands, shifts):
    """Negatives of A - s*I for every operator A and shift s, and which
    (operator, shift) pairs passed, as (operators, shifts) int64 and bool
    arrays.

    Unpivoted right-looking banded LDL^T, bands[o][k, i] = A_o[i, i+k],
    with one column of the sweep per (operator, shift) pair. Each column
    keeps the (K+1)x(K+1) trailing window W of its Schur complement (only
    the lower triangle is read), and all columns advance together in two
    (K+1, K+1, columns) window buffers that take turns, the column axis
    innermost so that each row of the trailing block is one contiguous
    run. A step is five numpy calls on views made before the loop, with
    no temporary: store the pivot, divide the pivot column by it into
    the multipliers l, form l w^T in one scratch, subtract that from the
    trailing block into the other buffer, and copy in the row that
    enters. Once per chunk of _SWEEP_CHUNK steps the entering rows of
    A - s*I are staged for every column, from one copy of each
    operator's rows with the shifts broadcast, and the chunk's |l| are
    folded into the growth max. A pivot within _PIVOT_FLOOR of zero
    (relative to that operator's scale) or factor growth past
    _GROWTH_CAP, the symptoms of a near-singular leading block of
    A - s*I, fails that pair alone.

    A narrower band is zero-padded to the widest K: its extra
    multipliers are zero, so every pivot keeps its bits. A shorter
    operator runs on past its last row through rows decoupled from it,
    with a diagonal of 1 for every shift, whose pivots are neither
    counted nor checked and whose multipliers are zero.
    """
    sizes = [b.shape[1] for b in bands]
    Kb, n = max(b.shape[0] for b in bands), max(sizes)
    K, P, S = Kb - 1, len(bands), shifts.size
    R = np.zeros((n + Kb, Kb, P))  # R[p, K-k, o] = A_o[p, p-k], zero off A_o
    for o, (b, n_o) in enumerate(zip(bands, sizes)):
        for k in range(min(b.shape[0], n_o)):
            R[k:n_o, K - k, o] = b[k, : n_o - k]
    past = np.arange(n + Kb)[:, None] >= np.array(sizes)  # rows past A_o's end
    W = np.zeros((2, Kb, Kb, P * S))  # step j's window is W[j % 2]
    W4 = W.reshape(2, Kb, Kb, P, S)
    for m in range(Kb):
        W4[0, m, : m + 1] = R[m, K - m :, :, None]
        W4[0, m, m] -= shifts
        W4[0, m, m, past[m]] = 1.0
    # as the window: its pivot, the column below it, the trailing block
    # and the pivot row of that block (read from the lower triangle); as
    # the next window: the block the update lands in and the row that
    # enters
    window = [(w[0, 0], w[1:, :1], w[1:, 1:], w[None, 1:, 0]) for w in W]
    target = [(w[:K, :K], w[K]) for w in W]
    entering = np.empty((_SWEEP_CHUNK, Kb, P, S))  # rows of A - s*I, by step
    l = np.empty((_SWEEP_CHUNK, K, 1, P * S))  # multipliers, by step
    lw = np.empty((K, K, P * S))
    steps = [window[c % 2] + target[1 - c % 2] + (l[c], entering[c].reshape(Kb, P * S))
             for c in range(_SWEEP_CHUNK)]
    D = np.empty((n, P * S))
    grow = np.zeros(P * S)
    with np.errstate(all="ignore"):  # a failed pair's column may overflow
        for j0 in range(0, n, _SWEEP_CHUNK):
            m = min(_SWEEP_CHUNK, n - j0)
            rows = R[j0 + Kb : j0 + Kb + m]
            entering[:m] = rows[..., None]
            np.subtract(rows[:, K, :, None], shifts, out=entering[:m, K])
            entering[:m, K][past[j0 + Kb : j0 + Kb + m]] = 1.0
            for j, (piv, col, trail, row, top, new, lj, ej) in zip(range(j0, j0 + m), steps):
                D[j] = piv
                np.divide(col, piv, out=lj)
                np.multiply(lj, row, out=lw)
                np.subtract(trail, lw, out=top)
                new[...] = ej
            lm = np.abs(l[:m], out=l[:m])
            np.maximum(grow, np.max(lm, axis=(0, 1, 2), initial=0.0), out=grow)
        D = D.reshape(n, P, S)
        ok = (grow <= _GROWTH_CAP).reshape(P, S)
        neg = np.empty((P, S), dtype=np.int64)
        for o, (b, n_o) in enumerate(zip(bands, sizes)):
            Do = D[:n_o, o]
            scale = float(np.max(np.abs(b))) + np.abs(shifts)
            ok[o] &= np.all(np.abs(Do) > _PIVOT_FLOOR * scale, axis=0)
            neg[o] = np.sum(Do < 0.0, axis=0)
    return neg, ok


def count_at_most(ops, shifts):
    """(counts, flagged), both (operators, shifts): counts[o, i] =
    #{lambda <= shifts[i]} of ops[o], a non-empty list of symmetric banded
    DiscreteOperators, by one multi-shift banded LDL^T sweep over all of
    them (Sylvester inertia), and flagged marks the pairs LAPACK counted.

    Each shift is evaluated at s + eps, eps = 1e-12 * max(|shifts|, 1),
    so a shift that lands on an eigenvalue (up to roundoff) resolves as
    lambda <= s instead of flapping. A pair the sweep flags (a leading
    block of A - (s + eps)I near singular) is counted from LAPACK's banded
    eigenvalues of that operator at the same s + eps. Eigenvalue pairs
    closer than eps are not resolved.
    """
    if not isinstance(ops, (list, tuple)) or not ops or not all(
        isinstance(op, DiscreteOperator) and op.scheme == BANDED and op.symmetric for op in ops
    ):
        raise ConfigError("count_at_most needs a non-empty list of symmetric banded operators")
    shifts = np.asarray(shifts, dtype=float)
    if shifts.ndim != 1 or shifts.size == 0 or not np.all(np.isfinite(shifts)):
        raise ConfigError(f"shifts must be a non-empty list of finite numbers, got {shifts}")
    at = shifts + _NUDGE * max(float(np.max(np.abs(shifts))), 1.0)
    bands = [op.to_banded() for op in ops]
    counts, ok = _ldl_sweep(bands, at)
    flagged = ~ok
    for o in np.flatnonzero(flagged.any(axis=1)):
        # the sweep counts the strict negatives of A - (s + eps)I
        ev = scipy.linalg.eigvals_banded(bands[o], lower=True)
        counts[o, flagged[o]] = np.searchsorted(ev, at[flagged[o]], side="left")
    return counts, flagged
