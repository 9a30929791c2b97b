"""Eigensolvers for the discrete operators.

Three routes, matched to the operator shapes:

  * top_k: ARPACK's implicitly restarted Lanczos (scipy eigsh) on the
    matvec alone, so it works for the FFT multiplier scheme where no
    matrix exists. ARPACK stops once each Ritz pair's residual estimate
    is below RESIDUAL_RTOL / 100 relative to its Ritz value, 100x under
    the gate rather than at machine precision; _finish's true residuals
    then gate every returned pair at RESIDUAL_RTOL. Repeated eigenvalues
    still surface only through rounding across the restarts, so the
    degenerate-level tests are the arbiter of multiplicities. On a d = 1
    multiplier operator A = D_a circ(G_1) D_a, ARPACK starts from the sum
    of the top k eigenvectors of its banded twin B, the banded T-tilde
    with A's own weight a: one banded Cholesky factor of sigma I - B at
    sigma = 1 + 1e-3 and one loose shift-invert Lanczos run. Its OPinv
    is the negated Cholesky solve, (B - sigma I)^{-1}: scipy maps the
    Ritz values back through 1/(lambda - sigma), so (sigma I - B)^{-1}
    gives the right vectors with wrong eigenvalues. B differs from A only
    in the kernel, so the start already lies near A's top eigenvectors
    and A's run takes fewer matvecs. Every other operator, or one whose
    sigma I - B is not positive definite, starts from a vector fixed by a
    seed. The result records which start it took and how many matvecs
    ARPACK asked for.
  * bottom_k: LAPACK Sturm bisection (eigh_tridiagonal) on the two
    diagonals of the d = 1 Schrodinger matrix. A d = 2 operator is the
    Kronecker sum L_1 (+) L_1 of its d = 1 factor, so its bottom levels
    are the smallest sums lambda_i + lambda_j of one d = 1 Sturm solve,
    with eigenvectors u_i (x) u_j; the two orders of a pair give the same
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

Every eigenpair solver ends in one _finish: eigenpairs sorted,
eigenvectors with unit L^2(dx) norm (grid weight delta^d), true residuals
through the operator's matvec, and the RESIDUAL_RTOL gate for every
route but the dense reference.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConfigError, KernelUnderResolved, NoConvergence
from .operators import BANDED, MULTIPLIER, DiscreteOperator, Grid, SchrodingerOperator, _conjugated
from .report import Report

CLUSTER_RTOL = 1e-8
MAX_K = 50
RESIDUAL_RTOL = 1e-9  # true-residual gate, relative to the spectral scale

_LANCZOS_SEED = 0x9E3779B97F4A7C15  # fixed: solves must be reproducible
_TWIN_SIGMA = 1.0 + 1e-3  # shift-invert target just above the top of a T-tilde
_TWIN_TOL = 1e-4  # the twin's vectors only start A's run; A's tol gates the result


@dataclass
class EigenResult(Report):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(metadata={"json": None})  # columns, unit L^2(dx) norm
    residuals: np.ndarray
    method: str  # DenseReference | ARPACK | SturmBisection | SturmKroneckerSum
    grid_meta: dict = field(metadata={"json": "grid"})
    clusters: list = field(default_factory=list)  # (value, size) pairs
    matvecs: int = 0  # operator applications ARPACK asked for (not _finish's)
    start: str = None  # ARPACK's start vector: "banded twin" or "seeded"


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


def _finish(op, vals, vecs, method, ascending=False, scale=None, **cost):
    """Sort, L^2(dx)-normalize and attach the true matvec residuals of
    op; with a scale, every residual must be <= RESIDUAL_RTOL * scale
    (NoConvergence otherwise)."""
    vals = np.asarray(vals, dtype=float)
    order = np.argsort(vals)
    if not ascending:
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
    n = op.grid.size
    if not (1 <= k <= min(MAX_K, n - 1)):
        raise ConfigError(f"k must be in [1, {min(MAX_K, n - 1)}]")


def _twin_start(op, k, v0):
    """Start vector for ARPACK on a d = 1 multiplier operator A: the sum
    of the k eigenvectors nearest _TWIN_SIGMA of its banded twin B, the
    banded T-tilde with A's own weight (B differs from A only in the
    kernel), from one shift-invert Lanczos run started at v0 on one
    banded Cholesky factor of sigma I - B. None for any other operator, for a radius the
    band cannot resolve, or where sigma I - B is not positive definite
    (B reaches sigma)."""
    if op.scheme != MULTIPLIER or op.grid.dim != 1:
        return None
    try:
        ab = -_conjugated(op.grid, op.h, BANDED, op.lscale).to_banded()
        ab[0] += _TWIN_SIGMA
        chol = scipy.linalg.cholesky_banded(ab, lower=True)
    except (KernelUnderResolved, np.linalg.LinAlgError):  # no twin, or B reaches sigma
        return None
    n = op.grid.size
    # OPinv must apply (B - sigma I)^{-1}: with (sigma I - B)^{-1} the
    # vectors still come out right, but scipy reports wrong eigenvalues
    inv = LinearOperator(
        (n, n), dtype=float,
        matvec=lambda x: -scipy.linalg.cho_solve_banded((chol, True), x, check_finite=False))
    # shift-invert ARPACK never applies B itself, only OPinv
    _, vecs = eigsh(inv, k=k, sigma=_TWIN_SIGMA, OPinv=inv, v0=v0, tol=_TWIN_TOL)
    return vecs.sum(axis=1)


def top_k(op, k):
    """k largest eigenvalues (descending, with multiplicities) of a
    symmetric DiscreteOperator, by ARPACK's implicitly restarted Lanczos
    on the matvec with its default restart budget. A d = 1 multiplier
    operator starts from _twin_start's vector, which already lies near
    its top k eigenvectors; any other operator, or one whose twin has no
    Cholesky factor, from a vector fixed by _LANCZOS_SEED. The result
    records the start and the matvecs ARPACK asked for. Whatever the
    start, ARPACK stops at RESIDUAL_RTOL / 100 and every pair's true
    residual must be <= RESIDUAL_RTOL * max|lambda|; multiplicities come
    from rounding and are pinned by the degenerate-level tests."""
    if not isinstance(op, DiscreteOperator) or not op.symmetric:
        raise ConfigError("top_k needs a symmetric DiscreteOperator")
    _require_k(op, k)
    n = op.grid.size
    matvecs = 0

    def matvec(u):
        nonlocal matvecs
        matvecs += 1
        return op.matvec(u)

    seeded = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    v0, start = _twin_start(op, k, seeded), "banded twin"
    if v0 is None:
        v0, start = seeded, "seeded"
    A = LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        vals, vecs = eigsh(A, k=k, which="LA", v0=v0, tol=RESIDUAL_RTOL / 100)
    except ArpackNoConvergence as exc:
        raise NoConvergence(str(exc)) from exc
    return _finish(op, vals, vecs, "ARPACK", scale=np.max(np.abs(vals)),
                   matvecs=matvecs, start=start)


def bottom_k(op, k):
    """k smallest eigenvalues of a SchrodingerOperator, ascending, by
    Sturm bisection on a tridiagonal matrix: in d = 1 the operator's own,
    whose first k pairs are the result; in d = 2 its d = 1 factor L_1
    (ConfigError without one on the same axis), whose first min(k, N)
    pairs give the k smallest sums lambda_i + lambda_j with eigenvectors
    u_i (x) u_j in row-major node order. Every true residual, taken
    against the operator's own matrix, must be <= RESIDUAL_RTOL times the
    largest absolute row sum, a Gershgorin bound on the spectral radius,
    so a factor that disagrees with the matrix raises NoConvergence."""
    if not isinstance(op, SchrodingerOperator):
        raise ConfigError("bottom_k expects a SchrodingerOperator")
    _require_k(op, k)
    grid = op.grid
    line = op if grid.dim == 1 else op.factor
    if line is None or line.grid != Grid(1, grid.L, grid.N):
        raise ConfigError("a d = 2 SchrodingerOperator needs its d = 1 factor on the same axis")
    A = line.matrix
    m = min(k, grid.N)
    vals, vecs = scipy.linalg.eigh_tridiagonal(
        A.diagonal(), A.diagonal(1), select="i", select_range=(0, m - 1)
    )
    method = "SturmBisection"
    if grid.dim == 2:
        sums = np.add.outer(vals, vals).ravel()
        pick = np.argsort(sums, kind="stable")[:k]
        i, j = np.divmod(pick, m)
        vals = sums[pick]
        vecs = (vecs[:, None, i] * vecs[None, :, j]).reshape(grid.size, k)
        method = "SturmKroneckerSum"
    scale = float(abs(op.matrix).sum(axis=1).max())
    return _finish(op, vals, vecs, method, ascending=True, scale=scale)


def bottom_values(op, k, upto=math.inf):
    """k smallest eigenvalues of a d = 1 SchrodingerOperator, ascending,
    by bottom_k's Sturm bisection without the eigenvectors, so with no
    residuals to gate; with upto = inf they are bottom_k's to the bit. A
    finite upto bisects only the eigenvalues at most upto, so fewer than
    k may come back, at a cost that grows with how many there are; they
    agree with bottom_k's to the bisection tolerance, not to the bit."""
    if not isinstance(op, SchrodingerOperator) or op.grid.dim != 1:
        raise ConfigError("bottom_values expects a d = 1 SchrodingerOperator")
    _require_k(op, k)
    if math.isnan(upto):
        raise ConfigError("upto must not be NaN")
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
    return _finish(op, vals, vecs, "DenseReference", ascending=schrod)


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


@dataclass
class ShiftCounts:
    shifts: np.ndarray  # as passed, order and duplicates kept
    counts: np.ndarray  # #{lambda <= s} for each shift
    retries: int = 0  # this operator's shifts the sweep flagged, LAPACK counted


def _ldl_sweep(bands, shifts):
    """Negatives of A - s*I for every operator A and shift s, and which
    (operator, shift) pairs passed, each as an (operators, shifts) array.

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
    """#{lambda <= s} for every shift s of each operator in ops, a
    non-empty list of symmetric banded DiscreteOperators, as one
    ShiftCounts per operator, by one multi-shift banded LDL^T sweep over
    all of them (Sylvester inertia).

    Each shift is evaluated at s + eps, eps = 1e-12 * max(|shifts|, 1),
    so a shift that lands on an eigenvalue (up to roundoff) resolves as
    lambda <= s instead of flapping. A shift the sweep flags for an
    operator (a leading block of A - (s + eps)I near singular) is counted
    from LAPACK's banded eigenvalues of that operator at the same s + eps.
    Eigenvalue pairs closer than eps are not resolved.
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
    counted = []
    for b, counts, ok in zip(bands, *_ldl_sweep(bands, at)):
        if not ok.all():
            # the sweep counts the strict negatives of A - (s + eps)I
            ev = scipy.linalg.eigvals_banded(b, lower=True)
            counts[~ok] = np.searchsorted(ev, at[~ok], side="left")
        counted.append(ShiftCounts(shifts, counts, int(np.count_nonzero(~ok))))
    return counted
