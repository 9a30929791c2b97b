"""Eigensolvers for the discrete operators.

Three routes, matched to the operator shapes:

  * top_k: ARPACK's implicitly restarted Lanczos (scipy eigsh), one
    route per scheme. A symmetric banded operator B is solved in
    shift-invert mode: one banded Cholesky factor of sigma I - B at
    sigma = 1 + 1e-3, just above the top of a T-tilde, and Lanczos on
    its solves, so the eigenvalues nearest 1 converge first. Its OPinv
    is the negated Cholesky solve, (B - sigma I)^{-1}, by LAPACK's dpbtrs
    on the factor (cho_solve_banded's bits without its per-call checks):
    scipy maps the Ritz values back through 1/(lambda - sigma), so
    (sigma I - B)^{-1} would give the right vectors with wrong
    eigenvalues. This route keeps scipy's Lanczos basis of max(2k + 1,
    20) vectors: on the crowded band spectra of a tempered T-tilde, 2k + 1
    vectors cost 4-6x the solves. A multiplier operator, which has no
    matrix, is solved on its matvec alone, on a basis of
    max(2k + 1, _MIN_NCV) vectors (scipy's formula with a floor of 9
    instead of 20): at k = 6 on the 96 x 96 d = 2 grid it takes 76
    matvecs against the default's 80, each step re-orthogonalizing
    against 13 vectors instead of 20. Both
    start from a vector fixed by a seed, and ARPACK stops once each Ritz
    pair's residual estimate is below RESIDUAL_RTOL / 100 relative to
    its Ritz value, 100x under the gate rather than at machine
    precision; _finish's true residuals then gate every returned pair
    at RESIDUAL_RTOL. Repeated eigenvalues still surface only through
    rounding across the restarts, so the degenerate-level tests are the
    arbiter of multiplicities. The result records how many operator
    applications ARPACK asked for: solves on the banded route, matvecs
    on the multiplier one.
  * bottom_k, bottom_values and levels_at_most: LAPACK Sturm routes on
    the two diagonals of the Schrodinger operator's d = 1 line L_1
    (SchrodingerOperator.line), the operator itself in d = 1. bottom_k
    bisects (eigh_tridiagonal); in d = 2 the bottom levels are the
    smallest sums lambda_i + lambda_j of one d = 1 Sturm solve, with
    eigenvectors u_i (x) u_j; the two orders of a pair give the same
    float, so degenerate levels come out exactly paired. bottom_values
    is the d = 1 path's eigenvalues alone, without the inverse iteration
    for the eigenvectors. levels_at_most is the one route with a finite
    bound: one LAPACK Sturm count of the d = 1 levels up to it, with no
    bisection (analysis's gap screen counts on the ladder with it).
  * count_at_most: Sylvester inertia of the symmetric banded scheme on
    the mirror half. Every banded operator commutes with the mirror
    x -> -x, so A - s*I is orthogonally similar to two banded blocks on
    half the grid that differ only in their last K x K block. One
    unpivoted banded LDL^T sweep carries every (operator, shift) pair of
    the halves along at once, for a list of operators of any sizes and
    band widths (LAPACK has no banded symmetric indefinite driver), with
    each half's rows placed so that all their pivots end at the sweep's
    last step: its pivots count for both blocks, and the Schur
    complement S it leaves adds the negatives of S + C and S - C, C the
    coupling across the centre (Haynsworth's inertia additivity), which
    one batched LAPACK eigvalsh counts for every pair. A pair whose sweep
    meets a near-singular leading block, not necessarily an eigenvalue of
    A, is counted from that operator's LAPACK banded eigenvalues instead.

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
from scipy.linalg.lapack import dpbtrs, dstebz
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .densities import _finite_real, _require_int
from .errors import ConfigError, NoConvergence
from .operators import BANDED, DiscreteOperator, SchrodingerOperator
from .report import Report

CLUSTER_RTOL = 1e-8
MAX_K = 50
RESIDUAL_RTOL = 1e-9  # true-residual gate, relative to the spectral scale

_LANCZOS_SEED = 0x9E3779B97F4A7C15  # fixed: solves must be reproducible
_SHIFT = 1.0 + 1e-3  # banded shift-invert target, just above the top of a T-tilde
# Least Lanczos basis of the multiplier route. ARPACK's matvecs against
# the basis size at k = 1, 2, 3 on the d = 1 multiplier
# build_conjugated(Grid(1, 12, 1600), gaussian alpha = 0.5, 0.25) and on
# the d = 2 Grid(2, 8, 96), alpha = 1, h = 0.5 (2k + 1 / 7 / 9 / 11):
# d = 1 340/92/75/66, 155/124/118/109, -/114/113/108; d = 2 65/32/30/30,
# 53/46/44/47, -/99/93/109. 9 takes fewer than 7 everywhere, fewer than
# 11 on d = 2 at k = 3, and leaves k >= 4 at 2k + 1.
_MIN_NCV = 9


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
    that is where A reaches _SHIFT), with scipy's default basis of
    max(2k + 1, 20) vectors, since 2k + 1 needs 4-6x the solves on a
    crowded band spectrum; on the matvec for the multiplier scheme, with
    a basis of max(2k + 1, _MIN_NCV) vectors, whose shorter
    re-orthogonalizations pay for the few matvecs they add. The result
    records the solves or matvecs ARPACK asked for.
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

    mode = {"which": "LA", "ncv": min(max(2 * k + 1, _MIN_NCV), n)}
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
        mode = {"sigma": _SHIFT, "OPinv": counted(lambda x: -dpbtrs(chol, x, lower=1)[0])}
    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    try:
        vals, vecs = eigsh(counted(op.matvec), k=k, v0=v0, tol=RESIDUAL_RTOL / 100, **mode)
    except ArpackNoConvergence as exc:
        raise NoConvergence(str(exc)) from exc
    return _finish(op, vals, vecs, "ARPACK", scale=np.max(np.abs(vals)), matvecs=applied)


def bottom_k(op, k):
    """k smallest eigenvalues of a SchrodingerOperator, ascending, by
    Sturm bisection on the operator's d = 1 line L_1 (line): in d = 1 the
    operator itself, whose first k pairs are the result; in d = 2 its
    first min(k, N) pairs give the k smallest sums lambda_i + lambda_j
    with eigenvectors u_i (x) u_j in row-major node order. The operator
    is L_1 (+) L_1, up to V's rounding, exactly when V(x, y) = V_1(x) +
    V_1(y). Every true residual, taken through the operator's matvec,
    must be <= RESIDUAL_RTOL times the largest absolute row sum, a
    Gershgorin bound on the spectral radius, so any other V raises
    NoConvergence."""
    if not isinstance(op, SchrodingerOperator):
        raise ConfigError("bottom_k expects a SchrodingerOperator")
    _require_k(op, k)
    grid = op.grid
    m = min(k, grid.N)
    vals, vecs = scipy.linalg.eigh_tridiagonal(*op.line(), select="i", select_range=(0, m - 1))
    method = "SturmBisection"
    if grid.dim == 2:
        sums = np.add.outer(vals, vals).ravel()
        pick = np.argsort(sums, kind="stable")[:k]
        i, j = np.divmod(pick, m)
        vals = sums[pick]
        vecs = (vecs[:, None, i] * vecs[None, :, j]).reshape(grid.size, k)
        method = "SturmKroneckerSum"
    return _finish(op, vals, vecs, method, scale=op._gershgorin())


def bottom_values(op, k):
    """k smallest eigenvalues of a d = 1 SchrodingerOperator, ascending,
    by bottom_k's Sturm bisection without the eigenvectors, so with no
    residuals to gate; they are bottom_k's to the bit."""
    _require_ladder(op, "bottom_values")
    _require_k(op, k)
    return scipy.linalg.eigh_tridiagonal(*op.line(), eigvals_only=True, select="i",
                                         select_range=(0, k - 1))


def levels_at_most(op, bound):
    """#{eigenvalues <= bound} of a d = 1 SchrodingerOperator, by one
    LAPACK Sturm count (stebz over (-inf, bound]) on its line, with an
    absolute tolerance twice a bound on the Gershgorin interval's width,
    so that the interval counts as converged on entry and nothing is
    bisected: the cost is one count's passes over the diagonals, whatever
    the number of levels. A bound that is not a real number, or is NaN
    or -inf, raises ConfigError; +inf counts them all."""
    _require_ladder(op, "levels_at_most")
    if not (_finite_real(bound) or bound == math.inf):
        raise ConfigError(f"bound must not be NaN or -inf, and must be a real number, "
                          f"got {bound!r}")
    d, e = op.line()
    width = float(np.ptp(d) + 4.0 * np.max(np.abs(e), initial=0.0))  # >= Gershgorin's
    m, *_, info = dstebz(d, e, 1, -math.inf, float(bound), 0, 0, 2.0 * width, "E")
    if info != 0:
        raise NoConvergence(f"stebz info = {info}")
    return int(m)


def _require_ladder(op, name):
    if not isinstance(op, SchrodingerOperator) or op.grid.dim != 1:
        raise ConfigError(f"{name} expects a d = 1 SchrodingerOperator")


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
# buffer is fixed by its place in the chunk. Timed on weyl_curve's
# aligned half sweep of the counting inputs (halves of 400, 600 and 800
# rows at K = 9, 9 shifts, 27 columns, 791 steps), one BLAS thread, 2
# shared CPUs, best of 10 per round: in 40 rounds of 8, 16 and 32 steps
# in shuffled order, 16 beat 8 in 31 and 32 beat 16 in 32 (medians 9.58,
# 9.16, 8.98 ms); in 40 more rounds of count_at_most at 16 against 32,
# 32 won 29, medians 12.1 against 11.6 ms with quartiles 11.0-14.6 ms (a
# loaded box). 16 stays: 32's 2-4% edge is inside that spread, and the
# chunk-edge tests' sizes follow this constant. It keeps the staged rows
# and multipliers at 66 KB for these inputs.
_SWEEP_CHUNK = 16


def _ldl_sweep(bands, shifts):
    """The leading pivots of A - s*I for every operator A and shift s, and
    the Schur complement they leave: the negatives among those pivots and
    which (operator, shift) pairs passed, as (operators, shifts) int64 and
    bool arrays, and the (operators, shifts, K, K) trailing windows, whose
    lower triangles alone hold the Schur complements (the upper ones hold
    stale values; np.linalg.eigvalsh reads the lower triangle alone).

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

    Operator o, on n_o rows at half-width K_o, takes t_o = n_o - c_o
    pivots, c_o = min(K_o, n_o), and the sweep takes n = max t_o steps:
    o's rows start at row n - t_o, so that every operator's pivots end
    at step n, whose window holds each Schur complement S_o on its first
    c_o rows, with the identity past it (K is the widest K_o). By
    Haynsworth's inertia additivity, neg(A_o - s*I) is the pivots'
    negatives plus neg(S_o). The rows in front of an operator and past
    its end are decoupled from it, with a diagonal of 1 for every shift:
    the front rows' pivots are neither counted nor checked, and their
    multipliers are zero, as are a narrower band's extra multipliers (it
    is zero-padded to the widest K), so every pivot keeps its bits.
    """
    sizes = [b.shape[1] for b in bands]
    taken = [n_o - min(b.shape[0] - 1, n_o) for b, n_o in zip(bands, sizes)]  # t_o
    Kb, n = max(b.shape[0] for b in bands), max(taken)  # n steps in all
    K, P, S = Kb - 1, len(bands), shifts.size
    R = np.zeros((n + Kb, Kb, P))  # R[d_o + p, K-k, o] = A_o[p, p-k], zero off A_o
    unit = np.ones((n + Kb, P), dtype=bool)  # rows off A_o: diagonal 1
    for o, (b, n_o, t) in enumerate(zip(bands, sizes, taken)):
        d = n - t  # A_o's first row
        for k in range(min(b.shape[0], n_o)):
            R[d + k : d + n_o, K - k, o] = b[k, : n_o - k]
        unit[d : d + n_o, o] = False
    W = np.zeros((2, Kb, Kb, P * S))  # step j's window is W[j % 2]
    W4 = W.reshape(2, Kb, Kb, P, S)
    for m in range(Kb):
        W4[0, m, : m + 1] = R[m, K - m :, :, None]
        W4[0, m, m] -= shifts
        W4[0, m, m, unit[m]] = 1.0
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
            entering[:m, K][unit[j0 + Kb : j0 + Kb + m]] = 1.0
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
        for o, (b, t) in enumerate(zip(bands, taken)):
            Do = D[n - t :, o]
            scale = float(np.max(np.abs(b))) + np.abs(shifts)
            ok[o] &= np.all(np.abs(Do) > _PIVOT_FLOOR * scale, axis=0)
            neg[o] = np.sum(Do < 0.0, axis=0)
    return neg, ok, np.moveaxis(W4[n % 2, :K, :K], (2, 3), (0, 1))


def _mirror_fold(bands):
    """The left half of a mirror-symmetric band and its centre coupling.

    With J the mirror i <-> n-1-i and A = JAJ on n = 2M rows, A is
    orthogonally similar to (A_LL + C') (+) (A_LL - C'), A_LL the leading
    M x M block and C' = A_LR J, which is zero outside its trailing
    c x c block C, c = min(K, M): C[r, r'] = A[t+r, n-1-t-r'], t = M - c.
    Returns (A_LL's bands, a view, and C). ConfigError where the band
    differs from its mirror image by more than _PIVOT_FLOOR * max|b|:
    A = JAJ makes each diagonal a palindrome, b[k, i] = b[k, n-1-k-i].
    """
    Kb, n = bands.shape
    M = n // 2
    tol = _PIVOT_FLOOR * np.max(np.abs(bands))
    if not all(np.max(np.abs(d[: n - k] - d[n - k - 1 :: -1]), initial=0.0) <= tol
               for k, d in enumerate(bands[:n])):
        raise ConfigError("count_at_most needs operators that commute with the mirror x -> -x")
    c = min(Kb - 1, M)
    t, r = M - c, np.arange(c)
    off = 2 * c - 1 - r[:, None] - r  # C[r, r'] = A[t+r, t+r+off] = bands[off, t+r]
    return bands[:, :M], np.where(off < Kb, bands[np.minimum(off, Kb - 1), t + r[:, None]], 0.0)


def count_at_most(ops, shifts):
    """(counts, flagged), both (operators, shifts): counts[o, i] =
    #{lambda <= shifts[i]} of ops[o], a non-empty list of symmetric banded
    DiscreteOperators that commute with the mirror x -> -x, and flagged
    marks the pairs LAPACK counted.

    Sylvester inertia on the mirror half (_mirror_fold): A - sI is
    similar to (A_LL + C' - sI) (+) (A_LL - C' - sI), two banded blocks
    that share every row but the last K x K. So one multi-shift banded
    LDL^T sweep over all the operators' halves (_ldl_sweep) counts the
    negatives of their shared leading pivots twice, and the Schur
    complement S they leave adds those of S + C and S - C, from one
    batched LAPACK eigvalsh of every pair's two K x K blocks. An operator
    whose band is not mirror-symmetric to within _PIVOT_FLOOR of its
    largest entry raises ConfigError.

    Each shift is evaluated at s + eps, eps = 1e-12 * max(|shifts|, 1),
    so a shift that lands on an eigenvalue (up to roundoff) resolves as
    lambda <= s instead of flapping. A pair that the sweep flags (a
    near-singular leading block of a half of A - (s + eps)I) is counted
    from LAPACK's banded eigenvalues of that operator's full band at the
    same s + eps. Eigenvalue pairs closer than eps are not resolved.
    """
    if not isinstance(ops, (list, tuple)) or not ops or not all(
        isinstance(op, DiscreteOperator) and op.scheme == BANDED and op.symmetric for op in ops
    ):
        raise ConfigError("count_at_most needs a non-empty list of symmetric banded operators")
    try:
        values = np.asarray(shifts, dtype=float)
    except (TypeError, ValueError):
        values = np.empty(0)  # refused below
    if values.ndim != 1 or values.size == 0 or not np.all(np.isfinite(values)):
        raise ConfigError(f"shifts must be a non-empty list of finite numbers, got {shifts!r}")
    at = values + _NUDGE * max(float(np.max(np.abs(values))), 1.0)
    bands = [op.to_banded() for op in ops]
    halves, couplings = zip(*map(_mirror_fold, bands))
    neg, ok, windows = _ldl_sweep(halves, at)
    flagged = ~ok
    # a failed pair's window may hold inf or NaN, on which the batched
    # eigvalsh raises for every pair; LAPACK recounts that pair below
    windows[flagged] = np.eye(windows.shape[-1])
    C = np.zeros((len(ops), 2) + windows.shape[2:])  # +C and -C, in S's leading block
    for o, c in enumerate(couplings):
        C[o, :, : len(c), : len(c)] = c, -c
    counts = 2 * neg + np.sum(np.linalg.eigvalsh(windows[:, :, None] + C[:, None]) < 0.0,
                              axis=(2, 3))
    for o in np.flatnonzero(flagged.any(axis=1)):
        # the sweep counts the strict negatives of A - (s + eps)I
        ev = scipy.linalg.eigvals_banded(bands[o], lower=True)
        counts[o, flagged[o]] = np.searchsorted(ev, at[flagged[o]], side="left")
    return counts, flagged
