"""Discrete representations of the ball-average operator and its relatives.

Four operators on a truncated uniform grid:

  * T-tilde = D_a T-bar D_a, the ball average T-bar conjugated by the weight
    a_h, in a banded quadrature or a periodic Fourier-multiplier scheme,
    by default banded in d = 1 and multiplier in d = 2 (_SCHEME_OF_DIM);
    T-bar itself is T-tilde at a = 1 (one constructor builds both),
  * T, the Markov form (row-stochastic, exactly similar to the banded
    T-tilde),
  * L = -Lap + V, the Schrodinger comparison operator (positive
    Laplacian sign convention), second-order stencil with Dirichlet walls,
    stored as one scipy.sparse CSR matrix in d = 1 and d = 2.

The first three share one form, A = diag(lscale) C diag(rscale) with C a
symmetric Toeplitz band or circulant, so A's transpose swaps the scales.
Grid nodes are cell centers, x_i = -L + (i + 1/2) delta. The banded scheme
restricts the infinite banded matrix to the box (zero extension) and
caches nothing: a vector product is one band convolution (_band_apply),
and DiscreteOperator.powers steps an (n, S) block by one matmul per step
of a stack of Toeplitz blocks with both scales folded in, built per call.
Its T and T-tilde are one chain, the ball walk of rho restricted to the
box: both are normalized by the in-box stencil mass m = C rho, so T is
exactly stochastic with the stationary law nu ~ rho m (_banded_chain).
The multiplier scheme works on the periodic box, one n-d real FFT pair,
and tapers the conjugation weight to zero inside a buffer strip so
wrap-around never sees mass.

Banded stencil. Interior cells get weight delta; the two outermost cells
on each side get the pair (u, v) fixed by matching the mass 2h and second
moment 2h^3/3 of the exact kernel. Plain cell-overlap edge weights carry
an O(delta^2/h^2) second-moment error, which shifts eigenvalues by more
than the cross-scheme budget; the matched pair removes the theta^2 symbol
error entirely, leaving O(theta^4).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
from numpy.lib.stride_tricks import sliding_window_view

from .densities import (_require_h, _require_int, _require_mass, _require_positive, eval_density,
                        eval_potential, weight_a_h)
from .errors import ConfigError, KernelUnderResolved, NumericalError
from .multiplier import eval_Gd

BANDED = "banded"
MULTIPLIER = "multiplier"
_SCHEME_OF_DIM = {1: BANDED, 2: MULTIPLIER}  # the constructors' scheme where none is named


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [-L, L]^d with N cells per axis."""

    dim: int
    L: float
    N: int

    def __post_init__(self):
        if _require_int("dim", self.dim, 1) not in (1, 2):
            raise ConfigError(f"grid dim must be 1 or 2, got {self.dim}")
        if _require_int("N", self.N, 8) % 2 != 0:
            raise ConfigError("N must be even and at least 8")
        _require_positive("L", self.L)

    @property
    def delta(self):
        return 2.0 * self.L / self.N

    def axis_nodes(self):
        return -self.L + (np.arange(self.N) + 0.5) * self.delta

    def nodes(self):
        """Node coordinates; (N,) for d=1, (N^2, 2) row-major for d=2."""
        x = self.axis_nodes()
        if self.dim == 1:
            return x
        X, Y = np.meshgrid(x, x, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    @property
    def size(self):
        return self.N**self.dim


def band_weights(h, delta):
    """One-sided stencil weights c_0..c_K for the d=1 ball kernel.

    c_m = delta for m <= K-2; the edge pair (c_{K-1}, c_K) matches mass
    and second moment of 1_{|t|<h} dt exactly. K is the largest integer
    with K delta < h, so every weight multiplies a cell with |x_j - x_i|
    strictly inside the ball. ConfigError unless h and delta are finite
    and positive.
    """
    _require_h(h)
    _require_positive("delta", delta)
    K = int(math.floor(h / delta))
    if K * delta >= h:
        K -= 1
    if K < 2:
        raise KernelUnderResolved(f"h={h} needs at least 3 cells per radius, delta={delta}")
    c = np.full(K + 1, delta)
    mass = h - (K - 1.5) * delta  # u + v
    m2 = (h**3 / 3.0 - delta**3 * np.sum(np.arange(1, K - 1, dtype=float) ** 2)) / delta**2
    # solve u (K-1)^2 + v K^2 = m2 with u + v = mass
    u = (mass * K * K - m2) / (2.0 * K - 1.0)
    v = mass - u
    c[K - 1] = u
    c[K] = v
    return c


def _require_resolved(grid, h):
    if h < 3.0 * grid.delta:
        raise KernelUnderResolved(
            f"h={h} < 3 delta={3 * grid.delta}: ball kernel under-resolved"
        )


def _smootherstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def taper_profile(grid, h, alpha):
    """Multiplier-scheme wall taper: 1 in the bulk, smooth drop to 0 over a
    buffer strip of width max(5h, 5/sqrt(alpha)) at each wall. ConfigError
    unless h and alpha are finite and positive."""
    _require_h(h)
    _require_positive("alpha", alpha)
    buf = max(5.0 * h, 5.0 / math.sqrt(alpha))
    if buf >= grid.L:
        raise ConfigError(f"box half-width {grid.L} smaller than taper buffer {buf}")
    prof = _smootherstep((grid.L - np.abs(grid.axis_nodes())) / buf)
    return functools.reduce(np.multiply.outer, [prof] * grid.dim).ravel()


# Rows per block of the banded product. Interleaved timings of
# walk._evolve_tv, 200 steps of a 100-column block on the 1,516-row TV
# window of a 2400-node grid (K = 24), one BLAS thread, best of 5 in each
# of 10 rounds: 8, 12 and 16 rows tie (medians 126, 127 and 129 ms; 8
# beats 12 in 7 rounds). The products alone on all 2,400 rows, best and
# median of 12: 8 and 12 rows tie (73-78 ms), 16 takes 77-80 ms, 24
# 83-87 ms and 32 90-94 ms. 12 also leaves the 200- and 250-node test
# grids with a ragged last block.
_BLOCK_ROWS = 12


def _band_apply(c, u):
    """C u for the symmetric band C[i, j] = c[|i - j|], |i - j| <= K, cut
    to the len(u) nodes (zero extension): one full convolution, which also
    holds when 2K + 1 > len(u)."""
    K = len(c) - 1
    return np.convolve(u, np.concatenate([c[:0:-1], c]))[K : K + len(u)]


@dataclass
class DiscreteOperator:
    """A = diag(lscale) C diag(rscale) on the grid, C symmetric: the band
    C[i, j] = stencil[|i - j|], |i - j| <= K (banded scheme), or the
    circulant of the real symbol on the periodic box (multiplier scheme).
    A^T swaps lscale and rscale, so A is symmetric when they are equal.
    The banded scheme has one kernel per operand: matvec is a band
    convolution, powers (walk._evolve) a block GEMM."""

    scheme: str
    grid: Grid
    h: float
    stencil: np.ndarray = None
    lscale: np.ndarray = None
    rscale: np.ndarray = None
    symbol: np.ndarray = None
    meta: dict = field(default_factory=dict)

    @property
    def symmetric(self):
        return self.lscale is self.rscale or np.array_equal(self.lscale, self.rscale)

    def matvec(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.grid.size,):
            raise ConfigError(f"expected shape ({self.grid.size},), got {u.shape}")
        if self.scheme == BANDED:
            return self.lscale * _band_apply(self.stencil, self.rscale * u)
        shape, axes = (self.grid.N,) * self.grid.dim, range(self.grid.dim)
        w = self.symbol * np.fft.rfftn((self.rscale * u).reshape(shape), s=shape, axes=axes)
        return self.lscale * np.fft.irfftn(w, s=shape, axes=axes).ravel()

    def powers(self, q0, n_max):
        """Yield A^k q0, k = 0 .. n_max, for an (n, S) block q0.

        A is taken in blocks of B = _BLOCK_ROWS rows (rows = n padded to a
        multiple of B with zero rows): the (rows / B, B, B + 2K) stack of
        the Toeplitz block T[r, r + K + m] = c[|m|], |m| <= K, times lscale
        on its rows and its window of the zero-padded rscale on its
        columns. The powers live inside two zero-padded (K + rows + K, S)
        buffers that swap every step. Each buffer gets its overlapping
        (B + 2K) x S windows, B rows apart, and its interior as
        (rows / B, B, S) once; a step is then one np.matmul of the stack
        against one buffer's windows, straight into the other's interior
        (the zero rows of the last block clear the rows it spills into).
        Each power is an (n, S) view that the step two powers later
        overwrites. The next step reads that same view, so an in-place edit
        of a yielded power, made before the next one is asked for, carries
        into every later power.
        """
        if self.scheme != BANDED:
            raise ConfigError("powers needs the banded scheme")
        if np.ndim(q0) != 2 or len(q0) != self.grid.size:
            raise ConfigError(f"expected an ({self.grid.size}, S) block, got {np.shape(q0)}")
        (n, S), K, B = q0.shape, len(self.stencil) - 1, _BLOCK_ROWS
        pad = -n % B
        rows = n + pad
        full = np.pad(np.concatenate([self.stencil[:0:-1], self.stencil]), (0, B - 1))
        lrows = np.pad(self.lscale, (0, pad)).reshape(-1, B, 1)
        rcols = sliding_window_view(np.pad(self.rscale, (K, K + pad)), B + 2 * K)[::B, None]
        stack = scipy.linalg.toeplitz(np.pad(full[:1], (0, B - 1)), full) * lrows * rcols
        # per buffer: the power, its windows, its interior as blocks
        cur, nxt = ((buf[K : K + n],
                     sliding_window_view(buf, B + 2 * K, axis=0)[::B].swapaxes(1, 2),
                     buf[K : K + rows].reshape(-1, B, S))
                    for buf in (np.zeros((K + rows + K, S)), np.zeros((K + rows + K, S))))
        cur[0][...] = q0
        for k in range(n_max + 1):
            yield cur[0]
            if k < n_max:
                np.matmul(stack, cur[1], out=nxt[2])
                cur, nxt = nxt, cur

    def to_dense(self):
        n = self.grid.size
        if n > 4096:
            raise NumericalError(f"refusing dense assembly at N={n}")
        if self.scheme == BANDED:
            C = scipy.linalg.toeplitz(np.pad(self.stencil, (0, n))[:n])
        else:  # C[i, j] = kernel[(j - i) mod N per axis], the circulant of the symbol
            d, N = self.grid.dim, self.grid.N
            kernel = np.fft.irfftn(self.symbol, s=(N,) * d, axes=range(d))
            D = (np.arange(N)[None, :] - np.arange(N)[:, None]) % N
            # axis a's offsets vary along row axis a and column axis d + a
            C = kernel[tuple(D.reshape([N if b in (a, d + a) else 1 for b in range(2 * d)])
                             for a in range(d))].reshape(n, n)
        return self.lscale[:, None] * C * self.rscale[None, :]

    def to_banded(self):
        """Symmetric banded storage bands[k, i] = A[i, i+k], k = 0..K."""
        if self.scheme != BANDED or not self.symmetric:
            raise NumericalError("banded storage needs the symmetric banded scheme")
        c, n = self.stencil, self.grid.size
        bands = np.zeros((len(c), n))
        for k in range(len(c)):
            bands[k, : n - k] = c[k] * self.lscale[: n - k] * self.rscale[k:]
        return bands


def _multiplier_symbol(grid, h):
    """G_d(h |xi|) on the rfftn lattice, whose last axis is the half one."""
    full = 2.0 * math.pi * np.fft.fftfreq(grid.N, grid.delta)
    half = 2.0 * math.pi * np.fft.rfftfreq(grid.N, grid.delta)
    xi = np.meshgrid(*[full] * (grid.dim - 1), half, indexing="ij", sparse=True)
    return eval_Gd(grid.dim, h * np.sqrt(sum(k**2 for k in xi)))


def _conjugated(grid, h, scheme, a):
    """D_a T-bar D_a in either scheme; a = 1 gives T-bar itself."""
    _require_h(h)
    if scheme != MULTIPLIER and (scheme, grid.dim) != (BANDED, 1):
        raise ConfigError(f"no {scheme!r} scheme in d = {grid.dim}")
    _require_resolved(grid, h)
    if scheme == MULTIPLIER:
        return DiscreteOperator(scheme, grid, h, lscale=a, rscale=a,
                                symbol=_multiplier_symbol(grid, h))
    s = a / math.sqrt(2.0 * h)  # split the 1/(2h) across both factors
    c = band_weights(h, grid.delta)
    return DiscreteOperator(scheme, grid, h, stencil=c, lscale=s, rscale=s)


def build_ball_average(grid, h, scheme=None):
    """Plain ball average T-bar (no density attached): T-tilde at a = 1."""
    return _conjugated(grid, h, scheme or _SCHEME_OF_DIM[grid.dim], np.ones(grid.size))


def _banded_chain(grid, density, h):
    """The ball walk of rho restricted to the box, on the banded stencil.

    Returns the one-sided stencil c, rho at the N nodes and the in-box
    stencil mass m = C rho, the band convolution the banded matvec also
    uses. With that m, T = diag(1/m) C diag(rho) is row-stochastic, and
    nu proportional to rho * m is exactly stationary and reversible for it.
    """
    _require_h(h)
    if grid.dim != 1 or density.dim != 1:
        raise ConfigError("the banded chain is implemented for d = 1")
    _require_resolved(grid, h)
    c = band_weights(h, grid.delta)
    x = grid.axis_nodes()
    rho = eval_density(density, x)
    m = _band_apply(c, rho)
    _require_mass(density, x, m)
    return c, rho, m


def build_conjugated(grid, density, h, scheme=None):
    """Symmetric conjugated operator T-tilde = D_a T-bar D_a.

    The banded scheme is the chain of _banded_chain in symmetric form,
    rows and columns scaled by (rho / m)^{1/2}: exactly similar to the
    Markov form, so its top eigenvalue is 1 with eigenvector (rho m)^{1/2}.
    The multiplier scheme has no stencil: it takes weight_a_h from the
    quadrature ball mass and tapers it to zero at the walls.
    """
    _require_h(h)
    if density.dim != grid.dim:
        raise ConfigError("grid and density dimension mismatch")
    scheme = scheme or _SCHEME_OF_DIM[grid.dim]
    if scheme == BANDED:
        c, rho, m = _banded_chain(grid, density, h)
        s = np.sqrt(rho / m)
        return DiscreteOperator(scheme, grid, h, stencil=c, lscale=s, rscale=s)
    a = weight_a_h(density, grid.nodes(), h) * taper_profile(grid, h, density.alpha)
    return _conjugated(grid, h, scheme, a)


def build_markov(grid, density, h):
    """Markov form T = diag(1/m) C diag(rho) of _banded_chain (banded,
    non-symmetric): row i averages against rho over the ball inside the
    box, so every row sums to 1.

    Exactly similar to the banded conjugated operator via the diagonal
    (rho * m)^{-1/2}, so their spectra coincide in floating point; nu
    proportional to rho * m, meta["stationary"], is the stationary row
    vector. rho is rscale and m is 1 / lscale.
    """
    c, rho, m = _banded_chain(grid, density, h)
    nu = rho * m / np.sum(rho * m)
    return DiscreteOperator(BANDED, grid, h, stencil=c, lscale=1.0 / m, rscale=rho,
                            meta={"stationary": nu})


# ---------------------------------------------------------------------------
# Schrodinger comparison operator

@dataclass
class SchrodingerOperator:
    """L = -Laplacian + V as one scipy.sparse CSR matrix on the grid's
    nodes (row-major in d = 2), second-order stencil, Dirichlet walls."""

    grid: Grid
    matrix: scipy.sparse.csr_array

    def matvec(self, u):
        return self.matrix @ np.asarray(u, dtype=float)

    def to_dense(self):
        if self.grid.size > 4096:
            raise NumericalError(f"refusing dense assembly at N={self.grid.size}")
        return self.matrix.toarray()


def build_schrodinger(grid, density):
    """-Lap + V: the Dirichlet second difference D = tridiag(-1, 2, -1) /
    delta^2 on one axis, its Kronecker sum D (+) D on the d = 2 grid (no
    coupling across row ends), plus diag(V)."""
    if density.dim != grid.dim:
        raise ConfigError("grid and density dimension mismatch")
    V = np.asarray(eval_potential(density, grid.nodes()), dtype=float)
    if not np.all(np.isfinite(V)):
        raise NumericalError("potential not finite on the grid")
    D = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(grid.N, grid.N))
    lap = functools.reduce(scipy.sparse.kronsum, [D / grid.delta**2] * grid.dim)
    return SchrodingerOperator(grid, scipy.sparse.csr_array(lap + scipy.sparse.diags_array(V)))
