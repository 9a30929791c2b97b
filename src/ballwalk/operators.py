"""Discrete representations of the ball-average operator and its relatives.

Four operators on a truncated uniform grid:

  * T-bar, the plain ball average: banded quadrature scheme or periodic
    Fourier-multiplier scheme,
  * T-tilde = D_a T-bar D_a, the symmetric conjugation by the weight a_h,
  * T, the Markov form (row-stochastic, similar to T-tilde),
  * L = -Lap + V, the Schrodinger comparison operator (positive
    Laplacian sign convention), second-order stencil with Dirichlet walls,
    stored as one scipy.sparse CSR matrix in d = 1 and d = 2.

Grid nodes are cell centers, x_i = -L + (i + 1/2) delta. The banded scheme
restricts the infinite banded matrix to the box (zero extension); the
multiplier scheme works on the periodic box and tapers the conjugation
weight to zero inside a buffer strip so wrap-around never sees mass.

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

from .densities import ball_mass_grid, eval_density, eval_potential
from .errors import ConfigError, KernelUnderResolved, NumericalError
from .multiplier import eval_Gd, unit_ball_volume

BANDED = "banded"
MULTIPLIER = "multiplier"


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [-L, L]^d with N cells per axis."""

    dim: int
    L: float
    N: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"grid dim must be 1 or 2, got {self.dim}")
        if self.N < 8 or self.N % 2 != 0:
            raise ConfigError("N must be even and at least 8")
        if not (self.L > 0):
            raise ConfigError("L must be positive")

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

    def interior_mask(self, h):
        """Nodes farther than h from every box wall."""
        x = self.axis_nodes()
        ax = np.abs(x) < self.L - h
        if self.dim == 1:
            return ax
        return np.outer(ax, ax).ravel()

    def truncation_ratio(self, density):
        """rho at the wall relative to the center; < 1e-12 is the usual gate.

        Not enforced at construction: the essential-band check deliberately
        runs in a tight box (the walls push the core state up, which is the
        conservative direction there), so the gate belongs to the analyses
        that rely on eigenfunction decay.
        """
        wall = self.L if self.dim == 1 else np.array([self.L, 0.0])
        zero = 0.0 if self.dim == 1 else np.zeros(2)
        return float(eval_density(density, wall) / eval_density(density, zero))


def band_weights(h, delta):
    """One-sided stencil weights c_0..c_K for the d=1 ball kernel.

    c_m = delta for m <= K-2; the edge pair (c_{K-1}, c_K) matches mass
    and second moment of 1_{|t|<h} dt exactly. K is the largest integer
    with K delta < h, so every weight multiplies a cell with |x_j - x_i|
    strictly inside the ball.
    """
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
    if u <= 0 or v <= 0:
        raise NumericalError(f"edge weights not positive at h/delta={h/delta}")
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
    buffer strip of width max(5h, 5/sqrt(alpha)) at each wall."""
    buf = max(5.0 * h, 5.0 / math.sqrt(alpha))
    if buf >= grid.L:
        raise ConfigError(f"box half-width {grid.L} smaller than taper buffer {buf}")
    x = grid.axis_nodes()
    prof = _smootherstep((grid.L - np.abs(x)) / buf)
    if grid.dim == 1:
        return prof
    return np.outer(prof, prof).ravel()


# Rows per block of the banded product. Interleaved timings of the batched
# product on a 2400-node grid with one BLAS thread, over 4, 8, 12, 16, 24
# and 32 rows: with 100 columns, 8 and 12 tie at K = 24 (0.42-0.43 ms, and
# 0.51 ms at 32), 8 is up to 12% faster for K <= 41 and 12 up to 3% faster
# at K = 48; a single vector takes 18 us at 12 and 22 us at 8. 12 also
# leaves the 200- and 250-node test grids with a ragged last block.
_BLOCK_ROWS = 12


def _toeplitz_block(c):
    """The B x (B + 2K) block T[r, r + K + m] = c[|m|], |m| <= K: the rows
    of the symmetric band C for one block of B outputs, against that
    block's window of the input padded with K zeros at each end."""
    K = len(c) - 1
    full = np.concatenate([c[:0:-1], c])
    T = np.zeros((_BLOCK_ROWS, _BLOCK_ROWS + 2 * K))
    for r in range(_BLOCK_ROWS):
        T[r, r : r + 2 * K + 1] = full
    return T


@dataclass
class DiscreteOperator:
    """Grid operator in one of the two schemes.

    matvec takes one vector (n,) in either scheme.
    banded: y = lscale * C (rscale * u), C the symmetric band with
    C[i, j] = stencil[|i - j|] for |i - j| <= K; scale factors fold in
    1/(alpha_d h^d) and the conjugation weights. Every product with C is
    one batched GEMM (_band_product) on a zero-padded operand from
    _padded: one column here, an (n, S) block in walk._evolve.
    multiplier: y = weight * idft(symbol * dft(weight * u)) on the
    periodic box (weight absent for the plain ball average).
    """

    scheme: str
    grid: Grid
    h: float
    symmetric: bool
    stencil: np.ndarray = None
    lscale: np.ndarray = None
    rscale: np.ndarray = None
    symbol: np.ndarray = None
    weight: np.ndarray = None
    meta: dict = field(default_factory=dict)
    _block: np.ndarray = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme == BANDED:
            self._block = _toeplitz_block(self.stencil)

    def matvec(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.grid.size,):
            raise ValueError(f"expected shape ({self.grid.size},), got {u.shape}")
        if self.scheme == BANDED:
            return self._banded(u)
        w = u if self.weight is None else self.weight * u
        if self.grid.dim == 1:
            y = np.fft.irfft(np.fft.rfft(w) * self.symbol, n=self.grid.N)
        else:
            W = w.reshape(self.grid.N, self.grid.N)
            y = np.fft.irfft2(np.fft.rfft2(W) * self.symbol, s=(self.grid.N, self.grid.N)).ravel()
        return y if self.weight is None else self.weight * y

    def _banded(self, u):
        """lscale * C (rscale * u) for one vector u: the scaled input goes
        into the interior of a one-column _padded buffer and one
        _band_product writes C of it into a fresh output, so the result
        never shares memory with u."""
        n, K = self.grid.size, len(self.stencil) - 1
        pad = self._padded(1)
        np.multiply(u, self.rscale, out=pad[K : K + n, 0])
        y = np.empty((pad.shape[0] - 2 * K, 1))
        self._band_product(pad, y)
        return y[:n, 0] * self.lscale

    def _padded(self, S):
        """Zero (K + rows + K, S) operand of _band_product: rows is the grid
        size rounded up to a multiple of _BLOCK_ROWS, so the band's input
        sits in rows K .. K + n with zeros on both sides of it."""
        K = len(self.stencil) - 1
        rows = -(-self.grid.size // _BLOCK_ROWS) * _BLOCK_ROWS
        return np.zeros((rows + 2 * K, S))

    def _band_product(self, pad, out):
        """out[:n] = C u for the operand u = pad[K : K + n] of a _padded
        pad whose other rows are zero. out is (rows, S) and C-contiguous;
        its rows past n come out nonzero and are not part of C u. All
        rows / B output blocks are one np.matmul of the fixed
        B x (B + 2K) Toeplitz block against the read-only overlapping
        (B + 2K) x S windows of pad, B rows apart: no copy of the operand
        and no Python loop over blocks."""
        K, B = len(self.stencil) - 1, _BLOCK_ROWS
        windows = sliding_window_view(pad, B + 2 * K, axis=0)[::B].swapaxes(1, 2)
        np.matmul(self._block, windows, out=out.reshape(-1, B, pad.shape[1]))

    def to_dense(self):
        n = self.grid.size
        if n > 4096:
            raise NumericalError(f"refusing dense assembly at N={n}")
        if self.scheme == BANDED:
            col = np.zeros(n)
            col[: self.stencil.size] = self.stencil[:n]
            return scipy.linalg.toeplitz(col) * self.rscale[None, :] * self.lscale[:, None]
        if self.grid.dim != 1:
            raise NumericalError("dense assembly of the 2-D multiplier scheme is not supported")
        # C[i, j] = kernel[(j - i) mod n], the circulant kernel of the symbol
        C = scipy.linalg.circulant(np.fft.irfft(self.symbol, n=self.grid.N)).T
        if self.weight is None:
            return C
        return self.weight[:, None] * C * self.weight[None, :]

    def to_banded(self):
        """Symmetric banded storage bands[k, i] = A[i, i+k], k = 0..K."""
        if self.scheme != BANDED or not self.symmetric:
            raise NumericalError("banded storage needs the symmetric banded scheme")
        c, s = self.stencil, self.lscale
        n = self.grid.size
        bands = np.zeros((len(c), n))
        for k in range(len(c)):
            bands[k, : n - k] = c[k] * s[: n - k] * s[k:] if k else c[0] * s * s
        return bands


def _multiplier_symbol(grid, h, d):
    if d == 1:
        xi = 2.0 * math.pi * np.fft.rfftfreq(grid.N, grid.delta)
        return eval_Gd(1, h * xi)
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.N, grid.delta)
    ky = 2.0 * math.pi * np.fft.rfftfreq(grid.N, grid.delta)
    r = h * np.sqrt(kx[:, None] ** 2 + ky[None, :] ** 2)
    return eval_Gd(2, r)


def build_ball_average(grid, h, scheme=MULTIPLIER):
    """Plain ball average T-bar (no density attached)."""
    _require_resolved(grid, h)
    if scheme == BANDED:
        if grid.dim != 1:
            raise ConfigError("banded scheme is implemented for d = 1")
        c = band_weights(h, grid.delta)
        s = np.full(grid.size, 1.0 / math.sqrt(2.0 * h))
        return DiscreteOperator(BANDED, grid, h, True, stencil=c, lscale=s, rscale=s)
    if scheme != MULTIPLIER:
        raise ConfigError(f"unknown scheme {scheme!r}")
    sym = _multiplier_symbol(grid, h, grid.dim)
    return DiscreteOperator(MULTIPLIER, grid, h, True, symbol=sym)


def discrete_mass(grid, density, h):
    """Stencil-consistent ball mass: m_i = sum_m c_|m| rho(x_i + m delta).

    rho is evaluated once on the N + 2K cell centers that extend the grid
    K cells past each wall, so rows near the boundary see the true
    one-sided mass rather than an artificial cliff; one valid-mode
    convolution with the symmetric stencil gives every row.
    """
    if grid.dim != 1:
        raise ConfigError("discrete mass is a d=1 banded-scheme notion")
    c = band_weights(h, grid.delta)
    K = len(c) - 1
    x = -grid.L + (np.arange(-K, grid.N + K) + 0.5) * grid.delta
    return np.convolve(eval_density(density, x), np.concatenate([c[:0:-1], c]), "valid")


def build_conjugated(grid, density, h, scheme=MULTIPLIER):
    """Symmetric conjugated operator T-tilde = D_a T-bar D_a.

    The banded scheme takes a_h from the stencil-consistent mass, which
    makes its similarity to the Markov form exact in floating point. The
    multiplier scheme has no stencil: it uses the quadrature ball mass and
    tapers a to zero at the walls.
    """
    if density.dim != grid.dim:
        raise ConfigError("grid and density dimension mismatch")
    _require_resolved(grid, h)
    vol = unit_ball_volume(grid.dim) * h**grid.dim
    x = grid.nodes()
    rho = eval_density(density, x)
    if scheme == BANDED:
        if grid.dim != 1:
            raise ConfigError("banded scheme is implemented for d = 1")
        m = discrete_mass(grid, density, h)
        a = np.sqrt(vol * rho / m)
        c = band_weights(h, grid.delta)
        s = a / math.sqrt(2.0 * h)  # split the 1/(2h) across both factors
        return DiscreteOperator(BANDED, grid, h, True, stencil=c, lscale=s, rscale=s)
    if scheme != MULTIPLIER:
        raise ConfigError(f"unknown scheme {scheme!r}")
    m = ball_mass_grid(density, x, h)
    a = np.sqrt(vol * rho / m) * taper_profile(grid, h, density.alpha)
    sym = _multiplier_symbol(grid, h, grid.dim)
    return DiscreteOperator(MULTIPLIER, grid, h, True, symbol=sym, weight=a)


def build_markov(grid, density, h):
    """Markov form T (banded, non-symmetric): row i averages against
    rho over the ball, normalized by the stencil-consistent mass.

    Exactly similar to the banded conjugated operator via
    the diagonal (rho * m)^{-1/2}, so their spectra coincide in floating
    point; nu proportional to rho * m is the stationary row vector.
    """
    if grid.dim != 1 or density.dim != 1:
        raise ConfigError("the Markov form is implemented for d = 1")
    _require_resolved(grid, h)
    c = band_weights(h, grid.delta)
    x = grid.axis_nodes()
    rho = eval_density(density, x)
    m = discrete_mass(grid, density, h)
    op = DiscreteOperator(BANDED, grid, h, False, stencil=c, lscale=1.0 / m, rscale=rho)
    op.meta["mass"] = m
    op.meta["rho"] = rho
    op.meta["stationary"] = rho * m / np.sum(rho * m)
    return op


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
    V = np.asarray(eval_potential(density, grid.nodes()), dtype=float)
    if not np.all(np.isfinite(V)):
        raise NumericalError("potential not finite on the grid")
    D = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(grid.N, grid.N))
    lap = functools.reduce(scipy.sparse.kronsum, [D / grid.delta**2] * grid.dim)
    return SchrodingerOperator(grid, scipy.sparse.csr_array(lap + scipy.sparse.diags_array(V)))
