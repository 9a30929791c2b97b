"""Discrete representations of the ball-average operator and its relatives.

Four operators on a truncated uniform grid:

  * T-tilde = D_a T-bar D_a, the ball average T-bar conjugated by the weight
    a_h, in a banded quadrature or a periodic Fourier-multiplier scheme;
    T-bar itself is T-tilde at a = 1 (one constructor builds both),
  * T, the Markov form (row-stochastic, similar to T-tilde),
  * L = -Lap + V, the Schrodinger comparison operator (positive
    Laplacian sign convention), second-order stencil with Dirichlet walls,
    stored as one scipy.sparse CSR matrix in d = 1 and d = 2.

Grid nodes are cell centers, x_i = -L + (i + 1/2) delta. The banded scheme
restricts the infinite banded matrix to the box (zero extension), and all
its products are DiscreteOperator.powers: one matmul per step of a stack
of Toeplitz blocks with the row scale folded in, built once per operator.
The multiplier scheme works on the periodic box, one FFT axis at a time,
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

from .densities import _radius, _require_h, ball_mass_grid, eval_density, eval_potential
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
        ax = np.abs(self.axis_nodes()) < self.L - h
        return functools.reduce(np.logical_and.outer, [ax] * self.dim).ravel()

    def truncation_ratio(self, density):
        """rho at the wall relative to the center.

        A reported diagnostic, not a gate: no constructor or driver checks
        it. A box rule computed from the density (the radius where rho
        falls below a fixed fraction of its peak) may use it.
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
    prof = _smootherstep((grid.L - np.abs(grid.axis_nodes())) / buf)
    return functools.reduce(np.multiply.outer, [prof] * grid.dim).ravel()


# Rows per block of the banded product. Interleaved timings of 200 steps
# of a 100-column block on a 2400-node grid (K = 24) with one BLAS thread,
# the row scale folded into the blocks, best and median of 12: 8 and 12
# rows tie (73-78 ms), 16 takes 77-80 ms, 24 83-87 ms and 32 90-94 ms.
# 12 also leaves the 200- and 250-node test grids with a ragged last block.
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
    banded: lscale * C (rscale * u), C the symmetric band with
    C[i, j] = stencil[|i - j|] for |i - j| <= K; the scales fold in
    1/(alpha_d h^d) and the conjugation weights. powers is the one banded
    kernel: matvec is one step of it, walk._evolve an (n, S) block of them.
    multiplier: weight * idft(symbol * dft(weight * u)) on the periodic
    box; weight = 1 for the plain ball average.
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

    def matvec(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.grid.size,):
            raise ConfigError(f"expected shape ({self.grid.size},), got {u.shape}")
        if self.scheme == BANDED:
            *_, y = self.powers((self.rscale * u)[:, None], 1)
            return y[:, 0]
        # rfft on the last axis, then fft on each leading one (d = 2 has
        # one): what rfftn does, without its n-d argument handling
        N, lead = self.grid.N, range(self.grid.dim - 1)
        w = np.fft.rfft((self.weight * u).reshape((N,) * self.grid.dim))
        for ax in lead:
            w = np.fft.fft(w, axis=ax)
        w *= self.symbol
        for ax in lead:
            w = np.fft.ifft(w, axis=ax)
        return self.weight * np.fft.irfft(w, n=N).ravel()

    @functools.cached_property
    def _stack(self):
        """diag(lscale) T for each block of B = _BLOCK_ROWS rows: the
        (rows / B, B, B + 2K) stack that powers multiplies, rows = n
        rounded up to a multiple of B, with zero rows past node n. Built on
        the first banded product, so an operator that only goes through
        to_banded never builds it. Cached: a new lscale takes a new
        operator (dataclasses.replace), not an edit in place."""
        B = _BLOCK_ROWS
        scale = np.zeros(-(-self.grid.size // B) * B)
        scale[: self.grid.size] = self.lscale
        return _toeplitz_block(self.stencil) * scale.reshape(-1, B, 1)

    def powers(self, q0, n_max):
        """Yield (diag(lscale) C)^k q0, k = 0 .. n_max, for an (n, S) block q0.

        The powers live inside two zero-padded (K + rows + K, S) buffers
        that swap every step. Each buffer gets its overlapping (B + 2K) x S
        windows, B rows apart, and its interior as (rows / B, B, S) once;
        a step is then one np.matmul of _stack against one buffer's
        windows, straight into the other's interior (the zero rows of the
        last block clear the rows it spills into). Each power is an (n, S)
        view that the step two powers later overwrites. The next step reads
        that same view, so an in-place edit of a yielded power, made before
        the next one is asked for, carries into every later power.
        """
        if self.scheme != BANDED:
            raise ConfigError("powers needs the banded scheme")
        (n, S), K, B = q0.shape, len(self.stencil) - 1, _BLOCK_ROWS
        stack = self._stack
        rows = len(stack) * B
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
            col = np.zeros(n)
            col[: self.stencil.size] = self.stencil[:n]
            return scipy.linalg.toeplitz(col) * self.rscale[None, :] * self.lscale[:, None]
        if self.grid.dim != 1:
            raise NumericalError("dense assembly of the 2-D multiplier scheme is not supported")
        # C[i, j] = kernel[(j - i) mod n], the circulant kernel of the symbol
        C = scipy.linalg.circulant(np.fft.irfft(self.symbol, n=self.grid.N)).T
        return self.weight[:, None] * C * self.weight[None, :]

    def to_banded(self):
        """Symmetric banded storage bands[k, i] = A[i, i+k], k = 0..K."""
        if self.scheme != BANDED or not self.symmetric:
            raise NumericalError("banded storage needs the symmetric banded scheme")
        c, s = self.stencil, self.lscale
        n = self.grid.size
        bands = np.zeros((len(c), n))
        for k in range(len(c)):
            bands[k, : n - k] = c[k] * s[: n - k] * s[k:]
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
        return DiscreteOperator(scheme, grid, h, True, symbol=_multiplier_symbol(grid, h), weight=a)
    s = a / math.sqrt(2.0 * h)  # split the 1/(2h) across both factors
    c = band_weights(h, grid.delta)
    return DiscreteOperator(scheme, grid, h, True, stencil=c, lscale=s, rscale=s)


def build_ball_average(grid, h, scheme=MULTIPLIER):
    """Plain ball average T-bar (no density attached): T-tilde at a = 1."""
    return _conjugated(grid, h, scheme, np.ones(grid.size))


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


def _require_mass(density, x, m):
    """Refuse nodes where rho and m underflow to 0: a_h = 0/0, 1/m = inf."""
    if not np.all(m > 0):
        r = np.min(_radius(density, x)[m <= 0])
        raise NumericalError(f"rho and the ball mass underflow to 0 from radius {r:.6g}")


def build_conjugated(grid, density, h, scheme=MULTIPLIER):
    """Symmetric conjugated operator T-tilde = D_a T-bar D_a.

    The banded scheme takes a_h from the stencil-consistent mass, which
    makes its similarity to the Markov form exact in floating point. The
    multiplier scheme has no stencil: it uses the quadrature ball mass and
    tapers a to zero at the walls.
    """
    _require_h(h)
    if density.dim != grid.dim:
        raise ConfigError("grid and density dimension mismatch")
    x = grid.nodes()
    m = discrete_mass(grid, density, h) if scheme == BANDED else ball_mass_grid(density, x, h)
    _require_mass(density, x, m)
    a = np.sqrt(unit_ball_volume(grid.dim) * h**grid.dim * eval_density(density, x) / m)
    if scheme == MULTIPLIER:
        a *= taper_profile(grid, h, density.alpha)
    return _conjugated(grid, h, scheme, a)


def build_markov(grid, density, h):
    """Markov form T (banded, non-symmetric): row i averages against
    rho over the ball, normalized by the stencil-consistent mass.

    Exactly similar to the banded conjugated operator via
    the diagonal (rho * m)^{-1/2}, so their spectra coincide in floating
    point; nu proportional to rho * m is the stationary row vector.
    """
    _require_h(h)
    if grid.dim != 1 or density.dim != 1:
        raise ConfigError("the Markov form is implemented for d = 1")
    _require_resolved(grid, h)
    c = band_weights(h, grid.delta)
    x = grid.axis_nodes()
    rho = eval_density(density, x)
    m = discrete_mass(grid, density, h)
    _require_mass(density, x, m)
    nu = rho * m / np.sum(rho * m)
    return DiscreteOperator(BANDED, grid, h, False, stencil=c, lscale=1.0 / m, rscale=rho,
                            meta={"mass": m, "rho": rho, "stationary": nu})


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
