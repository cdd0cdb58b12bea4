"""Frequency lattice, spectral projections, norms, and the free Schrodinger
group on rectangular tori.

A rectangular torus is the product of d circles with circumferences
2*pi/theta_j.  Fourier modes live on the stretched lattice xi = theta * n with
integer n_j in [-M_j/2, M_j/2); the Laplacian eigenvalue of a mode is
lambda = |xi|^2.  Everything downstream (projections, Sobolev/Besov norms,
free evolution, dealiased products) is a pure function of a SpectralField.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusGeometry",
    "SpectralField",
    "GeometryMismatchError",
    "is_dyadic",
    "field_from_samples",
    "field_samples",
    "zero_field",
    "mode_field",
    "l2_norm",
    "inner_product",
    "lp_norm",
    "shell_indices",
    "dyadic_blocks",
    "dyadic_project",
    "smooth_dyadic_project",
    "mollifier_ramp",
    "dyadic_bump",
    "zero_block_bump",
    "sobolev_norm",
    "besov_norm",
    "free_evolve",
    "conjugate",
    "product_field",
    "truncate_field",
    "pointwise_product",
    "cubic_field",
    "random_shell_field",
    "shell_extremizer_field",
]


class GeometryMismatchError(ValueError):
    """Raised when fields on different geometries are combined."""


@dataclass(frozen=True)
class TorusGeometry:
    """Dimension, side parameters theta_j, and per-axis mode counts."""

    d: int
    thetas: tuple
    grid: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.thetas) != self.d or len(self.grid) != self.d:
            raise ValueError("thetas and grid must have length d")
        if not all(0 < t < math.inf for t in self.thetas):
            raise ValueError("all thetas must be positive and finite, not %r" % (self.thetas,))
        if any(m < 4 or m % 2 != 0 for m in self.grid):
            raise ValueError("grid sizes must be even integers >= 4")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        object.__setattr__(self, "grid", tuple(int(m) for m in self.grid))

    @property
    def volume(self):
        """Volume of the torus, prod_j 2*pi/theta_j."""
        return math.prod(2.0 * math.pi / t for t in self.thetas)

    @property
    def npoints(self):
        return math.prod(self.grid)

    def padded(self, factor):
        return TorusGeometry(self.d, self.thetas, tuple(factor * m for m in self.grid))


@dataclass
class SpectralField:
    """Truncated Fourier coefficients of a function on the torus.

    coeffs is complex, in numpy FFT ordering per axis, and represents
    f(x) = sum_n coeffs[n] * exp(i xi(n) . x).  Treated as immutable.
    """

    geometry: TorusGeometry
    coeffs: np.ndarray

    def __post_init__(self):
        if tuple(self.coeffs.shape) != self.geometry.grid:
            raise GeometryMismatchError("coefficient shape does not match grid")
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)

    def copy(self):
        return SpectralField(self.geometry, self.coeffs.copy())

    def _check(self, other):
        if self.geometry != other.geometry:
            raise GeometryMismatchError("fields live on different geometries")

    def __add__(self, other):
        self._check(other)
        return SpectralField(self.geometry, self.coeffs + other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.geometry, self.coeffs * scalar)

    __rmul__ = __mul__


def is_dyadic(N):
    """True if N is 0 or a power of two (a valid dyadic block index)."""
    return N == 0 or (N >= 1 and N == 2 ** int(round(math.log2(N))))


def _require_dyadic(N):
    if not is_dyadic(N):
        raise ValueError("block index must be 0 or a power of two, got %r" % (N,))


# ---------------------------------------------------------------------------
# cached per-geometry lattice arrays, read-only: every later caller shares them

def _frozen(a):
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=256)
def _freq_sq(geom):
    """|xi|^2 on the lattice, shape = grid."""
    axes = []
    for t, m in zip(geom.thetas, geom.grid):
        n = np.fft.fftfreq(m, d=1.0 / m)
        axes.append((t * n) ** 2)
    out = np.zeros(geom.grid)
    for ax, a in enumerate(axes):
        shape = [1] * geom.d
        shape[ax] = geom.grid[ax]
        out = out + a.reshape(shape)
    return _frozen(out)


@functools.lru_cache(maxsize=256)
def _freq_abs(geom):
    return _frozen(np.sqrt(_freq_sq(geom)))


@functools.lru_cache(maxsize=256)
def shell_indices(geom):
    """Integer shell index per mode: 0 at xi = 0, else floor(|xi|) + 1.

    Shells are half-open: shell k >= 1 holds |xi| in [k-1, k) excluding the
    origin, which keeps the projectors orthogonal and the partition exact.
    """
    absxi = _freq_abs(geom)
    idx = np.floor(absxi).astype(np.int64) + 1
    idx[absxi == 0.0] = 0
    return _frozen(idx)


@functools.lru_cache(maxsize=256)
def _block_bins(geom):
    """The dyadic bin of every mode and the block N of every bin: bin 0 is
    the zero mode (N = 0), bin j + 1 the shell indices in [2^j, 2^{j+1})
    (N = 2^j).  The bin is the binary exponent of the shell index (frexp,
    whose exponent of 0 is 0), in intp, the index type that np.bincount
    reads without a cast.  Bins run up to the grid's last block; on a
    stretched lattice some of them are empty."""
    bins = np.frexp(shell_indices(geom))[1].astype(np.intp)
    return _frozen(bins), (0,) + tuple(2 ** j for j in range(int(bins.max())))


@functools.lru_cache(maxsize=8)
def _sobolev_weight(geom, s):
    """The per-eigenvalue H^s weight <lambda>^s = (1 + lambda^2)^{s/2}."""
    return _frozen((1.0 + _freq_sq(geom) ** 2) ** (s / 2.0))


@functools.lru_cache(maxsize=8)
def _phase(geom, t):
    """exp(-i t |xi|^2), the free-evolution multiplier.  The key compares t
    by value, so t = -0.0 gets the phase of 0.0: the two differ only in the
    sign of their zero imaginary parts."""
    return _frozen(np.exp(-1j * t * _freq_sq(geom)))


def dyadic_blocks(geom):
    """All dyadic indices N (0, 1, 2, 4, ...) with modes on the grid."""
    bins, Ns = _block_bins(geom)
    return [N for N, count in zip(Ns, np.bincount(bins.ravel())) if count]


def _block_support(geom, N):
    """The mask of the modes of block N, which must be dyadic and hold modes."""
    _require_dyadic(N)
    bins, Ns = _block_bins(geom)
    mask = N in Ns and bins == Ns.index(N)
    if not np.any(mask):
        raise ValueError("block N=%r has no modes on this grid" % (N,))
    return mask


# ---------------------------------------------------------------------------
# transforms and basic constructors

def _axis_band(a, axis, size):
    """a with size entries along axis, in numpy FFT order: the first and the
    last m/2 entries, m = min(a.shape[axis], size), copied and zeros
    elsewhere (a itself when the size is unchanged)."""
    n = a.shape[axis]
    if n == size:
        return a
    m = min(n, size) // 2
    out = np.zeros(a.shape[:axis] + (size,) + a.shape[axis + 1:], dtype=a.dtype)
    lead = (slice(None),) * axis
    out[lead + (slice(0, m),)] = a[lead + (slice(0, m),)]
    out[lead + (slice(size - m, size),)] = a[lead + (slice(n - m, n),)]
    return out


def field_samples(f, big=None):
    """Physical samples of f on the uniform grid of big (default: f's own),
    x_j = (index/P_j) * 2*pi/theta_j, for a grid big with f's sides and no
    smaller than f's on any axis.  This is ifftn(truncate_field(f, big))
    times big's point count, bit for bit: the same per-axis inverse FFTs,
    last axis first, except that each axis is padded only when its turn
    comes, so the lines of the axes still at f's size, all zero on the
    padded cube, are never formed."""
    big = f.geometry if big is None else big
    a = f.coeffs
    for ax in reversed(range(f.geometry.d)):
        a = np.fft.ifft(_axis_band(a, ax, big.grid[ax]), axis=ax)
    return a * big.npoints


def field_from_samples(geom, samples, band=None):
    """The field on geom with these physical samples, cut to the modes of
    band (a geometry with geom's sides; default geom itself).  This is
    truncate_field of fftn(samples) / npoints, bit for bit: fftn's per-axis
    transforms, last axis first, each followed by the cut to band's modes
    along its axis, so later axes transform only the lines that reach
    band."""
    samples = np.asarray(samples)
    if tuple(samples.shape) != geom.grid:
        raise GeometryMismatchError("sample shape does not match grid")
    band = geom if band is None else band
    a = samples
    for ax in reversed(range(geom.d)):
        a = _axis_band(np.fft.fft(a, axis=ax), ax, band.grid[ax])
    return SpectralField(band, a / geom.npoints)


def zero_field(geom):
    return SpectralField(geom, np.zeros(geom.grid, dtype=np.complex128))

def mode_field(geom, n):
    """Single exponential exp(i xi(n) . x)."""
    c = np.zeros(geom.grid, dtype=np.complex128)
    c[tuple(int(ni) % mi for ni, mi in zip(n, geom.grid))] = 1.0
    return SpectralField(geom, c)


# ---------------------------------------------------------------------------
# norms

def l2_norm(f):
    # numpy's own pairwise sum: a BLAS dot splits its sum by thread count,
    # which would make report bytes depend on the machine
    c = f.coeffs
    return math.sqrt(f.geometry.volume) * math.sqrt(float(np.sum(c.real * c.real + c.imag * c.imag)))


def inner_product(f, g):
    """L^2 inner product, antilinear in the first slot."""
    f._check(g)
    return f.geometry.volume * complex(np.vdot(f.coeffs, g.coeffs))


def lp_norm(f, p):
    """Uniform-grid quadrature of the L^p norm on the grid padded by 2; for
    p = inf the max of |samples|, a lower bound of the true sup that is
    adequate for exponent fits."""
    if p != np.inf and p < 1:
        raise ValueError("p must be >= 1")
    big = f.geometry.padded(2)
    s = np.abs(field_samples(f, big))
    if p == np.inf:
        return float(s.max())
    w = big.volume / big.npoints
    return float((np.sum(s ** p) * w) ** (1.0 / p))


def sobolev_norm(f, s):
    """H^s norm with the literal per-eigenvalue weight <lambda>^s,
    <x> = sqrt(1 + x^2), lambda = |xi|^2."""
    w = _sobolev_weight(f.geometry, s)
    return math.sqrt(f.geometry.volume * float(np.sum(w * np.abs(f.coeffs) ** 2)))


def _bracket(x):
    return np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2)


def besov_norm(f, s):
    """B^s_{2,1} norm: sum_N <N>^s ||P_N f||_{L^2}."""
    bins, Ns = _block_bins(f.geometry)
    sums = np.bincount(bins.ravel(), weights=(np.abs(f.coeffs) ** 2 * f.geometry.volume).ravel())
    return float(np.sum(_bracket(Ns) ** s * np.sqrt(sums)))

# ---------------------------------------------------------------------------
# projections

def dyadic_project(f, N):
    """P_N f: f on the modes of block N, 0 elsewhere (0 if N has none)."""
    _require_dyadic(N)
    bins, Ns = _block_bins(f.geometry)
    return SpectralField(f.geometry, np.where(N in Ns and bins == Ns.index(N), f.coeffs, 0.0))


def mollifier_ramp(x):
    """Smooth ramp b(x) / (b(x) + b(1 - x)) with the standard mollifier
    b(x) = exp(-1/x) for x > 0 and 0 otherwise.  b underflows only below
    x = 0.002, so the sum is never 0, and the ramp is exactly 0 for x <= 0
    and exactly 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    def b(y):
        out = np.zeros_like(y)
        pos = y > 0
        out[pos] = np.exp(-1.0 / y[pos])
        return out
    num = b(x)
    return num / (num + b(1.0 - x))


def dyadic_bump(u):
    """Radial bump equal to 1 on [1, 2], supported in [1/2, 4]."""
    u = np.asarray(u, dtype=float)
    return mollifier_ramp((u - 0.5) / 0.5) * mollifier_ramp((4.0 - u) / 2.0)


def zero_block_bump(u):
    """Bump equal to 1 on [0, 1], supported in [0, 2], for the N = 0 block."""
    return mollifier_ramp(2.0 - np.asarray(u, dtype=float))


def smooth_dyadic_project(f, N):
    """Smoothed dyadic projector: the bump is applied per shell index k as
    bump(k/N), so it is identically 1 on the shells k in [N, 2N) that make up
    the block and the identity P~_N P_N = P_N holds exactly."""
    _require_dyadic(N)
    sh = shell_indices(f.geometry).astype(float)
    if N == 0:
        mult = zero_block_bump(sh)
    else:
        mult = dyadic_bump(sh / float(N))
    return SpectralField(f.geometry, f.coeffs * mult)


# ---------------------------------------------------------------------------
# evolution, conjugation, products

def free_evolve(f, t):
    """exp(i t Laplacian): multiplies mode xi by exp(-i t |xi|^2)."""
    return SpectralField(f.geometry, f.coeffs * _phase(f.geometry, t))


def conjugate(f):
    """Complex conjugate of the physical field: c'[n] = conj(c[-n])."""
    c = f.coeffs
    for ax in range(f.geometry.d):
        c = np.roll(np.flip(c, axis=ax), 1, axis=ax)
    return SpectralField(f.geometry, np.conj(c))


def truncate_field(f, target):
    """Re-express f on another grid with the same thetas, padding or
    truncating on every axis (an equal grid gives a copy); a grid that pads
    one axis and truncates another is rejected."""
    if target.thetas != f.geometry.thetas or target.d != f.geometry.d:
        raise GeometryMismatchError("target geometry has different sides")
    pairs = list(zip(target.grid, f.geometry.grid))
    if not (all(p >= m for p, m in pairs) or all(p <= m for p, m in pairs)):
        raise GeometryMismatchError("mixed pad/truncate not supported")
    if target == f.geometry:
        return f.copy()
    c = f.coeffs
    for ax, n in enumerate(target.grid):
        c = _axis_band(c, ax, n)
    return SpectralField(target, c)


def product_field(*factors, conj=None, band=None):
    """Pointwise product of m fields on base grid M, exact on the modes of
    band (a geometry with their sides; by default geom.padded(m), the whole
    band [-mM/2, mM/2)) and returned on it.  Its aliases lie PM away on the
    grid padded by P, so it is formed for the smallest integer P with
    PM >= (mM + B)/2 on every axis of band's grid B: P = m for the whole
    band, 2 for the base band of two or three factors.  conj is an optional
    tuple of booleans marking factors to conjugate; it acts on the samples,
    so each distinct factor object takes one padded inverse FFT.  It moves a
    Nyquist mode -M/2 to +M/2, so a product of m conjugated factors reaches
    mM/2, which may alias onto band.  Both transforms are pruned
    (field_samples, field_from_samples).
    """
    if not factors:
        raise ValueError("need at least one factor")
    geom = factors[0].geometry
    for f in factors[1:]:
        if f.geometry != geom:
            raise GeometryMismatchError("product factors on different geometries")
    m = len(factors)
    band = geom.padded(m) if band is None else band
    if band.thetas != geom.thetas or band.d != geom.d:
        raise GeometryMismatchError("band geometry has different sides")
    big = geom.padded(max(-(-(m * M + B) // (2 * M)) for M, B in zip(geom.grid, band.grid)))
    samples = {}
    prod = None
    for f, cj in zip(factors, conj or (False,) * m):
        if id(f) not in samples:
            samples[id(f)] = field_samples(f, big)
        s = np.conj(samples[id(f)]) if cj else samples[id(f)]
        prod = s if prod is None else prod * s
    return field_from_samples(big, prod, band)


def pointwise_product(f, g):
    """f * g on the base grid: product_field on its base band (pad 2)."""
    return product_field(f, g, band=f.geometry)


def cubic_field(phi):
    """|phi|^2 phi on the base grid: product_field on its base band (pad 2)."""
    return product_field(phi, phi, phi, conj=(False, True, False), band=phi.geometry)


# ---------------------------------------------------------------------------
# data generators

def random_shell_field(geom, N, seed):
    """Standard complex Gaussian coefficients on block N, L^2-normalized.

    Accepts a seed or an existing numpy Generator; deterministic per seed.
    """
    mask = _block_support(geom, N)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    c = rng.standard_normal(geom.grid) + 1j * rng.standard_normal(geom.grid)
    c = np.where(mask, c, 0.0)
    f = SpectralField(geom, c)
    return f * (1.0 / l2_norm(f))


def shell_extremizer_field(geom, N, kind="ones"):
    """Structured data on block N: 'ones' (all-ones coefficients), 'single'
    (one mode near the middle of the block), or 'bell' (Gaussian profile in
    |xi| across the block).  L^2-normalized."""
    mask = _block_support(geom, N)
    absxi = _freq_abs(geom)
    if kind == "ones":
        c = mask.astype(np.complex128)
    elif kind == "single":
        target = 1.5 * N if N > 0 else 0.0
        dist = np.where(mask, np.abs(absxi - target), np.inf)
        c = np.zeros(geom.grid, dtype=np.complex128)
        c[np.unravel_index(np.argmin(dist), geom.grid)] = 1.0
    elif kind == "bell":
        width = max(N / 2.0, 0.5)
        c = np.where(mask, np.exp(-((absxi - 1.5 * N) / width) ** 2), 0.0)
        c = c.astype(np.complex128)
    else:
        raise ValueError("unknown extremizer kind %r" % (kind,))
    f = SpectralField(geom, c)
    return f * (1.0 / l2_norm(f))
