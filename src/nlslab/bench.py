"""Empirical exponent fitting for the multilinear estimates on tori, plus the
exact admissible-parameter table.

Every bench sweeps randomized shell data together with structured extremizer
candidates, records per-row LHS/RHS ratios, and fits a log-log slope against
<N> = sqrt(1 + N^2).  The reports are evidence, not proof: each one carries an
explicit flag saying so, and acceptance is by slope bounds with stated slack.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .torus import (
    TorusGeometry,
    _block_bins,
    _bracket,
    _freq_sq,
    besov_norm,
    conjugate,
    l2_norm,
    lp_norm,
    product_field,
    random_shell_field,
    shell_extremizer_field,
    sobolev_norm,
)

__all__ = [
    "AdmissibleParameters",
    "ExperimentReport",
    "admissible_parameters",
    "fit_exponent",
    "fit_loglog",
    "bench_strichartz",
    "bench_bernstein",
    "bench_trilinear",
    "bench_cubic_product",
    "bench_sobolev_product",
    "bench_sobolev_embedding",
]

STRICHARTZ_RANDOM_NT = 32  # time samples of the random rows of bench_strichartz
TRILINEAR_NT = 17  # and of bench_trilinear
STRICHARTZ_CHUNK = 32  # most times per block of _spacetime_lp_mean, a power of two
# bytes that cap a _free_samples block, counted per time as transform
# buffers and scratch rows: 128 MiB holds 32 times of every d=2 Strichartz
# block up to N=64, 4 MiB a time there.  The block fixes the phase
# recurrence, so the samples and the report bytes; the buffers hold lanes x
# group times
STRICHARTZ_BUDGET = 128 << 20
# bytes of one lane's transform buffers and scratch rows in _free_samples; a
# group is as many times as fit, and at least one.  On the strichartz
# workload 1 MiB peaks at 44.9 MiB and 4 MiB at 51.3 MiB, faster in 3 of 4
# pairs; groups of one time make the d=1 sweep to N=64 four times as slow
SAMPLE_GROUP_BUDGET = 1 << 20


@dataclass(frozen=True)
class AdmissibleParameters:
    """Exact rational exponents for which the torus is admissible."""

    d: int
    zeta0: Fraction
    alpha0: Fraction
    epsilon: Fraction
    s0: Fraction
    q0: Fraction
    epsilon_open: bool  # True when the epsilon value is an open endpoint ("+")


def admissible_parameters(d):
    """Exact piecewise formulas for (zeta0, alpha0, epsilon, s0, q0).

    Branches: 2 <= d <= 4 and d >= 5; both agree at d = 4.  s0 is
    max(zeta0, alpha0, d/4) and q0 satisfies d/q0 - d/2 = zeta0.
    """
    if d < 2:
        raise ValueError("d must be >= 2 (d = 1 is handled by nlslab.fl1d)")
    d = int(d)
    if d <= 4:
        zeta0 = Fraction(d * (d - 1), 2 * (d + 2))
        alpha0 = Fraction(d * (d + 5), 6 * (d + 2))
        epsilon = Fraction(max(4 - d, 0), 2 * (d + 2))
        q0 = Fraction(2 * (d + 2), 2 * d + 1)
    else:
        zeta0 = Fraction(d, 2) - 1
        alpha0 = Fraction(d, 6) + Fraction(1, 3)
        epsilon = Fraction(0)
        q0 = Fraction(d, d - 1)
    s0 = max(zeta0, alpha0, Fraction(d, 4))
    assert Fraction(d) / q0 - Fraction(d, 2) == zeta0
    return AdmissibleParameters(d, zeta0, alpha0, epsilon, s0, q0,
                                epsilon_open=(epsilon == 0))


@dataclass
class ExperimentReport:
    """Rows of (parameters, LHS, RHS, ratio) plus a fitted log-log exponent."""

    name: str
    params: dict
    columns: list
    rows: list  # list of tuples matching columns
    seed: int
    trials: int
    slope: float = math.nan
    intercept: float = math.nan
    residual: float = math.nan
    footer: dict = field(default_factory=dict)


def fit_loglog(x, y):
    """Least-squares slope/intercept/rms-residual of log y against log x;
    all NaN below 3 distinct x, where no trend shows."""
    if len({float(v) for v in x}) < 3:
        return math.nan, math.nan, math.nan
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - ly) ** 2)))
    return float(coef[0]), float(coef[1]), resid


def fit_exponent(rows):
    """fit_loglog of ratio against <N> for rows of (N, ratio)."""
    return fit_loglog([math.sqrt(1.0 + float(N) ** 2) for N, _ in rows],
                      [float(r) for _, r in rows])


def _sweep(name, params, columns, d, N_list, trials, seed, ratios, row, fitted=None):
    """The loop of every dyadic bench: one report over the blocks N_list.

    One generator, np.random.default_rng(seed), feeds the whole sweep.  For
    each block N the square torus gets max(8, 4N) points per axis, and
    ratios(geom, N, rng) yields (label, ratio) pairs.  The largest ratio of
    each label, in the order the labels first appear, becomes the row
    row(N, label, best); a ratio that is not finite is an error.  The slope
    is fit_exponent of the per-block maximum over the labels in fitted (all
    labels when None), so the footer says fit = block.
    """
    rng = np.random.default_rng(seed)
    rows, peaks = [], []
    for N in N_list:
        geom = TorusGeometry(d, (1.0,) * d, (max(8, 4 * N),) * d)
        best = {}
        for label, ratio in ratios(geom, N, rng):
            if not math.isfinite(ratio):
                raise ValueError("%s ratio is %g at N=%d, label %s" % (name, ratio, N, label))
            if ratio > best.setdefault(label, 0.0):
                best[label] = ratio
        rows.extend(row(N, label, r) for label, r in best.items())
        peaks.append((N, max(r for label, r in best.items() if fitted is None or label in fitted)))
    slope, intercept, resid = fit_exponent(peaks)
    return ExperimentReport(name, params, columns, rows, seed, trials, slope, intercept, resid,
                            footer={"fit": "block"})


def _trial_fields(geom, N, trials, rng):
    for _ in range(trials):
        yield "random", random_shell_field(geom, N, rng)
    for kind in ("ones", "single", "bell"):
        yield kind, shell_extremizer_field(geom, N, kind)


# ---------------------------------------------------------------------------
# space-time sampling of free evolutions

def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _free_samples(fields, pad, t0, dt, nt, chunk, dtype, consume, region=None, scratch=None):
    """Samples of e^{it Lap} f, for every field f of fields (one geometry),
    at t = t0 + j dt (j < nt) on the grid padded by pad, handed to consume.

    One pass samples every field: the coefficients are stacked on a field
    axis after the row axis, one phase recurrence serves them all, and each
    per-axis inverse FFT transforms every field at once.  region, when
    given, keeps the points 0 <= k_j < region[j] of the padded grid P
    (default: all of P).  consume(times, u, s) receives, for times a slice
    of range(nt), their samples u of shape (k, F) + region (k times, F
    fields) as a view of the last axis's transform buffer: that transform
    runs in place, so the kernel holds its per-axis transform buffers and no
    sample buffer.  u is valid until the next group of its lane, and consume
    may overwrite it in place.  scratch, when given, is a dtype: every
    transform-buffer row then has one contiguous scratch row of shape (F,)
    + region, and s is the group's rows of them (None without scratch).

    The block fixes the samples: a slice's phases come by recurrence, one
    M-sized phase at a time, from exp(-i t0 lambda) times exp(-i dt lambda)
    per step, and each block advances the coefficients by
    exp(-i block dt lambda).  chunk caps the block: it is halved, down to
    1, until the transform buffers and scratch rows of its times fit
    STRICHARTZ_BUDGET bytes, and the block is at most nt times, so it does
    not depend on the CPUs.  The modes are stored fftshifted and scaled by
    the padded grid size, so the samples come out as u e^{i xi(M/2) . x}
    with the padding at the end of each axis.  The inverse FFT runs one axis
    at a time: it skips the rows that are still all zero, and along the axes
    already transformed it takes only the lines inside the region.

    A block runs as contiguous time slices, one per CPU this process may run
    on (lanes): the caller runs the first, a thread each of the others
    (numpy's FFTs and ufuncs release the GIL).  A lane transforms its slice
    a group at a time, as many times as fit SAMPLE_GROUP_BUDGET bytes of
    transform buffers and scratch rows and at least one, so the buffers hold
    lanes x group times, not the block.  Slices write disjoint rows, and the
    phase recurrence does not depend on the grouping, so the samples depend
    on neither the lane count nor the group.  All slices finish, and the
    first error is raised, before the coefficients advance.
    """
    geom = fields[0].geometry
    M, P = geom.grid, geom.padded(pad).grid
    d, F = geom.d, len(fields)
    shapes = [(F,) + P[:a] + M[a:] for a in range(1, d + 1)]
    per_time = np.dtype(dtype).itemsize * sum(math.prod(s) for s in shapes)
    if scratch is not None:
        per_time += np.dtype(scratch).itemsize * F * math.prod(region or P)
    while chunk > 1 and chunk * per_time > STRICHARTZ_BUDGET:
        chunk //= 2
    c = min(chunk, nt)
    lam = np.fft.fftshift(_freq_sq(geom))
    coeffs = np.stack([np.fft.fftshift(f.coeffs) for f in fields]) * math.prod(P)
    start = np.exp(-1j * t0 * lam)
    step = np.exp(-1j * dt * lam)
    advance = step if c == 1 else np.exp(-1j * (c * dt) * lam)  # c dt is dt at c = 1
    del lam
    lanes, errors = min(_cpus(), c), []
    group = max(1, min(SAMPLE_GROUP_BUDGET // per_time, -(-c // lanes)))
    # bufs[a - 1] is the input of the transform along axis a: P wide along
    # axes 1..a, M wide along the later ones; lane i owns rows i*group up
    # to (i+1)*group, each row all F fields.  The modes and the transforms
    # along axes 1..d-1 write only the head of the next input, its first M
    # entries along that axis; the zero tail is the padding.  The last
    # transform runs in place, so bufs[-1] holds the samples, and each
    # group zeroes the tail of the lines it transforms again before it
    # writes.
    bufs = [np.zeros((lanes * group,) + s, dtype=dtype) for s in shapes]
    heads = [b[(slice(None),) * (a + 1) + (slice(0, M[a - 1]),)] for a, b in enumerate(bufs, 1)]
    outs, tail = heads[1:] + bufs[-1:], bufs[-1][..., M[-1]:]
    cut = (slice(None),) + tuple(slice(0, r) for r in (P if region is None else region))
    rows_of = None if scratch is None else np.empty((lanes * group, F) + (region or P), scratch)

    def run(lane, base, lo, hi):
        try:
            phase = start.copy()
            for _ in range(lo):
                phase *= step
            for g in range(lo, hi, group):
                k = min(group, hi - g)
                rows = slice(lane * group, lane * group + k)
                tail[(rows,) + cut[:d]] = 0
                for out in heads[0][rows]:
                    np.multiply(phase, coeffs, out=out)
                    phase *= step
                for a in range(1, d + 1):
                    lines = (rows,) + cut[:a]
                    np.fft.ifft(bufs[a - 1][lines], axis=a + 1, out=outs[a - 1][lines])
                consume(slice(base + g, base + g + k), bufs[-1][(rows,) + cut],
                        None if rows_of is None else rows_of[rows])
        except BaseException as exc:  # raised in the caller, below
            errors.append(exc)

    for base in range(0, nt, c):
        n = min(c, nt - base)
        parts = min(lanes, n)
        cuts = [n * i // parts for i in range(parts + 1)]
        workers = [threading.Thread(target=run, args=(i, base, a, b))
                   for i, (a, b) in enumerate(zip(cuts[1:-1], cuts[2:]), 1)]
        for w in workers:
            w.start()
        run(0, base, 0, cuts[1])
        for w in workers:
            w.join()
        if errors:
            raise errors[0]
        coeffs *= advance


# ---------------------------------------------------------------------------
# Strichartz

def _off_nyquist(c):
    """True when the coefficients c, in numpy FFT order, have no mode on a
    Nyquist plane n_j = -M_j/2, which has no mirror n_j = M_j/2."""
    return not any(m % 2 == 0 and np.take(c, m // 2, axis=a).any()
                   for a, m in enumerate(c.shape))


def _is_even(c):
    """True when the coefficients c, in numpy FFT order, are unchanged by
    every axis reflection n_j -> -n_j and are _off_nyquist; then
    e^{it Lap} f is even in each x_j."""
    return _off_nyquist(c) and all(np.array_equal(c, np.take(c, -np.arange(m) % m, axis=a))
                                   for a, m in enumerate(c.shape))


def _is_real(f):
    """True when f is real-valued: its coefficients satisfy c[-n] = conj(c[n])
    exactly (conjugate(f) is f) and are _off_nyquist.  Then
    e^{-it Lap} f = conj(e^{it Lap} f) at every t."""
    return _off_nyquist(f.coeffs) and np.array_equal(conjugate(f).coeffs, f.coeffs)


def _spacetime_lp_mean(f, p, nt):
    """Midpoint-rule mean of ||e^{it Lap} f||_{L^p}^p over t in [0, 1].

    The pad-2 samples of _free_samples come in single precision, summed in
    float64: the quadrature feeds log-log exponent fits, where float32
    round-off is far below the trial-to-trial spread.  Their phase leaves |u|
    unchanged, and their scale keeps |u|^p clear of float32 subnormals.  If
    every nonzero mode of f has one lambda, |e^{it Lap} f| = |f| at all t, so
    the mean is ||f||_{L^p}^p on the same grid, once in double precision.
    If f is even in every coordinate (_is_even), so is |u|, and only the
    quadrant 0 <= k_j <= P_j/2 of the padded grid P is sampled: a point
    counts twice along each axis where 0 < k_j < P_j/2, standing for its
    mirror P_j - k_j, and once where k_j is 0 or P_j/2.  The weights are
    powers of 2, exact in float32.

    The |u|^p step runs in the time slices of _free_samples, in the samples'
    own buffer: their float32 view is squared in place, and Re^2 + Im^2 goes
    to the lane's contiguous float32 scratch row, one per transform-buffer
    row, where it is raised to p/2 (products, with the real slots as
    scratch, when p/2 is an integer).  The quadrature is defined one time
    at a time: S_j is the float64 np.sum of time j's |u|^p row, and the mean
    is w times the float64 np.sum of S_0 .. S_{nt-1}, in time order, over
    nt.  A group's rows are summed by one np.sum over their field and grid
    axes, which is bit for bit the per-row sum, so the value depends on
    neither the lanes nor the group.  The one call to _free_samples caps its
    block at STRICHARTZ_CHUNK times, and the sampler halves it to fit
    STRICHARTZ_BUDGET; the block depends on the grid only and fixes the
    phase recurrence, so the samples.  No buffer spans the block: the
    transform buffers and power rows hold lanes x group times, and the sums
    one float64 per time.
    """
    geom = f.geometry
    live = _freq_sq(geom)[f.coeffs != 0]
    if np.all(live == live[:1]):
        return lp_norm(f, p) ** p
    target = geom.padded(2)
    w = target.volume / target.npoints
    region = weights = None
    if _is_even(f.coeffs):
        region = tuple(n // 2 + 1 for n in target.grid)
        weights = math.prod(np.ix_(*[np.where(np.arange(r) % (r - 1), 2, 1) for r in region]))
        weights = weights.astype(np.float32)
    half = p / 2.0
    sums, axes = np.empty(nt), tuple(range(1, geom.d + 2))

    def power(times, u, pw):
        v = u.view(np.float32)  # Re u, Im u interleaved
        np.square(v, out=v)
        np.add(v[..., 0::2], v[..., 1::2], out=pw)
        if half != int(half) or half < 2:
            np.power(pw, half, out=pw)
        elif half == 2:
            pw *= pw
        else:  # |u|^4 in the real slots, then times |u|^2 until |u|^p
            m4 = np.multiply(pw, pw, out=v[..., 0::2])
            for _ in range(int(half) - 3):
                m4 *= pw
            pw *= m4
        if weights is not None:
            pw *= weights
        np.sum(pw, axis=axes, dtype=np.float64, out=sums[times])

    _free_samples([f], 2, 0.5 / nt, 1 / nt, nt, STRICHARTZ_CHUNK, np.complex64, power,
                  region=region, scratch=np.float32)
    return w * float(np.sum(sums)) / nt


def bench_strichartz(d, p, N_list, trials, seed):
    """max_f ||e^{it Lap} f||_{L^p([0,1] x torus)} / ||f||_{L^2} per block N.

    Random rows use STRICHARTZ_RANDOM_NT time samples.  The extremizer rows get
    nt = max(128, 2 N^2): the `ones` and `bell` data
    concentrate at t = 0 on a cell of width ~1/N for a time ~1/N^2, so
    their time grid is refined with N to keep the quadrature honest in both
    directions.  Data whose modes all share one lambda (the `single` row)
    has a modulus constant in time and is evaluated exactly at one time.
    The `ones` and `bell` data are even in every coordinate, so their |u|^p
    is summed over one weighted quadrant of the grid (_spacetime_lp_mean).
    """
    if not 1 <= d <= 3:
        raise ValueError("full-grid evaluation supports 1 <= d <= 3, not %d" % d)
    if not 2 * (d + 2) / d < p < math.inf:
        raise ValueError("need a finite p above the critical exponent 2(d+2)/d = %g, not %g"
                         % (2 * (d + 2) / d, p))

    def ratios(geom, N, rng):
        for kind, f in _trial_fields(geom, N, trials, rng):
            nt = STRICHARTZ_RANDOM_NT if kind == "random" else max(128, 2 * N * N)
            yield kind, _spacetime_lp_mean(f, p, nt) ** (1.0 / p) / l2_norm(f)

    rep = _sweep("strichartz", {"d": d, "p": p, "target_slope": d / 2.0 - (d + 2.0) / p},
                 ["N", "data", "lhs", "rhs", "ratio"], d, N_list, trials, seed, ratios,
                 lambda N, kind, r: (N, kind, r, 1.0, r))
    rep.footer["extremizer_slope"] = fit_exponent(
        [(r[0], r[4]) for r in rep.rows if r[1] == "ones"])[0]
    rep.footer["grid"] = "M=4N per axis"
    return rep


# ---------------------------------------------------------------------------
# Bernstein

def bench_bernstein(p, q, N_list, trials, seed, d=2):
    """||P~_N f||_{L^q} / ||f||_{L^p} sweep; target slope d/p - d/q."""
    if p > q:
        raise ValueError("need p <= q")

    def ratios(geom, N, rng):
        for kind, f in _trial_fields(geom, N, trials, rng):
            yield kind, lp_norm(f, q) / lp_norm(f, p)

    target = d / p - (0.0 if q == np.inf else d / q)
    return _sweep("bernstein",
                  {"d": d, "p": p, "q": "inf" if q == np.inf else q, "target_slope": target},
                  ["N", "data", "lhs", "rhs", "ratio"], d, N_list, trials, seed, ratios,
                  lambda N, kind, r: (N, kind, r, 1.0, r))


# ---------------------------------------------------------------------------
# trilinear admissibility (free evolutions)

def _trilinear_samples(phis, eta, T, nt):
    """||u1 u2 u3||_{B^{-eta}} at nt evenly spaced times in [-T, T],
    u_j = e^{it Lap} phi_j.

    The pad-3 grid is exact: factor modes in [-M/2, M/2) give product
    modes in [-3M/2, 3M/2), and nothing aliases on 3M points.  The distinct
    factors (three identical ones are the `ones` row's one object) are one
    _free_samples call at a block of 1, so one lane, whose consume forms
    each time's product in one shared buffer.  The samples are u_j
    e^{i xi(M/2) . x}; the product carries e^{i xi(3M/2) . x}, which on the
    3M grid makes its forward FFT, taken in place, the fftshifted
    coefficients c.  The product's float64 view is squared in place, and
    one bincount of Re^2 + Im^2 over the shifted bins of _block_bins gives
    the block sums.

    When every distinct factor is real-valued (_is_real), u_j(-t) =
    conj(u_j(t)), so the product at -t is the conjugate of the product at t
    and its B^{-eta} norm, whose blocks depend on |xi| only, is even in t.
    The time grid is symmetric, so only its first ceil(nt/2) times are
    evaluated and the rest are their mirrors.
    """
    geom = phis[0].geometry
    target = geom.padded(3)
    distinct = list({id(f): f for f in phis}.values())
    slots = [[g is f for g in distinct].index(True) for f in phis]
    bins, Ns = _block_bins(target)
    bins = np.fft.fftshift(bins).ravel()
    # block norm = sqrt(volume * sum |c|^2), c = fftn(product) / npoints
    weight = _bracket(Ns) ** -eta * (math.sqrt(target.volume) / target.npoints)
    prod = np.empty(target.grid, dtype=np.complex128)
    v = prod.reshape(-1).view(np.float64)  # Re c, Im c interleaved
    vals = np.empty(nt)
    dt = 2.0 * T / max(nt - 1, 1)  # np.linspace(-T, T, nt); nt = 1 is t = -T
    half = (nt + 1) // 2 if all(_is_real(f) for f in distinct) else nt

    def block_norm(times, u, s):
        np.multiply(u[0, slots[0]], u[0, slots[1]], out=prod)
        for j in slots[2:]:
            np.multiply(prod, u[0, j], out=prod)
        np.fft.fftn(prod, out=prod)
        np.square(v, out=v)
        vals[times.start] = float(weight @ np.sqrt(np.bincount(bins, weights=v[0::2] + v[1::2])))

    _free_samples(distinct, 3, -T, dt, half, 1, np.complex128, block_norm)
    vals[half:] = vals[:nt - half][::-1]
    return vals


def _trilinear_ratio(phis, eta, zeta, T, nt):
    """LHS/RHS of the trilinear free-evolution estimate at window [-T, T].

    The LHS is the trapezoid rule over nt times of _trilinear_samples:
    products evaluated exactly on the pad-3 grid, the distinct factors in
    one pass (one field for the `ones` row), and on half the times when
    every factor is real-valued (the same row).  The RHS is
    ||phi1||_{B^{-eta}} ||phi2||_{B^zeta} ||phi3||_{B^zeta}.
    """
    lhs = float(np.trapezoid(_trilinear_samples(phis, eta, T, nt), np.linspace(-T, T, nt)))
    rhs = besov_norm(phis[0], -eta) * besov_norm(phis[1], zeta) * besov_norm(phis[2], zeta)
    return lhs / rhs


def bench_trilinear(d, eta, zeta, N_list, trials, seed, T=1.0):
    """Boundedness sweep of the trilinear estimate over equal dyadic blocks:
    all three factors live on the block N.

    The all-ones extremizer concentrates at t = 0 on a time scale ~1/N^2, so
    its row refines the quadrature grid with N, to nt = max(TRILINEAR_NT,
    2 N^2 + 1); the base TRILINEAR_NT is used for the randomized rows, whose
    integrand has no comparable peak.

    Every product is evaluated exactly, on the pad-3 grid.  The `ones` field
    is built once per block and passed as all three factors, so it is
    transformed once per time sample, not three times.  It is real-valued,
    so its norm is even in t and only the first half of its time grid is
    evaluated (_trilinear_samples).  zeta = None is zeta0 + 0.05.
    """
    pars = admissible_parameters(d)
    if zeta is None:
        zeta = float(pars.zeta0) + 0.05
    if not 0 <= eta <= float(pars.zeta0):
        raise ValueError("need 0 <= eta <= zeta0 = %s" % (pars.zeta0,))
    if zeta <= float(pars.zeta0):
        raise ValueError("need zeta > zeta0 = %s" % (pars.zeta0,))
    if d not in (2, 3):
        raise ValueError("d must be 2 or 3")
    if not 0 < T < math.inf:
        raise ValueError("need T > 0 and finite, not %g" % T)

    def ratios(geom, N, rng):
        for _ in range(trials):
            phis = [random_shell_field(geom, N, rng) for _ in range(3)]
            yield "max", _trilinear_ratio(phis, eta, zeta, T, TRILINEAR_NT)
        ones = shell_extremizer_field(geom, N, "ones")
        nt_ex = max(TRILINEAR_NT, 2 * N ** 2 + 1)
        yield "max", _trilinear_ratio([ones] * 3, eta, zeta, T, nt_ex)

    return _sweep("trilinear", {"d": d, "eta": eta, "zeta": zeta, "T": T},
                  ["N1", "N2", "N3", "max_ratio"], d, N_list, trials, seed, ratios,
                  lambda N, _, r: (N, N, N, r))


# ---------------------------------------------------------------------------
# static products

def bench_cubic_product(d, alpha, N_list, trials, seed):
    """||f1 f2 f3||_{B^{-zeta0}} / prod ||f_i||_{H^alpha} sweep; the product is exact
    (pad 3).  alpha = None is alpha0 + 0.1."""
    pars = admissible_parameters(d)
    if alpha is None:
        alpha = float(pars.alpha0) + 0.1
    if alpha <= float(pars.alpha0):
        raise ValueError("alpha must exceed alpha0 = %s for d = %d" % (pars.alpha0, d))
    zeta0 = float(pars.zeta0)

    def ratio(fs):
        prod = product_field(*fs)
        return besov_norm(prod, -zeta0) / math.prod(sobolev_norm(f, alpha) for f in fs)

    def ratios(geom, N, rng):
        for _ in range(trials):
            yield "max", ratio([random_shell_field(geom, N, rng) for _ in range(3)])
        yield "max", ratio([shell_extremizer_field(geom, N, "ones") for _ in range(3)])

    return _sweep("cubic-product", {"d": d, "alpha": alpha, "zeta0": zeta0},
                  ["N", "max_ratio"], d, N_list, trials, seed, ratios,
                  lambda N, _, r: (N, r))


def bench_sobolev_product(d, rho1, rho2, delta, N_list, trials, seed, rho_tri=None):
    """Bilinear and trilinear Sobolev product sweeps over equal dyadic
    blocks: every factor lives on the block N.

    Bilinear rows: ||f1 f2||_{H^{rho1+rho2-d/2}} vs ||f1||_{H^{rho1+delta}}
    ||f2||_{H^{rho2+delta}} for rho_i in (0, d/2).  Trilinear rows (when
    rho_tri is given, in (d/4, d/2)): ||f1 f2 f3||_{H^{3 rho - d}} vs
    prod ||f_i||_{H^{rho+delta}}.  The slope fits the bilinear rows.
    """
    if not (0 < rho1 < d / 2 and 0 < rho2 < d / 2):
        raise ValueError("need rho_i in (0, d/2)")
    if rho_tri is not None and not (d / 4 < rho_tri < d / 2):
        raise ValueError("trilinear rho must lie in (d/4, d/2)")
    if trials < 1:
        raise ValueError("need trials >= 1: the product rows are random trials only")

    def ratios(geom, N, rng):
        for _ in range(trials):
            f1 = random_shell_field(geom, N, rng)
            f2 = random_shell_field(geom, N, rng)
            prod = product_field(f1, f2)
            yield "bilinear", sobolev_norm(prod, rho1 + rho2 - d / 2.0) / (
                sobolev_norm(f1, rho1 + delta) * sobolev_norm(f2, rho2 + delta))
        if rho_tri is not None:
            for _ in range(trials):
                fs = [random_shell_field(geom, N, rng) for _ in range(3)]
                prod = product_field(*fs)
                yield "trilinear", sobolev_norm(prod, 3 * rho_tri - d) / math.prod(
                    sobolev_norm(f, rho_tri + delta) for f in fs)

    return _sweep("sobolev-product",
                  {"d": d, "rho1": rho1, "rho2": rho2, "delta": delta, "rho_tri": rho_tri},
                  ["form", "N1", "N2", "max_ratio"], d, N_list, trials, seed, ratios,
                  lambda N, form, r: (form, N, N, r), fitted={"bilinear"})


def bench_sobolev_embedding(d, p, s, N_list, trials=16, seed=0):
    """||f||_{L^p} vs ||f||_{H^s} sweep (part a, which the slope fits) plus
    the dual rows with roles swapped (part b, ||f||_{H^{-s}} vs
    ||f||_{L^{p'}})."""
    if p < 2:
        raise ValueError("need p >= 2")
    if s <= d / 2 - d / p:
        raise ValueError("endpoint rejected: need s > d/2 - d/p = %g" % (d / 2 - d / p))
    pprime = p / (p - 1.0)

    def ratios(geom, N, rng):
        for _, f in _trial_fields(geom, N, trials, rng):
            yield "a", lp_norm(f, p) / sobolev_norm(f, s)
            yield "b", sobolev_norm(f, -s) / lp_norm(f, pprime)

    return _sweep("sobolev-embedding", {"d": d, "p": p, "s": s}, ["part", "N", "max_ratio"],
                  d, N_list, trials, seed, ratios, lambda N, part, r: (part, N, r),
                  fitted={"a"})
