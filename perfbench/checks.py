"""Output checks that do not use the code they check.

Everything here is numpy and the standard library: the data generators
regenerate the program's seeded inputs from the same seed, the oracles
recompute small cases by direct evaluation (explicit phases, zero-padded
inverse FFTs in float64, discrete convolutions of coefficient arrays), and
the checks compare the program's outputs with those values or with
properties that hold for any correct output.  Each check returns a list of
failure messages, empty when the output passes.
"""

from __future__ import annotations

import math

import numpy as np

HALVING_WINDOW = (3.2, 4.8)
MASS_DRIFT_MAX = 1e-11
PLANE_WAVE_MAX = 1e-9
GAUGE_DEFECT_MAX = 1e-14

# Strichartz, d = 2, p = 6, on the square torus of volume 4 pi^2
STRICHARTZ_FLOOR = (4.0 * math.pi ** 2) ** (-1.0 / 3.0)
STRICHARTZ_SLOPE = (0.0, 1.0 / 3.0 + 0.15)
STRICHARTZ_ONES_SLOPE_MIN = 1.0 / 3.0 - 0.2
# float32 samples with a float64 sum leave ~1e-7 relative error in a row
FLOAT32_SLACK = 1e-5

TRILINEAR_REL = 1e-10


# ---------------------------------------------------------------------------
# lattice and seeded data, square tori with unit thetas


def lattice(d, M):
    """Integer modes per axis in numpy FFT order, broadcast to shape (M,)*d."""
    n = np.fft.fftfreq(M, d=1.0 / M)
    return [n.reshape([M if a == ax else 1 for a in range(d)]) for ax in range(d)]


def freq_sq(d, M):
    return sum(n ** 2 for n in lattice(d, M)) + np.zeros((M,) * d)


def block_mask(d, M, N):
    """Modes of dyadic block N: shell index floor(|n|) + 1 in [N, 2N)."""
    absn = np.sqrt(freq_sq(d, M))
    shell = np.floor(absn) + 1.0
    shell[absn == 0.0] = 0.0
    if N == 0:
        return shell == 0.0
    return (shell >= N) & (shell < 2 * N)


def random_block_coeffs(d, M, N, rng):
    """Complex Gaussian coefficients on block N with unit L^2 norm.

    Draws the real parts, then the imaginary parts, as one (M,)*d array
    each, which is also how the program draws its random rows.
    """
    c = rng.standard_normal((M,) * d) + 1j * rng.standard_normal((M,) * d)
    c = np.where(block_mask(d, M, N), c, 0.0)
    return c / (math.sqrt((2 * math.pi) ** d) * np.linalg.norm(c))


def extremizer_coeffs(d, M, N, kind):
    """The structured rows: all ones, one mode nearest |n| = 1.5 N, or a bell."""
    mask = block_mask(d, M, N)
    absn = np.sqrt(freq_sq(d, M))
    if kind == "ones":
        return mask.astype(np.complex128)
    if kind == "single":
        c = np.zeros((M,) * d, dtype=np.complex128)
        dist = np.where(mask, np.abs(absn - 1.5 * N), np.inf)
        c[np.unravel_index(np.argmin(dist), c.shape)] = 1.0
        return c
    if kind == "bell":
        width = max(N / 2.0, 0.5)
        return np.where(mask, np.exp(-((absn - 1.5 * N) / width) ** 2), 0.0).astype(
            np.complex128)
    raise ValueError("unknown extremizer kind %r" % (kind,))


def l2(c):
    """L^2 norm of sum_n c_n e^{i n.x} on the square torus (2 pi)^d."""
    return math.sqrt((2 * math.pi) ** c.ndim) * float(np.linalg.norm(c))


def mass_drift(trajectories):
    """Largest relative change of the L^2 mass over the stored states."""
    worst = 0.0
    for traj in trajectories:
        m0 = l2(traj.states[0].coeffs) ** 2
        for st in traj.states:
            worst = max(worst, abs(l2(st.coeffs) ** 2 - m0) / m0)
    return worst


def plane_wave_states(d, M, n, times, coupling=1.0):
    """Coefficients of the exact solution e^{i n.x - i (|n|^2 + mu) t}."""
    omega = float(sum(k * k for k in n)) + coupling
    out = []
    for t in times:
        c = np.zeros((M,) * d, dtype=np.complex128)
        c[tuple(k % M for k in n)] = np.exp(-1j * omega * t)
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# reading the program's CSV reports


def read_csv(path):
    """(columns, rows as lists of strings, footer dict) of a report file."""
    columns, rows, footer = None, [], {}
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                footer[key.strip()] = val.strip()
            elif line and columns is None:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    if columns is None:
        raise ValueError("no header row in %s" % path)
    return columns, rows, footer


def fit_block_slope(pairs):
    """Least-squares slope of log y against log sqrt(1 + N^2)."""
    x = np.log(np.sqrt(1.0 + np.array([float(N) for N, _ in pairs]) ** 2))
    y = np.log(np.array([float(v) for _, v in pairs]))
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# Strichartz: direct float64 evaluation of the smallest block


def strichartz_nt(kind, N, nt_random=32):
    """Time samples of a row: the program's rule for random and structured data."""
    return nt_random if kind == "random" else min(8192, max(128, 2 * N * N))


def spacetime_ratio(c, p, nt, pad):
    """(mean over midpoints t_j of ||e^{it Lap} f||_p^p)^(1/p) / ||f||_2.

    The samples come from an explicit inverse FFT of the zero-padded,
    phase-rotated coefficients, all in complex128.  Pad 3 is exact for
    |u|^6 of data on the base grid M = 4N, whose modes satisfy |n| < M/2.
    """
    d, M = c.ndim, c.shape[0]
    P = pad * M
    lam = freq_sq(d, M)
    idx = np.ix_(*[np.fft.fftfreq(M, d=1.0 / M).astype(int) % P] * d)
    acc = 0.0
    for t in (np.arange(nt) + 0.5) / nt:
        big = np.zeros((P,) * d, dtype=np.complex128)
        big[idx] = c * np.exp(-1j * t * lam)
        u = np.fft.ifftn(big) * P ** d
        acc += float(np.mean(np.abs(u) ** p)) * (2 * math.pi) ** d
    return (acc / nt) ** (1.0 / p) / l2(c)


def strichartz_oracle(seed, N, trials, d=2, p=6.0):
    """Rows of the first block N of a sweep, regenerated from its seed.

    Returns {kind: (value at pad 2, exact value at pad 3)}; for the random
    rows the value is the best over the trials, as in the report.
    """
    M = max(8, 4 * N)
    rng = np.random.default_rng(seed)
    fields = [("random", random_block_coeffs(d, M, N, rng)) for _ in range(trials)]
    fields += [(k, extremizer_coeffs(d, M, N, k)) for k in ("ones", "single", "bell")]
    best = {}
    for kind, c in fields:
        nt = strichartz_nt(kind, N)
        vals = tuple(spacetime_ratio(c, p, nt, pad) for pad in (2, 3))
        old = best.get(kind, (0.0, 0.0))
        best[kind] = (max(old[0], vals[0]), max(old[1], vals[1]))
    return best


def check_strichartz(path, first_block_oracle):
    """Checks on a Strichartz report (d = 2, p = 6) read back from its CSV."""
    columns, rows, footer = read_csv(path)
    if columns != ["N", "data", "lhs", "rhs", "ratio"]:
        return ["unexpected columns %r" % (columns,)]
    fails = []
    table = [(int(r[0]), r[1], float(r[4])) for r in rows]
    for N, kind, ratio in table:
        if kind == "single" and abs(ratio / STRICHARTZ_FLOOR - 1.0) > 1e-12:
            fails.append("single row N=%d: %.17g != (4 pi^2)^(-1/3)" % (N, ratio))
        if not ratio >= STRICHARTZ_FLOOR * (1.0 - 1e-12):
            fails.append("row N=%d %s: %.17g below the Hoelder floor" % (N, kind, ratio))
    N0 = min(N for N, _, _ in table)
    for N, kind, ratio in table:
        if N != N0:
            continue
        a, b = first_block_oracle[kind]
        lo, hi = min(a, b) * (1.0 - FLOAT32_SLACK), max(a, b) * (1.0 + FLOAT32_SLACK)
        if not lo <= ratio <= hi:
            fails.append("row N=%d %s: %.10g outside the direct evaluation [%.10g, %.10g]"
                         % (N, kind, ratio, lo, hi))
    blocks = sorted({N for N, _, _ in table})
    best = [(N, max(v for M, _, v in table if M == N)) for N in blocks]
    slope = fit_block_slope(best)
    if not STRICHARTZ_SLOPE[0] <= slope <= STRICHARTZ_SLOPE[1]:
        fails.append("slope %.6f outside [%g, %.6f]" % ((slope,) + STRICHARTZ_SLOPE))
    if abs(slope - float(footer.get("slope", "nan"))) > 1e-9:
        fails.append("reported slope %s is not the fit %.12f of the rows"
                     % (footer.get("slope"), slope))
    ones = fit_block_slope([(N, v) for N, k, v in table if k == "ones"])
    if not ones >= STRICHARTZ_ONES_SLOPE_MIN:
        fails.append("ones slope %.6f below %.6f" % (ones, STRICHARTZ_ONES_SLOPE_MIN))
    return fails


# ---------------------------------------------------------------------------
# trilinear: the smallest triple by exact discrete convolution


def convolve(a, b):
    """Full discrete convolution of two centered coefficient arrays."""
    out = np.zeros(tuple(x + y - 1 for x, y in zip(a.shape, b.shape)), dtype=np.complex128)
    for idx in zip(*np.nonzero(a)):
        out[tuple(slice(i, i + m) for i, m in zip(idx, b.shape))] += a[idx] * b
    return out


def besov(c_centered, s, offset):
    """B^s_{2,1} norm sum_N <N>^s ||P_N f||_2 of a centered array whose
    index i stands for the mode i - offset on every axis."""
    d = c_centered.ndim
    axes = np.meshgrid(*[np.arange(m) - offset for m in c_centered.shape], indexing="ij")
    absn = np.sqrt(sum(a.astype(float) ** 2 for a in axes))
    power = np.abs(c_centered) ** 2 * (2 * math.pi) ** d
    shell = np.floor(absn) + 1.0
    label = np.where(absn == 0.0, -1, np.floor(np.log2(np.maximum(shell, 1.0))))
    total = 0.0
    for j in np.unique(label):
        N = 0.0 if j < 0 else 2.0 ** j
        total += math.sqrt(1.0 + N * N) ** s * math.sqrt(float(power[label == j].sum()))
    return total


def trilinear_ratio(cs, eta, zeta, T, nt):
    """Trapezoid over [-T, T] of ||u1 u2 u3||_{B^-eta}, divided by
    ||f1||_{B^-eta} ||f2||_{B^zeta} ||f3||_{B^zeta}."""
    d, M = cs[0].ndim, cs[0].shape[0]
    lam = np.fft.fftshift(freq_sq(d, M))
    ts = np.linspace(-T, T, nt)
    vals = []
    for t in ts:
        us = [np.fft.fftshift(c) * np.exp(-1j * t * lam) for c in cs]
        vals.append(besov(convolve(convolve(us[0], us[1]), us[2]), -eta, 3 * (M // 2)))
    f1, f2, f3 = (np.fft.fftshift(c) for c in cs)
    rhs = besov(f1, -eta, M // 2) * besov(f2, zeta, M // 2) * besov(f3, zeta, M // 2)
    return float(np.trapezoid(vals, ts)) / rhs


def trilinear_oracle(seed, N, trials, eta, zeta, T=1.0, nt=17, d=2):
    """Best ratio of the first equal triple (N, N, N), regenerated from its seed."""
    M = max(8, 4 * N)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        cs = [random_block_coeffs(d, M, N, rng) for _ in range(3)]
        best = max(best, trilinear_ratio(cs, eta, zeta, T, nt))
    ones = [extremizer_coeffs(d, M, N, "ones")] * 3
    nt_ones = max(nt, min(2048, 2 * N * N) + 1)
    return max(best, trilinear_ratio(ones, eta, zeta, T, nt_ones))


def check_trilinear(path, first_triple_oracle):
    """Checks on a trilinear report of equal triples read back from its CSV."""
    columns, rows, _ = read_csv(path)
    if columns != ["N1", "N2", "N3", "max_ratio"]:
        return ["unexpected columns %r" % (columns,)]
    ratio = {int(r[0]): float(r[3]) for r in rows}
    fails = []
    top = max(ratio)
    if not ratio[top] <= 2.0 * ratio[top // 4]:
        fails.append("ratio(%d) = %.6g exceeds 2 x ratio(%d) = %.6g"
                     % (top, ratio[top], top // 4, 2.0 * ratio[top // 4]))
    low = min(ratio)
    if not abs(ratio[low] / first_triple_oracle - 1.0) <= TRILINEAR_REL:
        fails.append("ratio(%d) = %.17g, direct convolution gives %.17g"
                     % (low, ratio[low], first_triple_oracle))
    return fails


# ---------------------------------------------------------------------------
# trajectory checks


def check_halving(name, residuals):
    fails = []
    for a, b in zip(residuals, residuals[1:]):
        if not HALVING_WINDOW[0] <= a / b <= HALVING_WINDOW[1]:
            fails.append("%s: %.4e -> %.4e, ratio %.4f outside [%g, %g]"
                         % ((name, a, b, a / b) + HALVING_WINDOW))
    return fails


def check_below(name, value, limit):
    return [] if value < limit else ["%s %.3e not below %.0e" % (name, value, limit)]


def check_expansion(values):
    a, b = values
    if b < a and a / b > 2.0:
        return []
    return ["expansion r=2: %.4e -> %.4e does not fall by more than 2x" % (a, b)]


def check_close(name, value, exact, rel):
    if abs(value - exact) <= rel * abs(exact):
        return []
    return ["%s %.17g, exact %.17g (relative %.1e allowed)" % (name, value, exact, rel)]
