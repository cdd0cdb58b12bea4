"""Fourier-Lebesgue space-time norms on the circle, the mass gauge with
its renormalized nonlinearity, and small-time scaling benches for the
linear estimates behind them.

X^{s,b}_r norms take the ell^{r'} norm of the discrete space-time Fourier
transform weighted by <n>^s <tau + n^2>^b, so free Schrodinger waves sit
where the parabolic weight is small; r = 2 with s = b = 0 recovers
L^2_t L^2_x.
"""

from __future__ import annotations

import math

import numpy as np

from .bench import ExperimentReport, fit_loglog
from .solver import Trajectory, mass, mild_defect_profile
from .torus import (
    SpectralField,
    TorusGeometry,
    cubic_field,
    mode_field,
    mollifier_ramp,
    _freq_sq,
)

__all__ = [
    "SpaceTimeField",
    "xsb_norm",
    "time_cutoff",
    "free_wave",
    "duhamel_wave",
    "gauge_transform",
    "renormalized_nonlinearity",
    "renormalized_duhamel_residual",
    "bench_linear_homogeneous",
    "bench_linear_inhomogeneous",
    "DEFAULT_WINDOW",
    "DEFAULT_TIME_POINTS",
]

DEFAULT_WINDOW = 4.0
DEFAULT_TIME_POINTS = 1024
_REFINEMENT_TOL = 0.01  # relative change allowed on twice the time points


def _conjugate_exponent(r):
    if not 1.0 < r <= 2.0:
        raise ValueError("r must lie in (1, 2]")
    return r / (r - 1.0)


class SpaceTimeField:
    """Function on [-T_w, T_w) x circle, T_w = DEFAULT_WINDOW, stored as spatial
    coefficients on a uniform time grid t_j = -T_w + j * dt, j = 0 .. M_t - 1."""

    def __init__(self, geometry, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if geometry.d != 1:
            raise ValueError("space-time fields are one-dimensional in space")
        if coeffs.ndim != 2 or coeffs.shape[1] != geometry.grid[0]:
            raise ValueError("coeffs must be (time points, spatial modes)")
        if coeffs.shape[0] % 2:
            raise ValueError("time point count must be even (t = 0 on the grid)")
        self.geometry = geometry
        self.coeffs = coeffs

    @property
    def ntimes(self):
        return self.coeffs.shape[0]

    @property
    def dt(self):
        return 2.0 * DEFAULT_WINDOW / self.ntimes

    @property
    def times(self):
        return -DEFAULT_WINDOW + self.dt * np.arange(self.ntimes)

    def time_frequencies(self):
        """tau_k = k * pi / T_w in FFT order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.ntimes, d=self.dt)

    def time_transform(self):
        """u_hat(tau_k, n) = (dt / sqrt(2 pi)) sum_j u(t_j, n) e^{-i tau_k t_j}."""
        tau = self.time_frequencies()
        phase = np.exp(1j * tau * DEFAULT_WINDOW)
        return (self.dt / math.sqrt(2.0 * math.pi)) * phase[:, None] * np.fft.fft(
            self.coeffs, axis=0
        )


def xsb_norm(u, s, b, r):
    """X^{s,b}_r norm:

        ( sum_{n,k} <n>^{s r'} <tau_k + n^2>^{b r'}
              |sqrt(2 pi) u_hat(tau_k, n)|^{r'} dtau )^{1/r'}

    with <x> = (1 + x^2)^{1/2}; r = 2, s = b = 0 recovers L^2_t L^2_x.
    """
    rp = _conjugate_exponent(r)
    geom = u.geometry
    n2 = _freq_sq(geom)
    tau = u.time_frequencies()
    wn = (1.0 + n2) ** (s * rp / 2.0)
    wtau = (1.0 + (tau[:, None] + n2[None, :]) ** 2) ** (b * rp / 2.0)
    uh = np.abs(math.sqrt(geom.volume) * u.time_transform()) ** rp
    dtau = math.pi / DEFAULT_WINDOW
    return float((dtau * np.sum(wn[None, :] * wtau * uh)) ** (1.0 / rp))


def time_cutoff(t):
    """Smooth even cutoff: 1 on [-1, 1], supported in (-1.9, 1.9)."""
    return mollifier_ramp((1.9 - np.abs(t)) / 0.9)


def free_wave(phi0, T, ntimes=DEFAULT_TIME_POINTS):
    """chi(t/T) e^{i t Lap} phi0 as a SpaceTimeField with ntimes time points."""
    geom = phi0.geometry
    lam = _freq_sq(geom)
    dt = 2.0 * DEFAULT_WINDOW / ntimes
    times = -DEFAULT_WINDOW + dt * np.arange(ntimes)
    cut = time_cutoff(times / T)
    coeffs = cut[:, None] * np.exp(-1j * times[:, None] * lam[None, :]) * phi0.coeffs
    return SpaceTimeField(geom, coeffs)


def duhamel_wave(forcing, T):
    """chi(t/T) int_0^t e^{i (t - tau) Lap} F(tau) dtau for a space-time
    forcing F, via a cumulative trapezoid from t = 0 (a grid point)."""
    geom = forcing.geometry
    lam = _freq_sq(geom)
    times = forcing.times
    dt = forcing.dt
    # integrand in interaction variables: e^{+i tau lam-phase} F(tau)
    V = np.exp(1j * times[:, None] * lam[None, :]) * forcing.coeffs
    mid = forcing.ntimes // 2  # t = 0
    I = np.zeros_like(V)
    steps = 0.5 * dt * (V[1:] + V[:-1])
    I[mid + 1 :] = np.cumsum(steps[mid:], axis=0)
    I[:mid] = -np.cumsum(steps[:mid][::-1], axis=0)[::-1]
    cut = time_cutoff(times / T)
    coeffs = cut[:, None] * np.exp(-1j * times[:, None] * lam[None, :]) * I
    return SpaceTimeField(geom, coeffs)


# ---------------------------------------------------------------------------
# mass gauge and renormalized nonlinearity


def mean_density(phi):
    """Twice the average of |phi|^2, the gauge frequency per unit coupling."""
    return 2.0 * mass(phi) / phi.geometry.volume


def gauge_transform(traj):
    """psi(t) = e^{i mu m t} phi(t) with m twice the mean density of the
    initial state."""
    m = mean_density(traj.states[0])
    states = [
        SpectralField(st.geometry, np.exp(1j * traj.coupling * m * t) * st.coeffs)
        for t, st in zip(traj.times, traj.states)
    ]
    return Trajectory(traj.geometry, traj.times.copy(), states, traj.coupling)


def renormalized_nonlinearity(psi, coupling=1.0):
    """mu (|psi|^2 - m) psi with m twice the mean density, dealiased.

    Plane waves are eigenvectors: for psi = e^{i x} on the standard circle
    the output is -mu e^{i x}.
    """
    m = mean_density(psi)
    g = cubic_field(psi)
    return SpectralField(psi.geometry, coupling * (g.coeffs - m * psi.coeffs))


def renormalized_duhamel_residual(traj):
    """Max over stored times of the L^2 defect of the gauged trajectory in

        psi(t) = e^{i t Lap} psi0 - i int_0^t e^{i (t-tau) Lap} N(psi(tau)) dtau

    with N the renormalized nonlinearity; converges at O(dt^2)."""
    gauged = gauge_transform(traj)
    profile = mild_defect_profile(
        gauged, lambda psi: renormalized_nonlinearity(psi, gauged.coupling), 0.0)
    return float(profile.max())


# ---------------------------------------------------------------------------
# small-time scaling benches


def _check_refinement(value, refined, name):
    """Raise unless refined is within _REFINEMENT_TOL of value; NaN never is."""
    if not abs(refined - value) <= _REFINEMENT_TOL * abs(value):
        raise RuntimeError(
            "%s not resolved in time: %g vs %g on refinement" % (name, value, refined)
        )


def _sweep(name, params, column, T_list, value, target_slope):
    """The loop of both X^{s,b} benches: value(T, ntimes) for each T in
    T_list at DEFAULT_TIME_POINTS, checked against twice as many points,
    and the log-log slope of the values against T, fitted directly."""
    rows = []
    for T in T_list:
        val = value(T, DEFAULT_TIME_POINTS)
        _check_refinement(val, value(T, 2 * DEFAULT_TIME_POINTS),
                          "%s %s at T=%g" % (name, column, T))
        rows.append((T, val))
    slope, intercept, resid = fit_loglog([T for T, _ in rows], [v for _, v in rows])
    return ExperimentReport(
        name, dict(params, window=DEFAULT_WINDOW, ntimes=DEFAULT_TIME_POINTS), ["T", column],
        rows, 0, len(rows), slope, intercept, resid,
        footer={"target_slope": target_slope, "fit": "direct"})


def bench_linear_homogeneous(r, b, T_list, mode=3, s=0.0):
    """||chi(t/T) e^{i t Lap} phi0||_{X^{s,b}_r} against T for a single-mode
    phi0; the fitted log-log slope tracks 1/r - b as T -> 0."""
    phi0 = mode_field(TorusGeometry(1, (1.0,), (64,)), (mode,))
    return _sweep("xsb-homogeneous", {"r": r, "b": b, "s": s, "mode": mode}, "norm", T_list,
                  lambda T, ntimes: xsb_norm(free_wave(phi0, T, ntimes=ntimes), s, b, r),
                  1.0 / r - b)


def bench_linear_inhomogeneous(r, b, beta, T_list, mode=3, s=0.0):
    """Gain of the Duhamel map chi(t/T) int_0^t e^{i(t-tau) Lap} F against T.

    The forcing is a single spatial mode with a time profile of width
    proportional to T, so that ||F||_{X^{s,beta}_r} tracks the small-T
    regime; the fitted slope of the ratio tracks 1 + beta - b.
    """
    geom = TorusGeometry(1, (1.0,), (64,))
    n = mode % 64
    nsq = float(_freq_sq(geom)[n])

    def ratio(T, ntimes):
        F = SpaceTimeField(geom, np.zeros((ntimes, 64), dtype=np.complex128))
        # free-wave phase keeps the forcing parabolically concentrated
        F.coeffs[:, n] = time_cutoff(F.times / T) * np.exp(-1j * F.times * nsq)
        return xsb_norm(duhamel_wave(F, T), s, b, r) / xsb_norm(F, s, beta, r)

    return _sweep("xsb-inhomogeneous", {"r": r, "b": b, "beta": beta, "s": s, "mode": mode},
                  "ratio", T_list, ratio, 1.0 + beta - b)
