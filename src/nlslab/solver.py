"""Strang split-step integration of the cubic NLS on the torus and
verification that trajectories satisfy the mild-solution integral equation.

The equation is i d_t phi + Lap phi = mu |phi|^2 phi with coupling mu = +1
(defocusing) or -1 (focusing).  The mild form reads

    phi(t) = e^{i t Lap} phi0 - i mu * int_0^t e^{i (t-tau) Lap} |phi|^2 phi dtau

and the residual of a stored trajectory in this equation, quadratured with
composite Simpson, converges at the integrator order O(dt^2).  The defect is
measured in the interaction picture, multiplied by e^{-i t Lap}: the free flow
preserves every norm used here, and the integrand e^{-i tau Lap} N(phi(tau))
no longer depends on t, so one streaming Simpson pass gives the defect at
every stored time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import (
    SpectralField,
    cubic_field,
    field_from_samples,
    field_samples,
    free_evolve,
    l2_norm,
    mode_field,
    sobolev_norm,
    _freq_sq,
    _phase,
)

__all__ = [
    "Trajectory",
    "BlowUpError",
    "strang_step",
    "solve_nls",
    "plane_wave_trajectory",
    "mass",
    "duhamel_residual",
    "duhamel_defect_profile",
    "mild_defect_profile",
    "simpson_prefix",
    "simpson_weights",
]

BLOW_UP_GUARD = 1e6  # solve_nls's limit on the growth of the H^1 norm


class BlowUpError(RuntimeError):
    """H^1 norm exceeded the blow-up guard during integration."""


@dataclass
class Trajectory:
    """Uniform-in-time list of states from t = 0 to t = T."""

    geometry: "TorusGeometry"
    times: np.ndarray
    states: list
    coupling: float = 1.0

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states length mismatch")
        if len(self.times) >= 2:
            dts = np.diff(self.times)
            if not np.allclose(dts, dts[0], rtol=1e-12, atol=1e-14):
                raise ValueError("time grid must be uniform")

    @property
    def dt(self):
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0


def mass(phi):
    """Squared L^2 norm, the conserved quantity of the flow."""
    return l2_norm(phi) ** 2


def strang_step(phi, dt, coupling=1.0):
    """One Strang step: half free flight, exact nonlinear phase, half free
    flight.  Negative dt is allowed and inverts the positive step exactly."""
    half = free_evolve(phi, dt / 2.0)
    s = field_samples(half)
    s = s * np.exp(-1j * coupling * dt * np.abs(s) ** 2)
    return free_evolve(field_from_samples(phi.geometry, s), dt / 2.0)


def _time_grid(T, dt):
    """The uniform times 0, dt, ..., T: the one check of T and dt, which must
    be positive and finite, dt dividing T, and so must T/dt (a subnormal dt
    overflows it)."""
    if not (0 < T < np.inf and 0 < dt < np.inf and T / dt < np.inf):
        raise ValueError("T and dt must be positive and finite, not %g and %g" % (T, dt))
    nsteps = round(T / dt)
    if abs(nsteps * dt - T) > 1e-10 * T:
        raise ValueError("dt must divide T")
    return np.linspace(0.0, nsteps * dt, nsteps + 1)


def solve_nls(phi0, T, dt, coupling=1.0):
    """Integrate from phi0 over [0, T] with uniform step dt (_time_grid)."""
    times = _time_grid(T, dt)
    h1_0 = sobolev_norm(phi0, 1.0)
    states = [phi0.copy()]
    phi = phi0
    for _ in times[1:]:
        phi = strang_step(phi, dt, coupling)
        if h1_0 > 0 and sobolev_norm(phi, 1.0) > BLOW_UP_GUARD * h1_0:
            raise BlowUpError("H^1 norm exceeded %g times its initial value" % BLOW_UP_GUARD)
        states.append(phi)
    return Trajectory(phi0.geometry, times, states, float(coupling))


def plane_wave_trajectory(geom, n, T, dt):
    """Exact defocusing single-mode solution e^{i xi(n).x - i (|xi|^2 + 1) t},
    sampled analytically on the same uniform grid the solver would use."""
    times = _time_grid(T, dt)
    phi0 = mode_field(geom, n)
    idx = tuple(int(i) % M for i, M in zip(n, geom.grid))
    omega = float(_freq_sq(geom)[idx]) + 1.0
    states = [
        SpectralField(geom, np.exp(-1j * omega * t) * phi0.coeffs) for t in times
    ]
    return Trajectory(geom, times, states, 1.0)


def simpson_prefix(samples, h):
    """Yield int_0^{m h} for m = 0, 1, 2, ... over streamed samples f_0, f_1, ...
    on a grid of spacing h: composite Simpson, with a Simpson-3/8 tail when
    the interval count m is odd (trapezoid at m = 1).

    Samples may be scalars or arrays.  Only the last four samples and the
    last two even-m integrals are kept.
    """
    f, even = [], []
    for m, fm in enumerate(samples):
        f = (f + [fm])[-4:]
        if m == 0:
            s = 0.0 * fm
        elif m == 1:
            s = h / 2.0 * (f[0] + f[1])
        elif m % 2 == 0:
            s = even[-1] + h / 3.0 * (f[-3] + 4.0 * f[-2] + f[-1])
        else:
            s = even[-2] + 3.0 * h / 8.0 * (f[-4] + 3.0 * (f[-3] + f[-2]) + f[-1])
        if m % 2 == 0:
            even = (even + [s])[-2:]
        yield s


def simpson_weights(m, h):
    """Weights of simpson_prefix for int_0^{m h} on nodes 0..m."""
    *_, w = simpson_prefix(np.eye(m + 1), h)
    return w


def mild_defect_profile(traj, nonlinearity, beta):
    """H^beta norm, at every stored time t_m, of the mild-equation defect in
    the interaction picture

        D(t_m) = e^{-i t_m Lap} phi(t_m) - phi(0)
                 + i int_0^{t_m} e^{-i s Lap} N(phi(s)) ds,

    with N = nonlinearity (a map from state to field, coupling included).
    e^{-i t_m Lap} preserves H^beta, so this is the norm of the lab-frame
    defect phi(t_m) - e^{i t_m Lap} phi(0) + i int e^{i (t_m - s) Lap} N.
    One streaming Simpson pass: O(M n) work, no stack of stored-time fields.
    """
    if len(traj.times) < 3:
        raise ValueError("need at least 3 time points")
    geom = traj.geometry
    integrand = (_phase(geom, -t) * nonlinearity(st).coeffs
                 for t, st in zip(traj.times, traj.states))
    c0 = traj.states[0].coeffs
    out = np.empty(len(traj.times))
    for m, integral in enumerate(simpson_prefix(integrand, traj.dt)):
        pulled = _phase(geom, -traj.times[m]) * traj.states[m].coeffs
        out[m] = sobolev_norm(SpectralField(geom, pulled - c0 + 1j * integral), beta)
    return out


def duhamel_defect_profile(traj):
    """H^beta norm, beta = -d/2 - 0.1, of the cubic mild-equation defect at
    every stored time (mild_defect_profile with N = mu |phi|^2 phi).

    The integrand uses the dealiased cubic product, while the split-step
    nonlinear phase acts pointwise on the base grid; the two agree (and the
    defect converges at O(dt^2)) when triple products of the populated modes
    stay inside the base band, i.e. 3 max|n| < M/2 per axis for the initial
    data.  Wider data leaves a dt-independent aliasing floor.
    """
    return mild_defect_profile(traj, lambda st: traj.coupling * cubic_field(st),
                               -traj.geometry.d / 2.0 - 0.1)


def duhamel_residual(traj):
    """Max over stored times of the mild-equation defect (duhamel_defect_profile)."""
    return float(duhamel_defect_profile(traj).max())
