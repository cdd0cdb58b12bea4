"""Split-step integrator and mild-equation residuals."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlslab import solver as solver_module
from nlslab.fl1d import gauge_transform, renormalized_duhamel_residual, renormalized_nonlinearity
from nlslab.solver import (
    BlowUpError,
    Trajectory,
    duhamel_defect_profile,
    duhamel_residual,
    mass,
    mild_defect_profile,
    plane_wave_trajectory,
    simpson_prefix,
    simpson_weights,
    solve_nls,
    strang_step,
)
from nlslab.torus import (
    SpectralField,
    TorusGeometry,
    _freq_sq,
    cubic_field,
    l2_norm,
    mode_field,
    random_shell_field,
    sobolev_norm,
    zero_field,
)

GEOM1 = TorusGeometry(1, (1.0,), (32,))
GEOM2 = TorusGeometry(2, (1.0, 1.0), (16, 16))


def test_simpson_weights_integrate_polynomials_exactly():
    # composite Simpson (+ 3/8 tail) is exact through cubics
    for m in (2, 3, 4, 5, 7, 10):
        h = 0.3
        w = simpson_weights(m, h)
        x = h * np.arange(m + 1)
        for k in range(4):
            exact = (m * h) ** (k + 1) / (k + 1)
            assert abs(w @ x ** k - exact) < 1e-12 * max(1.0, exact)


def test_simpson_weights_trapezoid_fallback():
    w = simpson_weights(1, 0.5)
    assert np.allclose(w, [0.25, 0.25])
    assert simpson_weights(0, 0.5).sum() == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.floats(1e-3, 10.0), st.integers(0, 2 ** 32 - 1))
def test_simpson_prefix_matches_weights_and_is_exact_on_cubics(m, h, seed):
    f = np.random.default_rng(seed).standard_normal(m + 1)
    prefix = list(simpson_prefix(f, h))
    assert len(prefix) == m + 1
    for i, got in enumerate(prefix):
        w = simpson_weights(i, h)
        assert abs(got - w @ f[: i + 1]) <= 1e-12 * (1.0 + np.abs(w) @ np.abs(f[: i + 1]))
    x = h * np.arange(m + 1)
    for k in range(4):
        for i, got in enumerate(simpson_prefix(x ** k, h)):
            if i == 1 and k > 1:
                continue  # the m = 1 trapezoid is exact through linears only
            exact = (i * h) ** (k + 1) / (k + 1)
            assert abs(got - exact) <= 1e-12 * max(1.0, exact)


def _lab_frame_profile(traj, nonlinearity, norm):
    # the mild defect phi(t_m) - e^{i t_m Lap} phi0 + i int_0^{t_m} e^{i (t_m - s) Lap} N ds,
    # one Simpson weight vector per stored time
    lam = _freq_sq(traj.geometry)
    W = np.array([np.exp(1j * t * lam) * nonlinearity(s).coeffs
                  for t, s in zip(traj.times, traj.states)])
    c0 = traj.states[0].coeffs
    out = []
    for m, t in enumerate(traj.times):
        fwd = np.exp(-1j * t * lam)
        integral = fwd * np.tensordot(simpson_weights(m, traj.dt), W[: m + 1], axes=1)
        defect = traj.states[m].coeffs - fwd * c0 + 1j * integral
        out.append(norm(SpectralField(traj.geometry, defect)))
    return np.array(out)


def _tee_profile(traj, nonlinearity, beta):
    # the bytes mild_defect_profile keeps: exp(i t lambda) formed here, once
    # per stored time, shared by the integrand and the state through a tee
    lam = _freq_sq(traj.geometry)
    for_integrand, for_state = itertools.tee(np.exp(1j * t * lam) for t in traj.times)
    integrand = (phase * nonlinearity(st).coeffs
                 for phase, st in zip(for_integrand, traj.states))
    c0 = traj.states[0].coeffs
    out = np.empty(len(traj.times))
    for m, (integral, phase) in enumerate(zip(simpson_prefix(integrand, traj.dt), for_state)):
        pulled = phase * traj.states[m].coeffs
        out[m] = sobolev_norm(SpectralField(traj.geometry, pulled - c0 + 1j * integral), beta)
    return out


def test_mild_defect_profile_matches_lab_frame_defect():
    # non-square d = 2 torus, focusing, an odd interval count (3/8 tails)
    geom = TorusGeometry(2, (1.0, math.sqrt(2.0)), (16, 16))
    traj = solve_nls(random_shell_field(geom, 2, 3), 0.09, 0.01, coupling=-1.0)
    cubic = lambda s: traj.coupling * cubic_field(s)
    for beta in (-1.1, 0.0, 1.0):
        got = mild_defect_profile(traj, cubic, beta)
        ref = _lab_frame_profile(traj, cubic, lambda f: sobolev_norm(f, beta))
        assert got[0] == ref[0] == 0.0
        assert np.abs(got[1:] - ref[1:]).max() <= 1e-10 * ref[1:].min()
        # the cached phase, on the left of each product, keeps every byte
        assert np.array_equal(got, _tee_profile(traj, cubic, beta))
    assert np.array_equal(duhamel_defect_profile(traj), mild_defect_profile(traj, cubic, -1.1))
    # the gauge path: renormalized nonlinearity on the gauged trajectory, L^2
    traj = solve_nls(random_shell_field(GEOM1, 2, 4), 0.1, 0.01)
    gauged = gauge_transform(traj)
    renorm = lambda s: renormalized_nonlinearity(s, gauged.coupling)
    got = mild_defect_profile(gauged, renorm, 0.0)
    ref = _lab_frame_profile(gauged, renorm, l2_norm)
    assert np.abs(got[1:] - ref[1:]).max() <= 1e-10 * ref[1:].min()
    assert np.array_equal(got, _tee_profile(gauged, renorm, 0.0))
    assert renormalized_duhamel_residual(traj) == got.max()


def test_zero_initial_data_stays_zero():
    traj = solve_nls(zero_field(GEOM1), 0.1, 0.01)
    assert all(np.abs(st.coeffs).max() == 0.0 for st in traj.states)
    assert duhamel_residual(traj) == 0.0


def test_strang_step_reversible_and_mass_conserving():
    phi = random_shell_field(GEOM2, 2, 0)
    step = strang_step(phi, 0.01)
    assert abs(mass(step) - mass(phi)) < 1e-13
    back = strang_step(step, -0.01)
    assert np.abs(back.coeffs - phi.coeffs).max() < 1e-12


def test_plane_wave_is_exact_for_the_integrator():
    # single-mode data picks up only the exact phase, so the split step
    # reproduces the analytic solution to round-off
    traj = solve_nls(mode_field(GEOM1, (2,)), 0.3, 0.01)
    exact = plane_wave_trajectory(GEOM1, (2,), 0.3, 0.01)
    err = max(
        np.abs(a.coeffs - b.coeffs).max()
        for a, b in zip(traj.states, exact.states)
    )
    assert err < 1e-12


def test_mass_conservation_along_flow():
    phi0 = random_shell_field(GEOM2, 2, 1)
    traj = solve_nls(phi0, 0.25, 0.005)
    drift = max(abs(mass(st) - mass(phi0)) for st in traj.states)
    assert drift < 1e-13


def test_duhamel_residual_halves_at_second_order():
    # grid 32 keeps triple products of block-2 modes inside the base band,
    # so the pointwise nonlinear step is alias-free and the defect is pure
    # integrator error
    geom = TorusGeometry(2, (1.0, 1.0), (32, 32))
    phi0 = random_shell_field(geom, 2, 2)
    res = []
    for dt in (4e-3, 2e-3):
        traj = solve_nls(phi0, 0.2, dt)
        res.append(duhamel_residual(traj))
    assert 3.2 < res[0] / res[1] < 4.8


def test_duhamel_residual_plane_wave_quadrature_order():
    # the analytic trajectory leaves only quadrature error; the max over
    # stored times is set by the m = 1 trapezoid node, which is O(dt^3)
    res = [
        duhamel_residual(plane_wave_trajectory(GEOM1, (3,), 0.3, dt))
        for dt in (0.005, 0.0025)
    ]
    assert res[0] < 1e-7
    assert 6.0 < res[0] / res[1] < 10.0


def test_duhamel_residual_focusing_sign():
    phi0 = random_shell_field(GEOM1, 2, 3)
    res = []
    for dt in (4e-3, 2e-3):
        traj = solve_nls(phi0, 0.2, dt, coupling=-1.0)
        res.append(duhamel_residual(traj))
    assert 3.2 < res[0] / res[1] < 4.8


def test_defect_profile_starts_at_zero():
    traj = solve_nls(random_shell_field(GEOM1, 2, 4), 0.1, 0.01)
    prof = duhamel_defect_profile(traj)
    assert prof[0] == 0.0
    assert len(prof) == len(traj.times)


def test_residual_needs_three_points():
    phi0 = random_shell_field(GEOM1, 2, 5)
    traj = solve_nls(phi0, 0.01, 0.01)
    with pytest.raises(ValueError):
        duhamel_residual(traj)


def test_dt_must_divide_T():
    with pytest.raises(ValueError):
        solve_nls(random_shell_field(GEOM1, 2, 7), 0.1, 0.03)
    with pytest.raises(ValueError):
        solve_nls(random_shell_field(GEOM1, 2, 7), -0.1, 0.01)


@pytest.mark.parametrize("T, dt", [(0.1, 0.0), (0.1, -0.01), (math.inf, 0.01), (math.nan, 0.01),
                                   (0.1, math.inf), (0.1, math.nan), (0.1, 5e-324)])
def test_time_grid_needs_positive_finite_T_and_dt(T, dt):
    # the solver and the exact plane wave share the one check of T and dt
    with pytest.raises(ValueError, match="T and dt must be positive and finite"):
        solve_nls(random_shell_field(GEOM1, 2, 7), T, dt)
    with pytest.raises(ValueError, match="T and dt must be positive and finite"):
        plane_wave_trajectory(GEOM1, (1,), T, dt)


def test_blow_up_guard_trips(monkeypatch):
    phi0 = random_shell_field(GEOM1, 2, 8)
    # absurd guard factor below 1 must trip immediately
    monkeypatch.setattr(solver_module, "BLOW_UP_GUARD", 1e-12)
    with pytest.raises(BlowUpError):
        solve_nls(phi0, 0.1, 0.01)


def test_trajectory_uniform_grid_enforced():
    geom = GEOM1
    states = [zero_field(geom) for _ in range(3)]
    with pytest.raises(ValueError):
        Trajectory(geom, np.array([0.0, 0.1, 0.3]), states)
