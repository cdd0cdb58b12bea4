"""Fourier-Lebesgue norms, space-time modulation norms, the mass gauge,
and the small-time linear benches on the circle."""

import math

import numpy as np
import pytest

from nlslab.fl1d import (
    DEFAULT_WINDOW,
    SpaceTimeField,
    bench_linear_homogeneous,
    bench_linear_inhomogeneous,
    duhamel_wave,
    free_wave,
    gauge_transform,
    mean_density,
    renormalized_duhamel_residual,
    renormalized_nonlinearity,
    time_cutoff,
    xsb_norm,
    _check_refinement,
)
from nlslab.solver import solve_nls
from nlslab.torus import (
    TorusGeometry,
    mode_field,
    random_shell_field,
    _freq_sq,
)

GEOM = TorusGeometry(1, (1.0,), (64,))


def test_space_time_field_validation():
    with pytest.raises(ValueError):
        SpaceTimeField(GEOM, np.zeros((7, 64)))  # odd time count
    with pytest.raises(ValueError):
        SpaceTimeField(GEOM, np.zeros((8, 32)))  # wrong mode count
    with pytest.raises(ValueError):
        SpaceTimeField(TorusGeometry(2, (1.0, 1.0), (8, 8)), np.zeros((8, 8)))


def test_xsb_r2_unweighted_is_spacetime_l2():
    # the discrete transform is unitary in this normalization, so the
    # s = b = 0, r = 2 norm equals the time-grid Riemann sum of ||u(t)||^2
    u = free_wave(mode_field(GEOM, (3,)), 0.5, ntimes=256)
    got = xsb_norm(u, 0.0, 0.0, 2.0)
    cut = time_cutoff(u.times / 0.5)
    want = math.sqrt(u.dt * np.sum(cut ** 2) * GEOM.volume)
    assert abs(got - want) < 1e-10 * want


def test_free_wave_concentrates_at_parabola():
    # weighting by <tau + n^2>^b barely moves a free wave, while the same
    # weight centered off the parabola (a plain mode without the phase) grows
    phi0 = mode_field(GEOM, (5,))
    u = free_wave(phi0, 0.5)
    base = xsb_norm(u, 0.0, 0.0, 2.0)
    on = xsb_norm(u, 0.0, 1.0, 2.0)
    c = np.zeros((u.ntimes, 64), dtype=np.complex128)
    c[:, 5] = time_cutoff(u.times / 0.5)
    off = xsb_norm(SpaceTimeField(GEOM, c), 0.0, 1.0, 2.0)
    assert on < 5.0 * base
    assert off > 5.0 * on


def test_time_cutoff_profile():
    assert time_cutoff(np.array([0.0]))[0] == 1.0
    assert time_cutoff(np.array([1.0]))[0] == 1.0
    assert time_cutoff(np.array([2.0]))[0] == 0.0
    mid = time_cutoff(np.array([1.5]))[0]
    assert 0.0 < mid < 1.0


def test_duhamel_wave_single_mode_analytic():
    # forcing e^{i n x} e^{-i t n^2} integrates to t e^{i n x} e^{-i t n^2}
    n, T, ntimes = 3, 0.5, 512
    lam = float(_freq_sq(GEOM)[n])
    dt = 2.0 * DEFAULT_WINDOW / ntimes
    times = -DEFAULT_WINDOW + dt * np.arange(ntimes)
    c = np.zeros((ntimes, 64), dtype=np.complex128)
    c[:, n] = np.exp(-1j * times * lam)
    out = duhamel_wave(SpaceTimeField(GEOM, c), T)
    cut = time_cutoff(times / T)
    expect = cut * times * np.exp(-1j * times * lam)
    assert np.abs(out.coeffs[:, n] - expect).max() < 1e-12
    assert np.abs(out.coeffs[:, :n]).max() == 0.0


def test_mean_density_constant_field():
    # |phi| = 1 everywhere: m = 2 regardless of the circle length
    assert abs(mean_density(mode_field(GEOM, (1,))) - 2.0) < 1e-14


def test_gauge_preserves_modulus_and_inverts():
    traj = solve_nls(random_shell_field(GEOM, 2, 3), 0.1, 0.01)
    gauged = gauge_transform(traj)
    for a, b in zip(traj.states, gauged.states):
        assert np.abs(np.abs(a.coeffs) - np.abs(b.coeffs)).max() < 1e-14
    # the conjugate phase e^{-i mu m t} undoes the gauge
    m = mean_density(traj.states[0])
    err = max(np.abs(a.coeffs - np.exp(-1j * traj.coupling * m * t) * b.coeffs).max()
              for t, a, b in zip(traj.times, traj.states, gauged.states))
    assert err < 1e-13


def test_renormalized_nonlinearity_plane_wave_eigenvector():
    psi = mode_field(GEOM, (1,))
    out = renormalized_nonlinearity(psi)
    assert np.abs(out.coeffs + psi.coeffs).max() < 1e-14


def test_renormalized_residual_halves():
    phi0 = random_shell_field(GEOM, 2, 4)
    res = []
    for dt in (4e-3, 2e-3):
        res.append(renormalized_duhamel_residual(solve_nls(phi0, 0.2, dt)))
    assert 3.2 < res[0] / res[1] < 4.8, res


def test_refinement_gate():
    _check_refinement(1.0, 1.005, "ok")
    with pytest.raises(RuntimeError):
        _check_refinement(1.0, 1.1, "coarse")


def test_bench_homogeneous_slope_near_target():
    T_list = [1.0, 0.5, 0.25, 0.125]
    rep = bench_linear_homogeneous(2.0, 0.25, T_list)
    assert rep.footer["target_slope"] == 0.25
    assert 0.0 < rep.slope < 0.5
    assert all(v > 0 for _, v in rep.rows)


def test_bench_inhomogeneous_slope_near_target():
    T_list = [1.0, 0.5, 0.25, 0.125]
    rep = bench_linear_inhomogeneous(2.0, 0.6, 0.0, T_list)
    assert abs(rep.footer["target_slope"] - 0.4) < 1e-15
    assert 0.15 < rep.slope < 0.65
