"""Spectral fields, projections, norms, and dealiased products."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlslab
from nlslab import torus as torus_module
from nlslab.torus import (
    GeometryMismatchError,
    SpectralField,
    TorusGeometry,
    besov_norm,
    conjugate,
    cubic_field,
    dyadic_blocks,
    dyadic_bump,
    dyadic_project,
    field_from_samples,
    field_samples,
    free_evolve,
    inner_product,
    is_dyadic,
    l2_norm,
    lp_norm,
    mode_field,
    mollifier_ramp,
    product_field,
    random_shell_field,
    shell_extremizer_field,
    shell_indices,
    smooth_dyadic_project,
    sobolev_norm,
    truncate_field,
    zero_block_bump,
)

GEOMS = [
    TorusGeometry(1, (1.0,), (32,)),
    TorusGeometry(2, (1.0, 0.7), (16, 16)),
    TorusGeometry(3, (1.0, 1.3, 0.5), (8, 8, 8)),
]


def _random_field(geom, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(geom.grid) + 1j * rng.standard_normal(geom.grid)
    return SpectralField(geom, c)


def _dft_oracle(geom, samples):
    """Brute-force DFT, no FFT: c[n] = mean_j f(x_j) exp(-i xi(n).x_j)."""
    out = np.zeros(geom.grid, dtype=np.complex128)
    for n_idx in np.ndindex(*geom.grid):
        acc = 0.0
        for j_idx in np.ndindex(*geom.grid):
            phase = sum(
                2.0 * math.pi * ((ni if ni < Mi // 2 else ni - Mi) * ji) / Mi
                for ni, ji, Mi in zip(n_idx, j_idx, geom.grid)
            )
            acc += samples[j_idx] * np.exp(-1j * phase)
        out[n_idx] = acc / geom.npoints
    return out


def test_transform_matches_brute_force_dft():
    geom = TorusGeometry(1, (1.0,), (8,))
    rng = np.random.default_rng(0)
    s = rng.standard_normal(geom.grid) + 1j * rng.standard_normal(geom.grid)
    f = field_from_samples(geom, s)
    assert np.allclose(f.coeffs, _dft_oracle(geom, s), atol=1e-12)
    assert np.allclose(field_samples(f), s, atol=1e-12)


def test_mode_field_evaluates_to_exponential():
    geom = TorusGeometry(2, (1.0, 0.7), (8, 8))
    n = (2, -3)
    f = mode_field(geom, n)
    s = field_samples(f)
    # sample point x_j = (j/M) * 2 pi / theta
    for j in ((0, 0), (1, 2), (5, 7)):
        x = [2.0 * math.pi * ji / (Mi * t) for ji, Mi, t in zip(j, geom.grid, geom.thetas)]
        expect = np.exp(1j * sum(t * ni * xi for t, ni, xi in zip(geom.thetas, n, x)))
        assert abs(s[j] - expect) < 1e-12


def test_l2_norm_constant_field():
    for geom in GEOMS:
        # constant 1 has L^2 norm sqrt(vol)
        one = mode_field(geom, (0,) * geom.d)
        assert abs(l2_norm(one) - math.sqrt(geom.volume)) < 1e-12


_SEEDED_L2_NORM = """
import numpy as np
from nlslab.torus import SpectralField, TorusGeometry, l2_norm
geom = TorusGeometry(2, (1.0, 1.0), (256, 256))
rng = np.random.default_rng(0)
print(repr(l2_norm(SpectralField(geom, rng.standard_normal(geom.grid)
                                 + 1j * rng.standard_normal(geom.grid)))))
"""


def test_l2_norm_does_not_depend_on_blas_threads():
    # a threaded BLAS dot splits its sum by thread count; report bytes must
    # not depend on the machine's core count
    src = os.path.dirname(os.path.dirname(nlslab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = [subprocess.run([sys.executable, "-c", _SEEDED_L2_NORM], capture_output=True, text=True,
                          check=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=n)).stdout
           for n in ("1", "2")]
    assert out[0] == out[1]


def test_inner_product_consistent_with_norm():
    geom = GEOMS[1]
    f = _random_field(geom, 1)
    ip = inner_product(f, f)
    assert abs(ip.imag) < 1e-10
    assert abs(math.sqrt(ip.real) - l2_norm(f)) < 1e-10


def test_lp_norm_p2_matches_l2():
    geom = GEOMS[1]
    f = _random_field(geom, 2)
    assert abs(lp_norm(f, 2.0) - l2_norm(f)) < 1e-10 * l2_norm(f)


def test_lp_norm_constant():
    geom = GEOMS[0]
    one = mode_field(geom, (0,))
    for p in (1.0, 3.0, np.inf):
        expect = geom.volume ** (1.0 / p) if p != np.inf else 1.0
        assert abs(lp_norm(one, p) - expect) < 1e-12


def test_shell_indices_origin_and_halfopen():
    geom = TorusGeometry(1, (1.0,), (16,))
    sh = shell_indices(geom)
    assert sh[0] == 0
    # mode n: |xi| = |n|, shell floor(|n|)+1
    for n in range(1, 8):
        assert sh[n] == n + 1
        assert sh[-n % 16] == n + 1


def test_smooth_projector_reproduces_sharp_block():
    for geom in GEOMS:
        f = _random_field(geom, 5)
        for N in dyadic_blocks(geom):
            sharp = dyadic_project(f, N)
            assert (
                np.abs(smooth_dyadic_project(sharp, N).coeffs - sharp.coeffs).max()
                < 1e-12
            )


def test_mollifier_ramp_endpoints():
    x = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    r = mollifier_ramp(x)
    assert r[0] == 0.0 and r[1] == 0.0
    assert 0.0 < r[2] < 1.0
    assert r[3] == 1.0 and r[4] == 1.0


def test_dyadic_bump_support_and_plateau():
    u = np.array([0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5])
    b = dyadic_bump(u)
    assert b[0] == 0.0 and b[-1] == 0.0
    assert b[3] == 1.0 and b[4] == 1.0 and b[5] == 1.0
    assert 0.0 < b[2] < 1.0 and 0.0 < b[6] < 1.0
    assert zero_block_bump(np.array([0.0, 1.0]))[0] == 1.0
    assert zero_block_bump(np.array([2.0]))[0] == 0.0


def test_sobolev_norm_weights():
    geom = TorusGeometry(1, (1.0,), (8,))
    f = mode_field(geom, (2,))  # lambda = 4
    s = 0.7
    # weight <lambda>^s with <x> = sqrt(1+x^2) enters the squared norm
    expect = math.sqrt(geom.volume) * (1.0 + 16.0) ** (s / 4.0)
    assert abs(sobolev_norm(f, s) - expect) < 1e-12
    assert abs(sobolev_norm(f, 0.0) - l2_norm(f)) < 1e-12


def test_free_evolve_unitary_and_group():
    geom = GEOMS[1]
    f = _random_field(geom, 6)
    g = free_evolve(f, 0.37)
    assert abs(l2_norm(g) - l2_norm(f)) < 1e-12
    h = free_evolve(free_evolve(f, 0.2), 0.17)
    assert np.abs(h.coeffs - g.coeffs).max() < 1e-12
    back = free_evolve(g, -0.37)
    assert np.abs(back.coeffs - f.coeffs).max() < 1e-12


def test_conjugate_matches_sample_conjugation():
    for geom in GEOMS:
        f = _random_field(geom, 7)
        g = conjugate(f)
        assert np.abs(field_samples(g) - np.conj(field_samples(f))).max() < 1e-10


def _convolution_oracle(f, g):
    """Brute-force circular-band convolution on the doubled grid."""
    geom = f.geometry
    big = geom.padded(2)
    out = np.zeros(big.grid, dtype=np.complex128)

    def signed(idx, M):
        return idx if idx < M // 2 else idx - M

    for na in np.ndindex(*geom.grid):
        ca = f.coeffs[na]
        if ca == 0.0:
            continue
        for nb in np.ndindex(*geom.grid):
            cb = g.coeffs[nb]
            if cb == 0.0:
                continue
            tot = tuple(
                signed(a, M) + signed(b, M) for a, b, M in zip(na, nb, geom.grid)
            )
            out[tuple(t % P for t, P in zip(tot, big.grid))] += ca * cb
    return out


def test_product_field_matches_convolution_oracle():
    geom = TorusGeometry(1, (1.0,), (8,))
    f = _random_field(geom, 8)
    g = _random_field(geom, 9)
    prod = product_field(f, g)
    assert np.abs(prod.coeffs - _convolution_oracle(f, g)).max() < 1e-10
    # 2d spot check on sparse fields
    geom2 = TorusGeometry(2, (1.0, 1.0), (6, 6))
    a = mode_field(geom2, (2, -1)) + mode_field(geom2, (-2, 2)) * 0.5
    b = mode_field(geom2, (1, 1)) * 1j
    prod2 = product_field(a, b)
    assert np.abs(prod2.coeffs - _convolution_oracle(a, b)).max() < 1e-12


def test_product_conj_flag():
    geom = TorusGeometry(1, (1.0,), (16,))
    # keep the Nyquist row empty: coefficient-space conjugation and sample
    # conjugation only agree away from the band edge
    f = random_shell_field(geom, 2, 10)
    g = random_shell_field(geom, 4, 11)
    lhs = product_field(f, g, conj=(False, True))
    rhs = product_field(f, conjugate(g), conj=(False, False))
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10


def test_cubic_field_matches_samples():
    geom = TorusGeometry(1, (1.0,), (16,))
    # band-limited so that the triple product fits the doubled band exactly
    f = random_shell_field(geom, 2, 12)
    cubic = cubic_field(f)
    # oracle via very fine grid samples
    fine = truncate_field(f, geom.padded(4))
    s = field_samples(fine)
    oracle = field_from_samples(geom.padded(4), np.abs(s) ** 2 * s)
    oracle_base = truncate_field(oracle, geom)
    assert np.abs(cubic.coeffs - oracle_base.coeffs).max() < 1e-12


def test_truncate_roundtrip():
    geom = GEOMS[1]
    f = _random_field(geom, 13)
    up = truncate_field(f, geom.padded(2))
    down = truncate_field(up, geom)
    assert np.abs(down.coeffs - f.coeffs).max() < 1e-12
    assert abs(l2_norm(up) - l2_norm(f)) < 1e-10


# tori with unequal sides in d = 1, 2 on grids of 4 to 8 points per axis
_GEOMETRIES = st.builds(lambda d, thetas, grid: TorusGeometry(d, thetas[:d], grid[:d]),
                        st.integers(1, 2), st.tuples(*[st.floats(0.5, 1.5)] * 2),
                        st.tuples(*[st.sampled_from((4, 6, 8))] * 2))


@settings(max_examples=30, deadline=None)
@given(geom=_GEOMETRIES, seed=st.integers(0, 2 ** 32 - 1))
def test_partition_of_unity_and_orthogonality(geom, seed):
    # each mode lies in exactly one sharp block, on which the smoothed
    # projector's multiplier is exactly 1, so every identity is bitwise
    f = _random_field(geom, seed)
    blocks = dyadic_blocks(geom)
    parts = [dyadic_project(f, N) for N in blocks]
    assert np.array_equal(sum(p.coeffs for p in parts), f.coeffs)
    for i, (N, p) in enumerate(zip(blocks, parts)):
        assert np.array_equal(dyadic_project(p, N).coeffs, p.coeffs)
        assert np.array_equal(smooth_dyadic_project(p, N).coeffs, p.coeffs)
        assert all(inner_product(p, q) == 0.0 for q in parts[i + 1:])


def _shifted_embed(c, big):
    # the centred construction: fftshift, place in the middle, ifftshift
    out = np.zeros(big, dtype=np.complex128)
    out[tuple(slice((P - M) // 2, (P - M) // 2 + M) for M, P in zip(c.shape, big))] = (
        np.fft.fftshift(c))
    return np.fft.ifftshift(out)


def _shifted_extract(c, small):
    src = np.fft.fftshift(c)
    return np.fft.ifftshift(
        src[tuple(slice((P - M) // 2, (P - M) // 2 + M) for M, P in zip(small, c.shape))])


@settings(max_examples=40, deadline=None)
@given(geom=_GEOMETRIES, pad=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_band_copies_match_the_shifted_construction(geom, pad, seed):
    big = geom.padded(pad)  # pad 1 is the equal grid: a copy of every mode
    f, g = _random_field(geom, seed), _random_field(big, seed)
    up = truncate_field(f, big)
    assert np.array_equal(up.coeffs, _shifted_embed(f.coeffs, big.grid))
    assert np.array_equal(truncate_field(g, geom).coeffs, _shifted_extract(g.coeffs, geom.grid))
    assert np.array_equal(truncate_field(up, geom).coeffs, f.coeffs)


def _circular_convolution(factors, conj, big):
    """Coefficients of the product on the grid big, summed mode by mode with
    no FFT: a conjugated factor puts conj(c[n]) at mode -n."""
    out = np.zeros(big.grid, dtype=np.complex128)
    out[(0,) * big.d] = 1.0
    for f, cj in zip(factors, conj):
        acc = np.zeros(big.grid, dtype=np.complex128)
        for idx in np.ndindex(*f.geometry.grid):
            n = [i if i < M // 2 else i - M for i, M in zip(idx, f.geometry.grid)]
            c = f.coeffs[idx]
            acc += (np.conj(c) if cj else c) * np.roll(out, [-m if cj else m for m in n],
                                                      axis=tuple(range(big.d)))
        out = acc
    return out


@settings(max_examples=25, deadline=None)
@given(geom=_GEOMETRIES, picks=st.lists(st.tuples(st.integers(0, 1), st.booleans()),
                                        min_size=2, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_product_field_is_the_convolution_of_its_factors(geom, picks, seed):
    # k factors on the grid padded by k; two field objects, so one object
    # often comes twice, with equal or opposite conj flags
    pool = [_random_field(geom, seed), _random_field(geom, seed + 1)]
    factors = [pool[i] for i, _ in picks]
    conj = tuple(cj for _, cj in picks)
    got = product_field(*factors, conj=conj)
    assert got.geometry == geom.padded(len(factors))
    want = _circular_convolution(factors, conj, got.geometry)
    scale = math.prod(np.abs(f.coeffs).sum() for f in factors)
    assert np.abs(got.coeffs - want).max() < 1e-13 * scale
    # on the base band: the convolution on a grid too wide to wrap, truncated.
    # A conjugated factor's Nyquist mode -M/2 moves to +M/2, so with every
    # factor conjugated the top mode mM/2 aliases on the grid of the rule
    base = product_field(*factors, conj=conj, band=geom)
    assert base.geometry == geom
    if not all(conj):
        wide = geom.padded(len(factors) + 1)
        want = truncate_field(SpectralField(wide, _circular_convolution(factors, conj, wide)),
                              geom).coeffs
        assert np.abs(base.coeffs - want).max() < 1e-13 * scale


def test_product_field_transforms_each_distinct_factor_once(monkeypatch):
    calls = []
    samples = torus_module.field_samples
    monkeypatch.setattr(torus_module, "field_samples",
                        lambda f, big: calls.append(big) or samples(f, big))
    phi = _random_field(GEOMS[1], 17)
    cubic_field(phi)
    assert calls == [GEOMS[1].padded(2)]
    product_field(phi, conjugate(phi), phi)
    assert calls[1:] == [GEOMS[1].padded(3)] * 2
    # the smallest pad with pad M >= (m M + B)/2: 3 for four factors kept
    # on the base band, 2 for two factors kept on the pad-2 band
    product_field(phi, phi, phi, phi, band=GEOMS[1])
    product_field(phi, conjugate(phi), band=GEOMS[1].padded(2))
    assert calls[3:] == [GEOMS[1].padded(3)] + [GEOMS[1].padded(2)] * 2


def _ifftn_samples(f):
    """The unpruned inverse transform: f's samples by numpy's ifftn."""
    return np.fft.ifftn(f.coeffs) * f.geometry.npoints


def _fftn_field(geom, samples):
    """The unpruned forward transform: the field by numpy's fftn."""
    return SpectralField(geom, np.fft.fftn(samples) / geom.npoints)


@pytest.mark.parametrize("geom", GEOMS + [
    TorusGeometry(1, (0.7,), (10,)),
    TorusGeometry(2, (1.0, 1.0), (12, 12)),
    TorusGeometry(2, (1.0, math.sqrt(2.0)), (6, 10)),
    TorusGeometry(3, (1.0, 1.0, 1.0), (6, 6, 6)),
    TorusGeometry(3, (1.0, math.sqrt(2.0), 0.5), (6, 4, 10)),
], ids=["d1", "d2", "d3", "d1-short", "d2-square", "d2-rect", "d3-cube", "d3-rect"])
def test_transform_pair_is_bit_identical_to_ifftn_and_fftn(geom):
    f = _random_field(geom, 45)
    rng = np.random.default_rng(46)
    s = rng.standard_normal(geom.grid) + 1j * rng.standard_normal(geom.grid)
    assert np.array_equal(field_samples(f), _ifftn_samples(f))
    assert np.array_equal(field_from_samples(geom, s).coeffs, _fftn_field(geom, s).coeffs)
    assert np.array_equal(field_from_samples(geom, s.real).coeffs,
                          _fftn_field(geom, s.real).coeffs)
    # padded samples and a cut back to the base band
    big = geom.padded(2)
    want = _ifftn_samples(truncate_field(f, big))
    assert np.array_equal(field_samples(f, big), want)
    got = field_from_samples(big, want, geom)
    assert got.geometry == geom
    assert np.array_equal(got.coeffs, truncate_field(_fftn_field(big, want), geom).coeffs)


def _unpruned_product(factors, conj, big, band):
    """The product the pruned transforms must reproduce: every factor
    embedded in the padded grid big, a full ifftn and fftn, then the cut to
    band."""
    prod = None
    for f, cj in zip(factors, conj):
        s = _ifftn_samples(truncate_field(f, big))
        s = np.conj(s) if cj else s
        prod = s if prod is None else prod * s
    return truncate_field(_fftn_field(big, prod), band)


@pytest.mark.parametrize("geom", [
    TorusGeometry(1, (1.0,), (10,)),
    TorusGeometry(2, (1.0, math.sqrt(2.0)), (6, 10)),
    TorusGeometry(3, (1.0, math.sqrt(2.0), 0.5), (6, 4, 10)),
], ids=["d1", "d2", "d3"])
@pytest.mark.parametrize("m, base, pad", [
    (2, False, 2), (3, False, 3), (2, True, 2), (3, True, 2), (4, True, 3),
])
def test_product_field_is_bit_identical_to_the_unpruned_transforms(geom, m, base, pad):
    # random fields fill every mode, the Nyquist modes -M/2 included, and
    # M/2 is odd on the 6- and 10-point axes
    f, g = _random_field(geom, 40), _random_field(geom, 41)
    factors = [f, g, f, f][:m]
    for conj in [(False,) * m, (False, True, True, False)[:m], (True,) * m]:
        band = geom if base else geom.padded(m)
        got = product_field(*factors, conj=conj, band=band)
        want = _unpruned_product(factors, conj, geom.padded(pad), band)
        assert got.geometry == want.geometry
        assert np.array_equal(got.coeffs, want.coeffs)


def test_lp_norm_is_bit_identical_to_the_unpruned_samples():
    for geom in GEOMS + [TorusGeometry(2, (1.0, math.sqrt(2.0)), (6, 10))]:
        f = _random_field(geom, 42)
        big = geom.padded(2)
        s = np.abs(_ifftn_samples(truncate_field(f, big)))
        assert lp_norm(f, np.inf) == float(s.max())
        for p in (1.0, 2.0, 3.5, 6.0):
            want = float((np.sum(s ** p) * (big.volume / big.npoints)) ** (1.0 / p))
            assert lp_norm(f, p) == want


def test_free_evolve_is_bit_identical_to_a_fresh_phase():
    # interleaved times, more distinct ones than the phase cache holds, on
    # two geometries: every call must get the phase of its own (geometry, t)
    fields = [_random_field(GEOMS[0], 43), _random_field(GEOMS[1], 44)]
    times = [0.3, -0.3, 0.3, 0.1, 1, 1.0, 2e-3, -0.3, 0.7, 0.0, 0.25, 1.5, 0.05, 0.3, 0.1, -2e-3]
    for t in times:
        for f in fields:
            want = f.coeffs * np.exp(-1j * t * torus_module._freq_sq(f.geometry))
            assert np.array_equal(free_evolve(f, t).coeffs, want)


def test_sobolev_norm_is_bit_identical_to_the_weight_formed_per_call():
    for geom in GEOMS:
        f = _random_field(geom, 45)
        lam = torus_module._freq_sq(geom)
        for s in (1.0, -1.1, 0.35, 2.0, -0.6, 1.0, 0.35):
            w = (1.0 + lam ** 2) ** (s / 2.0)
            want = math.sqrt(geom.volume * float(np.sum(w * np.abs(f.coeffs) ** 2)))
            assert sobolev_norm(f, s) == want


def test_cached_lattice_arrays_are_read_only():
    # a write into a shared cached array would change every later call on
    # its geometry: writing zeros into shell_indices zeroed this projection
    geom = TorusGeometry(2, (1.0, 1.0), (8, 8))
    f = _random_field(geom, 46)
    before = smooth_dyadic_project(f, 2).coeffs
    cached = [torus_module._freq_sq(geom), torus_module._freq_abs(geom), shell_indices(geom),
              torus_module._block_bins(geom)[0], torus_module._sobolev_weight(geom, 0.5),
              torus_module._phase(geom, 0.1)]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    after = smooth_dyadic_project(f, 2).coeffs
    assert np.abs(after).sum() > 0 and np.array_equal(after, before)
    # the block N of each bin is a tuple, which has no writes
    assert torus_module._block_bins(geom)[1] == (0, 1, 2, 4)


def test_random_shell_field_support_and_norm():
    geom = TorusGeometry(2, (1.0, 1.0), (32, 32))
    # N = 1 (shell |xi| < 1 off the origin) is empty on the integer lattice
    for N in (0, 2, 4):
        f = random_shell_field(geom, N, 14)
        assert abs(l2_norm(f) - 1.0) < 1e-12
        assert np.abs(dyadic_project(f, N).coeffs - f.coeffs).max() < 1e-14
    same = random_shell_field(geom, 2, 14)
    again = random_shell_field(geom, 2, 14)
    assert np.array_equal(same.coeffs, again.coeffs)
    # an empty block, inside the grid's bins or past them, projects to 0
    # and has no data
    for N in (1, 64):
        assert not dyadic_project(same, N).coeffs.any()
        with pytest.raises(ValueError, match="block N=%d has no modes" % N):
            random_shell_field(geom, N, 14)
        with pytest.raises(ValueError, match="block N=%d has no modes" % N):
            shell_extremizer_field(geom, N)
    with pytest.raises(ValueError, match="power of two"):
        random_shell_field(geom, 3, 14)


def test_extremizers_live_on_block():
    geom = TorusGeometry(2, (1.0, 1.0), (32, 32))
    for kind in ("ones", "single", "bell"):
        f = shell_extremizer_field(geom, 4, kind)
        assert abs(l2_norm(f) - 1.0) < 1e-12
        assert np.abs(dyadic_project(f, 4).coeffs - f.coeffs).max() < 1e-14


@pytest.mark.parametrize("geom", GEOMS + [
    TorusGeometry(1, (0.3,), (16,)),
    TorusGeometry(2, (1.0, 1.0), (16, 16)),
    TorusGeometry(2, (2.5, 3.0), (8, 12)),
    TorusGeometry(3, (1.0, 1.0, 1.0), (8, 8, 8)),
], ids=["d1", "d2-rect", "d3-rect", "d1-long", "d2-square", "d2-empty-blocks", "d3-cube"])
def test_besov_norm_sums_the_dyadic_projections(geom):
    # B^s_{2,1} = sum_N <N>^s ||P_N f||_2 over the grid's blocks; on sides
    # 2.5 and 3.0 the block N = 1 holds no modes
    f = _random_field(geom, 47)
    for s in (-0.7, 0.0, 0.4, 1.5):
        want = sum(math.sqrt(1.0 + N ** 2) ** s * l2_norm(dyadic_project(f, N))
                   for N in dyadic_blocks(geom))
        assert abs(besov_norm(f, s) - want) < 1e-13 * want


def test_is_dyadic():
    assert all(is_dyadic(n) for n in (0, 1, 2, 4, 64))
    assert not any(is_dyadic(n) for n in (3, 5, 6, 7, 12))


def test_geometry_mismatch_raises():
    f = _random_field(GEOMS[0], 15)
    g = _random_field(TorusGeometry(1, (2.0,), (32,)), 16)
    with pytest.raises(GeometryMismatchError):
        _ = f + g
    with pytest.raises(GeometryMismatchError):
        product_field(f, g)
    with pytest.raises(GeometryMismatchError, match="band"):
        product_field(f, f, band=TorusGeometry(1, (2.0,), (32,)))


def test_geometry_validation():
    with pytest.raises(ValueError):
        TorusGeometry(2, (1.0,), (8, 8))
    with pytest.raises(ValueError):
        TorusGeometry(1, (-1.0,), (8,))
    # a NaN or infinite side would make the volume nan or 0.0
    for bad in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            TorusGeometry(2, (1.0, bad), (8, 8))
    with pytest.raises(ValueError):
        TorusGeometry(1, (1.0,), (7,))
