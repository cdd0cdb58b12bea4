"""Exponent-fit benches and the exact admissible-parameter table."""

import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlslab.bench import (
    admissible_parameters,
    bench_bernstein,
    bench_cubic_product,
    bench_sobolev_embedding,
    bench_sobolev_product,
    bench_strichartz,
    bench_trilinear,
    fit_exponent,
    fit_loglog,
    _free_samples,
    _spacetime_lp_mean,
    _trilinear_ratio,
    _trilinear_samples,
)
from nlslab import bench as bench_module
from nlslab.torus import (
    SpectralField,
    TorusGeometry,
    besov_norm,
    conjugate,
    field_samples,
    free_evolve,
    lp_norm,
    mode_field,
    product_field,
    random_shell_field,
    shell_extremizer_field,
)


def test_admissible_parameters_table():
    expect = {
        2: (Fraction(1, 4), Fraction(7, 12), Fraction(1, 4), Fraction(7, 12), Fraction(8, 5)),
        3: (Fraction(3, 5), Fraction(4, 5), Fraction(1, 10), Fraction(4, 5), Fraction(10, 7)),
        4: (Fraction(1), Fraction(1), Fraction(0), Fraction(1), Fraction(4, 3)),
        5: (Fraction(3, 2), Fraction(7, 6), Fraction(0), Fraction(3, 2), Fraction(5, 4)),
        6: (Fraction(2), Fraction(4, 3), Fraction(0), Fraction(2), Fraction(6, 5)),
    }
    for d, (z, a, e, s, q) in expect.items():
        p = admissible_parameters(d)
        assert (p.zeta0, p.alpha0, p.epsilon, p.s0, p.q0) == (z, a, e, s, q)
        # Strichartz-exponent identity tying q0 to zeta0
        assert Fraction(d) / p.q0 - Fraction(d, 2) == p.zeta0
        assert p.epsilon_open == (e == 0)


def test_admissible_parameters_rejects_low_dimension():
    with pytest.raises(ValueError):
        admissible_parameters(1)


def test_fit_loglog_recovers_power_law():
    x = np.array([2.0, 4.0, 8.0, 16.0])
    y = 3.5 * x ** 1.75
    slope, intercept, resid = fit_loglog(x, y)
    assert abs(slope - 1.75) < 1e-12
    assert abs(intercept - math.log(3.5)) < 1e-12
    assert resid < 1e-12


def test_fit_exponent_needs_three_levels():
    # fewer than three distinct blocks show no trend: every output is NaN
    for rows in ([(2, 1.0), (4, 2.0)], [(2, 1.0), (2, 3.0), (4, 2.0)], []):
        assert all(math.isnan(v) for v in fit_exponent(rows))
    slope, _, _ = fit_exponent([(2, 1.0), (4, 1.0), (8, 1.0)])
    assert abs(slope) < 1e-12
    # the rule is fit_loglog's, so the X^{s,b} benches share it
    for x in ([1.0], [1.0, 0.5], [1.0, 0.5, 1.0], []):
        assert all(math.isnan(v) for v in fit_loglog(x, [2.0] * len(x)))


def _mirrored(c):
    """c summed over every axis reflection n_j -> -n_j (numpy FFT order), with
    its Nyquist planes n_j = -M_j/2 zeroed: even in every coordinate."""
    for a, m in enumerate(c.shape):
        c = c + np.take(c, -np.arange(m) % m, axis=a)
        if m % 2 == 0:
            c[(slice(None),) * a + (m // 2,)] = 0
    return c


def _sampled(fields, pad, t0, dt, nt, chunk, dtype, region=None):
    """The samples that one _free_samples call hands to consume, one row per
    time and one column per field.  The consumed slices tile range(nt)."""
    slices, lock = {}, threading.Lock()

    def consume(times, u, s):
        assert s is None
        with lock:
            slices[times.start] = (times.stop, u.copy())

    _free_samples(fields, pad, t0, dt, nt, chunk, dtype, consume, region=region)
    starts = sorted(slices)
    assert [0] + [slices[a][0] for a in starts] == starts + [nt]
    return np.concatenate([slices[a][1] for a in starts])


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 3), thetas=st.tuples(*[st.floats(0.5, 1.5)] * 3),
       grid=st.tuples(*[st.sampled_from((4, 6, 8))] * 3), pad=st.integers(2, 3),
       t0=st.floats(-1.0, 1.0), dt=st.floats(0.01, 0.25),
       nt=st.integers(1, 9), chunk=st.integers(1, 4), single=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), lanes=st.integers(1, 5), even=st.booleans(),
       nfields=st.integers(1, 3))
# a chunked advance from a negative start that ends on a partial chunk, and
# nt below and equal to the chunk; more lanes than times in a block; even
# fields on the quadrant in d = 1, 2, 3, on rectangular tori; passes of one,
# two and three fields
@example(3, (1.0, 1.4, 0.7), (4, 6, 8), 3, -0.6, 0.2, 7, 3, True, 0, 2, False, 3)
@example(2, (1.0, 1.3, 1.0), (8, 6, 4), 2, -0.9, 0.1, 2, 4, False, 1, 5, False, 2)
@example(1, (0.8, 1.0, 1.0), (6, 4, 4), 2, -0.3, 0.25, 4, 4, True, 2, 3, False, 1)
@example(1, (0.8, 1.0, 1.0), (6, 4, 4), 2, -0.3, 0.25, 5, 2, True, 3, 3, True, 2)
@example(2, (1.0, 1.3, 1.0), (8, 6, 4), 2, 0.1, 0.1, 6, 4, True, 4, 5, True, 3)
@example(3, (1.0, 1.4, 0.7), (4, 6, 8), 3, -0.6, 0.2, 7, 3, False, 5, 2, True, 2)
def test_free_samples_match_free_evolve(d, thetas, grid, pad, t0, dt, nt, chunk, single, seed,
                                        lanes, even, nfields):
    geom = TorusGeometry(d, thetas[:d], grid[:d])
    target = geom.padded(pad)
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(nfields):
        c = rng.standard_normal(geom.grid) + 1j * rng.standard_normal(geom.grid)
        fields.append(SpectralField(geom, _mirrored(c) if even else c))
    region = tuple(P // 2 + 1 for P in target.grid) if even else None
    dtype, tol = (np.complex64, 1e-5) if single else (np.complex128, 1e-12)
    samples = {}
    # one lane, lanes lanes, and lanes lanes of one time a group
    for run, n, budget in (("one", 1, None), ("lanes", lanes, None), ("groups of 1", lanes, 0)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench_module, "_cpus", lambda: n)
            if budget is not None:
                mp.setattr(bench_module, "SAMPLE_GROUP_BUDGET", budget)
            samples[run] = _sampled(fields, pad, t0, dt, nt, chunk, dtype, region=region)
            # each field of the pass is its single-field pass, bit for bit
            if nfields > 1:
                for i, f in enumerate(fields):
                    alone = _sampled([f], pad, t0, dt, nt, chunk, dtype, region=region)
                    assert np.array_equal(samples[run][:, i:i + 1], alone), (run, i)
    # the slices write disjoint rows and the phases do not depend on the
    # grouping: any lane count and any group give the same bits
    for run in ("lanes", "groups of 1"):
        assert np.array_equal(samples["one"], samples[run])
    if even:
        # the quadrant is the full grid's samples there, bit for bit
        full = _sampled(fields, pad, t0, dt, nt, chunk, dtype)
        quadrant = (slice(None),) * 2 + tuple(slice(0, r) for r in region)
        assert np.array_equal(samples["lanes"], full[quadrant])
        samples["one"] = full
    got = samples["one"]
    assert got.dtype == dtype
    assert got.shape == (nt, nfields) + target.grid
    # divide out the phase e^{i xi(M/2) . x} of the shifted storage
    x = np.meshgrid(*[np.arange(P) * (2 * np.pi / (th * P))
                      for th, P in zip(geom.thetas, target.grid)], indexing="ij")
    phase = np.exp(1j * sum(th * M / 2 * xa for th, M, xa in zip(geom.thetas, geom.grid, x)))
    for j in range(nt):
        for i, f in enumerate(fields):
            want = field_samples(free_evolve(f, t0 + j * dt), target)
            assert np.abs(got[j, i] / phase - want).max() <= tol * np.abs(want).max()


def test_free_samples_reuse_the_step_as_the_advance_of_one_time(monkeypatch):
    # a pass forms exp(-i t0 lambda), exp(-i dt lambda) and, above chunk 1,
    # exp(-i chunk dt lambda); at chunk 1 the step is the advance, bit for
    # bit, so the samples are the plain recurrence c <- c exp(-i dt lambda)
    geom = TorusGeometry(1, (1.3,), (12,))
    f = random_shell_field(geom, 4, 0)
    M, P, t0, dt, nt = 12, 24, -0.4, 0.15, 5
    tables, real_exp = [], np.exp

    def spy(x, *args, **kwargs):
        out = real_exp(x, *args, **kwargs)
        tables.append(np.shape(out) == (M,))
        return out

    monkeypatch.setattr(np, "exp", spy)
    got = {}
    for chunk in (1, 2, 5):
        tables.clear()
        got[chunk] = _sampled([f], 2, t0, dt, nt, chunk, np.complex128)[:, 0]
        assert sum(tables) == (2 if chunk == 1 else 3), chunk
    monkeypatch.undo()
    lam = np.fft.fftshift(bench_module._freq_sq(geom))
    c = np.fft.fftshift(f.coeffs) * P
    start, step = np.exp(-1j * t0 * lam), np.exp(-1j * dt * lam)
    for j in range(nt):
        row = np.zeros(P, dtype=np.complex128)
        np.multiply(start, c, out=row[:M])
        assert np.array_equal(got[1][j], np.fft.ifft(row)), j
        c *= step
    for chunk in (2, 5):
        assert np.abs(got[chunk] - got[1]).max() <= 1e-12 * np.abs(got[1]).max()


def _direct_spacetime_lp_mean(f, p, nt):
    times = (np.arange(nt) + 0.5) / nt
    return np.mean([lp_norm(free_evolve(f, t), p) ** p for t in times])


def _regions(monkeypatch):
    """The regions that _spacetime_lp_mean asks of _free_samples, in order."""
    regions, real = [], bench_module._free_samples

    def spy(*args, region=None, **kwargs):
        regions.append(region)
        return real(*args, region=region, **kwargs)

    monkeypatch.setattr(bench_module, "_free_samples", spy)
    return regions


def test_spacetime_lp_mean_matches_direct_evolution(monkeypatch):
    # d=1 fits in one chunk; the non-square d=2 case (nt=70, chunk=32) takes
    # two phase advances between chunks and ends on a partial chunk; p = 5,
    # whose p/2 is not an integer, takes np.power instead of products
    skew = TorusGeometry(2, (1.0, math.sqrt(2.0)), (16, 12))
    cases = [
        (random_shell_field(TorusGeometry(1, (1.0,), (8,)), 2, 0), 4.0, 4),
        (random_shell_field(skew, 2, 0), 6.0, 70),
        (random_shell_field(skew, 2, 0), 5.0, 70),
    ]
    # even data, sampled on the quadrant of the padded grid
    even = [shell_extremizer_field(skew, 2, "ones"), shell_extremizer_field(skew, 2, "bell")]
    for geom, N in ((TorusGeometry(1, (1.0,), (16,)), 4), (skew, 2),
                    (TorusGeometry(3, (1.0, 1.3, 0.9), (8, 8, 8)), 2)):
        f = random_shell_field(geom, N, 1)
        even.append(SpectralField(geom, _mirrored(f.coeffs)))
    even = [(f, p, 70) for p in (6.0, 5.0) for f in even]
    cases += even
    regions = _regions(monkeypatch)
    got = []
    for f, p, nt in cases:
        got.append(_spacetime_lp_mean(f, p, nt))
        want = _direct_spacetime_lp_mean(f, p, nt)
        # the batched path runs in single precision
        assert abs(got[-1] - want) < 1e-5 * want
    assert regions == [None] * 3 + [tuple(M + 1 for M in f.geometry.grid) for f, _, _ in even]
    # the quadrant sums the full grid's float32 samples, each mirror pair once
    monkeypatch.setattr(bench_module, "_is_even", lambda c: False)
    for (f, p, nt), quadrant in zip(even, got[3:], strict=True):
        full = _spacetime_lp_mean(f, p, nt)
        assert regions[-1] is None
        assert abs(quadrant - full) < 1e-7 * full


def test_spacetime_lp_mean_is_lane_invariant(monkeypatch):
    # five lanes on two chunks and a partial one, with the GIL handed over
    # as often as the interpreter allows: an advance of the coefficients
    # before every slice has finished would change the sum; the even field
    # takes the quadrant.  Groups of one time and groups of the whole chunk
    # sum the same S_j, so they give the same bits too
    geom = TorusGeometry(2, (1.0, math.sqrt(2.0)), (16, 12))
    fields = [random_shell_field(geom, 2, 0), shell_extremizer_field(geom, 2, "bell")]
    monkeypatch.setattr(bench_module, "_cpus", lambda: 1)
    want = [_spacetime_lp_mean(f, 6.0, 70) for f in fields]
    monkeypatch.setattr(bench_module, "_cpus", lambda: 5)
    interval = sys.getswitchinterval()
    start = time.perf_counter()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(5):
            assert [_spacetime_lp_mean(f, 6.0, 70) for f in fields] == want
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - start < 30.0
    for budget in (0, 1 << 40):
        monkeypatch.setattr(bench_module, "SAMPLE_GROUP_BUDGET", budget)
        for n in (1, 5):
            monkeypatch.setattr(bench_module, "_cpus", lambda: n)
            assert [_spacetime_lp_mean(f, 6.0, 70) for f in fields] == want, (budget, n)


def test_spacetime_lp_mean_sums_one_time_at_a_time():
    # S_j is the float64 sum of time j's |u|^p row and the mean sums the S_j
    # in time order: the d=2 N=16 `ones` row read 1.0881236401019132 when
    # each block of 32 times was one float64 sum.  A change of summation
    # order moves this value and has to be made on purpose
    rows = bench_strichartz(2, 6.0, (16,), trials=0, seed=0).rows
    assert rows[0][:2] == (16, "ones")
    assert repr(rows[0][4]) == "1.0881236401019134"


def test_free_samples_leaves_no_worker_behind(monkeypatch):
    # an error in the caller's own slice is raised only once every worker
    # has finished its slice
    monkeypatch.setattr(bench_module, "_cpus", lambda: 4)
    f = random_shell_field(TorusGeometry(2, (1.0, 1.0), (8, 8)), 2, 0)
    before = threading.active_count()
    caller, ran_on = threading.current_thread(), set()

    def consume(times, u, s):
        ran_on.add(threading.current_thread())
        if threading.current_thread() is caller:
            raise RuntimeError("caller's slice failed")

    with pytest.raises(RuntimeError, match="caller's slice failed"):
        _free_samples([f], 2, 0.0, 0.1, 20, 8, np.complex64, consume)
    workers = ran_on - {caller}
    assert len(workers) == 3
    assert not any(t.is_alive() for t in workers)
    assert threading.active_count() == before


def test_free_samples_raises_a_slice_error(monkeypatch):
    monkeypatch.setattr(bench_module, "_cpus", lambda: 3)
    f = random_shell_field(TorusGeometry(1, (1.0,), (8,)), 2, 0)

    def consume(times, u, s):
        if times.start > 0:  # a slice that runs on a worker thread
            raise RuntimeError("slice failed")

    with pytest.raises(RuntimeError, match="slice failed"):
        _free_samples([f], 2, 0.0, 0.1, 6, 6, np.complex64, consume)


def _held_times(per_time, chunk):
    """Times that the transform buffers of _free_samples hold: lanes x group."""
    lanes = min(bench_module._cpus(), chunk)
    return lanes * max(1, min(bench_module.SAMPLE_GROUP_BUDGET // per_time, -(-chunk // lanes)))


@pytest.mark.parametrize("M", [(32, 32), (16, 16, 16)])
def test_free_samples_holds_only_its_transform_buffers(monkeypatch, M):
    # the last transform runs in place and the phases come one per step: on
    # two lanes the peak is 1.36x (32^2, groups of 4) and 1.26x (16^3, groups
    # of 2) of the buffers of lanes x group times, which at 16^3 hold 4 of
    # the chunk's 8 times
    monkeypatch.setattr(bench_module, "_cpus", lambda: 2)
    geom = TorusGeometry(len(M), (1.0,) * len(M), M)
    f = random_shell_field(geom, 4, 0)
    P, chunk, dtype = geom.padded(2).grid, 8, np.dtype(np.complex64)
    per_time = sum(math.prod(P[:a] + M[a:]) for a in range(1, len(M) + 1)) * dtype.itemsize
    bufs = _held_times(per_time, chunk) * per_time
    tracemalloc.start()
    try:
        _free_samples([f], 2, 0.0, 0.1, 16, chunk, dtype, lambda times, u, s: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * bufs, peak / bufs


def _power_held(M, region, nt):
    """Bytes of the lanes x group times that _spacetime_lp_mean holds: each
    a time of complex64 transform buffers and a float32 power row."""
    P = tuple(2 * m for m in M)
    per_time = 8 * sum(math.prod(P[:a] + M[a:]) for a in range(1, len(M) + 1))
    per_time += 4 * math.prod(region)
    return _held_times(per_time, nt) * per_time


@pytest.mark.parametrize("kind, bound", [("random", 1.5), ("ones", 1.6)])
def test_spacetime_lp_mean_forms_the_power_in_the_transform_buffer(monkeypatch, kind, bound):
    # |u|^2 comes from the samples' own buffer into the lane's power rows,
    # one per transform-buffer row: on one lane of 4 times a group the peak
    # is 1.39x (full grid) and 1.49x (quadrant) of those buffers and rows
    # (1 MiB and 0.81 MiB), the rest being M-sized phase tables; no buffer
    # holds the 32 times of the chunk
    monkeypatch.setattr(bench_module, "_cpus", lambda: 1)
    geom = TorusGeometry(2, (1.0, 1.0), (64, 64))
    f = random_shell_field(geom, 8, 0) if kind == "random" else shell_extremizer_field(geom, 8, kind)
    P, nt = geom.padded(2).grid, 32
    region = P if kind == "random" else tuple(n // 2 + 1 for n in P)
    held = _power_held(geom.grid, region, nt)
    assert held == 4 * (8 * (128 * 64 + 128 * 128) + 4 * math.prod(region))
    tracemalloc.start()
    try:
        _spacetime_lp_mean(f, 6.0, nt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * held, peak / held


@pytest.mark.parametrize("kind", ["random", "ones"])
def test_spacetime_lp_mean_holds_lanes_times_group_transform_buffers(monkeypatch, kind):
    # a chunk of 32 times on two lanes of 4 times a group (256 KiB a time on
    # the full grid, 209 KiB on the quadrant): the peak is 1.23x and 1.33x
    # of those 8 times, 2 and 1.6 MiB, where the transform buffers of the
    # chunk's 32 times alone take 6 MiB and its power rows 2 MiB (full grid)
    monkeypatch.setattr(bench_module, "_cpus", lambda: 2)
    geom = TorusGeometry(2, (1.0, 1.0), (64, 64))
    f = random_shell_field(geom, 8, 0) if kind == "random" else shell_extremizer_field(geom, 8, kind)
    M, P, nt = geom.grid, geom.padded(2).grid, 32
    region = P if kind == "random" else tuple(n // 2 + 1 for n in P)
    held = _power_held(M, region, nt)
    assert held == 8 * (8 * (128 * 64 + 128 * 128) + 4 * math.prod(region))
    tracemalloc.start()
    try:
        _spacetime_lp_mean(f, 6.0, nt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * held, peak / held
    chunk_bufs = nt * 8 * sum(math.prod(P[:a] + M[a:]) for a in (1, 2))
    assert peak < chunk_bufs, peak / chunk_bufs


class _Stop(Exception):
    """Raised where _block stops _spacetime_lp_mean."""


def _block(f, p, nt):
    """The block of times that _free_samples sets for _spacetime_lp_mean(f,
    p, nt), read off its phase tables exp(-i t0 lambda), exp(-i dt lambda)
    and, for a block of c > 1 times, the advance exp(-i c dt lambda), where
    the call stops before any transform.  A block of 1 runs in full."""
    tables, real_exp = [], np.exp

    def spy(x, *args, **kwargs):
        tables.append(x)
        if len(tables) == 3:
            raise _Stop
        return real_exp(x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "exp", spy)
        try:
            _spacetime_lp_mean(f, p, nt)
        except _Stop:
            k = np.argmax(np.abs(tables[1]))
            return round(tables[2].flat[k].imag / tables[1].flat[k].imag)
    assert len(tables) == 2
    return 1


def test_spacetime_lp_mean_sizes_its_chunk_by_bytes(monkeypatch):
    budget = bench_module.STRICHARTZ_BUDGET
    # every d=2 block of the benches, on 4N points per axis, keeps 32 times
    blocks = []
    for N in (4, 8, 16, 32, 64):
        geom = TorusGeometry(2, (1.0, 1.0), (4 * N,) * 2)
        for f in (random_shell_field(geom, N, 0), shell_extremizer_field(geom, N, "ones")):
            blocks.append(_block(f, 6.0, 32))
    assert blocks == [32] * 10
    # d=3, N=16: 28 MiB of transform buffers a time, and a power row of the
    # full grid (8 MiB) or of the octant (65^3 float32)
    geom = TorusGeometry(3, (1.0,) * 3, (64,) * 3)
    M, P = geom.grid, geom.padded(2).grid
    fields = [random_shell_field(geom, 16, 0), shell_extremizer_field(geom, 16, "ones")]
    for n in (1, 5):
        monkeypatch.setattr(bench_module, "_cpus", lambda: n)
        blocks = [_block(f, 4.0, 32) for f in fields]
        assert blocks == [2, 4]
    for block, row in zip(blocks, (math.prod(P), 65 ** 3)):
        per_time = 8 * sum(math.prod(P[:a] + M[a:]) for a in (1, 2, 3)) + 4 * row
        assert block * per_time <= budget < 2 * block * per_time


def test_spacetime_lp_mean_runs_in_a_small_budget(monkeypatch):
    # 16^3 in 2 MiB: 576 KiB a time on the full grid and 468 KiB on the
    # octant, so nt = 7 runs in blocks of 2 or of 4, the last one partial
    monkeypatch.setattr(bench_module, "STRICHARTZ_BUDGET", 2 << 20)
    geom = TorusGeometry(3, (1.0,) * 3, (16,) * 3)
    fields = [random_shell_field(geom, 4, 0), shell_extremizer_field(geom, 4, "bell")]
    assert [_block(f, 4.0, 7) for f in fields] == [2, 4]
    monkeypatch.setattr(bench_module, "_cpus", lambda: 1)
    want = [_spacetime_lp_mean(f, 4.0, 7) for f in fields]
    monkeypatch.setattr(bench_module, "_cpus", lambda: 5)
    assert [_spacetime_lp_mean(f, 4.0, 7) for f in fields] == want
    for f, got in zip(fields, want):
        direct = _direct_spacetime_lp_mean(f, 4.0, 7)
        assert abs(got - direct) < 1e-5 * direct


def test_spacetime_lp_mean_single_lambda_shortcut(monkeypatch):
    geom = TorusGeometry(2, (1.0, 1.0), (8, 8))
    single = mode_field(geom, (1, 0))
    shell = mode_field(geom, (1, 0)) + mode_field(geom, (0, 1))  # lambda = 1
    mixed = mode_field(geom, (1, 0)) + mode_field(geom, (1, 1))  # lambda = 1, 2
    shortcut = []
    real_lp_norm = bench_module.lp_norm

    def spy(f, p):
        shortcut.append(f)
        return real_lp_norm(f, p)

    monkeypatch.setattr(bench_module, "lp_norm", spy)
    p, nt = 6.0, 40
    for f in (single, shell):
        got = _spacetime_lp_mean(f, p, nt)
        assert shortcut[-1] is f
        assert abs(got - _direct_spacetime_lp_mean(f, p, nt)) < 1e-12 * got
    # |single| = 1 everywhere, so the mean is the volume
    assert abs(_spacetime_lp_mean(single, p, nt) - geom.volume) < 1e-12 * geom.volume
    shortcut.clear()
    got = _spacetime_lp_mean(mixed, p, nt)
    assert shortcut == []
    assert abs(got - _direct_spacetime_lp_mean(mixed, p, nt)) < 1e-5 * got


def test_spacetime_lp_mean_takes_the_quadrant_only_for_even_data(monkeypatch):
    square = TorusGeometry(2, (1.0, 1.0), (8, 8))
    even = [shell_extremizer_field(g, 2, kind) for kind in ("ones", "bell")
            for g in (square, TorusGeometry(2, (1.0, math.sqrt(2.0)), (8, 8)))]
    ones = shell_extremizer_field(square, 2, "ones")
    # a mode on the Nyquist plane n_1 = -4 is its own mirror under both
    # reflections, but it breaks the evenness of |u| in x_1
    nyquist = ones + 0.5 * mode_field(square, (-4, 0))
    # even in x_1, not in x_2
    one_axis = ones + mode_field(square, (1, 1)) + mode_field(square, (-1, 1))
    full = [nyquist, one_axis, random_shell_field(square, 2, 0)]
    regions = _regions(monkeypatch)
    for f in even + full:
        got = _spacetime_lp_mean(f, 6.0, 24)
        assert abs(got - _direct_spacetime_lp_mean(f, 6.0, 24)) < 1e-5 * got
    assert regions == [(9, 9)] * len(even) + [None] * len(full)
    # the quadrant would be wrong for both
    monkeypatch.setattr(bench_module, "_is_even", lambda c: True)
    for f in full[:2]:
        want = _direct_spacetime_lp_mean(f, 6.0, 24)
        assert abs(_spacetime_lp_mean(f, 6.0, 24) - want) > 1e-3 * want


def test_bench_strichartz_rows_are_pinned():
    # random and single rows are bit for bit those of the full-grid kernel;
    # the even rows sum mirrored float32 samples once, within 1e-7
    want = [
        (2, "random", 0.3754371063315935), (2, "ones", 0.5428218776645166),
        (2, "single", 0.2936838654966136), (2, "bell", 0.45705542663890075),
        (4, "random", 0.3954502681455184), (4, "ones", 0.6790071864098792),
        (4, "single", 0.2936838654966137), (4, "bell", 0.630313300995748),
        (8, "random", 0.39508071030296965), (8, "ones", 0.8636543707150144),
        (8, "single", 0.2936838654966136), (8, "bell", 0.8400476390911675),
    ]
    rows = bench_strichartz(2, 6.0, (2, 4, 8), trials=2, seed=3).rows
    assert [r[:2] for r in rows] == [w[:2] for w in want]
    for (N, kind, lhs, rhs, ratio), (_, _, r) in zip(rows, want):
        assert lhs == ratio and rhs == 1.0
        if kind in ("random", "single"):
            assert repr(ratio) == repr(r)
        else:
            assert abs(ratio - r) < 1e-7 * r


def test_bench_strichartz_small_run(monkeypatch):
    monkeypatch.setattr(bench_module, "STRICHARTZ_RANDOM_NT", 8)
    rep = bench_strichartz(1, 8.0, (2, 4, 8), trials=2, seed=0)
    assert rep.name == "strichartz"
    assert math.isfinite(rep.slope)
    assert math.isfinite(rep.footer["extremizer_slope"])
    kinds = {r[1] for r in rep.rows}
    assert kinds == {"random", "ones", "single", "bell"}
    assert all(r[4] > 0 for r in rep.rows)


def test_bench_strichartz_validation():
    for p in (3.0, 4.0, math.inf, math.nan):  # not above critical 2(d+2)/d = 4, or not finite
        with pytest.raises(ValueError, match="need a finite p above"):
            bench_strichartz(2, p, (2, 4, 8), 1, 0)
    for d in (0, 4):  # full grid only 1 <= d <= 3; d = 0 has no critical exponent
        with pytest.raises(ValueError, match="supports 1 <= d <= 3"):
            bench_strichartz(d, 10.0, (2, 4, 8), 1, 0)


def test_bench_bernstein_small_run():
    rep = bench_bernstein(2.0, np.inf, (2, 4, 8), trials=2, seed=0)
    # L^inf vs L^2 on a block can grow at most like N^{d/2} = N
    assert 0.0 < rep.slope < 1.3
    assert rep.params["q"] == "inf"
    with pytest.raises(ValueError):
        bench_bernstein(4.0, 2.0, (2, 4, 8), 1, 0)


def _direct_trilinear_samples(phis, eta, T, nt):
    return np.array([besov_norm(product_field(*[free_evolve(f, t) for f in phis]), -eta)
                     for t in np.linspace(-T, T, nt)])


def test_trilinear_samples_match_exact_products():
    rng = np.random.default_rng(5)
    skew = TorusGeometry(2, (1.0, math.sqrt(2.0)), (16, 12))
    cube = TorusGeometry(3, (1.0, 1.0, 1.0), (8, 8, 8))
    cases = [
        ([random_shell_field(skew, N, rng) for N in (4, 2, 8)], 0.7, 5),
        ([random_shell_field(skew, 2, rng) for _ in range(3)], 0.3, 1),  # one time, t = -T
        ([random_shell_field(cube, N, rng) for N in (2, 4, 2)], 0.9, 3),
    ]
    for phis, T, nt in cases:
        got = _trilinear_samples(phis, 0.25, T, nt)
        want = _direct_trilinear_samples(phis, 0.25, T, nt)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_trilinear_identical_factors_take_one_transform(monkeypatch):
    geom = TorusGeometry(2, (1.0, math.sqrt(2.0)), (16, 12))
    ones = shell_extremizer_field(geom, 2, "ones")
    T, nt = 0.5, 3
    calls = []
    real_ifft = np.fft.ifft

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return real_ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    shared = _trilinear_samples([ones] * 3, 0.25, T, nt)
    # one field per transform; the first axis skips the all-zero columns; the
    # field is real, so only the first half of the time grid is evaluated
    assert calls == [(1, 1, 48, 12), (1, 1, 48, 36)] * ((nt + 1) // 2)
    calls.clear()
    # three copies are three fields of one pass: one transform per axis a time
    copies = _trilinear_samples([ones.copy() for _ in range(3)], 0.25, T, nt)
    assert calls == [(1, 3, 48, 12), (1, 3, 48, 36)] * ((nt + 1) // 2)
    monkeypatch.undo()
    want = _direct_trilinear_samples([ones] * 3, 0.25, T, nt)
    assert np.all(np.abs(shared - copies) <= 1e-12 * shared)
    assert np.all(np.abs(shared - want) <= 1e-12 * want)
    # a single time sample has no trapezoid width
    assert _trilinear_ratio([ones] * 3, 0.25, 0.3, 1.0, 1) == 0.0


def test_trilinear_samples_mirror_only_real_data(monkeypatch):
    # real-valued factors take the first ceil(nt/2) times of the symmetric
    # grid and mirror the rest; any non-real factor, a Nyquist-plane mode
    # (its own conjugate mirror, but not real) or one perturbed coefficient
    # of a real field takes every time.  The distinct factors are one pass.
    evaluated, real = [], bench_module._free_samples

    def spy(fields, pad, t0, dt, nt, *args):
        evaluated.append((len(fields), nt))
        return real(fields, pad, t0, dt, nt, *args)

    monkeypatch.setattr(bench_module, "_free_samples", spy)
    rng = np.random.default_rng(11)
    for d in (2, 3):
        for thetas in ((1.0,) * d, (1.0, math.sqrt(2.0), 1.0)[:d]):
            geom = TorusGeometry(d, thetas, (8,) * d)
            ones = shell_extremizer_field(geom, 2, "ones")
            herm = [f + conjugate(f) for f in (random_shell_field(geom, 2, rng) for _ in range(3))]
            assert all(np.array_equal(conjugate(f).coeffs, f.coeffs) for f in herm)
            perturbed = herm[0].copy()
            peak = np.unravel_index(np.argmax(np.abs(perturbed.coeffs)), geom.grid)
            perturbed.coeffs[peak] += 1e-3j
            nyquist = ones + 0.5 * mode_field(geom, (-4,) + (0,) * (d - 1))
            cases = [([ones] * 3, True), (herm, True), ([ones, herm[1], ones], True),
                     (herm[:2] + [random_shell_field(geom, 2, rng)], False),
                     ([nyquist] * 3, False), ([perturbed] + herm[1:], False)]
            for phis, mirrored in cases:
                for nt in (1, 2, 3, 16, 17):
                    evaluated.clear()
                    got = _trilinear_samples(phis, 0.25, 0.4, nt)
                    distinct = len({id(f) for f in phis})
                    assert evaluated == [(distinct, (nt + 1) // 2 if mirrored else nt)]
                    want = _direct_trilinear_samples(phis, 0.25, 0.4, nt)
                    assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("d, M, N", [(2, 64, 16), (3, 16, 4)])
def test_trilinear_samples_sum_blocks_in_the_product_buffer(d, M, N):
    # the `ones` row holds one pass's transform buffers, the product and
    # the Re^2 + Im^2 weights of one bincount: a peak of 3.84 (d=2) and 3.62
    # (d=3) padded complex128 grids, against 4.46 and 4.15 with separate
    # Re^2 and Im^2 buffers
    geom = TorusGeometry(d, (1.0,) * d, (M,) * d)
    ones = [shell_extremizer_field(geom, N, "ones")] * 3
    grid = 16 * geom.padded(3).npoints
    _trilinear_samples(ones, 0.25, 1.0, 1)  # the cached bins are not the kernel's
    tracemalloc.start()
    try:
        _trilinear_samples(ones, 0.25, 1.0, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * grid, peak / grid


def test_bench_trilinear_rows_are_pinned():
    # the sampling passes and the block sums keep every bit of the rows
    rows = bench_trilinear(2, 0.25, 0.3, [2, 4, 8], 2, 0).rows
    assert [repr(r) for r in rows] == ["(2, 2, 2, 0.2404464170393082)",
                                       "(4, 4, 4, 0.22703210208493474)",
                                       "(8, 8, 8, 0.19015775830914747)"]
    rows = bench_trilinear(3, 0.25, None, [2, 4], 1, 0).rows
    assert [repr(r) for r in rows] == ["(2, 2, 2, 0.058509554477828775)",
                                       "(4, 4, 4, 0.07311773375057495)"]


def test_trilinear_ratio_of_a_random_row_is_pinned():
    # the bench pins above are all `ones` rows; this is a row of three
    # distinct random factors on a rectangular torus, one pass of three fields
    geom = TorusGeometry(2, (1.0, math.sqrt(2.0)), (16, 12))
    rng = np.random.default_rng(4)
    phis = [random_shell_field(geom, N, rng) for N in (2, 4, 2)]
    assert repr(_trilinear_ratio(phis, 0.25, 0.3, 1.0, 17)) == "0.05408405296334417"


def test_extremizer_time_grids_keep_their_rules_at_large_blocks(monkeypatch):
    # the `ones` rows take 2 N^2 + 1 trilinear nodes at N=64, where a cap
    # once gave 2049, and the even Strichartz rows 2 N^2 at N=128, where a
    # cap once gave 8192; the spies sample nothing
    nts = []
    monkeypatch.setattr(bench_module, "_trilinear_ratio",
                        lambda phis, eta, zeta, T, nt: nts.append(nt) or 1.0)
    bench_trilinear(2, 0.25, 0.3, [64], trials=1, seed=0)
    assert nts == [bench_module.TRILINEAR_NT, 2 * 64 ** 2 + 1]
    nts.clear()
    monkeypatch.setattr(bench_module, "_spacetime_lp_mean", lambda f, p, nt: nts.append(nt) or 1.0)
    bench_strichartz(1, 8.0, [128], trials=1, seed=0)
    assert nts == [bench_module.STRICHARTZ_RANDOM_NT] + [2 * 128 ** 2] * 3


def test_bench_trilinear_validation():
    with pytest.raises(ValueError):
        bench_trilinear(2, 0.5, 0.3, [2], 1, 0)  # eta > zeta0
    with pytest.raises(ValueError):
        bench_trilinear(2, 0.25, 0.2, [2], 1, 0)  # zeta <= zeta0
    with pytest.raises(ValueError):
        bench_trilinear(4, 0.25, 1.1, [2], 1, 0)  # d must be 2 or 3
    for T in (0.0, -1.0, math.inf, math.nan):  # empty, reversed or unbounded
        with pytest.raises(ValueError, match="need T > 0 and finite"):
            bench_trilinear(2, 0.25, 0.3, [2], 1, 0, T=T)


def test_bench_trilinear_small_run(monkeypatch):
    factors = []
    real_ratio = bench_module._trilinear_ratio

    def spy(phis, *args):
        factors.append(phis)
        return real_ratio(phis, *args)

    monkeypatch.setattr(bench_module, "_trilinear_ratio", spy)
    monkeypatch.setattr(bench_module, "TRILINEAR_NT", 5)
    rep = bench_trilinear(2, 0.25, 0.3, [2, 4], trials=1, seed=0)
    assert [r[:3] for r in rep.rows] == [(2, 2, 2), (4, 4, 4)]
    assert all(r[3] > 0 for r in rep.rows)
    assert math.isnan(rep.slope)  # only two levels, no fit
    # per block: one random call, then the `ones` field built once
    for rand, ones in (factors[0:2], factors[2:4]):
        assert len({id(f) for f in rand}) == 3
        assert len({id(f) for f in ones}) == 1


def test_bench_cubic_product_small_run():
    rep = bench_cubic_product(2, 0.7, (2, 4, 8), trials=2, seed=0)
    assert math.isfinite(rep.slope)
    with pytest.raises(ValueError):
        bench_cubic_product(2, 0.5, (2, 4, 8), 1, 0)  # alpha <= alpha0 = 7/12


def test_bench_sobolev_product_small_run():
    rep = bench_sobolev_product(2, 0.6, 0.6, 0.05, (2, 4, 8), trials=2, seed=0, rho_tri=0.8)
    assert [r[:3] for r in rep.rows] == [(form, N, N) for N in (2, 4, 8)
                                         for form in ("bilinear", "trilinear")]
    assert math.isfinite(rep.slope)
    # the slope fits the bilinear rows alone
    bilinear = [(r[1], r[3]) for r in rep.rows if r[0] == "bilinear"]
    assert rep.slope == fit_exponent(bilinear)[0]
    with pytest.raises(ValueError):
        bench_sobolev_product(2, 1.5, 0.6, 0.05, [2], 1, 0)
    with pytest.raises(ValueError):
        bench_sobolev_product(2, 0.6, 0.6, 0.05, [2], 1, 0, rho_tri=0.4)
    # no extremizer rows: without trials there is nothing to measure
    with pytest.raises(ValueError, match="trials"):
        bench_sobolev_product(2, 0.6, 0.6, 0.05, [2], 0, 0)


def test_bench_sobolev_embedding_small_run():
    rep = bench_sobolev_embedding(2, 4.0, 0.6, (2, 4, 8), trials=4, seed=0)
    assert [r[:2] for r in rep.rows] == [(part, N) for N in (2, 4, 8) for part in "ab"]
    # above the endpoint the primal ratios stay bounded: small fitted slope
    assert rep.slope < 0.3
    # the slope fits the primal rows alone
    assert rep.slope == fit_exponent([(r[1], r[2]) for r in rep.rows if r[0] == "a"])[0]
    with pytest.raises(ValueError):
        bench_sobolev_embedding(2, 4.0, 0.5, (2, 4, 8))  # endpoint s = d/2 - d/p
    with pytest.raises(ValueError):
        bench_sobolev_embedding(2, 1.5, 0.6, (2, 4, 8))
