"""Factorized density matrices: collisions, evolution, trace norms,
and the mild-hierarchy residual."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nlslab import hierarchy as hierarchy_module
from nlslab import torus as torus_module
from nlslab.hierarchy import (
    FactorizedDensityMatrix,
    RankBudgetError,
    collision_full,
    collision_single,
    default_zeta,
    dense_kernel,
    dense_trace_norm,
    hierarchy_defect_matrix,
    hierarchy_duhamel_residual,
    hierarchy_free_evolve,
    tensor_power,
    trace_norm,
    trace_norms,
)
from nlslab.solver import plane_wave_trajectory, simpson_weights, solve_nls
from nlslab.torus import (
    SpectralField,
    TorusGeometry,
    conjugate,
    field_from_samples,
    field_samples,
    l2_norm,
    mode_field,
    pointwise_product,
    random_shell_field,
    sobolev_norm,
    truncate_field,
)

GEOM = TorusGeometry(1, (1.0,), (8,))
GEOM32 = TorusGeometry(1, (1.0,), (32,))


def _rand(geom, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(geom.grid) + 1j * rng.standard_normal(geom.grid)
    return SpectralField(geom, c)


def test_tensor_power_trace_norm_is_squared_l2():
    phi = _rand(GEOM, 0)
    for k in (1, 2, 3):
        gamma = tensor_power(phi, k)
        assert abs(trace_norm(gamma) - l2_norm(phi) ** (2 * k)) < 1e-10 * l2_norm(phi) ** (2 * k)


def _near_cancelling_list(k, seed):
    # four terms minus copies whose first ket factor moved by 1e-9
    # relative, plus three generic terms
    rng = np.random.default_rng(seed)

    def fields(n):
        return tuple(_rand(GEOM, rng.integers(1 << 30)) for _ in range(n))

    terms = []
    for _ in range(4):
        c = complex(rng.standard_normal(), rng.standard_normal())
        kets, bras = fields(k), fields(k)
        moved = SpectralField(GEOM, kets[0].coeffs * (1 + 1e-9 * rng.standard_normal(8)))
        terms += [(c, kets, bras), (-c, (moved,) + kets[1:], bras)]
    for _ in range(3):
        terms.append((complex(rng.standard_normal(), rng.standard_normal()),
                      fields(k), fields(k)))
    return FactorizedDensityMatrix(k, terms)


def test_trace_norm_matches_dense_oracle():
    # random multi-term operators against the dense-SVD oracle
    for seed in range(4):
        terms = []
        rng = np.random.default_rng(100 + seed)
        for _ in range(3):
            c = complex(rng.standard_normal(), rng.standard_normal())
            terms.append((c, (_rand(GEOM, rng.integers(1 << 30)),) * 2,
                          (_rand(GEOM, rng.integers(1 << 30)),) * 2))
        gamma = FactorizedDensityMatrix(2, terms)
        a = trace_norm(gamma)
        b = dense_trace_norm(gamma)
        assert abs(a - b) < 1e-8 * max(1.0, b)
    # and under near cancellation between terms, to 1e-10 relative
    for k in (1, 2, 3):
        for seed in range(3):
            gamma = _near_cancelling_list(k, 10 * k + seed)
            a, b = trace_norm(gamma), dense_trace_norm(gamma)
            assert abs(a - b) < 1e-10 * b, (k, seed, a, b)
    # collision defects on the 8-point circle, and the halves of a collision
    # in which the k kets, or the k bras, of one coefficient add
    traj = solve_nls(random_shell_field(GEOM, 2, 5), 0.1, 0.01)
    for k in (1, 2, 3):
        coll = collision_full(tensor_power(traj.states[4], k + 1))
        for gamma in (hierarchy_defect_matrix(traj, k, 10),
                      FactorizedDensityMatrix(k, coll.terms[0::2]),
                      FactorizedDensityMatrix(k, coll.terms[1::2])):
            a, b = trace_norm(gamma), dense_trace_norm(gamma)
            assert abs(a - b) < 1e-10 * b, (k, gamma.rank, a, b)


def _shared_last_factor_list(geom, k, seed):
    # a ket sum and a bra sum whose products share last factors, and whose
    # prefixes share theirs one level down; the ket sum holds (.., a, b, d)
    # twice, the second time through a byte-equal copy of a
    rng = np.random.default_rng(seed)
    a, b, c, d = (_rand(geom, rng.integers(1 << 30)) for _ in range(4))
    copy = SpectralField(geom, a.coeffs.copy())
    pre = (c,) * (k - 3)

    def coeff():
        return complex(rng.standard_normal(), rng.standard_normal())

    c1, c2, bra = coeff(), coeff(), (d, b) + pre + (a,)
    kets = [pre + p for p in ((a, b, d), (b, a, d), (c, a, d), (a, b, c), (copy, b, d))]
    bras = [pre + p for p in ((a, c, b), (c, a, b), (b, b, b), (a, c, d))]
    return FactorizedDensityMatrix(k, [(c1, ket, bra) for ket in kets]
                                   + [(c2, (b,) * k, br) for br in bras]
                                   + [(coeff(), (a, d) + pre + (c,), (b, c) + pre + (d,))])


def test_horner_factored_sides_match_dense_oracle():
    # k = 4 on the 6-point circle: its dense kernel has 6^4 rows, against
    # 8^4 on the 8-point circle, whose SVD alone takes half a minute
    for k, geom in ((3, GEOM), (4, TorusGeometry(1, (1.0,), (6,)))):
        for seed in range(2):
            gamma = _shared_last_factor_list(geom, k, 10 * k + seed)
            a, b = trace_norm(gamma), dense_trace_norm(gamma)
            assert abs(a - b) < 1e-10 * b, (k, seed, a, b)


# the residual's weight exponent on the circle
ALPHA = -default_zeta(1)


def _checkpoint_defects(k):
    # two checkpoints of one trajectory, weighted by ALPHA in the residual:
    # many stored times make the columns numerically rank-deficient
    traj = solve_nls(random_shell_field(GEOM32, 2, 2), 0.2, 0.004, coupling=-1.0)
    return [hierarchy_defect_matrix(traj, k, m) for m in (25, 50)]


def _term_mass(gamma, alpha):
    # the term mass of S^{(k,alpha)} gamma S^{(k,alpha)}
    return sum(abs(c) * np.prod([sobolev_norm(f, alpha) for f in kets + bras])
               for c, kets, bras in gamma.terms)


def test_truncated_and_untruncated_coordinates_agree(monkeypatch):
    for k in (1, 2, 3):
        gammas = _checkpoint_defects(k)
        truncated = trace_norms(gammas, ALPHA)
        rank = hierarchy_module._reduced_matrices(gammas, ALPHA)[0].shape[0]
        monkeypatch.setattr(hierarchy_module, "TRUNCATION", 0.0)
        full = trace_norms(gammas, ALPHA)
        if k > 1:
            assert hierarchy_module._reduced_matrices(gammas, ALPHA)[0].shape[0] > rank
        monkeypatch.undo()
        for a, b, g in zip(truncated, full, gammas):
            assert abs(a - b) <= 1e-14 * _term_mass(g, ALPHA), (k, a, b)


def _weighted_factors(gammas, alpha):
    # S^{(k,alpha)} applied to the factors themselves: each becomes its
    # coefficients times the H^{alpha/2} weight, once per object in each list
    out = []
    for g in gammas:
        w = torus_module._sobolev_weight(g.geometry, alpha / 2)
        weigh = hierarchy_module._once_per_object(
            lambda f, w=w: SpectralField(f.geometry, f.coeffs * w))
        out.append(FactorizedDensityMatrix(g.order, [
            (c, tuple(map(weigh, kets)), tuple(map(weigh, bras))) for c, kets, bras in g.terms]))
    return out


def test_weighted_trace_norms_are_those_of_weighted_factors():
    # the weight scales the factor stack's rows before sqrt(vol): the same
    # rounding as weighting every factor first, so the norms agree bit for bit
    for k in (1, 2, 3):
        gammas = _checkpoint_defects(k)
        for alpha in (ALPHA, 0.7):
            assert trace_norms(gammas, alpha) == trace_norms(_weighted_factors(gammas, alpha))


def test_last_stage_reduces_each_summed_side_once(monkeypatch):
    # the k collision terms of a stored time share a coefficient and the bra
    # (B, B, B), and their partners the negated coefficient and that ket, so
    # the last stage reduces 2 columns per stored time: the summed side and
    # (B, B, B); the tensor powers of phi0 and U(-t_m) phi(t_m) are the
    # (B, B, B) of stored times 0 and m
    widths = []

    def spy(T, V, khatri_rao_rows=hierarchy_module._khatri_rao_rows):
        widths.append(np.shape(T)[-1])
        return khatri_rao_rows(T, V)

    monkeypatch.setattr(hierarchy_module, "_khatri_rao_rows", spy)
    trace_norms(_checkpoint_defects(3), ALPHA)
    assert widths[-1] == 2 * 51


def test_stage1_reduces_two_prefix_sums_per_stored_time(monkeypatch):
    # Horner's rule on the collision sum (B, phi, phi) + (phi, B, phi) +
    # (phi, phi, B) of a stored time: the last stage adds
    # ((B, phi) + (phi, B)) (x) phi and (phi, phi) (x) B, so stage 1 reduces
    # the prefix sums (phi, phi) and (B, phi) + (phi, B), not the 3 distinct
    # prefixes, and no column of either stage has more than 2 summands
    shapes = []

    def spy(T, V, khatri_rao_rows=hierarchy_module._khatri_rao_rows):
        shapes.append(np.shape(T))
        return khatri_rao_rows(T, V)

    traj = solve_nls(random_shell_field(GEOM32, 2, 2), 0.2, 0.004, coupling=-1.0)
    m = 25
    gamma = hierarchy_defect_matrix(traj, 3, m)
    monkeypatch.setattr(hierarchy_module, "_khatri_rao_rows", spy)
    trace_norm(gamma)
    # the factors, then stage 1 and the last stage: (summands, rows, columns)
    assert len(shapes) == 3
    assert shapes[1][0] == 2 and shapes[1][2] == 2 * (m + 1)
    assert shapes[2][0] <= 2 and shapes[2][2] == 2 * (m + 1)


def test_trace_norms_peak_memory():
    # the k = 3 checkpoints peak at 6.9 MiB when every product is its own
    # column of the last stage, at 3.2 MiB with summed sides, at 1.8 MiB
    # with the summed sides factored by their last factors, and at 1.39 MiB
    # with each stage's blocks factored in place in one stack
    gammas = _checkpoint_defects(3)
    tracemalloc.start()
    try:
        trace_norms(gammas, ALPHA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2 ** 20, peak / 2 ** 20


def _reference_khatri_rao_rows(T, V):
    # the blocked QR through np.concatenate and np.linalg.qr(mode="r") that
    # the in-place factorization of one stack replaced, in the same blocks
    R = T[0].shape[1]
    step = max(1, 2 * R // max(1, len(V[0])))

    def block(a):
        rows = T[0][a:a + step, None, :] * V[0][None, :, :]
        for t, v in zip(T[1:], V[1:]):
            rows += t[a:a + step, None, :] * v[None, :, :]
        return rows.reshape(-1, R)

    acc = np.zeros((0, R), dtype=np.complex128)
    for a in range(0, len(T[0]), step):
        acc = np.linalg.qr(np.concatenate([acc, block(a)]), mode="r")
    _, s, wh = np.linalg.svd(acc, full_matrices=False)
    keep = s > hierarchy_module.TRUNCATION * s.max(initial=0.0)
    return s[keep, None] * wh[keep]


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("nT, nV, R, summands", [
    (50, 7, 20, 1),    # tall: blocks of 5 rows of T, the last one of 0 + 5
    (47, 7, 20, 2),    # tall, a partial last block of 2 rows of T
    (40, 9, 150, 2),   # R past the 128 columns where zgeqrf factors in blocks
    (13, 3, 60, 1),    # wide: 39 rows under 60 columns, one block
    (13, 3, 60, 2),
    (5, 100, 30, 2),   # blocks of one row of T, each wider than R
    (400, 1, 30, 1),   # the factor stage: V one row of ones, 7 blocks
    (40, 1, 30, 1),    # the factor stage with fewer rows than 2R
])
def test_khatri_rao_rows_in_place_match_the_concatenated_qr(nT, nV, R, summands):
    # zgeqrf on the stack, with np.linalg.qr's lwork, is np.linalg.qr bit
    # for bit; this also guards numpy's private lapack_lite binding
    rng = np.random.default_rng(nT * nV + R + summands)
    T = [_complex(rng, nT, R) for _ in range(summands)]
    V = [np.ones((1, R))] if nV == 1 else [_complex(rng, nV, R) for _ in range(summands)]
    want = _reference_khatri_rao_rows(T, V)
    got = hierarchy_module._khatri_rao_rows(T, V)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_trace_norms_match_the_concatenated_qr(monkeypatch):
    for k in (1, 2, 3):
        gammas = _checkpoint_defects(k)
        got = trace_norms(gammas, ALPHA)
        monkeypatch.setattr(hierarchy_module, "_khatri_rao_rows", _reference_khatri_rao_rows)
        assert got == trace_norms(gammas, ALPHA), k
        monkeypatch.undo()


def test_khatri_rao_rows_peak_memory():
    # the shapes of the R = 502 last stage of `verify hierarchy --k 3` at
    # dt = 2e-3: two summands, 87 rows of T over 32 of V, so blocks of 31
    # rows of T stacked under the R-factor.  Its stack of (R + 31 * 32) x R
    # complex128 is 11.4 MiB; on these full-rank rows the stage peaks at
    # 1.36 times that, the stack and the R-factor copied out of it, against
    # 2.69 times through np.concatenate and np.linalg.qr
    rng = np.random.default_rng(502)
    R, nT, nV = 502, 87, 32
    T = [_complex(rng, nT, R) for _ in range(2)]
    V = [_complex(rng, nV, R) for _ in range(2)]
    stack = (R + (2 * R // nV) * nV) * R * 16
    tracemalloc.start()
    try:
        hierarchy_module._khatri_rao_rows(T, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * stack, peak / stack


def test_trace_norms_reject_mixed_orders_and_geometries():
    geom = TorusGeometry(1, (1.0,), (16,))
    other = TorusGeometry(1, (2.0,), (16,))
    unit = 1 / np.sqrt(2 * np.pi)  # unit L2 norm on the torus of theta 1
    phi, psi = unit * mode_field(geom, (1,)), unit * mode_field(geom, (2,))
    # orders 1 and 2 in one basis read [4.0, 9.0] (not 81.0 for the
    # second), and raised IndexError in the other order
    for gammas in ([tensor_power(2 * phi, 1), tensor_power(3 * psi, 2)],
                   [tensor_power(3 * psi, 2), tensor_power(2 * phi, 1)]):
        with pytest.raises(ValueError, match="orders"):
            trace_norms(gammas)
    # lists on tori of theta 1 and 2 read [1.0, 1.0] through the first
    # one's volume; the second alone reads 0.5
    wave = unit * mode_field(other, (1,))
    assert trace_norms([tensor_power(wave, 1)]) == pytest.approx([0.5])
    with pytest.raises(torus_module.GeometryMismatchError):
        trace_norms([tensor_power(phi, 1), tensor_power(wave, 1)])
    # and a term with its ket on one torus and its bra on the other
    with pytest.raises(torus_module.GeometryMismatchError):
        trace_norm(FactorizedDensityMatrix(1, [(1.0, (phi,), (wave,))]))


def test_dense_kernel_is_one_product_of_the_stacked_terms():
    # the oracle kernel of a 2-term order-4 list on the 6-point circle peaks
    # at 1.01 times its own bytes, against 2.01 when a dense outer product
    # was added per term; the entries agree with that per-term sum
    geom = TorusGeometry(1, (1.0,), (6,))
    f = [_rand(geom, seed) for seed in range(4)]
    gamma = FactorizedDensityMatrix(4, [(0.7 - 0.2j, tuple(f), tuple(f[::-1])),
                                        (-1.3, (f[1],) * 4, (f[2], f[0], f[0], f[3]))])
    tracemalloc.start()
    try:
        K = dense_kernel(gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * K.nbytes, peak / K.nbytes
    want = 0
    for c, kets, bras in gamma.terms:
        kv = bv = np.ones(1)
        for g in kets:
            kv = np.kron(kv, g.coeffs.ravel())
        for g in bras:
            bv = np.kron(bv, g.coeffs.ravel())
        want = want + c * np.outer(kv, bv.conj())
    assert np.abs(K - want).max() < 1e-13 * np.abs(want).max()


def test_defect_norms_weight_the_shared_integrand_once():
    # the four checkpoint defects of k = 1 on the 16^3 torus share the
    # integrand's factors, and the factor stack weights each distinct one:
    # the peak is 2.33 times the integrand's coefficient bytes, against 4.91
    # with a weighted copy of the integrand per defect
    geom = TorusGeometry(3, (1.0, 1.0, 1.0), (16, 16, 16))
    traj = solve_nls(random_shell_field(geom, 2, 0), 0.2, 4e-3)
    M = len(traj.times) - 1
    integrand = hierarchy_module._pulled_back_collisions(traj, 1, M)
    factors = {id(f): f.coeffs.nbytes
               for g in integrand for _, kets, bras in g.terms for f in kets + bras}
    tracemalloc.start()
    try:
        hierarchy_module._defect_norms(traj, 1, {int(round(i * M / 4)) for i in range(1, 5)},
                                       integrand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * sum(factors.values()), peak / sum(factors.values())


def test_factor_coordinates_hold_no_copy_past_the_stack():
    # the factors' coordinates come from the blocked QR of their stack, and
    # the distinct factors are found by a digest of their bytes, read in
    # place: 60 terms over 40 full-band factors on the 16^3 torus, their
    # bras byte-equal copies of their kets' factors, peak at 1.09 times the
    # factors' coefficient bytes; byte keys copied each factor once more
    # (2.09 times), and a full SVD of a joined copy of the keys peaked at
    # 4.05 times, with that SVD's value
    geom = TorusGeometry(3, (1.0, 1.0, 1.0), (16, 16, 16))
    fs = [_rand(geom, seed) for seed in range(40)]
    copies = [SpectralField(geom, f.coeffs.copy()) for f in fs]
    cs = _rand(TorusGeometry(1, (1.0,), (60,)), 40).coeffs
    gamma = FactorizedDensityMatrix(
        1, [(complex(cs[i]), (fs[i % 40],), (copies[7 * i % 40],)) for i in range(60)])
    tracemalloc.start()
    try:
        value = trace_norm(gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sum(f.coeffs.nbytes for f in fs), peak
    assert abs(value - 115542524.80624637) <= 1e-12 * value
    shared = FactorizedDensityMatrix(
        1, [(complex(cs[i]), (fs[i % 40],), (fs[7 * i % 40],)) for i in range(60)])
    assert trace_norm(shared) == value


def test_trace_norms_share_one_basis_and_match_single_calls():
    for k in (2, 3):
        gammas = _checkpoint_defects(k)
        together = trace_norms(gammas, ALPHA)
        assert len(together) == 2
        for a, g in zip(together, gammas):
            assert abs(a - trace_norms([g], ALPHA)[0]) <= 1e-14 * _term_mass(g, ALPHA)
    assert trace_norms([FactorizedDensityMatrix(2, [])]) == [0.0]


def test_order3_cancellation_past_the_old_size_switch():
    # 300 terms on 32 points (300 * 32^3 > 2^23) minus the same operator
    # with every first factor turned by a phase: trace norm 0
    rng = np.random.default_rng(12)
    terms, turned = [], []
    for _ in range(300):
        c = complex(rng.uniform(0.5, 1.5))
        fs = tuple(_rand(GEOM32, rng.integers(1 << 30)) for _ in range(3))
        terms.append((c, fs, fs))
        turned_fs = (fs[0] * np.exp(1j * rng.uniform(0, 2 * np.pi)),) + fs[1:]
        turned.append((-c, turned_fs, turned_fs))
    gamma = FactorizedDensityMatrix(3, terms)
    assert trace_norm(FactorizedDensityMatrix(3, terms + turned)) < 1e-12 * trace_norm(gamma)


def test_trace_identity_weighted():
    # Tr |S^{(k,s)} (|phi><phi|)^{(x) k}| = ||phi||_{H^s}^{2k}
    phi = _rand(GEOM, 2)
    for k in (1, 2, 3):
        for s in (0.0, 0.5, 1.0):
            lhs = trace_norms([tensor_power(phi, k)], s)[0]
            rhs = sobolev_norm(phi, s) ** (2 * k)
            assert abs(lhs - rhs) < 1e-10 * rhs


def test_collision_single_matches_dense_contraction():
    """Oracle: B_{1,2} gamma(x1;x1') = int [gamma(x1,y;x1',y) - c.c.-swap] dy
    contracted on the dense kernel grid."""
    # band-limited factors so the collision products stay inside the base
    # band and the truncated factorized route is exact
    geom = GEOM32
    f1, f2 = random_shell_field(geom, 2, 3), random_shell_field(geom, 2, 4)
    g1, g2 = random_shell_field(geom, 2, 5), random_shell_field(geom, 2, 6)
    gamma = FactorizedDensityMatrix(2, [(1.0 + 0.5j, (f1, f2), (g1, g2))])
    out = collision_single(gamma, 1)
    # dense oracle: kernel on the sample grid
    n = geom.npoints
    w = geom.volume / n  # quadrature weight for the y-integral
    F1, F2 = field_samples(f1), field_samples(f2)
    G1, G2 = field_samples(g1), field_samples(g2)
    c = 1.0 + 0.5j
    # delta(x1 - y) delta(x1 - y') minus delta(x1' - y) delta(x1' - y')
    lhs = c * np.outer(F1 * (F2 * np.conj(G2)), np.conj(G1)) - c * np.outer(
        F1, np.conj(G1 * (G2 * np.conj(F2)))
    )
    # factorized result sampled on the same grid
    rhs = np.zeros((n, n), dtype=np.complex128)
    for cc, kets, bras in out.terms:
        rhs += cc * np.outer(field_samples(kets[0]), np.conj(field_samples(bras[0])))
    # band-limited fields: products leave the base band, compare after
    # projecting the oracle to the grid band by sampling both on it
    assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(lhs).max()


def test_collision_full_is_sum_over_slots():
    phi = _rand(GEOM, 7)
    gamma = tensor_power(phi, 3)
    full = collision_full(gamma)
    assert full.order == 2
    assert full.rank == 2 * 2  # 2 slots x 2 terms each
    parts = [collision_single(gamma, j) for j in (1, 2)]
    K_full = dense_kernel(full)
    K_sum = dense_kernel(parts[0]) + dense_kernel(parts[1])
    assert np.abs(K_full - K_sum).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_collision_full_forms_each_distinct_product_once(monkeypatch, k):
    # on a tensor power the ket and bra contractions are one product, in
    # which phi and its conjugate share one transform, and the slot products
    # of every j are one more: three padded inverse FFTs for every k
    calls = []
    samples = torus_module.field_samples
    monkeypatch.setattr(torus_module, "field_samples",
                        lambda f, big: calls.append(big) or samples(f, big))
    coll = collision_full(tensor_power(_rand(GEOM, 12), k + 1))
    assert calls == [GEOM.padded(2)] * 3
    assert coll.rank == 2 * k


def test_collision_contracts_through_the_sample_conjugate():
    # phi fills every mode, its Nyquist mode included: the contraction
    # phi conj(phi) is the pad-2 sample-space |phi|^2 on the base band, the
    # conjugate cubic_field takes, not the product with conjugate(phi)
    phi = _rand(GEOM, 21)
    big = GEOM.padded(2)
    s = field_samples(truncate_field(phi, big))
    density = truncate_field(field_from_samples(big, np.abs(s) ** 2), GEOM)
    (_, kets, _), (_, _, bras) = collision_single(tensor_power(phi, 2), 1).terms
    want = pointwise_product(phi, density).coeffs
    assert np.abs(kets[0].coeffs - want).max() < 1e-12 * np.abs(want).max()
    assert np.abs(bras[0].coeffs - want).max() < 1e-12 * np.abs(want).max()
    other = pointwise_product(phi, pointwise_product(phi, conjugate(phi))).coeffs
    assert np.abs(other - want).max() > 1e-2 * np.abs(want).max()


def test_collision_full_is_the_concatenation_of_its_slots():
    # factor objects shared between slots and terms, and two terms whose
    # last ket and bra are the same object
    a, b, c = (_rand(GEOM, seed) for seed in (13, 14, 15))
    gamma = FactorizedDensityMatrix(3, [(1.0 + 0.5j, (a, b, a), (b, a, c)),
                                        (-0.3j, (b, b, c), (a, c, c)),
                                        (2.0 + 0.0j, (a, a, a), (a, a, a))])
    full = collision_full(gamma)
    parts = [t for j in (1, 2) for t in collision_single(gamma, j).terms]
    assert len(full.terms) == len(parts) == 12
    for (c1, kets1, bras1), (c2, kets2, bras2) in zip(full.terms, parts):
        assert c1 == c2
        for f, g in zip(kets1 + bras1, kets2 + bras2):
            assert np.array_equal(f.coeffs, g.coeffs)


# tori with unequal sides in d = 1, 2 on grids of 4 to 8 points per axis
_GEOMETRIES = st.builds(lambda d, thetas, grid: TorusGeometry(d, thetas[:d], grid[:d]),
                        st.integers(1, 2), st.tuples(*[st.floats(0.5, 1.5)] * 2),
                        st.tuples(*[st.sampled_from((4, 6, 8))] * 2))


def _is_hermitian(K):
    return np.abs(K - K.conj().T).max() <= 1e-12 * np.abs(K).max()


@settings(max_examples=25, deadline=None)
@given(geom=_GEOMETRIES, k=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_collision_is_anti_hermitian(geom, k, seed):
    # the delta-difference kernel is anti-Hermitian on Hermitian input, so
    # i B gamma (the combination entering the hierarchy) is Hermitian; the
    # dense oracle bounds n^(k+1), which leaves out d = 2 with k = 2
    assume(geom.npoints ** (k + 1) <= 1296)
    gamma = tensor_power(_rand(geom, seed), k + 1)
    assert _is_hermitian(dense_kernel(gamma))
    coll = collision_full(gamma)
    assert not _is_hermitian(dense_kernel(coll))
    rotated = FactorizedDensityMatrix(k, [(1j * c, k_, b_) for c, k_, b_ in coll.terms])
    assert _is_hermitian(dense_kernel(rotated))


@settings(max_examples=25, deadline=None)
@given(geom=_GEOMETRIES, seed=st.integers(0, 2 ** 32 - 1))
def test_conjugate_is_an_involution(geom, seed):
    # conjugate is the sample-space conjugate on the base grid; any index
    # reversal is an involution, so the samples pin which one it is
    f = _rand(geom, seed)
    g = conjugate(f)
    assert np.array_equal(conjugate(g).coeffs, f.coeffs)
    err = np.abs(field_samples(g) - np.conj(field_samples(f))).max()
    assert err < 1e-12 * np.abs(f.coeffs).sum()


def test_free_evolution_is_isospectral():
    phi = _rand(GEOM, 9)
    gamma = tensor_power(phi, 2)
    evolved = hierarchy_free_evolve(gamma, 0.37)
    assert abs(trace_norm(evolved) - trace_norm(gamma)) < 1e-10
    back = hierarchy_free_evolve(evolved, -0.37)
    assert np.abs(dense_kernel(back) - dense_kernel(gamma)).max() < 1e-12


def test_sobolev_op_conventions():
    # S^{(1,alpha)} multiplies the lambda = 4 mode by (1 + 16)^{alpha/4} on
    # each side, so its rank-one trace norm is vol (1 + 16)^{alpha/2}
    phi = mode_field(GEOM, (2,))
    for alpha in (1.0, -0.35):
        expect = GEOM.volume * (1.0 + 16.0) ** (alpha / 2)
        assert abs(trace_norms([tensor_power(phi, 1)], alpha)[0] - expect) < 1e-12 * expect
    # the shared H^{alpha/2} weight is bit for bit the alpha/4 power
    lam = torus_module._freq_sq(GEOM)
    for alpha in (1.0, -0.35, 0.7, -1.1):
        want = (1.0 + lam ** 2) ** (alpha / 4.0)
        assert np.array_equal(torus_module._sobolev_weight(GEOM, alpha / 2), want)


def test_rank_budget_enforced(monkeypatch):
    # the defect at k = 3, m = 2 has 2 + 3 * 2k = 20 terms: a budget of 19
    # refuses it before any collision is built; at 20 the build starts
    monkeypatch.setattr(hierarchy_module, "collision_full", None)
    traj = solve_nls(random_shell_field(GEOM32, 2, 3), 0.02, 0.01)
    monkeypatch.setattr(hierarchy_module, "DEFAULT_RANK_BUDGET", 19)
    with pytest.raises(RankBudgetError, match="needs 20 terms"):
        hierarchy_defect_matrix(traj, 3, 2)
    monkeypatch.setattr(hierarchy_module, "DEFAULT_RANK_BUDGET", 20)
    with pytest.raises(TypeError):
        hierarchy_defect_matrix(traj, 3, 2)
    with pytest.raises(RankBudgetError):
        dense_kernel(tensor_power(_rand(GEOM32, 0), 3))


def test_plane_wave_hierarchy_residual_tiny():
    traj = plane_wave_trajectory(GEOM32, (1,), 0.5, 4e-3)
    for k in (1, 2):
        assert hierarchy_duhamel_residual(traj, k) < 1e-9


def test_hierarchy_residual_halves_k1_k2():
    phi0 = random_shell_field(GEOM32, 2, 0)
    for k in (1, 2):
        res = []
        for dt in (0.004, 0.002):
            traj = solve_nls(phi0, 0.2, dt)
            res.append(hierarchy_duhamel_residual(traj, k))
        assert 3.2 < res[0] / res[1] < 4.8, (k, res)


def test_defect_matrix_zero_at_t0():
    traj = solve_nls(random_shell_field(GEOM32, 2, 1), 0.02, 0.01)
    d0 = hierarchy_defect_matrix(traj, 1, 0)
    assert trace_norm(d0) < 1e-12


def _lab_frame_defect(traj, k, m):
    # gamma(t_m) - U(t_m) gamma0 + i mu Simpson_j w_j U(t_m - s_j) B gamma^{(k+1)}(s_j)
    t = float(traj.times[m])
    terms = list(tensor_power(traj.states[m], k).terms)
    g0 = hierarchy_free_evolve(tensor_power(traj.states[0], k), t)
    terms += [(-c, ke, br) for c, ke, br in g0.terms]
    w = simpson_weights(m, traj.dt)
    for j in range(m + 1):
        coll = collision_full(tensor_power(traj.states[j], k + 1))
        ev = hierarchy_free_evolve(coll, t - float(traj.times[j]))
        terms += [(1j * traj.coupling * w[j] * c, ke, br) for c, ke, br in ev.terms]
    return FactorizedDensityMatrix(k, terms)


def test_defect_matrix_is_the_lab_frame_defect_pulled_back():
    # a coarse step keeps the defect far above round-off of the term mass
    traj = solve_nls(random_shell_field(GEOM32, 2, 2), 0.35, 0.05, coupling=-1.0)
    for k in (1, 2):
        for m in (1, 2, 3, 7):
            got = hierarchy_defect_matrix(traj, k, m)
            ref = _lab_frame_defect(traj, k, m)
            assert got.rank == ref.rank
            for alpha in (0.0, ALPHA):
                a = trace_norms([got], alpha)[0]
                b = trace_norms([ref], alpha)[0]
                assert abs(a - b) <= 1e-12 * b, (k, m, alpha, a, b)


def test_residual_builds_each_stored_time_integrand_once(monkeypatch):
    calls = []

    def spy(gamma):
        calls.append(gamma.order)
        return collision_full(gamma)

    monkeypatch.setattr(hierarchy_module, "collision_full", spy)
    traj = solve_nls(random_shell_field(GEOM32, 2, 3), 0.1, 0.01)
    hierarchy_duhamel_residual(traj, 2)
    assert calls == [3] * len(traj.times)


def test_residual_checks_rank_budget_before_building(monkeypatch):
    monkeypatch.setattr(hierarchy_module, "collision_full", None)
    monkeypatch.setattr(hierarchy_module, "DEFAULT_RANK_BUDGET", 45)
    traj = solve_nls(random_shell_field(GEOM32, 2, 3), 0.1, 0.01)
    # 2 + 11 * 2 k terms at the final checkpoint
    with pytest.raises(RankBudgetError, match="needs 46 terms"):
        hierarchy_duhamel_residual(traj, 2)


def test_default_zeta_values():
    assert abs(default_zeta(1) - 1.0 / 3.0) < 1e-15
    assert abs(default_zeta(2) - 0.25) < 1e-15
    assert abs(default_zeta(3) - 0.6) < 1e-15


def test_stable_path_beats_gram_on_cancellation():
    # gamma - gamma has trace norm 0; the QR reduction sees the cancellation
    # at eps level, where the eigenvalues of a Gram matrix of the terms would
    # see it only at sqrt(eps) level
    phi = _rand(GEOM, 11)
    gamma = tensor_power(phi, 2)
    doubled = FactorizedDensityMatrix(
        2, gamma.terms + [(-c, k_, b_) for c, k_, b_ in gamma.terms]
    )
    mass = trace_norm(gamma)
    assert trace_norm(doubled) < 1e-12 * mass
