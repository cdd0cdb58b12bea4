"""Factorized density matrices, the collision operator, hierarchy evolution,
trace norms, and the mild-hierarchy residual of factorized NLS trajectories.

An order-k density matrix is stored as a term list: a sum of rank-one tensor
products, term = (coefficient, k ket factors, k bra factors), with kernel

    gamma(x_1..x_k; x'_1..x'_k) = sum_m c_m prod_j f_{m,j}(x_j) conj(g_{m,j}(x'_j)).

Dense order-k kernels are never formed outside small-grid oracle paths; trace
norms, weighted by S^{(k,alpha)} or not, come from a streamed QR of Khatri-Rao
products (trace_norms), in which the kets of terms with one coefficient and
bra, or the bras of terms with one coefficient and ket, are summed and reduced
as one column, factored by Horner's rule on the last factors of its products.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .bench import admissible_parameters
from .torus import (GeometryMismatchError, free_evolve, pointwise_product, product_field,
                    _sobolev_weight)
from .solver import simpson_weights

__all__ = [
    "FactorizedDensityMatrix",
    "RankBudgetError",
    "DEFAULT_RANK_BUDGET",
    "tensor_power",
    "collision_single",
    "collision_full",
    "hierarchy_free_evolve",
    "trace_norm",
    "trace_norms",
    "dense_kernel",
    "dense_trace_norm",
    "hierarchy_duhamel_residual",
    "hierarchy_defect_matrix",
    "check_defect_budget",
    "default_zeta",
]

DEFAULT_RANK_BUDGET = 4096


class RankBudgetError(RuntimeError):
    """An operation would exceed the configured term-list rank budget."""


@dataclass
class FactorizedDensityMatrix:
    """Order-k density matrix as a list of factorized rank-one terms."""

    order: int
    terms: list  # list of (coeff, tuple of k kets, tuple of k bras)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        for c, kets, bras in self.terms:
            if len(kets) != self.order or len(bras) != self.order:
                raise ValueError("factor count does not match order")

    @property
    def rank(self):
        return len(self.terms)

    @property
    def geometry(self):
        return self.terms[0][1][0].geometry if self.terms else None


def _check_budget(n, limit):
    if n > limit:
        raise RankBudgetError(
            "operation needs %d terms, exceeding the rank budget of %d" % (n, limit)
        )


def tensor_power(phi, k):
    """|phi><phi|^{tensor k}: rank one, all factors equal phi."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return FactorizedDensityMatrix(k, [(1.0 + 0.0j, (phi,) * k, (phi,) * k)])


def _once_per_object(fn):
    """fn computed once per tuple of argument objects, keyed by their
    identity: the caller holds the arguments alive while it uses fn."""
    done = {}

    def once(*args):
        key = tuple(map(id, args))
        if key not in done:
            done[key] = fn(*args)
        return done[key]

    return once


def _collisions(gamma, j):
    """collision_single(gamma, j), or collision_full(gamma) for j None, in
    one loop that forms each distinct pointwise product once per call,
    keyed by the identity of its factor objects: on a tensor power the ket
    and bra contractions coincide, and so do the slot products of every j."""
    k = gamma.order - 1
    if k < 1:
        raise ValueError("input must have order >= 2")
    if j is not None and not 1 <= j <= k:
        raise ValueError("j must satisfy 1 <= j <= k")
    slots = range(k) if j is None else (j - 1,)
    contract = _once_per_object(
        lambda f, g: product_field(f, g, conj=(False, True), band=f.geometry))
    times = _once_per_object(pointwise_product)
    out = []
    for jj in slots:
        for c, kets, bras in gamma.terms:
            f_last, g_last = kets[k], bras[k]
            ket = times(kets[jj], contract(f_last, g_last))
            out.append((c, kets[:jj] + (ket,) + kets[jj + 1 : k], bras[:k]))
            bra = times(bras[jj], contract(g_last, f_last))
            out.append((-c, kets[:k], bras[:jj] + (bra,) + bras[jj + 1 : k]))
    return FactorizedDensityMatrix(k, out)


def collision_single(gamma, j):
    """B_{j,k+1}: contract particle k+1 against particle j (1-based j <= k).

    On each factorized term the delta-difference kernel acts exactly by
    pointwise products: a +1 term with ket_j <- f_j * (f_{k+1} conj g_{k+1})
    and a -1 term with bra_j <- g_j * (g_{k+1} conj f_{k+1}); the last factor
    pair is dropped and the rank doubles.  Each distinct product is formed
    once per call (_collisions).
    """
    return _collisions(gamma, j)


def collision_full(gamma):
    """B_{k+1} = sum_{j=1}^k B_{j,k+1}, terms in j-major order; each distinct
    product is formed once for all j (_collisions)."""
    return _collisions(gamma, None)


def hierarchy_free_evolve(gamma, t):
    """U^{(k)}(t): free evolution of every ket and bra factor with +t (the
    bra side carries the conjugate phase through the kernel convention),
    once per distinct factor object: tensor powers and collisions share
    factors between slots and terms, and the result shares them the same way."""
    evolve = _once_per_object(lambda f: free_evolve(f, t))
    return FactorizedDensityMatrix(
        gamma.order,
        [(c, tuple(map(evolve, kets)), tuple(map(evolve, bras))) for c, kets, bras in gamma.terms],
    )


# Singular values below TRUNCATION times the largest are dropped from every
# coordinate matrix; the trace norm moves by rounding of the term mass only.
TRUNCATION = 1e-15


def _geqrf(a, m):
    """LAPACK zgeqrf, in place, on the first m rows of the column-major
    matrix whose columns are the rows of the C-contiguous complex128 array
    a: its R-factor overwrites the upper triangle of those rows, Householder
    vectors the rest.  numpy.linalg.lapack_lite is numpy's private binding of
    the LAPACK that np.linalg calls.  lwork is that of np.linalg.qr, the
    workspace query's and at least n: a smaller one factors unblocked, in
    other bits."""
    n, lda = a.shape
    tau, work = np.empty(min(m, n), np.complex128), np.empty(1, np.complex128)
    lapack_lite.zgeqrf(m, n, a, lda, tau, work, -1, 0)
    work = np.empty(max(1, n, int(work[0].real)), np.complex128)
    if lapack_lite.zgeqrf(m, n, a, lda, tau, work, len(work), 0)["info"]:
        raise np.linalg.LinAlgError("zgeqrf failed")


def _khatri_rao_rows(T, V):
    """Coordinates of the columns sum_i T[i][:, c] (x) V[i][:, c], each a
    sum of Khatri-Rao products: diag(s) W^H, s above TRUNCATION times the
    largest, of the SVD of the R-factor of their rows sum_i T[i][a] * V[i][b],
    accumulated by QR in blocks of about 2R rows so that the
    len(T[0]) * len(V[0]) rows are never all formed (TSQR).  With V one row
    of ones the rows are T[0]: the one reduction path serves the factors too.

    A stage holds its rows in one stack, a C-contiguous (R, height) array
    whose column i is row i: the rows in column-major order, which LAPACK
    factors where they lie (np.linalg.qr would copy its input twice, by
    astype and by its gufunc's column-major linearization).  Each block is
    written under the R-factor of the blocks before it, its first summand
    by one product into the stack and the others one row of T at a time;
    zgeqrf factors the rows in place (_geqrf), and the R-factor's strict
    lower triangle is zeroed for the next block.  The stack has the rows a
    stage stacks: one block, under R rows if there is more than one.  The
    R-factor is copied out and the stack freed before the SVD, which with
    its copies of the R-factor, U and W^H is the peak of the stage."""
    R, nT, nV = T[0].shape[1], len(T[0]), len(V[0])
    step = max(1, 2 * R // max(1, nV))
    stack = np.empty((R, min(step, nT) * nV + (R if nT > step else 0)), np.complex128)
    rows, top = stack.T, 0
    for a in range(0, nT, step):
        block = rows[top:top + min(step, nT - a) * nV].reshape(-1, nV, R)
        np.multiply(T[0][a:a + step, None, :], V[0][None, :, :], out=block)
        for t, v in zip(T[1:], V[1:]):
            for i in range(len(block)):
                block[i] += t[a + i] * v
        m = top + len(block) * nV
        _geqrf(stack, m)
        top = min(R, m)
        for j in range(top):
            rows[j + 1:top, j] = 0
    acc = rows[:top].copy()
    stack = rows = block = None
    s, wh = np.linalg.svd(acc, full_matrices=False)[1:]
    keep = s > TRUNCATION * s.max(initial=0.0)
    return s[keep, None] * wh[keep]


def _summed_terms(terms):
    """terms (c, ket, bra) as (c, kets, bras), whose sides are sums: terms
    with the same coefficient and bra add their kets; of the rest, those
    with the same coefficient and ket add their bras.  Sums of one remain.

    Sums come in the order of their first terms.  The terms of a defect
    cancel to about 1e-8 of their mass, and the reduced matrix adds them
    in this order: every ket sum before every bra sum moved trace norms by
    2e-14 of the term mass (`verify hierarchy --k 2 --grid 64 --dt 1e-3`)."""
    by_bra, sums = {}, {}
    for c, ket, bra in terms:
        by_bra.setdefault((c, bra), []).append(ket)
    for c, ket, bra in terms:
        kets = by_bra[c, bra]
        if len(kets) > 1:
            sums.setdefault((c, None, bra), (c, kets, [bra]))
        else:
            sums.setdefault((c, ket, None), (c, [ket], []))[2].append(bra)
    return list(sums.values())


def _reduced_matrices(gammas, alpha):
    """Each term list under S^{(k,alpha)} as an r x r matrix
    T_kets diag(c) T_bras^H in one orthonormal basis of the summed ket and
    bra sides of all the lists (_summed_terms), so a side that sums products
    is one column.

    Factors are the same when their coefficient bytes are, and sides when
    their products are.  Stage 0 takes the distinct factors, each weighted
    by S^{(1,alpha)}, to their coordinates F.  Each side is then factored by
    Horner's rule: a sum of products of j factors is the sum, over its
    distinct last factors f, of (the sum of the prefixes that end before f)
    (x) F[f], and each prefix sum is factored the same way one level down.
    Stage j reduces every distinct prefix sum of j + 1 factors as one column
    of as many summands as it has last factors; a sum of single factors is
    the sum of their coordinates.  The collision sum (B, phi, .., phi) +
    .. + (phi, .., phi, B) of a stored time takes two prefix sums per stage,
    of at most two summands each.  Every stage is _khatri_rao_rows.

    Lists of different orders raise ValueError, and a factor whose geometry
    is not that of the first factor GeometryMismatchError, checked once per
    distinct factor object."""
    orders = {g.order for g in gammas}
    if len(orders) > 1:
        raise ValueError("term lists of orders %s share no basis" % sorted(orders))
    geom = next(g.geometry for g in gammas if g.terms)
    index, buckets, coeffs, columns = {}, {}, [], {}

    def factor(f):
        # no copy of the bytes is kept: bucket by a digest of the buffer, read
        # in place, and confirm a match byte for byte
        if id(f) not in index:
            if f.geometry != geom:
                raise GeometryMismatchError("factors live on %s and %s" % (geom, f.geometry))
            data = f.coeffs.view(np.uint8)
            bucket = buckets.setdefault(hashlib.blake2b(data).digest(), [])
            i = next((i for i in bucket if np.array_equal(coeffs[i].view(np.uint8), data)),
                     len(coeffs))
            if i == len(coeffs):
                bucket.append(i)
                coeffs.append(f.coeffs)
            index[id(f)] = i
        return index[id(f)]

    def column(side):
        return columns.setdefault(tuple(sorted(side)), len(columns))

    lists = [[(c, column(kets), column(bras)) for c, kets, bras in _summed_terms(
                 [(c, tuple(map(factor, kets)), tuple(map(factor, bras)))
                  for c, kets, bras in g.terms])]
             for g in gammas]
    # Horner's rule, one level per slot from the last: for each sum of
    # products of j factors, the ids of its prefix sums of j - 1 factors
    # (the distinct sums of one level down) and their last factors
    levels, sums = [], list(columns)
    for _ in range(gammas[0].order - 1):
        below, prefixes, lasts = {}, [], []
        for s in sums:
            by_last = {}
            for p in s:
                by_last.setdefault(p[-1], []).append(p[:-1])
            prefixes.append([below.setdefault(tuple(sorted(pre)), len(below))
                             for pre in by_last.values()])
            lasts.append(list(by_last))
        levels.append((prefixes, lasts))
        sums = list(below)

    def summands(X, rows):
        """X[:, r[i]] over the rows r, for each place i; a zero column past
        the end of a row."""
        X = np.pad(X, ((0, 0), (0, 1)))
        return [X[:, [r[i] if i < len(r) else -1 for r in rows]]
                for i in range(max(map(len, rows)))]

    factors = np.stack([c.ravel() for c in coeffs], axis=1)
    # S^{(1,alpha)} scales the rows by <lambda>^{alpha/2}, sobolev_norm's
    # cached H^{alpha/2} weight, before sqrt(vol) scales them
    factors *= _sobolev_weight(geom, alpha / 2).reshape(-1, 1)
    factors *= math.sqrt(geom.volume)
    F = _khatri_rao_rows([factors], [np.ones((1, len(coeffs)))])
    T = sum(summands(F, [[p[0] for p in s] for s in sums]))
    for prefixes, lasts in reversed(levels):
        T = _khatri_rao_rows(summands(T, prefixes), summands(F, lasts))
    return [(T[:, [t[1] for t in s]] * [t[0] for t in s]) @ T[:, [t[2] for t in s]].conj().T
            for s in lists]


def trace_norms(gammas, alpha=0.0):
    """Trace (nuclear) norms of S^{(k,alpha)} gamma S^{(k,alpha)} for term
    lists gamma of one order and geometry, over one orthonormal basis of all
    their columns, so lists that share factors share its cost; accurate to
    rounding of the term mass at every size.  S^{(k,alpha)} multiplies every
    ket and bra factor by <lambda>^{alpha/2}, lambda = |xi|^2, the
    per-eigenvalue Sobolev weight, so the rank-one trace identity is exact.
    Terms that share a coefficient and one side are one term whose other
    side, their sum, is reduced as one column (_reduced_matrices)."""
    if not any(g.terms for g in gammas):
        return [0.0] * len(gammas)
    return [float(np.linalg.svd(A, compute_uv=False).sum())
            for A in _reduced_matrices(gammas, alpha)]


def trace_norm(gamma):
    """Trace (nuclear) norm of the represented operator (see trace_norms)."""
    return trace_norms([gamma])[0]


# Largest n^k for which dense_kernel forms the (n^k, n^k) matrix.
DENSE_MAX_SIZE = 4096


def dense_kernel(gamma):
    """Dense kernel matrix of shape (n^k, n^k), one product (K diag(c)) B^H
    of the terms' ket and bra Kronecker vectors, stacked as the columns of K
    and B; small-grid oracle only."""
    if gamma.rank == 0:
        raise ValueError("empty term list has no geometry")
    n = gamma.geometry.npoints
    dim = n ** gamma.order
    if dim > DENSE_MAX_SIZE:
        raise RankBudgetError("dense kernel dimension %d exceeds %d" % (dim, DENSE_MAX_SIZE))
    coeffs, kets, bras = zip(*gamma.terms)

    def kron_columns(sides):
        cols = np.ones((1, gamma.rank), dtype=np.complex128)
        for slot in zip(*sides):
            f = np.stack([g.coeffs.ravel() for g in slot], axis=1)
            cols = (cols[:, None, :] * f[None, :, :]).reshape(-1, gamma.rank)
        return cols

    return (kron_columns(kets) * np.array(coeffs)) @ kron_columns(bras).conj().T


def dense_trace_norm(gamma):
    """Oracle trace norm via dense SVD (coefficient basis is orthogonal with
    weight vol per slot, so singular values scale by vol^k)."""
    K = dense_kernel(gamma)
    vol = gamma.geometry.volume
    return float(np.linalg.svd(K, compute_uv=False).sum()) * vol ** gamma.order


def default_zeta(d):
    """Default weight exponent zeta_0(d) for the hierarchy residual."""
    if d == 1:
        return 1.0 / 3.0
    return float(admissible_parameters(d).zeta0)


def check_defect_budget(k, m):
    """Raise ValueError unless k >= 1, and RankBudgetError unless the order-k
    defect at stored time index m, two tensor powers and, for m > 0, 2k collision
    terms per stored time 0..m, fits DEFAULT_RANK_BUDGET, before any term is built."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_budget(2 + 2 * k * (m + 1 if m else 0), DEFAULT_RANK_BUDGET)


def _pulled_back_collisions(traj, k, m):
    """The mild-hierarchy integrand in the interaction picture,
    U^{(k)}(-s_j) B_{k+1} gamma^{(k+1)}(s_j) for stored times j = 0..m: one
    collision_full per stored time, shared by every defect that needs it."""
    return [hierarchy_free_evolve(collision_full(tensor_power(traj.states[j], k + 1)),
                                  -float(traj.times[j])) for j in range(m + 1)]


def _duhamel_terms(traj, k, m, integrand):
    """Terms of gamma0^{(k)} - i mu * Simpson_j w_j integrand[j] over stored
    times j = 0..m, in that order; the integral over [0, t_0] is empty."""
    terms = tensor_power(traj.states[0], k).terms
    for wj, coll in zip(simpson_weights(m, traj.dt), integrand if m else []):
        terms += [(-1j * traj.coupling * wj * c, ke, br) for c, ke, br in coll.terms]
    return terms


def _interaction_defect(traj, k, m, integrand):
    """U^{(k)}(-t_m) gamma^{(k)}(t_m) minus the _duhamel_terms at t_m."""
    pulled = free_evolve(traj.states[m], -float(traj.times[m]))
    return FactorizedDensityMatrix(k, tensor_power(pulled, k).terms + [
        (-c, ke, br) for c, ke, br in _duhamel_terms(traj, k, m, integrand)])


def _defect_norms(traj, k, ms, integrand):
    """Trace norms under S^{(k,-zeta)}, zeta = default_zeta(d), of the defects
    at the stored time indices ms, over one basis (trace_norms): the defects
    share the integrand's factors unweighted, and the basis weights each once."""
    return trace_norms([_interaction_defect(traj, k, m, integrand) for m in ms],
                       -default_zeta(traj.geometry.d))


def hierarchy_defect_matrix(traj, k, m):
    """Mild-hierarchy defect at stored time index m in the interaction
    picture, as a term list whose rank is checked first (check_defect_budget):

        U^{(k)}(-t_m) gamma^{(k)}(t_m) - gamma0^{(k)}
            + i mu * Simpson_j w_j U^{(k)}(-s_j) B_{k+1} gamma^{(k+1)}(s_j)

    This is U^{(k)}(-t_m) applied to the lab-frame defect gamma^{(k)}(t_m) -
    U^{(k)}(t_m) gamma0^{(k)} + i mu int U^{(k)}(t_m - s) B_{k+1} gamma^{(k+1)}(s);
    the conjugation is unitary and commutes with S^{(k,alpha)}, so trace
    norms, weighted or not, are those of the lab-frame defect."""
    check_defect_budget(k, m)
    return _interaction_defect(traj, k, m, _pulled_back_collisions(traj, k, m))


def hierarchy_duhamel_residual(traj, k):
    """Max of the trace norm of the mild-hierarchy defect (hierarchy_defect_matrix)
    under S^{(k,-zeta)}, zeta = default_zeta(d), at four evenly spaced stored
    times including the final one, whose rank is checked first.  The integral
    uses the full stored grid; its integrand and the basis of the trace norms
    are shared by the checkpoints (_defect_norms), which enter the basis in
    ascending order."""
    M = len(traj.times) - 1
    check_defect_budget(k, M)
    if M < 2:
        raise ValueError("need at least 3 time points")
    return max(_defect_norms(traj, k, sorted({int(round(i * M / 4)) for i in range(1, 5)}),
                             _pulled_back_collisions(traj, k, M)))
