"""Factorized density matrices, the collision operator, hierarchy evolution,
trace norms, and the mild-hierarchy residual of factorized NLS trajectories.

An order-k density matrix is stored as a term list: a sum of rank-one tensor
products, term = (coefficient, k ket factors, k bra factors), with kernel

    gamma(x_1..x_k; x'_1..x'_k) = sum_m c_m prod_j f_{m,j}(x_j) conj(g_{m,j}(x'_j)).

Dense order-k kernels are never formed outside small-grid oracle paths; the
trace norm is computed by Gram-matrix reduction to an R x R nuclear norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .torus import (
    SpectralField,
    conjugate,
    free_evolve,
    pointwise_product,
    _freq_sq,
)
from .solver import simpson_weights

__all__ = [
    "FactorizedDensityMatrix",
    "RankBudgetError",
    "DEFAULT_RANK_BUDGET",
    "tensor_power",
    "collision_single",
    "collision_full",
    "hierarchy_free_evolve",
    "apply_sobolev_op",
    "trace_norm",
    "dense_kernel",
    "dense_trace_norm",
    "is_hermitian",
    "hierarchy_duhamel_residual",
    "hierarchy_defect_matrix",
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


def _check_budget(n, budget):
    if n > budget:
        raise RankBudgetError(
            "operation needs %d terms, exceeding the rank budget of %d" % (n, budget)
        )


def tensor_power(phi, k):
    """|phi><phi|^{tensor k}: rank one, all factors equal phi."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return FactorizedDensityMatrix(k, [(1.0 + 0.0j, (phi,) * k, (phi,) * k)])


def collision_single(gamma, j, budget=DEFAULT_RANK_BUDGET):
    """B_{j,k+1}: contract particle k+1 against particle j (1-based j <= k).

    On each factorized term the delta-difference kernel acts exactly by
    pointwise products: a +1 term with ket_j <- f_j * (f_{k+1} conj g_{k+1})
    and a -1 term with bra_j <- g_j * (g_{k+1} conj f_{k+1}); the last factor
    pair is dropped and the rank doubles.
    """
    k = gamma.order - 1
    if k < 1:
        raise ValueError("input must have order >= 2")
    if not 1 <= j <= k:
        raise ValueError("j must satisfy 1 <= j <= k")
    _check_budget(2 * gamma.rank, budget)
    out = []
    jj = j - 1
    for c, kets, bras in gamma.terms:
        f_last, g_last = kets[k], bras[k]
        ket_prod = pointwise_product(f_last, conjugate(g_last))
        bra_prod = pointwise_product(g_last, conjugate(f_last))
        kets1 = kets[:jj] + (pointwise_product(kets[jj], ket_prod),) + kets[jj + 1 : k]
        out.append((c, kets1, bras[:k]))
        bras2 = bras[:jj] + (pointwise_product(bras[jj], bra_prod),) + bras[jj + 1 : k]
        out.append((-c, kets[:k], bras2))
    return FactorizedDensityMatrix(k, out)


def collision_full(gamma, budget=DEFAULT_RANK_BUDGET):
    """B_{k+1} = sum_{j=1}^k B_{j,k+1}."""
    k = gamma.order - 1
    if k < 1:
        raise ValueError("input must have order >= 2")
    _check_budget(2 * k * gamma.rank, budget)
    terms = []
    for j in range(1, k + 1):
        terms.extend(collision_single(gamma, j, budget=budget).terms)
    return FactorizedDensityMatrix(k, terms)


def _map_factors(gamma, fn):
    """fn on every factor, once per distinct factor object: tensor powers
    and collisions share factors between slots and terms, and the result
    shares them the same way."""
    done = {}

    def once(f):
        if id(f) not in done:
            done[id(f)] = fn(f)
        return done[id(f)]

    return FactorizedDensityMatrix(
        gamma.order,
        [(c, tuple(map(once, kets)), tuple(map(once, bras))) for c, kets, bras in gamma.terms],
    )


def hierarchy_free_evolve(gamma, t):
    """U^{(k)}(t): free evolution of every ket and bra factor with +t (the
    bra side carries the conjugate phase through the kernel convention)."""
    return _map_factors(gamma, lambda f: free_evolve(f, t))


def apply_sobolev_op(gamma, alpha):
    """S^{(k,alpha)}: a real Fourier multiplier on every ket and bra factor.

    The weight is <lambda>^{alpha/2} with lambda = |xi|^2, the per-eigenvalue
    Sobolev weight, so the rank-one trace identity is exact.
    """
    if not gamma.terms:
        return gamma
    w = (1.0 + _freq_sq(gamma.geometry) ** 2) ** (alpha / 4.0)

    def mult(f):
        return SpectralField(f.geometry, f.coeffs * w)

    return _map_factors(gamma, mult)


def _gram(factors_by_slot, vol):
    """Gram matrix of tensor-product vectors from slot-wise factor stacks."""
    R = factors_by_slot[0].shape[0]
    G = np.ones((R, R), dtype=np.complex128)
    for V in factors_by_slot:
        G *= (V.conj() @ V.T) * vol
    return G


def _gram_factor(G, floor=1e-14):
    """R x R matrix S with S^H S = G (eigenvalue square root, floored)."""
    w, U = np.linalg.eigh((G + G.conj().T) / 2.0)
    w = np.where(w < floor, 0.0, w)
    return (U * np.sqrt(w)).conj().T


def _factor_stacks(gamma, side):
    """Per-slot (R, n) stacks of the ket (side=1) or bra (side=2) factors."""
    return [np.stack([t[side][slot].coeffs.ravel() for t in gamma.terms])
            for slot in range(gamma.order)]


def _tensor_stack(gamma, side):
    """(R, n^k) matrix of the ket (side=1) or bra (side=2) tensor vectors."""
    out, *rest = _factor_stacks(gamma, side)
    for V in rest:
        out = np.einsum("ri,rj->rij", out, V).reshape(gamma.rank, -1)
    return out


STABLE_TRACE_BUDGET = 2 ** 23


def trace_norm(gamma, floor=1e-14, stable_budget=STABLE_TRACE_BUDGET):
    """Trace (nuclear) norm of the represented operator.

    Reduces to the nuclear norm of the R x R matrix L diag(c) M^H, where L
    and M carry orthonormal-basis coordinates of the ket/bra tensor factors.
    When rank * n^k is affordable the coordinates come from a QR of the
    explicit tensor vectors (numerically stable under heavy cancellation
    between terms); otherwise they come from square roots of the Gram
    matrices (entries are products over the k slots of factor inner
    products), whose accuracy floor is ~sqrt(eps) of the total term mass.
    """
    if gamma.rank == 0:
        return 0.0
    vol = gamma.geometry.volume
    dim = gamma.geometry.npoints ** gamma.order
    c = np.array([t[0] for t in gamma.terms], dtype=np.complex128)
    if gamma.rank * dim <= stable_budget:
        scale = math.sqrt(vol) ** gamma.order
        F = _tensor_stack(gamma, 1).T * scale  # (n^k, R)
        G = _tensor_stack(gamma, 2).T * scale
        L = np.linalg.qr(F, mode="r")
        M = np.linalg.qr(G, mode="r")
        # qr(mode='r') loses Q, but only coordinates matter: R-factors of F
        # and G satisfy F = Q_F L, G = Q_G M up to column signs of Q, which
        # drop out of singular values.
        small = L @ np.diag(c) @ M.conj().T
        return float(np.linalg.svd(small, compute_uv=False).sum())
    L = _gram_factor(_gram(_factor_stacks(gamma, 1), vol), floor)
    M = _gram_factor(_gram(_factor_stacks(gamma, 2), vol), floor)
    small = L @ np.diag(c) @ M.conj().T
    return float(np.linalg.svd(small, compute_uv=False).sum())


def dense_kernel(gamma, max_size=4096):
    """Dense kernel matrix of shape (n^k, n^k); small-grid oracle only."""
    if gamma.rank == 0:
        raise ValueError("empty term list has no geometry")
    n = gamma.geometry.npoints
    dim = n ** gamma.order
    if dim > max_size:
        raise RankBudgetError("dense kernel dimension %d exceeds %d" % (dim, max_size))
    out = np.zeros((dim, dim), dtype=np.complex128)
    for c, kets, bras in gamma.terms:
        kv = np.array([1.0 + 0.0j])
        bv = np.array([1.0 + 0.0j])
        for f in kets:
            kv = np.kron(kv, f.coeffs.ravel())
        for g in bras:
            bv = np.kron(bv, g.coeffs.ravel())
        out += c * np.outer(kv, bv.conj())
    return out


def dense_trace_norm(gamma, max_size=4096):
    """Oracle trace norm via dense SVD (coefficient basis is orthogonal with
    weight vol per slot, so singular values scale by vol^k)."""
    K = dense_kernel(gamma, max_size)
    vol = gamma.geometry.volume
    return float(np.linalg.svd(K, compute_uv=False).sum()) * vol ** gamma.order


def is_hermitian(gamma, tol=1e-12):
    """Term-list check: closed under bra/ket swap + coefficient conjugation.

    Decided by comparing dense kernels of gamma and its adjoint on the term
    level via Gram norms: || gamma - gamma^H ||_HS == 0 up to tol.
    """
    if gamma.rank == 0:
        return True
    swapped = [(np.conj(c), bras, kets) for c, kets, bras in gamma.terms]
    diff = FactorizedDensityMatrix(
        gamma.order, gamma.terms + [(-c, k_, b_) for c, k_, b_ in swapped]
    )
    # Hilbert-Schmidt norm of the difference via the same Gram machinery
    vol = gamma.geometry.volume
    c = np.array([t[0] for t in diff.terms], dtype=np.complex128)
    A = _gram(_factor_stacks(diff, 1), vol)
    B = _gram(_factor_stacks(diff, 2), vol)
    hs2 = float(np.real(np.einsum("i,j,ij,ji->", np.conj(c), c, A, B)))
    scale = float(np.real(np.einsum("i,j,ij,ji->", np.conj(c[: gamma.rank]),
                                    c[: gamma.rank], A[: gamma.rank, : gamma.rank],
                                    B[: gamma.rank, : gamma.rank])))
    return hs2 <= tol * max(scale, 1e-300)


def default_zeta(d):
    """Default weight exponent zeta_0(d) for the hierarchy residual."""
    if d == 1:
        return 1.0 / 3.0
    from .bench import admissible_parameters

    return float(admissible_parameters(d).zeta0)


def _pulled_back_collisions(traj, k, m, budget):
    """The mild-hierarchy integrand in the interaction picture,
    U^{(k)}(-s_j) B_{k+1} gamma^{(k+1)}(s_j) for stored times j = 0..m: one
    collision_full per stored time, shared by every defect that needs it.
    The budget is checked first against the 2 + (m+1) 2k terms of the defect
    at t_m."""
    _check_budget(2 + (m + 1) * 2 * k, budget)
    return [
        hierarchy_free_evolve(
            collision_full(tensor_power(traj.states[j], k + 1), budget=budget),
            -float(traj.times[j]))
        for j in range(m + 1)
    ]


def _interaction_defect(traj, k, m, integrand):
    """U^{(k)}(-t_m) gamma^{(k)}(t_m) - gamma0^{(k)}
    + i mu * Simpson_j w_j integrand[j], over stored times j = 0..m."""
    pulled = free_evolve(traj.states[m], -float(traj.times[m]))
    terms = tensor_power(pulled, k).terms
    terms += [(-c, ke, br) for c, ke, br in tensor_power(traj.states[0], k).terms]
    for wj, coll in zip(simpson_weights(m, traj.dt), integrand):
        scale = 1j * traj.coupling * wj
        terms += [(scale * c, ke, br) for c, ke, br in coll.terms]
    return FactorizedDensityMatrix(k, terms)


def hierarchy_defect_matrix(traj, k, m, budget=DEFAULT_RANK_BUDGET):
    """Mild-hierarchy defect at stored time index m in the interaction
    picture, as a term list:

        U^{(k)}(-t_m) gamma^{(k)}(t_m) - gamma0^{(k)}
            + i mu * Simpson_j w_j U^{(k)}(-s_j) B_{k+1} gamma^{(k+1)}(s_j)

    This is U^{(k)}(-t_m) applied to the lab-frame defect gamma^{(k)}(t_m) -
    U^{(k)}(t_m) gamma0^{(k)} + i mu int U^{(k)}(t_m - s) B_{k+1} gamma^{(k+1)}(s);
    the conjugation is unitary and commutes with S^{(k,alpha)}, so trace
    norms, weighted or not, are those of the lab-frame defect.
    """
    integrand = _pulled_back_collisions(traj, k, m, budget) if m else []
    return _interaction_defect(traj, k, m, integrand)


def hierarchy_duhamel_residual(traj, k, zeta=None, budget=DEFAULT_RANK_BUDGET):
    """Max over four checkpoint times of the trace norm of the mild-hierarchy
    defect (hierarchy_defect_matrix) under the S^{(k,-zeta)} weighting.

    The defect is evaluated on four evenly spaced stored times, always
    including the final one; the integral itself always uses the full stored
    grid, whose integrand is built once and shared by every checkpoint.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    M = len(traj.times) - 1
    if M < 2:
        raise ValueError("need at least 3 time points")
    integrand = _pulled_back_collisions(traj, k, M, budget)
    if zeta is None:
        zeta = default_zeta(traj.geometry.d)
    return max(
        trace_norm(apply_sobolev_op(_interaction_defect(traj, k, m, integrand), -zeta))
        for m in {int(round(i * M / 4)) for i in range(1, 5)}
    )
