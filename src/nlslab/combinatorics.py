"""Collision-map enumeration, the product-expansion identity, and
consistency of the iterated mild-hierarchy expansion.

A collision map sigma records, for each of r successive collisions, which
earlier particle the new one attaches to: sigma(j) in {1, ..., j-1} for
j = k+1, ..., k+r.  There are exactly k (k+1) ... (k+r-1) of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hierarchy import (
    FactorizedDensityMatrix,
    apply_sobolev_op,
    collision_full,
    default_zeta,
    hierarchy_defect_matrix,
    hierarchy_free_evolve,
    tensor_power,
    trace_norm,
    _check_budget,
    _interaction_defect,
    _pulled_back_collisions,
)
from .solver import simpson_weights

__all__ = [
    "CollisionMap",
    "enumerate_collision_maps",
    "collision_map_count",
    "verify_product_identity",
    "expansion_consistency",
    "ENUMERATION_BUDGET",
    "EXPANSION_BUDGET",
    "PRODUCT_IDENTITY_MAX_M",
]

ENUMERATION_BUDGET = 12
# Largest number of factors verify_product_identity sums the 2^m partitions of.
PRODUCT_IDENTITY_MAX_M = 6
# Rank budget of the term lists of expansion_consistency.
EXPANSION_BUDGET = 100000


@dataclass(frozen=True)
class CollisionMap:
    """sigma in M_{k,r}: values are (sigma(k+1), ..., sigma(k+r))."""

    k: int
    r: int
    values: tuple

    def __post_init__(self):
        if self.k < 1 or self.r < 1:
            raise ValueError("k and r must be >= 1")
        if len(self.values) != self.r:
            raise ValueError("need exactly r values")
        for i, v in enumerate(self.values):
            j = self.k + 1 + i
            if not 1 <= v <= j - 1:
                raise ValueError("sigma(%d) = %d violates 1 <= sigma(j) <= j-1" % (j, v))

    def __str__(self):
        return "%d %d : %s" % (self.k, self.r, " ".join(str(v) for v in self.values))


def enumerate_collision_maps(k, r):
    """All of M_{k,r} in lexicographic order of (sigma(k+1), ..., sigma(k+r))."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    if k + r > ENUMERATION_BUDGET:
        raise ValueError("k + r exceeds the enumeration budget of %d" % ENUMERATION_BUDGET)
    ranges = [range(1, k + i) for i in range(1, r + 1)]
    return [CollisionMap(k, r, vals) for vals in itertools.product(*ranges)]


def collision_map_count(k, r):
    """|M_{k,r}| = k (k+1) ... (k+r-1) = (k+r-1)!/(k-1)!, exact big integers."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    return math.prod(range(k, k + r))


def _integral(fn, a, b):
    """24-node Gauss-Legendre quadrature of fn over [a, b]."""
    x, w = np.polynomial.legendre.leggauss(24)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return sum(wi * fn(xi) for xi, wi in zip(mid + half * x, half * w))


def verify_product_identity(m, F, G, t):
    """|LHS - RHS| of the product-expansion identity

        prod_r (F_r + int_0^t G_r)
          = sum over partitions {1..m} = S1 u S2 of
            (prod_{S1} F_r) * sum_{r in S2} int_0^t G_r(tau)
                prod_{r' in S2 \\ {r}} int_0^tau G_{r'},

    with the empty-S2 partition contributing prod F_r (inner sum read as 1).
    Both sides use Gauss-Legendre quadrature, exact for polynomial G.
    """
    if m > PRODUCT_IDENTITY_MAX_M:
        raise ValueError("m must be <= %d" % PRODUCT_IDENTITY_MAX_M)
    if len(F) != m or len(G) != m:
        raise ValueError("need m coefficients and m functions")
    full = [_integral(G[i], 0.0, t) for i in range(m)]
    lhs = math.prod(F[i] + full[i] for i in range(m))
    rhs = 0.0 + 0.0j
    for mask in range(2 ** m):
        S2 = [i for i in range(m) if mask >> i & 1]
        S1 = [i for i in range(m) if not mask >> i & 1]
        coeff = math.prod([F[i] for i in S1], start=1.0 + 0.0j)
        if not S2:
            rhs += coeff
            continue
        inner = 0.0 + 0.0j
        for r in S2:
            rest = [i for i in S2 if i != r]

            def integrand(tau, r=r, rest=rest):
                val = G[r](tau)
                for i in rest:
                    val *= _integral(G[i], 0.0, tau)
                return val

            inner += _integral(integrand, 0.0, t)
        rhs += coeff * inner
    return abs(lhs - rhs)


def expansion_consistency(traj, k, r):
    """Trace-norm defect, under S^{(k,-zeta)} with zeta = default_zeta(d), of
    the iterated mild-hierarchy expansion at the final stored time.

    r = 1 is the mild equation itself and delegates to the same defect matrix
    as hierarchy_duhamel_residual; r = 2 substitutes the equation into itself
    once, with iterated Simpson quadrature over the simplex t >= t1 >= t2.
    """
    if r not in (1, 2):
        raise ValueError("r must be 1 or 2")
    zeta = default_zeta(traj.geometry.d)
    M = len(traj.times) - 1
    if M < 2:
        raise ValueError("need at least 3 time points")
    if r == 1:
        defect = hierarchy_defect_matrix(traj, k, M, budget=EXPANSION_BUDGET)
        return trace_norm(apply_sobolev_op(defect, -zeta))
    # In the interaction picture (the defect conjugated by U^{(k)}(-t), which
    # keeps its weighted trace norm) the substituted equation is the mild
    # defect with integrand U(-t1) B_{k+1} U(t1) g(t1) at each outer node t1,
    #   g(t1) = gamma0^{(k+1)} - i mu sum_j w'_j I_j,
    # with I_j = U(-t2) B_{k+2} gamma^{(k+2)}(t2) the order-(k+1) mild
    # integrand at t2 = t_j, built once per stored time.
    inner = _pulled_back_collisions(traj, k + 1, M, EXPANSION_BUDGET)
    outer = []
    for i in range(M + 1):
        g = tensor_power(traj.states[0], k + 1).terms
        # the inner integral over [0, t1] is empty at i = 0
        for wj, coll in zip(simpson_weights(i, traj.dt), inner if i else []):
            g += [(-1j * traj.coupling * wj * c, ke, br) for c, ke, br in coll.terms]
        t1 = float(traj.times[i])
        g = hierarchy_free_evolve(FactorizedDensityMatrix(k + 1, g), t1)
        outer.append(hierarchy_free_evolve(collision_full(g, budget=EXPANSION_BUDGET), -t1))
    defect = _interaction_defect(traj, k, M, outer)
    _check_budget(defect.rank, EXPANSION_BUDGET)
    return trace_norm(apply_sobolev_op(defect, -zeta))
