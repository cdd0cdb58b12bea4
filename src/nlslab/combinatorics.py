"""Collision-map enumeration, the product-expansion identity, and
consistency of the iterated mild-hierarchy expansion.

A collision map sigma records, for each of r successive collisions, which
earlier particle the new one attaches to: sigma(j) in {1, ..., j-1} for
j = k+1, ..., k+r.  There are exactly k (k+1) ... (k+r-1) of them.

The expansion's defects are assembled and weighted by the hierarchy module
(its Duhamel terms and defect norms); this module adds the depth-2 integrand
and the closed-form term count checked before any of it is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hierarchy import (
    FactorizedDensityMatrix,
    collision_full,
    hierarchy_free_evolve,
    _check_budget,
    _defect_norms,
    _duhamel_terms,
    _pulled_back_collisions,
)

__all__ = [
    "CollisionMap",
    "enumerate_collision_maps",
    "collision_map_count",
    "verify_product_identity",
    "expansion_consistency",
    "check_expansion_budget",
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


def _integral(fn, b):
    """24-node Gauss-Legendre quadrature of fn over [0, b]."""
    x, w = np.polynomial.legendre.leggauss(24)
    half = b / 2.0
    return sum(wi * fn(xi) for xi, wi in zip(half + half * x, half * w))


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
    full = [_integral(G[i], t) for i in range(m)]
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
                    val *= _integral(G[i], tau)
                return val

            inner += _integral(integrand, t)
        rhs += coeff * inner
    return abs(lhs - rhs)


def check_expansion_budget(k, r, m):
    """Raise ValueError unless k >= 1 and r is 1 or 2, and RankBudgetError
    unless the order-k depth-r defect at stored time index m fits
    EXPANSION_BUDGET: 2 + 2k (m+1) terms at r = 1; at r = 2, 2k per term of
    every g(t_i), 1 at i = 0 and 1 + 2(k+1)(i+1) after; no list built is longer."""
    if k < 1 or r not in (1, 2):
        raise ValueError("need k >= 1 and r 1 or 2, not k=%d, r=%d" % (k, r))
    inner = 1 + m if r == 1 else 1 + m + (k + 1) * m * (m + 3)
    _check_budget(2 + 2 * k * inner, EXPANSION_BUDGET)


def expansion_consistency(traj, k, r):
    """Trace-norm defect, under S^{(k,-zeta)} with zeta = default_zeta(d), of
    the iterated mild-hierarchy expansion at the final stored time, whose
    term count is checked first (check_expansion_budget).  r = 1 is the
    defect of hierarchy_duhamel_residual; r = 2 substitutes the equation into
    itself once, with iterated Simpson quadrature over t >= t1 >= t2."""
    M = len(traj.times) - 1
    check_expansion_budget(k, r, M)
    if M < 2:
        raise ValueError("need at least 3 time points")
    integrand = _pulled_back_collisions(traj, k + r - 1, M)
    if r == 2:
        # In the interaction picture the substituted equation is the mild
        # defect with integrand U(-t1) B_{k+1} U(t1) g(t1) at each outer node
        # t1, g(t1) = gamma0^{(k+1)} - i mu sum_j w'_j I_j, where the I_j are
        # the order-(k+1) integrand above, built once per stored time.
        gs = [FactorizedDensityMatrix(k + 1, _duhamel_terms(traj, k + 1, i, integrand))
              for i in range(M + 1)]
        integrand = [hierarchy_free_evolve(collision_full(hierarchy_free_evolve(g, t1)), -t1)
                     for g, t1 in zip(gs, map(float, traj.times))]
    return _defect_norms(traj, k, [M], integrand)[0]
