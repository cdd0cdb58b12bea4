"""Collision maps, the product-expansion identity, and expansion
consistency of the iterated mild hierarchy."""

import math

import numpy as np
import pytest

from nlslab import combinatorics as combinatorics_module
from nlslab import hierarchy as hierarchy_module
from nlslab.combinatorics import (
    CollisionMap,
    collision_map_count,
    enumerate_collision_maps,
    expansion_consistency,
    verify_product_identity,
)
from nlslab.solver import solve_nls
from nlslab.torus import TorusGeometry, random_shell_field

GEOM = TorusGeometry(1, (1.0,), (32,))


def test_count_matches_enumeration():
    for k in range(1, 5):
        for r in range(1, 6):
            maps = enumerate_collision_maps(k, r)
            assert len(maps) == collision_map_count(k, r)
            assert len(set(m.values for m in maps)) == len(maps)


def test_count_closed_form():
    for k in range(1, 5):
        for r in range(1, 6):
            expect = math.factorial(k + r - 1) // math.factorial(k - 1)
            assert collision_map_count(k, r) == expect


def test_enumeration_is_lexicographic():
    maps = enumerate_collision_maps(2, 3)
    vals = [m.values for m in maps]
    assert vals == sorted(vals)
    assert vals[0] == (1, 1, 1)
    assert vals[-1] == (2, 3, 4)


def test_collision_map_validation():
    with pytest.raises(ValueError):
        CollisionMap(2, 2, (1, 4))  # sigma(4) must be <= 3
    with pytest.raises(ValueError):
        CollisionMap(2, 2, (0, 1))
    with pytest.raises(ValueError):
        enumerate_collision_maps(8, 5)  # budget k + r <= 12


def test_collision_map_str_format():
    m = CollisionMap(2, 2, (1, 3))
    assert str(m) == "2 2 : 1 3"


def test_product_identity_polynomial_exact():
    rng = np.random.default_rng(0)
    for m in range(1, 5):
        F = list(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        coefs = rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4))
        G = [
            (lambda tau, a=coefs[i]: a[0] + a[1] * tau + a[2] * tau ** 2 + a[3] * tau ** 3)
            for i in range(m)
        ]
        assert verify_product_identity(m, F, G, 0.8) < 1e-10


def test_product_identity_trivial_cases():
    # all G = 0: both sides reduce to prod F
    F = [2.0, -1.5]
    G = [lambda t: 0.0, lambda t: 0.0]
    assert verify_product_identity(2, F, G, 1.0) < 1e-14
    # all F = 0, single factor: both sides are the plain integral
    assert verify_product_identity(1, [0.0], [lambda t: t], 1.0) < 1e-14


def test_expansion_consistency_halves():
    phi0 = random_shell_field(GEOM, 2, 0)
    for r in (1, 2):
        vals = []
        for dt in (0.025, 0.0125):
            traj = solve_nls(phi0, 0.2, dt)
            vals.append(expansion_consistency(traj, 1, r))
        assert vals[0] / vals[1] > 2.0, (r, vals)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_expansion_budget_counts_the_defect(monkeypatch, k, r):
    # the closed form that check_expansion_budget checks is the rank of the
    # defect whose trace norm is taken
    counted, ranks = [], []
    check = combinatorics_module._check_budget

    def spy_check(n, limit):
        counted.append(n)
        check(n, limit)

    def spy_norms(gammas, alpha):
        ranks.extend(g.rank for g in gammas)
        return [0.0] * len(gammas)

    monkeypatch.setattr(combinatorics_module, "_check_budget", spy_check)
    monkeypatch.setattr(hierarchy_module, "trace_norms", spy_norms)
    phi0 = random_shell_field(GEOM, 2, 4)
    for M in (2, 3, 5):
        expansion_consistency(solve_nls(phi0, 0.01 * M, 0.01), k, r)
    assert len(ranks) == 3
    assert counted == ranks


def test_expansion_rejects_r3():
    traj = solve_nls(random_shell_field(GEOM, 2, 1), 0.02, 0.01)
    with pytest.raises(ValueError):
        expansion_consistency(traj, 1, 3)
