"""Shared builders and checks for the test corpus."""

from __future__ import annotations

import itertools
from decimal import Decimal

import pytest

from ghilb_kit.cluster import orbit_cluster, tau_support
from ghilb_kit.group_rep import ActionData, FiniteAbelianGroup
from oracles import oracle_orbit


def cyclic_action(r: int, weights) -> ActionData:
    group = FiniteAbelianGroup(() if r == 1 else (r,))
    chars = tuple(group.character(() if r == 1 else (a,)) for a in weights)
    return ActionData(group, len(chars), chars)


def product_action(divisors, weights) -> ActionData:
    group = FiniteAbelianGroup(tuple(divisors))
    chars = tuple(group.character(tuple(w)) for w in weights)
    return ActionData(group, len(chars), chars)


def sl2_action(r: int) -> ActionData:
    return cyclic_action(r, (1, r - 1))


# scalars that are not exact rationals; Fraction() once read 0.1 as its binary
# value and parsed "3/2", so each is rejected with TypeError
inexact_scalars = pytest.mark.parametrize(
    "bad", [0.1, "3/2", Decimal("0.5")], ids=["float", "str", "Decimal"])


def product_index(coinv, i, j):
    """Basis index of basis[i]*basis[j] in the coinvariant algebra, or None when
    the product is zero, read off monomial_times_vector on the unit vector e_j."""
    unit = [0] * coinv.dim
    unit[j] = 1
    image = coinv.monomial_times_vector(coinv.basis[i], unit)
    return next((k for k, c in enumerate(image) if c), None)


def assert_orbit_matches_oracle(action, point):
    """orbit_cluster and tau_support equal the cyclotomic-scalar oracle; returns the tau."""
    cluster, freeness = orbit_cluster(action, point)
    want_cluster, want_freeness, want_tau = oracle_orbit(action, point)
    assert cluster == want_cluster
    assert freeness == want_freeness
    tau = tau_support(action, cluster)
    assert tau == want_tau
    return tau


def sweep_actions() -> list:
    """Faithful Z/r (1, a) for r <= 16, Z/r (a, b, c) for 1 <= a <= b <= c < r <= 8,
    and the 2x2 and 3x3 products in SL(3)."""
    actions = [cyclic_action(r, (1, a)) for r in range(2, 17) for a in range(1, r)]
    actions += [cyclic_action(r, w) for r in range(2, 9)
                for w in itertools.combinations_with_replacement(range(1, r), 3)]
    for d in (2, 3):
        for w1, w2 in itertools.product(itertools.product(range(d), repeat=2), repeat=2):
            w3 = tuple(-a - b for a, b in zip(w1, w2))
            actions.append(product_action((d, d), (w1, w2, w3)))
    return [a for a in actions if a.is_faithful()]


# faithful two-variable actions with |G| <= 12, used for the wide sweeps
ABELIAN_N2_CORPUS = [
    *(sl2_action(r) for r in range(2, 13)),
    *(cyclic_action(r, (1, 1)) for r in (2, 3, 4, 6)),
    cyclic_action(4, (1, 2)),
    cyclic_action(8, (1, 3)),
    cyclic_action(9, (1, 5)),
    cyclic_action(10, (1, 3)),
    cyclic_action(12, (1, 5)),
    cyclic_action(12, (1, 7)),
    product_action((2, 2), ((1, 0), (0, 1))),
    product_action((2, 2), ((1, 1), (0, 1))),
    product_action((2, 4), ((1, 0), (0, 1))),
    product_action((2, 6), ((1, 0), (0, 1))),
    product_action((3, 3), ((1, 0), (0, 1))),
    product_action((3, 4), ((1, 0), (0, 1))),
]


@pytest.fixture
def z2() -> ActionData:
    return sl2_action(2)


@pytest.fixture
def z3() -> ActionData:
    return sl2_action(3)


@pytest.fixture
def z4_gl() -> ActionData:
    return cyclic_action(4, (1, 2))


@pytest.fixture
def v4() -> ActionData:
    return product_action((2, 2), ((1, 0), (0, 1)))


@pytest.fixture
def trivial() -> ActionData:
    return cyclic_action(1, (0,))
