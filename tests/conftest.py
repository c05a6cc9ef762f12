"""Shared builders and checks for the test corpus."""

from __future__ import annotations

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


def assert_orbit_matches_oracle(action, point):
    """orbit_cluster and tau_support equal the cyclotomic-scalar oracle; returns the tau."""
    cluster, freeness = orbit_cluster(action, point)
    want_cluster, want_freeness, want_tau = oracle_orbit(action, point)
    assert cluster == want_cluster
    assert freeness == want_freeness
    tau = tau_support(action, cluster)
    assert tau == want_tau
    return tau


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
