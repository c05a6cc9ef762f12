"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -rA tests/test_acceptance.py` (or plain `pytest`, the
project config already enables -rA) to see the summary lines.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from conftest import ABELIAN_N2_CORPUS, cyclic_action, product_index, sl2_action
from ghilb_kit.cluster import (
    enumerate_torus_fixed_clusters,
    is_ideal_subspace,
    orbit_cluster,
    subspace_rows_of_monomial_cluster,
    tau_support,
    verify_cluster,
)
from ghilb_kit.cyclotomic import (
    CyclotomicNumber,
    common_conductor,
    embed_to_conductor,
)
from ghilb_kit.exact_linalg import RationalMatrix, kernel_basis_rows, rank
from ghilb_kit.group_rep import FiniteAbelianGroup
from ghilb_kit.monomial_algebra import (
    Monomial,
    MonomialIdeal,
    coinvariant_algebra,
    quotient_staircase,
    taylor_syzygies,
)
from ghilb_kit.tangent import eq8_map, mckay_table, relative_tangent_space, tangent_space
from oracles import (
    oracle_character_value,
    oracle_eval,
    oracle_relative_tangent_dim,
    oracle_staircases,
    oracle_tangent_dim,
)

F = Fraction


@contextmanager
def criterion(number: int, description: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit, \
        f"criterion {number} took {elapsed:.2f}s, limit {limit}s"
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_fiber_census():
    with criterion(1, "torus-fixed cluster census matches exhaustive search, r=2..7", 5.0):
        for r in range(2, 8):
            action = sl2_action(r)
            clusters = enumerate_torus_fixed_clusters(action)
            assert len(clusters) == r
            expected = oracle_staircases(action, coinvariant_algebra(action).basis)
            assert {frozenset(c.staircase) for c in clusters} == set(expected)
            assert len(clusters) == len(expected)
            for c in clusters:
                report = verify_cluster(action, c.ideal)
                assert report.is_cluster
                assert sorted(report.characters) == sorted(action.group.characters())


def test_criterion_2_smooth_tangent_dimensions():
    with criterion(2, "tangent dimension is 2 at every census cluster", 5.0):
        for r in range(2, 8):
            action = sl2_action(r)
            for c in enumerate_torus_fixed_clusters(action):
                assert tangent_space(action, c).dimension == 2
                assert oracle_tangent_dim(action, c.ideal, c.staircase) == 2


def test_criterion_3_restriction_map():
    with criterion(3, "restriction map iso for r=2..7, injective on the n=2 corpus", 10.0):
        for r in range(2, 8):
            action = sl2_action(r)
            coinv = coinvariant_algebra(action)
            for c in enumerate_torus_fixed_clusters(action):
                assert eq8_map(coinv, c).isomorphism
        for action in ABELIAN_N2_CORPUS:
            coinv = coinvariant_algebra(action)
            for c in enumerate_torus_fixed_clusters(action):
                assert eq8_map(coinv, c).injective


def test_criterion_4_mckay_coverage():
    with criterion(4, "every nontrivial character covered, incidence stable, r=2..7", 5.0):
        for r in range(2, 8):
            action = sl2_action(r)
            table = mckay_table(action)
            assert table.all_nontrivial_covered
            assert table.missing == ()
            covered = {chi for chi, _ in table.incidence}
            nontrivial = {chi for chi in action.group.characters() if not chi.is_trivial}
            assert covered == nontrivial
            again = mckay_table(action)
            assert again.incidence == table.incidence


def test_criterion_5_free_orbit_triangle():
    with criterion(5, "free orbits verify, criteria agree, tau = direct evaluation", 10.0):
        rng = random.Random(1105)
        for r in range(2, 6):
            action = sl2_action(r)
            zeta = CyclotomicNumber.root_of_unity(r)
            for _ in range(10):
                a = F(rng.choice([1, -1, 2, 3, 5]), rng.randint(1, 3))
                first = zeta ** rng.randrange(r) * a
                if rng.random() < 0.5:
                    second = zeta ** rng.randrange(r) * F(rng.randint(-4, 4))
                else:
                    second = CyclotomicNumber.from_rational(F(rng.randint(-4, 4)), r)
                point = (first, second)
                cluster, freeness = orbit_cluster(action, point)
                assert freeness.is_free
                assert freeness.free_by_orbit_size and freeness.free_by_trace
                assert freeness.criteria_agree
                report = verify_cluster(action, cluster)
                assert report.is_cluster
                tau = tau_support(action, cluster)
                m = common_conductor(list(point) + list(tau.values))
                lifted = [embed_to_conductor(c, m) if isinstance(c, CyclotomicNumber)
                          else CyclotomicNumber.from_rational(F(c), m) for c in point]
                for gen, value in zip(tau.generators, tau.values):
                    direct = oracle_eval(gen, lifted)
                    got = embed_to_conductor(value, m) if isinstance(value, CyclotomicNumber) \
                        else CyclotomicNumber.from_rational(F(value), m)
                    assert got == direct


def test_criterion_6_coinvariant_dimensions():
    with criterion(6, "dim of the coinvariant algebra is 2r-1, associativity exhaustive", 2.0):
        for r in range(2, 8):
            coinv = coinvariant_algebra(sl2_action(r))
            assert coinv.dim == 2 * r - 1
        for r in range(2, 5):
            coinv = coinvariant_algebra(sl2_action(r))
            for i, j, k in itertools.product(range(coinv.dim), repeat=3):
                ij = product_index(coinv, i, j)
                jk = product_index(coinv, j, k)
                left = product_index(coinv, ij, k) if ij is not None else None
                right = product_index(coinv, i, jk) if jk is not None else None
                assert left == right


def test_criterion_7_relative_chain_profile():
    with criterion(7, "fiber tangent dims: 1 twice and 2 at r-2 clusters, r=3..7", 5.0):
        for r in range(3, 8):
            action = sl2_action(r)
            coinv = coinvariant_algebra(action)
            dims = []
            for c in enumerate_torus_fixed_clusters(action):
                got = relative_tangent_space(coinv, c).dimension
                rows = [list(row) for row in subspace_rows_of_monomial_cluster(coinv, c)]
                assert got == oracle_relative_tangent_dim(coinv, rows)
                dims.append(got)
            assert Counter(dims) == Counter({1: 2, 2: r - 2})


def test_criterion_8_property_suites():
    with criterion(8, "five randomized property suites, 200 cases each", 30.0):
        rng = random.Random(2026)
        pool = [sl2_action(r) for r in (2, 3, 4, 5, 6)] + \
            [cyclic_action(4, (1, 1)), cyclic_action(4, (1, 2)), cyclic_action(8, (1, 3))]
        coinvs = [coinvariant_algebra(a) for a in pool]

        for _ in range(200):  # weight homomorphism
            coinv = rng.choice(coinvs)
            i, j = rng.randrange(coinv.dim), rng.randrange(coinv.dim)
            p = product_index(coinv, i, j)
            if p is not None:
                assert coinv.weights[p] == coinv.weights[i] + coinv.weights[j]

        for _ in range(200):  # syzygy annihilation
            n = rng.choice([2, 2, 3])
            gens = {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(2, 5))}
            gens = {g for g in gens if any(g)}
            if not gens:
                continue
            ideal = MonomialIdeal(n, tuple(Monomial(g) for g in gens))
            for rel in taylor_syzygies(ideal):
                (i, (si, ui)), (j, (sj, uj)) = sorted(rel.items())
                assert si * sj == -1
                assert ui * ideal.min_gens[i] == uj * ideal.min_gens[j]

        for _ in range(200):  # ideal closure invariant under row operations
            coinv = rng.choice(coinvs)
            clusters = enumerate_torus_fixed_clusters(coinv.action)
            rows = [list(r) for r in
                    subspace_rows_of_monomial_cluster(coinv, rng.choice(clusters))]
            for _ in range(4):
                a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
                if a != b:
                    c = F(rng.randint(-3, 3))
                    rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
                else:
                    rows[a] = [F(rng.choice([2, 3, -1])) * x for x in rows[a]]
            assert is_ideal_subspace(coinv, rows)

        groups = [FiniteAbelianGroup((m,)) for m in (2, 3, 4, 5, 6)] + \
            [FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((2, 4))]
        for _ in range(200):  # character orthogonality
            group = rng.choice(groups)
            chars = list(group.characters())
            chi, psi = rng.choice(chars), rng.choice(chars)
            m = group.exponent
            total = CyclotomicNumber.from_rational(0, m)
            for g in group.elements():
                inverse = tuple(-c for c in g)
                total = total + oracle_character_value(group, g, chi) * \
                    oracle_character_value(group, inverse, psi)
            expected = F(group.order) if chi == psi else F(0)
            assert total.is_rational() and total.rational_value() == expected

        for _ in range(200):  # rank-nullity
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)]
                    for _ in range(nrows)]
            nullity = len(kernel_basis_rows(rows, ncols))
            flat = tuple(x for row in rows for x in row)
            assert rank(RationalMatrix(nrows, ncols, flat)) + nullity == ncols
