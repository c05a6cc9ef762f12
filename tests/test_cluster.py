"""Cluster verification, enumeration, orbits, tau and the closure test."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import ghilb_kit.cluster as cluster_module
from conftest import (
    assert_orbit_matches_oracle,
    cyclic_action,
    inexact_scalars,
    product_action,
    sl2_action,
    sweep_actions,
)
from ghilb_kit.cluster import (
    ClusterReport,
    GCluster,
    IntegrityError,
    enumerate_torus_fixed_clusters,
    evaluation_kernel,
    is_ideal_subspace,
    monomial_cluster,
    orbit_cluster,
    subspace_cluster,
    subspace_rows_of_monomial_cluster,
    tau_support,
    verify_cluster,
)
from ghilb_kit.cli import parse_action_spec
from ghilb_kit.cyclotomic import CyclotomicNumber
from ghilb_kit.group_rep import DomainError, character_index, weight_of_monomial
from ghilb_kit.monomial_algebra import Monomial, MonomialIdeal, coinvariant_algebra
from ghilb_kit.tangent import eq8_map, relative_data, relative_tangent_space, stratification_rep, tangent_space
from oracles import (
    oracle_cluster_cone,
    oracle_eval,
    oracle_hj_clusters,
    oracle_invariant_relations,
    oracle_is_regular_representation,
    oracle_junior_points,
    oracle_min_gens,
    oracle_relations_hold,
    oracle_staircases,
)

F = Fraction


def mono(*exponents) -> Monomial:
    return Monomial(tuple(exponents))


def ideal(n, *gens) -> MonomialIdeal:
    return MonomialIdeal(n, tuple(Monomial(g) for g in gens))


class TestVerifyMonomial:
    def test_z2_cluster(self, z2):
        report = verify_cluster(z2, ideal(2, (0, 1), (2, 0)))
        assert report.is_cluster
        assert report.quotient_dim == 2
        assert report.failure_reason is None
        assert oracle_is_regular_representation(z2.group, report.characters)

    def test_dimension_failure(self, z2):
        report = verify_cluster(z2, ideal(2, (1, 0), (0, 1)))
        assert not report.is_cluster
        assert report.failure_reason == "dimension 1 ≠ 2"

    def test_dimension_failure_z3(self, z3):
        report = verify_cluster(z3, ideal(2, (1, 0), (0, 1)))
        assert report.failure_reason == "dimension 1 ≠ 3"

    def test_non_integer_exponents_rejected(self, z3):
        # truncated exponents once gave the domain answer "dimension 2 ≠ 3"
        with pytest.raises(TypeError):
            verify_cluster(z3, MonomialIdeal(2, [(2.5, 0), (0.5, 1), (0, 2)]))

    def test_character_multiset_failure(self):
        action = cyclic_action(4, (1, 2))
        report = verify_cluster(action, ideal(2, (1, 0), (0, 4)))
        assert report.quotient_dim == 4
        assert not report.is_cluster
        assert report.failure_reason == "character multiset is not the regular representation"

    def test_infinite_quotient(self, z2):
        report = verify_cluster(z2, ideal(2, (2, 0)))
        assert not report.is_cluster
        assert report.failure_reason == "quotient not finite"
        assert report.quotient_dim is None

    def test_cap_override(self, z2):
        big = ideal(2, (5, 0), (0, 5))  # staircase size 25 > 4*|G| = 8
        past_cap = verify_cluster(z2, big)
        assert past_cap.failure_reason == "dimension 25 ≠ 2"
        assert past_cap.quotient_dim == 25
        assert past_cap.characters is None

    def test_finite_past_cap_gets_dimension_reason(self, z2):
        report = verify_cluster(z2, ideal(2, (9, 0), (0, 1)))
        assert not report.is_cluster
        assert report.quotient_dim == 9
        assert report.failure_reason == "dimension 9 ≠ 2"

    def test_report_carries_its_staircase(self, z2):
        cluster = ideal(2, (0, 1), (2, 0))
        assert [m.exponents for m in verify_cluster(z2, cluster).staircase] == [(0, 0), (1, 0)]
        small = verify_cluster(z2, ideal(2, (1, 0), (0, 1)))
        assert [m.exponents for m in small.staircase] == [(0, 0)]
        assert verify_cluster(z2, ideal(2, (5, 0), (0, 5))).staircase is None
        assert verify_cluster(z2, ideal(2, (2, 0))).staircase is None


class TestFromQuotient:
    """One verdict for every presentation: dimension first, then the characters."""

    def test_ladder(self, z3):
        group = z3.group
        chars = tuple(sorted(group.characters()))
        report = ClusterReport.from_quotient(group, 3, (2, 0, 1))
        assert report == ClusterReport(True, 3, chars, None)
        assert all(a is b for a, b in zip(report.characters, group.indexed_characters))
        short = ClusterReport.from_quotient(group, 2, None)
        assert short == ClusterReport(False, 2, None, "dimension 2 ≠ 3")
        doubled = ClusterReport.from_quotient(group, 3, (0, 0, 0))
        assert doubled.failure_reason == "character multiset is not the regular representation"
        assert doubled.characters == (chars[0],) * 3
        assert ClusterReport.from_quotient(group, 3, (0, 1)).failure_reason == doubled.failure_reason

    @pytest.mark.parametrize("indices", [(0, 1, -1), (0, 1, 5), (3,), (-4, 0, 1)])
    def test_index_outside_the_group_rejected(self, z3, indices):
        # (0, 1, -1) once read chi2 through the negative index and was called
        # no regular representation with every character once; (0, 1, 5) raised IndexError
        with pytest.raises(ValueError, match=r"a character index lies outside range\(3\)"):
            ClusterReport.from_quotient(z3.group, 3, indices)

    def test_staircase_passes_through(self, z2):
        stair = (Monomial((0, 0)), Monomial((1, 0)))
        indices = [character_index(weight_of_monomial(z2, m.exponents)) for m in stair]
        report = ClusterReport.from_quotient(z2.group, 2, indices, stair)
        assert report.is_cluster and report.staircase == stair
        assert ClusterReport.from_quotient(z2.group, 1, indices[:1], stair[:1]).staircase == stair[:1]


class TestVerifySubspace:
    def test_deformed_cluster(self, z2):
        for t in (F(0), F(1), F(-3, 2)):
            rows = [[F(0), F(1), -t]]  # span{y - t*x} in the basis 1, y, x
            report = verify_cluster(z2, rows)
            assert report.is_cluster, report.failure_reason

    def test_dimension_first(self, z3):
        rows = [[F(0), F(1), F(1), F(0), F(0)]]  # span{y + x}, quotient dim 4
        report = verify_cluster(z3, rows)
        assert report.failure_reason == "dimension 4 ≠ 3"

    def test_not_graded(self, z3):
        rows = [
            [F(0), F(1), F(1), F(0), F(0)],  # y + x, mixed weights
            [F(0), F(0), F(0), F(0), F(1)],  # x^2
        ]
        report = verify_cluster(z3, rows)
        assert not report.is_cluster
        assert report.failure_reason == "subspace is not weight-graded"

    def test_closure_failure(self, z3):
        rows = [
            [F(0), F(0), F(1), F(0), F(0)],  # x
            [F(0), F(1), F(0), F(0), F(0)],  # y
        ]
        report = verify_cluster(z3, rows)
        assert not report.is_cluster
        assert report.failure_reason == "subspace fails the ideal-closure test"

    def test_column_mismatch(self, z3):
        with pytest.raises(ValueError):
            verify_cluster(z3, [[F(1), F(0)]])

    @inexact_scalars
    def test_inexact_entries_rejected(self, z2, bad):
        zeta3 = CyclotomicNumber.root_of_unity(3)
        for rows in ([[F(0), F(1), bad]], [[F(0), zeta3, bad]]):
            for check in (lambda: verify_cluster(z2, rows),
                          lambda: is_ideal_subspace(coinvariant_algebra(z2), rows)):
                with pytest.raises(TypeError, match="expected an int or a Fraction"):
                    check()

    def test_int_bool_and_fraction_entries_read_alike(self, z2):
        coinv = coinvariant_algebra(z2)
        z4 = CyclotomicNumber.root_of_unity(4)
        for rows, same in (([[0, True, -2]], [[F(0), F(1), F(-2)]]),
                           ([[0, z4, True]], [[F(0), z4, F(1)]])):
            assert subspace_cluster(coinv, rows) == subspace_cluster(coinv, same)


class TestIsIdealSubspace:
    def test_z2_line_always_ideal(self, z2):
        coinv = coinvariant_algebra(z2)
        rng = random.Random(41)
        for _ in range(10):
            alpha, beta = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
            if alpha == 0 and beta == 0:
                alpha = F(1)
            assert is_ideal_subspace(coinv, [[F(0), beta, alpha]])

    def test_z3_span_x_not_ideal(self, z3):
        coinv = coinvariant_algebra(z3)
        x_row = [F(0)] * coinv.dim
        x_row[coinv.index_of(mono(1, 0))] = F(1)
        assert not is_ideal_subspace(coinv, [x_row])

    def test_zero_subspace(self, z3):
        coinv = coinvariant_algebra(z3)
        assert is_ideal_subspace(coinv, [])
        assert is_ideal_subspace(coinv, [[F(0)] * coinv.dim])

    def test_column_mismatch(self, z3):
        coinv = coinvariant_algebra(z3)
        with pytest.raises(ValueError):
            is_ideal_subspace(coinv, [[F(1)]])

    def test_row_operation_invariance(self):
        rng = random.Random(42)
        action = sl2_action(4)
        coinv = coinvariant_algebra(action)
        clusters = enumerate_torus_fixed_clusters(action)
        for _ in range(30):
            cluster = rng.choice(clusters)
            rows = [list(r) for r in subspace_rows_of_monomial_cluster(coinv, cluster)]
            for _ in range(6):
                i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
                c = F(rng.randint(-3, 3))
                if i == j:
                    if c:
                        rows[i] = [c * e for e in rows[i]]
                else:
                    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            assert is_ideal_subspace(coinv, rows)


class TestEnumerate:
    def test_z2_census(self, z2):
        clusters = enumerate_torus_fixed_clusters(z2)
        gens = [[g.to_text() for g in c.ideal.min_gens] for c in clusters]
        assert gens == [["x2", "x1^2"], ["x1", "x2^2"]]

    def test_z3_census(self, z3):
        clusters = enumerate_torus_fixed_clusters(z3)
        gens = [[g.to_text() for g in c.ideal.min_gens] for c in clusters]
        assert gens == [["x2", "x1^3"], ["x1", "x2^3"],
                        ["x2^2", "x1*x2", "x1^2"]]

    def test_sl2_counts(self):
        for r in range(2, 8):
            assert len(enumerate_torus_fixed_clusters(sl2_action(r))) == r

    @pytest.mark.parametrize("r", range(2, 31))
    def test_cyclic_surface_equals_hirzebruch_jung_oracle(self, r):
        for a in [a for a in range(1, r) if math.gcd(a, r) == 1]:
            clusters = enumerate_torus_fixed_clusters(cyclic_action(r, (1, a)))
            got = [frozenset(g.exponents for g in c.ideal.min_gens) for c in clusters]
            want = oracle_hj_clusters(r, a)
            assert len(got) == len(want) and set(got) == set(want), (r, a)

    def test_round_trip_verification(self):
        for action in (sl2_action(5), cyclic_action(4, (1, 1)), cyclic_action(4, (1, 2)),
                       product_action((2, 2), ((1, 0), (0, 1)))):
            for cluster in enumerate_torus_fixed_clusters(action):
                report = verify_cluster(action, cluster)
                assert report.is_cluster
                assert oracle_is_regular_representation(action.group, report.characters)

    def test_matches_exhaustive_oracle(self):
        for action in (sl2_action(2), sl2_action(3), sl2_action(4), sl2_action(6),
                       cyclic_action(4, (1, 1)), cyclic_action(4, (1, 2)),
                       product_action((2, 2), ((1, 0), (0, 1))),
                       product_action((2, 3), ((1, 1), (1, 2)))):
                coinv = coinvariant_algebra(action)
                expected = oracle_staircases(action, coinv.basis)
                got = {frozenset(c.staircase) for c in enumerate_torus_fixed_clusters(action)}
                assert got == expected

    def test_matches_exhaustive_oracle_three_variables(self):
        rng = random.Random(23)
        actions = [product_action((2, 2), ((1, 0), (0, 1), (1, 1)))]
        while len(actions) < 7:
            r = rng.randint(2, 6)
            action = cyclic_action(r, [rng.randrange(1, r) for _ in range(3)])
            if action.is_faithful() and coinvariant_algebra(action).dim <= 20:
                actions.append(action)
        for action in actions:
            coinv = coinvariant_algebra(action)
            clusters = enumerate_torus_fixed_clusters(action, coinv)
            assert clusters == enumerate_torus_fixed_clusters(action)
            expected = oracle_staircases(action, coinv.basis)
            assert {frozenset(c.staircase) for c in clusters} == expected, action
            for c in clusters:
                assert c.ideal.min_gens == oracle_min_gens(c.staircase)

    def test_staircases_downward_closed(self):
        for cluster in enumerate_torus_fixed_clusters(sl2_action(6)):
            chosen = set(cluster.staircase)
            for m in chosen:
                for i, e in enumerate(m.exponents):
                    if e:
                        down = list(m.exponents)
                        down[i] -= 1
                        assert Monomial(tuple(down)) in chosen

    def test_deterministic(self, z3):
        a = enumerate_torus_fixed_clusters(z3)
        b = enumerate_torus_fixed_clusters(z3)
        assert [c.ideal for c in a] == [c.ideal for c in b]

    def test_trivial_group(self, trivial):
        clusters = enumerate_torus_fixed_clusters(trivial)
        assert len(clusters) == 1
        assert clusters[0].ideal.min_gens == (mono(1),)
        assert clusters[0].staircase == (mono(0),)

    @pytest.mark.parametrize("other", [cyclic_action(5, (1, 3)), cyclic_action(7, (1, 3))],
                             ids=["same-group", "other-group"])
    def test_coinvariant_algebra_of_another_action_rejected(self, other):
        # the basis of 1/5(1,3) would pass off a non-cluster of 1/5(1,2) as a cluster
        with pytest.raises(ValueError, match="built for another action"):
            enumerate_torus_fixed_clusters(cyclic_action(5, (1, 2)), coinvariant_algebra(other))

    def test_ideals_contain_all_invariant_generators(self, z3):
        from ghilb_kit.monomial_algebra import invariant_generators
        gens = invariant_generators(z3)
        for cluster in enumerate_torus_fixed_clusters(z3):
            for g in gens:
                assert cluster.ideal.contains(g)

    def test_enumeration_order_is_pinned(self):
        # sha256 of each cluster's minimal generators and staircase, in output
        # order, over the sweep, a trivial group and a one-variable action
        digest = hashlib.sha256()
        for action in sweep_actions() + [cyclic_action(1, (0, 0)), cyclic_action(7, (3,))]:
            for c in enumerate_torus_fixed_clusters(action):
                digest.update((" ".join(g.to_text() for g in c.ideal.min_gens) + " | "
                               + " ".join(m.to_text() for m in c.staircase) + "\n").encode())
            digest.update(b"\n")
        assert digest.hexdigest() == "67e6926503710798e41d0c1f836dcf86066caad586b1c3bd7b869cb897cbbcad"

    def test_search_reaches_its_leaves_in_lexicographic_index_order(self, monkeypatch):
        # each node walks its candidates in ascending index order, so the
        # staircases leave the search (before the final sort) in ascending
        # lexicographic order of their basis index lists
        built = []

        def recording(**fields):
            built.append(fields["staircase"])
            return GCluster(**fields)

        monkeypatch.setattr(cluster_module, "GCluster", recording)
        for action in sweep_actions():
            coinv = coinvariant_algebra(action)
            built.clear()
            clusters = enumerate_torus_fixed_clusters(action, coinv)
            assert len(built) == len(clusters)
            paths = [[coinv.index_of(m) for m in stair] for stair in built]
            assert all(path == sorted(path) for path in paths), action
            assert all(a < b for a, b in zip(paths, paths[1:])), action

    def test_tau_of_every_enumerated_cluster_is_the_origin(self):
        # the clusters command prints this constant instead of calling tau_support
        for action in sweep_actions():
            coinv = coinvariant_algebra(action)
            for c in enumerate_torus_fixed_clusters(action, coinv):
                point = tau_support(action, c.ideal, coinv)
                assert point.generators == coinv.invariant_gens
                assert point.values == (0,) * len(coinv.invariant_gens), (action, c.ideal)


def assert_mckay_fan(action, clusters=None):
    """The cones of the enumerated clusters form the fan of G-Hilb for an abelian G in SL(3).

    Each cone has three rays, each a junior point or an axis, every one of
    which is used; each is unimodular in the lattice N = Z^3 + G, of
    determinant 1/|G| with its rays scaled to sum 1; there are |G| of them;
    and they meet face to face, a 2-face lying in one cone on the boundary
    of the octant and in two inside it.  A dropped or a wrong cluster
    breaks one of these at any size of G.
    """
    assert action.is_sl_action()
    order = action.group.order
    cones = []
    if clusters is None:
        clusters = enumerate_torus_fixed_clusters(action)
    for cluster in clusters:
        rays = oracle_cluster_cone(cluster)
        assert len(rays) == 3, (action, cluster.ideal, rays)
        cones.append(tuple(tuple(F(c, sum(ray)) for c in ray) for ray in rays))
    assert len(cones) == order, action
    axes = {tuple(F(int(i == j)) for j in range(3)) for i in range(3)}
    assert set().union(*cones) == oracle_junior_points(action) | axes, action
    for a, b, c in cones:
        det = (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
               + a[2] * (b[0] * c[1] - b[1] * c[0]))
        assert abs(det) == F(1, order), (action, det)
    faces = Counter(frozenset(face) for cone in cones for face in itertools.combinations(cone, 2))
    for face, count in faces.items():
        on_boundary = any(all(ray[i] == 0 for ray in face) for i in range(3))
        assert count == (1 if on_boundary else 2), (action, face, count)


class TestMcKayFan:
    def test_cyclic_up_to_twenty(self):
        # every weight triple up to order, a zero weight included
        actions = [cyclic_action(r, w) for r in range(2, 21)
                   for w in itertools.combinations_with_replacement(range(r), 3) if sum(w) % r == 0]
        actions = [a for a in actions if a.is_faithful()]
        assert len(actions) == 460
        for action in actions:
            assert_mckay_fan(action)

    def test_sweep_products(self):
        products = [a for a in sweep_actions() if len(a.group.elementary_divisors) == 2]
        assert len(products) == 54
        for action in products:
            assert_mckay_fan(action)

    @pytest.mark.parametrize("spec", ["cyclic:36:1,5,30", "6x6;1,0|0,1|5,5", "cyclic:45:1,4,40"])
    def test_node_bound_actions(self, spec):
        assert_mckay_fan(parse_action_spec(spec))

    def test_a_dropped_or_repeated_cluster_breaks_the_fan(self):
        action = cyclic_action(7, (1, 2, 4))
        clusters = enumerate_torus_fixed_clusters(action)
        assert_mckay_fan(action, clusters)
        for wrong in (clusters[1:], clusters[:-1] + clusters[:1]):
            with pytest.raises(AssertionError):
                assert_mckay_fan(action, wrong)


class TestFactories:
    def test_monomial_cluster(self, z2):
        cluster = monomial_cluster(z2, [mono(0, 1), mono(2, 0)])
        assert cluster.kind == "monomial"
        assert verify_cluster(z2, cluster).quotient_dim == 2
        with pytest.raises(ValueError, match="not a G-cluster"):
            monomial_cluster(z2, [mono(1, 0), mono(0, 1)])

    def test_subspace_cluster(self, z2):
        coinv = coinvariant_algebra(z2)
        cluster = subspace_cluster(coinv, [[F(0), F(1), F(-2)]])
        assert cluster.kind == "subspace"
        assert verify_cluster(z2, cluster).is_cluster
        with pytest.raises(ValueError, match="not a G-cluster"):
            subspace_cluster(coinv, [[F(0), F(1), F(0)], [F(0), F(0), F(1)]])

    def test_non_clusters_are_domain_errors(self, z2):
        with pytest.raises(DomainError, match="^not a G-cluster: dimension 1 ≠ 2$"):
            monomial_cluster(z2, [mono(1, 0), mono(0, 1)])
        coinv = coinvariant_algebra(z2)
        with pytest.raises(DomainError, match="^not a G-cluster: "):
            subspace_cluster(coinv, [[F(0), F(1), F(0)], [F(0), F(0), F(1)]])

    def test_subspace_rows_of_ideal_on_other_variables_rejected(self):
        # Z/3 (1, 2) acts on two variables; (x1, x2, x3) lives on three
        coinv = coinvariant_algebra(cyclic_action(3, (1, 2)))
        with pytest.raises(ValueError, match="the ideal has 3 variables, the action 2"):
            subspace_rows_of_monomial_cluster(coinv, ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_gcluster_payload_validation(self, z2):
        with pytest.raises(ValueError):
            GCluster(kind="monomial", action=z2)
        with pytest.raises(ValueError):
            GCluster(kind="weird", action=z2, ideal=ideal(2, (0, 1)))
        # a cluster holds exactly the payload of its kind, so no operation meets a
        # monomial one without its staircase or an orbit one without its conductor
        monomial = monomial_cluster(z2, ideal(2, (0, 1), (2, 0)))
        orbit, _ = orbit_cluster(z2, (F(1), F(1)))
        for fields in ({"kind": "monomial", "ideal": monomial.ideal},
                       {"kind": "orbit", "points": orbit.points},
                       {"kind": "monomial", "ideal": monomial.ideal, "staircase": monomial.staircase,
                        "rows": ((F(0), F(1), F(0)),)}):
            with pytest.raises(ValueError, match="sets exactly"):
                GCluster(action=z2, **fields)

    def test_gcluster_is_its_kind_action_and_payload(self):
        # no field outside the payloads can cache data that == and hash would read
        names = [f.name for f in dataclasses.fields(GCluster)]
        assert names == ["kind", "action", "ideal", "staircase", "rows", "conductor", "points"]
        payloads = list(cluster_module._PAYLOADS.values())
        assert all(len(payload) == len(names) - 2 for payload in payloads)
        assert all(map(any, zip(*payloads)))

    def test_equal_payloads_give_equal_clusters(self):
        for action in sweep_actions():
            for c in enumerate_torus_fixed_clusters(action):
                for other in (monomial_cluster(action, c.ideal),
                              GCluster("monomial", action, ideal=c.ideal, staircase=c.staircase)):
                    assert other == c and hash(other) == hash(c), (action, c.ideal)


class TestOrbit:
    def test_z2_free_point(self, z2):
        cluster, freeness = orbit_cluster(z2, (F(1), F(1)))
        assert freeness.is_free and freeness.criteria_agree
        assert freeness.orbit_size == 2
        report = verify_cluster(z2, cluster)
        assert report.is_cluster and report.quotient_dim == 2
        point = tau_support(z2, cluster)
        assert [v.rational_value() for v in point.values] == [1, 1, 1]

    def test_z3_origin(self, z3):
        cluster, freeness = orbit_cluster(z3, (F(0), F(0)))
        assert freeness.orbit_size == 1
        assert not freeness.is_free
        assert freeness.criteria_agree
        assert len(freeness.stabilizer) == 3
        report = verify_cluster(z3, cluster)
        assert report.failure_reason == "dimension 1 ≠ 3"

    def test_z3_tau_example(self, z3):
        cluster, freeness = orbit_cluster(z3, (F(1), F(0)))
        assert freeness.is_free
        point = tau_support(z3, cluster)
        values = {g.to_text(): v for g, v in zip(point.generators, point.values)}
        assert values["x1*x2"] == 0
        assert values["x2^3"] == 0
        assert values["x1^3"] == 1

    def test_partial_stabilizer(self):
        action = cyclic_action(4, (1, 2))
        cluster, freeness = orbit_cluster(action, (F(0), F(1)))
        assert freeness.orbit_size == 2
        assert not freeness.is_free
        assert not freeness.free_by_trace
        assert freeness.criteria_agree
        assert freeness.stabilizer == ((0,), (2,))

    def test_distinct_orbits_distinct_ideals(self, z2):
        a, _ = orbit_cluster(z2, (F(1), F(1)))
        b, _ = orbit_cluster(z2, (F(2), F(2)))
        assert set(a.points) != set(b.points)
        mons_a, ker_a = evaluation_kernel(z2, a)
        mons_b, ker_b = evaluation_kernel(z2, b)
        assert mons_a == mons_b
        assert ker_a != ker_b
        tau_a = tau_support(z2, a).values
        tau_b = tau_support(z2, b).values
        assert tau_a != tau_b

    def test_cyclotomic_point(self):
        action = cyclic_action(4, (1, 3))
        z = CyclotomicNumber.root_of_unity(4)
        cluster, freeness = orbit_cluster(action, (z, F(1)))
        assert freeness.is_free and freeness.criteria_agree
        assert verify_cluster(action, cluster).is_cluster
        point = tau_support(action, cluster)
        for g, v in zip(point.generators, point.values):
            assert v == oracle_eval(g, (z, CyclotomicNumber.one(4)))

    @inexact_scalars
    def test_inexact_coordinates_rejected(self, z2, bad):
        # 0.1 was placed as 3602879701896397/36028797018963968 and "3/2" was parsed
        for point in ((bad, F(1)), (CyclotomicNumber.root_of_unity(4), bad)):
            with pytest.raises(TypeError, match="expected an int or a Fraction"):
                orbit_cluster(z2, point)

    def test_int_and_bool_coordinates_read_as_fractions(self, z2):
        assert orbit_cluster(z2, (True, 2)) == orbit_cluster(z2, (F(1), F(2)))

    def test_orbit_points_deterministic(self, z3):
        a, _ = orbit_cluster(z3, (F(1), F(2)))
        b, _ = orbit_cluster(z3, (F(1), F(2)))
        assert a.points == b.points

    def test_orbit_compares_no_cyclotomic_numbers(self, monkeypatch):
        # stabilizer and characters come from the integer fixing test alone
        action = cyclic_action(6, (1, 5))
        point = (CyclotomicNumber.root_of_unity(3) + 2, F(-1, 2))
        want = orbit_cluster(action, point)
        compared = []
        eq = CyclotomicNumber.__eq__

        def counted(a, b):
            compared.append((a, b))
            return eq(a, b)

        monkeypatch.setattr(CyclotomicNumber, "__eq__", counted)
        got = orbit_cluster(action, point)
        assert compared == []
        monkeypatch.undo()
        assert got == want
        assert got[1].is_free

    @pytest.mark.parametrize("action,point", [
        (cyclic_action(6, (1, 5)), (F(1), F(2))),
        (cyclic_action(4, (1, 2)), (F(0), F(1))),
        (cyclic_action(6, (2, 3)), (F(0), F(0))),
        (product_action((2, 4), ((1, 0), (0, 1))), (F(3), F(0))),
    ], ids=["free", "partial", "origin", "product-axis"])
    def test_orbit_characters_make_no_cyclotomic_number(self, action, point, monkeypatch):
        cluster, freeness = orbit_cluster(action, point)

        def forbidden(*args, **kwargs):
            raise AssertionError("a cyclotomic number was built")

        monkeypatch.setattr(CyclotomicNumber, "from_polynomial", forbidden)
        monkeypatch.setattr(CyclotomicNumber, "__init__", forbidden)
        monkeypatch.setattr(CyclotomicNumber, "_from_ints", forbidden)
        chars = cluster_module._orbit_characters(
            action.group, freeness.fixed_point_counts, freeness.orbit_size)
        assert chars == freeness.characters


def _rank_cases():
    """Seeded rational, cyclotomic and on-axis orbit points, one param each."""
    rng = random.Random(4)
    actions = [
        *(("z%d-1,%d" % (r, r - 1), sl2_action(r)) for r in range(2, 7)),
        ("z4-1,2", cyclic_action(4, (1, 2))),
        ("z6-2,3", cyclic_action(6, (2, 3))),
        ("z3-1,1,1", cyclic_action(3, (1, 1, 1))),
        ("z2xz2", product_action((2, 2), ((1, 0), (0, 1)))),
    ]
    cases = [pytest.param(sl2_action(3), (F(1), F(1)), id="z3-1,2-(1,1)")]
    for name, action in actions:
        n = action.num_variables

        def rational():
            return F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))

        def cyclotomic():
            root = CyclotomicNumber.root_of_unity(rng.choice((3, 4)), rng.randint(0, 3))
            return root * rng.randint(1, 3)

        points = {
            "rational": tuple(rational() for _ in range(n)),
            "cyclotomic": tuple(cyclotomic() for _ in range(n)),
            "origin": (F(0),) * n,
            **{f"axis{k}": tuple(F(0) if i == k else rational() for i in range(n)) for k in range(n)},
        }
        cases.extend(pytest.param(action, p, id=f"{name}-{kind}") for kind, p in points.items())
    return cases


class TestEvaluationKernel:
    def test_kernel_vanishes_on_points(self, z3):
        cluster, _ = orbit_cluster(z3, (F(2), F(1)))
        monomials, kernel = evaluation_kernel(z3, cluster)
        for vec in kernel:
            for p in cluster.points:
                total = CyclotomicNumber.from_rational(0, cluster.conductor)
                for coeff, m in zip(vec, monomials):
                    if coeff:
                        total = total + coeff * oracle_eval(m, p)
                assert total == 0

    def test_only_an_orbit_cluster_of_its_action(self, z2, z3):
        # bare points skipped the field rule: Fractions raised AttributeError and
        # a one-coordinate point on two variables got an answer
        orbit, _ = orbit_cluster(z3, (F(2), F(1)))
        monomial = monomial_cluster(z3, ideal(2, (1, 0), (0, 3)))
        coinv = coinvariant_algebra(z3)
        subspace = subspace_cluster(coinv, subspace_rows_of_monomial_cluster(coinv, monomial))
        for other in ([(F(1), F(1))], [(CyclotomicNumber.root_of_unity(3),)], orbit.points,
                      monomial, subspace):
            with pytest.raises(ValueError, match="this operation takes orbit$"):
                evaluation_kernel(z3, other)
        for action in (z2, cyclic_action(3, (1, 1))):
            with pytest.raises(ValueError, match="the cluster was built for another action"):
                evaluation_kernel(action, orbit)

    @pytest.mark.parametrize("action,point", _rank_cases())
    def test_rank_certificate(self, action, point):
        """The facts that make an orbit a cluster of dimension its size."""
        group = action.group
        cluster, freeness = orbit_cluster(action, point)
        size = len(cluster.points)
        assert len(set(cluster.points)) == size == freeness.orbit_size
        stabilizer = set(freeness.stabilizer)
        assert size * len(stabilizer) == group.order
        counts = dict(freeness.fixed_point_counts)
        assert set(counts) == set(group.elements())
        assert all(counts[g] == (size if g in stabilizer else 0) for g in counts)
        m = group.exponent

        def trivial_on_stabilizer(chi):
            return all(
                sum((m // d) * h_i * c for h_i, c, d in zip(h, chi.components, chi.divisors)) % m == 0
                for h in stabilizer
            )

        assert freeness.characters == tuple(sorted(filter(trivial_on_stabilizer, group.characters())))
        assert verify_cluster(action, cluster).characters == freeness.characters
        monomials, kernel = evaluation_kernel(action, cluster)
        assert len(monomials) - len(kernel) == size


class TestOrbitOracle:
    @pytest.mark.parametrize("action,point", _rank_cases())
    def test_rank_cases(self, action, point):
        assert_orbit_matches_oracle(action, point)

    def test_conductor_a_proper_multiple_of_the_exponent(self):
        # Z/2 must act on a cyclo(3) coordinate by -1 = zeta_6^3, not by zeta_6
        z3 = CyclotomicNumber.root_of_unity(3)
        cluster, freeness = orbit_cluster(sl2_action(2), (z3, F(1)))
        assert cluster.conductor == 6
        assert set(cluster.points) == {(z3, CyclotomicNumber.one(6)), (-z3, -CyclotomicNumber.one(6))}
        assert freeness.is_free
        assert_orbit_matches_oracle(sl2_action(2), (z3, F(1)))


# a cluster of Z/2 (1, 1) checked under Z/3 (1, 2) or Z/4 (1, 3): the orbit one
# failed an internal check, and tau under Z/4 evaluated Z/4's generators on it
OTHER_ACTIONS = [cyclic_action(3, (1, 2)), cyclic_action(4, (1, 3))]


def z2_clusters():
    z2 = sl2_action(2)
    return [orbit_cluster(z2, (F(1), F(2)))[0], enumerate_torus_fixed_clusters(z2)[0]]


@pytest.mark.parametrize("action", OTHER_ACTIONS, ids=["Z3", "Z4"])
@pytest.mark.parametrize("fn", [verify_cluster, tau_support, tangent_space], ids=lambda fn: fn.__name__)
def test_cluster_of_another_action_rejected(fn, action):
    for cluster in z2_clusters():
        with pytest.raises(ValueError, match="the cluster was built for another action"):
            fn(action, cluster)


@pytest.mark.parametrize("fn", [relative_data, relative_tangent_space, stratification_rep, eq8_map,
                                subspace_rows_of_monomial_cluster], ids=lambda fn: fn.__name__)
def test_operations_on_a_coinvariant_algebra_refuse_a_cluster_of_another_action(fn):
    # 1/5(1,2) and 1/5(1,3) both have coinvariant algebras of dimension 11: the
    # rows of a subspace cluster of the first were read in the basis of the
    # second (stratification (χ3,), not (χ2,)), a monomial one as I + J there,
    # and its unit rows were taken over the basis of the second
    action = cyclic_action(5, (1, 2))
    coinv = coinvariant_algebra(action)
    monomial = enumerate_torus_fixed_clusters(action, coinv)[0]
    subspace = subspace_cluster(coinv, subspace_rows_of_monomial_cluster(coinv, monomial))
    other = coinvariant_algebra(cyclic_action(5, (1, 3)))
    for cluster in (subspace, monomial):
        with pytest.raises(ValueError, match="the cluster was built for another action"):
            fn(other, cluster)


def _presentations():
    # one input of each kind for Z/3 (1, 2), and the calls that refuse one
    action = cyclic_action(3, (1, 2))
    coinv = coinvariant_algebra(action)
    monomial = enumerate_torus_fixed_clusters(action, coinv)[0]
    rows = subspace_rows_of_monomial_cluster(coinv, monomial)
    subspace = subspace_cluster(coinv, rows)
    orbit, _ = orbit_cluster(action, (F(1), F(1)))
    return [
        pytest.param(tangent_space, action, rows, "ideal or monomial", id="tangent_space-rows"),
        pytest.param(subspace_rows_of_monomial_cluster, coinv, subspace, "ideal or monomial",
                     id="subspace_rows_of_monomial_cluster-subspace"),
        pytest.param(subspace_rows_of_monomial_cluster, coinv, orbit, "ideal or monomial",
                     id="subspace_rows_of_monomial_cluster-orbit"),
        pytest.param(is_ideal_subspace, coinv, subspace, "rows", id="is_ideal_subspace-subspace"),
        pytest.param(monomial_cluster, action, monomial, "ideal or rows", id="monomial_cluster-monomial"),
        pytest.param(subspace_cluster, coinv, monomial, "rows", id="subspace_cluster-monomial"),
        pytest.param(subspace_cluster, coinv, subspace, "rows", id="subspace_cluster-subspace"),
        pytest.param(tau_support, action, "not a cluster", "ideal or monomial or subspace or orbit",
                     id="tau_support-rows"),
        pytest.param(stratification_rep, coinv, orbit, "ideal or monomial or subspace or rows",
                     id="stratification_rep-orbit"),
    ]


@pytest.mark.parametrize("fn,context,target,takes", _presentations())
def test_a_wrong_presentation_is_refused_with_the_kinds_taken(fn, context, target, takes):
    # refused by _admit, before any payload that the kind lacks is read
    with pytest.raises(ValueError, match=f"this operation takes {takes}$") as info:
        fn(context, target)
    assert type(info.value) is ValueError


class TestTau:
    def test_orbit_evaluates_each_generator_once(self, monkeypatch):
        action = sl2_action(4)
        cluster, freeness = orbit_cluster(action, (F(1), F(2)))
        assert freeness.is_free
        evaluated = []
        evaluate = cluster_module._evaluate

        def counted(m, point, one):
            evaluated.append(m)
            return evaluate(m, point, one)

        monkeypatch.setattr(cluster_module, "_evaluate", counted)
        point = tau_support(action, cluster)
        assert evaluated == list(point.generators)

    def test_orbit_tau_never_multiplies_by_one(self, monkeypatch):
        # x^4, y^4 and xy at (2 + zeta_3, 3): no value or power on the way is 1
        action = sl2_action(4)
        cluster, _ = orbit_cluster(action, (CyclotomicNumber.root_of_unity(3) + 2, F(3)))
        products = []
        mul = CyclotomicNumber.__mul__

        def counted(a, b):
            products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
        monkeypatch.setattr(CyclotomicNumber, "__rmul__", counted)
        tau_support(action, cluster)
        assert products and not any(a == 1 or b == 1 for a, b in products)

    def test_orbit_generator_of_nontrivial_weight_is_integrity_error(self, z2):
        cluster, _ = orbit_cluster(z2, (F(1), F(2)))
        coinv = SimpleNamespace(action=z2, invariant_gens=(mono(1, 0),))
        with pytest.raises(IntegrityError, match="not constant on the orbit"):
            tau_support(z2, cluster, coinv)

    def test_torus_fixed_is_origin(self):
        for action in (sl2_action(4), cyclic_action(4, (1, 2))):
            for cluster in enumerate_torus_fixed_clusters(action):
                point = tau_support(action, cluster)
                assert all(v == 0 for v in point.values)

    def test_monomial_ideal_direct(self, z2):
        point = tau_support(z2, ideal(2, (0, 1), (2, 0)))
        assert all(v == 0 for v in point.values)

    def test_ideal_on_other_variables_rejected(self):
        # Z/3 (1, 2) acts on two variables; (x1, x2, x3) lives on three
        with pytest.raises(ValueError, match="the ideal has 3 variables, the action 2"):
            tau_support(cyclic_action(3, (1, 2)), ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        # the weights are read as indices, which would drop a variable unseen
        for fn in (verify_cluster, monomial_cluster):
            with pytest.raises(ValueError, match="the ideal has 3 variables, the action 2"):
                fn(cyclic_action(3, (1, 2)), ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)))
            with pytest.raises(ValueError, match="the ideal has 2 variables, the action 3"):
                fn(cyclic_action(3, (1, 1, 1)), ideal(2, (3, 0), (0, 1)))

    def test_coinvariant_algebra_of_another_action_rejected(self):
        # 1/3(1,1) has other invariant generators than 1/3(1,2)
        action = cyclic_action(3, (1, 2))
        cluster = enumerate_torus_fixed_clusters(action)[0]
        with pytest.raises(ValueError, match="built for another action"):
            tau_support(action, cluster, coinvariant_algebra(cyclic_action(3, (1, 1))))

    def test_non_scalar_reduction_is_integrity_error(self, z2):
        # staircase {1, x, x^2} contains the invariant x^2: not a cluster
        with pytest.raises(IntegrityError,
                           match=r"invariant generator x1\^2 does not reduce to a scalar"):
            tau_support(z2, ideal(2, (3, 0), (0, 1)))

    def test_subspace_cluster_tau(self, z2):
        coinv = coinvariant_algebra(z2)
        cluster = subspace_cluster(coinv, [[F(0), F(1), F(-1)]])
        point = tau_support(z2, cluster, coinv=coinv)
        assert all(v == 0 for v in point.values)

    def test_rejects_unknown_input(self, z2):
        with pytest.raises(ValueError, match="^the input is of kind rows; "):
            tau_support(z2, "not a cluster")


class TestInvariantRelations:
    def test_sl2_relation_found(self, z2):
        from ghilb_kit.monomial_algebra import invariant_generators
        gens = invariant_generators(z2)  # y^2, x*y, x^2
        relations = oracle_invariant_relations(gens)
        assert relations == [(1, -2, 1)]  # (x*y)^2 = x^2 * y^2
        for rel in relations:
            assert len(rel) == len(gens)
            total = [0, 0]
            for k, g in zip(rel, gens):
                total = [t + k * e for t, e in zip(total, g.exponents)]
            assert total == [0, 0]

    def test_values_from_evaluation_satisfy_relations(self, z3):
        from ghilb_kit.monomial_algebra import invariant_generators
        gens = invariant_generators(z3)
        for point in ((F(1), F(2)), (F(-1), F(3)), (F(0), F(5))):
            values = [oracle_eval(g, point) for g in gens]
            assert oracle_relations_hold(gens, values)
        assert not oracle_relations_hold(gens, [F(1), F(1), F(2)])


class TestFreeTriangle:
    def test_tau_equals_evaluation_on_free_orbits(self):
        rng = random.Random(43)
        for r in (2, 3, 4):
            action = sl2_action(r)
            for _ in range(4):
                p = (F(rng.randint(1, 5)), F(rng.randint(-5, 5)))
                cluster, freeness = orbit_cluster(action, p)
                assert freeness.is_free  # first coordinate nonzero
                assert freeness.criteria_agree
                assert verify_cluster(action, cluster).is_cluster
                point = tau_support(action, cluster)
                for g, v in zip(point.generators, point.values):
                    assert v == oracle_eval(g, p)
