"""Tangent and relative tangent spaces, stratification, restriction map, McKay."""

from __future__ import annotations

import hashlib
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import ABELIAN_N2_CORPUS, cyclic_action, product_action, sl2_action, sweep_actions
from ghilb_kit import exact_linalg
from ghilb_kit import tangent as tangent_module
from ghilb_kit.cluster import (
    GCluster,
    IntegrityError,
    enumerate_torus_fixed_clusters,
    is_ideal_subspace,
    orbit_cluster,
    subspace_cluster,
    subspace_rows_of_monomial_cluster,
    verify_cluster,
)
from ghilb_kit.cyclotomic import CyclotomicNumber
from ghilb_kit.group_rep import Character, DomainError, character_index
from ghilb_kit.monomial_algebra import (
    CoinvariantAlgebra,
    Monomial,
    MonomialIdeal,
    coinvariant_algebra,
    quotient_staircase,
)
from ghilb_kit.tangent import (
    _staircase_relative,
    eq8_map,
    mckay_table,
    relative_data,
    relative_tangent_space,
    stratification_rep,
    tangent_space,
)
from oracles import (
    _mult_monomial_vector,
    oracle_hj_special_characters,
    oracle_monomial_relative,
    oracle_relative_tangent_dim,
    oracle_strat,
    oracle_tangent_dim,
    oracle_tangent_space,
)

F = Fraction


def add_empty_slot_class(monkeypatch) -> None:
    """Make the monomial Hom solver report one more slot class, an empty one:
    a faulty kernel vector that vanishes everywhere."""
    solve = tangent_module._slot_classes

    def with_empty_class(*args):
        gen_weights, stair_weights, slots, classes = solve(*args)
        return gen_weights, stair_weights, slots, classes + [[]]

    monkeypatch.setattr(tangent_module, "_slot_classes", with_empty_class)


def mono(*exponents) -> Monomial:
    return Monomial(tuple(exponents))


def ideal(n, *gens) -> MonomialIdeal:
    return MonomialIdeal(n, tuple(Monomial(g) for g in gens))


def row_for(coinv, entries: dict) -> list:
    """Coefficient row over the coinvariant basis from {monomial: coeff}."""
    row = [F(0)] * coinv.dim
    for m, c in entries.items():
        row[coinv.index_of(m)] = F(c)
    return row


def deformed_chain_rows(coinv, r: int, k: int, t: Fraction) -> list[list[Fraction]]:
    """Ideal subspace of the (1, r-1) fiber deforming the k-th monomial cluster.

    Spanned by x^(k+1) - t*y^(r-1-k) together with all higher pure powers;
    for t = 0 this is the monomial cluster itself.
    """
    rows = [row_for(coinv, {mono(k + 1, 0): F(1), mono(0, r - 1 - k): -t})]
    for j in range(k + 2, r):
        rows.append(row_for(coinv, {mono(j, 0): F(1)}))
    for j in range(r - k, r):
        rows.append(row_for(coinv, {mono(0, j): F(1)}))
    return rows


class TestTangentSpace:
    def test_z2_dimension(self, z2):
        hom = tangent_space(z2, ideal(2, (0, 1), (2, 0)))
        assert hom.dimension == 2

    def test_z3_symmetric_cluster(self, z3):
        hom = tangent_space(z3, ideal(2, (2, 0), (1, 1), (0, 2)))
        assert hom.dimension == 2

    def test_sl2_smoothness_sweep(self):
        for r in range(2, 8):
            action = sl2_action(r)
            for cluster in enumerate_torus_fixed_clusters(action):
                assert tangent_space(action, cluster).dimension == 2

    def test_matches_brute_force_oracle(self):
        for action in (sl2_action(4), cyclic_action(4, (1, 1)), cyclic_action(4, (1, 2)),
                       cyclic_action(5, (1, 2)), product_action((2, 2), ((1, 0), (0, 1))),
                       product_action((2, 3), ((1, 1), (1, 2)))):
            for cluster in enumerate_torus_fixed_clusters(action):
                got = tangent_space(action, cluster).dimension
                want = oracle_tangent_dim(action, cluster.ideal, cluster.staircase)
                assert got == want, (action, cluster.ideal)

    def test_abelian_sl3_counts_and_smoothness(self):
        # Bridgeland-King-Reid: for abelian G in SL(3) the G-Hilbert scheme is a
        # crepant resolution; its torus-fixed points number |G| and are smooth
        for action in (cyclic_action(7, (1, 2, 4)), cyclic_action(13, (1, 3, 9)),
                       cyclic_action(21, (1, 4, 16)), cyclic_action(28, (1, 3, 24)),
                       cyclic_action(30, (1, 2, 27)), cyclic_action(45, (1, 1, 43)),
                       cyclic_action(60, (1, 1, 58)),
                       product_action((3, 3), ((1, 0), (0, 1), (2, 2))),
                       product_action((4, 4), ((1, 0), (0, 1), (3, 3))),
                       product_action((5, 5), ((1, 0), (0, 1), (4, 4)))):
            assert action.is_sl_action()
            clusters = enumerate_torus_fixed_clusters(action)
            assert len(clusters) == action.group.order
            for cluster in clusters:
                assert tangent_space(action, cluster).dimension == 3

    def test_hirzebruch_jung_counts_and_smoothness(self):
        # G-Hilb of C^2/Z_r with weights (1, a) is the minimal resolution: a
        # chain of HJ-length(r/a) exceptional curves, so one more torus-fixed
        # point than curves, each smooth of dimension 2
        def hj_length(r: int, a: int) -> int:
            # r/a = b_1 - 1/(b_2 - 1/(...)), each b_i >= 2
            length = 0
            while a:
                b = -(-r // a)
                r, a = a, b * a - r
                length += 1
            return length

        cases = [(r, a) for r in range(2, 17) for a in range(1, r) if math.gcd(r, a) == 1]
        for r, a in cases + [(40, 3), (37, 10), (31, 7), (33, 5)]:
            action = cyclic_action(r, (1, a))
            clusters = enumerate_torus_fixed_clusters(action)
            assert len(clusters) == hj_length(r, a) + 1, (r, a)
            for cluster in clusters:
                assert tangent_space(action, cluster).dimension == 2, (r, a, cluster.ideal)

    def test_equals_dense_taylor_oracle_on_clusters(self):
        checked = 0
        for action in TestMonomialPath.random_actions(71, 24):
            for cluster in enumerate_torus_fixed_clusters(action):
                want = oracle_tangent_space(action, cluster.ideal, cluster.staircase)
                assert tangent_space(action, cluster) == want, (action, cluster.ideal)
                assert tangent_space(action, cluster.ideal) == want, (action, cluster.ideal)
                checked += 1
        assert checked > 60

    def test_equals_dense_taylor_oracle_on_non_clusters(self):
        # random monomial ideals with a pure power of every variable (so a
        # finite staircase), most of them far from a G-cluster
        rng = random.Random(73)
        actions = TestMonomialPath.random_actions(71, 24)
        cap = 64  # no staircase below exceeds 4 * 4 * 4 monomials
        checked = 0
        for _ in range(160):
            action = rng.choice(actions)
            n = action.num_variables
            powers = [rng.randint(1, 4) for _ in range(n)]
            gens = [tuple(p if i == v else 0 for i in range(n)) for v, p in enumerate(powers)]
            for _ in range(rng.randint(0, 4)):
                gens.append(tuple(rng.randrange(p) for p in powers))
            target = ideal(n, *(g for g in gens if any(g)))
            if verify_cluster(action, target).is_cluster:
                continue
            want = oracle_tangent_space(action, target, quotient_staircase(target, cap))
            assert tangent_space(action, target) == want, (action, target)
            checked += 1
        assert checked >= 100

    def test_trivial_group(self, trivial):
        hom = tangent_space(trivial, ideal(1, (1,)))
        assert hom.dimension == 1

    def test_weight_preservation(self):
        action = cyclic_action(6, (1, 5))
        for cluster in enumerate_torus_fixed_clusters(action):
            hom = tangent_space(action, cluster)
            for matrix in hom.hom_basis:
                for k, row in enumerate(matrix):
                    for t, entry in enumerate(row):
                        if entry:
                            assert hom.generator_weights[k] == hom.target_weights[t]

    def test_syzygy_annihilation(self):
        from ghilb_kit.monomial_algebra import taylor_syzygies
        for action in (sl2_action(5), cyclic_action(4, (1, 1))):
            for cluster in enumerate_torus_fixed_clusters(action):
                hom = tangent_space(action, cluster)
                stair_pos = {m: t for t, m in enumerate(hom.target_basis)}
                for matrix in hom.hom_basis:
                    for rel in taylor_syzygies(cluster.ideal):
                        total = [F(0)] * len(hom.target_basis)
                        for k, (sign, u) in rel.items():
                            for t, coeff in enumerate(matrix[k]):
                                if coeff:
                                    pos = stair_pos.get(u * hom.target_basis[t])
                                    if pos is not None:
                                        total[pos] += sign * coeff
                        assert not any(total)

    def test_builds_only_the_taylor_monomials(self, monkeypatch):
        # the lcm and the two quotients of each pair; the Taylor slots form no Monomial
        built = Counter()
        validate = Monomial.__post_init__

        def counted(self):
            built["Monomial"] += 1
            validate(self)

        action = cyclic_action(7, (1, 2, 4))
        clusters = enumerate_torus_fixed_clusters(action)
        monkeypatch.setattr(Monomial, "__post_init__", counted)
        for cluster in clusters:
            built.clear()
            tangent_space(action, cluster)
            assert built["Monomial"] == 3 * math.comb(len(cluster.ideal.min_gens), 2)

    def test_bare_ideal_past_four_times_the_order(self, z2):
        # a finite staircase larger than 4|G| has its Hom space like any other
        for action, target in (
            (z2, ideal(2, (5, 0), (0, 5))),
            (z2, ideal(2, (9, 0), (2, 1), (0, 3))),
            (cyclic_action(3, (1, 1, 1)), ideal(3, (4, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1))),
        ):
            stair = quotient_staircase(target, 100)
            assert len(stair) > 4 * action.group.order
            assert not verify_cluster(action, target).is_cluster
            assert tangent_space(action, target) == oracle_tangent_space(action, target, stair)

    def test_non_finite_quotient_rejected(self, z2):
        with pytest.raises(ValueError):
            tangent_space(z2, ideal(2, (2, 0)))

    def test_orbit_cluster_rejected(self, z2):
        cluster, _ = orbit_cluster(z2, (F(1), F(1)))
        with pytest.raises(ValueError):
            tangent_space(z2, cluster)

    def test_negative_answers_are_domain_errors(self, z2, z3):
        # a well-formed input the library answers "no" to; a wrong kind of
        # input stays a plain ValueError
        with pytest.raises(DomainError, match="^quotient is not finite-dimensional$"):
            tangent_space(z2, ideal(2, (2, 0)))
        coinv = coinvariant_algebra(z3)
        with pytest.raises(DomainError, match="^subspace is not an ideal in the coinvariant algebra$"):
            relative_tangent_space(coinv, [row_for(coinv, {mono(1, 0): 1})])
        # x1 + x2 has weights 1 and 2, and x1 * (x1 + x2), x2 * (x1 + x2) stay in the span
        mixed = [row_for(coinv, {mono(1, 0): 1, mono(0, 1): 1}),
                 row_for(coinv, {mono(2, 0): 1}), row_for(coinv, {mono(0, 2): 1})]
        with pytest.raises(DomainError, match="^subspace is not weight-graded$"):
            relative_tangent_space(coinv, mixed)
        cluster, _ = orbit_cluster(z2, (F(1), F(1)))
        with pytest.raises(ValueError) as info:
            tangent_space(z2, cluster)
        assert type(info.value) is ValueError


class TestRelativeTangentSpace:
    def test_z2_line(self, z2):
        coinv = coinvariant_algebra(z2)
        hom = relative_tangent_space(coinv, [row_for(coinv, {mono(0, 1): 1})])
        assert hom.dimension == 1

    def test_z3_symmetric_cluster(self, z3):
        coinv = coinvariant_algebra(z3)
        rows = [row_for(coinv, {mono(2, 0): 1}), row_for(coinv, {mono(0, 2): 1})]
        assert relative_tangent_space(coinv, rows).dimension == 2

    def test_z3_chain_endpoint(self, z3):
        coinv = coinvariant_algebra(z3)
        rows = [row_for(coinv, {mono(0, 1): 1}), row_for(coinv, {mono(0, 2): 1})]
        assert relative_tangent_space(coinv, rows).dimension == 1

    def test_accepts_cluster_objects(self, z3):
        coinv = coinvariant_algebra(z3)
        for cluster in enumerate_torus_fixed_clusters(z3):
            via_cluster = relative_tangent_space(coinv, cluster)
            via_rows = relative_tangent_space(
                coinv, subspace_rows_of_monomial_cluster(coinv, cluster))
            assert via_cluster.dimension == via_rows.dimension
            assert via_cluster.hom_basis == via_rows.hom_basis

    def test_matches_brute_force_oracle(self):
        for action in (sl2_action(3), sl2_action(4), sl2_action(5),
                       cyclic_action(4, (1, 1)), cyclic_action(4, (1, 2)),
                       product_action((2, 2), ((1, 0), (0, 1)))):
            coinv = coinvariant_algebra(action)
            for cluster in enumerate_torus_fixed_clusters(action):
                rows = subspace_rows_of_monomial_cluster(coinv, cluster)
                got = relative_tangent_space(coinv, rows).dimension
                want = oracle_relative_tangent_dim(coinv, [list(r) for r in rows])
                assert got == want, (action, cluster.ideal)

    def test_deformed_subspaces_match_oracle(self):
        rng = random.Random(51)
        for r in (3, 4, 5):
            action = sl2_action(r)
            coinv = coinvariant_algebra(action)
            for k in range(r - 1):
                for t in (F(1), F(rng.randint(2, 9), rng.randint(1, 4))):
                    rows = deformed_chain_rows(coinv, r, k, t)
                    assert verify_cluster(action, rows).is_cluster
                    got = relative_tangent_space(coinv, rows).dimension
                    want = oracle_relative_tangent_dim(coinv, rows)
                    assert got == want

    def test_relative_at_most_tangent(self):
        for action in (sl2_action(6), cyclic_action(4, (1, 1)), cyclic_action(4, (1, 2))):
            coinv = coinvariant_algebra(action)
            for cluster in enumerate_torus_fixed_clusters(action):
                rel = relative_tangent_space(coinv, cluster).dimension
                tan = tangent_space(action, cluster).dimension
                assert rel <= tan

    def test_weight_preservation(self, z3):
        coinv = coinvariant_algebra(z3)
        for cluster in enumerate_torus_fixed_clusters(z3):
            hom = relative_tangent_space(coinv, cluster)
            for matrix in hom.hom_basis:
                for j, row in enumerate(matrix):
                    for c, entry in enumerate(row):
                        if entry:
                            assert hom.generator_weights[j] == hom.target_weights[c]

    def test_multiplication_compatibility(self):
        """Each hom basis element commutes with multiplication by variables."""
        for action in (sl2_action(4), cyclic_action(4, (1, 2))):
            coinv = coinvariant_algebra(action)
            for cluster in enumerate_torus_fixed_clusters(action):
                hom = relative_tangent_space(coinv, cluster)
                rows = [list(r) for r in hom.source_generators]
                from oracles import oracle_rref, oracle_solve
                red, pivots = oracle_rref(rows)
                assert red == rows  # stored spanning set is already reduced
                qcols = [i for i in range(coinv.dim) if i not in set(pivots)]
                for matrix in hom.hom_basis:
                    for var in coinv.variables():
                        for j, r in enumerate(rows):
                            w = _mult_monomial_vector(coinv, var, r)
                            lam = [w[p] for p in pivots]
                            lhs = [F(0)] * len(qcols)
                            for l, coeff in enumerate(lam):
                                if coeff:
                                    lhs = [a + coeff * b for a, b in zip(lhs, matrix[l])]
                            lift = [F(0)] * coinv.dim
                            for c, q in enumerate(qcols):
                                lift[q] = matrix[j][c]
                            moved = _mult_monomial_vector(coinv, var, lift)
                            for row_red, p in zip(red, pivots):
                                f = moved[p]
                                if f:
                                    moved = [a - f * b for a, b in zip(moved, row_red)]
                            rhs = [moved[q] for q in qcols]
                            assert lhs == rhs

    def test_non_ideal_rejected(self, z3):
        coinv = coinvariant_algebra(z3)
        with pytest.raises(ValueError, match="not an ideal"):
            relative_tangent_space(coinv, [row_for(coinv, {mono(1, 0): 1})])

    def test_constraint_closure_check_is_integrity_error(self, z3, monkeypatch):
        # past a faulty closure test, a non-ideal span fails during assembly
        coinv = coinvariant_algebra(z3)
        monkeypatch.setattr(tangent_module, "_closed_under_variables", lambda *args: True)
        with pytest.raises(IntegrityError, match="ideal closure failed during constraint assembly"):
            relative_tangent_space(coinv, [row_for(coinv, {mono(1, 0): 1})])

    def test_non_graded_rejected(self, z3):
        coinv = coinvariant_algebra(z3)
        # closed under multiplication (cross terms hit the invariant x1*x2)
        # but x1 + x2 mixes weights 1 and 2
        rows = [
            row_for(coinv, {mono(1, 0): 1, mono(0, 1): 1}),
            row_for(coinv, {mono(2, 0): 1}),
            row_for(coinv, {mono(0, 2): 1}),
        ]
        with pytest.raises(ValueError, match="weight-graded"):
            relative_tangent_space(coinv, rows)

    def test_cyclotomic_rows_rejected(self, z2):
        coinv = coinvariant_algebra(z2)
        z = CyclotomicNumber.root_of_unity(4)
        zero = CyclotomicNumber.from_rational(0, 4)
        with pytest.raises(ValueError, match="rationals"):
            relative_tangent_space(coinv, [[zero, z, CyclotomicNumber.one(4)]])

    def test_empty_subspace(self, trivial):
        coinv = coinvariant_algebra(trivial)
        hom = relative_tangent_space(coinv, [])
        assert hom.dimension == 0


def deformed_chains():
    """(action, coinv, rows) of every deformed chain of 1/r(1, r-1), r = 3..7,
    at t in {1, 2, -3/2, 5/7}: 80 non-monomial ideal subspaces."""
    for r in range(3, 8):
        action = sl2_action(r)
        coinv = coinvariant_algebra(action)
        for k in range(r - 1):
            for t in (F(1), F(2), F(-3, 2), F(5, 7)):
                yield action, coinv, deformed_chain_rows(coinv, r, k, t)


def cluster_unit_rows(action):
    """(action, coinv, rows) of every torus-fixed cluster of an action, as unit rows."""
    coinv = coinvariant_algebra(action)
    for cluster in enumerate_torus_fixed_clusters(action, coinv):
        yield action, coinv, [list(r) for r in subspace_rows_of_monomial_cluster(coinv, cluster)]


def random_graded_ideals():
    """(action, coinv, rows) of 40 seeded ideal subspaces, each generated by one to
    three binomials of a nontrivial weight, in reduced echelon form.  Unlike unit
    rows and the chains, their pivot rows reach the quotient columns in the Hom
    equations, and not every spanning row outside mbar*Ibar is a generator."""
    rng = random.Random(18)
    for action in (cyclic_action(5, (1, 2)), cyclic_action(7, (1, 2, 4)),
                   product_action((2, 4), ((1, 0), (0, 1), (1, 3))), cyclic_action(6, (1, 1, 4))):
        coinv = coinvariant_algebra(action)
        by_weight: dict = {}
        for i, w in enumerate(coinv.weights):
            by_weight.setdefault(w, []).append(i)
        mixed = [w for w, indices in by_weight.items() if len(indices) > 1 and not w.is_trivial]
        for _ in range(10):
            gens = []
            for _ in range(rng.randint(1, 3)):
                f = [F(0)] * coinv.dim
                for i in rng.sample(by_weight[rng.choice(mixed)], 2):
                    f[i] = F(rng.choice([1, -1, 2, 3])) / rng.choice([1, 2, 5])
                gens.append(f)
            rows = [coinv.monomial_times_vector(m, f) for f in gens for m in coinv.basis]
            rref, _ = exact_linalg.rref_rows([r for r in rows if any(r)])
            yield action, coinv, [list(r) for r in rref]


def relative_repr(coinv, data) -> bytes:
    """The repr of a relative data's parts and of the three operations on it."""
    return repr((data.rref, data.pivots, data.qcols, data.generator_indices, data.kernel,
                 relative_tangent_space(coinv, data), stratification_rep(coinv, data),
                 eq8_map(coinv, data))).encode()


class TestDenseGoldenOutput:
    """sha256 of the dense route's output on row input, pinned so later changes
    keep it byte-identical: its relative data with the three operations on it,
    and the subspace verdicts on the same rows."""

    @pytest.mark.parametrize("inputs,relative,verdicts", [
        (deformed_chains,
         "2fde3ae831a4e96aa8d80b0d20d11a56f838d61bf532fedb6256d284e20b5456",
         "77f06bf17bfdd1dd8c6b1f24ac50c1586166f9dc1439145d6dbf2efcb3330948"),
        (lambda: cluster_unit_rows(cyclic_action(7, (1, 2, 4))),
         "d1dfb85ec9d2ff2050466fd6fe0f9bf89ed3eb072e0ac3bed9660672f781a15d",
         "5fb6d01370761d07ac680153acd16b91f7d5b37dc6677d06b85bccc4a0e9c34d"),
        (lambda: cluster_unit_rows(product_action((2, 4), ((1, 0), (0, 1), (1, 3)))),
         "434453dfc5035abe88c3d57fdf5b1ddeb707ef1066b5e45f0c706c04c4d7d219",
         "47a6220b5d3110ca61d81418f155002b9816748345d94ee2d7f03f071f34d913"),
        (lambda: cluster_unit_rows(cyclic_action(9, (1, 2, 6))),
         "82706fd9eb6ec826802bc29e6ac2a9e3ddaf77942c094c32d805e99e87f95c51",
         "8e45ee4918fe91bbad84c2cb58d39f92591d803bd8c316662e06307b41a07f44"),
    ], ids=["deformed-chains", "cyclic:7:1,2,4", "2x4;1,0|0,1|1,3", "cyclic:9:1,2,6"])
    def test_digests(self, inputs, relative, verdicts):
        rel, ver = hashlib.sha256(), hashlib.sha256()
        for action, coinv, rows in inputs():
            rel.update(relative_repr(coinv, relative_data(coinv, rows)))
            c = subspace_cluster(coinv, rows)
            ver.update(repr((verify_cluster(action, rows), is_ideal_subspace(coinv, rows),
                             (c.kind, c.action, c.rows))).encode())
        assert (rel.hexdigest(), ver.hexdigest()) == (relative, verdicts)

    def test_random_graded_ideals(self):
        rel = hashlib.sha256()
        for _, coinv, rows in random_graded_ideals():
            data = relative_data(coinv, rows)
            rel.update(relative_repr(coinv, data))
            strat = stratification_rep(coinv, data)
            assert (strat.dimension, Counter(strat.characters)) == oracle_strat(coinv, rows), rows
            # the dimension oracle takes seconds past dim 11; the digest pins the rest
            if coinv.dim <= 11:
                assert len(data.kernel) == oracle_relative_tangent_dim(coinv, rows), rows
        assert rel.hexdigest() == "35820b64e9aff448ade932bca13e87d4c7ece206bcfcc2a5323ece1b5bc5207a"


class TestMonomialPath:
    """The staircase route for monomial input against the index oracle and the dense path."""

    @staticmethod
    def random_actions(seed: int, count: int) -> list:
        rng = random.Random(seed)
        actions = [product_action((2, 2), ((1, 0), (0, 1), (1, 1))),
                   product_action((2, 4), ((1, 0), (0, 1))),
                   product_action((3, 3), ((1, 0), (0, 1), (2, 2))),
                   cyclic_action(4, (1, 0, 2))]
        while len(actions) < count:
            n = rng.choice((2, 3))
            r = rng.randint(2, 9)
            action = cyclic_action(r, [rng.randrange(1, r) for _ in range(n)])
            if action.is_faithful() and coinvariant_algebra(action).dim <= 30:
                actions.append(action)
        return actions

    def test_equals_dense_path(self):
        checked = 0
        for action in self.random_actions(71, 24):
            coinv = coinvariant_algebra(action)
            for cluster in enumerate_torus_fixed_clusters(action, coinv):
                rows = subspace_rows_of_monomial_cluster(coinv, cluster)
                for fn in (relative_tangent_space, stratification_rep, eq8_map):
                    dense = fn(coinv, rows)
                    assert fn(coinv, cluster) == dense, (fn.__name__, action, cluster.ideal)
                    assert fn(coinv, cluster.ideal) == dense, (fn.__name__, action, cluster.ideal)
                checked += 1
        assert checked > 60

    def test_non_cluster_ideals_equal_dense_path(self):
        # images in S-bar of monomial ideals that are not clusters
        action = cyclic_action(5, (1, 2))
        coinv = coinvariant_algebra(action)
        for gens in (((1, 0),), ((0, 1), (2, 0)), ((2, 0), (1, 1), (0, 2)), ((0, 0),)):
            target = ideal(2, *gens)
            rows = subspace_rows_of_monomial_cluster(coinv, target)
            for fn in (relative_tangent_space, stratification_rep, eq8_map):
                assert fn(coinv, target) == fn(coinv, rows), (fn.__name__, gens)

    def test_shared_data_matches_fresh_calls(self):
        action = cyclic_action(7, (1, 2, 4))
        coinv = coinvariant_algebra(action)
        for cluster in enumerate_torus_fixed_clusters(action, coinv):
            shared = relative_data(coinv, cluster)
            for fn in (relative_tangent_space, stratification_rep, eq8_map):
                assert fn(coinv, shared) == fn(coinv, cluster)

    def test_shared_data_tied_to_its_algebra(self, z3):
        coinv = coinvariant_algebra(z3)
        shared = relative_data(coinv, enumerate_torus_fixed_clusters(z3, coinv)[0])
        with pytest.raises(ValueError, match="another coinvariant algebra"):
            stratification_rep(coinvariant_algebra(z3), shared)

    def test_random_ideals_equal_index_oracle(self):
        # seeded monomial ideals that are not clusters, the unit ideal and (x1)
        # among them, against the index route on the coinvariant basis
        rng = random.Random(17)
        actions = sweep_actions()
        checked = 0
        for count in range(1200):
            action = rng.choice(actions)
            coinv = coinvariant_algebra(action)
            n = action.num_variables
            if count == 0:
                gens = [(0,) * n]
            elif count == 1:
                gens = [(1,) + (0,) * (n - 1)]
            else:
                gens = [tuple(rng.randrange(6) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            target = ideal(n, *gens)
            if verify_cluster(action, target).is_cluster:
                continue
            data = relative_data(coinv, target)
            assert (data.pivots, data.qcols, data.kernel) == oracle_monomial_relative(coinv, target), \
                (action, target)
            assert stratification_rep(coinv, target) == stratification_rep(coinv, data), (action, target)
            checked += 1
        assert checked >= 1000

    def test_oracle_closure_check_sees_a_broken_product_table(self, z3, monkeypatch):
        # with every nonzero product sent to the unit, the ideal's image is no longer closed
        steps = CoinvariantAlgebra.variable_steps

        def products_to_unit(coinv):
            return [[k if k is None else 0 for k in row] for row in steps(coinv)]

        monkeypatch.setattr(CoinvariantAlgebra, "variable_steps", products_to_unit)
        coinv = coinvariant_algebra(z3)
        with pytest.raises(AssertionError, match="ideal closure failed on basis indices"):
            oracle_monomial_relative(coinv, ideal(2, (0, 1), (3, 0)))

    @pytest.mark.parametrize("fn", [relative_tangent_space, stratification_rep, eq8_map],
                             ids=lambda fn: fn.__name__)
    def test_ideal_on_other_variables_rejected(self, fn):
        # Z/3 (1, 2) acts on two variables; (x1, x2, x3) lives on three
        coinv = coinvariant_algebra(cyclic_action(3, (1, 2)))
        with pytest.raises(ValueError, match="the ideal has 3 variables, the action 2"):
            fn(coinv, ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_tangent_space_of_an_ideal_on_other_variables_rejected(self):
        # the weights are read as indices, which would drop a variable unseen
        with pytest.raises(ValueError, match="the ideal has 2 variables, the action 3"):
            tangent_space(cyclic_action(3, (1, 1, 1)), ideal(2, (3, 0), (0, 1)))


class TestStaircaseRelative:
    """The CLI's numbers, read off the slot classes, against tangent_space, the
    library's relative data, the index oracle and the dense path."""

    @staticmethod
    def numbers(coinv, subspace) -> tuple:
        data = relative_data(coinv, subspace)
        eq8 = eq8_map(coinv, data)
        assert eq8.injective and eq8.source_dim == relative_tangent_space(coinv, data).dimension
        strat = [character_index(c) for c in stratification_rep(coinv, data).characters]
        return [eq8.source_dim, strat, eq8.target_dim]

    def test_equals_index_and_dense_paths(self):
        # the dense path on every cluster of the sweep takes most of a minute,
        # so it checks one seeded cluster of each action with dim <= 40
        rng = random.Random(16)
        clusters = dense = 0
        for action in sweep_actions():
            coinv = coinvariant_algebra(action)
            found = enumerate_torus_fixed_clusters(action, coinv)
            sample = rng.randrange(len(found))
            for k, cluster in enumerate(found):
                data = relative_data(coinv, cluster)
                assert (data.pivots, data.qcols, data.kernel) == \
                    oracle_monomial_relative(coinv, cluster.ideal), (action, cluster.ideal)
                tangent_dim, *got = _staircase_relative(action, cluster.ideal, cluster.staircase)
                assert tangent_dim == tangent_space(action, cluster).dimension, (action, cluster.ideal)
                assert got == self.numbers(coinv, data), (action, cluster.ideal)
                clusters += 1
                if k == sample and coinv.dim <= 40:
                    rows = subspace_rows_of_monomial_cluster(coinv, cluster)
                    assert got == self.numbers(coinv, rows), (action, cluster.ideal)
                    dense += 1
        assert clusters > 2000 and dense > 250

    def test_unit_column_is_found_in_any_staircase_order(self):
        # a hand-built cluster may list its staircase with 1 anywhere
        action = cyclic_action(7, (1, 2, 4))
        coinv = coinvariant_algebra(action)
        for cluster in enumerate_torus_fixed_clusters(action, coinv):
            stair = tuple(reversed(cluster.staircase))
            reordered = GCluster(kind="monomial", action=action, ideal=cluster.ideal, staircase=stair)
            assert _staircase_relative(action, cluster.ideal, stair) == \
                _staircase_relative(action, cluster.ideal, cluster.staircase)
            assert self.numbers(coinv, reordered) == self.numbers(coinv, cluster), cluster.ideal

    def test_rank_loss_is_integrity_error(self, z3, monkeypatch):
        cluster = enumerate_torus_fixed_clusters(z3)[0]
        add_empty_slot_class(monkeypatch)
        with pytest.raises(IntegrityError, match="vanishes on the minimal generators"):
            _staircase_relative(z3, cluster.ideal, cluster.staircase)

    def test_strat_on_random_ideals_equals_index_and_dense_paths(self):
        rng = random.Random(23)
        actions = [cyclic_action(5, (1, 2)), cyclic_action(7, (1, 2, 4)), cyclic_action(4, (1, 1, 2)),
                   product_action((2, 2), ((1, 0), (0, 1), (1, 1)))]
        checked = 0
        for action in actions:
            coinv = coinvariant_algebra(action)
            n = action.num_variables
            targets = [c.ideal for c in enumerate_torus_fixed_clusters(action, coinv)]
            for _ in range(40):
                gens = [tuple(rng.randrange(5) for _ in range(n)) for _ in range(rng.randint(1, 4))]
                targets.append(ideal(n, *gens))
            for target in targets:
                got = stratification_rep(coinv, target)
                assert got == stratification_rep(coinv, relative_data(coinv, target)), target
                rows = subspace_rows_of_monomial_cluster(coinv, target)
                assert got == stratification_rep(coinv, rows), target
                checked += 1
        assert checked > 160


class TestNoElimination:
    """The monomial Hom spaces, the stratification and eq8 never eliminate."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        # every namespace that holds a copy, so none goes uncounted
        for fname in ("kernel_basis_rows", "rref_rows"):
            fn = getattr(exact_linalg, fname)
            for name, module in list(sys.modules.items()):
                if name.startswith("ghilb_kit") and getattr(module, fname, None) is fn:
                    monkeypatch.setattr(module, fname, counting(fname, fn))
        return calls

    @pytest.mark.parametrize("fn", [
        lambda action, coinv, cluster: tangent_space(action, cluster),
        lambda action, coinv, cluster: tangent_space(action, cluster.ideal),
        lambda action, coinv, cluster: relative_tangent_space(coinv, cluster),
        lambda action, coinv, cluster: stratification_rep(coinv, cluster),
        lambda action, coinv, cluster: stratification_rep(coinv, cluster.ideal),
        lambda action, coinv, cluster: eq8_map(coinv, cluster),
    ], ids=["tangent", "tangent-ideal", "relative", "strat", "strat-ideal", "eq8"])
    def test_monomial_paths(self, fn, calls):
        for action in (cyclic_action(7, (1, 2, 4)), product_action((2, 4), ((1, 0), (0, 1)))):
            coinv = coinvariant_algebra(action)
            for cluster in enumerate_torus_fixed_clusters(action, coinv):
                fn(action, coinv, cluster)
        assert calls == Counter()

    def test_shared_data_solves_once(self, calls, monkeypatch):
        # one relative_data feeds all three operations from one slot partition
        solve = tangent_module._slot_classes

        def counted(*args):
            calls["_slot_classes"] += 1
            return solve(*args)

        monkeypatch.setattr(tangent_module, "_slot_classes", counted)
        for action in (cyclic_action(7, (1, 2, 4)), product_action((2, 4), ((1, 0), (0, 1)))):
            coinv = coinvariant_algebra(action)
            for cluster in enumerate_torus_fixed_clusters(action, coinv):
                calls.clear()
                shared = relative_data(coinv, cluster)
                for fn in (relative_tangent_space, stratification_rep, eq8_map):
                    fn(coinv, shared)
                assert calls == Counter({"_slot_classes": 1}), (action, cluster.ideal)

    def test_counter_sees_eq8_rank_check(self, calls):
        # the dense counterpart: on subspace rows the rank test eliminates once
        action = cyclic_action(7, (1, 2, 4))
        coinv = coinvariant_algebra(action)
        cluster = enumerate_torus_fixed_clusters(action, coinv)[0]
        shared = relative_data(coinv, subspace_rows_of_monomial_cluster(coinv, cluster))
        shared.kernel, shared.generator_indices  # both built before the count starts
        calls.clear()
        eq8_map(coinv, shared)
        assert calls == Counter({"rref_rows": 1})


class TestStratification:
    def test_z2_example(self, z2):
        coinv = coinvariant_algebra(z2)
        strat = stratification_rep(coinv, [row_for(coinv, {mono(0, 1): 1})])
        assert strat.dimension == 1
        assert [c.components for c in strat.characters] == [(1,)]

    def test_z3_interior(self, z3):
        coinv = coinvariant_algebra(z3)
        rows = [row_for(coinv, {mono(2, 0): 1}), row_for(coinv, {mono(0, 2): 1})]
        strat = stratification_rep(coinv, rows)
        assert strat.dimension == 2
        assert sorted(c.components[0] for c in strat.characters) == [1, 2]

    def test_z3_endpoint(self, z3):
        coinv = coinvariant_algebra(z3)
        rows = [row_for(coinv, {mono(0, 1): 1}), row_for(coinv, {mono(0, 2): 1})]
        strat = stratification_rep(coinv, rows)
        assert strat.dimension == 1
        assert [c.components[0] for c in strat.characters] == [2]

    def test_matches_oracle(self):
        for action in (sl2_action(4), sl2_action(5), cyclic_action(4, (1, 2)),
                       product_action((2, 2), ((1, 0), (0, 1)))):
            coinv = coinvariant_algebra(action)
            for cluster in enumerate_torus_fixed_clusters(action):
                rows = [list(r) for r in subspace_rows_of_monomial_cluster(coinv, cluster)]
                strat = stratification_rep(coinv, rows)
                dim, chars = oracle_strat(coinv, rows)
                assert strat.dimension == dim
                assert Counter(strat.characters) == chars

    def test_trivial_character_never_appears(self):
        # cluster ideals contain no invariants below the coinvariant level
        for action in (sl2_action(6), cyclic_action(4, (1, 1))):
            coinv = coinvariant_algebra(action)
            for cluster in enumerate_torus_fixed_clusters(action):
                strat = stratification_rep(coinv, cluster)
                assert all(not c.is_trivial for c in strat.characters)


class TestEq8:
    def test_z3_interior_isomorphism(self, z3):
        coinv = coinvariant_algebra(z3)
        rows = [row_for(coinv, {mono(2, 0): 1}), row_for(coinv, {mono(0, 2): 1})]
        report = eq8_map(coinv, rows)
        assert report.injective and report.isomorphism
        assert report.source_dim == report.target_dim == 2

    def test_z2_isomorphism(self, z2):
        coinv = coinvariant_algebra(z2)
        report = eq8_map(coinv, [row_for(coinv, {mono(0, 1): 1})])
        assert report.isomorphism
        assert report.source_dim == report.target_dim == 1

    def test_target_dimension_formula(self):
        for action in (sl2_action(5), cyclic_action(4, (1, 2))):
            coinv = coinvariant_algebra(action)
            for cluster in enumerate_torus_fixed_clusters(action):
                rows = [list(r) for r in subspace_rows_of_monomial_cluster(coinv, cluster)]
                report = eq8_map(coinv, rows)
                _, strat_chars = oracle_strat(coinv, rows)
                red, pivots = __import__("oracles").oracle_rref(rows)
                quot = Counter(coinv.weights[i] for i in range(coinv.dim)
                               if i not in set(pivots))
                assert report.target_dim == \
                    sum(strat_chars[chi] * quot[chi] for chi in strat_chars)

    def test_injective_across_corpus(self):
        for action in ABELIAN_N2_CORPUS:
            coinv = coinvariant_algebra(action)
            for cluster in enumerate_torus_fixed_clusters(action):
                assert eq8_map(coinv, cluster).injective

    def test_gl2_surjectivity_observed(self):
        for action in ABELIAN_N2_CORPUS:
            coinv = coinvariant_algebra(action)
            for cluster in enumerate_torus_fixed_clusters(action):
                assert eq8_map(coinv, cluster).isomorphism

    def test_isomorphism_at_deformed_points(self):
        for r in (2, 3, 4, 5, 6, 7):
            action = sl2_action(r)
            coinv = coinvariant_algebra(action)
            for k in range(r - 1):
                rows = deformed_chain_rows(coinv, r, k, F(3, 2))
                report = eq8_map(coinv, rows)
                assert report.injective
                assert report.isomorphism

    def test_monomial_rank_loss_is_integrity_error(self, z3, monkeypatch):
        # a relative tangent vector of a monomial ideal is fixed by its values
        # on the minimal generators, so only a faulty kernel can lose rank
        coinv = coinvariant_algebra(z3)
        cluster = enumerate_torus_fixed_clusters(z3)[0]
        rows = subspace_rows_of_monomial_cluster(coinv, cluster)
        assert eq8_map(coinv, cluster).source_dim > 0
        add_empty_slot_class(monkeypatch)
        with pytest.raises(IntegrityError, match="vanishes on the minimal generators"):
            eq8_map(coinv, cluster)
        monkeypatch.setattr(tangent_module._DenseRelative, "restricted_rank",
                            staticmethod(lambda matrix: len(matrix) - 1))
        # the dense path still reports the rank as a domain answer
        report = eq8_map(coinv, rows)
        assert not report.injective and not report.isomorphism

    def test_restriction_consistent_with_hom_space(self, z3):
        coinv = coinvariant_algebra(z3)
        for cluster in enumerate_torus_fixed_clusters(z3):
            hom = relative_tangent_space(coinv, cluster)
            report = eq8_map(coinv, cluster)
            assert report.source_dim == hom.dimension
            assert len(report.matrix) == hom.dimension


class TestMcKay:
    def test_z2_coverage(self, z2):
        table = mckay_table(z2)
        assert len(table.clusters) == 2
        assert table.all_nontrivial_covered
        assert table.missing == ()
        nontrivial = z2.group.character((1,))
        incidence = dict(table.incidence)
        assert incidence[nontrivial] == (0, 1)

    def test_z3_incidence(self, z3):
        table = mckay_table(z3)
        gens = [tuple(g.to_text() for g in c.ideal.min_gens) for c in table.clusters]
        assert gens == [("x2", "x1^3"), ("x1", "x2^3"), ("x2^2", "x1*x2", "x1^2")]
        incidence = {chi.components[0]: idxs for chi, idxs in table.incidence}
        assert incidence[2] == (0, 2)
        assert incidence[1] == (1, 2)
        assert table.all_nontrivial_covered

    def test_sl2_full_coverage(self):
        for r in range(2, 8):
            table = mckay_table(sl2_action(r))
            assert table.all_nontrivial_covered
            assert table.missing == ()

    def test_trivial_group(self, trivial):
        table = mckay_table(trivial)
        assert len(table.clusters) == 1
        assert table.incidence == ()
        assert table.all_nontrivial_covered
        assert table.missing == ()

    def test_type_a_incidence_scale_free(self):
        # G-Hilb of C^2/Z_r (weights 1, r-1) resolves the A_(r-1) singularity:
        # r torus-fixed points on a chain of r-1 exceptional curves, each
        # nontrivial character on exactly the two fixed points of its curve
        for r in (2, 5, 11, 25, 40):
            action = sl2_action(r)
            table = mckay_table(action)
            assert len(table.clusters) == r
            assert table.all_nontrivial_covered
            nontrivial = sorted(c for c in action.group.characters() if not c.is_trivial)
            assert [chi for chi, _ in table.incidence] == nontrivial
            assert all(len(idxs) == 2 for _, idxs in table.incidence), r

    @pytest.mark.parametrize("r", range(2, 41))
    def test_cyclic_surface_special_characters(self, r):
        # the covered characters of Z/r (1, a) are Wunram's special ones, each
        # on the two fixed points of its exceptional curve
        for a in [a for a in range(1, r) if math.gcd(a, r) == 1]:
            table = mckay_table(cyclic_action(r, (1, a)))
            incidence = {chi.components[0]: idxs for chi, idxs in table.incidence}
            assert sorted(incidence) == sorted(oracle_hj_special_characters(r, a)), (r, a)
            assert all(len(idxs) == 2 for idxs in incidence.values()), (r, a)

    def test_stable_across_runs(self, z3):
        a = mckay_table(z3)
        b = mckay_table(z3)
        assert a.incidence == b.incidence
        assert a.strat_characters == b.strat_characters
