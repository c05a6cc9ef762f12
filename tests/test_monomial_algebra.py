"""Monomials, ideals, staircases, invariants and the coinvariant algebra."""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import ghilb_kit.monomial_algebra as monomial_module
from conftest import cyclic_action, product_action, product_index, sl2_action, sweep_actions
from ghilb_kit.cluster import enumerate_torus_fixed_clusters, verify_cluster
from ghilb_kit.exact_linalg import kernel_basis_rows
from ghilb_kit.cli import _character_json, _indices_json
from ghilb_kit.group_rep import (
    ActionData,
    Character,
    DomainError,
    FiniteAbelianGroup,
    IntegrityError,
    character_index,
    weight_indexer,
    weight_of_monomial,
)
from ghilb_kit.monomial_algebra import (
    CoinvariantAlgebra,
    Monomial,
    MonomialIdeal,
    coinvariant_algebra,
    colength,
    invariant_generators,
    parse_monomial,
    quotient_staircase,
    taylor_syzygies,
)
from oracles import (
    oracle_coinvariant_staircase,
    oracle_monomials_of_degree,
    oracle_rank,
    oracle_staircase,
)

F = Fraction


def mono(*exponents) -> Monomial:
    return Monomial(tuple(exponents))


class TestMonomial:
    def test_basic_accessors(self):
        m = mono(2, 0, 1)
        assert m.degree == 3
        assert m.num_vars == 3
        assert not m.is_one
        assert mono(0, 0).is_one

    @pytest.mark.parametrize("exponents", [(1.5, 0), ("2", 0)], ids=["float", "str"])
    def test_non_integer_exponents_rejected(self, exponents):
        # int() would read these as x1 and x1^2
        with pytest.raises(TypeError):
            Monomial(exponents)

    def test_bool_and_int_subclass_exponents_accepted(self):
        class Exponent(int):
            pass

        assert Monomial((True, Exponent(2))) == mono(1, 2)

    def test_multiplication_division(self):
        assert mono(1, 2) * mono(3, 0) == mono(4, 2)
        assert mono(4, 2).divide(mono(1, 2)) == mono(3, 0)
        with pytest.raises(ValueError):
            mono(1, 0).divide(mono(0, 1))

    def test_divides_across_variable_counts_rejected(self):
        # zip truncated: x1 on two variables divided x1 on one, and back
        for a, b in ((mono(1, 0), mono(1)), (mono(1), mono(1, 0))):
            with pytest.raises(ValueError, match="variable counts differ"):
                a.divides(b)
            with pytest.raises(ValueError, match="variable counts differ"):
                a.divide(b)

    def test_divides_and_lcm(self):
        assert mono(1, 1).divides(mono(2, 1))
        assert not mono(2, 1).divides(mono(1, 1))
        assert mono(2, 1).lcm(mono(1, 3)) == mono(2, 3)

    def test_graded_lex_order(self):
        # y^2 < x*y < x^2 in graded lex with x > y
        y2, xy, x2 = mono(0, 2), mono(1, 1), mono(2, 0)
        assert sorted([x2, y2, xy], key=lambda m: m.grlex_key) == [y2, xy, x2]
        assert mono(0, 3).grlex_key > mono(2, 0).grlex_key  # degree dominates

    def test_text_round_trip(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randrange(1, 5)
            m = Monomial(tuple(rng.randrange(0, 5) for _ in range(n)))
            assert parse_monomial(m.to_text(), n) == m

    def test_text_forms(self):
        assert mono(0, 0).to_text() == "1"
        assert mono(2, 1).to_text() == "x1^2*x2"
        assert parse_monomial("x*y^2", 2) == mono(1, 2)
        assert parse_monomial("x2^3", 2) == mono(0, 3)
        assert parse_monomial("1", 3) == mono(0, 0, 0)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_monomial("x3", 2)
        with pytest.raises(ValueError):
            parse_monomial("q^2", 2)
        with pytest.raises(ValueError):
            parse_monomial("", 2)


class TestMonomialsOfDegree:
    def test_count_and_order(self):
        for n, d in ((1, 4), (2, 3), (3, 2)):
            ms = list(oracle_monomials_of_degree(n, d))
            import math
            assert len(ms) == math.comb(n + d - 1, d)
            assert all(m.degree == d for m in ms)
            assert len(set(ms)) == len(ms)


class TestMonomialIdeal:
    def test_minimalization(self):
        ideal = MonomialIdeal(2, (mono(1, 0), mono(2, 0), mono(1, 1)))
        assert ideal.min_gens == (mono(1, 0),)

    def test_canonical_sorting(self):
        ideal = MonomialIdeal(2, (mono(2, 0), mono(0, 1)))
        assert ideal.min_gens == (mono(0, 1), mono(2, 0))

    def test_contains(self):
        ideal = MonomialIdeal(2, (mono(0, 1), mono(2, 0)))
        assert ideal.contains(mono(2, 3))
        assert ideal.contains(mono(0, 1))
        assert not ideal.contains(mono(1, 0))
        assert not ideal.contains(mono(0, 0))

    def test_contains_rejects_other_variable_counts(self):
        ideal = MonomialIdeal(2, (mono(1, 0), mono(0, 1)))
        with pytest.raises(ValueError, match="the ideal has 2 variables, the monomial 1"):
            ideal.contains(mono(1))
        with pytest.raises(ValueError, match="the ideal has 2 variables, the monomial 3"):
            ideal.contains(mono(0, 0, 1))

    def test_num_vars_is_a_nonnegative_integer(self):
        # MonomialIdeal(-1, ()) had colength 0 and the staircase [1]
        with pytest.raises(ValueError, match="the number of variables must be nonnegative"):
            MonomialIdeal(-1, ())
        for bad in (2.5, 2.0, "2"):
            with pytest.raises(TypeError):
                MonomialIdeal(bad, ())
        assert type(MonomialIdeal(True, (mono(3),)).num_vars) is int
        empty = MonomialIdeal(0, ())
        assert empty.min_gens == () and empty.contains(Monomial(())) is False


class TestQuotientStaircase:
    def test_pinned_examples(self):
        assert quotient_staircase(MonomialIdeal(2, (mono(1, 0), mono(0, 1))), 8) == [mono(0, 0)]
        assert quotient_staircase(MonomialIdeal(2, (mono(0, 1), mono(2, 0))), 8) == \
            [mono(0, 0), mono(1, 0)]
        assert quotient_staircase(MonomialIdeal(2, (mono(1, 0),)), 50) is None

    def test_cap_semantics(self):
        ideal = MonomialIdeal(2, (mono(2, 0), mono(0, 2)))  # staircase size 4
        assert quotient_staircase(ideal, 4) is not None
        assert quotient_staircase(ideal, 3) is None
        with pytest.raises(ValueError):
            quotient_staircase(ideal, 0)

    def test_none_past_the_cap_without_walking_up_to_it(self):
        # an infinite quotient, and one of 10^9 monomials; a walk that lists
        # monomials until it passes the cap would take minutes here
        assert quotient_staircase(MonomialIdeal(2, (mono(1, 0),)), 10 ** 7) is None
        assert quotient_staircase(MonomialIdeal(2, (mono(10 ** 9, 0), mono(0, 1))), 10 ** 7) is None

    def test_colength_pinned_examples(self):
        assert colength(MonomialIdeal(2, (mono(9, 0), mono(0, 1)))) == 9
        assert colength(MonomialIdeal(2, (mono(2, 0),))) is None
        assert colength(MonomialIdeal(2, (mono(2, 0), mono(1, 1)))) is None
        assert colength(MonomialIdeal(3, (mono(0, 0, 0),))) == 0
        assert colength(MonomialIdeal(1, (mono(5),))) == 5
        # the full staircase would hold 10^12 monomials
        assert colength(MonomialIdeal(2, (mono(10 ** 6, 0), mono(0, 10 ** 6)))) == 10 ** 12

    def test_colength_matches_staircase(self):
        rng = random.Random(61)
        finite = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.7:
                gens += [tuple(rng.randint(1, 6) if w == v else 0 for w in range(n))
                         for v in range(n)]
            ideal = MonomialIdeal(n, tuple(Monomial(g) for g in gens))
            stair = quotient_staircase(ideal, 300)
            if stair is not None:
                finite += 1
                assert colength(ideal) == len(stair), ideal
            elif colength(ideal) is not None:
                assert colength(ideal) > 300, ideal
        assert finite > 100

    def test_matches_brute_force_box(self):
        rng = random.Random(20)
        for _ in range(300):
            n = rng.randint(1, 3)
            gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 5))]
            gens += [tuple(rng.randint(1, 6) if w == v else 0 for w in range(n)) for v in range(n)]
            ideal = MonomialIdeal(n, tuple(Monomial(g) for g in gens))
            expected = [Monomial(e) for e in oracle_staircase(n, gens)]
            assert quotient_staircase(ideal, 6 ** n) == expected, ideal

    def test_graded_lex_output(self):
        ideal = MonomialIdeal(2, (mono(3, 0), mono(0, 3), mono(1, 1)))
        stair = quotient_staircase(ideal, 20)
        keys = [m.grlex_key for m in stair]
        assert keys == sorted(keys)
        assert stair[0].is_one


class TestInvariantGenerators:
    def test_pinned_examples(self):
        assert set(invariant_generators(sl2_action(2))) == {mono(2, 0), mono(1, 1), mono(0, 2)}
        assert set(invariant_generators(sl2_action(3))) == {mono(3, 0), mono(1, 1), mono(0, 3)}
        assert list(invariant_generators(cyclic_action(1, (0,)))) == [mono(1)]

    def test_canonical_order(self):
        gens = invariant_generators(sl2_action(3))
        keys = [g.grlex_key for g in gens]
        assert keys == sorted(keys)

    def test_all_invariant_and_minimal(self):
        for action in (sl2_action(5), cyclic_action(4, (1, 2)),
                       product_action((2, 2), ((1, 0), (0, 1)))):
            gens = invariant_generators(action)
            for g in gens:
                assert weight_of_monomial(action, g.exponents).is_trivial
                assert g.degree >= 1
            for a, b in itertools.permutations(gens, 2):
                assert not a.divides(b)

    def test_coinvariant_staircase_matches_brute_force_box(self):
        actions = [a for a in sweep_actions() if a.group.order <= 8]
        assert len(actions) > 50
        for action in actions:
            gens, basis = oracle_coinvariant_staircase(action)
            coinv = coinvariant_algebra(action)
            assert [g.exponents for g in invariant_generators(action)] == gens, action
            assert [g.exponents for g in coinv.invariant_gens] == gens, action
            assert [m.exponents for m in coinv.basis] == basis, action

    def test_completeness_up_to_bound(self):
        for action in (sl2_action(4), cyclic_action(6, (1, 4))):
            gens = MonomialIdeal(action.num_variables, invariant_generators(action))
            order = action.group.order
            for d in range(1, order + 1):
                for m in oracle_monomials_of_degree(action.num_variables, d):
                    if weight_of_monomial(action, m.exponents).is_trivial:
                        assert gens.contains(m)


class TestTaylorSyzygies:
    def test_principal_ideal(self):
        assert taylor_syzygies(MonomialIdeal(2, (mono(1, 0),))) == []

    def test_koszul_relation(self):
        ideal = MonomialIdeal(2, (mono(1, 0), mono(0, 1)))
        relations = taylor_syzygies(ideal)
        assert len(relations) == 1
        rel = relations[0]
        gens = ideal.min_gens
        # u_i * g_i agree at the lcm; signs are +1 / -1
        (i, (si, ui)), (j, (sj, uj)) = sorted(rel.items())
        assert {si, sj} == {1, -1}
        assert ui * gens[i] == uj * gens[j] == mono(1, 1)

    def test_pairwise_structure(self):
        ideal = MonomialIdeal(2, (mono(2, 0), mono(1, 1), mono(0, 2)))
        relations = taylor_syzygies(ideal)
        assert len(relations) == 3
        gens = ideal.min_gens
        for rel in relations:
            assert len(rel) == 2
            (i, (si, ui)), (j, (sj, uj)) = sorted(rel.items())
            lcm = gens[i].lcm(gens[j])
            assert ui * gens[i] == lcm and uj * gens[j] == lcm
            assert si + sj == 0

    def test_empty_ideal_rejected(self):
        with pytest.raises(ValueError):
            taylor_syzygies(MonomialIdeal(2, ()))

    def test_completeness_against_coincidence_oracle(self):
        """Taylor relations cut out exactly the module homomorphisms I -> S/I.

        The oracle imposes every multiplier coincidence u*g_i = v*g_j up to a
        degree bound that covers all products reaching the finite staircase.
        """
        rng = random.Random(32)
        for _ in range(15):
            n = rng.choice((2, 3))
            gens = {Monomial(tuple(rng.randrange(0, 3) for _ in range(n)))
                    for _ in range(rng.randrange(1, 4))}
            gens = {g for g in gens if not g.is_one}
            # pure powers force a finite staircase
            for i in range(n):
                e = [0] * n
                e[i] = rng.randrange(2, 4)
                gens.add(Monomial(tuple(e)))
            ideal = MonomialIdeal(n, tuple(gens))
            stair = quotient_staircase(ideal, 200)
            assert stair is not None
            stair_pos = {m: t for t, m in enumerate(stair)}
            gens = ideal.min_gens
            nunk = len(gens) * len(stair)

            def taylor_kernel_dim():
                rows = []
                for rel in taylor_syzygies(ideal):
                    per_target = {}
                    for k, (sign, u) in rel.items():
                        for t, m in enumerate(stair):
                            pos = stair_pos.get(u * m)
                            if pos is not None:
                                row = per_target.setdefault(pos, [F(0)] * nunk)
                                row[k * len(stair) + t] += sign
                    rows.extend(per_target.values())
                return len(kernel_basis_rows(rows, nunk))

            def coincidence_kernel_dim():
                max_deg = max((m.degree for m in stair), default=0) + 1
                rows = []
                for i in range(len(gens)):
                    for j in range(i + 1, len(gens)):
                        lcm = gens[i].lcm(gens[j])
                        for d in range(0, max_deg + 1):
                            for w in oracle_monomials_of_degree(n, d):
                                u = (w * lcm).divide(gens[i])
                                v = (w * lcm).divide(gens[j])
                                per_target = {}
                                for k, mult, sign in ((i, u, F(1)), (j, v, F(-1))):
                                    for t, m in enumerate(stair):
                                        pos = stair_pos.get(mult * m)
                                        if pos is not None:
                                            row = per_target.setdefault(pos, [F(0)] * nunk)
                                            row[k * len(stair) + t] += sign
                                rows.extend(per_target.values())
                return nunk - oracle_rank(rows)

            assert taylor_kernel_dim() == coincidence_kernel_dim()


class TestCoinvariantAlgebra:
    def test_pinned_examples(self):
        coinv = coinvariant_algebra(sl2_action(2))
        assert coinv.basis == (mono(0, 0), mono(0, 1), mono(1, 0))
        assert coinv.dim == 3
        coinv = coinvariant_algebra(sl2_action(3))
        assert set(coinv.basis) == {mono(0, 0), mono(1, 0), mono(2, 0), mono(0, 1), mono(0, 2)}
        assert coinv.dim == 5

    def test_sl2_dimension_profile(self):
        for r in range(2, 8):
            assert coinvariant_algebra(sl2_action(r)).dim == 2 * r - 1

    def test_basis_contains_all_characters(self):
        for action in (sl2_action(4), cyclic_action(6, (1, 1)),
                       product_action((2, 4), ((1, 0), (0, 1)))):
            coinv = coinvariant_algebra(action)
            assert set(coinv.weights) == set(action.group.characters())
            assert coinv.dim >= action.group.order
            assert coinv.basis[0].is_one

    def test_weight_indices_locate_the_weights(self):
        for action in sweep_actions():
            coinv = coinvariant_algebra(action)
            characters = tuple(action.group.characters())
            assert len(coinv.weight_indices) == coinv.dim
            for i, w in enumerate(coinv.weights):
                assert type(coinv.weight_indices[i]) is int
                assert w == characters[coinv.weight_indices[i]], (action, i)

    def test_variable_steps_are_products(self):
        for action in sweep_actions():
            coinv = coinvariant_algebra(action)
            n = action.num_variables
            index = {m: i for i, m in enumerate(coinv.basis)}
            up = coinv.variable_steps()
            assert len(up) == coinv.dim
            for i, m in enumerate(coinv.basis):
                for v in range(n):
                    x = Monomial(tuple(int(k == v) for k in range(n)))
                    assert up[i][v] == index.get(m * x), (action, m, v)

    def test_basis_without_the_unit_is_integrity_error(self, monkeypatch):
        walk = monomial_module._invariant_staircase

        def without_unit(action):
            gens, basis, indices = walk(action)
            return gens, basis[1:], indices[1:]

        monkeypatch.setattr(monomial_module, "_invariant_staircase", without_unit)
        with pytest.raises(IntegrityError, match="coinvariant basis must contain the unit monomial"):
            coinvariant_algebra(sl2_action(3))

    def test_unit_weight_basis_is_exactly_regular(self):
        coinv = coinvariant_algebra(product_action((2, 6), ((1, 0), (0, 1))))
        assert coinv.dim == 12
        assert len(set(coinv.weights)) == 12

    def test_downward_closed_basis(self):
        coinv = coinvariant_algebra(cyclic_action(8, (1, 3)))
        basis = set(coinv.basis)
        for m in basis:
            for i, e in enumerate(m.exponents):
                if e:
                    down = list(m.exponents)
                    down[i] -= 1
                    assert Monomial(tuple(down)) in basis

    def test_non_faithful_rejected(self):
        with pytest.raises(ValueError):
            coinvariant_algebra(cyclic_action(4, (2, 2)))

    def test_non_faithful_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^the weights do not generate the full character group; "
                           "the action is not faithful and the basis cannot carry every character$"):
            coinvariant_algebra(product_action((2, 2), ((1, 0), (1, 0))))

    def test_faithful_build_never_asks_is_faithful(self, monkeypatch):
        # the walk certifies faithfulness; only a missing character asks
        actions = sweep_actions()

        def refuse(action):
            raise AssertionError(f"is_faithful called on {action}")

        monkeypatch.setattr(ActionData, "is_faithful", refuse)
        for action in actions:
            coinvariant_algebra(action)

    def test_mult_table_against_direct_product(self):
        coinv = coinvariant_algebra(sl2_action(4))
        basis = coinv.basis
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                k = product_index(coinv, i, j)
                prod = a * b
                if prod in coinv.basis:
                    assert k == coinv.index_of(prod)
                else:
                    assert k is None

    def test_mult_table_commutative_and_unital(self):
        coinv = coinvariant_algebra(cyclic_action(5, (1, 2)))
        for i in range(coinv.dim):
            assert product_index(coinv, 0, i) == i
            for j in range(coinv.dim):
                assert product_index(coinv, i, j) == product_index(coinv, j, i)

    def test_mult_table_associative_exhaustive(self):
        for action in (sl2_action(2), sl2_action(3), sl2_action(4)):
            coinv = coinvariant_algebra(action)

            def mul(i, j):
                return product_index(coinv, i, j) if i is not None and j is not None else None

            for i in range(coinv.dim):
                for j in range(coinv.dim):
                    for k in range(coinv.dim):
                        assert mul(mul(i, j), k) == mul(i, mul(j, k))

    def test_weights_add_on_products(self):
        coinv = coinvariant_algebra(cyclic_action(6, (1, 4)))
        for i in range(coinv.dim):
            for j in range(coinv.dim):
                k = product_index(coinv, i, j)
                if k is not None:
                    assert coinv.weights[k] == coinv.weights[i] + coinv.weights[j]

    def test_monomial_times_vector(self):
        coinv = coinvariant_algebra(sl2_action(3))
        x = coinv.variables()[0]
        vec = [F(0)] * coinv.dim
        vec[coinv.index_of(mono(1, 0))] = F(2)  # 2x
        out = coinv.monomial_times_vector(x, vec)
        expected = [F(0)] * coinv.dim
        expected[coinv.index_of(mono(2, 0))] = F(2)  # 2x^2
        assert out == expected
        # multiplying by an invariant generator kills everything
        out2 = coinv.monomial_times_vector(mono(1, 1), vec)
        assert not any(out2)

    def test_vector_weight(self):
        coinv = coinvariant_algebra(sl2_action(3))
        vec = [F(0)] * coinv.dim
        vec[coinv.index_of(mono(1, 0))] = F(1)
        assert coinv.vector_weight(vec).components == (1,)
        vec[coinv.index_of(mono(0, 1))] = F(1)
        with pytest.raises(ValueError):
            coinv.vector_weight(vec)
        with pytest.raises(ValueError):
            coinv.vector_weight([F(0)] * coinv.dim)

    def test_character_multiplicities(self):
        coinv = coinvariant_algebra(sl2_action(3))
        counts = Counter(coinv.weights)
        assert counts[coinv.action.group.character((0,))] == 1
        assert counts[coinv.action.group.character((1,))] == 2
        assert counts[coinv.action.group.character((2,))] == 2


# the walk's mixed radix matters on a long cyclic group and on a product group
INDEXED_ACTIONS = [
    cyclic_action(32, (1, 1, 30)),
    product_action((3, 4), ((1, 0), (0, 1), (2, 3))),
]
INDEXED_IDS = ["cyclic:32:1,1,30", "3x4 ; 1,0 | 0,1 | 2,3"]


class TestCharacterIndices:
    """The coinvariant walk carries weights as integer character indices."""

    @staticmethod
    def count_weights_and_characters(monkeypatch) -> Counter:
        """Count weight_of_monomial calls, in every namespace, and Character constructions."""
        calls: Counter = Counter()

        def counted_weight(*args, **kwargs):
            calls["weight_of_monomial"] += 1
            return weight_of_monomial(*args, **kwargs)

        for name, module in sorted(sys.modules.items()):
            if name.partition(".")[0] == "ghilb_kit" and module is not None \
                    and module.__dict__.get("weight_of_monomial") is weight_of_monomial:
                monkeypatch.setattr(module, "weight_of_monomial", counted_weight)
        post_init, characters = Character.__post_init__, FiniteAbelianGroup.characters

        def counted_post_init(self):
            calls["Character"] += 1
            post_init(self)

        def counted_characters(self):
            # the table is built without __post_init__
            for chi in characters(self):
                calls["Character"] += 1
                yield chi

        monkeypatch.setattr(Character, "__post_init__", counted_post_init)
        monkeypatch.setattr(FiniteAbelianGroup, "characters", counted_characters)
        return calls

    @pytest.mark.parametrize("action", INDEXED_ACTIONS, ids=INDEXED_IDS)
    def test_walk_builds_each_character_once(self, action, monkeypatch):
        calls = self.count_weights_and_characters(monkeypatch)
        coinv = coinvariant_algebra(action)
        assert calls["weight_of_monomial"] == 0
        # the walk builds none; the first read of weights builds the group's table
        assert calls["Character"] == 0
        assert coinv.weights == coinv.weights
        assert calls["Character"] == action.group.order
        calls.clear()
        gens = invariant_generators(action)
        assert calls == Counter()
        assert tuple(gens) == coinv.invariant_gens
        monkeypatch.undo()
        for m, w in zip(coinv.basis, coinv.weights, strict=True):
            assert w == weight_of_monomial(action, m.exponents)

    def test_index_convention(self):
        # unequal divisors (2x4, 2x6, 3x4) catch a reversed divmod or radix
        products = [product_action((2, 4), ((1, 0), (0, 1), (1, 3))),
                    product_action((2, 6), ((1, 0), (0, 1), (1, 5))),
                    product_action((3, 3), ((1, 0), (0, 1), (2, 2))),
                    *INDEXED_ACTIONS[1:]]
        for action in sweep_actions() + products:
            coinv = coinvariant_algebra(action)
            group = action.group
            characters = tuple(group.characters())
            assert group.indexed_characters == characters
            assert coinv.weights == tuple(characters[i] for i in coinv.weight_indices), action
            assert [character_index(w) for w in coinv.weights] == list(coinv.weight_indices)
            weight_index = weight_indexer(action)
            assert [weight_index(m.exponents) for m in coinv.basis] == list(coinv.weight_indices)
            rendered = _indices_json(group.elementary_divisors, coinv.weight_indices)
            assert rendered == [_character_json(w) for w in coinv.weights], action
            assert _indices_json(group.elementary_divisors, range(group.order)) == \
                [_character_json(chi) for chi in characters]

    def test_table_is_kept_out_of_equality_and_hash(self):
        for divisors in ((), (5,), (2, 4), (3, 3)):
            built, bare = FiniteAbelianGroup(divisors), FiniteAbelianGroup(divisors)
            table = built.indexed_characters
            assert built.indexed_characters is table
            assert "indexed_characters" in vars(built) and "indexed_characters" not in vars(bare)
            assert built == bare and hash(built) == hash(bare)
            assert repr(built) == repr(bare)
            assert ActionData(built, 1, table[-1:]) == ActionData(bare, 1, table[-1:])

    @pytest.mark.parametrize("action", INDEXED_ACTIONS, ids=INDEXED_IDS)
    def test_clusters_share_one_character_tuple(self, action):
        # each cluster's staircase weights are its verified characters, and
        # those are the group's one sorted tuple of characters
        coinv = coinvariant_algebra(action)
        clusters = enumerate_torus_fixed_clusters(action, coinv)
        assert clusters
        for c in clusters:
            stair = tuple(sorted(weight_of_monomial(action, m.exponents) for m in c.staircase))
            assert stair == verify_cluster(action, c.ideal).characters == action.group.indexed_characters


class TestUncheckedConstruction:
    """The walks and the enumeration build Monomials and ideals without their
    checks; each must equal what the checked constructor makes of the same data."""

    @staticmethod
    def assert_checked(m):
        assert all(type(a) is int for a in m.exponents), m
        checked = Monomial(m.exponents)
        assert m == checked and hash(m) == hash(checked)

    def test_enumerated_ideals_equal_checked_ones(self):
        for action in sweep_actions():
            coinv = coinvariant_algebra(action)
            n = action.num_variables
            for c in enumerate_torus_fixed_clusters(action, coinv):
                on_stair = set(c.staircase)
                frontier = [m for m in coinv.basis if m not in on_stair and all(
                    Monomial(m.exponents[:v] + (a - 1,) + m.exponents[v + 1:]) in on_stair
                    for v, a in enumerate(m.exponents) if a)]
                checked = MonomialIdeal(
                    n, tuple(Monomial(m.exponents) for m in coinv.invariant_gens + tuple(frontier)))
                assert c.ideal == checked, (action, c.ideal)
                assert type(c.ideal.num_vars) is int and type(c.ideal.min_gens) is tuple

    def test_walked_monomials_equal_checked_ones(self):
        for action in sweep_actions():
            coinv = coinvariant_algebra(action)
            for m in coinv.basis + coinv.invariant_gens + tuple(invariant_generators(action)):
                self.assert_checked(m)
            ideal = MonomialIdeal(action.num_variables, coinv.invariant_gens)
            for m in quotient_staircase(ideal, coinv.dim):
                self.assert_checked(m)
