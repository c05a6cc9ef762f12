"""Characters, groups, actions and representation-multiset predicates."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from conftest import cyclic_action, product_action, sl2_action, sweep_actions
from ghilb_kit.group_rep import (
    ActionData,
    Character,
    FiniteAbelianGroup,
    weight_of_monomial,
)
from oracles import (
    oracle_is_faithful,
    oracle_is_regular_representation,
)


class TestCharacter:
    def test_components_reduced(self):
        assert Character((3,), (5,)).components == (2,)
        assert Character((2, 4), (-1, 6)).components == (1, 2)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            Character((2, 3), (1,))

    def test_non_integer_components_rejected(self):
        # 1.5 % 2 stayed 1.5
        with pytest.raises(TypeError):
            FiniteAbelianGroup((2,)).character((1.5,))

    def test_non_integer_divisors_rejected(self):
        # 1 % 2.5 made Character(1.0,)
        with pytest.raises(TypeError):
            Character((2.5,), (1,))

        class Two(int):
            pass

        assert type(Character((Two(2),), (0,)).divisors[0]) is int

    @pytest.mark.parametrize("divisors", [(-3,), (1,), (0,), (True,), (4, 1)])
    def test_divisors_below_two_rejected(self, divisors):
        # (-3,) reduced 5 to -1, (1,) was accepted and (0,) divided by zero
        with pytest.raises(ValueError, match="every divisor must be >= 2"):
            Character(divisors, (5,) * len(divisors))

    def test_arithmetic(self):
        a = Character((6,), (4,))
        b = Character((6,), (3,))
        assert (a + b).components == (1,)
        assert (a - b).components == (1,)
        assert (-a).components == (2,)
        assert (a + a + a).components == (0,)

    def test_cross_group_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            Character((2,), (1,)) + Character((3,), (1,))

    def test_total_ordering_is_usable_for_sorting(self):
        chars = [Character((5,), (a,)) for a in (3, 0, 4, 1)]
        assert [c.components[0] for c in sorted(chars)] == [0, 1, 3, 4]


class TestFiniteAbelianGroup:
    def test_order_and_exponent(self):
        g = FiniteAbelianGroup((2, 6))
        assert g.order == 12
        assert g.exponent == 6
        assert FiniteAbelianGroup(()).order == 1
        assert FiniteAbelianGroup(()).exponent == 1

    def test_bad_divisors(self):
        for divisors in [(1,), (0,), (-3,), (2, 1)]:
            with pytest.raises(ValueError):
                FiniteAbelianGroup(divisors)

    def test_non_integer_divisor_rejected(self):
        # int() would make Z/2 of it
        with pytest.raises(TypeError):
            FiniteAbelianGroup((2.5,))

    def test_enumerations(self):
        g = FiniteAbelianGroup((2, 3))
        assert len(list(g.characters())) == 6
        assert len(set(g.characters())) == 6
        elements = list(g.elements())
        assert len(elements) == 6
        assert elements[0] == g.identity == (0, 0)

    def test_table_equals_the_checked_characters(self, monkeypatch):
        # the table skips __post_init__: product yields reduced ints under checked divisors
        groups = {a.group.elementary_divisors: a.group for a in sweep_actions()}
        groups[()] = FiniteAbelianGroup(())
        checked = {divisors: [Character(divisors, tup) for tup in
                              itertools.product(*(range(d) for d in divisors))]
                   for divisors in groups}

        def forbidden(self):
            raise AssertionError("the character table ran __post_init__")

        monkeypatch.setattr(Character, "__post_init__", forbidden)
        for divisors, group in groups.items():
            table = FiniteAbelianGroup(divisors).indexed_characters
            assert list(table) == checked[divisors] == list(group.characters())
            for chi, want in zip(table, checked[divisors], strict=True):
                assert hash(chi) == hash(want) and repr(chi) == repr(want)
                assert (chi.divisors, chi.components) == (want.divisors, want.components)
                assert all(type(c) is int for c in chi.divisors + chi.components)

    def test_trivial_group_enumerations(self):
        g = FiniteAbelianGroup(())
        assert list(g.characters()) == [g.trivial_character]
        assert list(g.elements()) == [()]


class TestActionData:
    def test_weight_arity_checked(self):
        g = FiniteAbelianGroup((3,))
        with pytest.raises(ValueError):
            ActionData(g, 2, (g.character((1,)),))
        with pytest.raises(ValueError):
            ActionData(g, 0, ())

    def test_non_integer_num_variables_rejected(self):
        # 2.0 passed, and the cluster search then failed deep inside
        g = FiniteAbelianGroup((3,))
        weights = (g.character((1,)), g.character((2,)))
        with pytest.raises(TypeError):
            ActionData(g, 2.0, weights)
        assert type(ActionData(g, True, weights[:1]).num_variables) is int

    def test_weights_must_match_group(self):
        g = FiniteAbelianGroup((3,))
        h = FiniteAbelianGroup((4,))
        with pytest.raises(ValueError):
            ActionData(g, 1, (h.character((1,)),))

    def test_faithful(self):
        assert sl2_action(3).is_faithful()
        assert cyclic_action(4, (1, 2)).is_faithful()
        assert not cyclic_action(4, (2, 2)).is_faithful()
        assert not product_action((2, 2), ((1, 0), (1, 0))).is_faithful()
        assert product_action((2, 2), ((1, 1), (0, 1))).is_faithful()
        assert cyclic_action(1, (0,)).is_faithful()

    @pytest.mark.parametrize("divisors", [(), *((r,) for r in range(2, 13)),
                                          (2, 2), (2, 4), (3, 3), (2, 6), (4, 4)])
    def test_faithful_equals_oracle_on_every_small_action(self, divisors):
        # every action with one or two weights, and every triple up to order:
        # faithfulness does not depend on the order of the weights
        group = FiniteAbelianGroup(divisors)
        chars = list(group.characters())
        cases = [*itertools.product(chars, repeat=1), *itertools.product(chars, repeat=2),
                 *itertools.combinations_with_replacement(chars, 3)]
        for weights in cases:
            action = ActionData(group, len(weights), weights)
            assert action.is_faithful() == oracle_is_faithful(action), action

    def test_determinant_and_sl(self):
        for r in range(2, 8):
            assert sl2_action(r).determinant_character().is_trivial
            assert sl2_action(r).is_sl_action()
        assert not cyclic_action(3, (1, 1)).is_sl_action()
        assert cyclic_action(6, (1, 2, 3)).is_sl_action()

    def test_weight_of_monomial(self):
        a = sl2_action(5)
        assert weight_of_monomial(a, (0, 0)).is_trivial
        assert weight_of_monomial(a, (1, 0)).components == (1,)
        assert weight_of_monomial(a, (0, 1)).components == (4,)
        assert weight_of_monomial(a, (3, 2)).components == ((3 + 8) % 5,)
        assert weight_of_monomial(a, (1, 1)).is_trivial

    def test_weight_of_non_integer_exponents_rejected(self):
        with pytest.raises(TypeError):
            weight_of_monomial(sl2_action(5), (1.5, 0))


class TestRegularRepresentation:
    def test_multiset(self):
        g = FiniteAbelianGroup((2, 3))
        multiset = Counter(g.characters())
        assert sum(multiset.values()) == 6
        assert all(v == 1 for v in multiset.values())

    def test_predicate(self):
        g = FiniteAbelianGroup((4,))
        chars = list(g.characters())
        assert oracle_is_regular_representation(g, chars)
        assert not oracle_is_regular_representation(g, chars[:-1])
        assert not oracle_is_regular_representation(g, chars + [chars[0]])
        assert not oracle_is_regular_representation(g, chars[:-1] + [chars[0]])

    def test_trivial_group(self):
        g = FiniteAbelianGroup(())
        assert oracle_is_regular_representation(g, [g.trivial_character])
        assert not oracle_is_regular_representation(g, [])
        assert oracle_is_regular_representation(g, Counter([g.trivial_character]))
        # one character, but of the group Z/2
        assert not oracle_is_regular_representation(g, [FiniteAbelianGroup((2,)).trivial_character])

    def test_counter_input(self):
        g = FiniteAbelianGroup((2, 3))
        chars = list(g.characters())
        assert oracle_is_regular_representation(g, Counter(chars))
        assert oracle_is_regular_representation(g, Counter(g.characters()))
        doubled = Counter(chars[:-1] + [chars[0]])
        assert sum(doubled.values()) == g.order
        assert not oracle_is_regular_representation(g, doubled)
        # a zero count is absent from the multiset, a negative one is not
        with_zero = Counter(chars)
        with_zero[FiniteAbelianGroup((4,)).trivial_character] = 0
        assert oracle_is_regular_representation(g, with_zero)
        with_zero[chars[0]] = -1
        assert not oracle_is_regular_representation(g, with_zero)

    def test_characters_of_another_group(self):
        # |G| distinct characters, but of Z/4 rather than Z/2 x Z/2
        g = FiniteAbelianGroup((2, 2))
        other = list(FiniteAbelianGroup((4,)).characters())
        assert len(other) == g.order
        assert not oracle_is_regular_representation(g, other)
        assert not oracle_is_regular_representation(g, Counter(other))
        assert oracle_is_regular_representation(FiniteAbelianGroup((4,)), other)
