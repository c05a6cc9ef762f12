"""Characters, groups, actions and representation-multiset predicates."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import cyclic_action, product_action, sl2_action
from ghilb_kit.group_rep import (
    ActionData,
    Character,
    FiniteAbelianGroup,
    is_regular_representation,
    isotypical_split,
    regular_rep_multiset,
    weight_of_monomial,
)


class TestCharacter:
    def test_components_reduced(self):
        assert Character((3,), (5,)).components == (2,)
        assert Character((2, 4), (-1, 6)).components == (1, 2)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            Character((2, 3), (1,))

    def test_arithmetic(self):
        a = Character((6,), (4,))
        b = Character((6,), (3,))
        assert (a + b).components == (1,)
        assert (a - b).components == (1,)
        assert (-a).components == (2,)
        assert a.times(3).components == (0,)

    def test_cross_group_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            Character((2,), (1,)) + Character((3,), (1,))

    def test_order(self):
        assert Character((6,), (0,)).order() == 1
        assert Character((6,), (2,)).order() == 3
        assert Character((6,), (1,)).order() == 6
        assert Character((2, 4), (1, 2)).order() == 2
        assert Character((), ()).order() == 1

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

    def test_enumerations(self):
        g = FiniteAbelianGroup((2, 3))
        assert len(list(g.characters())) == 6
        assert len(set(g.characters())) == 6
        elements = list(g.elements())
        assert len(elements) == 6
        assert elements[0] == g.identity == (0, 0)

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


class TestRegularRepresentation:
    def test_multiset(self):
        g = FiniteAbelianGroup((2, 3))
        multiset = regular_rep_multiset(g)
        assert sum(multiset.values()) == 6
        assert all(v == 1 for v in multiset.values())

    def test_predicate(self):
        g = FiniteAbelianGroup((4,))
        chars = list(g.characters())
        assert is_regular_representation(g, chars)
        assert not is_regular_representation(g, chars[:-1])
        assert not is_regular_representation(g, chars + [chars[0]])
        assert not is_regular_representation(g, chars[:-1] + [chars[0]])

    def test_trivial_group(self):
        g = FiniteAbelianGroup(())
        assert is_regular_representation(g, [g.trivial_character])
        assert not is_regular_representation(g, [])
        assert is_regular_representation(g, Counter([g.trivial_character]))
        # one character, but of the group Z/2
        assert not is_regular_representation(g, [FiniteAbelianGroup((2,)).trivial_character])

    def test_counter_input(self):
        g = FiniteAbelianGroup((2, 3))
        chars = list(g.characters())
        assert is_regular_representation(g, Counter(chars))
        assert is_regular_representation(g, regular_rep_multiset(g))
        doubled = Counter(chars[:-1] + [chars[0]])
        assert sum(doubled.values()) == g.order
        assert not is_regular_representation(g, doubled)
        # a zero count is absent from the multiset, a negative one is not
        with_zero = Counter(chars)
        with_zero[FiniteAbelianGroup((4,)).trivial_character] = 0
        assert is_regular_representation(g, with_zero)
        with_zero[chars[0]] = -1
        assert not is_regular_representation(g, with_zero)

    def test_characters_of_another_group(self):
        # |G| distinct characters, but of Z/4 rather than Z/2 x Z/2
        g = FiniteAbelianGroup((2, 2))
        other = list(FiniteAbelianGroup((4,)).characters())
        assert len(other) == g.order
        assert not is_regular_representation(g, other)
        assert not is_regular_representation(g, Counter(other))
        assert is_regular_representation(FiniteAbelianGroup((4,)), other)


class TestIsotypicalSplit:
    def test_partition_property(self):
        rng = random.Random(7)
        action = cyclic_action(6, (1, 4))
        for _ in range(20):
            exps = [(rng.randrange(6), rng.randrange(6)) for _ in range(10)]
            split = isotypical_split(action, exps)
            rebuilt = Counter()
            for chi, items in split.items():
                for e in items:
                    assert weight_of_monomial(action, e) == chi
                    rebuilt[e] += 1
            assert rebuilt == Counter(exps)
