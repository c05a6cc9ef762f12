"""Cyclotomic field arithmetic: polynomials, field axioms, characters, text."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import cyclic_action, product_action
from ghilb_kit.cyclotomic import (
    CyclotomicNumber,
    character_exponent,
    character_value,
    common_conductor,
    cyclotomic_polynomial,
    embed_to_conductor,
    euler_phi,
    parse_cyclotomic,
    to_text,
)
from ghilb_kit.group_rep import FiniteAbelianGroup

F = Fraction


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_known_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        for m in range(1, 25):
            assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)

    def test_product_over_divisors(self):
        # prod over d | m of Phi_d equals x^m - 1
        for m in range(1, 25):
            prod = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
            expected = [-1] + [0] * (m - 1) + [1]
            assert prod == expected

    def test_coefficients_are_ints(self):
        for m in range(1, 121):
            assert all(type(c) is int for c in cyclotomic_polynomial(m))

    def test_euler_phi(self):
        assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_equals_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for m in range(1, 121):
            expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
            assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected)


class TestArithmetic:
    def test_zeta4_squared(self):
        z4 = CyclotomicNumber.root_of_unity(4)
        assert z4 * z4 == -1

    def test_zeta3_sum(self):
        z3 = CyclotomicNumber.root_of_unity(3)
        assert z3 + z3 * z3 == -1

    def test_inverse_of_root(self):
        z5 = CyclotomicNumber.root_of_unity(5)
        assert z5 ** -1 == z5 ** 4
        assert z5 * z5 ** -1 == 1

    def test_roots_of_unity_primitive(self):
        for m in (2, 3, 4, 6, 8, 12):
            z = CyclotomicNumber.root_of_unity(m)
            assert z ** m == 1
            for k in range(1, m):
                assert z ** k != 1

    def test_all_roots_sum_to_zero(self):
        for m in (2, 3, 4, 5, 6, 12):
            z = CyclotomicNumber.root_of_unity(m)
            total = CyclotomicNumber.zero(m)
            for k in range(m):
                total = total + z ** k
            assert total == 0

    def test_field_axioms_random(self):
        rng = random.Random(21)
        for _ in range(40):
            m = rng.choice((4, 5, 6, 8, 12))
            def rand():
                return CyclotomicNumber(m, tuple(F(rng.randint(-5, 5)) for _ in range(euler_phi(m))))
            a, b, c = rand(), rand(), rand()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c
            if b:
                assert (a / b) * b == a
                assert b * b ** -1 == 1

    def test_inverse_rational_coefficients(self):
        # three terms, each an odd numerator over an even denominator; a dense
        # element of degree ~60 would make Euclid over Q take seconds
        rng = random.Random(27)
        for m in range(1, 61):
            coeffs = [F(0)] * euler_phi(m)
            for _ in range(3):
                coeffs[rng.randrange(len(coeffs))] = F(2 * rng.randint(-5, 4) + 1, 2 * rng.randint(1, 5))
            a = CyclotomicNumber(m, tuple(coeffs))
            inv = a.inverse()
            assert a * inv == 1
            assert inv.inverse() == a

    def test_mixed_scalar_arithmetic(self):
        z6 = CyclotomicNumber.root_of_unity(6)
        assert (z6 + 1) - 1 == z6
        assert z6 * 2 / 2 == z6
        assert 2 * z6 == z6 + z6
        assert F(1, 2) * z6 + F(1, 2) * z6 == z6

    def test_zero_inversion(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.zero(4) ** -1
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.one(4) / CyclotomicNumber.zero(4)

    def test_conductor_mismatch(self):
        with pytest.raises(ValueError):
            CyclotomicNumber.root_of_unity(3) + CyclotomicNumber.root_of_unity(4)

    def test_rational_detection(self):
        z3 = CyclotomicNumber.root_of_unity(3)
        v = z3 + z3 ** 2
        assert v.is_rational()
        assert v.rational_value() == -1
        assert not z3.is_rational()
        with pytest.raises(ValueError):
            z3.rational_value()


class TestEmbedding:
    def test_pinned_examples(self):
        minus_one = CyclotomicNumber.root_of_unity(2)
        image = embed_to_conductor(minus_one, 4)
        assert image.conductor == 4
        assert image == -1

        three = CyclotomicNumber.from_rational(F(3), 1)
        for m in (2, 5, 12):
            assert embed_to_conductor(three, m).rational_value() == 3

        z3 = CyclotomicNumber.root_of_unity(3)
        image = embed_to_conductor(z3, 6)
        assert image ** 3 == 1
        assert image != 1
        assert image == CyclotomicNumber.root_of_unity(6) ** 2

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            embed_to_conductor(CyclotomicNumber.root_of_unity(4), 6)

    def test_commutes_with_arithmetic(self):
        rng = random.Random(22)
        for _ in range(25):
            m, m2 = rng.choice(((3, 6), (4, 12), (6, 12), (2, 8)))
            def rand():
                return CyclotomicNumber(m, tuple(F(rng.randint(-4, 4)) for _ in range(euler_phi(m))))
            a, b = rand(), rand()
            for op in (lambda u, v: u + v, lambda u, v: u * v):
                assert embed_to_conductor(op(a, b), m2) == \
                    op(embed_to_conductor(a, m2), embed_to_conductor(b, m2))

    def test_cross_conductor_equality(self):
        z6 = CyclotomicNumber.root_of_unity(6)
        z3 = CyclotomicNumber.root_of_unity(3)
        assert z6 ** 2 == z3
        assert z6 ** 3 == CyclotomicNumber.root_of_unity(2)

    def test_common_conductor(self):
        a = CyclotomicNumber.root_of_unity(4)
        b = CyclotomicNumber.root_of_unity(6)
        m = common_conductor([a, b])
        assert m == 12
        a2 = embed_to_conductor(a, m)
        b2 = embed_to_conductor(b, m)
        assert a2.conductor == b2.conductor == 12
        assert a2 == a and b2 == b

    def test_rational_hash_matches_fraction_semantics(self):
        a = CyclotomicNumber.from_rational(F(3, 2), 4)
        b = CyclotomicNumber.from_rational(F(3, 2), 6)
        assert a == b
        assert hash(a) == hash(b)

    def test_hash_agrees_across_conductors(self):
        z3 = CyclotomicNumber.root_of_unity(3)
        z3_in_6 = embed_to_conductor(z3, 6)
        assert z3 == z3_in_6
        assert hash(z3) == hash(z3_in_6)
        assert len({z3, z3_in_6}) == 1

    def test_hash_agrees_after_random_embeddings(self):
        rng = random.Random(11)
        for m in (3, 4, 5, 6, 8, 9, 12):
            for _ in range(5):
                a = CyclotomicNumber.from_polynomial(
                    [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(euler_phi(m))], m)
                for k in (2, 3, 4):
                    b = embed_to_conductor(a, k * m)
                    assert a == b and hash(a) == hash(b)
        # zeta_12^4 = zeta_3 and zeta_12^3 = i have smaller conductors than 12
        assert hash(CyclotomicNumber.root_of_unity(12, 4)) == hash(CyclotomicNumber.root_of_unity(3))
        assert hash(CyclotomicNumber.root_of_unity(12, 3)) == hash(CyclotomicNumber.root_of_unity(4))


class TestCharacterValue:
    def test_identity_element(self):
        group = FiniteAbelianGroup((2, 6))
        for chi in group.characters():
            assert character_value(group, group.identity, chi) == 1

    def test_z2_pairing(self):
        group = FiniteAbelianGroup((2,))
        chi = group.character((1,))
        assert character_value(group, (1,), chi) == -1

    def test_z4_pairing(self):
        group = FiniteAbelianGroup((4,))
        chi = group.character((3,))
        assert character_value(group, (1,), chi) == CyclotomicNumber.root_of_unity(4) ** 3

    def test_multiplicative_in_both_arguments(self):
        group = FiniteAbelianGroup((2, 4))
        chars = list(group.characters())
        elements = list(group.elements())
        rng = random.Random(23)
        for _ in range(20):
            chi, psi = rng.choice(chars), rng.choice(chars)
            g, h = rng.choice(elements), rng.choice(elements)
            gh = tuple((x + y) % d for x, y, d in zip(g, h, group.elementary_divisors))
            assert character_value(group, gh, chi) == \
                character_value(group, g, chi) * character_value(group, h, chi)
            assert character_value(group, g, chi + psi) == \
                character_value(group, g, chi) * character_value(group, g, psi)

    def test_orthogonality_small_groups(self):
        for divisors in ((2,), (3,), (4,), (2, 2), (2, 6), (12,)):
            group = FiniteAbelianGroup(divisors)
            for chi in group.characters():
                total = CyclotomicNumber.zero(group.exponent)
                for g in group.elements():
                    total = total + character_value(group, g, chi)
                assert total == (group.order if chi.is_trivial else 0)

    def test_validates_arguments(self):
        group = FiniteAbelianGroup((4,))
        other = FiniteAbelianGroup((3,))
        for pairing in (character_exponent, character_value):
            with pytest.raises(ValueError):
                pairing(group, (1,), other.character((1,)))
            with pytest.raises(ValueError):
                pairing(group, (1, 2), group.character((1,)))


class TestCharacterExponent:
    @pytest.mark.parametrize("divisors", [(), (2,), (5,), (12,), (2, 2), (2, 6), (3, 4)])
    def test_integer_pairing(self, divisors):
        """Bilinear mod m, zeta_m^((m/d_i) c_i) on the i-th generator, and value zeta_m^k."""
        group = FiniteAbelianGroup(divisors)
        m = group.exponent
        elements = list(group.elements())
        chars = list(group.characters())
        for i, d in enumerate(divisors):
            e_i = tuple(int(j == i) for j in range(len(divisors)))
            for chi in chars:
                assert character_exponent(group, e_i, chi) == (m // d) * chi.components[i] % m
        rng = random.Random(25)
        for _ in range(30):
            chi, psi = rng.choice(chars), rng.choice(chars)
            g, h = rng.choice(elements), rng.choice(elements)
            gh = tuple((x + y) % d for x, y, d in zip(g, h, divisors))
            k = character_exponent(group, g, chi)
            assert 0 <= k < m
            assert character_exponent(group, gh, chi) == (k + character_exponent(group, h, chi)) % m
            assert character_exponent(group, g, chi + psi) == (k + character_exponent(group, g, psi)) % m
            assert character_value(group, g, chi) == CyclotomicNumber.root_of_unity(m, k)


class TestText:
    def test_examples(self):
        a = parse_cyclotomic("cyclo(4): 1/2 + z")
        assert a.conductor == 4
        assert a.coeffs == (F(1, 2), F(1))
        assert to_text(a) == "cyclo(4): 1/2 + z"

    def test_plain_rationals(self):
        assert parse_cyclotomic("3").rational_value() == 3
        assert parse_cyclotomic("-5/2").rational_value() == F(-5, 2)
        assert parse_cyclotomic("0") == 0

    def test_round_trip_random(self):
        rng = random.Random(24)
        for _ in range(50):
            m = rng.choice((1, 3, 4, 5, 8, 12))
            a = CyclotomicNumber(m, tuple(F(rng.randint(-9, 9), rng.randint(1, 9))
                                          for _ in range(euler_phi(m))))
            assert parse_cyclotomic(to_text(a)) == a

    def test_negative_leading_term(self):
        z = CyclotomicNumber.root_of_unity(4)
        assert parse_cyclotomic(to_text(-z)) == -z

    def test_garbage_rejected(self):
        for bad in ("", "cyclo(4):", "z + q", "cyclo(x): 1"):
            with pytest.raises(ValueError):
                parse_cyclotomic(bad)
