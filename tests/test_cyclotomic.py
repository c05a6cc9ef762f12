"""Cyclotomic field arithmetic: polynomials, field axioms, characters, text."""

from __future__ import annotations

import functools
import math
import random
import re
from fractions import Fraction

import pytest

import ghilb_kit.cyclotomic as cyclotomic_module
from conftest import cyclic_action, inexact_scalars, product_action
from ghilb_kit.cyclotomic import (
    CyclotomicNumber,
    common_conductor,
    cyclotomic_polynomial,
    embed_to_conductor,
    euler_phi,
    parse_cyclotomic,
    to_text,
)
from ghilb_kit.group_rep import FiniteAbelianGroup, IntegrityError, character_exponent
from oracles import oracle_character_value, oracle_conjugate_mean

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
            assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m) == \
                sum(math.gcd(k, m) == 1 for k in range(1, m + 1))

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
        for m in [*range(1, 121), 2310, 5040]:
            expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
            assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected)

    def test_inexact_division_is_integrity_error(self):
        # x^d - 1 divides every product Phi_m is divided out of, so a remainder is a fault
        assert cyclotomic_module._divide_binomial([-1, 0, 0, 1], 1) == [1, 1, 1]
        with pytest.raises(IntegrityError, match="cyclotomic division left a remainder"):
            cyclotomic_module._divide_binomial([1, 1], 1)  # (x + 1) / (x - 1)

    @pytest.mark.parametrize("m", [2310, 5040, 30030, 720720])
    def test_large_conductors(self, m):
        # past sympy's reach: the product over the divisors modulo a prime,
        # the degree, the symmetry and the rule for the primes of m
        p = 2 ** 61 - 1
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        for a in (2, 3):
            prod = 1
            for d in divisors:
                prod = prod * functools.reduce(lambda acc, c: (acc * a + c) % p,
                                               reversed(cyclotomic_polynomial(d)), 0) % p
            assert prod == (pow(a, m, p) - 1) % p
        phi = cyclotomic_polynomial(m)
        assert len(phi) - 1 == sum(math.gcd(k, m) == 1 for k in range(1, m + 1))
        assert phi == phi[::-1]
        # the primes of these m are at most 13
        rad = math.prod(q for q in range(2, 14) if m % q == 0 and all(q % r for r in range(2, q)))
        assert phi[::m // rad] == cyclotomic_polynomial(rad)
        assert not any(c for i, c in enumerate(phi) if i % (m // rad))


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

    def test_root_of_unity_is_the_reduced_monomial(self):
        for m in range(1, 61):
            for k in range(2 * m):
                assert CyclotomicNumber.root_of_unity(m, k) == \
                    CyclotomicNumber.from_polynomial([0] * k + [1], m), (m, k)

    def test_plus_or_minus_one_needs_no_reduction(self, monkeypatch):
        # zeta_m^(m/2) = -1 was reduced one power at a time through Phi_m's tail
        CyclotomicNumber.root_of_unity(30030, 1)  # Phi_30030, built outside the count
        calls = []
        reduce = cyclotomic_module._reduce_mod_phi
        monkeypatch.setattr(cyclotomic_module, "_reduce_mod_phi",
                            lambda nums, m: calls.append(m) or reduce(nums, m))
        assert CyclotomicNumber.root_of_unity(30030, 15015) == -1
        assert CyclotomicNumber.root_of_unity(30030, -30030) == 1
        assert CyclotomicNumber.from_rational(Fraction(2, 3), 30030) == Fraction(2, 3)
        assert calls == []

    def test_all_roots_sum_to_zero(self):
        for m in (2, 3, 4, 5, 6, 12):
            z = CyclotomicNumber.root_of_unity(m)
            total = CyclotomicNumber.from_rational(0, m)
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
        # three terms, each an odd numerator over an even denominator, at every
        # conductor up to 60; then dense elements at the primes 47 and 59
        rng = random.Random(27)
        elements = []
        for m in range(1, 61):
            coeffs = [F(0)] * euler_phi(m)
            for _ in range(3):
                coeffs[rng.randrange(len(coeffs))] = F(2 * rng.randint(-5, 4) + 1, 2 * rng.randint(1, 5))
            elements.append(CyclotomicNumber(m, tuple(coeffs)))
        for m in (47, 59):
            elements.append(CyclotomicNumber(m, tuple(F(rng.randint(-5, 5), rng.randint(1, 5))
                                                      for _ in range(euler_phi(m)))))
        for a in elements:
            inv = a.inverse()
            assert a * inv == 1
            assert inv.inverse() == a

    def test_power_makes_only_the_binary_products(self, monkeypatch):
        # a square per bit below the top one and a product per further set bit
        count = []
        mul = CyclotomicNumber.__mul__

        def counted(a, b):
            count.append(1)
            return mul(a, b)

        monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
        monkeypatch.setattr(CyclotomicNumber, "__rmul__", counted)
        a = CyclotomicNumber.from_polynomial([F(1, 2), 2, -1], 5)
        for n in range(1, 70):
            count.clear()
            a ** n
            assert len(count) == n.bit_length() - 1 + n.bit_count() - 1, n

    @pytest.mark.parametrize("n", [2.0, F(2)])
    def test_power_needs_an_integer_exponent(self, n):
        # a float or a Fraction raised AttributeError: no 'bit_length'
        with pytest.raises(TypeError):
            CyclotomicNumber.root_of_unity(4) ** n

    def test_mixed_scalar_arithmetic(self):
        z6 = CyclotomicNumber.root_of_unity(6)
        assert (z6 + 1) - 1 == z6
        assert z6 * 2 / 2 == z6
        assert 2 * z6 == z6 + z6
        assert F(1, 2) * z6 + F(1, 2) * z6 == z6

    def test_zero_inversion(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.from_rational(0, 4) ** -1
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.one(4) / CyclotomicNumber.from_rational(0, 4)

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


class TestStorage:
    def test_integers_in_lowest_terms(self):
        half = CyclotomicNumber(4, (F(1, 2), F(3, 4)))
        assert (half.numerators, half.denominator) == ((2, 3), 4)
        assert half.coeffs == (F(1, 2), F(3, 4))
        # (1/2 + 3/4 z) * 4/3 = 2/3 + z: the 2 of 8/6 and 12/6 divides out
        third = half * F(4, 3)
        assert (third.numerators, third.denominator) == ((2, 3), 3)
        zero = half - half
        assert (zero.numerators, zero.denominator) == ((0, 0), 1)

    def test_immutable(self):
        z = CyclotomicNumber.root_of_unity(5)
        for name in ("conductor", "numerators", "denominator", "coeffs"):
            with pytest.raises(AttributeError):
                setattr(z, name, 1)
        with pytest.raises(AttributeError):
            del z.numerators


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

    @pytest.mark.parametrize("m", [0, -4])
    def test_every_entry_point_checks_the_conductor(self, m):
        # root_of_unity(0) and the embeddings into 0 raised ZeroDivisionError, into -4 IndexError
        z4 = CyclotomicNumber.root_of_unity(4)
        for make in (lambda: CyclotomicNumber.root_of_unity(m),
                     lambda: CyclotomicNumber.root_of_unity(m, 3),
                     lambda: CyclotomicNumber.one(m),
                     lambda: CyclotomicNumber.from_rational(F(1, 2), m),
                     lambda: CyclotomicNumber.from_polynomial([1, 2], m),
                     lambda: CyclotomicNumber(m, ()),
                     lambda: embed_to_conductor(z4, m),
                     lambda: embed_to_conductor(F(1, 2), m),
                     lambda: euler_phi(m),
                     lambda: cyclotomic_polynomial(m)):
            with pytest.raises(ValueError, match="conductor must be >= 1"):
                make()

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

    def test_rationals_lie_in_conductor_one(self):
        # both raised AttributeError on a Fraction
        half = embed_to_conductor(F(1, 2), 6)
        assert half == CyclotomicNumber.from_rational(F(1, 2), 6)
        assert half.conductor == 6
        assert embed_to_conductor(3, 1) == CyclotomicNumber.from_rational(3, 1)
        z4, z6 = CyclotomicNumber.root_of_unity(4), CyclotomicNumber.root_of_unity(6)
        assert common_conductor([F(1, 2), z4, z6]) == 12
        assert common_conductor([F(1, 2), 3, True]) == 1

    @inexact_scalars
    def test_inexact_scalars_rejected(self, bad):
        for make in (lambda: embed_to_conductor(bad, 4),
                     lambda: CyclotomicNumber.from_rational(bad, 4),
                     lambda: CyclotomicNumber.from_polynomial([1, bad], 4),
                     lambda: CyclotomicNumber(4, (F(1), bad))):
            with pytest.raises(TypeError, match="expected an int or a Fraction"):
                make()

    def test_bool_int_and_fraction_coefficients_accepted(self):
        want = CyclotomicNumber(4, (F(1), F(2)))
        assert CyclotomicNumber(4, (True, 2)) == want
        assert CyclotomicNumber.from_polynomial([True, F(2)], 4) == want
        assert all(type(c) is Fraction for c in CyclotomicNumber(4, (True, 2)).coeffs)

    def test_rational_hash_matches_fraction_semantics(self):
        a = CyclotomicNumber.from_rational(F(3, 2), 4)
        b = CyclotomicNumber.from_rational(F(3, 2), 6)
        assert a == b
        assert hash(a) == hash(b)
        # == holds across int and Fraction, so hash must too
        for q in (0, 1, -7, 2 ** 70, F(3, 2), F(-5, 7), F(10 ** 30, 3)):
            for m in (1, 4, 6, 105):
                a = CyclotomicNumber.from_rational(q, m)
                assert a == q and hash(a) == hash(q) == hash(F(q))

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

    @pytest.mark.parametrize("m", [1, 4, 12, 18, 30, 36, 60, 105])
    def test_hash_is_the_oracle_conjugate_mean(self, m):
        # 4, 12, 18, 36 and 60 have divisors n with mu(n) = 0; 30, 60 and 105 three primes
        rng = random.Random(m)
        for _ in range(12):
            a = CyclotomicNumber(m, tuple(F(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.4
                                          else F(0) for _ in range(euler_phi(m))))
            assert hash(a) == hash(oracle_conjugate_mean(a))
            for k in (2, 3, 5):
                b = embed_to_conductor(a, k * m)
                assert a == b and hash(a) == hash(b)
        for i in range(m):
            a = CyclotomicNumber.root_of_unity(m, i)
            assert hash(a) == hash(oracle_conjugate_mean(a))


class TestCharacterValue:
    def test_identity_element(self):
        group = FiniteAbelianGroup((2, 6))
        for chi in group.characters():
            assert oracle_character_value(group, group.identity, chi) == 1

    def test_z2_pairing(self):
        group = FiniteAbelianGroup((2,))
        chi = group.character((1,))
        assert oracle_character_value(group, (1,), chi) == -1

    def test_z4_pairing(self):
        group = FiniteAbelianGroup((4,))
        chi = group.character((3,))
        assert oracle_character_value(group, (1,), chi) == CyclotomicNumber.root_of_unity(4) ** 3

    def test_multiplicative_in_both_arguments(self):
        group = FiniteAbelianGroup((2, 4))
        chars = list(group.characters())
        elements = list(group.elements())
        rng = random.Random(23)
        for _ in range(20):
            chi, psi = rng.choice(chars), rng.choice(chars)
            g, h = rng.choice(elements), rng.choice(elements)
            gh = tuple((x + y) % d for x, y, d in zip(g, h, group.elementary_divisors))
            assert oracle_character_value(group, gh, chi) == \
                oracle_character_value(group, g, chi) * oracle_character_value(group, h, chi)
            assert oracle_character_value(group, g, chi + psi) == \
                oracle_character_value(group, g, chi) * oracle_character_value(group, g, psi)

    def test_orthogonality_small_groups(self):
        for divisors in ((2,), (3,), (4,), (2, 2), (2, 6), (12,)):
            group = FiniteAbelianGroup(divisors)
            for chi in group.characters():
                total = CyclotomicNumber.from_rational(0, group.exponent)
                for g in group.elements():
                    total = total + oracle_character_value(group, g, chi)
                assert total == (group.order if chi.is_trivial else 0)

    def test_validates_arguments(self):
        group = FiniteAbelianGroup((4,))
        other = FiniteAbelianGroup((3,))
        with pytest.raises(ValueError):
            character_exponent(group, (1,), other.character((1,)))
        with pytest.raises(ValueError):
            character_exponent(group, (1, 2), group.character((1,)))


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
            assert oracle_character_value(group, g, chi) == CyclotomicNumber.root_of_unity(m, k)

    def test_element_components_read_as_integers(self):
        # character_exponent once returned 1.5 here
        group = FiniteAbelianGroup((4,))
        chi = group.character((1,))
        with pytest.raises(TypeError):
            character_exponent(group, (1.5,), chi)
        assert character_exponent(group, (True,), chi) == 1
        assert character_exponent(group, (7,), chi) == 3
        assert oracle_character_value(group, (True,), chi) == CyclotomicNumber.root_of_unity(4, 1)


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

    @pytest.mark.parametrize("text", ["z", "2*z + 1", "1 - z^2", " z ", "z^0"])
    def test_untagged_z_rejected(self, text):
        # read in Q(zeta_1), z was 1: "2*z + 1" came back as 3
        with pytest.raises(ValueError, match=r"a literal in z needs its cyclo\(m\) tag"):
            parse_cyclotomic(text)

    def test_malformed_tag_reported_as_such(self):
        with pytest.raises(ValueError, match="cannot parse term 'cyclo\\(4\\) z'"):
            parse_cyclotomic("cyclo(4) z")

    @pytest.mark.parametrize("text", ["cyclo(-3): z", "cyclo(0): z", "cyclo(): 1", "cyclo(3x): z", "cyclo("])
    def test_bad_conductor_reported_as_such(self, text):
        # 'cyclo(-3): z' was reported as the unparsable term 'cyclo('
        with pytest.raises(ValueError, match=re.escape(f"invalid conductor in {text!r}")):
            parse_cyclotomic(text)

    def test_exponents_are_read_modulo_the_conductor(self):
        # z^e was one list entry per power of z: a huge exponent ran out of memory
        assert parse_cyclotomic("cyclo(5): 2*z^1000000000007 - z^7") == \
            CyclotomicNumber.root_of_unity(5, 2)

    def test_tagged_conductor_one_reads_z_as_one(self):
        assert parse_cyclotomic("cyclo(1): 2*z + 1") == 3

    def test_garbage_rejected(self):
        for bad in ("", "cyclo(4):", "z + q", "cyclo(x): 1"):
            with pytest.raises(ValueError):
                parse_cyclotomic(bad)
