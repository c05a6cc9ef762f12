"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are residues modulo the m-th cyclotomic polynomial Phi_m in the
power basis 1, z, ..., z^(phi(m)-1).  Reduction modulo Phi_m (rather than
modulo x^m - 1) makes the representation unique.  Phi_m itself is a quotient
of products of binomials x^d - 1, each d a product of primes of m.

A number is stored as its conductor, the phi(m) integer numerators of its
coefficients and one positive denominator, in lowest terms: the gcd of the
denominator and every numerator is 1.  That form is unique, so equality at
one conductor compares integers.  All arithmetic runs on the integers: Phi_m
is monic in Z[x], so reducing an integer polynomial stays in Z, and a sum or
product divides out one gcd at the end.  The coefficients as lowest-terms
Fractions are a read-only view.  The inverse is the product of the other
Galois conjugates over the (rational) norm.  The hash is that of the mean
Galois conjugate, a rational that does not depend on the conductor, so equal
numbers written in different fields hash alike.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from ghilb_kit.exact_linalg import _as_fraction
from ghilb_kit.group_rep import IntegrityError

Q0 = Fraction(0)
Q1 = Fraction(1)

Rational = Union[int, Fraction]


def _poly_mul(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _divide_binomial(poly: list[int], d: int) -> list[int]:
    """The quotient of poly by x^d - 1, which must divide it; poly is consumed."""
    for i in range(len(poly) - 1, d - 1, -1):
        poly[i - d] += poly[i]
    if any(poly[:d]):
        raise IntegrityError("cyclotomic division left a remainder")
    return poly[d:]


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending, monic, in Z[x]: with r the product of the
    primes of m, Phi_m(x) = Phi_r(x^(m/r)) and Phi_r = prod_{d | r} (x^d - 1)^mu(r/d)
    (Arnold and Monagan, "Calculating cyclotomic polynomials", Math. Comp. 80, 2011)."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    binomials, rad, rest, p = [(1, 1)], 1, m, 2  # (d, e) is (x^d - 1)^e; Phi_1 = x - 1
    while rest > 1:
        p = rest if p * p > rest else p  # past its square root, rest is prime
        if rest % p == 0:  # Phi_(rad p)(x) = Phi_rad(x^p) / Phi_rad(x)
            binomials = [(d * p, e) for d, e in binomials] + [(d, -e) for d, e in binomials]
            rad *= p
            while rest % p == 0:
                rest //= p
        p += 1
    poly = [1]
    for d in [d for d, e in binomials if e > 0]:
        poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in [d for d, e in binomials if e < 0]:
        poly = _divide_binomial(poly, d)
    spread = [0] * ((len(poly) - 1) * (m // rad) + 1)
    spread[::m // rad] = poly
    return tuple(spread)


@functools.lru_cache(maxsize=None)
def _phi_tail(m: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (j, c_j) of Phi_m below its leading term."""
    return tuple((j, c) for j, c in enumerate(cyclotomic_polynomial(m)[:-1]) if c)


@functools.lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """phi(m), the degree of Phi_m."""
    return len(cyclotomic_polynomial(m)) - 1


def _numerators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of rational coefficients over their least common denominator."""
    dens = [c.denominator for c in coeffs]
    den = math.lcm(*dens)
    return [c.numerator * (den // d) for c, d in zip(coeffs, dens)], den


def _reduce_mod_phi(nums: list[int], m: int) -> list[int]:
    """The integer polynomial nums modulo Phi_m, padded to length phi(m).

    Phi_m is monic in Z[x], so the remainder of an integer polynomial is an
    integer polynomial.  The list nums is consumed and returned.
    """
    tail = _phi_tail(m)
    deg = len(cyclotomic_polynomial(m)) - 1
    for i in range(len(nums) - 1, deg - 1, -1):
        # z^i = z^(i-deg) * z^deg, and z^deg = -(Phi_m minus its leading term)
        c = nums.pop()
        if c:
            shift = i - deg
            for j, p in tail:
                nums[shift + j] -= c * p
    nums += [0] * (deg - len(nums))
    return nums


def _substitute_power(a: "CyclotomicNumber", k: int, m: int) -> "CyclotomicNumber":
    """sum_i c_i zeta_m^(i k) for a = sum_i c_i zeta^i: the Galois conjugate
    sigma_k when m is a's conductor, the embedding into Q(zeta_m) when k = m / a.conductor."""
    out = [0] * m
    for i, c in enumerate(a.numerators):
        if c:
            out[i * k % m] += c
    return CyclotomicNumber._from_ints(m, _reduce_mod_phi(out, m), a.denominator)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class CyclotomicNumber:
    """An exact element of Q(zeta_m), reduced modulo Phi_m.

    It is stored as its conductor m, the integer numerators of its phi(m)
    power-basis coefficients and one positive denominator, in lowest terms:
    the gcd of the denominator and the numerators is 1, and zero is all
    zeros over 1.
    """

    conductor: int
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, conductor: int, coeffs: Sequence[Rational]) -> None:
        coeffs = tuple(map(_as_fraction, coeffs))
        deg = euler_phi(conductor)
        if len(coeffs) != deg:
            raise ValueError(f"need {deg} coefficients for conductor {conductor}")
        # the least common denominator of lowest-terms fractions leaves no common factor
        nums, den = _numerators(coeffs)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominator", den)

    @classmethod
    def _from_ints(cls, m: int, nums: Sequence[int], den: int) -> "CyclotomicNumber":
        """nums / den in Q(zeta_m), den > 0 and nums of length phi(m), put in lowest terms.

        Only for integers that this module's own arithmetic made; everything
        else goes through CyclotomicNumber(...) or a public constructor.
        """
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        number = object.__new__(cls)
        object.__setattr__(number, "conductor", m)
        object.__setattr__(number, "numerators", tuple(nums))
        object.__setattr__(number, "denominator", den)
        return number

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions in lowest terms."""
        den = self.denominator
        return tuple(Fraction(n, den) for n in self.numerators)

    # --- constructors -------------------------------------------------

    @classmethod
    def one(cls, m: int) -> "CyclotomicNumber":
        return cls.from_rational(Q1, m)

    @classmethod
    def from_rational(cls, q: Rational, m: int) -> "CyclotomicNumber":
        q = _as_fraction(q)
        return cls._from_ints(m, [q.numerator] + [0] * (euler_phi(m) - 1), q.denominator)

    @classmethod
    def from_polynomial(cls, coeffs: Sequence[Rational], m: int) -> "CyclotomicNumber":
        nums, den = _numerators(list(map(_as_fraction, coeffs)))
        return cls._from_ints(m, _reduce_mod_phi(nums, m), den)

    @classmethod
    def root_of_unity(cls, m: int, power: int = 1) -> "CyclotomicNumber":
        """zeta_m ** power; it is +-1, needing no reduction, when 2 * power is a multiple of m."""
        euler_phi(m)  # the conductor check, before m divides power
        k = power % m
        if 2 * k % m == 0:
            return cls.from_rational(-1 if k else 1, m)
        return cls._from_ints(m, _reduce_mod_phi([0] * k + [1], m), 1)

    # --- predicates ---------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.numerators)

    def is_rational(self) -> bool:
        return not any(self.numerators[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.numerators[0], self.denominator)

    # --- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "CyclotomicNumber":
        if isinstance(other, CyclotomicNumber):
            if other.conductor != self.conductor:
                raise ValueError(
                    f"conductor mismatch: {self.conductor} vs {other.conductor}; "
                    "embed into a common conductor first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(other, self.conductor)
        return NotImplemented

    def _plus(self, other: "CyclotomicNumber", sign: int) -> "CyclotomicNumber":
        """self + sign * other, over the lcm of the two denominators."""
        da, db = self.denominator, other.denominator
        den = math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return CyclotomicNumber._from_ints(
            self.conductor, [a * fa + b * fb for a, b in zip(self.numerators, other.numerators)], den)

    def __add__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber._from_ints(self.conductor, [-n for n in self.numerators], self.denominator)

    def __sub__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other) -> "CyclotomicNumber":
        return (-self) + other

    def __mul__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.conductor
        product = _reduce_mod_phi(_poly_mul(self.numerators, other.numerators), m)
        return CyclotomicNumber._from_ints(m, product, self.denominator * other.denominator)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse: the product of the other Galois conjugates over the norm.

        sigma_k sends zeta to zeta^k for k a unit mod m, and the norm
        a * prod_{k != 1} sigma_k(a) is a nonzero rational for nonzero a.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        m = self.conductor
        conjugates = [_substitute_power(self, k, m) for k in range(2, m) if math.gcd(k, m) == 1]
        others = functools.reduce(operator.mul, conjugates) if conjugates else CyclotomicNumber.one(m)
        norm = (self * others).rational_value()
        p, q = norm.numerator, norm.denominator
        if p < 0:
            p, q = -p, -q
        return CyclotomicNumber._from_ints(m, [n * q for n in others.numerators], others.denominator * p)

    def __truediv__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CyclotomicNumber":
        return self.inverse() * other

    def __pow__(self, n: int) -> "CyclotomicNumber":
        n = operator.index(n)
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return CyclotomicNumber.one(self.conductor)
        # left to right: a square per bit below the top one, a product per further set bit
        result = self
        for bit in range(n.bit_length() - 2, -1, -1):
            result = result * result
            if n >> bit & 1:
                result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            # both sides are in lowest terms
            return (self.is_rational() and self.numerators[0] == other.numerator
                    and self.denominator == other.denominator)
        if isinstance(other, CyclotomicNumber):
            a, b = self, other
            if a.conductor != b.conductor:
                m = math.lcm(a.conductor, b.conductor)
                a, b = embed_to_conductor(a, m), embed_to_conductor(b, m)
            return a.numerators == b.numerators and a.denominator == b.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # equal numbers may carry different conductors: hash the mean of the
        # Galois conjugates, a rational that is q itself for a rational q.
        # zeta_m^i is a primitive n-th root of unity, n = m / gcd(i, m), whose
        # conjugates are the roots of Phi_n: phi(n) of them, summing to mu(n)
        m = self.conductor
        mean = Q0
        for i, c in enumerate(self.coeffs):
            if c:
                phi = cyclotomic_polynomial(m // math.gcd(i, m))
                mean += c * Fraction(-phi[-2], len(phi) - 1)
        return hash(mean)

    def __repr__(self) -> str:
        return f"CyclotomicNumber({to_text(self)!r})"


def embed_to_conductor(a: Union[CyclotomicNumber, Rational], new_conductor: int) -> CyclotomicNumber:
    """Rewrite a in Q(zeta_m') for m | m'; the complex value is unchanged.

    A rational a lies in Q = Q(zeta_1), so it embeds in every Q(zeta_m').
    """
    if not isinstance(a, CyclotomicNumber):
        return CyclotomicNumber.from_rational(a, new_conductor)
    euler_phi(new_conductor)  # the conductor check, before a.conductor divides it
    if new_conductor % a.conductor != 0:
        raise ValueError(f"{a.conductor} does not divide {new_conductor}")
    if new_conductor == a.conductor:
        return a
    return _substitute_power(a, new_conductor // a.conductor, new_conductor)


def common_conductor(values: Sequence[Union[CyclotomicNumber, Rational]]) -> int:
    """The lcm m of the conductors of values, a rational counting as 1: all lie in Q(zeta_m)."""
    return math.lcm(1, *(v.conductor for v in values if isinstance(v, CyclotomicNumber)))


# --- text form ---------------------------------------------------------

_TERM_RE = re.compile(
    r"""^\s*(?:
        (?P<coef>-?\d+(?:/\d+)?)\s*(?:\*\s*(?P<pow1>z(?:\^(?P<exp1>\d+))?))?
        | (?P<pow2>z(?:\^(?P<exp2>\d+))?)
    )\s*$""",
    re.VERBOSE,
)


def to_text(a: CyclotomicNumber) -> str:
    """Render as e.g. 'cyclo(4): 1/2 + z'; rationals keep the conductor tag."""
    parts = []
    den = a.denominator
    for i, n in enumerate(a.numerators):
        if not n:
            continue
        g = math.gcd(n, den)
        num, q = abs(n) // g, den // g
        mag = str(num) if q == 1 else f"{num}/{q}"
        if i == 0:
            body = mag
        else:
            power = "z" if i == 1 else f"z^{i}"
            body = power if mag == "1" else f"{mag}*{power}"
        parts.append(("-" if n < 0 else "+", body))
    if not parts:
        return f"cyclo({a.conductor}): 0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return f"cyclo({a.conductor}): {text}"


def parse_cyclotomic(text: str) -> CyclotomicNumber:
    """Parse the text form; a bare rational is read in Q = Q(zeta_1), so z needs a cyclo(m) tag."""
    text = text.strip()
    m = 1
    tag = re.match(r"^cyclo\((\d+)\)\s*:\s*(.*)$", text)
    if tag:
        m = int(tag.group(1))
        if m < 1:
            raise ValueError(f"invalid conductor in {text!r}")
        text = tag.group(2).strip()
    elif re.match(r"^cyclo\((?!\d+\))", text):
        raise ValueError(f"invalid conductor in {text!r}")
    if not text:
        raise ValueError("empty cyclotomic literal")
    # split into signed terms
    norm = text.replace("-", "+-")
    terms = [t.strip() for t in norm.split("+")]
    terms = [t for t in terms if t]
    coeffs: list[Fraction] = []
    for term in terms:
        negative = term.startswith("-")
        if negative:
            term = term[1:].strip()
        match = _TERM_RE.match(term)
        if not match:
            raise ValueError(f"cannot parse term {term!r} of cyclotomic literal")
        if not tag and "z" in term:
            raise ValueError(f"a literal in z needs its cyclo(m) tag: {text!r}")
        if match.group("pow2") is not None:
            coef = Q1
            exp = int(match.group("exp2") or 1)
        else:
            coef = Fraction(match.group("coef"))
            if match.group("pow1") is not None:
                exp = int(match.group("exp1") or 1)
            else:
                exp = 0
        exp %= m  # z^m = 1
        if negative:
            coef = -coef
        if len(coeffs) <= exp:
            coeffs += [Q0] * (exp + 1 - len(coeffs))
        coeffs[exp] += coef
    return CyclotomicNumber.from_polynomial(coeffs, m)
