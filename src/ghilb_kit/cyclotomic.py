"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are residues modulo the m-th cyclotomic polynomial Phi_m in the
power basis 1, z, ..., z^(phi(m)-1).  Reduction modulo Phi_m (rather than
modulo x^m - 1) makes the representation unique, so equality is plain
coefficient comparison.  Phi_m itself is obtained by the recursive quotient
Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from ghilb_kit.exact_linalg import solve_rows
from ghilb_kit.group_rep import Character, FiniteAbelianGroup

Q0 = Fraction(0)
Q1 = Fraction(1)

Rational = Union[int, Fraction]


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("conductor must be >= 1")
    result = m
    k = m
    p = 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            result -= result // p
        p += 1
    if k > 1:
        result -= result // k
    return result


def _poly_trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_mul(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divmod(num: Sequence, den: Sequence) -> tuple[list, list]:
    """Exact quotient and remainder of num by a trimmed nonzero den.

    A monic den keeps integer input in Z[x]; otherwise the coefficients must
    be Fractions.
    """
    num = _poly_trim(list(num))
    lead = den[-1]
    quot = [0] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den):
        c = num[-1] if lead == 1 else num[-1] / lead
        shift = len(num) - len(den)
        quot[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
        _poly_trim(num)
    return quot, num


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending, monic, in Z[x]."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return tuple(num)


def _reduce_mod_phi(coeffs: list[Fraction], m: int) -> tuple[Fraction, ...]:
    """Reduce a rational polynomial modulo Phi_m and pad to length phi(m)."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            # z^i = z^(i-deg) * (z^deg) with z^deg = -(phi minus leading term)
            for j in range(deg):
                work[i - deg + j] -= c * phi[j]
        work.pop()
    work += [Q0] * (deg - len(work))
    return tuple(work)


@dataclass(frozen=True)
class CyclotomicNumber:
    """An exact element of Q(zeta_m), reduced modulo Phi_m."""

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        deg = euler_phi(self.conductor)
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if len(coeffs) != deg:
            raise ValueError(f"need {deg} coefficients for conductor {self.conductor}")
        object.__setattr__(self, "coeffs", coeffs)

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "CyclotomicNumber":
        return cls(m, (Q0,) * euler_phi(m))

    @classmethod
    def one(cls, m: int) -> "CyclotomicNumber":
        return cls.from_rational(Q1, m)

    @classmethod
    def from_rational(cls, q: Rational, m: int) -> "CyclotomicNumber":
        return cls(m, _reduce_mod_phi([Fraction(q)], m))

    @classmethod
    def from_polynomial(cls, coeffs: Sequence[Rational], m: int) -> "CyclotomicNumber":
        return cls(m, _reduce_mod_phi([Fraction(c) for c in coeffs], m))

    @classmethod
    def root_of_unity(cls, m: int, power: int = 1) -> "CyclotomicNumber":
        """zeta_m ** power."""
        power %= m
        return cls(m, _reduce_mod_phi([Q0] * power + [Q1], m))

    # --- predicates ---------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return self.coeffs[0]

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

    def __add__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(self.conductor, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(self.conductor, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other) -> "CyclotomicNumber":
        return (-self) + other

    def __mul__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod = _poly_mul(self.coeffs, other.coeffs)
        return CyclotomicNumber(self.conductor, _reduce_mod_phi(prod, self.conductor))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if not self:
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r1 = _poly_trim(list(self.coeffs))
        s0, s1 = [Q0], [Q1]
        while r1:
            q, rem = _poly_divmod(r0, r1)
            step = itertools.zip_longest(s0, _poly_mul(q, s1), fillvalue=Q0)
            r0, r1, s0, s1 = r1, rem, s1, [a - b for a, b in step]
        # r0 is a nonzero constant: Phi_m is irreducible over Q
        const = r0[0]
        inv_coeffs = [c / const for c in s0]
        return CyclotomicNumber(self.conductor, _reduce_mod_phi(inv_coeffs, self.conductor))

    def __truediv__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CyclotomicNumber":
        return self.inverse() * other

    def __pow__(self, n: int) -> "CyclotomicNumber":
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.one(self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, CyclotomicNumber):
            if self.conductor == other.conductor:
                return self.coeffs == other.coeffs
            m = math.lcm(self.conductor, other.conductor)
            return embed_to_conductor(self, m).coeffs == embed_to_conductor(other, m).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # equal numbers may carry different conductors: hash the canonical form
        if self.is_rational():
            return hash(self.coeffs[0])
        low = _minimal_conductor_form(self)
        return hash((low.conductor, low.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicNumber({to_text(self)!r})"


def embed_to_conductor(a: CyclotomicNumber, new_conductor: int) -> CyclotomicNumber:
    """Rewrite a in Q(zeta_m') for m | m'; the complex value is unchanged."""
    if new_conductor % a.conductor != 0:
        raise ValueError(f"{a.conductor} does not divide {new_conductor}")
    if new_conductor == a.conductor:
        return a
    k = new_conductor // a.conductor
    out = [Q0] * ((len(a.coeffs) - 1) * k + 1 if a.coeffs else 1)
    for i, c in enumerate(a.coeffs):
        if c:
            out[i * k] += c
    return CyclotomicNumber(new_conductor, _reduce_mod_phi(out, new_conductor))


@functools.lru_cache(maxsize=None)
def _embedding_rows(d: int, m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of Q(zeta_d) -> Q(zeta_m) in the power bases: phi(m) rows, phi(d) columns."""
    columns = [
        embed_to_conductor(CyclotomicNumber.root_of_unity(d, j), m).coeffs
        for j in range(euler_phi(d))
    ]
    return tuple(zip(*columns))


def _minimal_conductor_form(a: CyclotomicNumber) -> CyclotomicNumber:
    """a rewritten in Q(zeta_d) for the least d with a in Q(zeta_d).

    The fields containing a are closed under intersection, Q(zeta_d) and
    Q(zeta_e) meeting in Q(zeta_gcd(d, e)), so the least such d divides every
    conductor a can be written in and the form is the same for all of them.
    """
    m = a.conductor
    for d in range(1, m + 1):
        if m % d == 0:
            coeffs = solve_rows(_embedding_rows(d, m), a.coeffs)
            if coeffs is not None:
                return CyclotomicNumber(d, tuple(coeffs))
    raise AssertionError("a number always lies in its own conductor's field")


def common_conductor(values: Sequence[CyclotomicNumber]) -> int:
    return math.lcm(1, *(v.conductor for v in values))


def character_exponent(group: FiniteAbelianGroup, g: Sequence[int], chi: Character) -> int:
    """The k in [0, m) with chi(g) = prod_i zeta_{d_i}^{g_i * c_i} = zeta_m^k, m = lcm(d_i)."""
    if chi.divisors != group.elementary_divisors:
        raise ValueError("character does not belong to the group")
    if len(g) != len(group.elementary_divisors):
        raise ValueError("element arity does not match the group")
    m = group.exponent
    return sum((m // di) * (gi % di) * ci
               for gi, ci, di in zip(g, chi.components, group.elementary_divisors)) % m


def character_value(group: FiniteAbelianGroup, g: Sequence[int],
                    chi: Character) -> CyclotomicNumber:
    """Pairing value chi(g) = zeta_m^character_exponent(group, g, chi), m the group exponent."""
    return CyclotomicNumber.root_of_unity(group.exponent, character_exponent(group, g, chi))


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
    for i, c in enumerate(a.coeffs):
        if not c:
            continue
        mag = -c if c < 0 else c
        if i == 0:
            body = str(mag)
        else:
            power = "z" if i == 1 else f"z^{i}"
            body = power if mag == 1 else f"{mag}*{power}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return f"cyclo({a.conductor}): 0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return f"cyclo({a.conductor}): {text}"


def parse_cyclotomic(text: str, default_conductor: int = 1) -> CyclotomicNumber:
    """Parse the text form; a bare rational is read in the default conductor."""
    text = text.strip()
    m = default_conductor
    tag = re.match(r"^cyclo\((\d+)\)\s*:\s*(.*)$", text)
    if tag:
        m = int(tag.group(1))
        if m < 1:
            raise ValueError(f"invalid conductor in {text!r}")
        text = tag.group(2).strip()
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
        if match.group("pow2") is not None:
            coef = Q1
            exp = int(match.group("exp2") or 1)
        else:
            coef = Fraction(match.group("coef"))
            if match.group("pow1") is not None:
                exp = int(match.group("exp1") or 1)
            else:
                exp = 0
        if negative:
            coef = -coef
        if len(coeffs) <= exp:
            coeffs += [Q0] * (exp + 1 - len(coeffs))
        coeffs[exp] += coef
    return CyclotomicNumber.from_polynomial(coeffs, m)
