"""Monomials, monomial ideals, and the coinvariant algebra of a diagonal action.

For a finite abelian group acting diagonally on S = K[x_1,...,x_n], the ideal
generated by all invariant monomials of positive degree is a monomial ideal,
so the quotient (the coinvariant algebra S-bar) has a canonical monomial basis
and exact multiplication: a product of basis monomials is either again a
basis monomial or zero.  Everything here is finite combinatorics; no
Groebner machinery is used anywhere.

The canonical monomial order throughout is graded lexicographic with
x_1 > ... > x_n; sorted sequences are ascending in that order.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ghilb_kit.group_rep import ActionData, Character, weight_of_monomial

_ALIAS_NAMES = ("x", "y", "z", "w")


@dataclass(frozen=True, order=True)
class Monomial:
    """A monomial x_1^a_1 ... x_n^a_n, stored as its exponent tuple."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(int(a) for a in self.exponents)
        if any(a < 0 for a in exps):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "exponents", exps)

    @property
    def num_vars(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_one(self) -> bool:
        return not any(self.exponents)

    @property
    def grlex_key(self) -> tuple[int, tuple[int, ...]]:
        """Sort key: ascending by total degree, then by exponent tuple."""
        return (self.degree, self.exponents)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(other.exponents) != len(self.exponents):
            raise ValueError("variable counts differ")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divide(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; raises when other does not divide."""
        if not other.divides(self):
            raise ValueError(f"{other.to_text()} does not divide {self.to_text()}")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def lcm(self, other: "Monomial") -> "Monomial":
        if len(other.exponents) != len(self.exponents):
            raise ValueError("variable counts differ")
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def to_text(self) -> str:
        """Canonical text form `x1^a1*x2^a2*...`; the unit monomial is `1`."""
        parts = []
        for i, a in enumerate(self.exponents):
            if a == 0:
                continue
            name = f"x{i + 1}"
            parts.append(name if a == 1 else f"{name}^{a}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial({self.to_text()!r})"


_FACTOR_RE = re.compile(r"^(?:x(?P<idx>\d+)|(?P<alias>[xyzw]))(?:\^(?P<exp>\d+))?$")


def parse_monomial(text: str, num_vars: int) -> Monomial:
    """Parse the text form; `x`, `y`, `z`, `w` alias `x1`..`x4` when in range."""
    body = text.strip()
    if not body:
        raise ValueError("empty monomial")
    exps = [0] * num_vars
    for raw in body.split("*"):
        factor = raw.strip()
        if factor == "1":
            continue
        match = _FACTOR_RE.match(factor)
        if not match:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        if match.group("idx") is not None:
            idx = int(match.group("idx")) - 1
        else:
            idx = _ALIAS_NAMES.index(match.group("alias"))
        if not 0 <= idx < num_vars:
            raise ValueError(f"variable {factor!r} is out of range for {num_vars} variables")
        exps[idx] += int(match.group("exp") or 1)
    return Monomial(tuple(exps))


def monomials_of_degree(num_vars: int, degree: int) -> Iterator[Monomial]:
    """All monomials of the given total degree, ascending by exponent tuple."""
    if num_vars == 1:
        yield Monomial((degree,))
        return

    def rec(prefix: tuple[int, ...], vars_left: int, deg_left: int):
        if vars_left == 1:
            yield prefix + (deg_left,)
            return
        for a in range(deg_left + 1):
            yield from rec(prefix + (a,), vars_left - 1, deg_left - a)

    for exps in rec((), num_vars, degree):
        yield Monomial(exps)


def _staircase_levels(num_vars: int, is_generator) -> Iterator[list[tuple[int, ...]]]:
    """Exponent tuples outside a monomial ideal, one ascending degree level at a time.

    The complement of a monomial ideal is downward closed, so every member of
    degree d + 1 is x_i times a member of degree d.  A monomial whose divisors
    m/x_i all lie outside the ideal is inside it exactly when it is a minimal
    generator, so is_generator is the only test needed.  The levels end at
    the first empty one.
    """
    unit = (0,) * num_vars
    level = [] if is_generator(unit) else [unit]
    outside = set(level)
    while level:
        yield level
        ups = {e[:v] + (e[v] + 1,) + e[v + 1:] for e in level for v in range(num_vars)}
        level = sorted(
            up for up in ups
            if all(up[:v] + (a - 1,) + up[v + 1:] in outside for v, a in enumerate(up) if a)
            and not is_generator(up)
        )
        outside.update(level)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators (an antichain)."""

    num_vars: int
    min_gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        gens = []
        for g in self.min_gens:
            m = g if isinstance(g, Monomial) else Monomial(tuple(g))
            if m.num_vars != self.num_vars:
                raise ValueError("generator has the wrong number of variables")
            gens.append(m)
        gens = sorted(set(gens), key=lambda m: m.grlex_key)
        minimal = []
        for m in gens:
            if not any(k.divides(m) for k in minimal):
                minimal.append(m)
        object.__setattr__(self, "min_gens", tuple(minimal))

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.min_gens)

    def __repr__(self) -> str:
        gens = ", ".join(g.to_text() for g in self.min_gens)
        return f"MonomialIdeal({self.num_vars}, ({gens}))"


def quotient_staircase(ideal: MonomialIdeal, cap: int) -> Optional[list[Monomial]]:
    """Monomials outside the ideal in graded-lex order, or None past the cap.

    The staircase is enumerated degree by degree; it is downward closed, so an
    empty degree level means it is exhausted.  When more than `cap` monomials
    accumulate it returns None; colength decides finiteness exactly.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    gens = {g.exponents for g in ideal.min_gens}
    found: list[tuple[int, ...]] = []
    for level in _staircase_levels(ideal.num_vars, gens.__contains__):
        found.extend(level)
        if len(found) > cap:
            return None
    return [Monomial(e) for e in found]


def colength(ideal: MonomialIdeal) -> Optional[int]:
    """Dimension of S/I, or None when the quotient is not finite.

    The quotient is finite exactly when the minimal generators hold a pure
    power of every variable.  The count slices the staircase by the exponent
    of the last variable: the slice at height k is the staircase of the ideal
    in one variable fewer generated by the generators of height at most k, so
    it only changes at generator heights.  Nothing is enumerated.
    """
    gens = [g.exponents for g in ideal.min_gens]
    n = ideal.num_vars
    for v in range(n):
        if not any(all(a == 0 for w, a in enumerate(g) if w != v) for g in gens):
            return None

    def count(gens: list[tuple[int, ...]], n: int) -> int:
        if n == 0:
            return 0 if gens else 1
        heights = sorted({0} | {g[n - 1] for g in gens})
        # the top slice holds the pure power of x_n, so it is empty
        return sum(
            (hi - lo) * count([g[:n - 1] for g in gens if g[n - 1] <= lo], n - 1)
            for lo, hi in zip(heights, heights[1:])
        )

    return count(gens, n)


def _invariant_staircase(
    action: ActionData,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[Character]]:
    """Exponents of the minimal invariant generators and of the coinvariant basis.

    Both lists are in graded-lex order; the third list holds the weight of
    each basis member, as the invariance test computed it.  The basis is
    walked upward level by level; a candidate whose divisors m/x_i are all
    basis monomials is a minimal generator exactly when it is invariant.
    """
    gens: list[tuple[int, ...]] = []
    weights: dict[tuple[int, ...], Character] = {}

    def invariant(e: tuple[int, ...]) -> bool:
        weight = weight_of_monomial(action, e)
        if any(e) and weight.is_trivial:
            gens.append(e)
            return True
        weights[e] = weight
        return False

    basis = [e for level in _staircase_levels(action.num_variables, invariant) for e in level]
    gens.sort(key=lambda e: (sum(e), e))
    return gens, basis, [weights[e] for e in basis]


def invariant_generators(action: ActionData) -> list[Monomial]:
    """Minimal monomial generators of the ideal of positive-degree invariants."""
    return [Monomial(g) for g in _invariant_staircase(action)[0]]


def taylor_syzygies(ideal: MonomialIdeal) -> list[dict[int, tuple[int, Monomial]]]:
    """Pairwise lcm relations among the minimal generators.

    Each relation is a sparse row {i: (+1, lcm/g_i), j: (-1, lcm/g_j)} meaning
    (lcm/g_i)*e_i - (lcm/g_j)*e_j maps to zero; a module homomorphism out of
    the ideal is exactly a generator assignment annihilating every row.  The
    rows are redundant but complete.
    """
    gens = ideal.min_gens
    if not gens:
        raise ValueError("ideal has no generators")
    rows = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            l = gens[i].lcm(gens[j])
            rows.append({i: (1, l.divide(gens[i])), j: (-1, l.divide(gens[j]))})
    return rows


class CoinvariantAlgebra:
    """The quotient of S by the ideal of positive-degree invariant monomials.

    The basis consists of the monomials outside that ideal, in graded-lex
    order; it is finite because x_i^(order of weight_i) is invariant.
    Products of basis monomials multiply exactly: the product monomial when it
    stays in the basis, zero when it falls into the ideal.  Products are
    looked up on demand (mult_index); no multiplication table is stored.
    """

    def __init__(self, action: ActionData) -> None:
        if not action.is_faithful():
            raise ValueError(
                "the weights do not generate the full character group; "
                "the action is not faithful and the basis cannot carry every character"
            )
        self.action = action
        gen_exps, basis_exps, weights = _invariant_staircase(action)
        self.invariant_gens: tuple[Monomial, ...] = tuple(Monomial(g) for g in gen_exps)
        self.basis: tuple[Monomial, ...] = tuple(Monomial(e) for e in basis_exps)
        self.weights: tuple[Character, ...] = tuple(weights)
        self._index = {e: i for i, e in enumerate(basis_exps)}
        self._steps: Optional[tuple] = None

        if not self.basis or not self.basis[0].is_one:
            raise AssertionError("coinvariant basis must contain the unit monomial")
        present = set(self.weights)
        missing = [c for c in action.group.characters() if c not in present]
        if missing:
            raise AssertionError(f"characters missing from the basis: {missing}")

    @functools.cached_property
    def ideal(self) -> MonomialIdeal:
        """The ideal of positive-degree invariants, built on first read."""
        return MonomialIdeal(self.action.num_variables, self.invariant_gens)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index_of(self, m: Monomial) -> int:
        try:
            return self._index[m.exponents]
        except KeyError:
            raise ValueError(f"{m.to_text()} is not a basis monomial") from None

    def contains_basis(self, m: Monomial) -> bool:
        return m.exponents in self._index

    def mult_index(self, i: int, j: int) -> Optional[int]:
        """Basis index of basis[i]*basis[j], or None when the product is zero."""
        return self._index.get((self.basis[i] * self.basis[j]).exponents)

    def variable_steps(self) -> tuple[list[list[Optional[int]]], list[list[Optional[int]]]]:
        """Index tables of multiplication and division by the variables.

        up[i][v] is the basis index of x_v * basis[i], or None when that
        product is zero; down[i][v] is the index of basis[i] / x_v, or None
        when x_v does not divide basis[i] (the basis is downward closed, so
        every other quotient is a basis monomial).  Built on first use.
        """
        if self._steps is None:
            n = self.action.num_variables
            up: list[list[Optional[int]]] = [[None] * n for _ in self.basis]
            down: list[list[Optional[int]]] = [[None] * n for _ in self.basis]
            for i, m in enumerate(self.basis):
                e = m.exponents
                for v in range(n):
                    k = self._index.get(e[:v] + (e[v] + 1,) + e[v + 1:])
                    if k is not None:
                        up[i][v] = k
                        down[k][v] = i
            self._steps = (up, down)
        return self._steps

    def variables(self) -> list[Monomial]:
        return _unit_monomials(self.action.num_variables)

    def monomial_times_vector(self, m: Monomial, vec: list) -> list:
        """Multiply a coefficient vector over the basis by a monomial."""
        zero = vec[0] - vec[0] if vec else 0
        out = [zero] * self.dim
        for i, c in enumerate(vec):
            if c:
                k = self._index.get((m * self.basis[i]).exponents)
                if k is not None:
                    out[k] = out[k] + c
        return out

    def vector_weight(self, vec: list) -> Character:
        """The common weight of the nonzero coordinates; errors if mixed or zero."""
        weight: Optional[Character] = None
        for i, c in enumerate(vec):
            if not c:
                continue
            if weight is None:
                weight = self.weights[i]
            elif weight != self.weights[i]:
                raise ValueError("vector is not weight-homogeneous")
        if weight is None:
            raise ValueError("zero vector has no weight")
        return weight

    def character_multiplicities(self) -> Counter:
        return Counter(self.weights)

    def multiplicity(self, chi: Character) -> int:
        return self.character_multiplicities()[chi]


def _unit_monomials(num_vars: int) -> list[Monomial]:
    return [
        Monomial(tuple(1 if j == i else 0 for j in range(num_vars)))
        for i in range(num_vars)
    ]


def coinvariant_algebra(action: ActionData) -> CoinvariantAlgebra:
    """Build the coinvariant algebra of the action; see CoinvariantAlgebra."""
    return CoinvariantAlgebra(action)
