"""Finite abelian groups, characters, and weight gradings of diagonal actions.

A finite abelian group is presented by its elementary divisors
(d_1, ..., d_k), each >= 2; the empty sequence encodes the trivial group.
Group elements and characters are both residue tuples (c_1, ..., c_k) with
0 <= c_i < d_i, identified through the self-duality fixed by this basis.
A diagonal action on affine n-space is the assignment of one character
(the weight) to each variable.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence


@dataclass(frozen=True, order=True)
class Character:
    """A character of a finite abelian group, stored reduced mod the divisors."""

    divisors: tuple[int, ...]
    components: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.divisors) != len(self.components):
            raise ValueError("character arity does not match the divisor sequence")
        reduced = tuple(c % d for c, d in zip(self.components, self.divisors))
        object.__setattr__(self, "components", reduced)

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.components)

    def __add__(self, other: "Character") -> "Character":
        self._check_compatible(other)
        return Character(self.divisors, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "Character") -> "Character":
        self._check_compatible(other)
        return Character(self.divisors, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "Character":
        return Character(self.divisors, tuple(-c for c in self.components))

    def times(self, k: int) -> "Character":
        """k-fold sum of the character with itself."""
        return Character(self.divisors, tuple(k * c for c in self.components))

    def order(self) -> int:
        """Order of the character in the character group."""
        return math.lcm(1, *(d // math.gcd(c, d) for c, d in zip(self.components, self.divisors)))

    def _check_compatible(self, other: "Character") -> None:
        if self.divisors != other.divisors:
            raise ValueError("characters belong to different groups")

    def __repr__(self) -> str:
        return f"Character{self.components}"


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group given by elementary divisors, trivial group = ()."""

    elementary_divisors: tuple[int, ...]

    def __post_init__(self) -> None:
        divisors = tuple(int(d) for d in self.elementary_divisors)
        if any(d < 2 for d in divisors):
            raise ValueError("every elementary divisor must be >= 2")
        object.__setattr__(self, "elementary_divisors", divisors)

    @property
    def order(self) -> int:
        return math.prod(self.elementary_divisors)

    @property
    def exponent(self) -> int:
        """lcm of the divisors; 1 for the trivial group."""
        return math.lcm(1, *self.elementary_divisors)

    @property
    def trivial_character(self) -> Character:
        return Character(self.elementary_divisors, (0,) * len(self.elementary_divisors))

    def character(self, components: Sequence[int]) -> Character:
        return Character(self.elementary_divisors, tuple(components))

    def characters(self) -> Iterator[Character]:
        """All characters in lexicographic component order."""
        for tup in itertools.product(*(range(d) for d in self.elementary_divisors)):
            yield Character(self.elementary_divisors, tup)

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All group elements as residue tuples, identity first."""
        return itertools.product(*(range(d) for d in self.elementary_divisors))

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.elementary_divisors)

    def __repr__(self) -> str:
        if not self.elementary_divisors:
            return "FiniteAbelianGroup(trivial)"
        return "FiniteAbelianGroup(%s)" % "x".join(str(d) for d in self.elementary_divisors)


@dataclass(frozen=True)
class ActionData:
    """A diagonal action of a finite abelian group on affine n-space.

    Variable x_i transforms with the character ``weights[i]``; every
    representation-theoretic question about monomials reduces to character
    arithmetic on these weights.
    """

    group: FiniteAbelianGroup
    num_variables: int
    weights: tuple[Character, ...]

    def __post_init__(self) -> None:
        if self.num_variables < 1:
            raise ValueError("need at least one variable")
        weights = tuple(self.weights)
        if len(weights) != self.num_variables:
            raise ValueError("one weight per variable required")
        for w in weights:
            if w.divisors != self.group.elementary_divisors:
                raise ValueError("weight does not belong to the acting group")
        object.__setattr__(self, "weights", weights)

    def is_faithful(self) -> bool:
        """True iff the weights generate the whole character group."""
        generated = {self.group.trivial_character}
        frontier = [self.group.trivial_character]
        while frontier:
            chi = frontier.pop()
            for w in self.weights:
                nxt = chi + w
                if nxt not in generated:
                    generated.add(nxt)
                    frontier.append(nxt)
        return len(generated) == self.group.order

    def determinant_character(self) -> Character:
        det = self.group.trivial_character
        for w in self.weights:
            det = det + w
        return det

    def is_sl_action(self) -> bool:
        return self.determinant_character().is_trivial


def weight_of_monomial(action: ActionData, exponents: Sequence[int]) -> Character:
    """Weight of x^a under the action: the sum of a_i copies of weight(x_i)."""
    if len(exponents) != action.num_variables:
        raise ValueError(
            f"exponent tuple has length {len(exponents)}, expected {action.num_variables}"
        )
    divisors = action.group.elementary_divisors
    comps = [0] * len(divisors)
    for a, w in zip(exponents, action.weights):
        if a:
            for k, c in enumerate(w.components):
                comps[k] += a * c
    return Character(divisors, tuple(comps))


def regular_rep_multiset(group: FiniteAbelianGroup) -> Counter:
    """Character multiset of the regular representation: every character once."""
    return Counter(group.characters())


def is_regular_representation(group: FiniteAbelianGroup, chars: Iterable[Character]) -> bool:
    """True iff the multiset equals the regular representation of the group.

    That is |G| distinct characters of the group, each counted once; a
    Counter is read as the multiset it counts, its zero counts ignored.
    """
    counts = Counter(chars)
    present = [chi for chi, n in counts.items() if n]
    return len(present) == group.order and all(
        counts[chi] == 1 and isinstance(chi, Character)
        and chi.divisors == group.elementary_divisors
        for chi in present
    )


def isotypical_split(
    action: ActionData,
    basis: Iterable,
    weight: Callable | None = None,
) -> dict[Character, list]:
    """Partition basis items by character.

    Items are exponent tuples or Monomial-like objects by default; pass a
    ``weight`` callable (e.g. ``CoinvariantAlgebra.vector_weight``) to split
    graded coefficient vectors instead.  A vector of mixed weight makes the
    callable raise, which propagates as the argument error it is.
    """
    if weight is None:
        def weight(item):
            exponents = getattr(item, "exponents", item)
            return weight_of_monomial(action, exponents)

    parts: dict[Character, list] = {}
    for item in basis:
        chi = weight(item)
        parts.setdefault(chi, []).append(item)
    return parts
