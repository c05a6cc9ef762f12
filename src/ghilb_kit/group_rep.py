"""Finite abelian groups, characters, and weight gradings of diagonal actions.

A finite abelian group is presented by its elementary divisors
(d_1, ..., d_k), each >= 2; the empty sequence encodes the trivial group.
Group elements and characters are both residue tuples (c_1, ..., c_k) with
0 <= c_i < d_i, identified through the self-duality fixed by this basis.
A diagonal action on affine n-space is the assignment of one character
(the weight) to each variable.

The index of a character reads its residues in mixed radix over the
divisors, first component most significant: its position in
group.characters() and in the Character order, 0 being trivial.  The
library carries weights as indices (weight_indexer) and takes the
Characters its fields hold from group.indexed_characters, one tuple per
group instance.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence


class IntegrityError(RuntimeError):
    """An internal consistency check failed.

    It signals a fault in the library, or a caller passing an unverified
    input where a verified cluster is required; it is never a domain answer.
    The CLI reports it as an internal error with exit status 3.  It is
    defined here, beneath every module that raises it.
    """


class DomainError(ValueError):
    """A well-formed input whose answer is "no": not faithful, not a cluster, and so on.

    The CLI reports it with exit status 1.  Any other ValueError that
    reaches the CLI is an internal error.
    """


@dataclass(frozen=True, order=True)
class Character:
    """A character of a finite abelian group, stored reduced mod the divisors."""

    divisors: tuple[int, ...]
    components: tuple[int, ...]

    def __post_init__(self) -> None:
        divisors = tuple(map(operator.index, self.divisors))
        if min(divisors, default=2) < 2:
            raise ValueError("every divisor must be >= 2")
        if len(divisors) != len(self.components):
            raise ValueError("character arity does not match the divisor sequence")
        reduced = tuple(map(operator.mod, map(operator.index, self.components), divisors))
        object.__setattr__(self, "divisors", divisors)
        object.__setattr__(self, "components", reduced)

    @classmethod
    def _unchecked(cls, divisors: tuple[int, ...], components: tuple[int, ...]) -> "Character":
        """A Character built without __post_init__, on divisors a FiniteAbelianGroup
        validated and a tuple of ints already reduced mod them.

        Only for the group's character table, whose components
        itertools.product yields in range; everything else goes through
        Character(...), which validates.
        """
        chi = object.__new__(cls)
        object.__setattr__(chi, "divisors", divisors)
        object.__setattr__(chi, "components", components)
        return chi

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
        divisors = tuple(map(operator.index, self.elementary_divisors))
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
        divisors = self.elementary_divisors
        for tup in itertools.product(*(range(d) for d in divisors)):
            yield Character._unchecked(divisors, tup)

    @cached_property
    def indexed_characters(self) -> tuple[Character, ...]:
        """tuple(self.characters()): entry i has index i.  Kept per instance, outside == and hash."""
        return tuple(self.characters())

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
        object.__setattr__(self, "num_variables", operator.index(self.num_variables))
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
        """True iff only the identity acts trivially, that is, pairs to 0 with every weight.

        Those elements form the kernel of the action, the annihilator of the
        subgroup the weights generate, so this is also the test that the
        weights generate the whole character group.  CoinvariantAlgebra
        calls it only when its walk misses a character.
        """
        elements = self.group.elements()
        next(elements)  # the identity
        return not any(all(character_exponent(self.group, g, w) == 0 for w in self.weights)
                       for g in elements)

    def determinant_character(self) -> Character:
        det = self.group.trivial_character
        for w in self.weights:
            det = det + w
        return det

    def is_sl_action(self) -> bool:
        return self.determinant_character().is_trivial


def character_exponent(group: FiniteAbelianGroup, g: Sequence[int], chi: Character) -> int:
    """The k in [0, m) with chi(g) = prod_i zeta_{d_i}^{g_i * c_i} = zeta_m^k, m = lcm(d_i)."""
    if chi.divisors != group.elementary_divisors:
        raise ValueError("character does not belong to the group")
    if len(g) != len(group.elementary_divisors):
        raise ValueError("element arity does not match the group")
    m = group.exponent
    return sum((m // di) * (operator.index(gi) % di) * ci
               for gi, ci, di in zip(g, chi.components, group.elementary_divisors)) % m


def character_index(chi: Character) -> int:
    """The index of chi: its position in group.characters() (see the module docstring)."""
    index = 0
    for c, d in zip(chi.components, chi.divisors):
        index = index * d + c
    return index


def weight_indexer(action: ActionData) -> Callable[[Sequence[int]], int]:
    """The map from an exponent tuple a (one int per variable, unchecked) to
    the index of the weight of x^a; it builds no Character."""
    columns = [(d, [w.components[k] for w in action.weights])
               for k, d in enumerate(action.group.elementary_divisors)]

    def index(exponents: Sequence[int]) -> int:
        i = 0
        for d, column in columns:
            i = i * d + sum(map(operator.mul, exponents, column)) % d
        return i

    return index


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
