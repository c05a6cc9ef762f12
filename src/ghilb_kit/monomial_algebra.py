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

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from typing import Callable, Iterable, Optional, Sequence

from ghilb_kit.group_rep import ActionData, Character, DomainError, IntegrityError

_ALIAS_NAMES = ("x", "y", "z", "w")


@dataclass(frozen=True, order=True)
class Monomial:
    """A monomial x_1^a_1 ... x_n^a_n, stored as its exponent tuple."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(map(operator.index, self.exponents))
        if any(a < 0 for a in exps):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def _unchecked(cls, exponents: tuple[int, ...]) -> "Monomial":
        """A Monomial on a tuple of non-negative ints, built without __post_init__.

        Only for tuples that are such by construction: those the staircase
        walks yield and the divisors cluster.py takes of them.  Everything
        else goes through Monomial(...), which validates.  Only this module
        and cluster.py may call it.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "exponents", exponents)
        return m

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
        if len(other.exponents) != len(self.exponents):
            raise ValueError("variable counts differ")
        return all(map(operator.le, self.exponents, other.exponents))

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
        """Canonical text form `x1^a1*x2^a2*...`; the unit monomial is `1` (monomial_text)."""
        return monomial_text(self.exponents)

    def __repr__(self) -> str:
        return f"Monomial({self.to_text()!r})"


def monomial_text(exponents: tuple[int, ...]) -> str:
    """Canonical text form `x1^a1*x2^a2*...` of an exponent tuple; the unit is `1`."""
    return "*".join([f"x{i}" if a == 1 else f"x{i}^{a}" for i, a in enumerate(exponents, 1) if a]) or "1"


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


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators (an antichain)."""

    num_vars: int
    min_gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_vars", operator.index(self.num_vars))
        if self.num_vars < 0:
            raise ValueError("the number of variables must be nonnegative")
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

    @classmethod
    def _unchecked(cls, num_vars: int, min_gens: tuple[Monomial, ...]) -> "MonomialIdeal":
        """A MonomialIdeal on generators that are already its minimal ones, in order.

        min_gens must be an antichain of Monomials on num_vars variables in
        ascending graded-lex order, which is what __post_init__ would make of
        it; nothing is checked.  Only this module and cluster.py may call it.
        """
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "num_vars", num_vars)
        object.__setattr__(ideal, "min_gens", min_gens)
        return ideal

    def contains(self, m: Monomial) -> bool:
        if m.num_vars != self.num_vars:
            raise ValueError(f"the ideal has {self.num_vars} variables, the monomial {m.num_vars}")
        return any(g.divides(m) for g in self.min_gens)

    def __repr__(self) -> str:
        gens = ", ".join(g.to_text() for g in self.min_gens)
        return f"MonomialIdeal({self.num_vars}, ({gens}))"


def _column_walk(
    num_vars: int,
    stops: Callable[[int, list], list[int]],
    cap: Optional[int] = None,
    cycles: Optional[Sequence[list[tuple[list[int], int]]]] = None,
) -> Optional[tuple[list[tuple[int, ...]], list[int], list[tuple[int, ...]]]]:
    """A downward-closed set B of exponent tuples, built one variable at a time by column heights.

    B_v holds the points of B with exponent 0 from x_{v+1} on; B_0 is the
    unit alone.  Each point a of B_v heads the column a + k*e_v, k < h(a),
    of B_{v+1}, where h(a) = min(b(a), h(a - e_i) for each i < v with
    a_i > 0): the column stops on its own at b(a), or under the column of a
    predecessor.  stops(v, keys) gives b on the points of B_v in order
    (math.inf where a column has no stop of its own); a point's key is its
    label with cycles, its exponent tuple (of length v) without.

    A corner is a column stopped by its own bound below every
    predecessor's height; its top a + b(a)*e_v is exactly a minimal
    generator of the ideal of monomials outside B.  Along the column over
    a point of B_{v-1}, B_v's heights are the running minimum of their
    stops and of the predecessors' heights at the same place, so a corner
    lies where the stop undercuts that minimum.  Columns walked in lex
    order give B in lex order.

    With cycles, each point carries a label, the unit's being 0: cycles[v]
    is _cycles of a permutation, and the point above one labelled x in
    direction v is labelled with x's image.  No column in direction v may
    be longer than the cycle it walks.

    Returns B, the labels (empty without cycles) and the corners' tops, or
    None as soon as some B_{v+1} would hold more than cap points (an
    infinite height among them), before it is listed.  Without a cap every
    height must be finite.
    """
    heads: list[tuple[int, ...]] = [()]  # B_v
    labels = [0]
    lengths = [1]                        # B_v in columns over B_{v-1}
    preds: list[list[int]] = [[]]        # per point of B_{v-1}: its predecessors' indices
    corners: list[tuple[int, ...]] = []
    for v in range(num_vars):
        own = stops(v, labels if cycles is not None else heads)
        above = (0,) * (num_vars - v - 1)
        starts = list(accumulate(lengths, initial=0))  # of the columns in B_v
        heights: list = []
        for i, length, ps in zip(starts, lengths, preds):
            if not ps:  # the column over the unit
                below: Iterable = repeat(math.inf)
            elif len(ps) == 1:
                below = heights[starts[ps[0]]:starts[ps[0]] + length]
            else:
                below = map(min, *(heights[starts[p]:starts[p] + length] for p in ps))
            top = math.inf
            for j, b, m in zip(range(i, i + length), own[i:i + length], below):
                if m < top:
                    top = m
                if b < top:
                    corners.append(heads[j] + (b,) + above)
                    top = b
                heights.append(top)
        if cap is not None and sum(heights) > cap:
            return None
        if v + 1 < num_vars:
            next_preds = []
            for start, length, ps in zip(starts, lengths, preds):
                base = [starts[p] for p in ps]
                next_preds.append(base)
                next_preds.extend([*(q + j for q in base), start + j - 1] for j in range(1, length))
            preds = next_preds
        if cycles is not None:
            where = cycles[v]
            next_labels: list[int] = []
            for x, h in zip(labels, heights):
                cycle, k = where[x]
                next_labels += cycle[k:k + h]
            labels = next_labels
        tails = [(k,) for k in range(max(heights))]
        heads = [a + k for a, h in zip(heads, heights) for k in tails[:h]]
        lengths = heights
    return heads, labels if cycles is not None else [], corners


def quotient_staircase(ideal: MonomialIdeal, cap: int) -> Optional[list[Monomial]]:
    """Monomials outside the ideal in graded-lex order, or None past the cap.

    The staircase is built by column heights (_column_walk): the column over
    a in direction v stops on its own at g_v for the minimal generator g
    with g_{<v} = a and g_{>v} = 0, if there is one.  None is returned as
    soon as a stage holds more than `cap` monomials, or infinitely many,
    before they are listed; colength decides finiteness and size exactly.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    tops: list[dict[tuple[int, ...], int]] = [{} for _ in range(ideal.num_vars)]
    for g in ideal.min_gens:
        e = g.exponents
        v = len(e) - 1
        while v >= 0 and not e[v]:
            v -= 1
        if v < 0:
            return []  # the unit ideal
        tops[v][e[:v]] = e[v]
    walk = _column_walk(ideal.num_vars, lambda v, heads: list(map(tops[v].get, heads, repeat(math.inf))), cap)
    if walk is None:
        return None
    return [Monomial._unchecked(e) for e in sorted(walk[0], key=sum)]


def colength(ideal: MonomialIdeal) -> Optional[int]:
    """Dimension of S/I, or None when the quotient is not finite.

    The quotient is finite exactly when the minimal generators hold a pure
    power of every variable.  The count slices the staircase by the exponent
    of the last variable: the slice at height k is the staircase of the ideal
    in one variable fewer generated by the generators of height at most k, so
    it only changes at generator heights.  It counts the same points as
    quotient_staircase's columns without listing them: nothing is enumerated.
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


def _step_table(divisors: tuple[int, ...], weight: tuple[int, ...]) -> list[int]:
    """Entry i is the index of chi + weight, chi the character of index i (mixed radix)."""
    table = [0]
    for d, c in zip(divisors, weight):
        table = [t * d + (r + c) % d for t in table for r in range(d)]
    return table


def _cycles(step: list[int]) -> list[tuple[list[int], int]]:
    """For each x, a list holding the cycle of the permutation step through x twice over,
    and the position k of x in it, so that [k:k + h] are x and its next h - 1 images."""
    where: list = [None] * len(step)
    for x, seen in enumerate(where):
        if seen is None:
            cycle = [x]
            y = step[x]
            while y != x:
                cycle.append(y)
                y = step[y]
            twice = cycle + cycle
            for k, y in enumerate(cycle):
                where[y] = (twice, k)
    return where


def _invariant_staircase(
    action: ActionData,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """Exponents of the minimal invariant generators and of the coinvariant basis.

    Both lists are in graded-lex order; the third list holds the weight of
    each basis member as its integer index (see group_rep), carried down
    each column by the step table of its variable: a monomial is invariant
    exactly when its index is 0.  No Character is built.  The basis is
    built by column heights (_column_walk): the column over a in direction
    v stops on its own at the least k >= 1 with weight(a) + k*w_v trivial,
    read off the orbit of the trivial character under +w_v; the corners'
    tops are the minimal invariant generators.
    """
    divisors = action.group.elementary_divisors
    cycles = [_cycles(_step_table(divisors, w.components)) for w in action.weights]
    stops = []
    for where in cycles:
        cycle, k = where[0]
        period = len(cycle) // 2
        # weight(a) = j*w_v becomes trivial after period - j more steps (the
        # unit's after a whole period); a weight off this orbit never does
        stop = [math.inf] * len(where)
        for j, x in enumerate(cycle[k:k + period]):
            stop[x] = period - j
        stops.append(stop)
    points, labels, gens = _column_walk(
        action.num_variables, lambda v, labels: list(map(stops[v].__getitem__, labels)), cycles=cycles)
    degrees = list(map(sum, points))
    order = sorted(range(len(points)), key=degrees.__getitem__)
    gens.sort(key=lambda e: (sum(e), e))
    return gens, list(map(points.__getitem__, order)), list(map(labels.__getitem__, order))


def invariant_generators(action: ActionData) -> list[Monomial]:
    """Minimal monomial generators of the ideal of positive-degree invariants."""
    return [Monomial._unchecked(g) for g in _invariant_staircase(action)[0]]


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
    stays in the basis, zero when it falls into the ideal.  The one index
    table is that of the products by the variables (variable_steps).

    The algebra keeps what the walk of the basis computed: basis_exponents
    lists the exponent tuples of the basis, and weight_indices[i] is the
    index of the character of basis[i] (its position in
    group.characters()).  Everything else is built on first use: the basis
    Monomials, the index of each basis exponent tuple (_index) and weights[i],
    the character of basis[i], taken from group.indexed_characters.  The
    dimension and the commands that print the basis read only the tuples.

    A correct walk misses a character exactly when the action is not
    faithful; only then is action.is_faithful() asked, to tell a
    DomainError from an IntegrityError.
    """

    def __init__(self, action: ActionData) -> None:
        self.action = action
        gen_exps, basis_exps, indices = _invariant_staircase(action)
        self.invariant_gens: tuple[Monomial, ...] = tuple(map(Monomial._unchecked, gen_exps))
        self.basis_exponents: tuple[tuple[int, ...], ...] = tuple(basis_exps)
        self.weight_indices: tuple[int, ...] = tuple(indices)
        self._steps: Optional[list[list[Optional[int]]]] = None

        if not basis_exps or any(basis_exps[0]):
            raise IntegrityError("coinvariant basis must contain the unit monomial")
        present = set(indices)
        if len(present) < action.group.order:
            if not action.is_faithful():
                raise DomainError(
                    "the weights do not generate the full character group; "
                    "the action is not faithful and the basis cannot carry every character"
                )
            missing = [chi for i, chi in enumerate(action.group.characters()) if i not in present]
            raise IntegrityError(f"characters missing from the basis: {missing}")

    @cached_property
    def basis(self) -> tuple[Monomial, ...]:
        return tuple(map(Monomial._unchecked, self.basis_exponents))

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {e: i for i, e in enumerate(self.basis_exponents)}

    @cached_property
    def weights(self) -> tuple[Character, ...]:
        return tuple(map(self.action.group.indexed_characters.__getitem__, self.weight_indices))

    @property
    def dim(self) -> int:
        return len(self.basis_exponents)

    def index_of(self, m: Monomial) -> int:
        try:
            return self._index[m.exponents]
        except KeyError:
            raise ValueError(f"{m.to_text()} is not a basis monomial") from None

    def variable_steps(self) -> list[list[Optional[int]]]:
        """Index table of multiplication by the variables, built on first use.

        Entry [i][v] is the basis index of x_v * basis[i], or None when that
        product is zero.
        """
        if self._steps is None:
            n = self.action.num_variables
            find = self._index.get
            self._steps = [[find(e[:v] + (e[v] + 1,) + e[v + 1:]) for v in range(n)]
                           for e in self.basis_exponents]
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


def _unit_monomials(num_vars: int) -> list[Monomial]:
    return [
        Monomial(tuple(1 if j == i else 0 for j in range(num_vars)))
        for i in range(num_vars)
    ]


def coinvariant_algebra(action: ActionData) -> CoinvariantAlgebra:
    """Build the coinvariant algebra of the action; see CoinvariantAlgebra."""
    return CoinvariantAlgebra(action)
