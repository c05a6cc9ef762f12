"""Seeded query lists for the three benchmark workloads.

Every query is a CLI argv plus the data its independent check needs.  Two
random streams build a list.  The design stream is the same for every seed:
it draws the shapes of the actions (group and weights, up to relabelling),
which point coordinates are zero or cyclotomic and their sizes, and the kind
of change that spoils a cluster ideal, so the work in a list, and with it the
timings, barely moves with the seed.  The seed relabels every action by a
random group automorphism (a unit multiple of all weights), and draws the
signs of the point coordinates, the clusters and generators the ideals are
made from, the clusters picked for tangent queries and the query order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from checks import (
    Action,
    Coinvariants,
    coinvariants,
    euler_phi,
    gens_of_staircase,
    minimal_gens,
    mono_text,
    torus_fixed_staircases,
)


@dataclass
class Query:
    """One CLI call and what its check needs to know."""

    cmd: str
    argv: list[str]
    action: Action
    coinv: Coinvariants
    ideal: Optional[tuple[tuple[int, ...], ...]] = None
    point: Optional[tuple] = None
    notes: set = field(default_factory=set)


class _Builder:
    """Draws the actions and caches the own coinvariant data and cluster lists.

    Two random streams: ``design`` is the same for every seed and draws the
    shapes of the actions (and so the work), ``rng`` comes from the seed and
    draws everything else.
    """

    def __init__(self, design: random.Random, rng: random.Random) -> None:
        self.design = design
        self.rng = rng
        self.queries: list[Query] = []
        self._coinv: dict[Action, Coinvariants] = {}
        self._stairs: dict[Action, list] = {}

    def coinv(self, action: Action) -> Coinvariants:
        if action not in self._coinv:
            self._coinv[action] = coinvariants(action)
        return self._coinv[action]

    def clusters(self, action: Action) -> list:
        """Generator lists of every torus-fixed cluster, from the own search."""
        if action not in self._stairs:
            self._stairs[action] = [
                tuple(gens_of_staircase(s))
                for s in torus_fixed_staircases(action, self.coinv(action))
            ]
        return self._stairs[action]

    def action(self, make, *args, max_dim: Optional[int] = None) -> Action:
        """A shape from make(design, *args), relabelled by the seed.

        With max_dim the shape is redrawn until its coinvariant dimension is
        at most max_dim: the dimension is the working-set size of every
        coinvariant-based command, so the cap bounds the cost of one query.
        """
        for _ in range(1000):
            shape = make(self.design, *args)
            if max_dim is None or self.coinv(shape).dim <= max_dim:
                return relabel(self.rng, shape)
        raise ValueError(f"no action from {make.__name__}{args} has dimension <= {max_dim}")

    def add(self, cmd: str, action: Action, *extra: str, ideal=None, point=None) -> None:
        self.queries.append(Query(cmd, [cmd, action.spec(), *extra], action,
                                  self.coinv(action), ideal=ideal, point=point))


# --- action draws ------------------------------------------------------------


def _units(r: int) -> list[int]:
    return [u for u in range(1, r) if math.gcd(u, r) == 1] or [1]


def relabel(rng: random.Random, action: Action) -> Action:
    """The same action under a random group automorphism: a unit multiple of every weight.

    The invariant monomials, coinvariant basis and cluster ideals stay the
    same; only the character labels, and so the answers, change.  Variable
    order is kept, because it changes the search order and the cost.
    """
    u = rng.choice(_units(action.exponent))
    return Action(action.divisors,
                  tuple(tuple(u * c % d for c, d in zip(w, action.divisors)) for w in action.weights))


def cyclic2(rng: random.Random, r: int) -> Action:
    """Z/r with weights (1, a), a a unit."""
    return Action((r,), ((1,), (rng.choice(_units(r)),)))


def type_a(rng: random.Random, r: int) -> Action:
    """Z/r with weights (1, -1): the A_(r-1) singularity."""
    return Action((r,), ((1,), (r - 1,)))


def one_one(rng: random.Random, r: int) -> Action:
    """Z/r with weights (1, 1, -2)."""
    return Action((r,), ((1,), (1,), (r - 2,)))


def sl3(rng: random.Random, divisors: tuple[int, ...]) -> Action:
    """A faithful abelian subgroup of SL(3) with the given elementary divisors."""
    while True:
        w1 = tuple(rng.randrange(d) for d in divisors)
        w2 = tuple(rng.randrange(d) for d in divisors)
        w3 = tuple((-a - b) % d for a, b, d in zip(w1, w2, divisors))
        action = Action(divisors, (w1, w2, w3))
        if action.is_faithful():
            return action


def cyclic3(rng: random.Random, r: int) -> Action:
    """Z/r with three random weights, not necessarily in SL(3)."""
    while True:
        action = Action((r,), tuple((rng.randrange(r),) for _ in range(3)))
        if action.is_faithful():
            return action


PRODUCT_GROUPS = ((2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (2, 8), (3, 6), (2, 10))


# --- points and ideals ---------------------------------------------------------


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _rational(b: "_Builder") -> Fraction:
    """A nonzero rational: the design picks its size, the seed its sign."""
    return _sign(b.rng) * Fraction(b.design.choice([1, 2, 3, 4, 5]), b.design.choice([1, 1, 1, 2, 3]))


def _cyclotomic(b: "_Builder", m: int) -> tuple[str, complex]:
    """A nonzero element of Q(zeta_m) as CLI text and complex value.

    The design picks which powers appear and their sizes, the seed their
    signs.  Powers stay below phi(m), so a nonzero coefficient means a
    nonzero value.
    """
    deg = euler_phi(m)
    coeffs = [b.design.choice([0, 0, 1, 1, 2, Fraction(1, 2)]) for _ in range(deg)]
    if not any(coeffs):
        coeffs[b.design.randrange(deg)] = 1
    coeffs = [_sign(b.rng) * c for c in coeffs]
    text = ""
    value = 0j
    zeta = complex(math.cos(2 * math.pi / m), math.sin(2 * math.pi / m))
    for k, c in enumerate(coeffs):
        if c:
            mag = abs(c)
            body = str(mag) if k == 0 else ("" if mag == 1 else f"{mag}*") + ("z" if k == 1 else f"z^{k}")
            text += (" - " if c < 0 else " + ") + body if text else ("-" if c < 0 else "") + body
            value += float(c) * zeta ** k
    return f"cyclo({m}): {text}", value


def _point(b: _Builder, action: Action, cyclotomic: bool, zeros: int):
    """Point text and values; `zeros` coordinates on the axes are zero.

    The design stream fixes which coordinates are zero and which are
    cyclotomic, in which field, and the sizes; the seed draws the signs.
    """
    n = action.n
    zero_at = set(b.design.sample(range(n), zeros))
    texts, values = [], []
    for i in range(n):
        conductor = b.design.choice((3, 4)) if cyclotomic and b.design.random() < 0.6 else None
        if i in zero_at:
            texts.append("0")
            values.append(Fraction(0))
        elif conductor:
            text, value = _cyclotomic(b, conductor)
            texts.append(text)
            values.append(value)
        else:
            q = _rational(b)
            texts.append(str(q))
            values.append(q)
    return ",".join(texts), tuple(values)


def _perturbed_ideal(b: _Builder, action: Action) -> tuple[tuple[int, ...], ...]:
    """A random cluster ideal with one generator added, removed or moved.

    The design picks the kind of move, which sets the cost of the check; the
    seed picks the cluster and the generator.
    """
    rng = b.rng
    gens = list(rng.choice(b.clusters(action)))
    move = b.design.choice(("add", "drop", "shift"))
    if move == "drop" and len(gens) > 1:
        gens.pop(rng.randrange(len(gens)))
    elif move == "shift":
        i = rng.randrange(len(gens))
        j = rng.randrange(action.n)
        gens[i] = gens[i][:j] + (gens[i][j] + 1,) + gens[i][j + 1:]
    else:
        g = list(rng.choice(gens))
        j = rng.randrange(action.n)
        g[j] = max(g[j] - 1, 0)
        if any(g):
            gens.append(tuple(g))
    return tuple(minimal_gens(gens))


def _ideal_text(gens) -> str:
    return ",".join(mono_text(g) for g in gens)


# --- workloads ---------------------------------------------------------------


def census(b: _Builder) -> None:
    """clusters and coinv queries: coinvariant builds and cluster enumeration."""
    for r in list(range(2, 25)) + list(range(2, 17)):
        b.add("clusters", b.action(cyclic2, r))
    for r in (32, 40):
        b.add("clusters", b.action(type_a, r))
    for r in list(range(2, 15)) + list(range(2, 11)):
        b.add("clusters", b.action(sl3, (r,)))
    for divisors in PRODUCT_GROUPS:
        b.add("clusters", b.action(sl3, divisors))
    for r in range(2, 41, 2):
        b.add("coinv", b.action(cyclic2, r, max_dim=4 * r))
    for r in range(3, 22, 2):
        b.add("coinv", b.action(cyclic3, r, max_dim=10 * r))
    for r in (16, 24, 32):
        b.add("coinv", b.action(one_one, r))


def strata(b: _Builder) -> None:
    """mckay queries plus one tangent query per action at a seeded cluster."""
    orders = list(range(2, 17)) + list(range(2, 13)) * 2 + list(range(2, 7))
    actions = [b.action(cyclic2, r, max_dim=36) for r in orders]
    actions += [b.action(sl3, (r,), max_dim=40) for r in range(2, 9)]
    actions += [b.action(sl3, d, max_dim=40) for d in ((2, 2), (3, 3))]
    for action in actions:
        b.add("mckay", action)
        gens = b.rng.choice(b.clusters(action))
        b.add("tangent", action, "--ideal", _ideal_text(gens), ideal=gens)


def orbits(b: _Builder) -> None:
    """orbit and tau --point on rational and cyclotomic points, plus verify and tau --ideal."""
    groups = [b.action(cyclic2, r) for r in (2, 3, 4, 5, 6, 4, 6)]
    groups += [b.action(sl3, (r,)) for r in (2, 3)] + [b.action(sl3, (2, 2))]
    groups.append(Action((2, 2), ((1, 0), (0, 1))))
    for action in groups:
        for k in range(6):
            zeros = 0 if k < 4 else b.design.randrange(1, action.n)
            text, values = _point(b, action, k % 2 == 1, zeros)
            b.add("orbit" if k % 3 else "tau", action, f"--point={text}", point=values)
    ideal_groups = [b.action(cyclic2, r) for r in range(2, 16)]
    ideal_groups += [b.action(sl3, (r,)) for r in range(2, 8)]
    ideal_groups += [b.action(sl3, d) for d in ((2, 2), (3, 3))]
    for action in ideal_groups:
        for _ in range(3):
            good = b.rng.choice(b.clusters(action))
            bad = _perturbed_ideal(b, action)
            cmd_good, cmd_bad = b.rng.sample(("verify", "tau"), 2)
            b.add(cmd_good, action, "--ideal", _ideal_text(good), ideal=good)
            b.add(cmd_bad, action, "--ideal", _ideal_text(bad), ideal=bad)


WORKLOADS = {"census": census, "strata": strata, "orbits": orbits}


def make_corpus(workload: str, seed: int) -> list[Query]:
    """The shuffled query list of a workload for a seed."""
    b = _Builder(random.Random(f"{workload}:design"), random.Random(f"{workload}:{seed}"))
    WORKLOADS[workload](b)
    b.rng.shuffle(b.queries)
    return b.queries
