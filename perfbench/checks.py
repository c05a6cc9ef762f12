"""Independent answer checks for the benchmark.

Nothing here imports ``ghilb_kit``.  The group arithmetic, coinvariant
basis, staircases and cluster enumeration are re-derived from the
definitions, so a wrong answer from the program cannot vouch for itself.
The checked facts are theorems or exact counts:

* abelian G in SL(3): there are |G| torus-fixed clusters and each has
  tangent dimension 3 (Bridgeland-King-Reid 2001);
* Z/r acting on two variables by units b, c, a = c/b mod r: G-Hilb is the
  minimal resolution (Nakamura 2001), so there are (Hirzebruch-Jung length
  of r/a) + 1 torus-fixed clusters, each with tangent dimension 2;
* every cluster carries the regular representation;
* the stabilizer of a point depends only on which coordinates vanish, so
  freeness is exact integer arithmetic on the weights;
* tau of a point is the invariant generators evaluated there;
* the verdict of ``verify`` follows from an exact colength count.

Each ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

Exps = tuple[int, ...]


# --- groups and actions ------------------------------------------------


@dataclass(frozen=True)
class Action:
    """A diagonal action: group Z/d_1 x ... x Z/d_k, one weight per variable."""

    divisors: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def order(self) -> int:
        return math.prod(self.divisors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.divisors)

    def spec(self) -> str:
        """The CLI text form of the action."""
        if len(self.divisors) == 1:
            return f"cyclic:{self.divisors[0]}:" + ",".join(str(w[0]) for w in self.weights)
        left = "x".join(str(d) for d in self.divisors)
        return f"{left} ; " + " | ".join(",".join(str(c) for c in w) for w in self.weights)

    def characters(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(d) for d in self.divisors)))

    def elements(self) -> list[tuple[int, ...]]:
        return self.characters()

    def weight(self, exps: Exps) -> tuple[int, ...]:
        return tuple(
            sum(a * w[j] for a, w in zip(exps, self.weights)) % d
            for j, d in enumerate(self.divisors)
        )

    def char_order(self, chi: tuple[int, ...]) -> int:
        return math.lcm(1, *(d // math.gcd(c, d) for c, d in zip(chi, self.divisors)))

    def pairing_power(self, g: tuple[int, ...], chi: tuple[int, ...]) -> int:
        """The k in chi(g) = zeta^k, zeta a primitive root of order exponent."""
        m = self.exponent
        return sum(gj * cj * (m // dj) for gj, cj, dj in zip(g, chi, self.divisors)) % m

    def pairing_trivial(self, g: tuple[int, ...], chi: tuple[int, ...]) -> bool:
        """Whether chi(g) = 1, by integer arithmetic."""
        return self.pairing_power(g, chi) == 0

    def is_faithful(self) -> bool:
        seen = {tuple(0 for _ in self.divisors)}
        frontier = list(seen)
        while frontier:
            chi = frontier.pop()
            for w in self.weights:
                nxt = tuple((a + b) % d for a, b, d in zip(chi, w, self.divisors))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == self.order

    def is_sl(self) -> bool:
        return not any(self.weight((1,) * self.n))

    def char_json(self, chi: tuple[int, ...]):
        return chi[0] if len(self.divisors) == 1 else list(chi)


def hj_length(r: int, a: int) -> int:
    """Length of the Hirzebruch-Jung continued fraction of r/a, 0 < a < r."""
    length = 0
    while a:
        b = -(-r // a)
        r, a = a, b * a - r
        length += 1
    return length


def expected_cluster_count(action: Action) -> Optional[int]:
    """Torus-fixed cluster count from a theorem, or None when none applies."""
    if action.n == 3 and action.is_sl():
        return action.order
    if action.n == 2 and len(action.divisors) == 1:
        r = action.divisors[0]
        (b,), (c,) = action.weights
        if r > 1 and math.gcd(b, r) == 1 and math.gcd(c, r) == 1:
            return hj_length(r, c * pow(b, -1, r) % r) + 1
    return None


def euler_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


# --- monomials ---------------------------------------------------------


def grlex(exps: Exps) -> tuple:
    return (sum(exps), exps)


def mono_text(exps: Exps) -> str:
    parts = [f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}" for i, a in enumerate(exps) if a]
    return "*".join(parts) if parts else "1"


def parse_mono(text: str, n: int) -> Exps:
    exps = [0] * n
    for factor in text.split("*"):
        factor = factor.strip()
        if factor == "1":
            continue
        name, _, power = factor.partition("^")
        exps[int(name[1:]) - 1] += int(power or 1)
    return tuple(exps)


def divides(a: Exps, b: Exps) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal_gens(gens) -> list[Exps]:
    """The antichain of minimal elements, grlex ascending."""
    out: list[Exps] = []
    for g in sorted(set(gens), key=grlex):
        if not any(divides(k, g) for k in out):
            out.append(g)
    return out


def staircase_of_ideal(gens: list[Exps], n: int) -> Optional[list[Exps]]:
    """All monomials outside the ideal, grlex ascending; None when infinite.

    The quotient is finite exactly when every variable has a pure power
    among the generators, so finiteness is decided before any search.
    """
    if any(not any(g) for g in gens):
        return []
    for i in range(n):
        if not any(g[i] and sum(g) == g[i] for g in gens):
            return None
    seen = {(0,) * n}
    frontier = [(0,) * n]
    while frontier:
        m = frontier.pop()
        for i in range(n):
            up = m[:i] + (m[i] + 1,) + m[i + 1:]
            if up not in seen and not any(divides(g, up) for g in gens):
                seen.add(up)
                frontier.append(up)
    return sorted(seen, key=grlex)


def gens_of_staircase(stair) -> list[Exps]:
    """Minimal generators of the monomial ideal whose staircase is given."""
    inside = set(stair)
    cands = set()
    for m in stair:
        for i in range(len(m)):
            up = m[:i] + (m[i] + 1,) + m[i + 1:]
            if up in inside:
                continue
            if all(
                m2 in inside
                for j in range(len(up)) if up[j]
                for m2 in [up[:j] + (up[j] - 1,) + up[j + 1:]]
            ):
                cands.add(up)
    return sorted(cands, key=grlex)


# --- coinvariant algebra and torus-fixed clusters ------------------------


@dataclass(frozen=True)
class Coinvariants:
    """Basis and invariant generators of S/(positive-degree invariants)."""

    basis: tuple[Exps, ...]
    invariant_gens: tuple[Exps, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def coinvariants(action: Action) -> Coinvariants:
    """Dynamic programme over the weight-order box.

    A monomial lies in the invariant ideal J exactly when it is a nonconstant
    invariant or some m / x_i lies in J.  Product order visits every m / x_i
    before m, and x_i^(order of its weight) bounds the box.
    """
    box = [action.char_order(w) for w in action.weights]
    strides = [math.prod(box[i + 1:]) for i in range(len(box))]
    in_j = bytearray(math.prod(box))
    basis, gens = [], []
    for idx, exps in enumerate(itertools.product(*(range(b) for b in box))):
        if any(a and in_j[idx - s] for a, s in zip(exps, strides)):
            in_j[idx] = 1
        elif idx and not any(action.weight(exps)):
            in_j[idx] = 1
            gens.append(exps)
        else:
            basis.append(exps)
    for i, b in enumerate(box):
        gens.append(tuple(b if j == i else 0 for j in range(action.n)))
    return Coinvariants(tuple(sorted(basis, key=grlex)), tuple(sorted(gens, key=grlex)))


def torus_fixed_staircases(action: Action, coinv: Coinvariants) -> list[tuple[Exps, ...]]:
    """Every staircase of a torus-fixed cluster, by depth-first search.

    A cluster staircase is downward closed, avoids every nonconstant
    invariant (so it lies in the coinvariant basis) and meets each character
    once.  Adding basis monomials in grlex order, which extends divisibility,
    produces each staircase exactly once.
    """
    basis = coinv.basis
    index = {m: i for i, m in enumerate(basis)}
    chars = {chi: k for k, chi in enumerate(action.characters())}
    wbit = [1 << chars[action.weight(m)] for m in basis]
    downs = [
        [index[m[:j] + (m[j] - 1,) + m[j + 1:]] for j in range(len(m)) if m[j]]
        for m in basis
    ]
    suffix = [0] * (len(basis) + 1)
    for i in range(len(basis) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | wbit[i]
    full = (1 << action.order) - 1
    found: list[tuple[Exps, ...]] = []
    chosen: list[int] = []
    chosen_set: set[int] = set()

    def extend(start: int, used: int) -> None:
        if used == full:
            found.append(tuple(basis[i] for i in chosen))
            return
        if (full & ~used) & ~suffix[start]:
            return
        for i in range(start, len(basis)):
            if used & wbit[i] or not all(d in chosen_set for d in downs[i]):
                continue
            chosen.append(i)
            chosen_set.add(i)
            extend(i + 1, used | wbit[i])
            chosen.pop()
            chosen_set.discard(i)

    extend(0, 0)
    return found


# --- cyclotomic values, numerically ---------------------------------------


def cyclo_value(text: str) -> complex:
    """Complex value of a CLI scalar: a rational or 'cyclo(m): c0 + c1*z^k'."""
    text = text.strip()
    m = 1
    if text.startswith("cyclo("):
        m = int(text[len("cyclo("):text.index(")")])
        text = text[text.index(":") + 1:].strip()
    zeta = cmath.exp(2j * math.pi / m)
    total = 0j
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-").strip()
        coef, power = Fraction(1), 0
        if "z" in term:
            head, _, zpart = term.partition("z")
            if head:
                coef = Fraction(head.rstrip("*"))
            power = int(zpart[1:]) if zpart.startswith("^") else 1
        else:
            coef = Fraction(term)
        total += sign * float(coef) * zeta ** power
    return total


def close(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


# --- per-command checks ----------------------------------------------------


def _load(stdout: str, problems: list):
    try:
        return json.loads(stdout)
    except ValueError:
        problems.append("stdout is not JSON")
        return None


def _expect(problems: list, cond: bool, message: str) -> None:
    if not cond:
        problems.append(message)


def _check_staircase_cluster(action: Action, gens_text, stair_text, chars_json,
                             problems: list, where: str) -> None:
    """A reported cluster: order ideal, regular characters, matching generators."""
    n = action.n
    stair = [parse_mono(t, n) for t in stair_text]
    inside = set(stair)
    _expect(problems, len(inside) == len(stair) == action.order,
            f"{where}: staircase size {len(stair)} != |G| {action.order}")
    _expect(problems, all(
        m[:j] + (m[j] - 1,) + m[j + 1:] in inside for m in stair for j in range(n) if m[j]
    ), f"{where}: staircase is not downward closed")
    weights = [action.weight(m) for m in stair]
    _expect(problems, Counter(weights) == Counter(action.characters()),
            f"{where}: characters are not the regular representation")
    _expect(problems, chars_json == [action.char_json(c) for c in sorted(weights)],
            f"{where}: reported characters differ from the staircase weights")
    _expect(problems, sorted(parse_mono(t, n) for t in gens_text) == sorted(gens_of_staircase(stair)),
            f"{where}: generators are not the minimal monomials off the staircase")


def _strat_chars(action: Action, gens: list[Exps]) -> list:
    """Characters of Ibar/(mbar Ibar) for a monomial cluster ideal I.

    Every nonconstant invariant lies in I, so a minimal generator lies in the
    invariant ideal only when it is itself invariant; the remaining minimal
    generators give the stratification characters.
    """
    chars = [action.weight(g) for g in gens]
    return [action.char_json(c) for c in sorted(c for c in chars if any(c))]


def check_coinv(q, rc: int, stdout: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, rc == 0, f"exit code {rc} != 0")
    rep = _load(stdout, problems)
    if rep is None:
        return problems
    action, own = q.action, q.coinv
    n = action.n
    stair = [parse_mono(t, n) for t in rep["staircase"]]
    _expect(problems, rep["dimension"] == own.dim == len(stair),
            f"dimension {rep['dimension']} != own count {own.dim}")
    _expect(problems, sorted(stair, key=grlex) == list(own.basis), "staircase differs from own basis")
    _expect(problems, sorted((parse_mono(t, n) for t in rep["invariant_generators"]), key=grlex)
            == list(own.invariant_gens), "invariant generators differ")
    _expect(problems, rep["characters"] == [action.char_json(action.weight(m)) for m in stair],
            "characters differ from the basis weights")
    _expect(problems, rep["group_order"] == action.order and rep["num_variables"] == n,
            "group order or variable count differs")
    return problems


def check_clusters(q, rc: int, stdout: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, rc == 0, f"exit code {rc} != 0")
    rep = _load(stdout, problems)
    if rep is None:
        return problems
    action = q.action
    count = expected_cluster_count(action)
    _expect(problems, len(rep) == count, f"cluster count {len(rep)} != theorem {count}")
    zeros = ["0"] * len(q.coinv.invariant_gens)
    seen = set()
    for i, c in enumerate(rep):
        where = f"cluster {i}"
        _check_staircase_cluster(action, c["generators"], c["staircase"], c["characters"],
                                 problems, where)
        _expect(problems, c["is_cluster"] is True and c["reason"] is None, f"{where}: not a cluster")
        _expect(problems, c["tau"] == zeros, f"{where}: tau is not the origin")
        seen.add(tuple(c["generators"]))
    _expect(problems, len(seen) == len(rep), "clusters repeat")
    return problems


def check_mckay(q, rc: int, stdout: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, rc == 0, f"exit code {rc} != 0")
    rep = _load(stdout, problems)
    if rep is None:
        return problems
    action = q.action
    n = action.n
    count = expected_cluster_count(action)
    clusters = rep["clusters"]
    _expect(problems, rep["cluster_count"] == len(clusters) == count,
            f"cluster count {rep['cluster_count']} != theorem {count}")
    appear: dict = {}
    seen = set()
    for i, c in enumerate(clusters):
        gens = [parse_mono(t, n) for t in c["generators"]]
        stair = staircase_of_ideal(gens, n)
        ok = stair is not None and len(stair) == action.order and Counter(
            action.weight(m) for m in stair) == Counter(action.characters())
        _expect(problems, ok, f"cluster {i}: generators do not cut out a G-cluster")
        _expect(problems, c["index"] == i, f"cluster {i}: index {c['index']}")
        strat = _strat_chars(action, gens)
        _expect(problems, c["strat_characters"] == strat, f"cluster {i}: strat characters differ")
        for chi in strat:
            appear.setdefault(json.dumps(chi), set()).add(i)
        seen.add(tuple(c["generators"]))
    _expect(problems, len(seen) == len(clusters), "clusters repeat")
    incidence = sorted(
        ({"character": json.loads(k), "clusters": sorted(v)} for k, v in appear.items()),
        key=lambda e: json.dumps(e["character"]),
    )
    reported = sorted(rep["incidence"], key=lambda e: json.dumps(e["character"]))
    _expect(problems, reported == incidence, "incidence differs from the strat characters")
    missing = [action.char_json(c) for c in action.characters()
               if any(c) and json.dumps(action.char_json(c)) not in appear]
    _expect(problems, rep["missing"] == missing, "missing characters differ")
    _expect(problems, rep["all_nontrivial_covered"] == (not missing), "coverage flag differs")
    return problems


def check_tangent(q, rc: int, stdout: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, rc == 0, f"exit code {rc} != 0")
    rep = _load(stdout, problems)
    if rep is None:
        return problems
    action = q.action
    n = action.n
    _expect(problems, sorted(parse_mono(t, n) for t in rep["ideal"]) == sorted(q.ideal),
            "ideal echo differs")
    _expect(problems, rep["tangent_dim"] == n, f"tangent dim {rep['tangent_dim']} != {n}")
    _expect(problems, rep["strat_characters"] == _strat_chars(action, list(q.ideal)),
            "strat characters differ")
    return problems


def _colength_verdict(q):
    """(staircase or None, is_cluster) from the exact colength."""
    stair = staircase_of_ideal(list(q.ideal), q.action.n)
    is_cluster = (stair is not None and len(stair) == q.action.order
                  and Counter(q.action.weight(m) for m in stair) == Counter(q.action.characters()))
    return stair, is_cluster


def _check_ideal_report(q, rc: int, rep: dict, problems: list) -> None:
    """The verify-style report: verdict and dimension from the exact colength.

    Past the staircase cap (default 4|G|) the CLI prints no staircase and
    says the quotient is not finite.  A finite colength above the cap is
    recorded in q.notes rather than counted as a failure: the cap is the
    CLI's documented contract, and the verdict is still checked.
    """
    action = q.action
    n = action.n
    stair, is_cluster = _colength_verdict(q)
    _expect(problems, rc == (0 if is_cluster else 1), f"exit code {rc} for verdict {is_cluster}")
    _expect(problems, rep["is_cluster"] is is_cluster, f"verdict {rep['is_cluster']} != {is_cluster}")
    _expect(problems, sorted(parse_mono(t, n) for t in rep["generators"]) == sorted(minimal_gens(q.ideal)),
            "generator echo differs")
    cap = 4 * action.order
    if rep["staircase"] is None:
        _expect(problems, stair is None or len(stair) > cap,
                f"no staircase reported, but the colength is {len(stair or [])}")
        if stair is not None:
            q.notes.add(f"finite colength {len(stair)} above the cap {cap} reported as not finite")
        return
    got = [parse_mono(t, n) for t in rep["staircase"]]
    _expect(problems, stair is not None and sorted(got, key=grlex) == stair,
            "staircase differs from the exact one")
    _expect(problems, rep["characters"] == [action.char_json(c) for c in sorted(action.weight(m) for m in got)],
            "characters differ from the staircase weights")
    zeros = ["0"] * len(q.coinv.invariant_gens)
    _expect(problems, rep["tau"] == (zeros if is_cluster else None), "tau differs")


def check_verify(q, rc: int, stdout: str) -> list[str]:
    problems: list[str] = []
    rep = _load(stdout, problems)
    if rep is not None:
        _check_ideal_report(q, rc, rep, problems)
    return problems


def _stabilizer(action: Action, point_values) -> list[tuple[int, ...]]:
    support = [i for i, v in enumerate(point_values) if v != 0]
    return [g for g in action.elements()
            if all(action.pairing_trivial(g, action.weights[i]) for i in support)]


def orbit_size(action: Action, point_values) -> int:
    return action.order // len(_stabilizer(action, point_values))


def _tau_values(action: Action, coinv: Coinvariants, point_values) -> list:
    """Invariant generators evaluated at the point, exactly or as complex."""
    out = []
    for g in coinv.invariant_gens:
        v = 1
        for c, a in zip(point_values, g):
            v = v * c ** a
        out.append(v)
    return out


def _check_tau_list(reported, expected, problems: list, what: str) -> None:
    if reported is None or len(reported) != len(expected):
        problems.append(f"{what}: wrong length")
        return
    for r, e in zip(reported, expected):
        if isinstance(e, Fraction):
            ok = "cyclo" not in r and Fraction(r) == e
        else:
            ok = close(cyclo_value(r), e)
        if not ok:
            problems.append(f"{what}: value {r} != {e}")
            return


def _orbit_expectations(q):
    action = q.action
    stab = _stabilizer(action, q.point)
    free = len(stab) == 1
    chars = sorted(chi for chi in action.characters()
                   if all(action.pairing_trivial(h, chi) for h in stab))
    return stab, free, chars


def check_orbit(q, rc: int, stdout: str) -> list[str]:
    problems: list[str] = []
    rep = _load(stdout, problems)
    if rep is None:
        return problems
    action = q.action
    stab, free, chars = _orbit_expectations(q)
    size = action.order // len(stab)
    _expect(problems, rc == (0 if free else 1), f"exit code {rc} for freeness {free}")
    _expect(problems, rep["orbit_size"] == size, f"orbit size {rep['orbit_size']} != {size}")
    _expect(problems, rep["group_order"] == action.order, "group order differs")
    _expect(problems, rep["is_free"] is free and rep["free_by_orbit_size"] is free
            and rep["free_by_trace"] is free and rep["criteria_agree"] is True,
            "freeness flags differ")
    _expect(problems, rep["stabilizer"] == [list(g) for g in stab], "stabilizer differs")
    _expect(problems, rep["characters"] == [action.char_json(c) for c in chars],
            "characters are not those trivial on the stabilizer")
    _expect(problems, rep["is_cluster"] is free and (rep["reason"] is None) is free,
            "cluster verdict differs")
    zeta = cmath.exp(2j * math.pi / action.exponent)
    images = [
        tuple(complex(c) * zeta ** action.pairing_power(g, w) for c, w in zip(q.point, action.weights))
        for g in action.elements()
    ]
    got = [[cyclo_value(t) for t in p] for p in rep["orbit"]]
    _expect(problems, len(got) == size and all(
        any(all(close(a, b) for a, b in zip(p, img)) for img in images) for p in got)
        and all(not all(close(a, b) for a, b in zip(p1, p2))
                for i, p1 in enumerate(got) for p2 in got[i + 1:]),
        "orbit points are not the distinct images of the point")
    if free:
        _check_tau_list(rep["tau"], _tau_values(action, q.coinv, q.point), problems, "tau")
    else:
        _expect(problems, rep["tau"] is None, "tau reported for a non-free orbit")
    return problems


def check_tau(q, rc: int, stdout: str) -> list[str]:
    problems: list[str] = []
    rep = _load(stdout, problems)
    if rep is None:
        return problems
    action = q.action
    n = action.n
    if q.ideal is not None:
        _, is_cluster = _colength_verdict(q)
        if not is_cluster:
            _check_ideal_report(q, rc, rep, problems)
            return problems
        expected = [Fraction(0)] * len(q.coinv.invariant_gens)
    else:
        stab, free, _ = _orbit_expectations(q)
        if not free:
            _expect(problems, rc == 1, f"exit code {rc} for a non-free point")
            _expect(problems, rep.get("is_cluster") is False
                    and rep.get("orbit_size") == action.order // len(stab),
                    "non-free report differs")
            return problems
        expected = _tau_values(action, q.coinv, q.point)
    _expect(problems, rc == 0, f"exit code {rc} != 0")
    _expect(problems, [parse_mono(t, n) for t in rep["invariant_generators"]]
            == list(q.coinv.invariant_gens), "invariant generators differ")
    _check_tau_list(rep["tau"], expected, problems, "tau")
    return problems


CHECKS = {
    "coinv": check_coinv,
    "clusters": check_clusters,
    "mckay": check_mckay,
    "tangent": check_tangent,
    "verify": check_verify,
    "orbit": check_orbit,
    "tau": check_tau,
}
