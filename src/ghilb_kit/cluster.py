"""G-clusters: verification, torus-fixed enumeration, tau, and orbit clusters.

A G-cluster is a finite subscheme of affine n-space whose function algebra
carries every character of the acting abelian group exactly once (the regular
representation).  Three presentations are supported:

* kind "monomial": a monomial ideal in the full polynomial ring, checked
  through its staircase.
* kind "subspace": a row span inside the coinvariant algebra, checked through
  linear algebra plus the ideal-closure test.
* kind "orbit": the reduced orbit of an explicit point with cyclotomic
  coordinates; a cluster exactly when the orbit is free.

The map tau sends a cluster to the point of the quotient space it sits over,
read off as the scalars the invariant generators reduce to modulo the
cluster ideal.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from ghilb_kit.cyclotomic import CyclotomicNumber, common_conductor, embed_to_conductor
from ghilb_kit.exact_linalg import _as_fraction, kernel_basis_rows, row_space_contains, rref_rows
from ghilb_kit.group_rep import (
    ActionData,
    Character,
    DomainError,
    IntegrityError,
    character_exponent,
    character_index,
    weight_indexer,
)
from ghilb_kit.monomial_algebra import (
    CoinvariantAlgebra,
    Monomial,
    MonomialIdeal,
    coinvariant_algebra,
    colength,
    invariant_generators,
    quotient_staircase,
)

Scalar = Union[Fraction, CyclotomicNumber]

_grlex_key = operator.attrgetter("grlex_key")


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of a G-cluster check on a quotient.

    from_quotient holds the one verdict ladder; verify_cluster, the cluster
    constructors and the CLI commands verify, tau and orbit read it.

    staircase is the staircase the verdict of a monomial ideal was read from,
    or None when there is none (more than 4|G| monomials, an infinite
    quotient, or not a monomial ideal).
    """

    is_cluster: bool
    quotient_dim: Optional[int]
    characters: Optional[tuple[Character, ...]]
    failure_reason: Optional[str]
    staircase: Optional[tuple[Monomial, ...]] = None

    @classmethod
    def from_quotient(cls, group, dim: int, indices, staircase=None) -> "ClusterReport":
        """The verdict on a quotient of dimension dim whose basis has these character indices.

        indices lists the index (see group_rep) of each basis member's
        character, in any order, or is None; the report holds the characters
        sorted.  It is a cluster exactly when dim is |G| and the sorted
        indices are 0, ..., |G| - 1: the regular representation.  An index
        outside range(|G|) names no character and raises ValueError.
        """
        chars = None
        if indices is not None:
            indices = sorted(indices)
            if indices and not 0 <= indices[0] <= indices[-1] < group.order:
                raise ValueError(f"a character index lies outside range({group.order})")
            chars = tuple(map(group.indexed_characters.__getitem__, indices))
        if dim != group.order:
            return cls(False, dim, chars, f"dimension {dim} ≠ {group.order}", staircase)
        if indices != list(range(dim)):
            reason = "character multiset is not the regular representation"
            return cls(False, dim, chars, reason, staircase)
        return cls(True, dim, chars, None, staircase)


@dataclass(frozen=True)
class QuotientPoint:
    """Values of the invariant generators at the support of a cluster."""

    generators: tuple[Monomial, ...]
    values: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if len(self.generators) != len(self.values):
            raise ValueError("one value per invariant generator is required")


@dataclass(frozen=True)
class FreenessReport:
    """Freeness of an orbit, decided two independent ways.

    characters are those of the functions on the orbit G/H, sorted: the
    characters trivial on the stabilizer H.
    """

    orbit_size: int
    group_order: int
    free_by_orbit_size: bool
    free_by_trace: bool
    criteria_agree: bool
    is_free: bool
    stabilizer: tuple[tuple[int, ...], ...]
    fixed_point_counts: tuple[tuple[tuple[int, ...], int], ...]
    characters: tuple[Character, ...]


# 1 marks each payload field (ideal, staircase, rows, conductor, points) a GCluster of the kind sets
_PAYLOADS = {"monomial": (1, 1, 0, 0, 0), "subspace": (0, 0, 1, 0, 0), "orbit": (0, 0, 0, 1, 1)}


@dataclass(frozen=True)
class GCluster:
    """A G-cluster in one of the three supported presentations.

    kind is "monomial" (payload ideal and staircase), "subspace" (rows) or
    "orbit" (conductor and points); exactly the payload of its kind is set,
    else ValueError.  A cluster is its kind, action and payload, and == and
    hash read nothing else: its verdict data (dimension, characters) is on
    the ClusterReport of verify_cluster.
    """

    kind: str
    action: ActionData
    ideal: Optional[MonomialIdeal] = None
    staircase: Optional[tuple[Monomial, ...]] = None
    rows: Optional[tuple[tuple[Scalar, ...], ...]] = None
    conductor: Optional[int] = None
    points: Optional[tuple[tuple[CyclotomicNumber, ...], ...]] = None

    def __post_init__(self) -> None:
        payload = _PAYLOADS.get(self.kind)
        if payload is None:
            raise ValueError(f"unknown cluster kind {self.kind!r}")
        if payload != (self.ideal is not None, self.staircase is not None, self.rows is not None,
                       self.conductor is not None, self.points is not None):
            raise ValueError(f"a {self.kind} cluster sets exactly the payload fields of its kind")


def _admit(action: ActionData, target, takes=None) -> tuple:
    """Check that an input belongs to the action; return its (kind, payload).

    The one place that tells presentations apart.  The kinds: "ideal" (a
    MonomialIdeal), "monomial" (a GCluster; payload its ideal), "subspace"
    (payload its rows), "orbit", "algebra" (a CoinvariantAlgebra) and "rows"
    (anything else); other payloads are the target.  A GCluster or algebra
    of another action, or an ideal on another number of variables, raises
    ValueError; then a kind outside takes does, unless takes is None.
    """
    if isinstance(target, CoinvariantAlgebra):
        if target.action != action:
            raise ValueError("the coinvariant algebra was built for another action")
        kind, payload = "algebra", target
    elif isinstance(target, MonomialIdeal):
        kind, payload = "ideal", target
    elif isinstance(target, GCluster):
        if target.action != action:
            raise ValueError("the cluster was built for another action")
        kind = target.kind
        payload = target.ideal if kind == "monomial" else target.rows if kind == "subspace" else target
    else:
        kind, payload = "rows", target
    if kind in ("ideal", "monomial") and payload.num_vars != action.num_variables:
        raise ValueError(f"the ideal has {payload.num_vars} variables, the action {action.num_variables}")
    if takes is not None and kind not in takes:
        raise ValueError(f"the input is of kind {kind}; this operation takes {' or '.join(takes)}")
    return kind, payload


def _field_context(rows):
    """Common exact field for a row matrix: rationals or one cyclotomic field."""
    entries = [e for row in rows for e in row]
    if not any(isinstance(e, CyclotomicNumber) for e in entries):
        return Fraction(1), [[_as_fraction(e) for e in row] for row in rows]
    conductor = common_conductor(entries)
    return CyclotomicNumber.one(conductor), [[embed_to_conductor(e, conductor) for e in row] for row in rows]


def _echelon(coinv: CoinvariantAlgebra, rows):
    """Reduced echelon rows and pivots of a row span of the coinvariant algebra."""
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != coinv.dim:
            raise ValueError(f"subspace rows must have {coinv.dim} columns")
    one, rows = _field_context(rows)
    return rref_rows(rows, one)


def _variable_images(coinv: CoinvariantAlgebra, rows) -> list[list[list]]:
    """The product table images[v][j] = x_v * rows[j] over the coinvariant basis."""
    return [[coinv.monomial_times_vector(var, row) for row in rows] for var in coinv.variables()]


def _closed_under_variables(rref, pivots, images) -> bool:
    """Whether the span of reduced echelon rows holds their product table."""
    return all(row_space_contains(rref, pivots, image) for by_var in images for image in by_var)


def is_ideal_subspace(coinv: CoinvariantAlgebra, subspace) -> bool:
    """Whether a row span inside the coinvariant algebra is an ideal.

    Returns true iff every product of a basis monomial with a spanning row
    stays inside the span.  Only products by the variables are formed: the
    variables generate the algebra, so closure under them is equivalent to
    closure under every basis monomial.  It takes rows only (_admit).
    """
    _, rows = _admit(coinv.action, subspace, ("rows",))
    rref, pivots = _echelon(coinv, rows)
    return _closed_under_variables(rref, pivots, _variable_images(coinv, rref))


def _monomial_report(action: ActionData, ideal: MonomialIdeal) -> ClusterReport:
    # a cluster has |G| monomials, so a walk past 4|G| only needs the colength
    staircase = quotient_staircase(ideal, 4 * action.group.order)
    if staircase is None:
        dim = colength(ideal)
        if dim is None:
            return ClusterReport(False, None, None, "quotient not finite")
        return ClusterReport.from_quotient(action.group, dim, None)
    indices = map(weight_indexer(action), (m.exponents for m in staircase))
    return ClusterReport.from_quotient(action.group, len(staircase), indices, tuple(staircase))


def _subspace_report(action: ActionData, coinv: CoinvariantAlgebra, rref, pivots) -> ClusterReport:
    dim = coinv.dim - len(rref)
    try:
        for row in rref:
            coinv.vector_weight(row)
    except ValueError:
        if dim == action.group.order:
            return ClusterReport(False, dim, None, "subspace is not weight-graded")
        return ClusterReport.from_quotient(action.group, dim, None)
    pivot_set = set(pivots)
    indices = (w for i, w in enumerate(coinv.weight_indices) if i not in pivot_set)
    report = ClusterReport.from_quotient(action.group, dim, indices)
    if report.is_cluster and not _closed_under_variables(rref, pivots, _variable_images(coinv, rref)):
        return ClusterReport(False, dim, report.characters, "subspace fails the ideal-closure test")
    return report


def verify_cluster(action: ActionData, target) -> ClusterReport:
    """Check the G-cluster conditions for an ideal-like input.

    Takes every kind of input (see _admit): an ideal, checked in the full
    polynomial ring through its staircase, rows spanning a subspace of the
    coinvariant algebra, or a GCluster.  A non-finite quotient is reported as
    a failure, not raised.  The staircase of a monomial ideal comes back on
    the report when it has at most 4|G| monomials; a larger finite one is
    reported with its exact dimension only (a cluster has |G|).  Everything
    is derived from the payload, and rows are checked in the action's
    coinvariant algebra.  A GCluster of another action raises ValueError
    (see _admit).
    """
    kind, payload = _admit(action, target, ("ideal", "monomial", "subspace", "orbit", "rows"))
    if kind in ("ideal", "monomial"):
        return _monomial_report(action, payload)
    if kind == "orbit":
        points = payload.points
        counts = _fixed_point_counts(_group_exponents(action, payload.conductor), points)
        chars = _orbit_characters(action.group, counts, len(points))
        return ClusterReport.from_quotient(action.group, len(points), map(character_index, chars))
    coinv = coinvariant_algebra(action)
    return _subspace_report(action, coinv, *_echelon(coinv, payload))


def monomial_cluster(action: ActionData, ideal) -> GCluster:
    """Build a verified monomial-ideal cluster; raises when it is not one.

    It takes an ideal or its generators ("rows" to _admit); a GCluster
    raises ValueError naming the kinds taken.
    """
    kind, ideal = _admit(action, ideal, ("ideal", "rows"))
    if kind == "rows":
        ideal = MonomialIdeal(action.num_variables, tuple(ideal))
    report = _monomial_report(action, ideal)
    if not report.is_cluster:
        raise DomainError(f"not a G-cluster: {report.failure_reason}")
    return GCluster(kind="monomial", action=action, ideal=ideal, staircase=report.staircase)


def subspace_cluster(coinv: CoinvariantAlgebra, rows) -> GCluster:
    """Build a verified subspace cluster from spanning rows; raises otherwise.

    It takes rows only (_admit); a GCluster raises ValueError naming the
    kinds taken.
    """
    rref, pivots = _echelon(coinv, _admit(coinv.action, rows, ("rows",))[1])
    report = _subspace_report(coinv.action, coinv, rref, pivots)
    if not report.is_cluster:
        raise DomainError(f"not a G-cluster: {report.failure_reason}")
    return GCluster(kind="subspace", action=coinv.action, rows=tuple(tuple(r) for r in rref))


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def enumerate_torus_fixed_clusters(action: ActionData,
                                   coinv: Optional[CoinvariantAlgebra] = None) -> list[GCluster]:
    """All monomial G-clusters supported at the origin, canonically sorted.

    The staircase of such a cluster avoids every invariant monomial, so it is
    a downward-closed subset of the coinvariant basis hitting each character
    exactly once.  The search extends staircases in ascending graded-lex
    order, which visits every staircase exactly once; output is sorted by the
    graded-lex keys of the minimal generator lists.  Pass the action's
    coinvariant algebra as coinv to reuse it; otherwise it is built here.

    The search state is Python int bit masks, passed by value down the
    recursion: bit i of a basis mask stands for basis[i], bit c of a
    character mask for the character of index c (coinv.weight_indices).  A
    node holds its staircase, its frontier (the basis indices off the
    staircase whose divisors m/x_i all lie on it, the only candidates for
    the next step), its unused characters, and the indices whose character
    is unused.  Its candidates are the frontier indices at or past its start
    with an unused character, walked lowest bit first, so in ascending
    index order.  A node is cut when some unused character occurs at no
    index from start on: ahead[start] masks the characters found there.
    Backtracking restores only the counts of divisors still off the
    staircase, which tell when an index joins the frontier.

    Each leaf builds its cluster finished.  A minimal generator of its ideal
    is a monomial off the staircase whose divisors m/x_i all lie on it: a
    frontier monomial, or else an invariant generator g whose divisors g/x_i
    (basis monomials, masked once per call) are all on the staircase.  The
    two graded-lex lists are merged, and MonomialIdeal takes the result as
    it is, without minimalizing it again.  A coinv of another action raises
    ValueError.
    """
    if coinv is None:
        coinv = coinvariant_algebra(action)
    else:
        _admit(action, coinv)
    order = action.group.order

    # missing[i] counts the divisors m/x_i of basis[i] not yet in the staircase;
    # the basis is closed under division, so it starts at the nonzero exponents
    ups = [[k for k in row if k is not None] for row in coinv.variable_steps()]
    missing = [action.num_variables - m.exponents.count(0) for m in coinv.basis]
    chars = coinv.weight_indices
    # of_char[c] masks the indices of character c; ahead[i] masks the characters at indices >= i
    of_char = [0] * order
    ahead = [0] * (len(chars) + 1)
    for i in range(len(chars) - 1, -1, -1):
        of_char[chars[i]] |= 1 << i
        ahead[i] = ahead[i + 1] | 1 << chars[i]

    leaves: list[tuple[int, int]] = []

    def extend(start: int, stair: int, ready: int, unused: int, allowed: int) -> None:
        if not unused:
            leaves.append((stair, ready))
            return
        if unused & ~ahead[start]:
            return
        candidates = ready & allowed & (-1 << start)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            idx = low.bit_length() - 1
            c = chars[idx]
            grown = ready ^ low
            for u in ups[idx]:
                missing[u] -= 1
                if not missing[u]:
                    grown |= 1 << u
            extend(idx + 1, stair | low, grown, unused ^ 1 << c, allowed & ~of_char[c])
            for u in ups[idx]:
                missing[u] += 1

    first = sum(1 << i for i, k in enumerate(missing) if not k)
    extend(0, 0, first, (1 << order) - 1, (1 << len(chars)) - 1)

    basis, gens = coinv.basis, coinv.invariant_gens
    # the divisors g/x_v of an invariant generator are basis monomials
    gen_divisors = [sum(1 << coinv.index_of(Monomial._unchecked(e[:v] + (e[v] - 1,) + e[v + 1:]))
                        for v, a in enumerate(e) if a)
                    for e in (g.exponents for g in gens)]
    clusters = []
    for stair, frontier in leaves:
        # both lists are in graded-lex order, so the sort merges two runs
        min_gens = sorted([basis[i] for i in _bits(frontier)]
                          + [g for g, divisors in zip(gens, gen_divisors) if stair & divisors == divisors],
                          key=_grlex_key)
        clusters.append(GCluster(
            kind="monomial",
            action=action,
            ideal=MonomialIdeal._unchecked(action.num_variables, tuple(min_gens)),
            staircase=tuple(basis[i] for i in _bits(stair)),
        ))
    clusters.sort(key=lambda c: tuple(map(_grlex_key, c.ideal.min_gens)))
    return clusters


def subspace_rows_of_monomial_cluster(coinv: CoinvariantAlgebra, cluster) -> tuple[tuple[Fraction, ...], ...]:
    """Indicator rows of the image of a monomial cluster ideal in S-bar.

    The rows are the unit vectors of the basis monomials lying in the ideal;
    they are already in reduced echelon form.  It takes an ideal or a
    monomial cluster of the algebra's action (see _admit).
    """
    _, ideal = _admit(coinv.action, cluster, ("ideal", "monomial"))
    rows = []
    for i, m in enumerate(coinv.basis):
        if ideal.contains(m):
            row = [Fraction(0)] * coinv.dim
            row[i] = Fraction(1)
            rows.append(tuple(row))
    return tuple(rows)


def _evaluate(m: Monomial, point, one: CyclotomicNumber) -> CyclotomicNumber:
    """m at a point with coordinates in one's field; one is the empty product."""
    powers = [coord ** a for coord, a in zip(point, m.exponents) if a]
    return functools.reduce(operator.mul, powers) if powers else one


def _group_exponents(action: ActionData, conductor: int):
    """Pairs (g, the k_i in [0, conductor) with g scaling x_i by zeta_conductor^k_i), in order."""
    group = action.group
    step = conductor // group.exponent
    return tuple(
        (g, tuple(step * character_exponent(group, g, w) for w in action.weights))
        for g in group.elements()
    )


def _fixed_point_counts(group_exponents, points):
    """Pairs (g, number of the points that g fixes), in group element order."""
    return tuple(
        (g, sum(1 for p in points if all(not k or not c for k, c in zip(ks, p))))
        for g, ks in group_exponents
    )


def _orbit_characters(group, counts, size: int) -> tuple[Character, ...]:
    """Characters of the functions on an orbit G/H: those trivial on the stabilizer H.

    Points of one abelian orbit share their stabilizer, so each g fixes all
    of it or none, and H is the g that fix any.  The functions on G/H are
    Ind_H^G 1, each character trivial on H once, picked by the integer test
    character_exponent == 0 on H minus the identity in the sorted
    group.indexed_characters.  By orbit-stabilizer they number size.
    """
    if any(fixed not in (0, size) for _, fixed in counts):
        raise IntegrityError("a group element fixes only part of an orbit")
    stabilizer = [g for g, fixed in counts if fixed and any(g)]
    chars = tuple(chi for chi in group.indexed_characters
                  if all(character_exponent(group, g, chi) == 0 for g in stabilizer))
    if len(chars) != size:
        raise IntegrityError("orbit character multiplicities do not sum to the orbit size")
    return chars


def _coerce_point(action: ActionData, point) -> tuple[int, tuple[CyclotomicNumber, ...]]:
    coords = list(point)
    if len(coords) != action.num_variables:
        raise ValueError(f"point must have {action.num_variables} coordinates")
    conductor = math.lcm(action.group.exponent, common_conductor(coords))
    return conductor, tuple(embed_to_conductor(c, conductor) for c in coords)


def orbit_cluster(action: ActionData, point) -> tuple[GCluster, FreenessReport]:
    """The orbit of a point as a cluster candidate, plus a freeness report.

    Each g is carried as the exponents k_i of zeta_conductor by which it
    scales the coordinates (the integer pairing of g with the weights); g
    fixes a point when each coordinate has c_i == 0 or k_i == 0.  That one
    integer test gives the fixed-point counts, the stabilizer H and the
    characters (those trivial on H: the orbit is G/H), all on the report.
    Freeness is decided by orbit cardinality and, independently, by the
    trace criterion (no non-identity element fixes an orbit point); the two
    must agree and both are reported.  The quotient dimension is the orbit size:
    cyclotomic coefficients are canonical at one conductor, so the orbit
    points are pairwise distinct, and distinct points are interpolated by
    products of univariate separators, so their functions are independent.
    """
    group = action.group
    order = group.order
    conductor, base = _coerce_point(action, point)

    group_exponents = _group_exponents(action, conductor)
    images = (tuple(CyclotomicNumber.root_of_unity(conductor, k) * c if k and c else c
                    for k, c in zip(ks, base)) for _, ks in group_exponents)
    # zeta^k is a unit of Z[zeta], so it keeps each coordinate's denominator:
    # numerators sort and tell the images apart as their coefficients would
    seen = {tuple(c.numerators for c in image): image for image in images}
    points = tuple(image for _, image in sorted(seen.items(), key=operator.itemgetter(0)))
    counts = _fixed_point_counts(group_exponents, points)

    size = len(points)
    identity = group.identity
    free_by_size = size == order
    free_by_trace = all(fixed == 0 for g, fixed in counts if g != identity)
    report = FreenessReport(
        orbit_size=size,
        group_order=order,
        free_by_orbit_size=free_by_size,
        free_by_trace=free_by_trace,
        criteria_agree=free_by_size == free_by_trace,
        is_free=free_by_size and free_by_trace,
        stabilizer=tuple(g for g, fixed in counts if fixed),
        fixed_point_counts=counts,
        characters=_orbit_characters(group, counts, size),
    )
    return GCluster(kind="orbit", action=action, conductor=conductor, points=points), report


def evaluation_kernel(action: ActionData, cluster: GCluster):
    """Monomial list and kernel rows of the evaluation map at the points of an orbit cluster.

    The monomials are those of per-variable degree at most
    d = max(|G|, number of points) - 1, in graded-lex order, and the kernel is
    the span of the polynomials among them that vanish on the points.  The
    points are distinct and products of univariate separators of degree at
    most d interpolate them (see orbit_cluster), so the evaluation has rank
    the number of points.  The kernel need not cut out the point set: on
    1/3(1) at (1,) it is empty at d = 2, as x1^3 - 1 has degree 3.  The
    cluster is one orbit_cluster built for this action; its points are read
    in its own conductor's field.  Other input raises ValueError (_admit).
    """
    _admit(action, cluster, ("orbit",))
    points = cluster.points
    one = CyclotomicNumber.one(cluster.conductor)
    degrees = range(max(action.group.order, len(points)))
    monomials = sorted(map(Monomial, itertools.product(degrees, repeat=action.num_variables)),
                       key=_grlex_key)
    rows = [[_evaluate(m, p, one) for m in monomials] for p in points]
    return monomials, kernel_basis_rows(rows, len(monomials), one)


def tau_support(action: ActionData, cluster, coinv: Optional[CoinvariantAlgebra] = None) -> QuotientPoint:
    """The point of the quotient space supporting a verified cluster.

    Each invariant generator must reduce to a scalar modulo the cluster ideal
    (the trivial character appears once in the quotient, so its graded piece
    is the constants); anything else raises IntegrityError.  On an orbit,
    f(h.p) = chi(h) f(p) for f of weight chi, so a generator whose weight
    pairs to 0 with every h is constant there and is evaluated at one point.
    The values v_j = p^(e_j) satisfy every multiplicative relation among the
    generators by construction (sum c_j e_j = 0 makes both sides p^E), so the
    point lies on the quotient without a check.  Rows, or a GCluster or a
    coinv of another action, raise ValueError (see _admit).
    """
    kind, payload = _admit(action, cluster, ("ideal", "monomial", "subspace", "orbit"))
    if coinv is not None:
        _admit(action, coinv)
    gens = tuple(coinv.invariant_gens) if coinv is not None else tuple(invariant_generators(action))

    if kind == "orbit":
        weight_index = weight_indexer(action)
        for g in gens:
            if weight_index(g.exponents):
                raise IntegrityError(
                    f"invariant generator {g.to_text()} is not constant on the orbit"
                )
        one = CyclotomicNumber.one(payload.conductor)
        values = [_evaluate(g, payload.points[0], one) for g in gens]
    elif kind == "subspace":
        # invariant generators already vanish in the coinvariant algebra
        values = [Fraction(0)] * len(gens)
    else:
        values = []
        for g in gens:
            if not payload.contains(g):
                raise IntegrityError(
                    f"invariant generator {g.to_text()} does not reduce to a scalar"
                )
            values.append(Fraction(0))
    return QuotientPoint(gens, tuple(values))
