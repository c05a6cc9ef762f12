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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from ghilb_kit.cyclotomic import CyclotomicNumber, character_exponent, embed_to_conductor
from ghilb_kit.exact_linalg import (
    kernel_basis_rows,
    reduce_vector,
    row_space_contains,
    rref_rows,
)
from ghilb_kit.group_rep import (
    ActionData,
    Character,
    is_regular_representation,
    weight_of_monomial,
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


class IntegrityError(RuntimeError):
    """An internal consistency check failed (signals a non-cluster input)."""


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of a G-cluster check on a quotient.

    from_quotient holds the one verdict ladder; verify_cluster, the cluster
    constructors and the CLI commands verify, clusters and orbit read it.

    staircase is the staircase the verdict of a monomial ideal was read from,
    or None when there is none (past the cap, or not a monomial ideal).
    """

    is_cluster: bool
    quotient_dim: Optional[int]
    characters: Optional[tuple[Character, ...]]
    failure_reason: Optional[str]
    staircase: Optional[tuple[Monomial, ...]] = None

    @classmethod
    def from_quotient(cls, group, dim: int, chars, staircase=None) -> "ClusterReport":
        """The verdict on a quotient of dimension dim carrying the characters chars.

        It is a cluster exactly when dim is |G| and chars is the regular
        representation; chars is read only when the dimension matches.
        """
        if dim != group.order:
            return cls(False, dim, chars, f"dimension {dim} ≠ {group.order}", staircase)
        if not is_regular_representation(group, chars):
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
    """Freeness of an orbit, decided two independent ways."""

    orbit_size: int
    group_order: int
    free_by_orbit_size: bool
    free_by_trace: bool
    criteria_agree: bool
    is_free: bool
    stabilizer: tuple[tuple[int, ...], ...]
    fixed_point_counts: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class GCluster:
    """A G-cluster in one of the three supported presentations.

    kind is "monomial", "subspace", or "orbit"; exactly the matching payload
    field is set.  quotient_dim and characters cache the quotient data.
    """

    kind: str
    action: ActionData
    ideal: Optional[MonomialIdeal] = None
    staircase: Optional[tuple[Monomial, ...]] = None
    rows: Optional[tuple[tuple[Scalar, ...], ...]] = None
    conductor: Optional[int] = None
    points: Optional[tuple[tuple[CyclotomicNumber, ...], ...]] = None
    quotient_dim: Optional[int] = None
    characters: Optional[tuple[Character, ...]] = None

    def __post_init__(self) -> None:
        payload = {"monomial": self.ideal, "subspace": self.rows, "orbit": self.points}
        if self.kind not in payload:
            raise ValueError(f"unknown cluster kind {self.kind!r}")
        if payload[self.kind] is None:
            raise ValueError(f"cluster of kind {self.kind!r} is missing its payload")


def _to_conductor(c, conductor: int) -> CyclotomicNumber:
    """A rational or cyclotomic scalar as an element of Q(zeta_conductor)."""
    if isinstance(c, CyclotomicNumber):
        return embed_to_conductor(c, conductor)
    return CyclotomicNumber.from_rational(Fraction(c), conductor)


def _field_context(rows):
    """Common exact field for a row matrix: rationals or one cyclotomic field."""
    conductor = 1
    cyclo = False
    for row in rows:
        for e in row:
            if isinstance(e, CyclotomicNumber):
                cyclo = True
                conductor = math.lcm(conductor, e.conductor)
    if not cyclo:
        return Fraction(0), Fraction(1), [[Fraction(e) for e in row] for row in rows]
    return (CyclotomicNumber.zero(conductor), CyclotomicNumber.one(conductor),
            [[_to_conductor(e, conductor) for e in row] for row in rows])


def _echelon(coinv: CoinvariantAlgebra, rows):
    """Reduced echelon rows and pivots of a row span of the coinvariant algebra."""
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != coinv.dim:
            raise ValueError(f"subspace rows must have {coinv.dim} columns")
    zero, one, rows = _field_context(rows)
    return rref_rows(rows, zero, one)


def _closed_under_variables(coinv: CoinvariantAlgebra, rref, pivots) -> bool:
    """Whether the span of reduced echelon rows is closed under every variable."""
    return all(row_space_contains(rref, pivots, coinv.monomial_times_vector(var, row))
               for var in coinv.variables() for row in rref)


def is_ideal_subspace(coinv: CoinvariantAlgebra, subspace) -> bool:
    """Whether a row span inside the coinvariant algebra is an ideal.

    Returns true iff every product of a basis monomial with a spanning row
    stays inside the span.  Only products by the variables are formed: the
    variables generate the algebra, so closure under them is equivalent to
    closure under every basis monomial.
    """
    return _closed_under_variables(coinv, *_echelon(coinv, subspace))


def _monomial_report(action: ActionData, ideal: MonomialIdeal, cap: Optional[int]) -> ClusterReport:
    order = action.group.order
    cap = cap if cap is not None else 4 * order
    staircase = quotient_staircase(ideal, cap)
    if staircase is None:
        dim = colength(ideal)
        if dim is None:
            return ClusterReport(False, None, None, "quotient not finite")
        if dim == order:
            return ClusterReport(False, dim, None, f"dimension {dim} exceeds the cap {cap}")
        return ClusterReport.from_quotient(action.group, dim, None)
    chars = tuple(sorted(weight_of_monomial(action, m.exponents) for m in staircase))
    return ClusterReport.from_quotient(action.group, len(staircase), chars, tuple(staircase))


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
    chars = tuple(sorted(w for i, w in enumerate(coinv.weights) if i not in pivot_set))
    report = ClusterReport.from_quotient(action.group, dim, chars)
    if report.is_cluster and not _closed_under_variables(coinv, rref, pivots):
        return ClusterReport(False, dim, chars, "subspace fails the ideal-closure test")
    return report


def _orbit_report(action: ActionData, points, conductor: int) -> ClusterReport:
    counts = _fixed_point_counts(_group_exponents(action, conductor), points)
    chars = _orbit_characters(action.group, counts, len(points))
    return ClusterReport.from_quotient(action.group, len(points), chars)


def verify_cluster(action: ActionData, target, cap: Optional[int] = None,
                   coinv: Optional[CoinvariantAlgebra] = None) -> ClusterReport:
    """Check the G-cluster conditions for an ideal-like input.

    Accepts a MonomialIdeal (checked in the full polynomial ring through its
    staircase), a matrix of rows spanning a subspace of the coinvariant
    algebra, or a GCluster of any kind.  A non-finite quotient is reported as
    a failure, not raised; so is a finite one past the staircase cap, with
    its exact dimension.  The staircase of a monomial ideal within the cap
    comes back on the report.  Everything is derived from the target: the
    cached quotient data of a GCluster is not read.
    """
    if isinstance(target, GCluster):
        if target.kind == "monomial":
            return _monomial_report(action, target.ideal, cap)
        if target.kind == "orbit":
            return _orbit_report(action, target.points, target.conductor)
        target = target.rows
    elif isinstance(target, MonomialIdeal):
        return _monomial_report(action, target, cap)
    coinv = coinv or coinvariant_algebra(action)
    return _subspace_report(action, coinv, *_echelon(coinv, target))


def monomial_cluster(action: ActionData, ideal, cap: Optional[int] = None) -> GCluster:
    """Build a verified monomial-ideal cluster; raises when it is not one."""
    if not isinstance(ideal, MonomialIdeal):
        ideal = MonomialIdeal(action.num_variables, tuple(ideal))
    report = _monomial_report(action, ideal, cap)
    if not report.is_cluster:
        raise ValueError(f"not a G-cluster: {report.failure_reason}")
    return GCluster(
        kind="monomial",
        action=action,
        ideal=ideal,
        staircase=report.staircase,
        quotient_dim=report.quotient_dim,
        characters=report.characters,
    )


def subspace_cluster(coinv: CoinvariantAlgebra, rows) -> GCluster:
    """Build a verified subspace cluster from spanning rows; raises otherwise."""
    rref, pivots = _echelon(coinv, rows)
    report = _subspace_report(coinv.action, coinv, rref, pivots)
    if not report.is_cluster:
        raise ValueError(f"not a G-cluster: {report.failure_reason}")
    return GCluster(
        kind="subspace",
        action=coinv.action,
        rows=tuple(tuple(r) for r in rref),
        quotient_dim=report.quotient_dim,
        characters=report.characters,
    )


def enumerate_torus_fixed_clusters(action: ActionData,
                                   coinv: Optional[CoinvariantAlgebra] = None) -> list[GCluster]:
    """All monomial G-clusters supported at the origin, canonically sorted.

    The staircase of such a cluster avoids every invariant monomial, so it is
    a downward-closed subset of the coinvariant basis hitting each character
    exactly once.  The search extends staircases in ascending graded-lex
    order, which visits every staircase exactly once; output is sorted by the
    graded-lex keys of the minimal generator lists.  Pass the action's
    coinvariant algebra as coinv to reuse it; otherwise it is built here.
    """
    if coinv is None:
        coinv = coinvariant_algebra(action)
    exps = [m.exponents for m in coinv.basis]
    dim = len(exps)
    order = action.group.order
    num_vars = action.num_variables

    # missing[i] counts the divisors m/x_i of basis[i] not yet in the staircase
    up, down = coinv.variable_steps()
    ups = [[k for k in row if k is not None] for row in up]
    missing = [sum(d is not None for d in row) for row in down]
    char_id = {chi: k for k, chi in enumerate(action.group.characters())}
    chars = [char_id[w] for w in coinv.weights]
    suffix: list[frozenset] = [frozenset()] * (dim + 1)
    for i in range(dim - 1, -1, -1):
        suffix[i] = suffix[i + 1] | {chars[i]}

    staircases: list[list[int]] = []
    chosen: list[int] = []
    unused = set(range(order))

    def extend(start: int) -> None:
        if not unused:
            staircases.append(list(chosen))
            return
        if not unused <= suffix[start]:
            return
        for idx in range(start, dim):
            c = chars[idx]
            if missing[idx] or c not in unused:
                continue
            chosen.append(idx)
            unused.remove(c)
            for u in ups[idx]:
                missing[u] -= 1
            extend(idx + 1)
            for u in ups[idx]:
                missing[u] += 1
            chosen.pop()
            unused.add(c)

    extend(0)

    clusters = []
    for stair in staircases:
        stair_exps = {exps[i] for i in stair}
        corners = set()
        for e in stair_exps:
            for v in range(num_vars):
                up = e[:v] + (e[v] + 1,) + e[v + 1:]
                if up not in stair_exps and all(
                    up[:w] + (a - 1,) + up[w + 1:] in stair_exps for w, a in enumerate(up) if a
                ):
                    corners.add(up)
        clusters.append(
            GCluster(
                kind="monomial",
                action=action,
                ideal=MonomialIdeal(num_vars, tuple(Monomial(g) for g in corners)),
                staircase=tuple(coinv.basis[i] for i in stair),
                quotient_dim=order,
                characters=tuple(sorted(coinv.weights[i] for i in stair)),
            )
        )
    clusters.sort(key=lambda c: tuple(g.grlex_key for g in c.ideal.min_gens))
    return clusters


def subspace_rows_of_monomial_cluster(coinv: CoinvariantAlgebra, cluster) -> tuple[tuple[Fraction, ...], ...]:
    """Indicator rows of the image of a monomial cluster ideal in S-bar.

    The rows are the unit vectors of the basis monomials lying in the ideal;
    they are already in reduced echelon form.
    """
    ideal = cluster.ideal if isinstance(cluster, GCluster) else cluster
    rows = []
    for i, m in enumerate(coinv.basis):
        if ideal.contains(m):
            row = [Fraction(0)] * coinv.dim
            row[i] = Fraction(1)
            rows.append(tuple(row))
    return tuple(rows)


def invariant_relation_exponents(gens: Sequence[Monomial]) -> list[tuple[int, ...]]:
    """Integer exponent vectors of the multiplicative relations among monomials.

    Each returned vector c satisfies sum_j c_j * exponents(g_j) = 0, so any
    point values of the g_j must satisfy prod v_j^(c_j positive part) =
    prod v_j^(c_j negative part).
    """
    gens = list(gens)
    if not gens:
        return []
    n = gens[0].num_vars
    rows = [[Fraction(g.exponents[i]) for g in gens] for i in range(n)]
    relations = []
    for vec in kernel_basis_rows(rows, len(gens)):
        denom = math.lcm(*(f.denominator for f in vec))
        ints = [int(f * denom) for f in vec]
        g = math.gcd(*ints)
        if g:
            ints = [a // g for a in ints]
        lead = next((a for a in ints if a), 0)
        if lead < 0:
            ints = [-a for a in ints]
        relations.append(tuple(ints))
    return relations


def satisfies_invariant_relations(gens: Sequence[Monomial], values: Sequence[Scalar]) -> bool:
    """Whether candidate tau values satisfy every relation among the generators."""
    for relation in invariant_relation_exponents(gens):
        lhs, rhs = 1, 1
        for value, c in zip(values, relation):
            if c > 0:
                lhs = lhs * value ** c
            elif c < 0:
                rhs = rhs * value ** (-c)
        if lhs != rhs:
            return False
    return True


def _evaluate(m: Monomial, point, one: CyclotomicNumber) -> CyclotomicNumber:
    result = one
    for coord, a in zip(point, m.exponents):
        if a:
            result = result * coord ** a
    return result


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
        (g, sum(1 for p in points if all(c == 0 or k == 0 for k, c in zip(ks, p))))
        for g, ks in group_exponents
    )


def _orbit_characters(group, counts, size: int) -> tuple[Character, ...]:
    """Character multiset of the functions on an orbit, from its fixed-point counts."""
    m = group.exponent
    chars = []
    for chi in group.characters():
        # |G| * multiplicity = sum_g fixed(g) chi(g)^-1, on integer coefficients of zeta_m^j
        coeffs = [0] * m
        for g, fixed in counts:
            if fixed:
                coeffs[-character_exponent(group, g, chi) % m] += fixed
        total = CyclotomicNumber.from_polynomial(coeffs, m)
        if not total.is_rational() or total.rational_value() % group.order:
            raise IntegrityError("orbit character multiplicity is not an integer")
        chars.extend([chi] * (total.rational_value() // group.order))
    if len(chars) != size:
        raise IntegrityError("orbit character multiplicities do not sum to the orbit size")
    return tuple(sorted(chars))


def _coerce_point(action: ActionData, point) -> tuple[int, tuple[CyclotomicNumber, ...]]:
    coords = list(point)
    if len(coords) != action.num_variables:
        raise ValueError(f"point must have {action.num_variables} coordinates")
    conductor = action.group.exponent
    for c in coords:
        if isinstance(c, CyclotomicNumber):
            conductor = math.lcm(conductor, c.conductor)
    return conductor, tuple(_to_conductor(c, conductor) for c in coords)


def orbit_cluster(action: ActionData, point) -> tuple[GCluster, FreenessReport]:
    """The orbit of a point as a cluster candidate, plus a freeness report.

    Each g is carried as the exponents k_i of zeta_conductor by which it
    scales the coordinates (the integer pairing of g with the weights); g
    fixes a point when each coordinate has c_i == 0 or k_i == 0.  Freeness
    is decided by orbit cardinality and, independently, by the trace
    criterion (no non-identity element fixes an orbit point); the two must
    agree and both are reported.  The quotient dimension is the orbit size:
    cyclotomic coefficients are canonical at one conductor, so the orbit
    points are pairwise distinct, and distinct points are interpolated by
    products of univariate separators, so their functions are independent.
    """
    group = action.group
    order = group.order
    conductor, base = _coerce_point(action, point)

    group_exponents = _group_exponents(action, conductor)
    seen = {}
    stabilizer = []
    for g, ks in group_exponents:
        image = tuple(CyclotomicNumber.root_of_unity(conductor, k) * c if k and c else c
                      for k, c in zip(ks, base))
        seen[tuple(c.coeffs for c in image)] = image
        if image == base:
            stabilizer.append(g)
    points = tuple(seen[k] for k in sorted(seen))
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
        stabilizer=tuple(stabilizer),
        fixed_point_counts=counts,
    )
    cluster = GCluster(
        kind="orbit",
        action=action,
        conductor=conductor,
        points=points,
        quotient_dim=size,
        characters=_orbit_characters(group, counts, size),
    )
    return cluster, report


def evaluation_kernel(action: ActionData, points_or_cluster, conductor: Optional[int] = None,
                      cap: Optional[int] = None):
    """Monomial list and kernel rows of the evaluation map at orbit points.

    The kernel is the linear span, inside the monomials of per-variable degree
    at most the cap, of the polynomials vanishing on the points.  The cap
    starts at |G|-1 and doubles until the evaluation rank stabilizes across a
    full step, certifying that the kernel cuts out exactly the point set.
    """
    if isinstance(points_or_cluster, GCluster):
        points = points_or_cluster.points
        conductor = points_or_cluster.conductor
    else:
        points = tuple(points_or_cluster)
        if conductor is None:
            conductor = math.lcm(
                action.group.exponent, *(c.conductor for p in points for c in p)
            )
    one = CyclotomicNumber.one(conductor)
    zero = CyclotomicNumber.zero(conductor)
    n = action.num_variables

    cap = cap if cap is not None else max(action.group.order - 1, 0)
    prev_rank = -1
    while True:
        monomials = [
            Monomial(exps)
            for exps in itertools.product(range(cap + 1), repeat=n)
        ]
        monomials.sort(key=lambda m: m.grlex_key)
        rows = [[_evaluate(m, p, one) for m in monomials] for p in points]
        kernel = kernel_basis_rows(rows, len(monomials), zero, one)
        rank = len(monomials) - len(kernel)
        if rank == len(points) or rank == prev_rank:
            return monomials, kernel
        prev_rank = rank
        cap = max(2 * cap, 1)


def tau_support(action: ActionData, cluster, coinv: Optional[CoinvariantAlgebra] = None) -> QuotientPoint:
    """The point of the quotient space supporting a verified cluster.

    Each invariant generator must reduce to a scalar modulo the cluster ideal
    (the trivial character appears once in the quotient, so its graded piece
    is the constants); anything else raises IntegrityError.  On an orbit,
    f(h.p) = chi(h) f(p) for f of weight chi, so a generator whose weight
    pairs to 0 with every h is constant there and is evaluated at one point.
    """
    gens = tuple(coinv.invariant_gens) if coinv is not None else tuple(invariant_generators(action))

    if isinstance(cluster, GCluster) and cluster.kind == "orbit":
        for g in gens:
            if not weight_of_monomial(cluster.action, g.exponents).is_trivial:
                raise IntegrityError(
                    f"invariant generator {g.to_text()} is not constant on the orbit"
                )
        one = CyclotomicNumber.one(cluster.conductor)
        values = [_evaluate(g, cluster.points[0], one) for g in gens]
    elif isinstance(cluster, GCluster) and cluster.kind == "subspace":
        # invariant generators already vanish in the coinvariant algebra
        values = [Fraction(0)] * len(gens)
    else:
        ideal = cluster.ideal if isinstance(cluster, GCluster) else cluster
        if not isinstance(ideal, MonomialIdeal):
            raise TypeError("tau_support expects a GCluster or a MonomialIdeal")
        values = []
        for g in gens:
            if not ideal.contains(g):
                raise IntegrityError(
                    f"invariant generator {g.to_text()} does not reduce to a scalar"
                )
            values.append(Fraction(0))

    # every relation mixes signs, so all-zero values satisfy it on both sides
    if any(values) and not satisfies_invariant_relations(gens, values):
        raise IntegrityError("tau values violate a relation among the invariant generators")
    return QuotientPoint(gens, tuple(values))
