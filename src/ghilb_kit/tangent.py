"""Equivariant tangent data of G-clusters.

Two Hom spaces are computed exactly over the rationals:

* tangent_space: Hom^G_S(I, S/I) for a monomial cluster ideal I, as the
  weight-compatible generator assignments annihilating the pairwise lcm
  (Taylor) relations; multiplication into S/I is the staircase basis with
  zero extension through the ideal.
* relative_tangent_space: Hom^G_Sbar(Ibar, Sbar/Ibar) for an ideal subspace
  of the coinvariant algebra, as the weight-compatible images of a spanning
  set compatible with multiplication by every variable.

On top of these sit the stratification representation Ibar/(mbar Ibar) on the
minimal generators, the restriction-to-generators map from the relative
tangent space into the weight-preserving linear maps out of it, and the
per-action McKay table aggregating stratification characters over all
torus-fixed clusters.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from ghilb_kit.cluster import (
    GCluster,
    enumerate_torus_fixed_clusters,
    is_ideal_subspace,
    subspace_rows_of_monomial_cluster,
)
from ghilb_kit.cyclotomic import CyclotomicNumber
from ghilb_kit.exact_linalg import kernel_basis_rows, reduce_vector, rref_rows
from ghilb_kit.group_rep import ActionData, Character, weight_of_monomial
from ghilb_kit.monomial_algebra import (
    CoinvariantAlgebra,
    Monomial,
    MonomialIdeal,
    coinvariant_algebra,
    quotient_staircase,
    taylor_syzygies,
)

Q0 = Fraction(0)
Q1 = Fraction(1)


@dataclass(frozen=True)
class EquivariantHomSpace:
    """A basis of equivariant module homomorphisms, as exact matrices.

    Each hom_basis element is a matrix sending source generator k to the
    target vector in row k (coordinates over target_basis).  Every basis
    element preserves weight and annihilates the source relations.
    """

    source_generators: tuple
    generator_weights: tuple[Character, ...]
    target_basis: tuple[Monomial, ...]
    target_weights: tuple[Character, ...]
    hom_basis: tuple[tuple[tuple[Fraction, ...], ...], ...]
    dimension: int


@dataclass(frozen=True)
class StratRep:
    """The representation of the minimal generators of a cluster ideal."""

    generators: tuple[tuple[Fraction, ...], ...]
    characters: tuple[Character, ...]

    @property
    def dimension(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class Eq8Report:
    """Restriction of the relative tangent space to the minimal generators."""

    matrix: tuple[tuple[Fraction, ...], ...]
    source_dim: int
    target_dim: int
    injective: bool
    isomorphism: bool


@dataclass(frozen=True)
class McKayTable:
    """Stratification characters of every torus-fixed cluster of an action."""

    action: ActionData
    clusters: tuple[GCluster, ...]
    strat_characters: tuple[tuple[Character, ...], ...]
    incidence: tuple[tuple[Character, tuple[int, ...]], ...]
    all_nontrivial_covered: bool
    missing: tuple[Character, ...]


def tangent_space(action: ActionData, cluster: Union[GCluster, MonomialIdeal],
                  cap: Optional[int] = None) -> EquivariantHomSpace:
    """Hom^G_S(I, S/I) for a monomial ideal with finite staircase.

    Unknowns are the weight-compatible values of the minimal generators in
    the staircase basis of S/I; the pairwise lcm relations cut out the Hom
    space, with products falling off the staircase mapping to zero through
    the ideal.  Returns the canonical kernel basis.
    """
    if isinstance(cluster, GCluster):
        if cluster.kind != "monomial":
            raise ValueError("tangent_space expects a monomial-ideal cluster")
        ideal = cluster.ideal
        staircase = list(cluster.staircase)
    else:
        ideal = cluster
        found = quotient_staircase(ideal, cap if cap is not None else 4 * action.group.order)
        if found is None:
            raise ValueError("quotient is not finite-dimensional")
        staircase = found

    stair_index = {m: t for t, m in enumerate(staircase)}
    stair_weights = [weight_of_monomial(action, m.exponents) for m in staircase]
    gens = ideal.min_gens
    gen_weights = [weight_of_monomial(action, g.exponents) for g in gens]

    slots = [
        (k, t)
        for k in range(len(gens))
        for t in range(len(staircase))
        if gen_weights[k] == stair_weights[t]
    ]
    slot_index = {s: i for i, s in enumerate(slots)}
    slots_by_gen: dict[int, list[int]] = {}
    for i, (k, _) in enumerate(slots):
        slots_by_gen.setdefault(k, []).append(i)

    equations = []
    for relation in taylor_syzygies(ideal) if len(gens) > 1 else []:
        acc: dict[int, dict[int, Fraction]] = {}
        for k, (sign, u) in relation.items():
            for si in slots_by_gen.get(k, []):
                _, t = slots[si]
                target = stair_index.get(u * staircase[t])
                if target is not None:
                    acc.setdefault(target, {})[si] = acc.get(target, {}).get(si, Q0) + sign
        for terms in acc.values():
            row = [Q0] * len(slots)
            for si, coeff in terms.items():
                row[si] = coeff
            if any(row):
                equations.append(row)

    kernel = kernel_basis_rows(equations, len(slots))
    hom_basis = []
    for vec in kernel:
        matrix = [[Q0] * len(staircase) for _ in gens]
        for si, value in enumerate(vec):
            if value:
                k, t = slots[si]
                matrix[k][t] = value
        hom_basis.append(tuple(tuple(r) for r in matrix))

    return EquivariantHomSpace(
        source_generators=tuple(gens),
        generator_weights=tuple(gen_weights),
        target_basis=tuple(staircase),
        target_weights=tuple(stair_weights),
        hom_basis=tuple(hom_basis),
        dimension=len(kernel),
    )


def _subspace_rows(coinv: CoinvariantAlgebra, subspace) -> list[list[Fraction]]:
    if isinstance(subspace, GCluster):
        if subspace.kind == "monomial":
            rows = subspace_rows_of_monomial_cluster(coinv, subspace)
        elif subspace.kind == "subspace":
            rows = subspace.rows
        else:
            raise ValueError("orbit clusters have no subspace presentation in S-bar")
    elif isinstance(subspace, MonomialIdeal):
        rows = subspace_rows_of_monomial_cluster(coinv, subspace)
    else:
        rows = subspace
    out = []
    for row in rows:
        if len(row) != coinv.dim:
            raise ValueError(f"subspace rows must have {coinv.dim} columns")
        if any(isinstance(e, CyclotomicNumber) for e in row):
            raise ValueError("tangent computations work over the rationals")
        out.append([Fraction(e) for e in row])
    return out


def _echelon_insert(rows: list, pivots: list, vec: list) -> bool:
    """Insert vec into an ascending-pivot echelon list; False if dependent."""
    res = reduce_vector(rows, pivots, vec)
    lead = next((i for i, e in enumerate(res) if e), None)
    if lead is None:
        return False
    inv = Q1 / res[lead]
    res = [e * inv for e in res]
    at = bisect.bisect_left(pivots, lead)
    rows.insert(at, res)
    pivots.insert(at, lead)
    return True


class _RelativeData:
    """Shared computation behind the relative tangent operations."""

    def __init__(self, coinv: CoinvariantAlgebra, subspace, need_hom: bool) -> None:
        self.coinv = coinv
        rows = _subspace_rows(coinv, subspace)
        self.rref, self.pivots = rref_rows(rows)
        if not is_ideal_subspace(coinv, self.rref):
            raise ValueError("subspace is not an ideal in the coinvariant algebra")
        try:
            self.row_weights = [coinv.vector_weight(r) for r in self.rref]
        except ValueError:
            raise ValueError("subspace is not weight-graded") from None

        pivot_set = set(self.pivots)
        self.qcols = [i for i in range(coinv.dim) if i not in pivot_set]
        self.qweights = [coinv.weights[q] for q in self.qcols]

        self.slots = [
            (j, c)
            for j in range(len(self.rref))
            for c in range(len(self.qcols))
            if self.row_weights[j] == self.qweights[c]
        ]
        self.slot_index = {s: i for i, s in enumerate(self.slots)}

        self._find_minimal_generators()
        if need_hom:
            self._solve()

    def _find_minimal_generators(self) -> None:
        coinv = self.coinv
        mrows: list[list[Fraction]] = []
        for b in coinv.basis:
            if b.is_one:
                continue
            for r in self.rref:
                prod = coinv.monomial_times_vector(b, r)
                if any(prod):
                    mrows.append(prod)
        work, work_pivots = rref_rows(mrows)
        work = [list(r) for r in work]
        work_pivots = list(work_pivots)
        self.generator_indices = []
        for j, row in enumerate(self.rref):
            if _echelon_insert(work, work_pivots, row):
                self.generator_indices.append(j)

    def _solve(self) -> None:
        coinv = self.coinv
        nq = len(self.qcols)
        equations: list[list[Fraction]] = []
        for var in coinv.variables():
            # residues of var*b_q modulo the subspace, in quotient coordinates
            rho = []
            for q in self.qcols:
                vec = [Q0] * coinv.dim
                vec[q] = Q1
                image = coinv.monomial_times_vector(var, vec)
                red = reduce_vector(self.rref, self.pivots, image)
                rho.append([red[q2] for q2 in self.qcols])
            for j, row in enumerate(self.rref):
                image = coinv.monomial_times_vector(var, row)
                # rref is fully reduced, so pivot coordinates read off the
                # coefficients of the expansion over the rows directly
                lam = [image[p] for p in self.pivots]
                residual = reduce_vector(self.rref, self.pivots, image)
                if any(residual):
                    raise AssertionError("ideal closure failed during constraint assembly")
                for c2 in range(nq):
                    eq: dict[int, Fraction] = {}
                    for l, coeff in enumerate(lam):
                        if coeff:
                            s = self.slot_index.get((l, c2))
                            if s is not None:
                                eq[s] = eq.get(s, Q0) + coeff
                    for c in range(nq):
                        s = self.slot_index.get((j, c))
                        if s is not None and rho[c][c2]:
                            eq[s] = eq.get(s, Q0) - rho[c][c2]
                    if eq:
                        row_vec = [Q0] * len(self.slots)
                        for s, coeff in eq.items():
                            row_vec[s] = coeff
                        if any(row_vec):
                            equations.append(row_vec)
        self.kernel = kernel_basis_rows(equations, len(self.slots))

    def hom_matrices(self) -> list[tuple[tuple[Fraction, ...], ...]]:
        out = []
        for vec in self.kernel:
            matrix = [[Q0] * len(self.qcols) for _ in self.rref]
            for si, value in enumerate(vec):
                if value:
                    j, c = self.slots[si]
                    matrix[j][c] = value
            out.append(tuple(tuple(r) for r in matrix))
        return out


def relative_tangent_space(coinv: CoinvariantAlgebra, subspace) -> EquivariantHomSpace:
    """Hom^G_Sbar(Ibar, Sbar/Ibar) for an ideal subspace of the coinvariant algebra.

    Unknowns are the weight-compatible images of the echelon spanning rows;
    the constraints force compatibility with multiplication by each variable,
    which pins down a module homomorphism (the variables generate the
    algebra, and a homomorphism is determined on a spanning set).
    """
    data = _RelativeData(coinv, subspace, need_hom=True)
    return EquivariantHomSpace(
        source_generators=tuple(tuple(r) for r in data.rref),
        generator_weights=tuple(data.row_weights),
        target_basis=tuple(coinv.basis[q] for q in data.qcols),
        target_weights=tuple(data.qweights),
        hom_basis=tuple(data.hom_matrices()),
        dimension=len(data.kernel),
    )


def stratification_rep(coinv: CoinvariantAlgebra, subspace) -> StratRep:
    """Basis and characters of Ibar/(mbar Ibar) on the minimal generators.

    The minimal generators are the echelon spanning rows that survive modulo
    the span of all products (positive-degree basis monomial) * (row); their
    count is the number of minimal generators of Ibar as a module.
    """
    data = _RelativeData(coinv, subspace, need_hom=False)
    gens = tuple(tuple(data.rref[j]) for j in data.generator_indices)
    chars = tuple(sorted(data.row_weights[j] for j in data.generator_indices))
    return StratRep(generators=gens, characters=chars)


def eq8_map(coinv: CoinvariantAlgebra, subspace) -> Eq8Report:
    """Restriction of relative tangent homomorphisms to the minimal generators.

    The target is the space of weight-preserving linear maps from
    Ibar/(mbar Ibar) to Sbar/Ibar, of dimension sum over characters of
    (multiplicity in the generators) * (multiplicity in the quotient).
    Reports whether the restriction is injective and an isomorphism.
    """
    data = _RelativeData(coinv, subspace, need_hom=True)
    gen_weights = [data.row_weights[j] for j in data.generator_indices]
    strat_mult = Counter(gen_weights)
    quot_mult = Counter(data.qweights)
    target_dim = sum(strat_mult[chi] * quot_mult[chi] for chi in strat_mult)

    target_slots = [
        (j, c)
        for j in data.generator_indices
        for c in range(len(data.qcols))
        if data.row_weights[j] == data.qweights[c]
    ]
    matrix = tuple(
        tuple(vec[data.slot_index[(j, c)]] for (j, c) in target_slots)
        for vec in data.kernel
    )
    source_dim = len(data.kernel)
    rank = len(rref_rows([list(r) for r in matrix])[0])
    injective = rank == source_dim
    return Eq8Report(
        matrix=matrix,
        source_dim=source_dim,
        target_dim=target_dim,
        injective=injective,
        isomorphism=injective and source_dim == target_dim,
    )


def mckay_table(action: ActionData) -> McKayTable:
    """Stratification characters of all torus-fixed clusters, aggregated.

    Reports, for every character, the clusters at whose stratification
    representation it appears, and whether every nontrivial character of the
    group is covered at least once.
    """
    coinv = coinvariant_algebra(action)
    clusters = tuple(enumerate_torus_fixed_clusters(action, coinv))
    per_cluster = []
    appearances: dict[Character, set[int]] = {}
    for idx, cluster in enumerate(clusters):
        strat = stratification_rep(coinv, subspace_rows_of_monomial_cluster(coinv, cluster))
        per_cluster.append(strat.characters)
        for chi in set(strat.characters):
            appearances.setdefault(chi, set()).add(idx)

    incidence = tuple(
        (chi, tuple(sorted(appearances[chi]))) for chi in sorted(appearances)
    )
    nontrivial = [c for c in action.group.characters() if not c.is_trivial]
    missing = tuple(sorted(c for c in nontrivial if c not in appearances))
    return McKayTable(
        action=action,
        clusters=clusters,
        strat_characters=tuple(per_cluster),
        incidence=incidence,
        all_nontrivial_covered=not missing,
        missing=missing,
    )
