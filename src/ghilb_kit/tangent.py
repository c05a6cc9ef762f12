"""Equivariant tangent data of G-clusters.

Two Hom spaces are computed exactly over the rationals:

* tangent_space: Hom^G_S(I, S/I) for a monomial ideal I with a finite
  staircase, as the weight-compatible generator assignments annihilating the
  pairwise lcm (Taylor) relations; multiplication into S/I is the staircase
  basis with zero extension through the ideal.
* relative_tangent_space: Hom^G_Sbar(Ibar, Sbar/Ibar) for an ideal subspace
  of the coinvariant algebra, as the weight-compatible images of a spanning
  set compatible with multiplication by every variable.

On top of these sit the stratification representation Ibar/(mbar Ibar) on the
minimal generators, the restriction-to-generators map from the relative
tangent space into the weight-preserving linear maps out of it, and the
per-action McKay table aggregating stratification characters over all
torus-fixed clusters.

The unknowns of either Hom space are slots, the weight-compatible pairs of a
source generator and a quotient basis element.  For monomial input every
equation equates two slots or kills one (multiplying by a monomial is
injective on monomials), so one union-find solves both Hom spaces without
elimination.  The relative data takes one of three routes:

* the CLI's numbers for a verified monomial cluster come from its staircase
  alone (_staircase_relative): Sbar/Ibar = S/I, so the relative tangent
  space is the part of tangent_space that vanishes on the invariant minimal
  generators, and the stratification characters are the weights of the
  others.  No coinvariant algebra is built;
* the library's results return unit rows over the coinvariant basis, so a
  monomial cluster or MonomialIdeal works on coinvariant basis indices
  (_MonomialRelative; stratification_rep reads the generators of Ibar off
  the minimal generators directly).  The three operations share one
  RelativeData (see relative_data);
* raw rows (and subspace clusters) take the dense path, which eliminates
  over the rationals (eq8_map's rank test included) and is the test oracle
  of the other two.  It is the only elimination in this module.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from ghilb_kit.cluster import (
    GCluster,
    IntegrityError,
    _closed_under_variables,
    _echelon,
    enumerate_torus_fixed_clusters,
)
from ghilb_kit.cyclotomic import CyclotomicNumber
from ghilb_kit.exact_linalg import kernel_basis_rows, reduce_vector, rref_rows
from ghilb_kit.group_rep import ActionData, Character, weight_of_monomial
from ghilb_kit.monomial_algebra import (
    CoinvariantAlgebra,
    Monomial,
    MonomialIdeal,
    coinvariant_algebra,
    colength,
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


def tangent_space(action: ActionData, cluster: Union[GCluster, MonomialIdeal]) -> EquivariantHomSpace:
    """Hom^G_S(I, S/I) for a monomial ideal with finite staircase.

    Unknowns are the weight-compatible values of the minimal generators in
    the staircase basis of S/I; the pairwise lcm relations cut out the Hom
    space, with products falling off the staircase mapping to zero through
    the ideal.  Returns the canonical kernel basis of kernel_basis_rows.
    A monomial cluster brings its staircase; a bare MonomialIdeal need not
    be a cluster, and any finite staircase is walked, whatever its size.
    """
    if isinstance(cluster, GCluster):
        if cluster.kind != "monomial":
            raise ValueError("tangent_space expects a monomial-ideal cluster")
        ideal = cluster.ideal
        staircase = list(cluster.staircase)
    else:
        ideal = cluster
        dim = colength(ideal)
        if dim is None:
            raise ValueError("quotient is not finite-dimensional")
        staircase = quotient_staircase(ideal, max(dim, 1))

    stair_index = {m: t for t, m in enumerate(staircase)}
    stair_weights = [weight_of_monomial(action, m.exponents) for m in staircase]
    gens = ideal.min_gens
    gen_weights = [weight_of_monomial(action, g.exponents) for g in gens]
    slots = _slots(gen_weights, stair_weights)
    slots_of_gen = _slots_by_row(slots, len(gens))

    # the relation (lcm/g_i)*e_i - (lcm/g_j)*e_j reaches each staircase
    # monomial from at most one slot of each side, so every target either
    # equates a slot of g_i with one of g_j or kills a single slot
    equations = []
    for relation in taylor_syzygies(ideal) if len(gens) > 1 else []:
        terms: dict[int, list[int]] = {}
        for k, (_, u) in relation.items():
            for t, s in slots_of_gen[k]:
                target = stair_index.get(u * staircase[t])
                if target is not None:
                    terms.setdefault(target, []).append(s)
        equations.extend(terms.values())

    kernel = _union_find_kernel(len(slots), equations)
    return EquivariantHomSpace(
        source_generators=tuple(gens),
        generator_weights=tuple(gen_weights),
        target_basis=tuple(staircase),
        target_weights=tuple(stair_weights),
        hom_basis=_hom_matrices(kernel, slots, len(gens), len(staircase)),
        dimension=len(kernel),
    )


def _staircase_relative(hom: EquivariantHomSpace) -> tuple[int, tuple[Character, ...], int]:
    """Relative tangent dimension, stratification characters and eq8 target
    dimension of a verified monomial cluster, from its tangent_space.

    A G-cluster's staircase avoids every invariant monomial but 1, so
    Sbar/Ibar = S/I, the invariant minimal generators vanish in Sbar and the
    others generate Ibar.  A homomorphism sends an invariant generator f to
    a multiple of 1, and it is a relative one exactly when that multiple is
    0 for every such f.  The Hom basis holds indicators of disjoint slot
    classes, so the relative classes that are nonzero on the other
    generators are independent: fewer of them than relative classes means
    the restriction to the minimal generators (eq8, injective on monomial
    input) lost rank, a fault raised as IntegrityError.  eq8's target counts
    the weight-compatible pairs of a non-invariant generator and a
    staircase monomial.
    """
    unit = next(c for c, m in enumerate(hom.target_basis) if m.is_one)
    invariant = [k for k, w in enumerate(hom.generator_weights) if w.is_trivial]
    moving = [k for k, w in enumerate(hom.generator_weights) if not w.is_trivial]
    relative = [M for M in hom.hom_basis if not any(M[f][unit] for f in invariant)]
    if sum(any(any(M[k]) for k in moving) for M in relative) < len(relative):
        raise IntegrityError("a relative tangent vector vanishes on the minimal generators")
    columns = Counter(hom.target_weights)
    target_dim = sum(columns[hom.generator_weights[k]] for k in moving)
    return len(relative), tuple(sorted(hom.generator_weights[k] for k in moving)), target_dim


def _slots(row_weights, col_weights) -> list[tuple[int, int]]:
    """The unknowns (row, col) of a Hom space: the weight-compatible pairs, row by row."""
    cols_of: dict[Character, list[int]] = {}
    for c, w in enumerate(col_weights):
        cols_of.setdefault(w, []).append(c)
    return [(j, c) for j, w in enumerate(row_weights) for c in cols_of.get(w, ())]


def _slots_by_row(slots: list[tuple[int, int]], nrows: int) -> list[list[tuple[int, int]]]:
    """For each row, its pairs (col, slot index) in slot order."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(nrows)]
    for s, (j, c) in enumerate(slots):
        out[j].append((c, s))
    return out


def _union_find_kernel(nslots: int, equations) -> list[list[Fraction]]:
    """Kernel of equations a[s] = a[s'] and a[s] = 0, given as lists of 1 or 2 slots.

    It is spanned by the indicators of the slot classes that the equalities
    join and no single-slot equation kills.  Listed by descending largest
    slot (a class's free column), these are the canonical kernel_basis_rows.
    """
    parent = list(range(nslots))
    killed = [False] * nslots

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for eq in equations:
        roots = [find(s) for s in eq]
        parent[roots[-1]] = roots[0]
        killed[roots[0]] = killed[roots[0]] or killed[roots[-1]] or len(eq) == 1

    classes: dict[int, list[int]] = {}
    for s in range(nslots):
        classes.setdefault(find(s), []).append(s)
    kernel = []
    for root, members in sorted(classes.items(), key=lambda kv: -kv[1][-1]):
        if not killed[root]:
            vec = [Q0] * nslots
            for s in members:
                vec[s] = Q1
            kernel.append(vec)
    return kernel


def _hom_matrices(kernel, slots: list[tuple[int, int]], nrows: int, ncols: int) -> tuple:
    """Each kernel vector over the slots as an nrows x ncols matrix."""
    out = []
    for vec in kernel:
        matrix = [[Q0] * ncols for _ in range(nrows)]
        for (j, c), value in zip(slots, vec):
            matrix[j][c] = value
        out.append(tuple(tuple(r) for r in matrix))
    return tuple(out)


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


class RelativeData:
    """One relative tangent computation, shared by the public operations.

    Build it with relative_data and pass it in place of the subspace to
    relative_tangent_space, stratification_rep and eq8_map; each part is
    computed on first use.  The spanning rows of the ideal subspace are
    indexed by j (row_weights), the quotient columns by c (qcols, qweights),
    and the unknowns of the Hom space are the weight-compatible slots (j, c).
    Subclasses provide row, generator_indices, kernel and restricted_rank.
    """

    coinv: CoinvariantAlgebra
    row_weights: list[Character]
    qcols: list[int]

    @cached_property
    def qweights(self) -> list[Character]:
        return [self.coinv.weights[q] for q in self.qcols]

    @cached_property
    def slots(self) -> list[tuple[int, int]]:
        return _slots(self.row_weights, self.qweights)

    @cached_property
    def slot_index(self) -> dict[tuple[int, int], int]:
        return {s: i for i, s in enumerate(self.slots)}


class _DenseRelative(RelativeData):
    """Relative data of a row span, by exact elimination over the rationals."""

    def __init__(self, coinv: CoinvariantAlgebra, subspace) -> None:
        self.coinv = coinv
        if isinstance(subspace, GCluster) and subspace.kind != "subspace":
            raise ValueError("orbit clusters have no subspace presentation in S-bar")
        rows = list(subspace.rows if isinstance(subspace, GCluster) else subspace)
        if any(isinstance(e, CyclotomicNumber) for row in rows for e in row):
            raise ValueError("tangent computations work over the rationals")
        self.rref, self.pivots = _echelon(coinv, rows)
        if not _closed_under_variables(coinv, self.rref, self.pivots):
            raise ValueError("subspace is not an ideal in the coinvariant algebra")
        try:
            self.row_weights = [coinv.vector_weight(r) for r in self.rref]
        except ValueError:
            raise ValueError("subspace is not weight-graded") from None
        pivot_set = set(self.pivots)
        self.qcols = [i for i in range(coinv.dim) if i not in pivot_set]

    def row(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.rref[j])

    @cached_property
    def generator_indices(self) -> list[int]:
        # the subspace is an ideal, so products by the variables span mbar*Ibar
        mrows = []
        for var in self.coinv.variables():
            for r in self.rref:
                prod = self.coinv.monomial_times_vector(var, r)
                if any(prod):
                    mrows.append(prod)
        work, work_pivots = rref_rows(mrows)
        work = [list(r) for r in work]
        work_pivots = list(work_pivots)
        return [j for j, row in enumerate(self.rref) if _echelon_insert(work, work_pivots, row)]

    @staticmethod
    def restricted_rank(matrix) -> int:
        """Rank of the kernel rows restricted to some slots, by elimination."""
        return len(rref_rows([list(r) for r in matrix])[0])

    @cached_property
    def kernel(self) -> list[list[Fraction]]:
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
                    raise IntegrityError("ideal closure failed during constraint assembly")
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
        return kernel_basis_rows(equations, len(self.slots))


class _MonomialRelative(RelativeData):
    """Relative data of a monomial ideal, on coinvariant basis indices.

    The image of the ideal in S-bar is spanned by the basis monomials it
    contains (the pivots), so every step is a lookup in the variable-step
    tables: no coefficient row of the coinvariant dimension is formed
    except the unit rows the public results return.
    """

    def __init__(self, coinv: CoinvariantAlgebra, ideal: MonomialIdeal) -> None:
        self.coinv = coinv
        self.ideal = ideal
        up, down = coinv.variable_steps()
        gens = {g.exponents for g in ideal.min_gens}
        # graded-lex order lists every divisor m/x_v before m
        inside = [False] * coinv.dim
        for i, m in enumerate(coinv.basis):
            inside[i] = m.exponents in gens or any(d is not None and inside[d] for d in down[i])
        self.pivots = [i for i in range(coinv.dim) if inside[i]]
        self.qcols = [i for i in range(coinv.dim) if not inside[i]]
        # ideal closure: x_v * b_p is zero or again a pivot
        if any(k is not None and not inside[k] for p in self.pivots for k in up[p]):
            raise IntegrityError("ideal closure failed on basis indices")
        self.row_weights = [coinv.weights[p] for p in self.pivots]

    def row(self, j: int) -> tuple[Fraction, ...]:
        return _unit_row(self.coinv.dim, self.pivots[j])

    @cached_property
    def generator_indices(self) -> list[int]:
        """The rows of the generators of Ibar (see _generator_pivots)."""
        return [bisect.bisect_left(self.pivots, p) for p in _generator_pivots(self.coinv, self.ideal)]

    @cached_property
    def kernel(self) -> list[list[Fraction]]:
        """The Hom space, from equations a[l, c2] = a[j, c] and a[s] = 0.

        For a variable x_v and a pivot b_p (row j), compatibility reads, at
        each quotient column c2: a[l, c2] - a[j, c] = 0, where b_l = x_v*b_p
        (no term when that product is zero) and b_q(c2) = x_v*b_q(c) (no term
        when the product is zero or lies in the ideal).  So every equation
        equates two slots or kills one, and the union-find solves them.
        """
        up = self.coinv.variable_steps()[0]
        row_of = {p: j for j, p in enumerate(self.pivots)}
        qpos = {q: c for c, q in enumerate(self.qcols)}
        slots_of_row = _slots_by_row(self.slots, len(self.pivots))
        equations = []
        for v in range(self.coinv.action.num_variables):
            for j, p in enumerate(self.pivots):
                terms: dict[int, list[int]] = {}
                l = up[p][v]
                if l is not None:
                    for c2, s in slots_of_row[row_of[l]]:
                        terms.setdefault(c2, []).append(s)
                for c, s in slots_of_row[j]:
                    c2 = qpos.get(up[self.qcols[c]][v])
                    if c2 is not None:
                        terms.setdefault(c2, []).append(s)
                equations.extend(terms.values())
        return _union_find_kernel(len(self.slots), equations)

    @staticmethod
    def restricted_rank(matrix) -> int:
        """Rank of the kernel rows restricted to some slots.

        The kernel rows are indicators of disjoint slot classes, so their
        restrictions have disjoint supports and the nonzero ones are independent.
        """
        return sum(any(r) for r in matrix)


def _unit_row(dim: int, i: int) -> tuple[Fraction, ...]:
    row = [Q0] * dim
    row[i] = Q1
    return tuple(row)


def _generator_pivots(coinv: CoinvariantAlgebra, ideal: MonomialIdeal) -> list[int]:
    """Basis indices of the Sbar-module generators of Ibar, ascending.

    Ibar is spanned by the basis monomials in the ideal, and the basis is
    closed under division, so such a monomial generates Ibar exactly when no
    quotient m/x_v lies in the ideal: when it is a minimal generator.  The
    minimal generators off the basis are multiples of invariant generators,
    zero in Sbar.  min_gens is in graded-lex order, as the basis is.
    """
    pivots = []
    for g in ideal.min_gens:
        try:
            pivots.append(coinv.index_of(g))
        except ValueError:
            pass
    return pivots


def relative_data(coinv: CoinvariantAlgebra, subspace) -> RelativeData:
    """The shared relative tangent computation for an ideal subspace of S-bar.

    A monomial GCluster or a MonomialIdeal takes the index path; rows (or a
    subspace GCluster) take the dense path.  A RelativeData built for the
    same coinvariant algebra is returned as it is.
    """
    if isinstance(subspace, RelativeData):
        if subspace.coinv is not coinv:
            raise ValueError("relative data was built for another coinvariant algebra")
        return subspace
    if isinstance(subspace, GCluster) and subspace.kind == "monomial":
        return _MonomialRelative(coinv, subspace.ideal)
    if isinstance(subspace, MonomialIdeal):
        return _MonomialRelative(coinv, subspace)
    return _DenseRelative(coinv, subspace)


def relative_tangent_space(coinv: CoinvariantAlgebra, subspace) -> EquivariantHomSpace:
    """Hom^G_Sbar(Ibar, Sbar/Ibar) for an ideal subspace of the coinvariant algebra.

    Unknowns are the weight-compatible images of the echelon spanning rows;
    the constraints force compatibility with multiplication by each variable,
    which pins down a module homomorphism (the variables generate the
    algebra, and a homomorphism is determined on a spanning set).  The
    subspace is anything relative_data accepts.
    """
    data = relative_data(coinv, subspace)
    return EquivariantHomSpace(
        source_generators=tuple(data.row(j) for j in range(len(data.row_weights))),
        generator_weights=tuple(data.row_weights),
        target_basis=tuple(coinv.basis[q] for q in data.qcols),
        target_weights=tuple(data.qweights),
        hom_basis=_hom_matrices(data.kernel, data.slots, len(data.row_weights), len(data.qcols)),
        dimension=len(data.kernel),
    )


def stratification_rep(coinv: CoinvariantAlgebra, subspace) -> StratRep:
    """Basis and characters of Ibar/(mbar Ibar) on the minimal generators.

    The minimal generators are the echelon spanning rows that survive modulo
    mbar*Ibar, the span of the products (variable) * (row); their count is
    the number of minimal generators of Ibar as a module.  A monomial
    cluster or MonomialIdeal reads them off its minimal generators
    (_generator_pivots) without building RelativeData.
    """
    if isinstance(subspace, GCluster) and subspace.kind == "monomial":
        subspace = subspace.ideal
    if isinstance(subspace, MonomialIdeal):
        pivots = _generator_pivots(coinv, subspace)
        return StratRep(generators=tuple(_unit_row(coinv.dim, p) for p in pivots),
                        characters=tuple(sorted(coinv.weights[p] for p in pivots)))
    data = relative_data(coinv, subspace)
    gens = tuple(data.row(j) for j in data.generator_indices)
    chars = tuple(sorted(data.row_weights[j] for j in data.generator_indices))
    return StratRep(generators=gens, characters=chars)


def eq8_map(coinv: CoinvariantAlgebra, subspace) -> Eq8Report:
    """Restriction of relative tangent homomorphisms to the minimal generators.

    The target is the space of weight-preserving linear maps from
    Ibar/(mbar Ibar) to Sbar/Ibar, of dimension sum over characters of
    (multiplicity in the generators) * (multiplicity in the quotient).
    Reports whether the restriction is injective and an isomorphism.  On a
    monomial ideal it is always injective (graded Nakayama), so there a
    lower rank raises IntegrityError instead of answering False.
    """
    data = relative_data(coinv, subspace)
    # one slot per weight-compatible (generator, quotient column) pair, so
    # the generator rows' slots count the target dimension
    gen_rows = set(data.generator_indices)
    target = [s for s, (j, _) in enumerate(data.slots) if j in gen_rows]
    matrix = tuple(tuple(vec[s] for s in target) for vec in data.kernel)
    source_dim = len(data.kernel)
    rank = data.restricted_rank(matrix)
    if rank < source_dim and isinstance(data, _MonomialRelative):
        raise IntegrityError("a relative tangent vector vanishes on the minimal generators")
    injective = rank == source_dim
    return Eq8Report(
        matrix=matrix,
        source_dim=source_dim,
        target_dim=len(target),
        injective=injective,
        isomorphism=injective and source_dim == len(target),
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
        strat = stratification_rep(coinv, cluster)
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
