"""Equivariant tangent data of G-clusters.

Two Hom spaces are computed exactly over the rationals:

* tangent_space: Hom^G_S(I, S/I) for a monomial ideal I with a finite
  staircase, as the weight-compatible generator assignments annihilating the
  pairwise lcm (Taylor) relations; multiplication into S/I is the staircase
  basis with zero extension through the ideal.
* relative_tangent_space: Hom^G_Sbar(Ibar, Sbar/Ibar) for an ideal subspace
  of the coinvariant algebra, by one of the two routes below.

On top of these sit the stratification representation Ibar/(mbar Ibar) on the
minimal generators, the restriction-to-generators map from the relative
tangent space into the weight-preserving linear maps out of it, and the
per-action McKay table aggregating stratification characters over all
torus-fixed clusters.

The unknowns of a Hom space are slots, the weight-compatible pairs of a
source generator and a quotient basis element.  For monomial input every
Taylor relation equates two slots or kills one (multiplying by a monomial
is injective on monomials), so a union-find partitions the slots into
classes whose indicators span the Hom space, without elimination
(_slot_classes); only tangent_space turns them into matrices.  The
relative data takes one of two routes:

* the staircase route, for a monomial ideal I: with J the ideal of the
  positive-degree invariant monomials, Sbar/Ibar = S/(I + J), so the
  relative tangent space is spanned by the slot classes of I + J that hold
  no slot at the unit column (_relative_classes).  The CLI counts them on
  a verified cluster's own staircase, where I + J = I
  (_staircase_relative); the library lifts the same classes to unit rows
  over the coinvariant basis (_StaircaseRelative);
* the dense route, for rows (a subspace cluster's too), which eliminates
  over the rationals (eq8_map's rank test included) and is the test oracle
  of the other, so it uses none of its solver; one product table of the rows
  by the variables feeds its ideal test, generators and Hom equations
  (_DenseRelative).  It is the only elimination in this module.
"""

from __future__ import annotations

import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from ghilb_kit.cluster import (
    GCluster,
    IntegrityError,
    _admit,
    _closed_under_variables,
    _echelon,
    _variable_images,
    enumerate_torus_fixed_clusters,
)
from ghilb_kit.cyclotomic import CyclotomicNumber
from ghilb_kit.exact_linalg import kernel_basis_rows, rref_rows
from ghilb_kit.group_rep import ActionData, Character, DomainError, character_index, weight_indexer
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
    Slots pair weights as character indices.  Other input, or input of
    another action, raises ValueError (see cluster._admit).
    """
    kind, ideal = _admit(action, cluster, ("ideal", "monomial"))
    if kind == "monomial":
        staircase = cluster.staircase
    else:
        dim = colength(ideal)
        if dim is None:
            raise DomainError("quotient is not finite-dimensional")
        staircase = quotient_staircase(ideal, max(dim, 1))
    gen_weights, stair_weights, slots, classes = _slot_classes(action, ideal, staircase)
    character = action.group.indexed_characters.__getitem__
    return EquivariantHomSpace(
        source_generators=tuple(ideal.min_gens),
        generator_weights=tuple(map(character, gen_weights)),
        target_basis=tuple(staircase),
        target_weights=tuple(map(character, stair_weights)),
        hom_basis=_hom_matrices(_indicator_basis(len(slots), classes), slots, len(gen_weights),
                                len(staircase)),
        dimension=len(classes),
    )


def _slot_classes(action: ActionData, ideal: MonomialIdeal, staircase) -> tuple:
    """The monomial Hom solver: the weight indices of the minimal generators
    and of the staircase, the slots (k, t) and the slot classes, disjoint sets
    of slots whose indicators are a basis of Hom^G_S(I, S/I).

    The relation (lcm/g_i)*e_i - (lcm/g_j)*e_j reaches each staircase
    monomial from at most one slot of each side, so every target either
    equates a slot of g_i with one of g_j or kills a single slot; the classes
    are those of the equated slots that nothing kills.
    """
    stair_exps = [m.exponents for m in staircase]
    stair_index = {e: t for t, e in enumerate(stair_exps)}
    weight_index = weight_indexer(action)
    stair_weights = [weight_index(e) for e in stair_exps]
    gen_weights = [weight_index(g.exponents) for g in ideal.min_gens]
    slots = _slots(gen_weights, stair_weights)
    slots_of_gen: list[list[tuple[int, int]]] = [[] for _ in gen_weights]
    for s, (k, t) in enumerate(slots):
        slots_of_gen[k].append((t, s))
    parent = list(range(len(slots)))
    killed = [False] * len(slots)

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for relation in taylor_syzygies(ideal) if len(gen_weights) > 1 else []:
        terms: dict[int, list[int]] = {}
        for k, (_, u) in relation.items():
            for t, s in slots_of_gen[k]:
                target = stair_index.get(tuple(map(operator.add, u.exponents, stair_exps[t])))
                if target is not None:
                    terms.setdefault(target, []).append(s)
        for eq in terms.values():
            roots = [find(s) for s in eq]
            parent[roots[-1]] = roots[0]
            killed[roots[0]] = killed[roots[0]] or killed[roots[-1]] or len(eq) == 1

    classes: dict[int, list[int]] = {}
    for s in range(len(slots)):
        classes.setdefault(find(s), []).append(s)
    return gen_weights, stair_weights, slots, [m for root, m in classes.items() if not killed[root]]


def _relative_classes(staircase, gen_weights, slots, classes) -> list:
    """The relative slot classes of K, a monomial ideal holding J (_slot_classes).

    K's staircase avoids every invariant monomial but 1, so a homomorphism
    sends an invariant minimal generator f to a multiple of 1, and any other
    invariant monomial u*g (g a generator, u not 1) to u*phi(g), which has no
    1-term; it is a relative one exactly when every such multiple is 0: the
    relative classes hold no slot at the unit column.  Each holds a slot of a
    non-invariant generator, or eq8 (injective on monomial input) lost rank,
    a fault.
    """
    unit = next((t for t, m in enumerate(staircase) if m.is_one), None)
    relative = [members for members in classes if all(slots[s][1] != unit for s in members)]
    if not all(any(gen_weights[slots[s][0]] for s in members) for members in relative):
        raise IntegrityError("a relative tangent vector vanishes on the minimal generators")
    return relative


def _staircase_relative(action: ActionData, ideal: MonomialIdeal, staircase) -> tuple:
    """Tangent dimension, relative tangent dimension, stratification character
    indices and eq8 target dimension of a verified monomial cluster.

    A G-cluster's ideal holds J, so Sbar/Ibar = S/I; the non-invariant
    minimal generators generate Ibar, and eq8's target counts their
    weight-compatible pairs with a staircase monomial: one each, since the
    staircase carries every character once.
    """
    gen_weights, _, slots, classes = _slot_classes(action, ideal, staircase)
    relative = _relative_classes(staircase, gen_weights, slots, classes)
    moving = sorted(w for w in gen_weights if w)  # weight index 0 is the trivial character
    return len(classes), len(relative), moving, len(moving)


def _slots(row_weights, col_weights) -> list[tuple[int, int]]:
    """The unknowns (row, col) of a Hom space: the weight-compatible pairs, row by row."""
    cols_of: dict = {}
    for c, w in enumerate(col_weights):
        cols_of.setdefault(w, []).append(c)
    return [(j, c) for j, w in enumerate(row_weights) for c in cols_of.get(w, ())]


def _indicator_basis(nslots: int, classes) -> list[list[Fraction]]:
    """Indicators of disjoint slot classes by descending largest slot (a class's
    free column): the canonical kernel_basis_rows basis of their span."""
    kernel = []
    for members in sorted(classes, key=max, reverse=True):
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


class RelativeData:
    """One relative tangent computation, shared by the public operations.

    Build it with relative_data and pass it in place of the subspace to
    relative_tangent_space, stratification_rep and eq8_map; the dense route
    computes each part on first use.  The spanning rows of the ideal
    subspace are indexed by j (row_weights), the quotient columns by c
    (qcols, qweights), and the unknowns of the Hom space are the
    weight-compatible slots (j, c).
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
    """Relative data of a row span, by exact elimination over the rationals.

    The product table images[v][j] = x_v * row_j is formed once, here, for the
    ideal test, the generators and the Hom equations; the kernel reads the
    residues of the products x_v * b_q off the echelon form.
    """

    def __init__(self, coinv: CoinvariantAlgebra, rows: list) -> None:
        self.coinv = coinv
        if any(isinstance(e, CyclotomicNumber) for row in rows for e in row):
            raise ValueError("tangent computations work over the rationals")
        self.rref, self.pivots = _echelon(coinv, rows)
        self.images = _variable_images(coinv, self.rref)
        if not _closed_under_variables(self.rref, self.pivots, self.images):
            raise DomainError("subspace is not an ideal in the coinvariant algebra")
        try:
            self.row_weights = [coinv.vector_weight(r) for r in self.rref]
        except ValueError:
            raise DomainError("subspace is not weight-graded") from None
        pivot_set = set(self.pivots)
        self.qcols = [i for i in range(coinv.dim) if i not in pivot_set]

    def row(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.rref[j])

    @cached_property
    def generator_indices(self) -> list[int]:
        # the table spans mbar*Ibar, with coordinates lam_l = image[p_l] over the
        # rows; row j is a generator exactly when no vector of that span has its
        # last nonzero coordinate at j: when j is no pivot of the coordinates
        # taken in reverse order
        ends = set(rref_rows([[image[p] for p in reversed(self.pivots)]
                              for by_var in self.images for image in by_var])[1])
        last = len(self.pivots) - 1
        return [j for j in range(len(self.pivots)) if last - j not in ends]

    @staticmethod
    def restricted_rank(matrix) -> int:
        """Rank of the kernel rows restricted to some slots, by elimination."""
        return len(rref_rows([list(r) for r in matrix])[0])

    @cached_property
    def kernel(self) -> list[list[Fraction]]:
        basis, qcols = self.coinv.basis, self.qcols
        # the residue of each basis monomial modulo the span, in quotient
        # coordinates: b_q itself at a quotient column, -rref[i] at the pivot p_i
        residue = {basis[q]: [(c, Q1)] for c, q in enumerate(qcols)}
        residue.update((basis[p], [(c, -row[q]) for c, q in enumerate(qcols) if row[q]])
                       for p, row in zip(self.pivots, self.rref))
        slots_of_row: list[list[tuple[int, int]]] = [[] for _ in self.rref]
        for s, (j, c) in enumerate(self.slots):
            slots_of_row[j].append((c, s))

        equations: list[list[Fraction]] = []
        for var, by_row in zip(self.coinv.variables(), self.images):
            # var*b_q is a basis monomial or zero in S-bar
            rho = [residue.get(var * basis[q], ()) for q in qcols]
            for j, image in enumerate(by_row):
                # rref is fully reduced, so the image lies in the span exactly when
                # it is sum_l lam_l*row_l, lam_l its entry at the pivot p_l
                lam = [(l, image[p]) for l, p in enumerate(self.pivots) if image[p]]
                if any(image[q] != sum(x * self.rref[l][q] for l, x in lam) for q in qcols):
                    raise IntegrityError("ideal closure failed during constraint assembly")
                # phi(var*row_j) = sum_l lam_l*phi(row_l) is var*phi(row_j) modulo
                # the span, one equation per quotient column
                eqs: defaultdict[int, Counter] = defaultdict(Counter)
                for l, x in lam:
                    for c2, s in slots_of_row[l]:
                        eqs[c2][s] += x
                for c, s in slots_of_row[j]:
                    for c2, value in rho[c]:
                        eqs[c2][s] -= value
                equations += [[eq.get(s, Q0) for s in range(len(self.slots))]
                              for eq in eqs.values() if any(eq.values())]
        return kernel_basis_rows(equations, len(self.slots))


class _StaircaseRelative(RelativeData):
    """Relative data of a monomial ideal K = I + J, lifted from its slot classes.

    The quotient columns are the staircase of K, and the pivots (the basis
    monomials in K) the other basis indices.  A relative class fixes phi on
    the pivots in ascending order: a generator of Ibar keeps its slots of
    the class, and each pivot p pushes phi(x_v*p) = x_v*phi(p) up the
    product table to every pivot x_v*p not yet filled, moving the entry at
    each column q to the column of x_v*q, or dropping it when x_v*q lies in
    K.  A generator is no multiple of a pivot, and any other pivot has a
    pivot divisor, which comes first; so every pivot is filled before the
    walk reaches it, and phi is a homomorphism, so the divisor that fills it
    does not matter.  The lifted classes are disjoint 0/1 indicators again.
    """

    def __init__(self, coinv: CoinvariantAlgebra, ideal: MonomialIdeal, staircase) -> None:
        self.coinv = coinv
        gen_weights, _, slots, classes = _slot_classes(coinv.action, ideal, staircase)
        relative = _relative_classes(staircase, gen_weights, slots, classes)
        starts: defaultdict[int, dict[int, int]] = defaultdict(dict)  # generator -> {column: class}
        for n, slot_class in enumerate(relative):
            for k, c in map(slots.__getitem__, slot_class):
                starts[k][c] = n
        self.qcols = [coinv.index_of(m) for m in staircase]
        qpos = {q: c for c, q in enumerate(self.qcols)}
        self.pivots = [i for i in range(coinv.dim) if i not in qpos]
        self.row_weights = [coinv.weights[p] for p in self.pivots]
        # the minimal generators of I + J in the basis are those of I
        generators = _generator_pivots(coinv, ideal.min_gens)
        self.generator_indices = [j for j, p in enumerate(self.pivots) if p in generators]

        up = coinv.variable_steps()
        entries = {p: starts[k] for p, k in generators.items()}  # pivot -> {column: class}
        members: list[list[int]] = [[] for _ in relative]
        for j, p in enumerate(self.pivots):
            for c, n in entries[p].items():
                members[n].append(self.slot_index[(j, c)])
            for v, t in enumerate(up[p]):
                if t is not None and t not in qpos and t not in entries:
                    entries[t] = {c2: n for c, n in entries[p].items()
                                  if (c2 := qpos.get(up[self.qcols[c]][v])) is not None}
        self.kernel = _indicator_basis(len(self.slots), members)

    def row(self, j: int) -> tuple[Fraction, ...]:
        return _unit_row(self.coinv.dim, self.pivots[j])

    # the kernel rows are indicators of disjoint slot classes, each nonzero on
    # the generator rows (_relative_classes), so their restrictions there are independent
    restricted_rank = staticmethod(len)


def _unit_row(dim: int, i: int) -> tuple[Fraction, ...]:
    row = [Q0] * dim
    row[i] = Q1
    return tuple(row)


def _generator_pivots(coinv: CoinvariantAlgebra, gens) -> dict[int, int]:
    """Basis index -> position in gens of each generator that is a basis monomial.

    For the minimal generators of I these are the Sbar-module generators of
    Ibar, ascending: Ibar is spanned by the basis monomials in I, and the
    basis is closed under division, so such a monomial generates Ibar
    exactly when no quotient m/x_v lies in I.  The minimal generators off
    the basis are multiples of invariant generators, zero in Sbar.  Both
    min_gens and the basis are in graded-lex order.
    """
    find = coinv._index.get
    return {i: k for k, g in enumerate(gens) if (i := find(g.exponents)) is not None}


def relative_data(coinv: CoinvariantAlgebra, subspace) -> RelativeData:
    """The shared relative tangent computation for an ideal subspace of S-bar.

    A monomial GCluster or a MonomialIdeal I takes the staircase route: the
    slot classes of I + J, J the ideal of the positive-degree invariant
    monomials, lifted to the coinvariant basis (_StaircaseRelative); a
    cluster holds J, so its own staircase serves.  Rows, a subspace GCluster's
    included, take the dense path.  An orbit cluster, or input of another
    action than the algebra's, raises ValueError (see cluster._admit).  A
    RelativeData built for the same coinvariant algebra is returned as is.
    """
    if isinstance(subspace, RelativeData):
        if subspace.coinv is not coinv:
            raise ValueError("relative data was built for another coinvariant algebra")
        return subspace
    kind, payload = _admit(coinv.action, subspace, ("ideal", "monomial", "subspace", "rows"))
    if kind in ("subspace", "rows"):
        return _DenseRelative(coinv, list(payload))
    if kind == "monomial":
        return _StaircaseRelative(coinv, payload, subspace.staircase)
    ideal = MonomialIdeal(payload.num_vars, payload.min_gens + coinv.invariant_gens)
    return _StaircaseRelative(coinv, ideal, quotient_staircase(ideal, coinv.dim))


def relative_tangent_space(coinv: CoinvariantAlgebra, subspace) -> EquivariantHomSpace:
    """Hom^G_Sbar(Ibar, Sbar/Ibar) for an ideal subspace of the coinvariant algebra.

    On the dense route, unknowns are the weight-compatible images of the
    echelon spanning rows; the constraints force compatibility with
    multiplication by each variable, which pins down a module homomorphism
    (the variables generate the algebra, and a homomorphism is determined on
    a spanning set).  The subspace is anything relative_data accepts.
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
    (_generator_pivots), without RelativeData.  It takes what relative_data does.
    """
    kind, payload = _admit(coinv.action, subspace, ("ideal", "monomial", "subspace", "rows"))
    if kind in ("ideal", "monomial"):
        pivots = list(_generator_pivots(coinv, payload.min_gens))
        table = coinv.action.group.indexed_characters
        return StratRep(generators=tuple(_unit_row(coinv.dim, p) for p in pivots),
                        characters=tuple(table[i] for i in sorted(coinv.weight_indices[p] for p in pivots)))
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
    monomial ideal it is always injective (graded Nakayama): the staircase
    route checks that as it picks the relative classes, and a lower rank
    raises IntegrityError there (_relative_classes) instead of answering
    False.
    """
    data = relative_data(coinv, subspace)
    # one slot per weight-compatible (generator, quotient column) pair, so
    # the generator rows' slots count the target dimension
    gen_rows = set(data.generator_indices)
    target = [s for s, (j, _) in enumerate(data.slots) if j in gen_rows]
    matrix = tuple(tuple(vec[s] for s in target) for vec in data.kernel)
    source_dim = len(data.kernel)
    injective = data.restricted_rank(matrix) == source_dim
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
    group is covered at least once.  It groups and sorts character indices.
    """
    coinv = coinvariant_algebra(action)
    clusters = tuple(enumerate_torus_fixed_clusters(action, coinv))
    per_cluster = []
    appearances: dict[int, list[int]] = {}
    for idx, cluster in enumerate(clusters):
        strat = stratification_rep(coinv, cluster)
        per_cluster.append(strat.characters)
        for i in set(map(character_index, strat.characters)):
            appearances.setdefault(i, []).append(idx)

    table = action.group.indexed_characters
    incidence = tuple((table[i], tuple(appearances[i])) for i in sorted(appearances))
    missing = tuple(table[i] for i in range(1, len(table)) if i not in appearances)
    return McKayTable(
        action=action,
        clusters=clusters,
        strat_characters=tuple(per_cluster),
        incidence=incidence,
        all_nontrivial_covered=not missing,
        missing=missing,
    )
