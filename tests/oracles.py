"""Independent reference implementations used to cross-check the library.

Everything here is written from scratch against the definitions: plain
Gaussian elimination, exhaustive staircase search, dense brute-force linear
systems for the Hom spaces, orbits on embedded cyclotomic scalars,
schoolbook Q(zeta_m) products and Euclid's inverse on Fraction polynomials,
the lattice of multiplicative relations among the invariant generators, and
the closed forms of the clusters of cyclic surface quotients, the cones
of the clusters of an abelian G in SL(3) with the junior points, and the
subgroup the weights generate, summed over the box of weight orders.
Apart from data containers, the package supplies only the field arithmetic
of CyclotomicNumber (outside its own oracles), the cyclotomic polynomials,
monomial weights, the invariant generators and, to the index route of
the monomial relative tangent space, the coinvariant basis with its
variable-step tables (the staircase-search oracles check those through
the cluster enumeration); nothing else under test is shared.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from ghilb_kit.cluster import FreenessReport, GCluster, QuotientPoint
from ghilb_kit.cyclotomic import CyclotomicNumber, cyclotomic_polynomial
from ghilb_kit.group_rep import Character, weight_of_monomial
from ghilb_kit.monomial_algebra import Monomial, invariant_generators
from ghilb_kit.tangent import EquivariantHomSpace


# --- dense rational elimination ----------------------------------------


def oracle_rref(rows):
    """Textbook forward elimination + back substitution over Fraction."""
    mat = [[Fraction(e) for e in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [e * inv for e in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def oracle_rank(rows) -> int:
    return len(oracle_rref(rows)[0])


def oracle_contains(rows, vec) -> bool:
    """Membership of vec in the row space, by rank comparison."""
    base = oracle_rank(rows)
    return oracle_rank(list(rows) + [list(vec)]) == base


def oracle_same_rowspace(rows_a, rows_b) -> bool:
    return all(oracle_contains(rows_b, v) for v in rows_a) and \
        all(oracle_contains(rows_a, v) for v in rows_b)


def oracle_kernel(rows, ncols):
    """Kernel basis in the free-variable convention, free columns descending.

    One vector per free column f: 1 at f and the negated reduced column f
    at the pivots.
    """
    red, pivots = oracle_rref(rows)
    basis = []
    for f in reversed(range(ncols)):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(red, pivots):
            if row[f]:
                vec[p] = -row[f]
        basis.append(vec)
    return basis


def oracle_solve(rows, rhs):
    """Any solution of rows*x = rhs, or None; augmented elimination."""
    if not rows:
        return None if any(rhs) else []
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = oracle_rref(aug)
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None
        x[p] = row[ncols]
    return x


# --- faithfulness by brute force ------------------------------------------


def oracle_is_faithful(action):
    """Whether the weights generate the character group, by brute force.

    Every element of the generated subgroup is sum c_i * w_i with
    0 <= c_i < order(w_i), so the box of those coefficient vectors is
    summed component by component and the distinct residue tuples counted.
    """
    divisors = action.group.elementary_divisors
    comps = [w.components for w in action.weights]
    orders = [math.lcm(1, *(d // math.gcd(c, d) for c, d in zip(w, divisors))) for w in comps]
    reached = set()
    for coeffs in itertools.product(*(range(k) for k in orders)):
        reached.add(tuple(sum(c * w[j] for c, w in zip(coeffs, comps)) % d
                          for j, d in enumerate(divisors)))
    return len(reached) == math.prod(divisors)


# --- exhaustive staircase search ----------------------------------------


def oracle_monomials_of_degree(num_vars, degree):
    """All monomials of the given total degree, ascending by exponent tuple."""
    return [Monomial(e) for e in itertools.product(range(degree + 1), repeat=num_vars)
            if sum(e) == degree]


def oracle_staircase(num_vars, gens):
    """Exponent tuples outside the ideal of the generator tuples gens, graded-lex.

    The ideal must hold a pure power x_i^p_i of every variable, so every
    monomial outside it lies in the box of exponents a_i < p_i; the box is
    filtered by divisibility and sorted, with no walk.
    """
    bounds = [min(g[i] for g in gens if all(a == 0 for j, a in enumerate(g) if j != i))
              for i in range(num_vars)]
    box = itertools.product(*(range(b) for b in bounds))
    outside = [e for e in box if not any(all(a <= b for a, b in zip(g, e)) for g in gens)]
    return sorted(outside, key=lambda e: (sum(e), e))


def oracle_coinvariant_staircase(action):
    """Minimal invariant generators and coinvariant basis as exponent tuples, graded-lex.

    The pure power x_i^p_i, p_i the order of weight_i, is invariant, so every
    minimal generator lies in the box of exponents a_i <= p_i: it is an
    invariant box member other than 1 that no other one divides.
    """
    n = action.num_variables

    def invariant(e):
        return weight_of_monomial(action, e).is_trivial

    powers = [next(p for p in itertools.count(1)
                   if invariant(tuple(p if j == i else 0 for j in range(n))))
              for i in range(n)]
    box = itertools.product(*(range(p + 1) for p in powers))
    invariants = [e for e in box if any(e) and invariant(e)]
    gens = sorted((e for e in invariants
                   if not any(d != e and all(a <= b for a, b in zip(d, e)) for d in invariants)),
                  key=lambda e: (sum(e), e))
    return gens, oracle_staircase(n, gens)


def oracle_staircases(action, basis):
    """All G-cluster staircases inside the coinvariant basis, by brute force.

    Checks every |G|-subset of the basis for downward closure (division by
    one variable stays inside) and the one-monomial-per-character property.
    """
    order = action.group.order
    basis_set = set(basis)
    results = set()
    for combo in itertools.combinations(basis, order):
        chars = [weight_of_monomial(action, m.exponents) for m in combo]
        if len(set(chars)) != order:
            continue
        chosen = set(combo)
        ok = True
        for m in combo:
            for i, e in enumerate(m.exponents):
                if e:
                    down = list(m.exponents)
                    down[i] -= 1
                    if Monomial(tuple(down)) not in chosen:
                        ok = False
                        break
            if not ok:
                break
        if ok and chosen <= basis_set:
            results.add(frozenset(combo))
    return results


def oracle_min_gens(staircase):
    """Minimal generators of the monomials outside a finite staircase.

    Every minimal generator has exponent at most one more than the staircase
    maximum in each variable, so the search runs over that box: in ascending
    degree, a monomial outside the staircase is kept unless a kept one divides
    it.
    """
    n = len(staircase[0].exponents)
    bounds = [max(m.exponents[i] for m in staircase) + 2 for i in range(n)]
    inside = {m.exponents for m in staircase}
    box = sorted(itertools.product(*(range(b) for b in bounds)), key=lambda e: (sum(e), e))
    gens = []
    for e in box:
        if e in inside:
            continue
        if not any(all(a <= b for a, b in zip(g, e)) for g in gens):
            gens.append(e)
    return tuple(Monomial(g) for g in gens)


# --- brute-force Hom spaces ----------------------------------------------


def oracle_tangent_dim(action, ideal, staircase) -> int:
    """dim Hom^G_S(I, S/I) by solving over all generator assignments.

    Unknowns: one per (generator, staircase monomial) pair with no weight
    filtering.  Equations: weight mismatches forced to zero, plus every
    pairwise lcm relation expanded against the staircase with products
    reduced through the ideal.
    """
    gens = list(ideal.min_gens)
    stair = list(staircase)
    stair_pos = {m: t for t, m in enumerate(stair)}
    nunk = len(gens) * len(stair)

    def unk(k: int, t: int) -> int:
        return k * len(stair) + t

    equations = []
    for k, g in enumerate(gens):
        wg = weight_of_monomial(action, g.exponents)
        for t, m in enumerate(stair):
            if weight_of_monomial(action, m.exponents) != wg:
                row = [Fraction(0)] * nunk
                row[unk(k, t)] = Fraction(1)
                equations.append(row)

    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            lcm_ij = gens[i].lcm(gens[j])
            u_i = lcm_ij.divide(gens[i])
            u_j = lcm_ij.divide(gens[j])
            per_target = {}
            for (k, u, sign) in ((i, u_i, Fraction(1)), (j, u_j, Fraction(-1))):
                for t, m in enumerate(stair):
                    prod = u * m
                    if ideal.contains(prod):
                        continue
                    target = stair_pos[prod]
                    row = per_target.setdefault(target, [Fraction(0)] * nunk)
                    row[unk(k, t)] += sign
            equations.extend(per_target.values())

    return nunk - oracle_rank(equations)


def oracle_tangent_space(action, ideal, staircase):
    """Hom^G_S(I, S/I) as an EquivariantHomSpace, by a dense Taylor solve.

    Unknowns are the weight-compatible (generator, staircase monomial) pairs,
    generator by generator.  Every pairwise lcm relation is expanded against
    the staircase into Fraction rows, products in the ideal dropping out, and
    the rows are eliminated; the basis is oracle_kernel's.
    """
    gens = list(ideal.min_gens)
    stair = list(staircase)
    stair_pos = {m: t for t, m in enumerate(stair)}
    gen_weights = [weight_of_monomial(action, g.exponents) for g in gens]
    stair_weights = [weight_of_monomial(action, m.exponents) for m in stair]
    slots = [(k, t) for k in range(len(gens)) for t in range(len(stair))
             if gen_weights[k] == stair_weights[t]]

    equations = []
    for i, j in itertools.combinations(range(len(gens)), 2):
        lcm_ij = gens[i].lcm(gens[j])
        per_target = {}
        for k, sign in ((i, Fraction(1)), (j, Fraction(-1))):
            u = lcm_ij.divide(gens[k])
            for s, (slot_gen, t) in enumerate(slots):
                prod = u * stair[t]
                if slot_gen != k or ideal.contains(prod):
                    continue
                row = per_target.setdefault(stair_pos[prod], [Fraction(0)] * len(slots))
                row[s] += sign
        equations.extend(per_target.values())

    kernel = oracle_kernel(equations, len(slots))
    hom_basis = []
    for vec in kernel:
        matrix = [[Fraction(0)] * len(stair) for _ in gens]
        for (k, t), value in zip(slots, vec):
            matrix[k][t] = value
        hom_basis.append(tuple(tuple(r) for r in matrix))
    return EquivariantHomSpace(
        source_generators=tuple(gens),
        generator_weights=tuple(gen_weights),
        target_basis=tuple(stair),
        target_weights=tuple(stair_weights),
        hom_basis=tuple(hom_basis),
        dimension=len(kernel),
    )


def _mult_monomial_vector(coinv, m, vec):
    """Independent multiplication in the coinvariant algebra basis."""
    pos = {b: i for i, b in enumerate(coinv.basis)}
    out = [Fraction(0)] * coinv.dim
    for i, c in enumerate(vec):
        if c:
            k = pos.get(m * coinv.basis[i])
            if k is not None:
                out[k] += c
    return out


def oracle_relative_tangent_dim(coinv, rows) -> int:
    """dim Hom^G_Sbar(Ibar, Sbar/Ibar) with all images as unknowns.

    Uses its own elimination to present the quotient, forces weight
    compatibility by equations, and imposes phi(x*v) = x*phi(v) for every
    variable and every spanning row, solving the coefficients of x*v in the
    row basis by an augmented solve.
    """
    red, pivots = oracle_rref(rows)
    qcols = [i for i in range(coinv.dim) if i not in set(pivots)]
    nrows, nq = len(red), len(qcols)
    nunk = nrows * nq

    def unk(j: int, c: int) -> int:
        return j * nq + c

    def decompose(vec):
        """Unique (lam, rho) with vec = sum lam_l*red[l] + sum rho_c*e_qcols[c]."""
        columns = [list(r) for r in red]
        for q in qcols:
            e = [Fraction(0)] * coinv.dim
            e[q] = Fraction(1)
            columns.append(e)
        matrix = [[col[i] for col in columns] for i in range(coinv.dim)]
        sol = oracle_solve(matrix, vec)
        assert sol is not None
        return sol[:nrows], sol[nrows:]

    equations = []
    row_weights = [coinv.vector_weight(r) for r in red]
    for j in range(nrows):
        for c in range(nq):
            if row_weights[j] != coinv.weights[qcols[c]]:
                row = [Fraction(0)] * nunk
                row[unk(j, c)] = Fraction(1)
                equations.append(row)

    for var in coinv.variables():
        # residues of var * (each quotient coordinate lift)
        rho_of = []
        for c in range(nq):
            lift = [Fraction(0)] * coinv.dim
            lift[qcols[c]] = Fraction(1)
            rho_of.append(decompose(_mult_monomial_vector(coinv, var, lift))[1])
        for j, r in enumerate(red):
            w = _mult_monomial_vector(coinv, var, r)
            lam, residue = decompose(w)
            assert not any(residue), "input must be an ideal"
            for c2 in range(nq):
                eq = [Fraction(0)] * nunk
                for l, coeff in enumerate(lam):
                    if coeff:
                        eq[unk(l, c2)] += coeff
                for c in range(nq):
                    if rho_of[c][c2]:
                        eq[unk(j, c)] -= rho_of[c][c2]
                if any(eq):
                    equations.append(eq)

    return nunk - oracle_rank(equations)


def oracle_monomial_relative(coinv, ideal):
    """(pivots, qcols, kernel) of Hom^G_Sbar(Ibar, Sbar/Ibar) for a monomial ideal.

    Works on coinvariant basis indices.  Ibar is spanned by the basis
    monomials in the ideal, the pivots: a minimal generator, or x_v times a
    pivot.  For a variable x_v and the pivot b_p of row j, compatibility
    phi(x_v*b_p) = x_v*phi(b_p) reads a[l, c2] = a[j, c] at each quotient
    column c2, where b_l = x_v*b_p and b_q(c2) = x_v*b_q(c); a side whose
    product is zero or lies in the ideal drops out.  So each equation
    equates two slots or kills one, and the kernel is spanned by the
    indicators of the joined classes that nothing kills, listed by
    descending largest slot.  The product table comes from
    coinv.variable_steps, and the divisions from the exponents; the image
    of the ideal must be closed under the variables, else an AssertionError.
    """
    up = coinv.variable_steps()
    gens = {g.exponents for g in ideal.min_gens}
    index = {m.exponents: i for i, m in enumerate(coinv.basis)}
    inside = []
    for m in coinv.basis:
        e = m.exponents
        # graded-lex order lists every divisor m/x_v before m
        inside.append(e in gens or any(a and inside[index[e[:v] + (a - 1,) + e[v + 1:]]]
                                       for v, a in enumerate(e)))
    pivots = [i for i in range(coinv.dim) if inside[i]]
    qcols = [i for i in range(coinv.dim) if not inside[i]]
    assert all(k is None or inside[k] for p in pivots for k in up[p]), \
        "ideal closure failed on basis indices"

    cols_of = {}
    for c, q in enumerate(qcols):
        cols_of.setdefault(coinv.weights[q], []).append(c)
    slots_of_row = []
    nslots = 0
    for p in pivots:
        cols = cols_of.get(coinv.weights[p], [])
        slots_of_row.append([(c, nslots + t) for t, c in enumerate(cols)])
        nslots += len(cols)
    row_of = {p: j for j, p in enumerate(pivots)}
    qpos = {q: c for c, q in enumerate(qcols)}
    parent = list(range(nslots))
    killed = []

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    for v in range(coinv.action.num_variables):
        for j, p in enumerate(pivots):
            terms = {}
            if up[p][v] is not None:
                for c2, s in slots_of_row[row_of[up[p][v]]]:
                    terms.setdefault(c2, []).append(s)
            for c, s in slots_of_row[j]:
                c2 = qpos.get(up[qcols[c]][v])
                if c2 is not None:
                    terms.setdefault(c2, []).append(s)
            for eq in terms.values():
                if len(eq) == 1:
                    killed.append(eq[0])
                else:
                    parent[find(eq[0])] = find(eq[1])

    dead = {find(s) for s in killed}
    classes = {}
    for s in range(nslots):
        if find(s) not in dead:
            classes.setdefault(find(s), []).append(s)
    kernel = []
    for members in sorted(classes.values(), key=max, reverse=True):
        vec = [Fraction(0)] * nslots
        for s in members:
            vec[s] = Fraction(1)
        kernel.append(vec)
    return pivots, qcols, kernel


def oracle_strat(coinv, rows):
    """(dimension, character multiset) of Ibar/(mbar Ibar), by isotypic ranks."""
    red, _ = oracle_rref(rows)
    products = []
    for b in coinv.basis:
        if b.is_one:
            continue
        for r in red:
            p = _mult_monomial_vector(coinv, b, r)
            if any(p):
                products.append(p)
    chars = Counter()
    for chi in set(coinv.weights):
        cols = [i for i, w in enumerate(coinv.weights) if w == chi]
        upper = oracle_rank([[r[i] for i in cols] for r in red])
        lower = oracle_rank([[p[i] for i in cols] for p in products])
        if upper > lower:
            chars[chi] = upper - lower
    return sum(chars.values()), chars


def oracle_eval(m, point):
    """Evaluate a monomial at a point with plain repeated multiplication."""
    one = None
    for c in point:
        one = c - c + 1 if one is None else one
    acc = one
    for e, c in zip(m.exponents, point):
        for _ in range(e):
            acc = acc * c
    return acc


# --- relations among the invariant generators -----------------------------


def oracle_invariant_relations(gens):
    """Integer vectors c with sum_j c_j * exponents(g_j) = 0, spanning all of them over Q.

    One vector per oracle_kernel vector of the exponent matrix (a row per
    variable, a column per generator), cleared of denominators, divided by
    its content and signed so that its first nonzero entry is positive.
    """
    if not gens:
        return []
    rows = [[Fraction(g.exponents[i]) for g in gens] for i in range(gens[0].num_vars)]
    relations = []
    for vec in oracle_kernel(rows, len(gens)):
        ints = [int(f * math.lcm(*(f.denominator for f in vec))) for f in vec]
        content = math.gcd(*ints)
        sign = 1 if next(a for a in ints if a) > 0 else -1
        relations.append(tuple(sign * a // content for a in ints))
    return relations


def oracle_relations_hold(gens, values) -> bool:
    """Whether values at gens satisfy prod v_j^c_j (c_j > 0) = prod v_j^-c_j (c_j < 0)
    for every oracle relation; the powers are repeated products."""
    for relation in oracle_invariant_relations(gens):
        sides = [1, 1]
        for value, c in zip(values, relation):
            for _ in range(abs(c)):
                sides[c < 0] = sides[c < 0] * value
        if sides[0] != sides[1]:
            return False
    return True


# --- cyclic surface quotients: the Hirzebruch-Jung chain -------------------


def _oracle_hj_chain(r, a):
    """i_0 = r, i_1 = a, j_0 = 0, j_1 = 1 and, for k >= 1 with b_k = ceil(i_{k-1} / i_k),
    i_{k+1} = b_k i_k - i_{k-1} and j_{k+1} = b_k j_k - j_{k-1}, down to i_{s+1} = 0."""
    i, j = [r, a], [0, 1]
    while i[-1]:
        b = -(-i[-2] // i[-1])
        i.append(b * i[-1] - i[-2])
        j.append(b * j[-1] - j[-2])
    return i, j


def oracle_hj_clusters(r, a):
    """Minimal generator exponents of the torus-fixed G-clusters of Z/r (1, a), gcd(r, a) = 1.

    The k-th cluster, 0 <= k <= s, is (x^i_k, y^j_{k+1}, x^(i_k - i_{k+1}) y^(j_{k+1} - j_k))
    with only its minimal generators kept (Kidoh; Ito-Nakamura).
    """
    i, j = _oracle_hj_chain(r, a)
    ideals = []
    for k in range(len(i) - 1):
        gens = {(i[k], 0), (0, j[k + 1]), (i[k] - i[k + 1], j[k + 1] - j[k])}
        ideals.append(frozenset(g for g in gens if not any(
            h != g and h[0] <= g[0] and h[1] <= g[1] for h in gens)))
    return ideals


def oracle_hj_special_characters(r, a):
    """Wunram's special characters i_1, ..., i_s of Z/r (1, a), as integers mod r."""
    return tuple(_oracle_hj_chain(r, a)[0][1:-1])


# --- the McKay fan of an abelian G in SL(3) -------------------------------


def _oracle_residues(action, exponents):
    """The character of x^exponents as residues mod the elementary divisors."""
    divisors = action.group.elementary_divisors
    return tuple(sum(a * w.components[k] for a, w in zip(exponents, action.weights)) % d
                 for k, d in enumerate(divisors))


def oracle_cluster_cone(cluster):
    """Rays of the cone of a torus-fixed G-cluster, read off the cluster alone.

    p(m) is the staircase monomial of the character of m.  The cone is cut
    out by the normals u_m = m - p(m) over the minimal generators m, with
    e_1, e_2 and e_3; its rays are the primitive cross products of two
    normals that pair >= 0 with every normal.  For an abelian G in SL(3)
    the cones of the |G| clusters form the fan of G-Hilb, a crepant
    resolution whose rays are the junior points and the axes (Ito-Reid,
    "The McKay correspondence for finite subgroups of SL(3,C)", 1996;
    Craw-Reid, "How to calculate A-Hilb C^3", 2002).
    """
    action = cluster.action
    n = action.num_variables
    p = {_oracle_residues(action, m.exponents): m.exponents for m in cluster.staircase}
    normals = [tuple(a - b for a, b in zip(m.exponents, p[_oracle_residues(action, m.exponents)]))
               for m in cluster.ideal.min_gens]
    normals += [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays = set()
    for (a1, a2, a3), (b1, b2, b3) in itertools.combinations(normals, 2):
        cross = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        g = math.gcd(*cross)
        if not g:
            continue
        for sign in (1, -1):
            ray = tuple(sign * c // g for c in cross)
            if all(sum(r * u for r, u in zip(ray, normal)) >= 0 for normal in normals):
                rays.add(ray)
    return rays


def oracle_junior_points(action):
    """The age-one points (theta_1, theta_2, theta_3) of the elements of G, as Fractions.

    The element g acts on x_i by exp(2 pi i theta_i), theta_i in [0, 1) the
    fractional part of sum_k g_k w_i,k / d_k; the junior points are those
    with theta_1 + theta_2 + theta_3 = 1.
    """
    divisors = action.group.elementary_divisors
    points = set()
    for g in itertools.product(*(range(d) for d in divisors)):
        theta = tuple(sum(Fraction(gk * c, d) for gk, c, d in zip(g, w.components, divisors)) % 1
                      for w in action.weights)
        if sum(theta) == 1:
            points.add(theta)
    return points


# --- cyclotomic field arithmetic -------------------------------------------


def _oracle_poly_mul(a, b):
    """Schoolbook product of ascending Fraction coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _oracle_poly_divmod(num, den):
    """Long division by den (nonzero leading coefficient) over Q."""
    num = [Fraction(c) for c in num]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1] / den[-1]
        quot[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
    rem = num[:len(den) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _oracle_residue(poly, m):
    """The element of Q(zeta_m) whose coefficients are poly's remainder by Phi_m."""
    phi = cyclotomic_polynomial(m)
    _, rem = _oracle_poly_divmod(poly, phi)
    return CyclotomicNumber(m, tuple(rem) + (Fraction(0),) * (len(phi) - 1 - len(rem)))


def oracle_cyclo_mul(a, b):
    """a * b as the schoolbook product reduced by exact division by Phi_m."""
    return _oracle_residue(_oracle_poly_mul(a.coeffs, b.coeffs), a.conductor)


def oracle_inverse(a):
    """The inverse of a nonzero a by the extended Euclidean algorithm over Q."""
    r0 = [Fraction(c) for c in cyclotomic_polynomial(a.conductor)]
    r1 = list(a.coeffs)
    while r1 and not r1[-1]:
        r1.pop()
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, rem = _oracle_poly_divmod(r0, r1)
        step = itertools.zip_longest(s0, _oracle_poly_mul(q, s1), fillvalue=Fraction(0))
        r0, r1, s0, s1 = r1, rem, s1, [x - y for x, y in step]
    # r0 is a nonzero constant: Phi_m is irreducible over Q
    return _oracle_residue([c / r0[0] for c in s0], a.conductor)


def _oracle_primes(n):
    """The distinct primes dividing n, by trial division, with their multiplicities."""
    found = Counter()
    p = 2
    while n > 1:
        while n % p == 0:
            found[p] += 1
            n //= p
        p += 1
    return found


def _oracle_mobius(n):
    primes = _oracle_primes(n)
    return 0 if any(e > 1 for e in primes.values()) else (-1) ** len(primes)


def _oracle_totient(n):
    return math.prod(p ** (e - 1) * (p - 1) for p, e in _oracle_primes(n).items())


def oracle_conjugate_mean(a):
    """The mean of the Galois conjugates of a, a rational.

    The conjugates of zeta_m^i sum to the Ramanujan sum
    c_m(i) = sum over d | gcd(i, m) of mu(m/d) d, and there are phi(m) of them.
    """
    m = a.conductor
    total = Fraction(0)
    for i, c in enumerate(a.coeffs):
        g = math.gcd(i, m)
        total += c * sum(_oracle_mobius(m // d) * d for d in range(1, g + 1) if g % d == 0)
    return total / _oracle_totient(m)


# --- orbits on cyclotomic scalars ----------------------------------------


def _oracle_pairing(group, g, chi, conductor, sign=1):
    """chi(g)^sign = prod_i zeta_{d_i}^(sign * g_i * c_i), multiplied out in Q(zeta_conductor)."""
    value = CyclotomicNumber.one(conductor)
    for gi, ci, d in zip(g, chi.components, group.elementary_divisors):
        value = value * CyclotomicNumber.root_of_unity(conductor, sign * (conductor // d) * gi * ci)
    return value


def oracle_character_value(group, g, chi):
    """chi(g) in Q(zeta_m), m the group exponent: the reference for character_exponent."""
    return _oracle_pairing(group, g, chi, group.exponent)


def _oracle_embed(c, conductor):
    """A rational or cyclotomic coordinate in Q(zeta_conductor): zeta_d = zeta_conductor^(conductor/d)."""
    if not isinstance(c, CyclotomicNumber):
        return CyclotomicNumber.from_rational(Fraction(c), conductor)
    step = conductor // c.conductor
    coeffs = [Fraction(0)] * (step * len(c.coeffs))
    for i, a in enumerate(c.coeffs):
        coeffs[i * step] = a
    return CyclotomicNumber.from_polynomial(coeffs, conductor)


def oracle_orbit(action, point):
    """(GCluster, FreenessReport, QuotientPoint) of an orbit, on cyclotomic scalars.

    Every group element is embedded as the scalars it multiplies the
    coordinates by.  g fixes a point when s * c == c on every coordinate,
    the characters are the cyclotomic averages (1/|G|) sum_g fixed(g) chi(g)^-1,
    and each invariant generator is evaluated at every orbit point and must
    take one value there.
    """
    group = action.group
    conductor = math.lcm(group.exponent,
                         *(c.conductor for c in point if isinstance(c, CyclotomicNumber)))
    base = tuple(_oracle_embed(c, conductor) for c in point)
    scalars = [(g, [_oracle_pairing(group, g, w, conductor) for w in action.weights])
               for g in group.elements()]
    images = {}
    stabilizer = []
    for g, ss in scalars:
        image = tuple(s * c for s, c in zip(ss, base))
        images[tuple(c.coeffs for c in image)] = image
        if image == base:
            stabilizer.append(g)
    points = tuple(images[k] for k in sorted(images))
    counts = tuple((g, sum(all(s * c == c for s, c in zip(ss, p)) for p in points))
                   for g, ss in scalars)
    chars = []
    for chi in group.characters():
        total = CyclotomicNumber.from_rational(0, conductor)
        for g, fixed in counts:
            total = total + fixed * _oracle_pairing(group, g, chi, conductor, -1)
        mult = total / group.order
        assert mult.is_rational() and mult.rational_value().denominator == 1
        chars += [chi] * int(mult.rational_value())

    size = len(points)
    free_by_size = size == group.order
    free_by_trace = all(fixed == 0 for g, fixed in counts if g != group.identity)
    freeness = FreenessReport(
        orbit_size=size,
        group_order=group.order,
        free_by_orbit_size=free_by_size,
        free_by_trace=free_by_trace,
        criteria_agree=free_by_size == free_by_trace,
        is_free=free_by_size and free_by_trace,
        stabilizer=tuple(stabilizer),
        fixed_point_counts=counts,
        characters=tuple(sorted(chars)),
    )
    cluster = GCluster(kind="orbit", action=action, conductor=conductor, points=points)
    gens = tuple(invariant_generators(action))
    values = []
    for f in gens:
        vals = {oracle_eval(f, p) for p in points}
        assert len(vals) == 1, f"{f.to_text()} is not constant on the orbit"
        values.append(vals.pop())
    return cluster, freeness, QuotientPoint(gens, tuple(values))


# --- the regular representation -------------------------------------------


def oracle_is_regular_representation(group, chars) -> bool:
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
