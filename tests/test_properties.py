"""Hypothesis property suites over random small actions and points."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

import ghilb_kit.monomial_algebra as monomial_module
from conftest import assert_orbit_matches_oracle, product_action
from ghilb_kit.cli import render_json
from ghilb_kit.cluster import enumerate_torus_fixed_clusters, subspace_rows_of_monomial_cluster
from ghilb_kit.cyclotomic import CyclotomicNumber, embed_to_conductor, euler_phi
from ghilb_kit.group_rep import character_index, weight_of_monomial
from ghilb_kit.monomial_algebra import Monomial, MonomialIdeal, coinvariant_algebra, colength, quotient_staircase
from ghilb_kit.tangent import eq8_map, relative_tangent_space, stratification_rep
from oracles import (
    oracle_coinvariant_staircase,
    oracle_cyclo_mul,
    oracle_inverse,
    oracle_is_faithful,
    oracle_min_gens,
    oracle_relations_hold,
    oracle_staircase,
    oracle_staircases,
)

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

# every abelian group of order at most 12, and Z/12 once more as Z/3 x Z/4
DIVISORS = [(), *((r,) for r in range(2, 13)), (2, 2), (2, 4), (2, 6), (3, 3), (2, 2, 2), (3, 4)]


@st.composite
def actions(draw):
    """Diagonal actions with n <= 3 and |G| <= 12, faithful or not."""
    divisors = draw(st.sampled_from(DIVISORS))
    n = draw(st.integers(1, 3))
    weights = [tuple(draw(st.integers(0, d - 1)) for d in divisors) for _ in range(n)]
    return product_action(divisors, weights)


def cyclotomic(m: int):
    """Elements of Q(zeta_m) from short integer polynomials in zeta_m."""
    return st.lists(st.integers(-2, 2), min_size=1, max_size=m).map(
        lambda coeffs: CyclotomicNumber.from_polynomial(coeffs, m))


coordinates = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.integers(1, 6).flatmap(cyclotomic),
)


@st.composite
def orbit_inputs(draw):
    action = draw(actions())
    point = tuple(draw(coordinates) for _ in range(action.num_variables))
    return action, point


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(orbit_inputs())
def test_orbit_path_equals_cyclotomic_scalar_oracle(case):
    tau = assert_orbit_matches_oracle(*case)
    # tau lies on the quotient: its values satisfy every relation among the generators
    assert oracle_relations_hold(tau.generators, tau.values)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(actions())
def test_faithfulness_and_walk_weights_equal_oracles(action):
    faithful = action.is_faithful()
    assert faithful == oracle_is_faithful(action)
    if not faithful:
        with pytest.raises(ValueError, match="not faithful"):
            coinvariant_algebra(action)
        return
    # the walk carries weights as character indices; each must be the monomial's weight
    coinv = coinvariant_algebra(action)
    for m, w in zip(coinv.basis, coinv.weights, strict=True):
        assert w == weight_of_monomial(action, m.exponents)


@st.composite
def walk_inputs(draw):
    """An action with n <= 4 and |G| <= 12, faithful or not, and a monomial
    ideal in 0 to 4 variables, with a pure power of each variable or not."""
    divisors = draw(st.sampled_from(DIVISORS))
    weights = draw(st.lists(st.tuples(*(st.integers(0, d - 1) for d in divisors)), min_size=1, max_size=4))
    n = draw(st.integers(0, 4))
    exponents = st.tuples(*(st.integers(0, 4) for _ in range(n)))
    gens = draw(st.lists(exponents, max_size=5))
    for v in range(n):
        if draw(st.booleans()):
            gens.append(tuple(draw(st.integers(1, 6)) if w == v else 0 for w in range(n)))
    return product_action(divisors, weights), MonomialIdeal(n, tuple(map(Monomial, gens)))


def trivial_group_with(n, gens):
    """The trivial group on one variable, with the ideal of gens in n variables."""
    return product_action((), [()]), MonomialIdeal(n, tuple(map(Monomial, gens)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(walk_inputs())
@example(trivial_group_with(0, []))
@example(trivial_group_with(0, [()]))
@example(trivial_group_with(3, [(0, 0, 0)]))
@example(trivial_group_with(2, []))
@example((product_action((4,), [(0,), (1,), (3,)]), MonomialIdeal(1, (Monomial((3,)),))))
@example((product_action((2, 2, 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
          MonomialIdeal(4, tuple(Monomial(tuple(2 * (w == v) for w in range(4))) for v in range(4)))))
def test_both_walks_equal_box_oracles(case):
    action, ideal = case
    # the coinvariant walk, faithful or not: CoinvariantAlgebra refuses the latter
    gens, basis, indices = monomial_module._invariant_staircase(action)
    assert (gens, basis) == oracle_coinvariant_staircase(action)
    assert indices == [character_index(weight_of_monomial(action, e)) for e in basis]
    # the quotient walk, on the drawn ideal and on the invariants' ideal
    for ideal in (ideal, MonomialIdeal(action.num_variables, tuple(map(Monomial, gens)))):
        n, gen_exps = ideal.num_vars, [g.exponents for g in ideal.min_gens]
        # finite exactly when the ideal holds 1 or a pure power of every variable
        finite = (0,) * n in gen_exps or all(
            any(g[v] and not any(g[:v] + g[v + 1:]) for g in gen_exps) for v in range(n))
        dim = colength(ideal)
        if not finite:
            assert dim is None
            assert quotient_staircase(ideal, 10 ** 6) is None
            continue
        want = [Monomial(e) for e in oracle_staircase(n, gen_exps)]
        assert dim == len(want)
        assert quotient_staircase(ideal, max(dim, 1)) == want
        if dim > 1:
            assert quotient_staircase(ideal, dim - 1) is None


faithful_actions = actions().filter(lambda action: action.is_faithful())


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(faithful_actions)
def test_enumeration_equals_exhaustive_staircase_search(action):
    coinv = coinvariant_algebra(action)
    # the oracle tries every |G|-subset of the coinvariant basis
    assume(math.comb(coinv.dim, action.group.order) <= 3000)
    clusters = enumerate_torus_fixed_clusters(action, coinv)
    assert {frozenset(c.staircase) for c in clusters} == oracle_staircases(action, coinv.basis)
    # the ideal is read from the search frontier, so check it against the staircase
    for c in clusters:
        assert c.ideal.min_gens == oracle_min_gens(c.staircase)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(faithful_actions)
def test_monomial_path_equals_dense_path(action):
    coinv = coinvariant_algebra(action)
    assume(coinv.dim <= 30)
    for cluster in enumerate_torus_fixed_clusters(action, coinv):
        rows = subspace_rows_of_monomial_cluster(coinv, cluster)
        for fn in (relative_tangent_space, stratification_rep, eq8_map):
            assert fn(coinv, cluster) == fn(coinv, rows), (fn.__name__, cluster.ideal)


# --- Q(zeta_m) arithmetic against the schoolbook oracles -------------------

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def dense_elements(m: int):
    """Elements of Q(zeta_m) with a small rational coefficient at every power."""
    phi = euler_phi(m)
    return st.lists(small_rationals, min_size=phi, max_size=phi).map(
        lambda coeffs: CyclotomicNumber(m, tuple(coeffs)))


def sparse_elements(m: int):
    """Elements of Q(zeta_m) with at most four small rational terms, for Euclid's oracle."""
    phi = euler_phi(m)

    def build(terms):
        coeffs = [Fraction(0)] * phi
        for i, c in terms.items():
            coeffs[i] = c
        return CyclotomicNumber(m, tuple(coeffs))

    return st.dictionaries(st.integers(0, phi - 1), small_rationals, max_size=4).map(build)


conductors = st.integers(1, 60)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(conductors.flatmap(lambda m: st.tuples(dense_elements(m), dense_elements(m), dense_elements(m))))
def test_product_equals_schoolbook_oracle_and_associates(abc):
    a, b, c = abc
    assert a * b == oracle_cyclo_mul(a, b)
    assert (a * b) * c == a * (b * c)


def lowest_terms(x):
    """x's coefficients as integer numerators over their least common denominator."""
    den = math.lcm(*(c.denominator for c in x.coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in x.coeffs), den


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(conductors.flatmap(lambda m: st.tuples(dense_elements(m), dense_elements(m), sparse_elements(m))))
def test_every_route_stores_one_canonical_form(abc):
    # equal values are equal integers: sums, products and quotients divide
    # out the gcd of numerators and denominator, so no route leaves a factor
    a, b, c = abc
    m = a.conductor
    half = CyclotomicNumber.from_rational(Fraction(1, 2), m)
    a2, b2 = embed_to_conductor(a, 2 * m), embed_to_conductor(b, 2 * m)
    ab = oracle_cyclo_mul(a, b)
    routes = [  # (values built by different routes, the oracle's value)
        ((a * b) * c, a * (b * c), oracle_cyclo_mul(ab, c)),
        (a + (-a), a - a, CyclotomicNumber.from_rational(0, m)),
        (a * Fraction(2, 4), (a * 2) / 4, a / 2, oracle_cyclo_mul(a, half)),
        (embed_to_conductor(a * b, 2 * m), a2 * b2, ab),
        (a2, a),
    ]
    if b:
        routes.append(((a / b) * b, a))
    for *values, want in routes:
        for x in values:
            assert x == want and hash(x) == hash(want)
            assert x.coeffs == embed_to_conductor(want, x.conductor).coeffs
            assert (x.numerators, x.denominator) == lowest_terms(x)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(conductors.flatmap(dense_elements))
def test_power_equals_repeated_product(a):
    product = CyclotomicNumber.one(a.conductor)
    for n in range(10):
        assert a ** n == product
        product = product * a


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(conductors.flatmap(sparse_elements))
def test_inverse_equals_euclid_oracle(a):
    assume(a)
    inv = a.inverse()
    assert a * inv == 1
    assert inv == oracle_inverse(a)


# quotes, backslashes, control characters and non-ASCII text, as well as any text
json_strings = st.text(st.sampled_from('"\\\x00\x08\t\n\x1f\x7f ax≠\u2028')) | st.text()
json_ints = st.integers(-2 ** 70, 2 ** 70)
json_values = st.recursive(
    st.none() | st.booleans() | json_ints | json_strings
    | st.lists(json_strings) | st.lists(json_ints),
    lambda children: st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(json_strings, children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(json_values)
def test_render_json_equals_json_dumps(value):
    assert render_json(value) == json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
