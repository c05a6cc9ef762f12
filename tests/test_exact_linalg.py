"""Exact linear algebra: canonical forms, pinned examples, properties."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ghilb_kit.exact_linalg import (
    RationalMatrix,
    kernel_basis,
    kernel_basis_rows,
    rank,
    reduce_vector,
    row_space_contains,
    rref_rows,
    solve,
)
from conftest import inexact_scalars
from oracles import oracle_rank, oracle_rref, oracle_same_rowspace

F = Fraction


def random_matrix(rng, max_dim=6, lo=-9, hi=9):
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    return [[F(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


class TestRref:
    def test_examples(self):
        red, pivots = rref_rows([[F(2), F(4)], [F(1), F(3)]])
        assert pivots == [0, 1]
        assert red == [[F(1), F(0)], [F(0), F(1)]]

        red, pivots = rref_rows([[F(1), F(2)], [F(2), F(4)]])
        assert red == [[F(1), F(2)]]
        assert pivots == [0]

    def test_empty(self):
        assert rref_rows([]) == ([], [])
        assert rref_rows([[F(0), F(0)]]) == ([], [])

    def test_canonical_shape(self):
        rng = random.Random(11)
        for _ in range(50):
            mat = random_matrix(rng)
            red, pivots = rref_rows(mat)
            assert sorted(pivots) == pivots
            for i, p in enumerate(pivots):
                assert red[i][p] == 1
                assert all(red[j][p] == 0 for j in range(len(red)) if j != i)
                assert all(e == 0 for e in red[i][:p])

    def test_idempotent_and_matches_oracle(self):
        rng = random.Random(12)
        for _ in range(50):
            mat = random_matrix(rng)
            red, pivots = rref_rows(mat)
            assert rref_rows(red) == (red, pivots)
            oracle_red, oracle_pivots = oracle_rref(mat)
            assert len(red) == len(oracle_red)
            assert pivots == oracle_pivots
            assert oracle_same_rowspace(red, mat)

    def test_reduce_vector_membership(self):
        red, pivots = rref_rows([[F(1), F(0), F(2)], [F(0), F(1), F(3)]])
        assert row_space_contains(red, pivots, [F(2), F(1), F(7)])
        assert not row_space_contains(red, pivots, [F(0), F(0), F(1)])
        assert reduce_vector(red, pivots, [F(1), F(1), F(5)]) == [F(0), F(0), F(0)]


class TestKernelBasis:
    def test_pinned_examples(self):
        assert kernel_basis(RationalMatrix.from_rows([[0]])) == [(F(1),)]
        identity3 = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert kernel_basis(identity3) == []
        assert kernel_basis(RationalMatrix.from_rows([[1, 2], [2, 4]])) == [(F(-2), F(1))]

    def test_canonical_echelon_form(self):
        rng = random.Random(13)
        for _ in range(50):
            mat = random_matrix(rng)
            vecs = kernel_basis_rows(mat, len(mat[0]))
            free_cols = [max(i for i, e in enumerate(v) if e) for v in vecs]
            assert free_cols == sorted(free_cols, reverse=True)
            for v, f in zip(vecs, free_cols):
                assert v[f] == 1
                assert all(v[g] == 0 for g in free_cols if g != f)

    def test_kernel_annihilates(self):
        rng = random.Random(14)
        for _ in range(100):
            mat = random_matrix(rng)
            for v in kernel_basis_rows(mat, len(mat[0])):
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in mat)

    def test_rank_nullity(self):
        rng = random.Random(15)
        for _ in range(100):
            mat = random_matrix(rng)
            m = RationalMatrix.from_rows(mat)
            assert rank(m) + len(kernel_basis(m)) == m.cols
            assert rank(m) == oracle_rank(mat)


class TestRank:
    def test_pinned_examples(self):
        assert rank(RationalMatrix.from_rows([[0, 0, 0], [0, 0, 0]])) == 0
        identity4 = RationalMatrix.from_rows([[F(i == j) for j in range(4)] for i in range(4)])
        assert rank(identity4) == 4
        assert rank(RationalMatrix.from_rows([[1, 2], [2, 4]])) == 1


class TestSolve:
    def test_pinned_examples(self):
        identity = RationalMatrix.from_rows([[1, 0], [0, 1]])
        assert solve(identity, [F(3), F(-5)]) == (F(3), F(-5))
        zero = RationalMatrix.from_rows([[0, 0], [0, 0]])
        assert solve(zero, [F(1), F(0)]) is None
        assert solve(RationalMatrix.from_rows([[1, 1]]), [F(2)]) == (F(2), F(0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(RationalMatrix.from_rows([[1, 2]]), [F(1), F(2)])

    def test_solutions_verify(self):
        rng = random.Random(16)
        for _ in range(100):
            mat = random_matrix(rng)
            m = RationalMatrix.from_rows(mat)
            x0 = [F(rng.randint(-9, 9)) for _ in range(m.cols)]
            b = m.apply(x0)
            x = solve(m, b)
            assert x is not None
            assert m.apply(list(x)) == b

    def test_inconsistent_detected(self):
        m = RationalMatrix.from_rows([[1, 1], [1, 1]])
        assert solve(m, [F(1), F(2)]) is None

    def test_free_variables_zero(self):
        m = RationalMatrix.from_rows([[0, 1, 2]])
        x = solve(m, [F(4)])
        assert x == (F(0), F(4), F(0))

    def test_empty_rows(self):
        assert solve(RationalMatrix(0, 3, ()), []) == (F(0),) * 3


class TestRationalMatrix:
    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            RationalMatrix(2, 2, (F(1), F(2), F(3)))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix.from_rows([[1, 2], [3]])

    def test_apply_checks_length(self):
        m = RationalMatrix.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            m.apply([F(1)])

    def test_entries_coerced_exact(self):
        m = RationalMatrix.from_rows([[1, 2], [3, 4]])
        assert all(isinstance(e, Fraction) for e in m.entries)
        assert m.row(1) == (F(3), F(4))

    @inexact_scalars
    def test_inexact_entries_rejected(self, bad):
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            RationalMatrix(1, 2, (F(1), bad))
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            RationalMatrix.from_rows([[1, bad]])
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            solve(RationalMatrix.from_rows([[1, 0], [0, 1]]), [1, bad])

    def test_bool_int_and_fraction_entries_accepted(self):
        m = RationalMatrix.from_rows([[True, 2], [F(1, 2), False]])
        assert m.entries == (F(1), F(2), F(1, 2), F(0))
        assert solve(m, [True, F(1, 4)]) == (F(1, 2), F(1, 4))

    @inexact_scalars
    def test_apply_rejects_inexact_vectors(self, bad):
        m = RationalMatrix.from_rows([[1, 2]])
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            m.apply([1, bad])
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            m.apply([bad, bad])

    def test_apply_on_bool_int_and_fraction_vectors(self):
        m = RationalMatrix.from_rows([[1, 2], [F(1, 2), -3]])
        assert m.apply([1, 2]) == [F(5), F(-11, 2)]
        assert m.apply([True, False]) == [F(1), F(1, 2)]
        assert m.apply([F(1, 2), F(1, 4)]) == [F(1), F(-1, 2)]
        assert all(type(v) is Fraction for v in m.apply([True, 3]))
