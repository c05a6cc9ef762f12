"""Exact dense linear algebra over Q and other exact fields.

The row-level routines are generic: entries only need +, -, *, /, equality
with themselves and truthiness for the zero test, so they serve both
``fractions.Fraction`` and cyclotomic entries.  All echelon forms are the
canonical reduced one, which makes every downstream basis deterministic.

Kernel bases use the free-variable convention: one vector per free column f,
with entry 1 at f and the negated reduced-echelon column above the pivots,
so the trailing nonzero entry of each vector is a 1.  ``solve`` sets free
variables to 0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

Q0 = Fraction(0)
Q1 = Fraction(1)


def _as_fraction(x) -> Fraction:
    """x as a Fraction, when it is an exact rational: an int, a bool or a Fraction.

    Fraction() would read a float as its binary value and parse a string, so
    anything else raises TypeError.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")


def rref_rows(rows, one=Q1):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Input rows are not
    modified, and zero entries take part in no arithmetic.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    piv_r = 0
    for col in range(ncols):
        sel = None
        for r in range(piv_r, len(work)):
            if work[r][col]:
                sel = r
                break
        if sel is None:
            continue
        work[piv_r], work[sel] = work[sel], work[piv_r]
        inv = one / work[piv_r][col]
        work[piv_r] = [e * inv if e else e for e in work[piv_r]]
        for r in range(len(work)):
            if r != piv_r and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b if b else a for a, b in zip(work[r], work[piv_r])]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(work):
            break
    return work[: len(pivots)], pivots


def reduce_vector(rref, pivots, vec):
    """Residue of vec modulo the row space given in reduced echelon form."""
    res = list(vec)
    for row, p in zip(rref, pivots):
        if res[p]:
            f = res[p]
            res = [a - f * b if b else a for a, b in zip(res, row)]
    return res


def row_space_contains(rref, pivots, vec) -> bool:
    return not any(reduce_vector(rref, pivots, vec))


def kernel_basis_rows(rows, ncols, one=Q1):
    """Canonical basis of the right kernel of the matrix with the given rows.

    One vector per free column f: unit coordinate at f, entries at the pivot
    columns chosen to kill the echelon rows.  Vectors are listed with their
    unit (pivot) columns descending, so the basis itself is in a reduced
    echelon shape with pivots equal to 1.
    """
    rref, pivots = rref_rows(rows, one)
    pivot_set = set(pivots)
    zero = one - one
    basis = []
    for f in range(ncols - 1, -1, -1):
        if f in pivot_set:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for i, p in enumerate(pivots):
            if rref[i][f]:
                vec[p] = -rref[i][f]
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of exact rationals, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        entries = tuple(_as_fraction(e) for e in self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: Optional[int] = None) -> "RationalMatrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        flat = tuple(e for r in rows for e in r)
        return cls(len(rows), cols, flat)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def apply(self, vec: Sequence[Fraction]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        vec = [_as_fraction(x) for x in vec]
        return [sum((a * b for a, b in zip(self.row(i), vec)), Q0) for i in range(self.rows)]


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right kernel; empty iff the kernel is zero."""
    return [tuple(v) for v in kernel_basis_rows(m.row_lists(), m.cols)]


def rank(m: RationalMatrix) -> int:
    return len(rref_rows(m.row_lists())[1])


def solve(m: RationalMatrix, b: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
    """Deterministic solution of m*x = b (free variables 0), or None."""
    if len(b) != m.rows:
        raise ValueError(f"right-hand side has length {len(b)}, expected {m.rows}")
    rref, pivots = rref_rows([row + [_as_fraction(e)] for row, e in zip(m.row_lists(), b)])
    if m.cols in pivots:
        return None
    x = [Q0] * m.cols
    for row, p in zip(rref, pivots):
        x[p] = row[-1]
    return tuple(x)
