"""Small exact linear algebra over the rationals.

Matrices are lists of rows, rows are lists of Fractions.  All routines are
deterministic (first-nonzero pivoting) so reduced bases are canonical and
can be compared for equality across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = list[Fraction]
Matrix = list[Row]
_ZERO = Fraction(0)


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns.

    Each row is scaled to integers and eliminated fraction-free (Bareiss,
    with the row's content divided out after each update); Fractions are
    formed only at the end, by dividing each pivot row by its pivot.
    """
    m = []
    for row in rows:
        fr = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in row]
        den = lcm(*(x.denominator for x in fr))
        m.append(_primitive([x.numerator * (den // x.denominator) for x in fr]))
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([pv * a - f * b for a, b in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [[Fraction(x, row[c]) if x else _ZERO for x in row]
            for row, c in zip(m, pivots)], pivots


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rank(rows: Matrix) -> int:
    return len(rref(rows)[0])


def row_space_basis(rows: Matrix) -> Matrix:
    """Canonical basis (rref rows) of the span of the given rows."""
    reduced, _ = rref(rows)
    return reduced


def nullspace(rows: Matrix, ncols: int | None = None) -> Matrix:
    """Basis of {v : A v = 0}, one vector per free column, deterministic."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def reduce_row(reduced: Matrix, pivots: list[int], v: Row) -> Row:
    """Remainder of v after elimination against a reduced row echelon
    basis (as returned by `rref`); it is zero iff v lies in the span."""
    for row, c in zip(reduced, pivots):
        f = v[c]
        if f != 0:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def in_span(basis: Matrix, v: Row) -> bool:
    """Whether v lies in the row space of `basis`."""
    return not any(reduce_row(*rref(basis), v))


def same_span(a: Matrix, b: Matrix) -> bool:
    return row_space_basis(a) == row_space_basis(b)


def solve_in_span(basis: Matrix, v: Row) -> Row | None:
    """Coefficients c with sum_i c_i basis_i = v, or None.

    Solved by eliminating the augmented system [basis^T | v].
    """
    ncols = len(v)
    aug = [[basis[i][r] for i in range(len(basis))] + [v[r]] for r in range(ncols)]
    reduced, pivots = rref(aug)
    k = len(basis)
    if k in pivots:       # v had a component outside the span
        return None
    coeffs = [Fraction(0)] * k
    for r, pc in enumerate(pivots):
        coeffs[pc] = reduced[r][k]
    return coeffs
