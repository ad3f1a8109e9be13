"""Small exact linear algebra over the rationals.

Matrices are lists of rows, rows are lists of Fractions.  All routines are
deterministic (first-nonzero pivoting) so reduced bases are canonical and
can be compared for equality across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError

Row = list[Fraction]
Matrix = list[Row]
_ZERO = Fraction(0)


def _width(rows: Matrix, ncols: int | None = None) -> int:
    """The rows' common length, which must be `ncols` if that is given."""
    width = len(rows[0]) if rows else (ncols or 0)
    if ncols not in (None, width) or any(len(row) != width for row in rows):
        raise InputError(f"row lengths {sorted({len(r) for r in rows})} do not "
                         f"match {width if ncols is None else ncols} columns")
    return width


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns.

    Each row is scaled to integers and eliminated fraction-free (Bareiss,
    with the row's content divided out after each update); Fractions are
    formed only at the end, by dividing each pivot row by its pivot.
    Entries may be ints, Fractions or anything `Fraction` accepts.
    """
    ncols = _width(rows)
    m = []
    for row in rows:
        fr = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in row]
        den = lcm(*(x.denominator for x in fr))
        m.append(_primitive([x.numerator * (den // x.denominator) for x in fr]))
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
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
    ncols = _width(rows, ncols)
    return nullspace_of_rref(*rref(rows), ncols)


def nullspace_of_rref(reduced: Matrix, pivots: list[int], ncols: int) -> Matrix:
    """`nullspace` of a matrix whose `rref` is (reduced, pivots): for each
    free column f, the vector e_f - sum_r reduced[r][f] e_{pivots[r]}."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def kernel(rows: Matrix, ncols: int) -> Matrix:
    """Reduced row echelon basis of {v : A v = 0}, from one elimination:
    with A's columns reversed, each pivot row is nonzero only at its pivot
    and at free columns left of it, so the `nullspace_of_rref` vectors (1 at
    their own free column, 0 at the others) are already reduced."""
    ncols = _width(rows, ncols)
    reduced, pivots = rref([row[::-1] for row in rows])
    return nullspace_of_rref([row[::-1] for row in reduced],
                             [ncols - 1 - c for c in pivots], ncols)


def in_rref_span(reduced: Matrix, pivots: list[int], v: Row) -> bool:
    """Whether v lies in the span of an `rref` result: iff v equals
    sum_r v[pivots[r]] reduced[r], checked up to the first mismatch."""
    _width([v], len(reduced[0]) if reduced else None)
    terms = [(v[c], row) for row, c in zip(reduced, pivots) if v[c]]
    return all(sum(f * row[j] for f, row in terms if row[j]) == x
               for j, x in enumerate(v))


def in_span(basis: Matrix, v: Row) -> bool:
    """Whether v lies in the row space of `basis`."""
    _width(basis, len(v))
    return in_rref_span(*rref(basis), v)


def same_span(a: Matrix, b: Matrix) -> bool:
    return row_space_basis(a) == row_space_basis(b)


def solve_in_span(basis: Matrix, v: Row) -> Row | None:
    """Coefficients c with sum_i c_i basis_i = v, or None.

    Solved by eliminating the augmented system [basis^T | v].
    """
    ncols = _width(basis, len(v))
    aug = [[basis[i][r] for i in range(len(basis))] + [v[r]] for r in range(ncols)]
    reduced, pivots = rref(aug)
    k = len(basis)
    if k in pivots:       # v had a component outside the span
        return None
    coeffs = [Fraction(0)] * k
    for r, pc in enumerate(pivots):
        coeffs[pc] = reduced[r][k]
    return coeffs
