"""Small exact linear algebra over the rationals.

Matrices are lists of rows, rows are lists of Fractions.  All routines are
deterministic (first-nonzero pivoting) so reduced bases are canonical and
can be compared for equality across runs.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]
Matrix = list[Row]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns."""
    m = [[Fraction(c) for c in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r] + [row for row in m[r:] if any(x != 0 for x in row)], pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[0]) if rows else 0


def row_space_basis(rows: Matrix) -> Matrix:
    """Canonical basis (rref rows) of the span of the given rows."""
    reduced, _ = rref(rows)
    return reduced


def nullspace(rows: Matrix, ncols: int | None = None) -> Matrix:
    """Basis of {v : A v = 0}, one vector per free column, deterministic."""
    if not rows:
        if ncols is None:
            return []
        return [[Fraction(1 if i == j else 0) for i in range(ncols)]
                for j in range(ncols)]
    ncols = ncols if ncols is not None else len(rows[0])
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
    if all(x == 0 for x in v):
        return True
    if not basis:
        return False
    return not any(reduce_row(*rref(basis), v))


def same_span(a: Matrix, b: Matrix) -> bool:
    return row_space_basis(a) == row_space_basis(b)


def solve_in_span(basis: Matrix, v: Row) -> Row | None:
    """Coefficients c with sum_i c_i basis_i = v, or None.

    Solved by eliminating the augmented system [basis^T | v].
    """
    if not basis:
        return [] if all(x == 0 for x in v) else None
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
