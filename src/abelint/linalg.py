"""Small exact linear algebra over the rationals, on one elimination routine.

`echelon` is fraction-free elimination on integer rows, each row's content
divided out after every update.  Its result, an integer echelon, has
primitive rows, each positive at its pivot and zero at every other pivot
column, so a span has exactly one.  Dividing each row by its pivot entry
gives the canonical reduced row echelon form.  The exact side keeps its
spans as integer echelons (`echelon`, `kernel_echelon`, `in_echelon`) until
they are output, through `integer_rows` in and `to_fractions` out.  `rref`,
`nullspace` and `in_span` wrap those routines for rows of ints, Fractions
or anything `Fraction` accepts, and check the rows' shape.

`echelon` runs one forward pass, which clears the rows below each pivot,
and then one back substitution from the last pivot upward.  Its pivot row
is the first with a nonzero entry in the column, unless that entry is wider
than `_NARROW_BITS` bits: then it is the candidate row with the fewest bits
in all, which keeps the intermediate integers small, while the many small
matrices pay no more than one `bit_length` per pivot.  The choice cannot
change the result: the span fixes the pivot columns, and with them its one
integer echelon.

`kernel_echelon` first tries to prove the kernel zero with one elimination
modulo the prime p = 2^61 - 1 (`_full_rank_mod_p`), when there are at least
as many rows as columns.  Full rank modulo p is full rank over Q: a maximal
minor that is nonzero modulo p is a nonzero integer.  The test proves only
zero kernels and reconstructs nothing, so every nonzero kernel, and every
matrix whose rank drops modulo p, takes the exact elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError

Row = list[Fraction]
Matrix = list[Row]
IntRow = list[int]
_ZERO = Fraction(0)
_PRIME = 2 ** 61 - 1
_NARROW_BITS = 16


def _width(rows, ncols: int | None = None) -> int:
    """The rows' common length, which must be `ncols` if that is given."""
    width = len(rows[0]) if rows else (ncols or 0)
    if ncols not in (None, width) or any(len(row) != width for row in rows):
        raise InputError(f"row lengths {sorted({len(r) for r in rows})} do not "
                         f"match {width if ncols is None else ncols} columns")
    return width


def _primitive(row: IntRow) -> IntRow:
    """The integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def integer_rows(rows: Matrix) -> list[IntRow]:
    """Each row scaled to primitive integers, which keeps every span."""
    out = []
    for row in rows:
        fr = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in row]
        den = lcm(*(x.denominator for x in fr))
        out.append(_primitive([x.numerator * (den // x.denominator) for x in fr]))
    return out


def echelon(rows: list[IntRow]) -> tuple[list[IntRow], list[int]]:
    """The integer echelon of the span of integer rows, and its pivot
    columns, by a forward pass on the narrowest pivot row and one back
    substitution; every row is primitive after every update.  The rows
    given are not changed.  The two updates are written out, not shared:
    most calls are a few narrow rows, where a call per pivot would cost
    more than the arithmetic."""
    m = [_primitive(row) for row in rows]
    n = len(m)
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == n:
            break
        below = [i for i in range(r, n) if m[i][c]]
        if not below:
            continue
        p = below[0]
        if m[p][c].bit_length() > _NARROW_BITS:
            p = min(below, key=lambda i: sum(map(int.bit_length, m[i])))
        m[r], m[p] = m[p], m[r]
        prow = m[r]
        pv = prow[c]
        for i in below:
            if i != p:
                i = p if i == r else i      # the swap moved row r to p
                f = m[i][c]
                m[i] = _primitive([pv * a - f * b for a, b in zip(m[i], prow)])
        pivots.append(c)
    for r in range(len(pivots) - 1, 0, -1):
        prow = m[r]
        c = pivots[r]
        pv = prow[c]
        for i in range(r):
            f = m[i][c]
            if f:
                m[i] = _primitive([pv * a - f * b for a, b in zip(m[i], prow)])
    return ([row if row[c] > 0 else [-x for x in row] for row, c in zip(m, pivots)],
            pivots)


def _annihilator(reduced: list[IntRow], pivots: list[int],
                ncols: int) -> tuple[list[IntRow], list[int]]:
    """Basis of {v : A v = 0} for an echelon A, and A's free columns: for
    each free column f, the primitive multiple of e_f - sum_r (A[r][f] /
    A[r][pivots[r]]) e_{pivots[r]} that is positive at f."""
    taken = set(pivots)
    free = [c for c in range(ncols) if c not in taken]
    basis = []
    for fc in free:
        terms = [(row[fc], row[pc], pc) for row, pc in zip(reduced, pivots) if row[fc]]
        scale = lcm(*(pv for _, pv, _ in terms))
        v = [0] * ncols
        v[fc] = scale
        for x, pv, pc in terms:
            v[pc] = -x * (scale // pv)
        basis.append(_primitive(v))
    return basis, free


def _full_rank_mod_p(rows: list[IntRow], ncols: int) -> bool:
    """Whether the integer rows have rank ncols modulo `_PRIME`, by
    elimination in the prime field.  Each step drops the pivot row and
    the pivot column, and the test stops at the first column with no
    pivot."""
    m = [[x % _PRIME for x in row] for row in rows]
    for _ in range(ncols):
        i = next((i for i, row in enumerate(m) if row[0]), None)
        if i is None:
            return False
        prow = m.pop(i)
        inv = pow(prow[0], -1, _PRIME)
        prow = prow[1:]
        m = [[(a - f * b) % _PRIME for a, b in zip(row[1:], prow)]
             if (f := row[0] * inv % _PRIME) else row[1:] for row in m]
    return True


def kernel_echelon(rows: list[IntRow], ncols: int) -> tuple[list[IntRow], list[int]]:
    """The integer echelon of {v : A v = 0}, from one elimination: with A's
    columns reversed, each echelon row is nonzero only at its pivot and at
    free columns left of it (in A's order), so each `_annihilator` row is
    nonzero only at its own free column and at pivot columns right of it.
    They are already an echelon, with the free columns as pivots.  A
    matrix with at least ncols rows that has full rank modulo `_PRIME`
    returns the zero kernel without the exact elimination."""
    if len(rows) >= ncols and _full_rank_mod_p(rows, ncols):
        return [], []
    reduced, pivots = echelon([row[::-1] for row in rows])
    return _annihilator([row[::-1] for row in reduced],
                       [ncols - 1 - c for c in pivots], ncols)


def in_echelon(reduced: list[IntRow], pivots: list[int], v: IntRow) -> bool:
    """Whether the integer row v lies in the span of an echelon: iff
    s v = sum_r v[pivots[r]] (s / reduced[r][pivots[r]]) reduced[r] with s
    the lcm of those pivot entries, checked up to the first mismatch."""
    terms = [(v[c], row[c], row) for row, c in zip(reduced, pivots) if v[c]]
    scale = lcm(*(pv for _, pv, _ in terms))
    terms = [(x * (scale // pv), row) for x, pv, row in terms]
    return all(sum(f * row[j] for f, row in terms if row[j]) == scale * x
               for j, x in enumerate(v))


def to_fractions(rows: list[IntRow], pivots: list[int]) -> Matrix:
    """Each integer row divided by its entry at its pivot column: for an
    echelon, the canonical reduced row echelon form."""
    return [[Fraction(x, row[c]) if x else _ZERO for x in row]
            for row, c in zip(rows, pivots)]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns.  Entries may be
    ints, Fractions or anything `Fraction` accepts."""
    _width(rows)
    reduced, pivots = echelon(integer_rows(rows))
    return to_fractions(reduced, pivots), pivots


def nullspace(rows: Matrix, ncols: int | None = None) -> Matrix:
    """Basis of {v : A v = 0}, one vector per free column f, which is 1 at
    f and 0 at the other free columns."""
    ncols = _width(rows, ncols)
    return to_fractions(*_annihilator(*echelon(integer_rows(rows)), ncols))


def in_span(basis: Matrix, v: Row) -> bool:
    """Whether v lies in the row space of `basis`."""
    _width(basis, len(v))
    return in_echelon(*echelon(integer_rows(basis)), integer_rows([v])[0])
