"""Root-of-unity pairings and invariant subspaces of the cycle space.

For a degree-n polynomial whose monodromy contains the standard cycle,
the irreducible invariant subspaces of Q^n are indexed by the divisor
lattice: U_d is the part of the d-periodic subspace V_d orthogonal to all
covered V_d'.  Membership of a cycle's invariant span is decided exactly
through pairings with the Fourier vectors w_k, reduced to a cyclotomic
divisibility test; no complex arithmetic is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from .cycles import CycleVector
from .errors import ConsistencyError, InputError
from .monodromy import DivisorLattice
from .ratpoly import cyclotomic_remainder


def pairing_is_zero(v: CycleVector, k: int) -> bool:
    """Whether sum_i v_i eps_n^{(i-1)k} vanishes, decided exactly.

    The sum is rewritten as u(eps_n) for u(x) = sum_i v_i x^{((i-1)k) mod n},
    and u(eps_n) = 0 iff the n-th cyclotomic polynomial divides u: with v's
    denominators cleared, iff u's integer remainder modulo Phi_n is zero.
    """
    n = v.n
    if not 1 <= k <= n:
        raise InputError(f"pairing index must lie in 1..{n}")
    den = lcm(*(vi.denominator for vi in v.v))
    coeffs = [0] * n
    for i, vi in enumerate(v.v):
        coeffs[(i * k) % n] += vi.numerator * (den // vi.denominator)
    return not any(cyclotomic_remainder(n, coeffs))


@dataclass(frozen=True)
class FourierIndexSet:
    """Indices r in 1..n whose Fourier vectors w_r span (the
    complexification of) the irreducible subspace attached to divisor d."""
    n: int
    d: int
    psi: frozenset[int]

    def __post_init__(self):
        n, d = self.n, self.d
        for r in self.psi:
            if not 1 <= r <= n or r % (n // d) != 0:
                raise ConsistencyError(f"bad Fourier index {r} for d={d}, n={n}")
            conj = n - r if r != n else n
            if conj not in self.psi:
                raise ConsistencyError("Fourier index set not conjugation-closed")


def psi_set(d: int, lattice: DivisorLattice) -> FourierIndexSet:
    """Indices r with (n/d) | r but (n/d') does not divide r for any d'
    covered by d."""
    lattice.require_member(d)
    n = lattice.n
    step = n // d
    psi = set()
    for r in range(step, n + 1, step):
        if all(r % (n // dt) != 0 for dt in lattice.covered_by(d)):
            psi.add(r)
    return FourierIndexSet(n=n, d=d, psi=frozenset(psi))


def v_d_basis(d: int, n: int) -> list[CycleVector]:
    """The standard basis e_{k,d} of the d-periodic subspace V_d."""
    if n % d != 0:
        raise InputError("d must divide n")
    out = []
    for k in range(1, d + 1):
        v = [Fraction(1) if (i - k) % d == 0 else Fraction(0)
             for i in range(1, n + 1)]
        out.append(CycleVector(n, tuple(v)))
    return out


@dataclass(frozen=True)
class SubspaceDecomposition:
    """The divisors whose irreducible subspaces make up the invariant span
    of a cycle, with their dimensions."""
    components: frozenset[int]
    dims: dict[int, int]


def decompose_v_delta(v: CycleVector, lattice: DivisorLattice) -> SubspaceDecomposition:
    """Irreducible components of the invariant subspace generated by v:
    U_d enters iff some r in Psi_d pairs nonzero with v."""
    components = set()
    dims = {}
    for d in lattice.members:
        psi = psi_set(d, lattice)
        dims[d] = len(psi.psi)
        if any(not pairing_is_zero(v, r) for r in sorted(psi.psi)):
            components.add(d)
    return SubspaceDecomposition(components=frozenset(components), dims=dims)


def _covered_rows(d: int, lattice: DivisorLattice) -> list[list[int]]:
    """The basis vectors of every covered V_d', in V_d's own e_{j,d}
    coordinates: for d' | d, <e_{k,d'}, e_{j,d}> = (n/d) [j = k mod d'], so
    e_{k,d'} is the 0/1 row with a 1 at each j = k mod d' (indices from 0
    here)."""
    return [[int(j % dt == k) for j in range(d)]
            for dt in lattice.covered_by(d) for k in range(dt)]


def u_d_dimension_table(lattice: DivisorLattice) -> dict[int, int]:
    """dim U_d = |Psi_d| per member, cross-checked by exact linear algebra
    (dim U_d = dim V_d - dim of the sum of the covered V_d' inside V_d)."""
    n = lattice.n
    table = {}
    for d in lattice.members:
        fourier_dim = len(psi_set(d, lattice).psi)
        algebra_dim = d - len(linalg.echelon(_covered_rows(d, lattice))[1])
        if algebra_dim != fourier_dim:
            raise ConsistencyError(
                f"dimension mismatch for d={d}: Fourier {fourier_dim}, "
                f"kernel {algebra_dim}")
        table[d] = fourier_dim
    if sum(table.values()) != n:
        raise ConsistencyError("Psi dimensions do not sum to n")
    return table


def u_d_rational_basis(d: int, lattice: DivisorLattice) -> list[CycleVector]:
    """Exact rational basis of U_d = V_d intersect (sum of covered V_d')^perp:
    the vectors of V_d, in the e_{k,d} coordinates, orthogonal to every
    covered row, each spread as v_i = c_(i mod d)."""
    n = lattice.n
    return [CycleVector(n, tuple(c[i % d] for i in range(n)))
            for c in linalg.nullspace(_covered_rows(d, lattice), d)]
