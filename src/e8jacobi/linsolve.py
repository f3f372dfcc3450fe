"""Exact integer linear algebra for coefficient matching.

Systems are homogeneous, and an unknown is a column position: a row maps
columns to `int` coefficients.  Rows are row-reduced fraction-free by
`kernels.echelon_int_rows`, the only elimination routine, and `nullspace`
builds its basis from the pivot rows in integers.  All output bases are
canonical: reduced echelon form over the column order, scaled to
primitive integer vectors with positive leading entry.

`echelonize` and `primitive_vector` take rational vectors; only the test
helpers and the benchmark's span tracer still use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

from .grading import ParamPoly
from .kernels import echelon_int_rows


@dataclass
class LinearSystem:
    """Homogeneous system in the unknowns 0..n-1: one sparse row
    (column -> int coefficient) per matched monomial coefficient."""

    n: int
    rows: List[Dict[int, int]]


@dataclass
class SolutionSpace:
    """Nullspace basis in reduced echelon form, primitive-integer scaled.

    `rank` is the rank of the system matrix, so rank + len(basis) is the
    number of unknowns.
    """

    basis: List[Tuple[int, ...]]
    rank: int

    @property
    def dimension(self) -> int:
        return len(self.basis)


def coefficient_equations(lhs: ParamPoly,
                          rhs: ParamPoly) -> List[Dict[int, int]]:
    rows = []
    for mon in sorted(set(lhs.terms) | set(rhs.terms), reverse=True):
        row = dict(lhs.terms.get(mon, {}))
        for j, c in rhs.terms.get(mon, {}).items():
            s = row.get(j, 0) - c
            if s:
                row[j] = s
            else:
                row.pop(j, None)
        if row:
            rows.append(row)
    return rows


def nullspace(sys: LinearSystem) -> SolutionSpace:
    """Exact reduced basis of the solution space, deterministic.

    The rows are reduced in reversed column order (column j at dense
    position n - 1 - j), so a pivot row has nonzeros only at its pivot and
    at columns before it in the unknown order.  The solution vector of each free column therefore leads with
    that column and is zero at every other free column: the free vectors
    are already the reduced echelon basis over the unknown order.  Each
    one is built in integers: the free column gets the lcm of the pivots
    it meets, and the whole vector is divided by its content.
    """
    n = sys.n
    dense = []
    for row in sys.rows:
        dense.append([0] * n)
        for j, c in row.items():
            dense[-1][n - 1 - j] = c
    pivots = {n - 1 - c: row[::-1] for c, row in
              echelon_int_rows(dense, n).items()}
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        deps = [(c, row) for c, row in pivots.items() if row[f]]
        scale = lcm(*(row[c] for c, row in deps))
        vec = [0] * n
        vec[f] = scale
        for c, row in deps:
            vec[c] = -row[f] * (scale // row[c])
        g = gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return SolutionSpace(basis, len(pivots))


def echelonize(vectors: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    """Reduced row echelon form of a rational matrix as primitive integer
    rows with positive leading entry; zero rows dropped, rows ordered by
    leading column."""
    rows = []
    for v in vectors:
        denom = lcm(*(c.denominator for c in v))
        rows.append([int(c * denom) for c in v])
    if not rows:
        return []
    pivots = echelon_int_rows(rows, len(rows[0]))
    return [pivots[c] for c in sorted(pivots)]


def primitive_vector(vec: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Scale to coprime integers with positive leading entry."""
    nz = [c for c in vec if c]
    if not nz:
        return tuple(vec)
    denom = lcm(*(c.denominator for c in nz)) if len(nz) > 1 \
        else nz[0].denominator
    ints = [c * denom for c in vec]
    g = 0
    for c in ints:
        g = gcd(g, abs(int(c)))
    scale = Fraction(denom, g)
    if nz[0] < 0:
        scale = -scale
    return tuple(c * scale for c in vec)
