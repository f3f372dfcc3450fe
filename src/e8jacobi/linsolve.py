"""Exact integer linear algebra for coefficient matching.

Systems are homogeneous, and an unknown is a column position: a row maps
columns to `int` coefficients.  `construct.system` builds the
construction's rows from integer columns; `coefficient_equations`, which
matches the coefficients of two parametric polynomials, is the reference
they are tested against.  `nullspace` reduces them with `kernels.echelon`
and returns a canonical basis, whatever the order of the rows: reduced
echelon form over the column order, scaled to primitive integer vectors
with positive leading entry, each kept in the rows' sparse form, a dict
of its nonzeros in ascending column order.

`echelonize` and `primitive_vector` take rational vectors; only the test
helpers and the benchmark's span tracer still use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

from .grading import ParamPoly
from .kernels import echelon, echelon_int_rows


@dataclass
class LinearSystem:
    """Homogeneous system in the unknowns 0..n-1: one sparse row
    (column -> int coefficient) per matched monomial coefficient."""

    n: int
    rows: List[Dict[int, int]]


@dataclass
class SolutionSpace:
    """Nullspace basis in reduced echelon form, primitive-integer scaled,
    each vector a {column: int} dict of its nonzeros, columns ascending.

    `rank` is the rank of the system matrix, so rank + len(basis) is the
    number of unknowns.
    """

    basis: List[Dict[int, int]]
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

    Copies of the rows are reduced with column j keyed n - 1 - j, so a
    pivot row has nonzeros only at its pivot and at free columns before
    it in the unknown order.  The solution vector of each free column
    therefore leads with that column and is zero at every other free
    column: the free vectors are already the reduced echelon basis over
    the unknown order.  One pass over the pivot rows' nonzeros, pivot
    columns ascending, lists the rows that meet each free column; its
    vector gets the lcm of their pivots there, after which come those
    rows' pivot columns, and is divided by its content.
    """
    n = sys.n
    pivots = echelon([{n - 1 - j: c for j, c in row.items() if c}
                      for row in sys.rows])
    meets = {f: [] for f in range(n) if n - 1 - f not in pivots}
    for lead, row in sorted(pivots.items(), reverse=True):
        for c, x in row.items():
            if c != lead:
                meets[n - 1 - c].append((n - 1 - lead, row[lead], x))
    basis = []
    for f, rows in meets.items():
        scale = lcm(*(p for _, p, _ in rows))
        vec = {f: scale}
        for c, p, x in rows:
            vec[c] = -x * (scale // p)
        g = gcd(*vec.values())
        basis.append({c: x // g for c, x in vec.items()})
    return SolutionSpace(basis, len(pivots))


def echelonize(vectors: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    """Reduced row echelon form of a rational matrix as primitive integer
    rows with positive leading entry; zero rows dropped, rows ordered by
    leading column."""
    rows = [[int(c * denom) for c in v] for v in vectors
            for denom in [lcm(*(c.denominator for c in v))]]
    pivots = echelon_int_rows(rows, len(rows[0])) if rows else {}
    return [pivots[c] for c in sorted(pivots)]


def primitive_vector(vec: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Scale to coprime integers with positive leading entry."""
    nz = [c for c in vec if c]
    if not nz:
        return tuple(vec)
    denom = lcm(*(c.denominator for c in nz))
    scale = Fraction(denom, gcd(*(int(c * denom) for c in nz)))
    return tuple(c * (scale if nz[0] > 0 else -scale) for c in vec)
