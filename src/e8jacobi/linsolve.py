"""Exact rational linear algebra for coefficient matching.

Systems are homogeneous.  Rows are cleared of denominators and
row-reduced fraction-free by `kernels.echelon_int_rows`, the only
elimination routine.  All output bases are canonical: reduced echelon
form over the unknown order, scaled to primitive integer vectors with
positive leading entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from .grading import ParamPoly
from .kernels import echelon_int_rows


@dataclass
class LinearSystem:
    """Homogeneous system: one sparse row (name -> coefficient) per
    matched monomial coefficient."""

    unknowns: Tuple[str, ...]
    rows: List[Dict[str, Fraction]] = field(default_factory=list)

    def extend(self, rows: Iterable[Dict[str, Fraction]]):
        self.rows.extend(rows)


@dataclass
class SolutionSpace:
    """Nullspace basis in reduced echelon form, primitive-integer scaled.

    `rank` is the rank of the system matrix, so
    rank + len(basis) == len(unknowns).
    """

    unknowns: Tuple[str, ...]
    basis: List[Tuple[Fraction, ...]]
    rank: int

    @property
    def dimension(self) -> int:
        return len(self.basis)


def coefficient_equations(lhs: ParamPoly, rhs: ParamPoly) -> List[Dict[str, Fraction]]:
    rows = []
    for mon in sorted(set(lhs.terms) | set(rhs.terms), reverse=True):
        row = dict(lhs.terms.get(mon, {}))
        for name, c in rhs.terms.get(mon, {}).items():
            s = row.get(name, Fraction(0)) - c
            if s:
                row[name] = s
            else:
                row.pop(name, None)
        if row:
            rows.append(row)
    return rows


def _integer_rows(sys: LinearSystem) -> List[List[int]]:
    """Dense integer rows, columns in reversed unknown order, duplicates
    dropped."""
    n = len(sys.unknowns)
    pos = {name: n - 1 - i for i, name in enumerate(sys.unknowns)}
    out = []
    seen = set()
    for row in sys.rows:
        if not row:
            continue
        denom = lcm(*(c.denominator for c in row.values()))
        dense = [0] * n
        for name, c in row.items():
            dense[pos[name]] = int(c * denom)
        key = tuple(dense)
        if key not in seen:
            seen.add(key)
            out.append(dense)
    return out


def nullspace(sys: LinearSystem) -> SolutionSpace:
    """Exact reduced basis of the solution space, deterministic.

    The rows are reduced in reversed column order, so a pivot row has
    nonzeros only at its pivot and at columns before it in the unknown
    order.  The solution vector of each free column therefore leads with
    a 1 at that column and is zero at every other free column: the free
    vectors are already the reduced echelon basis over the unknown order.
    """
    n = len(sys.unknowns)
    pivots = {n - 1 - c: row[::-1] for c, row in
              echelon_int_rows(_integer_rows(sys), n).items()}
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for c, row in pivots.items():
            if row[f]:
                vec[c] = Fraction(-row[f], row[c])
        basis.append(primitive_vector(vec))
    return SolutionSpace(sys.unknowns, basis, len(pivots))


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
