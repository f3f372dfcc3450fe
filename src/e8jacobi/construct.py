"""End-to-end construction of Weyl invariant E8 weak Jacobi forms.

The pipeline for a given (weight, index): build the most general
polynomial ansatz over the meromorphic alphabet, push it through the
substitution to the holomorphic side, clear the Delta denominator, split
off the E4-denominator parts, demand that each such part be the matching
power of the distinguished weight-16 index-5 form times an E4-free
polynomial, and solve the resulting homogeneous linear system exactly.
Each surviving basis form carries a certificate witnessing membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .ansatz import build_ansatz, enumerate_monomials
from .generators import (ParamFrac, e4_split, p16_5, sub_ab_to_AB)
from .grading import (AB, BiDegree, Frac, ParamPoly, Poly, S_ALPHABET, ab,
                      delta_poly)
from .kernels import echelon_int_rows
from .linsolve import LinearSystem, coefficient_equations, nullspace

SCHEMA_VERSION = 1


class ConsistencyError(RuntimeError):
    """An internal mathematical invariant failed; results are unusable."""


@dataclass(frozen=True)
class Certificate:
    """Witness that Delta^n * (form over AB) = sum_l P^l S_l / E4^l + R,
    with P the weight-16 index-5 form and every S_l free of E4."""

    n: int
    s_parts: Tuple[Tuple[int, Poly], ...]   # (l, S_l over the E4-free alphabet)
    remainder: Poly                          # R over AB


@dataclass(frozen=True)
class Rejection:
    """Divisibility failure at the given denominator power: the input is
    in the ambient polynomial algebra but is not a Jacobi form."""

    failing_l: int


@dataclass
class JacobiBasis:
    target: BiDegree
    forms: List[Poly]                 # echelonized, primitive-integer, over ab
    certificates: List[Certificate]

    @property
    def dimension(self) -> int:
        return len(self.forms)


_BASIS_CACHE: Dict[Tuple[int, int], JacobiBasis] = {}
_DISK_STORE = None


def set_disk_store(store) -> None:
    """Install a persistent store (see e8jacobi.cache); None disables."""
    global _DISK_STORE
    _DISK_STORE = store


def seed_cache(k: int, m: int, basis: JacobiBasis) -> None:
    _BASIS_CACHE.setdefault((k, m), basis)


def clear_cache() -> None:
    _BASIS_CACHE.clear()


def jacobi_basis(k: int, m: int) -> JacobiBasis:
    """All weak Jacobi forms of the given weight and index, with
    certificates; empty basis when none exist."""
    if m < 0:
        raise ValueError("index must be >= 0")
    key = (k, m)
    cached = _BASIS_CACHE.get(key)
    if cached is not None:
        return cached
    if _DISK_STORE is not None:
        stored = _DISK_STORE.load(k, m)
        if stored is not None:
            _BASIS_CACHE[key] = stored
            return stored
    basis = _compute_basis(k, m)
    _BASIS_CACHE[key] = basis
    if _DISK_STORE is not None:
        _DISK_STORE.save(k, m, basis)
    return basis


def _compute_basis(k: int, m: int) -> JacobiBasis:
    target = BiDegree(k, m)
    ansatz = build_ansatz(ab, target)
    if ansatz.is_zero():
        return JacobiBasis(target, [], [])

    pf = sub_ab_to_AB(ansatz)
    if not isinstance(pf, ParamFrac):
        raise ConsistencyError("parametric substitution returned %s"
                               % type(pf).__name__)
    n = pf.delta_pow
    p = pf.e4_pow
    # Delta^n * ansatz = num / (L * E4^p).  Clearing the common denominator
    # L here makes every later linear form integer; the S_l columns absorb L.
    L = lcm(*(c.denominator for lf in pf.num.terms.values()
              for c in lf.values()))
    num = ParamPoly(AB, {mon: {j: c.numerator * (L // c.denominator)
                               for j, c in lf.items()}
                         for mon, lf in pf.num.terms.items()})
    qs, remainder = e4_split(ParamFrac(num, p, 0))

    # Columns: the c-block of the ansatz, then each nonempty S_l block.
    n_c = len(ansatz.terms)
    n_cols = n_c
    rows = []
    sl_ansatze: Dict[int, ParamPoly] = {}
    p165 = p16_5()
    for l in range(1, p + 1):
        sl = build_ansatz(S_ALPHABET,
                          BiDegree(k + 12 * n - 12 * l, m - 5 * l), n_cols)
        q_l = qs[l - 1] if l <= len(qs) else ParamPoly.zero(AB)
        rhs = ParamPoly.zero(AB)
        if not sl.is_zero():
            sl_ansatze[l] = sl
            n_cols += len(sl.terms)
            rhs = sl.map_alphabet(AB).mul_poly(p165 ** l)
        rows.extend(coefficient_equations(q_l, rhs))
    space = nullspace(LinearSystem(n_cols, rows))

    forms: List[Poly] = []
    certificates: List[Certificate] = []
    for vec in space.basis:
        # d is determined by c, so a solution vanishing on the c-block
        # means the projection onto c would lose dimensions.
        g = gcd(*vec[:n_c])
        if not g:
            raise ConsistencyError(
                "nullspace vector independent of the ansatz coefficients "
                "at weight %d index %d" % (k, m))
        # vec leads with a positive entry in the c-block, so the form
        # c / g is primitive with positive leading coefficient.
        forms.append(ansatz.substitute(vec).scale(Fraction(1, g)))
        scale = Fraction(1, g * L)
        s_parts = []
        for l, sl in sorted(sl_ansatze.items()):
            s_l = sl.substitute(vec).scale(scale)
            if not s_l.is_zero():
                s_parts.append((l, s_l))
        certificates.append(Certificate(n, tuple(s_parts),
                                        remainder.substitute(vec).scale(scale)))
    return JacobiBasis(target, forms, certificates)


def jacobi_dim(k: int, m: int) -> int:
    return jacobi_basis(k, m).dimension


def certify(form: Poly) -> Union[Certificate, Rejection]:
    """Run the membership construction on one concrete polynomial over ab.

    Succeeds iff every E4-denominator part is exactly divisible by the
    matching power of the weight-16 index-5 form; a Rejection names the
    first failing denominator power.
    """
    form.bidegree()  # raises on inhomogeneous input
    frac = sub_ab_to_AB(form)
    if not isinstance(frac, Frac):
        raise ConsistencyError("concrete substitution returned %s"
                               % type(frac).__name__)
    n = frac.delta_pow
    p = frac.e4_pow
    qs, remainder = e4_split(Frac(frac.num, p, 0))
    p165 = p16_5()
    s_parts = []
    power = Poly.const(AB, 1)
    for l in range(1, len(qs) + 1):
        power = power * p165
        q_l = qs[l - 1]
        if q_l.is_zero():
            continue
        s_l = q_l.divexact(power)
        if s_l is None:
            return Rejection(l)
        s_parts.append((l, s_l.map_alphabet(S_ALPHABET)))
    return Certificate(n, tuple(s_parts), remainder)


def certificate_identity(form: Poly, cert: Certificate) -> bool:
    """Exact re-check: Delta^n * image(form) == sum_l P^l S_l / E4^l + R.

    Delta is prime to the normalized numerator of the image, so Delta^n
    cancels min(n, q) of the denominator's Delta^q and the left side is
    already normalized, with no trial division.
    """
    if cert.n < 0:
        raise ValueError("certificate Delta power must be >= 0")
    frac = sub_ab_to_AB(form)
    if cert.n <= frac.delta_pow:
        lhs = Frac(frac.num, frac.e4_pow, frac.delta_pow - cert.n)
    else:
        lhs = Frac(frac.num * delta_poly(AB) ** (cert.n - frac.delta_pow),
                   frac.e4_pow, 0)
    rhs = Frac.normalized(cert.remainder, 0, 0)
    p165 = p16_5()
    for l, s_l in cert.s_parts:
        rhs = rhs + Frac.normalized(p165 ** l * s_l.map_alphabet(AB), l, 0)
    return lhs == rhs


def rank_series(m: int) -> int:
    """Rank of the free module of index-m forms over the modular forms."""
    return _rank_series_coeffs(m)[m]


@lru_cache(maxsize=None)
def _rank_series_coeffs(limit: int) -> Tuple[int, ...]:
    # product of 1/(1-x^d) over the generator index multiset
    degrees = [1, 2, 2, 3, 3, 4, 4, 5, 6]
    coeffs = [1] + [0] * limit
    for d in degrees:
        for i in range(d, limit + 1):
            coeffs[i] += coeffs[i - d]
    return tuple(coeffs)


@dataclass
class IndexProfile:
    index: int
    d: Dict[int, int]      # weight -> generator count (nonzero entries)
    dims: Dict[int, int]   # weight -> dim of the weight-k index-m space


def _weight_window(m: int) -> Tuple[int, int]:
    # forms of index m have weight >= -5m; for m >= 2 all generators have
    # non-positive weight, for m <= 1 the single generator sits at weight 4
    return (-5 * m, 0 if m >= 2 else 4)


def index_profile(m: int,
                  window: Optional[Tuple[int, int]] = None) -> IndexProfile:
    if m < 1:
        raise ValueError("index must be >= 1")
    # all generator weights are even, so odd weights carry no monomials
    if any(d.weight % 2 for d in ab.degrees):
        raise ConsistencyError("generator of odd weight in the alphabet")
    lo, hi = window if window is not None else _weight_window(m)
    start = lo + (lo % 2)
    dims = {k: jacobi_dim(k, m) for k in range(start, hi + 1, 2)}

    def dim_at(k: int) -> int:
        if k < lo or k % 2:
            return 0
        if k > hi:
            raise ConsistencyError("weight window too small")
        return dims.get(k, 0)

    d = {}
    total = 0
    for k in range(start, hi + 1, 2):
        count = dim_at(k) - dim_at(k - 4) - dim_at(k - 6) + dim_at(k - 10)
        if count < 0:
            raise ConsistencyError(
                "negative generator count at weight %d index %d" % (k, m))
        if count:
            d[k] = count
            total += count
    if total != rank_series(m):
        raise ConsistencyError(
            "generator count %d does not match module rank %d at index %d"
            % (total, rank_series(m), m))
    return IndexProfile(m, d, dims)


def _coefficient_vector(form: Poly, mons: Sequence[tuple]) -> List[int]:
    """The coefficients of `form` at `mons`, as ints: basis forms and
    their products are primitive integer polynomials."""
    vec = [0] * len(mons)
    pos = {mon: i for i, mon in enumerate(mons)}
    for mon, c in form.terms.items():
        if c.denominator != 1:
            raise ConsistencyError("non-integral coefficient %s" % c)
        vec[pos[mon]] = c.numerator
    return vec


def _span(forms: List[Poly], mons: Sequence[tuple]) -> Dict[int, List[int]]:
    """The span of `forms` as `echelon_int_rows` pivot rows."""
    return echelon_int_rows([_coefficient_vector(f, mons) for f in forms],
                            len(mons))


def _complement(candidates: List[Poly], span: Dict[int, List[int]],
                mons: Sequence[tuple]) -> List[Poly]:
    """Members of `candidates` extending the span, reduced and primitive:
    a candidate is new exactly when it adds a pivot to the span's pivot
    rows, and the new pivot row is the candidate reduced against them."""
    out = []
    for form in candidates:
        grown = echelon_int_rows(
            [*span.values(), _coefficient_vector(form, mons)], len(mons))
        if len(grown) > len(span):
            (lead,) = grown.keys() - span.keys()
            out.append(Poly(ab, {mon: Fraction(c) for mon, c
                                 in zip(mons, grown[lead]) if c}))
            span = grown
    return out


def module_generators(m: int, window: Optional[Tuple[int, int]] = None
                      ) -> List[Tuple[int, List[Poly]]]:
    """Generators of the free module of index-m forms, weight ascending:
    at each weight, a basis complementary to E4/E6 times lower weights."""
    profile = index_profile(m, window)
    lo, hi = window if window is not None else _weight_window(m)
    e4 = Poly.gen(ab, "E4")
    e6 = Poly.gen(ab, "E6")
    out = []
    for k in range(lo + (lo % 2), hi + 1, 2):
        basis_k = jacobi_basis(k, m)
        if not basis_k.forms:
            continue
        mons = enumerate_monomials(ab, BiDegree(k, m))
        old = [e4 * f for f in jacobi_basis(k - 4, m).forms] \
            + [e6 * f for f in jacobi_basis(k - 6, m).forms]
        gens = _complement(basis_k.forms, _span(old, mons), mons)
        if len(gens) != profile.d.get(k, 0):
            raise ConsistencyError(
                "complement dimension %d != generator count %d at (%d,%d)"
                % (len(gens), profile.d.get(k, 0), k, m))
        if gens:
            out.append((k, gens))
    return out


@dataclass
class LbReport:
    """Generators and relations of the lowest-weight graded subalgebra
    (weight -4m at index m)."""

    max_index: int
    lb_dims: Dict[int, int]
    lb_gens: Dict[int, List[Poly]]
    relation_counts: Dict[int, int]

    @property
    def generator_counts(self) -> Dict[int, int]:
        return {m: len(g) for m, g in self.lb_gens.items()}


def _index_multisets(indices: List[int], total: int):
    """Multisets over `indices` (with repetition) summing to total."""
    out = []

    def rec(pos: int, left: int, chosen: List[int]):
        if left == 0:
            out.append(tuple(chosen))
            return
        if pos == len(indices):
            return
        idx = indices[pos]
        max_e = left // idx
        for e in range(max_e + 1):
            rec(pos + 1, left - e * idx, chosen + [pos] * e)

    rec(0, total, [])
    return out


def lb_analysis(max_index: int) -> LbReport:
    if max_index < 1:
        raise ValueError("max index must be >= 1")
    lb_dims: Dict[int, int] = {}
    lb_gens: Dict[int, List[Poly]] = {}
    relation_counts: Dict[int, int] = {}
    gen_forms: List[Poly] = []
    gen_indices: List[int] = []
    for m in range(1, max_index + 1):
        basis = jacobi_basis(-4 * m, m)
        lb_dims[m] = basis.dimension
        mons = enumerate_monomials(ab, BiDegree(-4 * m, m))
        products = []
        for multiset in _index_multisets(gen_indices, m):
            prod = Poly.const(ab, 1)
            for gi in multiset:
                prod = prod * gen_forms[gi]
            products.append(prod)
        span = _span(products, mons)
        span_dim = len(span)
        d_lb = basis.dimension - span_dim
        if d_lb < 0:
            raise ConsistencyError(
                "product span exceeds the full space at index %d" % m)
        new_gens = _complement(basis.forms, span, mons)
        if len(new_gens) != d_lb:
            raise ConsistencyError(
                "complement dimension mismatch at index %d" % m)
        lb_gens[m] = new_gens
        relation_counts[m] = len(products) - span_dim
        gen_forms.extend(new_gens)
        gen_indices.extend([m] * len(new_gens))
    return LbReport(max_index, lb_dims, lb_gens, relation_counts)
