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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .ansatz import AnsatzSpec, build_ansatz, enumerate_monomials, unknown_name
from .generators import (ParamFrac, e4_split, p16_5, sub_ab_to_AB)
from .grading import (AB, BiDegree, Frac, ParamPoly, Poly, S_ALPHABET, ab,
                      delta_poly)
from .linsolve import (LinearSystem, coefficient_equations, echelonize,
                       nullspace, primitive_vector)

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


def _sl_prefix(l: int) -> str:
    return "d%d_" % l


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
    mons = enumerate_monomials(ab, target)
    if not mons:
        return JacobiBasis(target, [], [])
    c_names = [unknown_name("c", i) for i in range(len(mons))]
    ansatz = build_ansatz(AnsatzSpec(ab, target, "c"))

    pf = sub_ab_to_AB(ansatz)
    if not isinstance(pf, ParamFrac):
        raise ConsistencyError("parametric substitution returned %s"
                               % type(pf).__name__)
    n = pf.delta_pow
    p = pf.e4_pow
    # Delta^n * ansatz = num / E4^p
    qs, remainder = e4_split(ParamFrac(pf.num, p, 0))

    d_names: List[str] = []
    rows = []
    sl_ansatze: Dict[int, ParamPoly] = {}
    p165 = p16_5()
    for l in range(1, p + 1):
        s_target = BiDegree(k + 12 * n - 12 * l, m - 5 * l)
        s_mons = enumerate_monomials(S_ALPHABET, s_target) \
            if s_target.index >= 0 else []
        q_l = qs[l - 1] if l <= len(qs) else ParamPoly.zero(AB)
        if s_mons:
            prefix = _sl_prefix(l)
            sl = build_ansatz(AnsatzSpec(S_ALPHABET, s_target, prefix))
            sl_ansatze[l] = sl
            d_names.extend(unknown_name(prefix, i) for i in range(len(s_mons)))
            rhs = sl.map_alphabet(AB).mul_poly(p165 ** l)
        else:
            rhs = ParamPoly.zero(AB)
        rows.extend(coefficient_equations(q_l, rhs))

    system = LinearSystem(tuple(c_names + d_names))
    system.extend(rows)
    space = nullspace(system)

    # d is determined by c, so every echelon leading entry must sit in the
    # c-block; otherwise the projection onto c would lose dimensions.
    n_c = len(c_names)
    for vec in space.basis:
        lead = next(i for i, x in enumerate(vec) if x)
        if lead >= n_c:
            raise ConsistencyError(
                "nullspace vector independent of the ansatz coefficients "
                "at weight %d index %d" % (k, m))

    forms: List[Poly] = []
    certificates: List[Certificate] = []
    for vec in space.basis:
        c_part = vec[:n_c]
        form_vec = primitive_vector(c_part)
        # rescale the whole solution so the emitted form is primitive
        scale = next(b / a for a, b in zip(c_part, form_vec) if a)
        assignment = {name: scale * x
                      for name, x in zip(system.unknowns, vec) if x}
        form = Poly(ab, {mon: assignment.get(name, Fraction(0))
                         for mon, name in zip(mons, c_names)})
        s_parts = []
        for l in sorted(sl_ansatze):
            s_l = sl_ansatze[l].substitute(assignment)
            if not s_l.is_zero():
                s_parts.append((l, s_l))
        r_poly = remainder.substitute(assignment)
        forms.append(form)
        certificates.append(Certificate(n, tuple(s_parts), r_poly))
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
    """Exact re-check: Delta^n * image(form) == sum_l P^l S_l / E4^l + R."""
    frac = sub_ab_to_AB(form)
    lhs = frac * Frac(delta_poly(AB) ** cert.n, 0, 0)
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


def _coefficient_vector(form: Poly, mons: Sequence[tuple]) -> List[Fraction]:
    vec = [Fraction(0)] * len(mons)
    pos = {mon: i for i, mon in enumerate(mons)}
    for mon, c in form.terms.items():
        vec[pos[mon]] = c
    return vec


def _complement(candidates: List[Poly], span_vectors: List[List[Fraction]],
                mons: Sequence[tuple]) -> List[Poly]:
    """Members of `candidates` extending the span, reduced and primitive."""
    rows = echelonize(span_vectors)
    out = []
    for form in candidates:
        vec = _coefficient_vector(form, mons)
        for row in rows:
            lead = next(i for i, x in enumerate(row) if x)
            if vec[lead]:
                c = vec[lead] / row[lead]
                vec = [x - c * y for x, y in zip(vec, row)]
        if any(vec):
            rows = echelonize(rows + [vec])
            vec = primitive_vector(vec)
            out.append(Poly(ab, {mon: c for mon, c in zip(mons, vec) if c}))
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
        span = [_coefficient_vector(f, mons) for f in old]
        gens = _complement(basis_k.forms, span, mons)
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
        span = echelonize([_coefficient_vector(f, mons) for f in products])
        span_dim = len(span)
        d_lb = basis.dimension - span_dim
        if d_lb < 0:
            raise ConsistencyError(
                "product span exceeds the full space at index %d" % m)
        new_gens = _complement(basis.forms, [list(r) for r in span], mons)
        if len(new_gens) != d_lb:
            raise ConsistencyError(
                "complement dimension mismatch at index %d" % m)
        lb_gens[m] = new_gens
        relation_counts[m] = len(products) - span_dim
        gen_forms.extend(new_gens)
        gen_indices.extend([m] * len(new_gens))
    return LbReport(max_index, lb_dims, lb_gens, relation_counts)
