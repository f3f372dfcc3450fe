"""End-to-end construction: bases, certificates, profiles, subalgebra."""

from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from e8jacobi import construct
from e8jacobi.ansatz import enumerate_monomials
from e8jacobi.cli import _profile_targets
from e8jacobi.construct import (Certificate, ConsistencyError, Rejection,
                                certificate_identity, certify, clear_cache,
                                index_profile, jacobi_basis, jacobi_dim,
                                lb_analysis, module_generators, rank_series)
from e8jacobi.generators import sub_ab_to_AB
from e8jacobi.grading import AB, BiDegree, Poly, ab
from e8jacobi.linsolve import nullspace

from helpers import (LB_GENERATOR_COUNTS, LOWEST_WEIGHT_DIMS, PROFILES,
                     m16_5_pair, m26_7_generator, span_basis, spans_equal)

# every target of index 1..5 in its profile weight window (143 forms)
WINDOW_TARGETS = [t for m in range(1, 6) for t in _profile_targets(m, None)]
# the ones with at least one monomial, so that one can be added
AMBIENT_TARGETS = [(k, m) for k, m in WINDOW_TARGETS
                   if enumerate_monomials(ab, BiDegree(k, m))]


class TestWorkedExamples:
    def test_weight_m16_index_5(self):
        basis = jacobi_basis(-16, 5)
        assert basis.dimension == 2
        assert spans_equal(basis.forms, m16_5_pair(), -16, 5)

    def test_weight_m26_index_7(self):
        basis = jacobi_basis(-26, 7)
        assert basis.dimension == 1
        form = basis.forms[0]
        expected = m26_7_generator()
        # equal up to a nonzero rational scalar; both are primitive with
        # positive leading coefficient, so equal on the nose
        assert form == expected
        cert = basis.certificates[0]
        assert cert.n == 5
        assert [l for l, _ in cert.s_parts] == [1]

    def test_dimensions(self):
        assert jacobi_dim(4, 1) == 1
        assert jacobi_dim(3, 7) == 0
        assert jacobi_dim(0, 0) == 1
        assert jacobi_dim(2, 0) == 0


class TestCertificates:
    def test_emitted_forms_certify(self):
        checked = 0
        for k, m in WINDOW_TARGETS + [(-26, 7)]:
            basis = jacobi_basis(k, m)
            for form, cert in zip(basis.forms, basis.certificates):
                assert certificate_identity(form, cert)
                recomputed = certify(form)
                assert isinstance(recomputed, Certificate)
                assert certificate_identity(form, recomputed)
                checked += 1
        assert checked == 143 + 1

    def test_tampered_certificates_fail(self):
        form = jacobi_basis(-26, 7).forms[0]
        cert = certify(form)
        assert cert.n == sub_ab_to_AB(form).delta_pow == 5
        assert certificate_identity(form, cert)
        # n below the true value leaves a Delta denominator; n above it
        # multiplies the image by Delta
        assert not certificate_identity(form, replace(cert, n=cert.n - 1))
        assert not certificate_identity(form, replace(cert, n=cert.n + 1))
        terms = dict(cert.remainder.terms)
        mon = max(terms)
        terms[mon] += 1
        assert not certificate_identity(
            form, replace(cert, remainder=Poly(AB, terms)))
        with pytest.raises(ValueError):
            certificate_identity(form, replace(cert, n=-1))

    def test_meromorphic_generators_rejected(self):
        for name in ("a2", "a3", "b2"):
            result = certify(Poly.gen(ab, name))
            assert isinstance(result, Rejection)
            assert result.failing_l >= 1

    def test_products_of_forms_are_forms(self):
        f = jacobi_basis(4, 1).forms[0]
        g = jacobi_basis(-16, 5).forms[0]
        for prod in (f * f, f * g):
            assert isinstance(certify(prod), Certificate)

    def test_scalar_rejects_nothing(self):
        assert isinstance(certify(Poly.const(ab, 5)), Certificate)


class TestIntegerStage:
    def test_equations_and_solutions_are_ints(self, monkeypatch):
        seen = []

        def recording(system):
            space = nullspace(system)
            seen.append((system, space))
            return space

        monkeypatch.setattr(construct, "nullspace", recording)
        construct._compute_basis(-16, 5)
        ((system, space),) = seen
        assert system.rows and space.dimension == 2
        assert all(type(c) is int for row in system.rows for c in row.values())
        assert all(type(x) is int for vec in space.basis for x in vec)


class TestCertifyProperty:
    @given(st.sampled_from(AMBIENT_TARGETS), st.data())
    @settings(max_examples=40, deadline=None)
    def test_certifies_exactly_the_span(self, target, data):
        """certify(x) is a Certificate exactly when x lies in the span of
        the basis: integer combinations, with and without one added
        ab-monomial of the same bidegree."""
        k, m = target
        basis = jacobi_basis(k, m).forms
        mons = enumerate_monomials(ab, BiDegree(k, m))
        x = Poly.zero(ab)
        for form in basis:
            x = x + form.scale(data.draw(st.integers(-5, 5)))
        if data.draw(st.booleans()):
            x = x + Poly.monomial(ab, data.draw(st.sampled_from(mons)),
                                  data.draw(st.integers(-3, 3)
                                            .filter(bool)))
        in_span = len(span_basis(basis + [x], k, m)) == len(basis)
        result = certify(x)
        assert isinstance(result, Certificate) == in_span
        if in_span:
            assert certificate_identity(x, result)


class TestRankSeries:
    def test_known_values(self):
        # r(m) = coefficients of prod 1/(1-x^{m_i}) over the generator
        # indices 1,2,2,3,3,4,4,5,6; cross-checked against the sums of
        # the known generator-count polynomials P^w_m
        assert [rank_series(m) for m in range(0, 7)] == [1, 1, 3, 5, 10, 15, 27]
        for m, profile in PROFILES.items():
            assert sum(profile.values()) == rank_series(m)


class TestProfiles:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_small_profiles(self, m):
        profile = index_profile(m)
        assert profile.d == PROFILES[m]
        assert sum(profile.d.values()) == rank_series(m)

    def test_window_too_small_raises(self):
        with pytest.raises((ConsistencyError, ValueError)):
            index_profile(2, window=(-4, -4))


class TestModuleGenerators:
    def test_index_one(self):
        gens = module_generators(1)
        assert [(k, len(fs)) for k, fs in gens] == [(4, 1)]
        assert gens[0][1][0] == jacobi_basis(4, 1).forms[0]

    def test_index_two(self):
        gens = module_generators(2)
        assert {k: len(fs) for k, fs in gens} == PROFILES[2]


def fraction_complement(candidates, span_forms, mons):
    """Reference for `construct._complement`, in Fractions and written
    apart from the integer kernel: Gauss-Jordan rows with leading entry 1,
    each candidate reduced against them by hand and kept when a nonzero
    remainder is left, scaled to coprime integers with a positive leading
    entry."""
    pos = {mon: i for i, mon in enumerate(mons)}
    rows = []       # (lead, row): row[lead] == 1, zero at the other leads

    def reduced(form):
        vec = [Fraction(0)] * len(mons)
        for mon, c in form.terms.items():
            vec[pos[mon]] = c
        for lead, row in rows:
            if vec[lead]:
                c = vec[lead]
                vec = [x - c * y for x, y in zip(vec, row)]
        return vec

    def add(vec):
        lead = next(i for i, x in enumerate(vec) if x)
        vec = [x / vec[lead] for x in vec]
        for i, (l, row) in enumerate(rows):
            if row[lead]:
                c = row[lead]
                rows[i] = (l, [x - c * y for x, y in zip(row, vec)])
        rows.append((lead, vec))

    for form in span_forms:
        vec = reduced(form)
        if any(vec):
            add(vec)
    out = []
    for form in candidates:
        vec = reduced(form)
        if any(vec):
            add(vec)
            ints = [x * lcm(*(y.denominator for y in vec)) for x in vec]
            g = gcd(*(int(x) for x in ints))
            g = g if next(x for x in ints if x) > 0 else -g
            out.append(Poly(ab, {mon: x / g
                                 for mon, x in zip(mons, ints) if x}))
    return out


class TestIntegerComplement:
    """The integer pivot rows of `_complement` emit the same generator
    forms as the Fraction reduction they replaced."""

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_module_generators_match_fraction_reduction(self, m):
        e4, e6 = Poly.gen(ab, "E4"), Poly.gen(ab, "E6")
        lo, hi = construct._weight_window(m)
        expected = []
        for k in range(lo + lo % 2, hi + 1, 2):
            forms = jacobi_basis(k, m).forms
            if not forms:
                continue
            span = [e4 * f for f in jacobi_basis(k - 4, m).forms] \
                + [e6 * f for f in jacobi_basis(k - 6, m).forms]
            gens = fraction_complement(
                forms, span, enumerate_monomials(ab, BiDegree(k, m)))
            if gens:
                expected.append((k, gens))
        assert module_generators(m) == expected

    def test_lb_generators_match_fraction_reduction(self):
        expected = {}
        gen_forms, gen_indices = [], []
        for m in range(1, 9):
            products = []
            for multiset in construct._index_multisets(gen_indices, m):
                prod = Poly.const(ab, 1)
                for gi in multiset:
                    prod = prod * gen_forms[gi]
                products.append(prod)
            expected[m] = fraction_complement(
                jacobi_basis(-4 * m, m).forms, products,
                enumerate_monomials(ab, BiDegree(-4 * m, m)))
            gen_forms += expected[m]
            gen_indices += [m] * len(expected[m])
        assert lb_analysis(8).lb_gens == expected


class TestLowestWeight:
    def test_dims_series(self):
        dims = [jacobi_dim(-4 * m, m) for m in range(0, 11)]
        assert dims == LOWEST_WEIGHT_DIMS

    def test_lb_report_small(self):
        report = lb_analysis(6)
        assert [len(report.lb_gens[m]) for m in range(1, 7)] == \
            LB_GENERATOR_COUNTS[:6]
        assert all(v == 0 for v in report.relation_counts.values())


class TestCaching:
    def test_memoized_identity(self):
        a = jacobi_basis(-16, 5)
        b = jacobi_basis(-16, 5)
        assert a is b

    def test_clear(self):
        a = jacobi_basis(-16, 5)
        clear_cache()
        b = jacobi_basis(-16, 5)
        assert a is not b and a.forms == b.forms
