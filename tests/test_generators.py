"""Generator tables, substitutions and the E4 split."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from e8jacobi.ansatz import enumerate_monomials
from e8jacobi import generators
from e8jacobi.construct import certify, jacobi_basis
from e8jacobi.generators import (_PRIME, _S, _TAIL, _image, _lifted_columns,
                                 _lifted_terms, _off_delta, _part_value,
                                 _rest_powers, _sum_columns,
                                 _weighted_columns, e4_split,
                                 holomorphic_images, meromorphic_images,
                                 p16_5, sub_ab_to_AB)
from e8jacobi.grading import (AB, BiDegree, Frac, Poly, S_ALPHABET, ab,
                              cancel_delta, delta_poly)

from helpers import (build, expand_column, frac_bidegree, frac_product,
                     frac_sum, full_image, int_image, m26_7_generator,
                     normalized_by_trial_division, p12_5_over_ab,
                     profile_targets)

# every target of index 1..4 in its profile weight range with monomials
SMALL_TARGETS = [(k, m) for i in range(1, 5)
                 for k, m in profile_targets(i)
                 if enumerate_monomials(ab, BiDegree(k, m))]


def naive_image(p: Poly) -> Frac:
    """Reference ab->AB substitution: every monomial is the product of its
    generator images, brought to lowest terms by trial division after
    each factor, and so is every partial sum of the monomials."""
    images = meromorphic_images()
    total = Frac(Poly.zero(AB), 0, 0)
    for mon, c in p.terms.items():
        term = Frac(Poly.const(AB, c), 0, 0)
        for symbol, e in zip(ab.symbols, mon):
            for _ in range(e):
                term = frac_product(term, images[symbol])
        total = frac_sum(total, term)
    return total


class TestTables:
    def test_bidegrees(self):
        mero = meromorphic_images()
        for name, frac in mero.items():
            assert frac_bidegree(frac) == ab.degree(name), name
        hol = holomorphic_images()
        for name, poly in hol.items():
            assert poly.bidegree() == AB.degree(name), name

    def test_known_entries(self):
        mero = meromorphic_images()
        # b1 = -4 A1 / E4 and a2 = 6 (A1^2 - E4 A2) / (E4 Delta)
        b1 = mero["b1"]
        assert b1.num == Poly.gen(AB, "A1").scale(-4)
        assert (b1.e4_pow, b1.delta_pow) == (1, 0)
        a2 = mero["a2"]
        A1 = Poly.gen(AB, "A1")
        A2 = Poly.gen(AB, "A2")
        E4 = Poly.gen(AB, "E4")
        assert a2.num == (A1 ** 2 - E4 * A2).scale(6)
        assert (a2.e4_pow, a2.delta_pow) == (1, 1)

    def test_numerators_prime_to_delta(self):
        # the ab->AB substitution multiplies image numerators and adds the
        # denominator exponents with no check; that is exact because
        # Delta is prime and divides none of them, and because every
        # index-symbol image has an E4 in its denominator that its
        # numerator (some term free of E4) does not cancel
        delta = delta_poly(AB)
        for name, frac in meromorphic_images().items():
            assert frac.num.divexact(delta) is None, name
            if name not in ("E4", "E6"):
                assert frac.e4_pow >= 1, name
                assert min(m[0] for m in frac.num.terms) == 0, name

    def test_b6_denominator_magnitude(self):
        # the deepest table entry: weight -30, index 6, denominator
        # E4^6 Delta^5, rational coefficients with 7-digit denominators
        b6 = meromorphic_images()["b6"]
        assert (b6.e4_pow, b6.delta_pow) == (6, 5)
        assert frac_bidegree(b6) == BiDegree(-30, 6)
        assert max(c.denominator for c in b6.num.terms.values()) > 10 ** 6


class TestRoundtrips:
    def test_all_eleven(self):
        hol = holomorphic_images()
        for name in AB.symbols:
            image = hol[name] if name in hol else Poly.gen(ab, name)
            back = sub_ab_to_AB(image)
            assert back == Frac(Poly.gen(AB, name), 0, 0), name

    def test_substitution_is_ring_homomorphism(self):
        import random
        rng = random.Random(42)
        mono_pool = [
            build(ab, [(1, {"b1": 1})]),
            build(ab, [(1, {"a2": 1})]),
            build(ab, [(1, {"E4": 1, "b2": 1})]),
            build(ab, [(1, {"E6": 1, "b1": 2})]),
            build(ab, [(1, {"a3": 1, "b1": 1})]),
            build(ab, [(1, {"b2": 2})]),
        ]
        for _ in range(20):
            p = rng.choice(mono_pool).scale(rng.randint(1, 9))
            q = rng.choice(mono_pool).scale(rng.randint(1, 9))
            assert sub_ab_to_AB(p * q) == \
                frac_product(sub_ab_to_AB(p), sub_ab_to_AB(q))

    def test_additive_on_equal_bidegree(self):
        p = build(ab, [(3, {"E4": 1, "a2": 1, "b1": 1})])
        q = build(ab, [(-5, {"E4": 2, "b3": 1}),
                       (7, {"a2": 1, "b1": 1, "E4": 1})])
        assert sub_ab_to_AB(p + q) == \
            frac_sum(sub_ab_to_AB(p), sub_ab_to_AB(q))


class TestSubstitutionReference:
    def test_every_window_monomial(self):
        checked = 0
        for k, m in SMALL_TARGETS:
            for mon in enumerate_monomials(ab, BiDegree(k, m)):
                got = sub_ab_to_AB(Poly.monomial(ab, mon, 1))
                want = naive_image(Poly.monomial(ab, mon, 1))
                assert (got.num, got.e4_pow, got.delta_pow) == \
                    (want.num, want.e4_pow, want.delta_pow), (k, m, mon)
                checked += 1
        assert checked == 107

    @pytest.mark.parametrize("target", [(-16, 5), (0, 4), (-20, 4)],
                             ids=["m16_5", "0_4", "m20_4"])
    def test_image_columns(self, target):
        """Column i, int numerators over its positive integer den and over
        the common denominator, is the image of monomial i; the
        denominator powers are the maxima over the monomials.  J_{-20,4}
        has monomials but no forms."""
        mons = enumerate_monomials(ab, BiDegree(*target))
        images = [naive_image(Poly.monomial(ab, mon, 1)) for mon in mons]
        columns, e4_pow, delta_pow = _lifted_columns(mons)
        assert len(columns) == len(images)
        assert e4_pow == max(f.e4_pow for f in images)
        assert delta_pow == max(f.delta_pow for f in images)
        for column, image in zip(columns, images):
            den, terms = column[2], dict(expand_column(column))
            assert len(terms) == len(column[3][3])
            assert all(terms.values())
            assert type(den) is int and den > 0
            assert all(type(c) is int for c in terms.values())
            # den is the lcm of the reduced coefficient denominators
            assert gcd(den, *terms.values()) == 1
            num = Poly(AB, terms).scale(Fraction(1, den))
            assert normalized_by_trial_division(
                num, e4_pow, delta_pow) == image

    def test_final_normalization_cancels_powers(self):
        # both J_{-16,5} forms lose three E4 powers in the sum of their
        # monomial images; Delta * a2 over ab loses the Delta power of a2
        for form in jacobi_basis(-16, 5).forms:
            monomials = [sub_ab_to_AB(Poly.monomial(ab, mon, 1))
                         for mon in form.terms]
            image = sub_ab_to_AB(form)
            assert image.e4_pow == max(f.e4_pow for f in monomials) - 3
            assert image.delta_pow == max(f.delta_pow for f in monomials)
        A1, A2, E4 = (Poly.gen(AB, s) for s in ("A1", "A2", "E4"))
        assert sub_ab_to_AB(delta_poly(ab) * Poly.gen(ab, "a2")) == \
            Frac(6 * (A1 ** 2 - E4 * A2), 1, 0)

    @given(st.one_of(st.just((-16, 5)), st.sampled_from(SMALL_TARGETS)),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_combinations_match_reference(self, target, data):
        """Integer combinations of the basis forms and of monomials, times
        Delta over ab or not, against the reference."""
        k, m = target
        mons = enumerate_monomials(ab, BiDegree(k, m))
        x = Poly.zero(ab)
        for form in jacobi_basis(k, m).forms:
            x = x + form.scale(data.draw(st.integers(-5, 5)))
        for mon in data.draw(st.lists(st.sampled_from(mons), max_size=4)):
            x = x + Poly.monomial(ab, mon, data.draw(st.integers(-9, 9)))
        if data.draw(st.booleans()):
            x = x * delta_poly(ab)
        got = sub_ab_to_AB(x)
        want = naive_image(x)
        assert (got.num, got.e4_pow, got.delta_pow) == \
            (want.num, want.e4_pow, want.delta_pow)


class TestIntImage:
    @given(st.sampled_from(SMALL_TARGETS), st.data())
    @settings(max_examples=20, deadline=None)
    def test_fraction_weights(self, target, data):
        """A form with Fraction coefficients: int terms over L, where L is
        the lcm of the reduced weights v / den, and in lowest terms the
        reference image."""
        k, m = target
        fractions = st.fractions(max_denominator=50).filter(bool)
        x = Poly.zero(ab)
        for form in jacobi_basis(k, m).forms:
            x = x + form.scale(data.draw(fractions))
        for mon in data.draw(st.lists(st.sampled_from(
                enumerate_monomials(ab, BiDegree(k, m))), max_size=3)):
            x = x + Poly.monomial(ab, mon, data.draw(fractions))
        terms, L, e4, dl = int_image(x)
        columns = _lifted_columns(x.terms)[0]
        assert L == lcm(*(Fraction(v, column[2]).denominator
                          for column, v in zip(columns, x.terms.values())))
        assert all(type(c) is int and c for c in terms.values())
        num = Poly(AB, {key: Fraction(c, L) for key, c in terms.items()})
        want = naive_image(x)
        assert normalized_by_trial_division(num, e4, dl) == want

    @pytest.fixture
    def built(self, monkeypatch):
        """The lift of each image built from the columns, with the memo
        emptied first."""
        built = []
        monkeypatch.setattr(generators, "_lifted_columns",
                            lambda mons, lift=0: built.append(lift)
                            or _lifted_columns(mons, lift))
        monkeypatch.setattr(generators, "_last_image", (None, None, None))
        return built

    def test_memo_serves_only_the_same_object(self, built):
        """The memo of `_image` compares by identity: after `certify`,
        `_image(form, n')` is the held image, while an equal copy, another
        form and a call with no n, a second `certify` included, are
        built anew."""
        form, other = jacobi_basis(-16, 5).forms
        copy = Poly(ab, dict(form.terms))
        n = certify(form).n
        held = generators._last_image[1]
        assert _image(form, n) is held and built == [0]
        assert _image(copy, n) == held and _image(copy, n) is not held
        assert _image(other, n) != held
        assert _image(form) == held and _image(form) == held
        certify(form)
        assert built == [0, n, n, 0, 0, 0]

    def test_memo_keyed_by_delta_power(self, built):
        """After `certify`, `_image(form, n')` is the held image, n' the
        certificate's Delta power; n' + 1 lifts the columns anew and is
        then served, n' - 1 is not reached (None), and n' is built anew
        as the memo holds the lifted image."""
        form = m26_7_generator()
        n = certify(form).n
        held = generators._last_image[1]
        assert _image(form, n) is held
        lifted = _image(form, n + 1)
        assert lifted[3] == n + 1 and _image(form, n + 1) is lifted
        assert _image(form, n - 1) is None
        assert _image(form, n) == held
        assert built == [0, n + 1, n - 1, n]

    def test_full_image_serves_a_cut_call(self, built):
        """A full image serves a cut call at its n', and a cut image does
        not serve a full call: that sums the columns anew.  Where
        `certify` cancels a Delta it holds the full image, which serves
        the full call for the certificate's R."""
        form = m26_7_generator()
        cut = _image(form)
        n = cut[3]
        full = _image(form, n, full=True)
        assert _image(form, n, full=True) is full and _image(form, n) is full
        assert built == [0, n]
        assert full == full_image(form, n) and set(cut[0]) < set(full[0])
        form = delta_poly(ab) * form
        built.clear()
        n = certify(form).n
        full = generators._last_image[1]
        assert _image(form, n, full=True) is full and _image(form, n) is full
        assert built == [0] and full == full_image(form, n)


def index_parts(max_index):
    """Every a2..b6 exponent vector of index at most max_index."""
    indices = [d.index for d in ab.degrees[2:]]
    parts = [()]
    for idx in indices:
        parts = [part + (e,) for part in parts
                 for e in range((max_index - sum(
                     x * i for x, i in zip(part, indices))) // idx + 1)]
    return parts


def part_image(part):
    """Reference image of an index part: the product of its generator
    images, brought to lowest terms by trial division after every
    factor."""
    images = meromorphic_images()
    want = Frac(Poly.const(AB, 1), 0, 0)
    for symbol, e in zip(ab.symbols[2:], part):
        for _ in range(e):
            want = frac_product(want, images[symbol])
    return want


def lifted_poly(part, gap):
    """`_lifted_terms(part, gap)` as a Fraction polynomial over AB."""
    den, terms = _lifted_terms(part, gap)
    assert all(type(c) is int for c in terms[3])
    return Poly(AB, {(e4, e6) + tail: Fraction(c, den)
                     for e4, e6, tail, c in zip(*terms)})


class TestIndexPartImages:
    def test_match_frac_products(self):
        """The memoised image of each index part, built in integers with
        no trial division by Delta, and its E4 and Delta powers, read off
        its exponents, equal the product of its generator images brought
        to lowest terms by trial division after every factor."""
        parts = index_parts(6)
        assert len(parts) == 62
        for part in parts:
            want = part_image(part)
            assert (lifted_poly(part, 0), _rest_powers(part)) == \
                (want.num, (want.e4_pow, want.delta_pow)), part

    @pytest.mark.parametrize("gap", [1, 2])
    def test_lifted_by_delta(self, gap):
        """A lifted image is the reference numerator times Delta^gap."""
        lift = delta_poly(AB) ** gap
        for part in index_parts(4):
            assert lifted_poly(part, gap) == part_image(part).num * lift, \
                part

    def test_memo_holds_columns_and_one_tuple_per_tail(self):
        """Every memo entry that the columns of the profile weights of
        index <= 6 read is four columns of one length, its E4 exponents
        ascending, and across the entries each tail value is one object."""
        entries = {id(column[3]): column[3]
                   for i in range(1, 7) for k, m in profile_targets(i)
                   for column in _lifted_columns(
                       enumerate_monomials(ab, BiDegree(k, m)))[0]}
        tails = []
        for e4s, *rest in entries.values():
            assert all(len(column) == len(e4s) for column in rest)
            assert all(x <= y for x, y in zip(e4s, e4s[1:]))
            tails.extend(rest[1])
        assert len(entries) > 1
        assert len({id(tail) for tail in tails}) == len(set(tails)) > 1


def value_at_point(terms):
    """The `_lifted_terms` terms' polynomial at the point of the Delta
    test, term by term, mod the prime."""
    total = 0
    for e4, e6, tail, c in zip(*terms):
        x = c * pow(_S, 2 * e4 + 3 * e6, _PRIME)
        for t, e in zip(_TAIL, tail):
            x = x * pow(t, e, _PRIME)
        total += x
    return total % _PRIME


@st.composite
def random_form(draw, targets=SMALL_TARGETS):
    """An integer combination of the basis forms of a small target plus
    up to three of its monomials, times Delta or Delta^2 or not."""
    k, m = draw(st.sampled_from(targets))
    x = Poly.zero(ab)
    for form in jacobi_basis(k, m).forms:
        x = x + form.scale(draw(st.integers(-5, 5)))
    for mon in draw(st.lists(st.sampled_from(
            enumerate_monomials(ab, BiDegree(k, m))), max_size=3)):
        x = x + Poly.monomial(ab, mon, draw(st.integers(-9, 9)))
    return x * delta_poly(ab) ** draw(st.sampled_from([0, 0, 1, 2]))


class TestCutImage:
    """`_image` sums only the terms below E4^a unless it is asked for the
    full image, and proves at a point of Delta = 0 that there is no
    Delta to cancel before it sums at all."""

    def test_part_values_are_the_ring_map(self):
        """The value of each index part of index <= 4, built from its
        generators' values, times its den, is the value of its
        `_lifted_terms` at gap 0 term by term; lifted by Delta, every
        part is 0 at the point."""
        for part in index_parts(4):
            den, terms = _lifted_terms(part, 0)
            assert den * _part_value(part) % _PRIME == \
                value_at_point(terms) != 0, part
            assert value_at_point(_lifted_terms(part, 1)[1]) == 0, part

    @given(random_form(), st.sampled_from([0, 1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_cut_sum_is_the_full_sum_below_a(self, x, lift):
        """The weighted columns summed up to the cut at E4^a are the full
        sum's terms below E4^a, and the full sum is the whole image."""
        columns, L, a, dl = _weighted_columns(x, lift)
        full = _sum_columns(columns)
        assert _sum_columns(columns, a) == \
            {mon: c for mon, c in full.items() if mon[0] < a}
        assert (full, L, a, dl) == int_image(x, lift)

    @given(random_form())
    @settings(max_examples=60, deadline=None)
    def test_cut_image_is_the_full_image_below_a(self, x):
        """On random forms, with a Delta to cancel or not: the cut image
        (n None, then n' + 1 and n' - 1 for the n' found) has the terms
        of the reference full image below E4^a and the same L, a and n',
        or is None with it.  Where the point proves that there is no
        Delta to cancel it has no other term; otherwise it is the full
        image.  The full image of the same object, summed from the cut
        one's columns, is the reference."""
        proven = _off_delta(x, *_weighted_columns(x, 0)[1:])
        want = full_image(x)
        got = _image(x)
        assert got[1:] == want[1:]
        assert got[0] == ({mon: c for mon, c in want[0].items()
                           if mon[0] < want[2]} if proven else want[0])
        assert _image(x, full=True) == want
        n = want[3]
        for asked in (n + 1, n - 1):
            got, want = _image(x, asked), full_image(x, asked)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[1:] == want[1:]
                assert {mon: c for mon, c in got[0].items()
                        if mon[0] < got[2]} == \
                    {mon: c for mon, c in want[0].items() if mon[0] < got[2]}

    @given(random_form())
    @settings(max_examples=60, deadline=None)
    def test_a_nonzero_value_is_a_proof(self, x):
        """When `_off_delta` answers yes, `cancel_delta` finds no Delta in
        the full image; a form times Delta always answers no."""
        terms, L, a, dl = int_image(x)
        if _off_delta(x, L, a, dl):
            assert cancel_delta(terms, dl)[0] == 0
        y = x * delta_poly(ab)
        _, L, a, dl = int_image(y)
        assert not _off_delta(y, L, a, dl)

    def test_basis_forms_take_the_proof(self):
        """Every basis form of index <= 5 is proven free of Delta at the
        point, so `certify` sums none of its R."""
        for m in range(1, 6):
            for k, _ in profile_targets(m):
                for form in jacobi_basis(k, m).forms:
                    _, L, a, dl = _weighted_columns(form, 0)
                    assert _off_delta(form, L, a, dl), (k, m)


class TestP165:
    def test_e4_free(self):
        p = p16_5()
        assert p.bidegree() == BiDegree(16, 5)
        assert p.gen_exponent_range("E4") == (0, 0)

    def test_p12_5_identity(self):
        # the weight-12 index-5 polynomial over ab equals P_{16,5} / E4
        assert sub_ab_to_AB(p12_5_over_ab()) == Frac(p16_5(), 1, 0)


class TestE4Split:
    def test_reassembly(self):
        """Splitting num/E4^a into R + sum Q_l / E4^l is exact: each
        nonzero Q_l over S, lifted to AB at E4 exponent a - l, and R over
        AB, shifted up by a, add up to num over AB, and no Q_l is
        empty."""
        f = sub_ab_to_AB(build(ab, [
            (1, {"a2": 1, "b3": 1}), (2, {"a3": 1, "b2": 1}),
        ]))
        assert isinstance(f, Frac)
        a = f.e4_pow
        qs, remainder = e4_split(f.num.terms, a)
        assert sorted(qs) == [1, 2, 3, 4] == list(range(1, a + 1))
        assert remainder
        E4 = Poly.gen(AB, "E4")
        total = Poly(AB, remainder) * E4 ** a
        for l, q in qs.items():
            assert q and Poly(S_ALPHABET, q).terms == q
            assert all(len(m) == len(S_ALPHABET) for m in q)
            total = total + Poly(AB, {(a - l,) + m: c for m, c in q.items()})
        assert total == f.num
