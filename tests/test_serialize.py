"""JSON serialization round-trips and error handling."""

import json
import math
from fractions import Fraction

import pytest

from e8jacobi.construct import (Certificate, certificate_identity, certify,
                                jacobi_basis, profile_weights)
from e8jacobi.generators import sub_ab_to_AB
from e8jacobi.grading import AB, Poly, S_ALPHABET, ab
from e8jacobi.serialize import (SerializationError, basis_from_json,
                                basis_to_json, certificate_from_json,
                                certificate_to_json, fraction_from_str,
                                fraction_to_str, poly_from_compact,
                                poly_from_json, poly_to_compact, poly_to_json,
                                result_document, _row_doc)

from helpers import (basis_to_json_reference, build, m16_5_pair,
                     remainder, s_parts)


class TestFractions:
    def test_round_trip(self):
        for c in (Fraction(3, 7), Fraction(-18, 5), Fraction(0),
                  Fraction(10 ** 40, 3), Fraction(-1)):
            assert fraction_from_str(fraction_to_str(c)) == c

    def test_plain_integer_string(self):
        assert fraction_from_str("12") == 12
        assert fraction_from_str("-4") == -4


class TestPoly:
    def test_round_trip(self):
        samples = [
            m16_5_pair()[0],
            build(AB, [(Fraction(1, 3), {"E4": 2, "A1": 1}),
                       (Fraction(-7), {"B2": 3})]),
            build(S_ALPHABET, [(Fraction(5, 2), {"E6": 1, "A5": 2})]),
            Poly.const(ab, Fraction(-9, 4)),
            Poly(ab, {}),
        ]
        for p in samples:
            doc = poly_to_json(p)
            q = poly_from_json(doc)
            assert q == p
            assert q.alphabet is p.alphabet

    def test_named_exponents_skip_zeros(self):
        doc = poly_to_json(build(ab, [(Fraction(2), {"a2": 1, "b5": 3})]))
        assert doc["terms"][0]["exponents"] == {"a2": 1, "b5": 3}
        assert doc["terms"][0]["coefficient"] == "2/1"

    def test_unknown_alphabet(self):
        with pytest.raises(SerializationError):
            poly_from_json({"alphabet": "nope", "terms": []})

    def test_unknown_symbol(self):
        with pytest.raises(SerializationError):
            poly_from_json({"alphabet": "ab",
                            "terms": [{"exponents": {"Z9": 1},
                                       "coefficient": "1/1"}]})

    def test_repeated_monomial(self):
        # read as one term, 2 E4 b1 would have become E4 b1
        term = {"exponents": {"E4": 1, "b1": 1}, "coefficient": "1"}
        with pytest.raises(SerializationError, match="listed twice"):
            poly_from_json({"alphabet": "ab", "terms": [term, term]})

    def test_compact_round_trip(self):
        p = m16_5_pair()[1]
        assert poly_from_compact("ab", poly_to_compact(p)) == p


class TestCertificateAndBasis:
    def test_certificate_round_trip(self):
        form = m16_5_pair()[0]
        cert = certify(form)
        back = certificate_from_json(certificate_to_json(cert), form)
        assert back.n == cert.n
        assert s_parts(back) == s_parts(cert)
        assert remainder(back) == remainder(cert)

    def test_basis_round_trip(self):
        basis = jacobi_basis(-16, 5)
        back = basis_from_json(basis_to_json(basis))
        assert back.target == basis.target
        assert back.dimension == basis.dimension
        assert back.forms == basis.forms
        assert [c.n for c in back.certificates] == \
            [c.n for c in basis.certificates]

    def test_json_document_is_plain_data(self):
        doc = basis_to_json(jacobi_basis(4, 1))
        assert basis_from_json(json.loads(json.dumps(doc))).forms == \
            jacobi_basis(4, 1).forms


def text(doc):
    return json.dumps(doc, sort_keys=True)


class TestCertificateRows:
    """`certificate_to_json` writes the rows; `certificate_from_json`
    builds them back."""

    def test_round_trip_index_6(self):
        """Every basis certificate of index <= 6 comes back as the same
        JSON text and still certifies its form."""
        checked = 0
        for m in range(1, 7):
            for k in profile_weights(m):
                basis = jacobi_basis(k, m)
                for form, cert in zip(basis.forms, basis.certificates):
                    doc = certificate_to_json(cert)
                    back = certificate_from_json(json.loads(text(doc)), form)
                    assert text(certificate_to_json(back)) == text(doc)
                    assert certificate_identity(form, back)
                    checked += 1
        assert checked == 391

    def test_zero_s_row_omitted(self):
        """Four certificates of J_{-12,5} hold no S_1 row, as S_1 is zero
        there; the fifth S_1 is nonzero."""
        basis = jacobi_basis(-12, 5)
        certs = basis.certificates
        assert [[l for l, _, _ in c.s_rows] for c in certs] == \
            [[]] * 4 + [[1]]
        docs = [certificate_to_json(c) for c in certs]
        assert [[p["l"] for p in d["s_parts"]] for d in docs] == \
            [[]] * 4 + [[1]]
        back = certificate_from_json(docs[0], basis.forms[0])
        assert back.s_rows == () and back.n == certs[0].n == 3

    def test_lowest_terms_descending(self):
        """Nonzero numerators over den 12 as reduced "num/den", terms in
        descending monomial order (E4, E6, then A1)."""
        e4, e6, a1 = [tuple(int(i == j) for j in range(11)) for i in range(3)]
        assert _row_doc(AB, [e6, a1, e4], [3, 6, -8], 12) == {
            "alphabet": "AB", "terms": [
                {"exponents": {"E4": 1}, "coefficient": "-2/3"},
                {"exponents": {"E6": 1}, "coefficient": "1/4"},
                {"exponents": {"A1": 1}, "coefficient": "1/2"}]}

    def test_zero_s_part_left_out(self):
        """A certificate of J_{-26,7} (den > 1) cannot take an all-zero
        S_2 row, so its document holds S_1 and R, in lowest terms."""
        form = jacobi_basis(-26, 7).forms[0]
        cert = certify(form)
        doc = certificate_to_json(cert)
        assert cert.den > 1 and [p["l"] for p in doc["s_parts"]] == [1]
        with pytest.raises(ValueError):
            Certificate(form, cert.n, cert.den,
                        cert.s_rows + ((2, cert.s_rows[0][1][:1], [0]),))
        for poly in [doc["remainder"], *(p["poly"] for p in doc["s_parts"])]:
            for term in poly["terms"]:
                num, den = map(int, term["coefficient"].split("/"))
                assert den > 0 and math.gcd(num, den) == 1


def polys(doc):
    """The polynomial documents of a basis document, forms last."""
    for cert in doc["certificates"]:
        yield cert["remainder"]
        yield from (p["poly"] for p in cert["s_parts"])
    yield from doc["forms"]


class TestSharedExponentMaps:
    """A document holds one exponent map per monomial, shared by all its
    terms, and one string per coefficient value; JSON writes a shared
    map as it writes a copy."""

    def test_same_text_as_the_per_term_writer(self):
        """The canonical text of the golden digests, at every target of
        index <= 6 and at J_{0,8}."""
        def canonical(doc):
            return json.dumps(doc, sort_keys=True, separators=(",", ":"))
        targets = [(k, m) for m in range(1, 7) for k in profile_weights(m)]
        for k, m in targets + [(0, 8)]:
            basis = jacobi_basis(k, m)
            assert canonical(basis_to_json(basis)) == \
                canonical(basis_to_json_reference(basis)), (k, m)

    def test_one_map_per_monomial_per_call(self):
        """At J_{0,8} the terms repeat their monomials; each monomial's
        terms hold one map.  A second call builds maps of its own."""
        basis = jacobi_basis(0, 8)
        first, second = basis_to_json(basis), basis_to_json(basis)
        maps, terms = {}, 0
        for poly in polys(first):
            for term in poly["terms"]:
                key = (poly["alphabet"], *sorted(term["exponents"].items()))
                assert maps.setdefault(key, term["exponents"]) \
                    is term["exponents"]
                terms += 1
        assert terms > 10 * len(maps)
        assert not {id(m) for m in maps.values()} & {
            id(t["exponents"]) for p in polys(second) for t in p["terms"]}

    def test_one_string_per_coefficient_value_per_call(self):
        """J_{0,8}'s 11,250 terms hold 4,827 coefficient values; each
        value is one string across the forms, S parts and remainders.
        A second call holds strings of its own."""
        basis = jacobi_basis(0, 8)
        first, second = basis_to_json(basis), basis_to_json(basis)
        coeffs = [t["coefficient"] for p in polys(first) for t in p["terms"]]
        ids = {id(c) for c in coeffs}
        assert (len(coeffs), len(ids), len(set(coeffs))) == \
            (11250, 4827, 4827)
        assert not ids & {id(t["coefficient"])
                          for p in polys(second) for t in p["terms"]}

    def test_maps_kept_apart_by_alphabet(self):
        """One exponent vector over ab and over AB, written with one
        memo: each term names its own alphabet's symbol."""
        memo, exps = {}, tuple(int(i == 2) for i in range(11))
        docs = [poly_to_json(Poly(a, {exps: Fraction(1)}), memo)
                for a in (ab, AB)]
        assert [d["terms"][0]["exponents"] for d in docs] == \
            [{"a2": 1}, {"A1": 1}]


@pytest.fixture
def basis_doc():
    """J_{-26,7}: one form, whose certificate has S_1 and R."""
    return json.loads(text(basis_to_json(jacobi_basis(-26, 7))))


@pytest.fixture
def pair_doc():
    """J_{-16,5}: two forms."""
    return json.loads(text(basis_to_json(jacobi_basis(-16, 5))))


@pytest.fixture
def form_26_7():
    """The form of `basis_doc`."""
    return jacobi_basis(-26, 7).forms[0]


def ab_poly_doc():
    return poly_to_json(build(ab, [(1, {"b1": 1})]))


class TestReaderRejects:
    """Malformed documents raise SerializationError, never a bare
    KeyError or a certificate read over the wrong alphabet."""

    @pytest.mark.parametrize("path", [
        ("weight",), ("index",), ("forms",), ("certificates",),
        ("certificates", 0, "n"), ("certificates", 0, "s_parts"),
        ("certificates", 0, "remainder"),
        ("certificates", 0, "s_parts", 0, "l"),
        ("certificates", 0, "s_parts", 0, "poly"), ("dimension",)])
    def test_missing_key(self, basis_doc, form_26_7, path):
        holder = basis_doc
        for key in path[:-1]:
            holder = holder[key]
        del holder[path[-1]]
        with pytest.raises(SerializationError):
            basis_from_json(basis_doc)
        if path[0] == "certificates" and len(path) > 2:
            with pytest.raises(SerializationError):
                certificate_from_json(basis_doc["certificates"][0], form_26_7)

    @pytest.mark.parametrize("n", ["x", -1, 2.0, True, None])
    def test_delta_power_not_an_int_at_least_0(self, basis_doc, form_26_7, n):
        basis_doc["certificates"][0]["n"] = n
        with pytest.raises(SerializationError, match="Delta power"):
            certificate_from_json(basis_doc["certificates"][0], form_26_7)
        with pytest.raises(SerializationError, match="Delta power"):
            basis_from_json(basis_doc)

    @pytest.mark.parametrize("ls", [[0], [-1], ["1"], [1.0], [True],
                                    [1, 1]])
    def test_l_not_an_int_at_least_1_once(self, basis_doc, form_26_7, ls):
        cert = basis_doc["certificates"][0]
        (part,) = cert["s_parts"]
        cert["s_parts"] = [dict(part, l=l) for l in ls]
        with pytest.raises(SerializationError, match="the l of each S part"):
            certificate_from_json(cert, form_26_7)
        with pytest.raises(SerializationError):
            basis_from_json(basis_doc)

    def test_remainder_not_over_AB(self, basis_doc, form_26_7):
        # read positionally, b1 over ab would be A4 over AB
        cert = basis_doc["certificates"][0]
        for doc in (ab_poly_doc(), cert["s_parts"][0]["poly"]):
            cert["remainder"] = doc
            with pytest.raises(SerializationError,
                               match="remainder is over (ab|S), not over AB"):
                certificate_from_json(cert, form_26_7)

    def test_s_part_not_over_S(self, basis_doc, form_26_7):
        cert = basis_doc["certificates"][0]
        for doc in (ab_poly_doc(), cert["remainder"]):
            cert["s_parts"][0]["poly"] = doc
            with pytest.raises(SerializationError,
                               match="S part 1 is over (ab|AB), not over S"):
                certificate_from_json(cert, form_26_7)

    def test_form_not_over_ab(self, basis_doc):
        basis_doc["forms"][0] = basis_doc["certificates"][0]["remainder"]
        with pytest.raises(SerializationError,
                           match="form is over AB, not over ab"):
            basis_from_json(basis_doc)

    @pytest.mark.parametrize("count", [0, 2])
    def test_certificate_count_differs(self, basis_doc, count):
        basis_doc["certificates"] = basis_doc["certificates"][:1] * count
        with pytest.raises(SerializationError,
                           match="%d certificates for 1 forms" % count):
            basis_from_json(basis_doc)

    @pytest.mark.parametrize("key", ["weight", "index", "dimension"])
    @pytest.mark.parametrize("value", ["x", True, 5.0, None])
    def test_target_field_not_an_int(self, pair_doc, key, value):
        pair_doc[key] = value
        with pytest.raises(SerializationError,
                           match="weight, index and dimension .* are not "
                                 "all ints"):
            basis_from_json(pair_doc)

    @pytest.mark.parametrize("dimension", [7, 1, 0])
    def test_dimension_differs_from_form_count(self, pair_doc, dimension):
        pair_doc["dimension"] = dimension
        with pytest.raises(SerializationError,
                           match="dimension %d and 2 certificates for 2 "
                                 "forms" % dimension):
            basis_from_json(pair_doc)

    @pytest.mark.parametrize("key, value", [("weight", -14), ("index", 6)])
    def test_target_other_than_the_forms(self, pair_doc, key, value):
        pair_doc[key] = value
        with pytest.raises(SerializationError,
                           match=r"forms of bidegree \{BiDegree\(weight=-16, "
                                 r"index=5\)\} in J_"):
            basis_from_json(pair_doc)

    def test_form_of_another_bidegree(self, pair_doc, basis_doc):
        pair_doc["forms"][1] = basis_doc["forms"][0]
        with pytest.raises(SerializationError,
                           match=r"\{BiDegree\(weight=-26, index=7\)\} "
                                 r"in J_\(-16, 5\)"):
            basis_from_json(pair_doc)

    @pytest.mark.parametrize("coefficient", [
        "x", "1.5", "1/x", "1/2/3", "3/", " 3/4 ", "1_000/1", "\u0663/1",
        "3/-4", "+3/4"])
    def test_coefficient_not_an_integer_fraction(self, coefficient):
        term = {"exponents": {"b1": 1}, "coefficient": coefficient}
        with pytest.raises(SerializationError,
                           match="is not an integer num/den"):
            poly_from_json({"alphabet": "ab", "terms": [term]})

    def test_forms_swapped(self, pair_doc):
        """Both forms of J_{-16,5} have the target's bidegree; only the
        certificates tell them apart: the first certificate's R is not
        the one the second form gives."""
        pair_doc["forms"].reverse()
        with pytest.raises(SerializationError,
                           match="the remainder is not the one its form "
                                 "gives"):
            basis_from_json(pair_doc)

    def test_s_part_power_above_index(self, pair_doc):
        """P^2 has index 10, so no S_2 can take part at index 5; the
        identity is not run on it (P^l grows with l).  The part is
        nonzero: a zero one is left out of the certificate."""
        part = {"l": 2, "poly": {"alphabet": "S", "terms": [
            {"exponents": {}, "coefficient": "1/1"}]}}
        pair_doc["certificates"][0]["s_parts"].append(part)
        with pytest.raises(SerializationError,
                           match="an S part power l exceeds index/5"):
            basis_from_json(pair_doc)

    def test_inhomogeneous_form(self, pair_doc, basis_doc):
        pair_doc["forms"][0]["terms"] += basis_doc["forms"][0]["terms"]
        with pytest.raises(SerializationError,
                           match="GradingError: inhomogeneous polynomial"):
            basis_from_json(pair_doc)


class TestChangedRemainder:
    """A certificate document whose R is not the one its form gives at
    its n and den: `certificate_from_json` and `basis_from_json` raise
    SerializationError.  J_{-26,7}'s certificate has an S part,
    J_{-16,5}'s have none, and the fourth of J_{-20,6} has an n above
    its image's Delta power, so its R is derived from the lifted
    image."""

    @staticmethod
    def changed(cert, change):
        """The certificate document `cert` with its R or n changed."""
        terms = cert["remainder"]["terms"]
        if change in ("numerator_up", "numerator_down"):
            c = fraction_from_str(terms[-1]["coefficient"])
            c += Fraction(1 if change == "numerator_up" else -1,
                          c.denominator)
            terms[-1]["coefficient"] = fraction_to_str(c)
        elif change == "term_dropped":
            del terms[0]
        elif change == "term_added":
            # E6 times R's first monomial is not in R
            exps = dict(terms[0]["exponents"])
            exps["E6"] = exps.get("E6", 0) + 1
            terms.append({"exponents": exps, "coefficient": "1/1"})
        else:
            cert["n"] += 1 if change == "n_up" else -1

    @pytest.mark.parametrize("change", ["numerator_up", "numerator_down",
                                        "term_dropped", "term_added", "n_up",
                                        "n_down"])
    @pytest.mark.parametrize("target, i", [((-26, 7), 0), ((-16, 5), 0),
                                           ((-20, 6), 3)],
                             ids=["s_part", "s_free", "n_above"])
    def test_refused(self, target, i, change):
        basis = jacobi_basis(*target)
        doc = json.loads(text(basis_to_json(basis)))
        assert basis_from_json(doc).forms == basis.forms
        if target == (-20, 6):
            form, cert = basis.forms[i], basis.certificates[i]
            assert cert.n > sub_ab_to_AB(form).delta_pow
        self.changed(doc["certificates"][i], change)
        with pytest.raises(SerializationError, match="remainder"):
            certificate_from_json(doc["certificates"][i], basis.forms[i])
        with pytest.raises(SerializationError, match="remainder"):
            basis_from_json(doc)


class TestResultDocument:
    def test_envelope(self):
        doc = result_document("dim", {"weight": 4, "index": 1},
                              {"dimension": 1}, 0.1234567)
        assert doc["command"] == "dim"
        assert doc["target"] == {"weight": 4, "index": 1}
        assert doc["dimension"] == 1
        assert doc["elapsed_seconds"] == pytest.approx(0.123457)
        assert "schema_version" in doc
