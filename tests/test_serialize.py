"""JSON serialization round-trips and error handling."""

from fractions import Fraction

import pytest

from e8jacobi.construct import certify, jacobi_basis
from e8jacobi.grading import AB, Poly, S_ALPHABET, ab
from e8jacobi.serialize import (SerializationError, basis_from_json,
                                basis_to_json, certificate_from_json,
                                certificate_to_json, fraction_from_str,
                                fraction_to_str, poly_from_compact,
                                poly_from_json, poly_to_compact, poly_to_json,
                                result_document)

from helpers import build, m16_5_pair


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
        cert = certify(m16_5_pair()[0])
        back = certificate_from_json(certificate_to_json(cert))
        assert back.n == cert.n
        assert back.s_parts == cert.s_parts
        assert back.remainder == cert.remainder

    def test_basis_round_trip(self):
        basis = jacobi_basis(-16, 5)
        back = basis_from_json(basis_to_json(basis))
        assert back.target == basis.target
        assert back.dimension == basis.dimension
        assert back.forms == basis.forms
        assert [c.n for c in back.certificates] == \
            [c.n for c in basis.certificates]

    def test_json_document_is_plain_data(self):
        import json
        doc = basis_to_json(jacobi_basis(4, 1))
        assert basis_from_json(json.loads(json.dumps(doc))).forms == \
            jacobi_basis(4, 1).forms


class TestResultDocument:
    def test_envelope(self):
        doc = result_document("dim", {"weight": 4, "index": 1},
                              {"dimension": 1}, 0.1234567)
        assert doc["command"] == "dim"
        assert doc["target"] == {"weight": 4, "index": 1}
        assert doc["dimension"] == 1
        assert doc["elapsed_seconds"] == pytest.approx(0.123457)
        assert "schema_version" in doc
