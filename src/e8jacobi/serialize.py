"""Lossless JSON serialization of polynomials, certificates and bases.

This is the output boundary where coefficients become text: every
coefficient, an `int` of a basis form or a `Fraction` built when a
certificate is read, is an exact "num/den" string in lowest terms (an
int n is "n/1").  Documents meant for humans use named exponent maps
({"E4": 2, "b5": 1}).  The compact positional form ([exponents,
"num/den"] pairs) now only feeds the cache key's digest of the
generator tables; the cache entries themselves store integer rows (see
e8jacobi.cache).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .construct import Certificate, JacobiBasis, SCHEMA_VERSION
from .grading import AB, Alphabet, BiDegree, Poly, Rational, S_ALPHABET, ab

ALPHABETS: Dict[str, Alphabet] = {a.name: a for a in (AB, ab, S_ALPHABET)}


class SerializationError(ValueError):
    pass


def fraction_to_str(c: Rational) -> str:
    return "%d/%d" % (c.numerator, c.denominator)


def fraction_from_str(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def _lookup_alphabet(name: str) -> Alphabet:
    try:
        return ALPHABETS[name]
    except KeyError:
        raise SerializationError("unknown alphabet %r" % name)


def poly_to_json(p: Poly) -> dict:
    symbols = p.alphabet.symbols
    terms = []
    for exps, coeff in p.sorted_terms():
        named = {s: e for s, e in zip(symbols, exps) if e}
        terms.append({"exponents": named,
                      "coefficient": fraction_to_str(coeff)})
    return {"alphabet": p.alphabet.name, "terms": terms}


def poly_from_json(doc: dict) -> Poly:
    """Inverse of `poly_to_json`; raises SerializationError on a document
    of another shape, on an exponent that is not a non-negative int, on
    a monomial listed twice and on a zero denominator."""
    try:
        alphabet = _lookup_alphabet(doc["alphabet"])
        terms = {}
        for t in doc["terms"]:
            exps = [0] * len(alphabet)
            for sym, e in t["exponents"].items():
                if type(e) is not int or e < 0:
                    raise SerializationError(
                        "exponent %r of %r is not a non-negative integer"
                        % (e, sym))
                try:
                    exps[alphabet.position(sym)] = e
                except KeyError:
                    raise SerializationError(
                        "symbol %r not in alphabet %s" % (sym, alphabet.name))
            exps = tuple(exps)
            if exps in terms:
                raise SerializationError(
                    "monomial %r listed twice" % (t["exponents"],))
            terms[exps] = fraction_from_str(t["coefficient"])
    except ZeroDivisionError:
        raise SerializationError("zero denominator in a coefficient")
    except (KeyError, TypeError, AttributeError) as exc:
        raise SerializationError("not a polynomial document (%s: %s)"
                                 % (type(exc).__name__, exc))
    return Poly(alphabet, terms)


def certificate_to_json(cert: Certificate) -> dict:
    return {"n": cert.n,
            "s_parts": [{"l": l, "poly": poly_to_json(s)}
                        for l, s in cert.s_parts],
            "remainder": poly_to_json(cert.remainder)}


def certificate_from_json(doc: dict) -> Certificate:
    return Certificate(
        doc["n"],
        tuple((p["l"], poly_from_json(p["poly"])) for p in doc["s_parts"]),
        poly_from_json(doc["remainder"]))


def basis_to_json(basis: JacobiBasis) -> dict:
    return {"weight": basis.target.weight,
            "index": basis.target.index,
            "dimension": basis.dimension,
            "forms": [poly_to_json(f) for f in basis.forms],
            "certificates": [certificate_to_json(c)
                             for c in basis.certificates]}


def basis_from_json(doc: dict) -> JacobiBasis:
    return JacobiBasis(
        BiDegree(doc["weight"], doc["index"]),
        [poly_from_json(f) for f in doc["forms"]],
        [certificate_from_json(c) for c in doc["certificates"]])


# Compact positional encoding, used for the digest of the generator
# tables in the cache key.  The terms keep the polynomial's own order:
# `poly_from_compact` rebuilds a dict, so a canonical order would buy
# nothing.

def poly_to_compact(p: Poly) -> list:
    return [[list(exps), fraction_to_str(c)] for exps, c in p.terms.items()]


def poly_from_compact(alphabet_name: str, rows: list) -> Poly:
    alphabet = _lookup_alphabet(alphabet_name)
    return Poly(alphabet, {tuple(exps): fraction_from_str(c)
                           for exps, c in rows})


def result_document(command: str, target: dict, payload: dict,
                    elapsed: float) -> dict:
    """Envelope for every machine-readable CLI output."""
    doc = {"schema_version": SCHEMA_VERSION,
           "command": command,
           "target": target,
           "elapsed_seconds": round(elapsed, 6)}
    doc.update(payload)
    return doc
