"""Lossless JSON serialization of polynomials, certificates and bases.

This is the output boundary where coefficients become text: every
coefficient is an exact "num/den" string in lowest terms (an int n is
"n/1"), and a certificate's text is written from its integer rows (R
over its image's L, the S_l over den) and read back into them, so no
byte depends on either denominator.  Documents meant for humans use
named exponent maps ({"E4": 2, "b5": 1}), terms in descending monomial
order.  A document shares one exponent map per monomial (alphabet and
exponent vector) and one coefficient string per value among all its
terms, so copy it before you mutate it, as with
json.loads(json.dumps(doc)).  The compact positional form
([exponents, "num/den"] pairs) now only feeds the cache key's digest of
the generator tables; the cache entries themselves store integer rows
(see e8jacobi.cache).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Dict

from .construct import (Certificate, ConsistencyError, JacobiBasis,
                        SCHEMA_VERSION, certificate_identity)
from .grading import (AB, Alphabet, BiDegree, GradingError, Poly, Rational,
                      S_ALPHABET, ab)

ALPHABETS: Dict[str, Alphabet] = {a.name: a for a in (AB, ab, S_ALPHABET)}


class SerializationError(ValueError):
    pass


def fraction_to_str(c: Rational) -> str:
    return "%d/%d" % (c.numerator, c.denominator)


def fraction_from_str(s: str) -> Fraction:
    """ASCII "num/den" or "num" as a Fraction, a sign only as num's "-"."""
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", s)
    if match is None:
        raise SerializationError("%r is not an integer num/den" % s)
    return Fraction(int(match[1]), int(match[2] or 1))


def _lookup_alphabet(name: str) -> Alphabet:
    try:
        return ALPHABETS[name]
    except KeyError:
        raise SerializationError("unknown alphabet %r" % name)


def _poly_doc(alphabet: Alphabet, terms, memo=None) -> dict:
    """The document of (exponent vector, "num/den") pairs, descending;
    `memo` holds its document's exponent maps, by alphabet name, and its
    coefficient strings, under None."""
    symbols = alphabet.symbols
    memo = {} if memo is None else memo
    maps = memo.setdefault(alphabet.name, {})
    strings = memo.setdefault(None, {})
    docs = []
    for exps, coeff in terms:
        named = maps.get(exps)
        if named is None:
            named = maps[exps] = {s: e for s, e in zip(symbols, exps) if e}
        docs.append({"exponents": named,
                     "coefficient": strings.setdefault(coeff, coeff)})
    return {"alphabet": alphabet.name, "terms": docs}


def poly_to_json(p: Poly, memo=None) -> dict:
    return _poly_doc(p.alphabet, ((exps, fraction_to_str(c))
                                  for exps, c in p.sorted_terms()), memo)


def _row_doc(alphabet: Alphabet, mons: list, nums: list, den: int,
             memo=None) -> dict:
    """`poly_to_json` of the sum of nums[i]/den * mons[i], nums nonzero."""
    terms = []
    for exps, a in sorted(zip(mons, nums), key=itemgetter(0), reverse=True):
        g = gcd(a, den)
        terms.append((exps, "%d/%d" % (a // g, den // g)))
    return _poly_doc(alphabet, terms, memo)


def _malformed(what: str, exc: Exception) -> SerializationError:
    """The error for a document missing a key or shaped otherwise."""
    return SerializationError("not a %s document (%s: %s)"
                              % (what, type(exc).__name__, exc))


def poly_from_json(doc: dict) -> Poly:
    """Inverse of `poly_to_json`; raises SerializationError on a document
    of another shape, on an exponent that is not a non-negative int, on
    a monomial listed twice, on a coefficient that is not an integer
    num/den and on a zero denominator."""
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
        raise _malformed("polynomial", exc)
    return Poly(alphabet, terms)


def certificate_to_json(cert: Certificate, memo=None) -> dict:
    """R and each S_l, from the integer rows; R is derived from the
    certificate's form here, once, over its image's own L.  `memo` is
    the maps and strings of the document that holds this one, if any."""
    memo = {} if memo is None else memo
    return {"n": cert.n,
            "s_parts": [{"l": l, "poly": _row_doc(S_ALPHABET, mons, nums,
                                                  cert.den, memo)}
                        for l, mons, nums in cert.s_rows],
            "remainder": _row_doc(AB, *cert.r_rows(), memo)}


def _poly_over(doc, alphabet: Alphabet, what: str) -> Poly:
    p = poly_from_json(doc)
    if p.alphabet is not alphabet:
        raise SerializationError("%s is over %s, not over %s"
                                 % (what, p.alphabet.name, alphabet.name))
    return p


def certificate_from_json(doc: dict, form: Poly) -> Certificate:
    """Inverse of `certificate_to_json`: the certificate of `form`
    (`Certificate.of`), S parts ascending in l.  Raises
    SerializationError on a missing key, an n or an S part power l that
    is not an int, a remainder not over AB, an S part not over S, a
    witness that `Certificate` refuses (n < 0, an l below 1 or listed
    twice) and a remainder other than the one derived from the form at
    the document's n, or none derivable there."""
    try:
        n, r_doc = doc["n"], doc["remainder"]
        parts = [(p["l"], p["poly"]) for p in doc["s_parts"]]
    except (KeyError, TypeError) as exc:
        raise _malformed("certificate", exc)
    ls = [l for l, _ in parts]
    if any(type(x) is not int for x in [n, *ls]):
        raise SerializationError("Delta power %r and the l of each S part "
                                 "%r are not all ints" % (n, ls))
    r = _poly_over(r_doc, AB, "remainder")
    s_polys = [(l, _poly_over(p, S_ALPHABET, "S part %d" % l))
               for l, p in parts]
    try:
        cert = Certificate.of(form, n, [
            (l, list(s.terms), list(s.terms.values()))
            for l, s in sorted(s_polys, key=itemgetter(0))])
    except ValueError as exc:
        raise SerializationError("Delta power %d and the l of each S part "
                                 "%r make no certificate: %s"
                                 % (n, ls, exc)) from None
    try:
        mons, nums, L = cert.r_rows()
    except ConsistencyError as exc:
        raise SerializationError("no remainder of the form at Delta power "
                                 "%d: %s" % (n, exc)) from None
    if r != Poly(AB, {m: Fraction(x, L) for m, x in zip(mons, nums)}):
        raise SerializationError("the remainder is not the one its form "
                                 "gives at Delta power %d" % n)
    return cert


def basis_to_json(basis: JacobiBasis) -> dict:
    memo = {}
    return {"weight": basis.target.weight,
            "index": basis.target.index,
            "dimension": basis.dimension,
            "forms": [poly_to_json(f, memo) for f in basis.forms],
            "certificates": [certificate_to_json(c, memo)
                             for c in basis.certificates]}


def basis_from_json(doc: dict) -> JacobiBasis:
    """Inverse of `basis_to_json`, each certificate over its form.
    Raises SerializationError on a missing key, a weight, index or
    dimension that is not an int, a dimension or certificate count other
    than the form count, a form not over ab or not of the target's
    bidegree, a malformed certificate or one whose remainder is not its
    form's (`certificate_from_json`), an S part power l above index/5
    and a certificate that does not certify its form."""
    try:
        target = BiDegree(doc["weight"], doc["index"])
        dimension = doc["dimension"]
        forms = [_poly_over(f, ab, "form") for f in doc["forms"]]
        cert_docs = list(doc["certificates"])
        degrees = {f.bidegree() for f in forms}
    except (KeyError, TypeError, GradingError) as exc:
        raise _malformed("basis", exc)
    if any(type(x) is not int for x in (*target, dimension)):
        raise SerializationError("weight, index and dimension %r are not "
                                 "all ints" % ((*target, dimension),))
    if not dimension == len(cert_docs) == len(forms):
        raise SerializationError("dimension %d and %d certificates for %d "
                                 "forms" % (dimension, len(cert_docs),
                                            len(forms)))
    if degrees - {target}:
        raise SerializationError("forms of bidegree %s in J_%s"
                                 % (degrees - {target}, tuple(target)))
    certs = list(map(certificate_from_json, cert_docs, forms))
    if any(5 * l > target.index for c in certs for l, _, _ in c.s_rows):
        raise SerializationError("an S part power l exceeds index/5")
    for i, (form, cert) in enumerate(zip(forms, certs)):
        if not certificate_identity(form, cert):
            raise SerializationError("certificate %d of J_%s does not "
                                     "certify its form" % (i, tuple(target)))
    return JacobiBasis(target, certs)


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
