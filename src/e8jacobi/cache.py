"""Content-addressed on-disk store for computed bases.

The key digests the cache format, the schema version, all three alphabet
definitions, the generator tables the construction reads (the
meromorphic images and P_{16,5}) and the target (weight, index), so any
change to the generator tables or the result format invalidates stale
entries automatically.  Writes are atomic: a temporary file in the same
directory is renamed into place.

Format 6 stores each certificate's witness only, as sparse integer
rows, one JSON object per entry; a row is [positions, values], its
nonzero values at distinct positions in a monomial list:

- "forms": each form's int coefficients over
  `enumerate_monomials(ab, target)`, whose order fixes the positions;
- "s_mons": [l, S exponent vectors] for each S_l, l ascending, each
  vector listed once, in order of first appearance;
- "certificates": [n, den, [S_l's numerators for each l of "s_mons"]]
  per form, every numerator over den, the S_l's lowest common
  denominator (1 without S_l), [[], []] where a certificate has none.

No entry holds R: it is fixed by the form, n and the S_l, and `load`
builds each certificate over its reloaded form (`Certificate`), which
derives R when it is read, so no stale R can come back from disk.
`load` maps each row back to the certificate's own lists and runs
`certificate_identity` on each certificate with an S_l, so no stored
den or S numerator comes back wrong; it does not see S rows dropped
whole, an n raised or a form left out (the sha256 key covers stale
entries).  It returns None for an entry it cannot read (a directory in
its place, JSON nested too deeply to parse) and for any entry not
shaped like one that `save` writes: a row whose positions and values
differ in length, a position out of range or repeated, a value of 0, an
entry that is not an int, a Delta power below that of its form's image,
ls of "s_mons" not strictly ascending from 1 or one above index/5, a
monomial listed twice in one S_l list, a certificate count other than
the form count, forms other than nonzero primitive ones, each positive
at its lead (its smallest position), the leads strictly ascending and
no form nonzero at another form's lead, a witness that `Certificate`
refuses (a den < 1 or one sharing a factor with every S numerator) and
S rows that do not certify their form.  `save` raises CacheError, and
writes nothing, for a basis whose entry `load` would miss for its
shape, and for an entry the file system refuses.

The identity at load sums only the terms of each form's image below
E4^a, and a stored n is at or above the Delta power of its form's
monomial images, so there is no Delta to cancel and no test at a point
to make: a verified load of the 147 entries of index <= 10 costs less
than recomputing them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import cache
from math import gcd
from operator import lt
from typing import List, Optional

from .ansatz import enumerate_monomials
from .construct import (Certificate, JacobiBasis, SCHEMA_VERSION,
                        certificate_identity, coefficient_row)
from .generators import _rest_powers, meromorphic_images, p16_5
from .grading import AB, BiDegree, Poly, S_ALPHABET, ab
from .serialize import poly_to_compact

CACHE_FORMAT = 6
_INT = {int}


class CacheError(Exception):
    """The store cannot write an entry."""


@cache
def _tables_digest() -> str:
    """Digest of the alphabets and the generator tables, once per process."""
    images = [[name, poly_to_compact(f.num), f.e4_pow, f.delta_pow]
              for name, f in sorted(meromorphic_images().items())]
    material = json.dumps([[a.fingerprint() for a in (AB, ab, S_ALPHABET)],
                           images, poly_to_compact(p16_5())]).encode()
    return hashlib.sha256(material).hexdigest()


def _ints(row, length: int) -> list:
    """`row` when it is a list of `length` ints, else ValueError (JSON
    booleans are not ints here)."""
    if type(row) is not list or len(row) != length \
            or not _INT.issuperset(map(type, row)):
        raise ValueError("not a row of %d ints" % length)
    return row


def _terms(row, mons: list) -> tuple:
    """The monomials and values of the sparse row [positions, values]
    over `mons`; ValueError unless its values are nonzero ints, one per
    position, at distinct int positions in range(len(mons))."""
    positions, values = row
    _ints(values, len(_ints(positions, len(positions))))
    if 0 in values or len(set(positions)) < len(positions) \
            or min(positions, default=0) < 0 \
            or max(positions, default=-1) >= len(mons):
        raise ValueError("not a sparse row over %d monomials" % len(mons))
    return list(map(mons.__getitem__, positions)), values


def _exponents(rows, width: int) -> List[tuple]:
    """Distinct exponent vectors of `width` non-negative ints, as tuples."""
    out = [tuple(_ints(exps, width)) for exps in rows]
    if min(map(min, out), default=0) < 0 or len(set(out)) < len(out):
        raise ValueError("negative exponent or repeated monomial")
    return out


@cache
def _delta_powers(target: BiDegree) -> tuple:
    """The Delta power of the image of each monomial of
    `enumerate_monomials(ab, target)`, by position: a form's image has
    the largest over its positions."""
    return tuple(_rest_powers(mon[2:])[1]
                 for mon in enumerate_monomials(ab, target))


def _check_echelon(rows) -> None:
    """ValueError unless the form rows [positions, values] are those of
    nonzero primitive forms, each positive at its lead (its smallest
    position), the leads strictly ascending and no form nonzero at
    another form's lead."""
    leads = []
    for positions, values in rows:
        lead = min(positions)       # a ValueError for a zero form
        if gcd(*values) != 1 or values[positions.index(lead)] < 0:
            raise ValueError("a form not primitive or negative at its lead")
        leads.append(lead)
    # the leads ascend, and each form meets one of them, its own
    lead_set = set(leads)
    if leads != sorted(lead_set) or len(leads) < sum(
            len(lead_set.intersection(p)) for p, _ in rows):
        raise ValueError("forms not in echelon form")


class DiskStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _digest(self, k: int, m: int) -> str:
        material = json.dumps([CACHE_FORMAT, SCHEMA_VERSION,
                               _tables_digest(), k, m]).encode()
        return hashlib.sha256(material).hexdigest()

    def _path(self, k: int, m: int) -> str:
        return os.path.join(self.root, self._digest(k, m) + ".json")

    def load(self, k: int, m: int) -> Optional[JacobiBasis]:
        """The stored basis, or None when the entry is missing, unreadable
        or not shaped like one that `save` writes."""
        try:
            with open(self._path(k, m)) as fh:
                return basis_from_text(k, m, fh.read())
        except (OSError, RecursionError, KeyError, TypeError, ValueError):
            return None

    def save(self, k: int, m: int, basis: JacobiBasis) -> None:
        """Write the entry atomically; CacheError, and nothing written,
        for a basis that `basis_to_text` refuses, and when the file
        system refuses it (say, a directory where the entry goes)."""
        text = basis_to_text(basis)
        path = self._path(k, m)
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError as exc:
            raise CacheError("cannot write cache entry %s: %s"
                             % (path, exc.strerror or exc)) from exc
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)


def basis_from_text(k: int, m: int, text: str) -> JacobiBasis:
    """The basis of weight k and index m from its format-6 JSON text,
    each certificate over its form; KeyError, TypeError or ValueError
    when the text is not shaped like what `basis_to_text` writes or a
    certificate with an S_l does not certify its form, RecursionError
    when it nests too deep to parse."""
    target = BiDegree(k, m)
    doc = json.loads(text)
    mons = enumerate_monomials(ab, target)
    powers = _delta_powers(target)
    forms = [Poly(ab, dict(zip(*_terms(row, mons)))) for row in doc["forms"]]
    _check_echelon(doc["forms"])
    s_mons = [(l, _exponents(rows, len(S_ALPHABET)))
              for l, rows in doc["s_mons"]]
    ls = [0, *_ints([l for l, _ in s_mons], len(s_mons))]
    if not all(map(lt, ls, ls[1:])) or 5 * ls[-1] > m:
        raise ValueError("ls of s_mons not ascending from 1 up to index/5")
    if len(doc["certificates"]) != len(forms):
        raise ValueError("certificate count differs from form count")
    certs = []
    for form, (positions, _), (n, den, s_part_rows) in zip(
            forms, doc["forms"], doc["certificates"]):
        _ints([n, den], 2)
        if n < max(map(powers.__getitem__, positions)) \
                or len(s_part_rows) != len(s_mons):
            raise ValueError("malformed certificate")
        s_rows = [(l, *_terms(row, mons_l))
                  for (l, mons_l), row in zip(s_mons, s_part_rows)]
        cert = Certificate(form, n, den, tuple(s for s in s_rows if s[2]))
        if cert.s_rows and not certificate_identity(form, cert):
            raise ValueError("S rows that do not certify their form")
        certs.append(cert)
    return JacobiBasis(target, certs)


def basis_to_text(basis: JacobiBasis) -> str:
    """The format-6 JSON text of `basis` (see the module docstring).

    CacheError for a basis whose entry `load` would miss for its shape:
    forms not in the echelon shape of `_check_echelon`, a Delta power
    below that of its form's image and an S_l with 5l above the index
    (the rest of a certificate's shape is its type's)."""
    target = basis.target
    pos = {mon: i for i, mon in enumerate(enumerate_monomials(ab, target))}
    powers = _delta_powers(target)
    # (positions, values) of a form
    forms = [tuple(zip(*sorted(coefficient_row(f, pos).items())))
             for f in basis.forms]
    try:
        _check_echelon(forms)
    except ValueError as exc:
        raise CacheError("not a basis in echelon form: %s" % exc) from None
    s_index: dict = {}
    rows = []
    for (positions, _), c in zip(forms, basis.certificates):
        q = max(map(powers.__getitem__, positions))
        top = c.s_rows[-1][0] if c.s_rows else 0    # l ascends
        if c.n < q or 5 * top > target.index:
            raise CacheError("a certificate with Delta power %d below its "
                             "form's %d, or S_%d at index %d"
                             % (c.n, q, top, target.index))
        # each S row at the positions of its monomials in the list at its
        # l, where a monomial not yet listed goes last
        rows.append([c.n, c.den, {
            l: [[index.setdefault(mon, len(index)) for mon in mons], nums]
            for l, mons, nums in c.s_rows
            for index in [s_index.setdefault(l, {})]}])
    ls = sorted(s_index)
    for row in rows:
        row[2] = [row[2].get(l, [[], []]) for l in ls]
    doc = {"forms": forms,
           "s_mons": [[l, list(s_index[l])] for l in ls],
           "certificates": rows}
    # json.dumps uses the C encoder; json.dump to a file does not
    return json.dumps(doc)

