"""Content-addressed on-disk store for computed bases.

The key digests the cache format, the schema version, all three alphabet
definitions, the generator tables the construction reads (the
meromorphic images and P_{16,5}) and the target (weight, index), so any
change to the generator tables or the result format invalidates stale
entries automatically.  Writes are atomic: a temporary file in the same
directory is renamed into place.

Format 7 stores each certificate's witness only, and only what its
target does not fix, one JSON object per entry.  A row is
[positions, values], its nonzero int values at distinct positions in a
monomial list that the target fixes:

- "forms": each form's row over `enumerate_monomials(ab, target)`;
- "certificates": [den, [l, positions, values], ...] per form: den, the
  S_l's lowest common denominator (1 without S_l), then a row of
  numerators over den for each nonzero S_l, l ascending, over the S_l
  ansatz of `construct.s_ansatz(target)`.

No entry holds n or R.  Every certificate of a target has its Delta
power n (`s_ansatz`), so `save` refuses any other, and R is fixed by the
form, n and the S_l: `load` builds each certificate over its reloaded
form (`Certificate`), which derives R when it is read, so no stale R
can come back from disk.  `load` runs `certificate_identity` on each
certificate with an S_l, so no stored den or S numerator comes back
wrong.  It does not run it on the others, so it does not see a changed
form coefficient in a certificate without S_l, S rows dropped whole or
a form left out (the sha256 key covers stale entries).  It returns None
for an entry it cannot read (a directory in its place, JSON nested too
deeply to parse) and for any entry not shaped like one that `save`
writes: a row whose positions and values differ in length, a position
out of range of its list or repeated, a value of 0, an entry that is
not an int, an l whose S_l ansatz is empty (5l > m among them), a
certificate count other than the form count, forms other than nonzero
primitive ones, each positive at its lead (its smallest position), the
leads strictly ascending and no form nonzero at another form's lead, a
witness that `Certificate` refuses (the l not strictly ascending from 1,
a den < 1 or one sharing a factor with every S numerator) and S rows
that do not certify their form.  `save` raises CacheError, and writes
nothing, for a basis whose entry `load` would miss for its shape, a
certificate at another n or an S monomial outside its ansatz, and for
an entry the file system refuses.

The 98 entries of index <= 8 take 156,805 bytes and the 147 of index
<= 10 1,113,628 (182,552 and 1,219,657 in format 6, which stored n and
each entry's own S monomial lists).  The identity at
load sums only the terms of each form's image below E4^a, and n is at
or above the Delta power of every form's monomial images, so there is
no Delta to cancel and no test at a point to make: a verified load of
the 147 entries of index <= 10 costs less than recomputing them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import cache
from math import gcd
from typing import Optional

from .ansatz import enumerate_monomials
from .construct import (Certificate, JacobiBasis, SCHEMA_VERSION,
                        certificate_identity, coefficient_row, s_ansatz)
from .generators import meromorphic_images, p16_5
from .grading import AB, BiDegree, Poly, S_ALPHABET, ab
from .serialize import poly_to_compact

CACHE_FORMAT = 7
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
    """The basis of weight k and index m from its format-7 JSON text,
    each certificate over its form; KeyError, TypeError or ValueError
    when the text is not shaped like what `basis_to_text` writes or a
    certificate with an S_l does not certify its form, RecursionError
    when it nests too deep to parse."""
    target = BiDegree(k, m)
    doc = json.loads(text)
    mons = enumerate_monomials(ab, target)
    forms = [Poly(ab, dict(zip(*_terms(row, mons)))) for row in doc["forms"]]
    _check_echelon(doc["forms"])
    if len(doc["certificates"]) != len(forms):
        raise ValueError("certificate count differs from form count")
    n, s_mons = s_ansatz(target)
    certs = []
    for form, (den, *rows) in zip(forms, doc["certificates"]):
        _ints([den, *(l for l, _, _ in rows)], len(rows) + 1)
        cert = Certificate(form, n, den, tuple(
            (l, *_terms(row, s_mons.get(l, []))) for l, *row in rows))
        if cert.s_rows and not certificate_identity(form, cert):
            raise ValueError("S rows that do not certify their form")
        certs.append(cert)
    return JacobiBasis(target, certs)


def basis_to_text(basis: JacobiBasis) -> str:
    """The format-7 JSON text of `basis` (see the module docstring).

    CacheError for a basis whose entry `load` would miss for its shape
    or that format 7 cannot hold: forms not in the echelon shape of
    `_check_echelon`, a certificate at a Delta power other than the
    target's or an S monomial outside its S_l ansatz (the rest of a
    certificate's shape is its type's)."""
    target = basis.target
    pos = {mon: i for i, mon in enumerate(enumerate_monomials(ab, target))}
    # (positions, values) of a form
    forms = [tuple(zip(*sorted(coefficient_row(f, pos).items())))
             for f in basis.forms]
    try:
        _check_echelon(forms)
    except ValueError as exc:
        raise CacheError("not a basis in echelon form: %s" % exc) from None
    n, s_mons = s_ansatz(target)
    for c in basis.certificates:
        if c.n != n:
            raise CacheError("a certificate at Delta power %d, not the "
                             "target's %d" % (c.n, n))
    s_pos = {l: {mon: i for i, mon in enumerate(mons)}
             for l, mons in s_mons.items()}
    try:
        rows = [[c.den, *([l, [s_pos[l][mon] for mon in mons], nums]
                          for l, mons, nums in c.s_rows)]
                for c in basis.certificates]
    except KeyError:
        raise CacheError("an S monomial outside its ansatz") from None
    # json.dumps uses the C encoder; json.dump to a file does not
    return json.dumps({"forms": forms, "certificates": rows})
