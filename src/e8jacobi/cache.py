"""Content-addressed on-disk store for computed bases.

The key digests the cache format, the schema version, all three alphabet
definitions, the generator tables the construction reads (the
meromorphic images and P_{16,5}) and the target (weight, index), so any
change to the generator tables or the result format invalidates stale
entries automatically.  Writes are atomic: a temporary file in the same
directory is renamed into place.

Format 3 stores sparse integer rows, one JSON object per entry; a row
is [positions, values], its nonzero values at strictly ascending
positions:

- "forms": each form's int coefficients over
  `enumerate_monomials(ab, target)`, whose order fixes the positions;
- "r_mons": the AB exponent vectors of the remainders, listed once;
- "s_mons": [l, S exponent vectors] for each S_l, listed once;
- "certificates": [n, den, R's numerators, [S_l's numerators for each l
  of "s_mons"]] per form, every numerator over the one den.

`load` expands the rows into the dense rows of a computed basis.  It
returns None for an entry it cannot read (a directory in its place, JSON
nested too deeply to parse) and for any entry not shaped like that: a
row whose positions and values differ in length, a position out of
range, not ascending or repeated, a value of 0, an entry that is not an
int, a denominator <= 0, a negative Delta power, an l of "s_mons" below
1 or listed twice, a monomial listed twice in "r_mons" or in one S_l
list, or a certificate count other than the form count.  A `save` that
cannot write its entry raises CacheError.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import cache
from itertools import chain, compress
from operator import lt
from typing import List, Optional

from .ansatz import enumerate_monomials
from .construct import (Certificate, JacobiBasis, SCHEMA_VERSION,
                        coefficient_row)
from .generators import meromorphic_images, p16_5
from .grading import AB, BiDegree, Poly, S_ALPHABET, ab
from .serialize import poly_to_compact

CACHE_FORMAT = 3
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


def _pairs(row, length: int) -> zip:
    """The (position, value) pairs of the sparse row [positions, values];
    ValueError unless its values are nonzero ints, one per position, at
    int positions strictly ascending in range(length)."""
    positions, values = row
    _ints(values, len(_ints(positions, len(positions))))
    bounds = [-1, *positions, length]
    if 0 in values or not all(map(lt, bounds, bounds[1:])):
        raise ValueError("not a sparse row of length %d" % length)
    return zip(positions, values)


def _dense(row, length: int) -> list:
    """The `length` ints of the sparse row [positions, values]."""
    out = [0] * length
    for i, x in _pairs(row, length):
        out[i] = x
    return out


def _sparse(row: list) -> list:
    """The [positions, values] pair of the nonzeros of `row`."""
    return [list(compress(range(len(row)), row)), list(filter(None, row))]


def _exponents(rows, width: int) -> List[tuple]:
    """Distinct exponent vectors of `width` non-negative ints, as tuples."""
    out = [tuple(_ints(exps, width)) for exps in rows]
    if any(e < 0 for exps in out for e in exps) or len(set(out)) < len(out):
        raise ValueError("negative exponent or repeated monomial")
    return out


def _union(lists: list) -> list:
    """One list holding every entry of `lists`: the first list itself
    when all of them are the same object, as in one computed basis."""
    first = lists[0]
    if all(x is first for x in lists):
        return first
    return list(dict.fromkeys(chain.from_iterable(lists)))


def _aligned(mons: list, own: list, nums: list) -> list:
    """Numerators `nums` over the monomials `own`, re-listed over `mons`."""
    if own is mons:
        return nums
    pos = dict(zip(own, nums))
    return [pos.get(mon, 0) for mon in mons]


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
        """Write the entry atomically; CacheError when the file system
        refuses it (say, a directory where the entry goes)."""
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
    """The basis of weight k and index m from its format-3 JSON text;
    KeyError, TypeError or ValueError when the text is not shaped like
    what `basis_to_text` writes, RecursionError when it nests too deep
    to parse.  The certificates share one remainder monomial list and
    one list per S_l, as in a computed basis."""
    target = BiDegree(k, m)
    doc = json.loads(text)
    mons = enumerate_monomials(ab, target)
    forms = [Poly(ab, {mons[i]: x for i, x in _pairs(row, len(mons))})
             for row in doc["forms"]]
    r_mons = _exponents(doc["r_mons"], len(AB))
    s_mons = [(l, _exponents(rows, len(S_ALPHABET)))
              for l, rows in doc["s_mons"]]
    ls = _ints([l for l, _ in s_mons], len(s_mons))
    if any(l < 1 for l in ls) or len(set(ls)) != len(ls):
        raise ValueError("an l of s_mons below 1 or repeated")
    certs = []
    for n, den, r_nums, s_nums in doc["certificates"]:
        _ints([n, den], 2)
        if n < 0 or den <= 0 or len(s_nums) != len(s_mons):
            raise ValueError("malformed certificate")
        s_rows = tuple((l, mons_l, _dense(nums, len(mons_l)))
                       for (l, mons_l), nums in zip(s_mons, s_nums))
        certs.append(Certificate(
            n, den, r_mons, _dense(r_nums, len(r_mons)), s_rows))
    if len(certs) != len(forms):
        raise ValueError("certificate count differs from form count")
    return JacobiBasis(target, forms, certs)


def basis_to_text(basis: JacobiBasis) -> str:
    """The format-3 JSON text of `basis` (see the module docstring)."""
    pos = {mon: i for i, mon
           in enumerate(enumerate_monomials(ab, basis.target))}
    certs = basis.certificates
    r_mons = _union([c.r_mons for c in certs]) if certs else []
    s_lists: dict = {}
    for c in certs:
        for l, mons, _ in c.s_rows:
            s_lists.setdefault(l, []).append(mons)
    s_mons = [(l, _union(lists)) for l, lists in sorted(s_lists.items())]
    rows = []
    for c in certs:
        own = {l: (mons, nums) for l, mons, nums in c.s_rows}
        rows.append([c.n, c.den,
                     _sparse(_aligned(r_mons, c.r_mons, c.r_nums)),
                     [_sparse(_aligned(mons, *own.get(l, ((), ()))))
                      for l, mons in s_mons]])
    doc = {
        # (positions, values) of a form: it is never zero
        "forms": [list(zip(*sorted(coefficient_row(f, pos).items())))
                  for f in basis.forms],
        "r_mons": r_mons,
        "s_mons": s_mons,
        "certificates": rows,
    }
    # json.dumps uses the C encoder; json.dump to a file does not
    return json.dumps(doc)
