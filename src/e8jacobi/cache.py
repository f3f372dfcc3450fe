"""Content-addressed on-disk store for computed bases.

The key digests the schema version, all three alphabet definitions, the
generator tables the construction reads (the meromorphic images and
P_{16,5}) and the target (weight, index), so any change to the generator
tables or the result format invalidates stale entries automatically.
Writes are atomic: a temporary file in the same directory is renamed
into place.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import cache
from typing import Optional

from .construct import Certificate, JacobiBasis, SCHEMA_VERSION
from .generators import meromorphic_images, p16_5
from .grading import AB, BiDegree, S_ALPHABET, ab
from .serialize import poly_from_compact, poly_to_compact


@cache
def _tables_digest() -> str:
    """Digest of the meromorphic images and P_{16,5}, once per process."""
    images = [[name, poly_to_compact(f.num), f.e4_pow, f.delta_pow]
              for name, f in sorted(meromorphic_images().items())]
    material = json.dumps([images, poly_to_compact(p16_5())]).encode()
    return hashlib.sha256(material).hexdigest()


class DiskStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _digest(self, k: int, m: int) -> str:
        material = json.dumps([
            SCHEMA_VERSION,
            [a.fingerprint() for a in (AB, ab, S_ALPHABET)],
            _tables_digest(),
            k, m,
        ]).encode()
        return hashlib.sha256(material).hexdigest()

    def _path(self, k: int, m: int) -> str:
        return os.path.join(self.root, self._digest(k, m) + ".json")

    def load(self, k: int, m: int) -> Optional[JacobiBasis]:
        """The stored basis, or None when the entry is missing, unreadable
        or not shaped like one that `save` writes."""
        path = self._path(k, m)
        try:
            with open(path) as fh:
                doc = json.load(fh)
            forms = [poly_from_compact("ab", rows) for rows in doc["forms"]]
            certs = [
                Certificate(c["n"],
                            tuple((l, poly_from_compact("S", rows))
                                  for l, rows in c["s_parts"]),
                            poly_from_compact("AB", c["remainder"]))
                for c in doc["certificates"]
            ]
        except (FileNotFoundError, KeyError, TypeError, ValueError):
            return None
        if len(certs) != len(forms):
            return None
        return JacobiBasis(BiDegree(k, m), forms, certs)

    def save(self, k: int, m: int, basis: JacobiBasis) -> None:
        doc = {
            "forms": [poly_to_compact(f) for f in basis.forms],
            "certificates": [
                {"n": c.n,
                 "s_parts": [[l, poly_to_compact(s)] for l, s in c.s_parts],
                 "remainder": poly_to_compact(c.remainder)}
                for c in basis.certificates
            ],
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # json.dumps uses the C encoder; json.dump to a file does not
                fh.write(json.dumps(doc))
            os.replace(tmp, self._path(k, m))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
