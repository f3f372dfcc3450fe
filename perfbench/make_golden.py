"""Write the golden data that every benchmark pass is checked against.

    python3 perfbench/make_golden.py

The committed files record the output of the commit that introduced the
benchmark, so they are a byte-identity gate: a change that alters any
serialized basis, certificate, rejection or the `tables --max-index 8`
text fails the benchmark.  Regenerate them only for a change whose
purpose is to alter that output, and say so in its description.

- golden/tables8.txt: the text of `tables --max-index 8`;
- golden/tables8.json: sha256 of `basis_to_json` for each of the 98
  targets (canonical JSON, see workloads.digest), and summary counts;
- golden/certify.json: sha256 of `certificate_to_json(certify(form))` for
  every form up to index 6, and the failing denominator power of the
  `Rejection` for each meromorphic generator.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import OUT, import_library
from workloads import (GOLDEN_DIR, MEROMORPHIC, _run_tables, digest, lib,
                       target_key)


def main() -> int:
    import_library(("cli", "cache", "serialize"))
    construct = lib("construct")
    serialize = lib("serialize")
    grading = lib("grading")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as cache_dir:
        rc, text = _run_tables(8, cache_dir)
    if rc != 0:
        print("tables --max-index 8 exited with %d" % rc, file=sys.stderr)
        return 1
    targets = [t for m in range(1, 9)
               for t in lib("cli")._profile_targets(m, None)]
    bases = {t: construct.jacobi_basis(*t) for t in targets}
    tables = {
        "digests": {target_key(*t): digest(serialize.basis_to_json(b))
                    for t, b in bases.items()},
        "targets": len(bases),
        "zero_targets": sum(not b.dimension for b in bases.values()),
        "forms": sum(b.dimension for b in bases.values()),
    }
    certs = {}
    for (k, m), basis in bases.items():
        if m <= 6:
            certs[target_key(k, m)] = [
                digest(serialize.certificate_to_json(construct.certify(f)))
                for f in basis.forms]
    rejections = {}
    for name in MEROMORPHIC:
        result = construct.certify(grading.Poly.gen(grading.ab, name))
        if not isinstance(result, construct.Rejection):
            print("%s certified unexpectedly" % name, file=sys.stderr)
            return 1
        rejections[name] = result.failing_l
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / "tables8.txt", "w") as fh:
        fh.write(text)
    for name, doc in (("tables8.json", tables),
                      ("certify.json", {"certificates": certs,
                                        "rejections": rejections})):
        with open(GOLDEN_DIR / name, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("targets %d, zero targets %d, forms %d, certified forms %d"
          % (tables["targets"], tables["zero_targets"], tables["forms"],
             sum(len(v) for v in certs.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
