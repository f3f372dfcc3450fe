"""Check the constructions up to index 10 against frozen golden data.

Run from the repository root (32-35 s on a 2-core VM, three runs; 34 s
when it also checked each certificate as built and one form
numerically).  Each certificate as reloaded from a store has its
document written, its shape checked and its identity run, in that
order, so that all three read one image of its form, summed once; each
basis's documents share one exponent map per monomial, as
`basis_to_json`'s do.  The certificates as built and the numeric check
of one form of J_{-40,10} are the test suite's (`tests/test_golden.py`,
`tests/test_oracle.py`).  The parts: about 1 s to build the bases,
8.5-9.4 s for the digests of the bases as built, mostly the documents,
which derive each certificate's R from its form's full image, 0.8-0.9 s
for the shape checks, 0.1 s for the identities, 9.1-9.8 s for the rest
of the cache round trip, mostly the reloaded documents and the
identities that loading runs, on the image below E4^a, on the 893
certificates with an S part, 0.6 s for the span, certify and basis
outputs and 11-13 s for the lowest weights below, nearly all of it the
bases of m = 16 and 17; the process peaks at 369-370 MB, because the
bases and images built before the lowest weights are dropped first:

    PYTHONPATH=src python tools/check_golden.py

`golden_index10.json`, next to this script, holds the sha256 of the
canonical JSON text of `basis_to_json(jacobi_basis(k, m))` for each of
the 147 targets (k, m) of `e8jacobi tables --max-index 10`, and the
P^w_m line that command prints for each index.  The data is frozen: a
mismatch means the construction's output changed.  The script also
writes every one of those bases through a `DiskStore` in a temporary
directory, compares the digest of each reloaded entry with the golden
one, and checks the shape (`one_shape` of `tests/helpers.py`) and runs
`certificate_identity` on each of the 6,575 reloaded certificates,
counting a failure as a mismatch.

`golden_spans.json` holds the sha256 of the stdout of `e8jacobi
module-gens m` for m = 1..9 and of `e8jacobi lb 12`, the commands whose
generators come from spans and complements of bases; the script runs
them in process and compares.

`golden_certify.json` holds the sha256 of the stdout of `e8jacobi
certify FILE`, as text and as `--format json` without its
`elapsed_seconds` line, for three inputs: the form of certificate 7 of
J_{-26,8}, which has an S part; Delta times the first form of
J_{-26,7}, from which `certify` cancels a Delta (n = 4) through the full
image; and b1, which `certify` rejects at l = 1.  The script writes each
input to `form.json` in a temporary working directory, so that the JSON
`target` is the same on every run, and runs the six commands in process
with the span outputs.

`golden_basis.json` holds the sha256 of the stdout of `e8jacobi
--format json basis k m`, without its `elapsed_seconds` line, for
J_{-26,8} and J_{0,8}; the script runs both in process with the span
outputs.  These 18 CLI outputs are compared by `check_cli_outputs` of
`tests/helpers.py`, which the test suite runs too.

`golden_lowest.json` holds, for the lowest weights -4m of m = 1..17,
dim J_{-4m,m}, the new-generator and relation counts of
`lb_analysis(17)` (the `e8jacobi lb 17` report) and the sha256 of each
`basis_to_json(jacobi_basis(-4m, m))`.  As a check on the data, the
script also asserts a new generator at every 12 <= m <= 17, the paper's
claim of a generator of weight -4m at each such index.

Prints one line per mismatch and a summary; exits 0 when everything
matches and 1 otherwise.  The seconds of each part, the bytes of the
temporary store's entries (1,113,628 in cache format 7, 1,219,657 in
format 6) and the process's peak RSS go to stderr.
"""

import json
import os
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from e8jacobi.cache import DiskStore
from e8jacobi.construct import (certificate_identity, clear_cache,
                                jacobi_basis, lb_analysis, profile_weights)
from e8jacobi.generators import _lifted_terms, _part_value
from e8jacobi.serialize import (basis_to_json, certificate_to_json,
                                 poly_to_json)

HERE = Path(__file__).resolve().parent
# the certificate shape check and the CLI digests are the tests' own
sys.path.insert(0, str(HERE.parent / "tests"))
from helpers import check_cli_outputs, digest, one_shape, run  # noqa: E402

GOLDEN = HERE / "golden_index10.json"
GOLDEN_LOWEST = HERE / "golden_lowest.json"
MAX_INDEX = 10


def checked_digest(what: str, basis, failures, seconds) -> tuple:
    """(the digest of `basis_to_json(basis)`, the count of its
    certificates whose identity holds): per certificate, its document is
    written, its shape is checked and its identity is run, in that
    order, so that all three read one image of its form, summed once;
    the documents share one exponent map per monomial, as in
    `basis_to_json`.  A failure names the basis as `what`.  The seconds
    of the document go to "cache", those of the checks to "shapes" and
    "identities"."""
    docs, certified, memo = [], 0, {}
    for i, cert in enumerate(basis.certificates):
        start = perf_counter()
        docs.append(certificate_to_json(cert, memo))
        shape = perf_counter()
        if not one_shape(cert):
            failures.append("shape of certificate %d of %s" % (i, what))
        identity = perf_counter()
        if certificate_identity(cert.form, cert):
            certified += 1
        else:
            failures.append("certificate %d of %s" % (i, what))
        seconds["cache"] += shape - start
        seconds["shapes"] += identity - shape
        seconds["identities"] += perf_counter() - identity
    start = perf_counter()
    target = basis.target
    got = digest({"weight": target.weight, "index": target.index,
                  "dimension": basis.dimension,
                  "forms": [poly_to_json(f, memo) for f in basis.forms],
                  "certificates": docs})
    seconds["cache"] += perf_counter() - start
    return got, certified


def main() -> int:
    golden = json.loads(GOLDEN.read_text())
    failures = []

    seconds = dict.fromkeys(["tables", "digests", "identities", "shapes",
                             "cache", "spans", "lowest"], 0.0)
    start = perf_counter()
    text = run(["tables", "--max-index", str(MAX_INDEX)], failures)
    seconds["tables"] = perf_counter() - start
    profiles = dict(line.split(" = ", 1) for line in text.splitlines())
    for m in range(1, MAX_INDEX + 1):
        want = golden["profiles"][str(m)]
        got = profiles.get("P^w_%d" % m)
        if got != want:
            failures.append("P^w_%d: %s, expected %s" % (m, got, want))

    targets = ["%d,%d" % (k, m) for m in range(1, MAX_INDEX + 1)
               for k in profile_weights(m)]
    if sorted(targets) != sorted(golden["digests"]):
        failures.append("targets differ from the golden file's")
    # each basis is digested as built, and checked in full as reloaded
    # from a store; the tests check its certificates as built
    certified = 0
    with tempfile.TemporaryDirectory() as root:
        store = DiskStore(root)
        for key in targets:
            k, m = map(int, key.split(","))
            what = "J_{%d,%d}" % (k, m)
            basis = jacobi_basis(k, m)
            start = perf_counter()
            if digest(basis_to_json(basis)) != golden["digests"].get(key):
                failures.append("basis digest of " + what)
            seconds["digests"] += perf_counter() - start
            start = perf_counter()
            store.save(k, m, basis)
            loaded = store.load(k, m)
            seconds["cache"] += perf_counter() - start
            got, ok = (None, 0) if loaded is None else checked_digest(
                "reloaded " + what, loaded, failures, seconds)
            certified += ok
            if got != golden["digests"].get(key):
                failures.append("cache entry of " + what)
        store_bytes = sum(entry.stat().st_size for entry in os.scandir(root))

    start = perf_counter()
    outputs = check_cli_outputs(failures)
    seconds["spans"] = perf_counter() - start

    # the chain below needs none of the bases and images built so far
    clear_cache()
    _lifted_terms.cache_clear()
    _part_value.cache_clear()
    start = perf_counter()
    lowest = json.loads(GOLDEN_LOWEST.read_text())
    top = lowest["max_index"]
    report = lb_analysis(top)
    got = {"dims": report.lb_dims,
           "new_generators": {m: len(g) for m, g in report.lb_gens.items()},
           "relations": report.relation_counts,
           "digests": {m: digest(basis_to_json(jacobi_basis(-4 * m, m)))
                       for m in range(1, top + 1)}}
    for field, values in got.items():
        for m, value in values.items():
            if value != lowest[field][str(m)]:
                failures.append("%s at m = %d: %s, expected %s"
                                % (field, m, value, lowest[field][str(m)]))
    for m in range(12, top + 1):
        if not lowest["new_generators"][str(m)]:
            failures.append("golden_lowest.json: no new generator at m = %d"
                            % m)
    seconds["lowest"] = perf_counter() - start
    print(", ".join("%s %.1f s" % item for item in seconds.items())
          + ", cache entries %d bytes, peak RSS %d MB"
          % (store_bytes,
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024),
          file=sys.stderr)

    for line in failures:
        print("MISMATCH", line)
    print("%d targets, %d profiles, %d reloaded certificates, "
          "%d CLI outputs, %d lowest weights: %s"
          % (len(targets), MAX_INDEX, certified, outputs, top,
             "%d mismatches" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
