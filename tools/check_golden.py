"""Check the constructions up to index 10 against frozen golden data.

Run from the repository root (42-43 s on one core of a 2-core VM, two
runs, where the code that summed every identity's whole image took
38-46 s: about 1 s to build the bases, 10-12 s for the digests, mostly
`basis_to_json`, which derives each certificate's R from its form's
image, 5-6 s for the shape checks, which read R and so sum each form's
whole image, 0.1 s for the certificate checks right after them, which
run in integers on the same image (a reloaded certificate's shape is
checked right after its document is written, so its R reuses that
image), 10-13 s for the cache round trip, mostly writing the documents
and the identities that loading runs, on the image below E4^a, on the
893 certificates with an S part, 0.2 s for the numeric check, 0.5 s
for the span outputs and 12-13 s for the lowest weights below, nearly
all of it the bases of m = 16 and 17; the process peaks at about
380 MB, because the bases and images built before the lowest weights
are dropped first):

    PYTHONPATH=src python tools/check_golden.py

`golden_index10.json`, next to this script, holds the sha256 of the
canonical JSON text of `basis_to_json(jacobi_basis(k, m))` for each of
the 147 targets (k, m) of `e8jacobi tables --max-index 10`, and the
P^w_m line that command prints for each index.  The data is frozen: a
mismatch means the construction's output changed.  The script also runs
`certificate_identity` on every form of those bases with its certificate
(6,575 forms), counting a failure as a mismatch, writes every one of
those bases through a `DiskStore` in a temporary directory and compares
the digest of each reloaded entry with the golden one, and checks one
form of J_{-40,10} numerically against the Jacobi-form axioms.  It
checks the shape of each of those certificates as built and again as
reloaded (`one_shape` of `tests/helpers.py`), a failure again a
mismatch.

`golden_spans.json` holds the sha256 of the stdout of `e8jacobi
module-gens m` for m = 1..9 and of `e8jacobi lb 12`, the commands whose
generators come from spans and complements of bases; the script runs
them in process and compares.

`golden_lowest.json` holds, for the lowest weights -4m of m = 1..17,
dim J_{-4m,m}, the new-generator and relation counts of
`lb_analysis(17)` (the `e8jacobi lb 17` report) and the sha256 of each
`basis_to_json(jacobi_basis(-4m, m))`.  As a check on the data, the
script also asserts a new generator at every 12 <= m <= 17, the paper's
claim of a generator of weight -4m at each such index.

Prints one line per mismatch and a summary; exits 0 when everything
matches and 1 otherwise.  The seconds of each part, the bytes of the
temporary store's entries (1,219,657 in cache format 6, 1,323,077 in
format 5) and the process's peak RSS go to stderr.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from e8jacobi import cli
from e8jacobi.cache import DiskStore
from e8jacobi.construct import (certificate_identity, clear_cache,
                                jacobi_basis, lb_analysis, profile_weights)
from e8jacobi.generators import _lifted_terms, _part_value
from e8jacobi.oracle import EvalContext, check_axioms
from e8jacobi.serialize import (basis_to_json, certificate_to_json,
                                 poly_to_json)

HERE = Path(__file__).resolve().parent
# the certificate shape check is the tests' own
sys.path.insert(0, str(HERE.parent / "tests"))
from helpers import one_shape  # noqa: E402

GOLDEN = HERE / "golden_index10.json"
GOLDEN_SPANS = HERE / "golden_spans.json"
GOLDEN_LOWEST = HERE / "golden_lowest.json"
MAX_INDEX = 10


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reloaded_digest(what: str, basis, failures) -> tuple:
    """(the digest of `basis_to_json(basis)`, seconds of the shape
    checks): each certificate's document is written and its shape
    checked right after, so that both read R off one image; a failure
    names the basis as `what`."""
    docs, shapes = [], 0.0
    for i, cert in enumerate(basis.certificates):
        docs.append(certificate_to_json(cert))
        start = perf_counter()
        if not one_shape(cert):
            failures.append("shape of certificate %d of %s" % (i, what))
        shapes += perf_counter() - start
    target = basis.target
    return digest({"weight": target.weight, "index": target.index,
                   "dimension": basis.dimension,
                   "forms": list(map(poly_to_json, basis.forms)),
                   "certificates": docs}), shapes


def run(argv, failures) -> str:
    """The stdout of the CLI on `argv`; a nonzero exit is a mismatch."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(argv)
    if code != 0:
        failures.append("%s exited %d" % (" ".join(argv), code))
    return text.getvalue()


def main() -> int:
    golden = json.loads(GOLDEN.read_text())
    failures = []

    seconds = dict.fromkeys(["tables", "digests", "identities", "shapes",
                             "cache", "numeric check", "spans", "lowest"],
                            0.0)
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
    certified = 0
    for key in targets:
        k, m = map(int, key.split(","))
        basis = jacobi_basis(k, m)
        start = perf_counter()
        if digest(basis_to_json(basis)) != golden["digests"].get(key):
            failures.append("basis digest of J_{%d,%d}" % (k, m))
        seconds["digests"] += perf_counter() - start
        # the shape check's read of R builds the form's full image, and
        # the identity right after it, which reads the terms below E4^a,
        # reuses that image
        for i, (form, cert) in enumerate(zip(basis.forms,
                                             basis.certificates)):
            start = perf_counter()
            if not one_shape(cert):
                failures.append("shape of certificate %d of J_{%d,%d}"
                                % (i, k, m))
            middle = perf_counter()
            if certificate_identity(form, cert):
                certified += 1
            else:
                failures.append("certificate %d of J_{%d,%d}" % (i, k, m))
            seconds["shapes"] += middle - start
            seconds["identities"] += perf_counter() - middle

    start = perf_counter()
    shapes = 0.0
    with tempfile.TemporaryDirectory() as root:
        store = DiskStore(root)
        for key in targets:
            k, m = map(int, key.split(","))
            store.save(k, m, jacobi_basis(k, m))
            loaded = store.load(k, m)
            got, seconds_shapes = (None, 0.0) if loaded is None else \
                reloaded_digest("reloaded J_{%d,%d}" % (k, m), loaded,
                                failures)
            shapes += seconds_shapes
            if loaded is None or got != golden["digests"].get(key):
                failures.append("cache entry of J_{%d,%d}" % (k, m))
        store_bytes = sum(entry.stat().st_size for entry in os.scandir(root))
    seconds["shapes"] += shapes
    seconds["cache"] = perf_counter() - start - shapes

    start = perf_counter()
    form = jacobi_basis(-40, 10).forms[0]
    rep = check_axioms(form, -40, 10, 1, EvalContext(), seed=0)
    if not (rep.max_residual < 1e-25 and rep.regular):
        failures.append("J_{-40,10} form 1: residual %.2e, regular %s"
                        % (rep.max_residual, rep.regular))
    seconds["numeric check"] = perf_counter() - start

    start = perf_counter()
    spans = json.loads(GOLDEN_SPANS.read_text())
    for command, runs in sorted(spans.items()):
        for arg, want in runs.items():
            got = run([command, arg], failures)
            if hashlib.sha256(got.encode()).hexdigest() != want:
                failures.append("stdout of %s %s" % (command, arg))
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
    print("%d targets, %d profiles, %d certificates, 1 numeric check, "
          "%d span outputs, %d lowest weights: %s"
          % (len(targets), MAX_INDEX, certified,
             sum(map(len, spans.values())), top,
             "%d mismatches" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
