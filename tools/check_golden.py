"""Check the frozen data that a test-suite run cannot afford: the
lowest-weight chain up to m = 17 and `module-gens 11` and `12`.

Run from the repository root (21-25 s on a 2-core VM):

    PYTHONPATH=src python tools/check_golden.py

`golden_lowest.json`, next to this script, holds, for the lowest
weights -4m of m = 1..17, dim J_{-4m,m}, the new-generator and relation
counts of `lb_analysis(17)` (the `e8jacobi lb 17` report) and the
sha256 of the canonical JSON text of each
`basis_to_json(jacobi_basis(-4m, m))`.  As a check on the data, the
script also asserts a new generator at every 12 <= m <= 17, the paper's
claim of a generator of weight -4m at each such index.

`golden_module_gens.json` holds the sha256 of the stdout of `e8jacobi
module-gens m` for m = 10, 11 and 12; the script runs 11 and 12 in
process and compares.  The test suite checks m = 10, and every other
golden file (`tests/test_golden.py`).

The data is frozen: a mismatch means the construction's output changed.
Prints one line per mismatch and a summary; exits 0 when everything
matches and 1 otherwise.  The seconds of each part and the process's
peak RSS go to stderr.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from e8jacobi.construct import clear_cache, jacobi_basis, lb_analysis
from e8jacobi.generators import _lifted_terms, _part_value
from e8jacobi.serialize import basis_to_json

HERE = Path(__file__).resolve().parent
# the digests of documents and of CLI stdout are the tests' own
sys.path.insert(0, str(HERE.parent / "tests"))
from helpers import digest, stdout_digest  # noqa: E402

MODULE_GENS = ["11", "12"]


def main() -> int:
    failures, seconds = [], {}
    start = perf_counter()
    golden = json.loads((HERE / "golden_module_gens.json").read_text())
    for m in MODULE_GENS:
        if stdout_digest(["module-gens", m]) != golden["module-gens"][m]:
            failures.append("stdout of module-gens " + m)
    seconds["module-gens"] = perf_counter() - start

    # the chain below needs none of the bases and images built so far
    clear_cache()
    _lifted_terms.cache_clear()
    _part_value.cache_clear()
    start = perf_counter()
    lowest = json.loads((HERE / "golden_lowest.json").read_text())
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
          + ", peak RSS %d MB"
          % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024),
          file=sys.stderr)

    for line in failures:
        print("MISMATCH", line)
    print("module-gens %s, %d lowest weights: %s"
          % (" and ".join(MODULE_GENS), top,
             "%d mismatches" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
