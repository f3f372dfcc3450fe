"""Frozen outputs: the CLI stdout and basis documents that the golden
files of `tools/` pin, up to the sizes a tier-1 run affords.

`tools/check_golden.py` checks all of them, and every basis of index
<= 10; this file checks every CLI stdout those files hold, the profile
lines up to index 8 and the basis documents up to index 6.
"""

import json

from e8jacobi.construct import jacobi_basis
from e8jacobi.serialize import basis_to_json

from helpers import TOOLS, check_cli_outputs, digest, profile_targets, run


def golden(name):
    return json.loads((TOOLS / name).read_text())


def test_cli_outputs():
    failures = []
    assert check_cli_outputs(failures) == 18
    assert failures == []


def test_profile_lines_to_index_8():
    failures = []
    text = run(["tables", "--max-index", "8"], failures)
    profiles = golden("golden_index10.json")["profiles"]
    assert failures == []
    assert text.splitlines() == ["P^w_%d = %s" % (m, profiles[str(m)])
                                 for m in range(1, 9)]


def test_basis_documents_to_index_6():
    want = {key: value for key, value
            in golden("golden_index10.json")["digests"].items()
            if int(key.split(",")[1]) <= 6}
    got = {"%d,%d" % target: digest(basis_to_json(jacobi_basis(*target)))
           for m in range(1, 7) for target in profile_targets(m)}
    assert got == want
