"""Frozen outputs: the CLI stdout and basis documents that the golden
files of `tools/` pin, up to the sizes a tier-1 run affords, and the
certificates of every basis those files pin up to index 10.

`tools/check_golden.py` checks all of the golden data, every basis of
index <= 10 and its round trip through the disk cache; this file checks
every CLI stdout those files hold, the profile lines up to index 8, the
basis documents up to index 6, and the shape and identity of every
certificate of index <= 10 as built.
"""

import json

from e8jacobi.construct import certificate_identity, jacobi_basis
from e8jacobi.serialize import basis_to_json

from helpers import (TOOLS, check_cli_outputs, digest, one_shape,
                     profile_targets, run)


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


def test_certificates_to_index_10():
    checked = 0
    for m in range(1, 11):
        for target in profile_targets(m):
            basis = jacobi_basis(*target)
            for i, (form, cert) in enumerate(zip(basis.forms,
                                                 basis.certificates)):
                assert one_shape(cert), (target, i)
                assert certificate_identity(form, cert), (target, i)
                checked += 1
    assert checked == 6575
