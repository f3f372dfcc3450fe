"""Frozen outputs: every datum of index <= 10 that the golden files of
`tools/` pin, and `module-gens 10`.

One pass over the 147 bases of index <= 10 writes each certificate's
document, checks its shape and runs its identity, in that order, so
that all three read one image of its form, summed once, and compares
every basis digest and the P^w_1..P^w_10 lines with
`golden_index10.json`.  A `DiskStore` round trip of those bases must
give back each certificate's witness (its form, n, den and S rows):
the document, the shape and the identity are functions of the witness,
so with the pass they hold for every reloaded certificate too.  The
18 CLI outputs that `golden_spans.json`, `golden_certify.json` and
`golden_basis.json` pin, and `module-gens 10` of
`golden_module_gens.json`, are run in process.

`tools/check_golden.py` checks the rest, which a tier-1 run cannot
afford: `golden_lowest.json`, the lowest weights up to m = 17, and
`module-gens 11` and `12`.
"""

import json
from types import SimpleNamespace

from e8jacobi.cache import DiskStore
from e8jacobi.construct import certificate_identity, jacobi_basis
from e8jacobi.grading import Poly, ab, delta_poly
from e8jacobi.serialize import certificate_to_json, poly_to_json

from helpers import (TOOLS, digest, one_shape, profile_targets, run,
                     stdout_digest)

INDEX_10 = [target for m in range(1, 11) for target in profile_targets(m)]


def golden(name):
    return json.loads((TOOLS / name).read_text())


def checked_digest(basis) -> str:
    """The digest of `basis_to_json(basis)`, asserting on the way the
    shape and the identity of each certificate right after its document
    is written, so that all three read one image of its form, and the
    document and the shape one derivation of its R; the documents share
    one exponent map per monomial, as in `basis_to_json`."""
    docs, memo = [], {}
    for i, cert in enumerate(basis.certificates):
        r_rows = cert.r_rows()
        # the certificate with its R rows held, for the document writer
        held = SimpleNamespace(n=cert.n, den=cert.den, s_rows=cert.s_rows,
                               r_rows=lambda: r_rows)
        docs.append(certificate_to_json(held, memo))
        assert one_shape(cert, r_rows), (basis.target, i)
        assert certificate_identity(cert.form, cert), (basis.target, i)
    target = basis.target
    return digest({"weight": target.weight, "index": target.index,
                   "dimension": basis.dimension,
                   "forms": [poly_to_json(f, memo) for f in basis.forms],
                   "certificates": docs})


def test_certificates_to_index_10():
    want = golden("golden_index10.json")
    bases = [jacobi_basis(*target) for target in INDEX_10]
    assert sum(basis.dimension for basis in bases) == 6575
    assert {"%d,%d" % target: checked_digest(basis)
            for target, basis in zip(INDEX_10, bases)} == want["digests"]
    assert run(["tables", "--max-index", "10"]).splitlines() \
        == ["P^w_%d = %s" % (m, want["profiles"][str(m)])
            for m in range(1, 11)]


def test_disk_store_round_trip_to_index_10(tmp_path):
    def witnesses(basis):
        return [(c.form, c.n, c.den, c.s_rows) for c in basis.certificates]

    store = DiskStore(str(tmp_path))
    for k, m in INDEX_10:
        basis = jacobi_basis(k, m)
        store.save(k, m, basis)
        loaded = store.load(k, m)
        assert loaded is not None, (k, m)
        assert loaded.target == basis.target
        assert witnesses(loaded) == witnesses(basis), (k, m)


def test_module_gens_10():
    want = golden("golden_module_gens.json")["module-gens"]["10"]
    assert stdout_digest(["module-gens", "10"]) == want


def test_cli_outputs(tmp_path, monkeypatch):
    """Each certify input is written to `form.json` in a temporary
    working directory, as the JSON `target` echoes the file name."""
    outputs = [([command, arg], want) for command, runs
               in golden("golden_spans.json").items()
               for arg, want in runs.items()]
    outputs += [(["--format", "json", "basis", *args.split()], want)
                for args, want in golden("golden_basis.json").items()]
    certify_runs = golden("golden_certify.json")
    assert len(outputs) + sum(map(len, certify_runs.values())) == 18
    inputs = {"s_part": jacobi_basis(-26, 8).certificates[7].form,
              "delta": delta_poly(ab) * jacobi_basis(-26, 7).forms[0],
              "b1": Poly.gen(ab, "b1")}
    monkeypatch.chdir(tmp_path)
    mismatches = [" ".join(argv) for argv, want in outputs
                  if stdout_digest(argv) != want]
    for name, runs in certify_runs.items():
        (tmp_path / "form.json").write_text(
            json.dumps(poly_to_json(inputs[name])))
        mismatches += ["%s certify on %s" % (fmt, name)
                       for fmt, want in runs.items()
                       if stdout_digest(["--format", fmt, "certify",
                                         "form.json"]) != want]
    assert mismatches == []


def test_every_golden_file_is_read():
    """Each `tools/golden_*.json` is named, as a quoted string, in the
    source of a test or of `tools/check_golden.py`, so that no frozen
    datum goes unchecked; a docstring names them in backquotes."""
    sources = "".join(path.read_text() for path in [
        *(TOOLS.parent / "tests").glob("*.py"), TOOLS / "check_golden.py"])
    names = sorted(path.name for path in TOOLS.glob("golden_*.json"))
    assert names
    assert [name for name in names if '"%s"' % name not in sources] == []
