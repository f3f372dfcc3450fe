"""The benchmark's workloads: `tables8`, `oracle` and `certify`.

Each workload has `setup()` (untimed by the pass, timed as set-up),
`run()` (one timed pass; returns raw outputs) and `check(outputs)`
(compares the outputs with the golden data and returns an `Outcome`).
Library modules are looked up in `sys.modules` when a workload is set
up, because the runner re-imports the package for every set-up.

Only inputs generated from the seed reach the library:
- `tables8` has no random input: the command fixes the 98 targets;
- `oracle` draws the sample points of its axiom checks from the seed;
- `certify` draws the integer coefficients of its combinations from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The nine meromorphic generators; none is a holomorphic Jacobi form, so
# each must be rejected by `certify`.
MEROMORPHIC = ("a2", "a3", "a4", "b1", "b2", "b3", "b4", "b5", "b6")

# Oracle acceptance bound, as in acceptance criterion 9.
ORACLE_BOUND = 1e-25


def digest(doc) -> str:
    """sha256 of the canonical JSON text of `doc`."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def target_key(k: int, m: int) -> str:
    return "%d,%d" % (k, m)


def load_golden(name: str):
    path = GOLDEN_DIR / name
    with open(path) as fh:
        return fh.read() if path.suffix == ".txt" else json.load(fh)


def dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def lib(name: str):
    return sys.modules["e8jacobi." + name]


@dataclass
class Outcome:
    """Operations attempted and failed in one pass, plus exact counts read
    off the outputs."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)


def _run_tables(max_index: int, cache_dir: str) -> Tuple[int, str]:
    """`e8jacobi --jobs 1 --cache-dir DIR tables --max-index N`."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        rc = lib("cli").main(["--jobs", "1", "--cache-dir", cache_dir,
                              "tables", "--max-index", str(max_index)])
    return rc, text.getvalue()


def _golden_targets(max_index: int) -> Dict[Tuple[int, int], str]:
    out = {}
    for key, value in load_golden("tables8.json")["digests"].items():
        k, m = map(int, key.split(","))
        if m <= max_index:
            out[(k, m)] = value
    return out


class Workload:
    name = ""
    modules: Tuple[str, ...] = ()
    ops_per_pass = 1

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self._dirs: List[str] = []

    def tempdir(self) -> str:
        path = tempfile.mkdtemp(dir=self.workdir)
        self._dirs.append(path)
        return path

    def close(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()

    def setup(self) -> None:
        pass


class Tables(Workload):
    """A cold `tables --max-index 8`: an empty in-memory basis cache and a
    fresh, empty `--cache-dir` on every pass."""

    name = "tables8"
    modules = ("cli", "cache", "serialize")

    def __init__(self, workdir: str, seed: int, max_index: int = 8):
        super().__init__(workdir, seed)
        self.max_index = max_index
        self.golden = _golden_targets(max_index)
        lines = load_golden("tables8.txt").splitlines(keepends=True)
        self.golden_text = "".join(lines[:max_index])
        self.ops_per_pass = 2 + len(self.golden)

    def run(self):
        lib("construct").clear_cache()
        cache_dir = self.tempdir()
        rc, text = _run_tables(self.max_index, cache_dir)
        return rc, text, cache_dir

    def check(self, outputs) -> Outcome:
        rc, text, cache_dir = outputs
        out = Outcome()
        out.expect(rc == 0, "exit code %r" % rc)
        out.expect(text == self.golden_text, "tables text differs")
        basis_to_json = lib("serialize").basis_to_json
        jacobi_basis = lib("construct").jacobi_basis
        forms = zero = 0
        for (k, m), want in self.golden.items():
            basis = jacobi_basis(k, m)
            forms += basis.dimension
            zero += not basis.dimension
            out.expect(digest(basis_to_json(basis)) == want,
                       "basis (%d,%d) differs" % (k, m))
        out.counts.update({"construct.targets": len(self.golden),
                           "construct.zero_targets": zero,
                           "construct.forms": forms,
                           "cache.bytes_written": dir_bytes(cache_dir)})
        return out


class Oracle(Workload):
    """Acceptance criterion 9 outside pytest: `check_axioms` on A1 at
    (4,1) and on both J_{-16,5} basis forms, then the leading
    q-coefficients of four meromorphic generators against the Weyl-orbit
    characters, at precision 50 with a fresh `EvalContext` per pass.

    One axiom sample per form instead of the criterion's three, and both
    J_{-16,5} forms share their sample points, so that a pass fits the
    run length; the q-Laurent regularity probe runs for every form.
    """

    name = "oracle"
    modules = ("oracle",)
    precision = 50
    samples = 1

    def __init__(self, workdir: str, seed: int,
                 spaces=((4, 1), (-16, 5)),
                 probe_names=("a2", "b1", "b2", "b3")):
        super().__init__(workdir, seed)
        self.spaces = spaces
        self.probe_names = probe_names

    def setup(self) -> None:
        from mpmath import mpc
        grading = lib("grading")
        self.checks = []
        rng = random.Random(self.seed)
        for k, m in self.spaces:
            # A1 is the weight-4 index-1 generator over AB
            forms = [grading.Poly.gen(grading.AB, "A1")] if (k, m) == (4, 1) \
                else lib("construct").jacobi_basis(k, m).forms
            space_seed = rng.randrange(1 << 30)
            self.checks += [(form, k, m, space_seed) for form in forms]
        # the leading-coefficient probe point of criterion 9, not a seeded
        # one: at seeded points the b3 coefficient error of the oracle at
        # precision 50 reaches 1.4e-25, above the criterion's bound
        zrng = random.Random(77)
        self.z = tuple(mpc(zrng.uniform(0.05, 0.2), zrng.uniform(-0.1, 0.1))
                       for _ in range(8))
        self.ops_per_pass = len(self.checks) + len(self.probe_names)

    def _expected(self, ctx):
        from mpmath import mp, mpc
        oracle = lib("oracle")
        w = {j: oracle.orbit_character(j, self.z, ctx) for j in (1, 2, 7, 8)}
        expected = {
            "a2": -mp.mpf(2) / 3 * w[1] + 12 * w[8] - 1440,
            "b1": mpc(-4),
            "b2": -w[1] / 18 - 3 * w[8] + 840,
            "b3": -w[2] / 6 - 4 * w[7] - 8 * w[1] + 528 * w[8] - 79680,
        }
        return {name: expected[name] for name in self.probe_names}

    def run(self):
        from mpmath import mp
        oracle = lib("oracle")
        grading = lib("grading")
        ctx = oracle.EvalContext(precision=self.precision)
        reports = [oracle.check_axioms(form, k, m, self.samples, ctx,
                                       seed=space_seed)
                   for form, k, m, space_seed in self.checks]
        errors = {}
        with mp.workdps(ctx.work_digits):
            for name, value in self._expected(ctx).items():
                coeffs = oracle.q_laurent_probe(
                    grading.Poly.gen(grading.ab, name), self.z, ctx,
                    radius=1 / 20000)
                errors[name] = float(abs(coeffs[0] - value))
        return reports, errors

    def check(self, outputs) -> Outcome:
        reports, errors = outputs
        out = Outcome()
        for rep in reports:
            out.expect(rep.max_residual < ORACLE_BOUND and rep.regular,
                       "axioms at (%d,%d): residual %.3g, regular %s"
                       % (rep.weight, rep.index, rep.max_residual,
                          rep.regular))
        for name, err in errors.items():
            out.expect(err < ORACLE_BOUND,
                       "leading coefficient of %s off by %.3g" % (name, err))
        return out


class Certify(Workload):
    """Reload every basis up to index 6 from a filled disk store, then
    certify and re-check the certificate identity of every form, of one
    seeded integer combination of two forms per target of dimension >= 2,
    and of the nine meromorphic generators (each must be rejected)."""

    name = "certify"
    modules = ("cli", "cache", "serialize")

    def __init__(self, workdir: str, seed: int, max_index: int = 6):
        super().__init__(workdir, seed)
        self.max_index = max_index
        self.golden_bases = _golden_targets(max_index)
        golden = load_golden("certify.json")
        self.golden_certs = {key: golden["certificates"][target_key(*key)]
                             for key in self.golden_bases}
        self.golden_rejections = golden["rejections"]

    def setup(self) -> None:
        construct = lib("construct")
        construct.clear_cache()
        self.cache_dir = self.tempdir()
        rc, _ = _run_tables(self.max_index, self.cache_dir)
        if rc != 0:
            raise RuntimeError("filling the store failed with exit %d" % rc)
        rng = random.Random(self.seed)
        self.combos = []
        for k, m in self.golden_bases:
            dim = construct.jacobi_basis(k, m).dimension
            if dim >= 2:
                pair = rng.sample(range(dim), 2)
                coeffs = [rng.choice((-1, 1)) * rng.randint(1, 9)
                          for _ in pair]
                self.combos.append(((k, m), list(zip(pair, coeffs))))
        construct.clear_cache()
        n_forms = sum(len(v) for v in self.golden_certs.values())
        self.ops_per_pass = (len(self.golden_bases) + n_forms
                             + len(self.combos) + len(MEROMORPHIC))

    def run(self):
        construct = lib("construct")
        grading = lib("grading")
        certify = construct.certify
        identity = construct.certificate_identity
        construct.clear_cache()
        store = lib("cache").DiskStore(self.cache_dir)
        bases = {(k, m): store.load(k, m) for k, m in self.golden_bases}

        def attempt(form):
            cert = certify(form)
            ok = isinstance(cert, construct.Certificate) \
                and identity(form, cert)
            return cert, ok

        forms = {key: [attempt(f) for f in basis.forms]
                 for key, basis in bases.items() if basis is not None}
        combos = []
        for key, coeffs in self.combos:
            basis = bases[key]
            if basis is None:
                continue
            form = grading.Poly.zero(grading.ab)
            for i, c in coeffs:
                form = form + basis.forms[i].scale(c)
            combos.append((key, attempt(form)))
        rejections = {name: certify(grading.Poly.gen(grading.ab, name))
                      for name in MEROMORPHIC}
        return bases, forms, combos, rejections

    def check(self, outputs) -> Outcome:
        bases, forms, combos, rejections = outputs
        construct = lib("construct")
        serialize = lib("serialize")
        out = Outcome()
        certified = 0
        for key, want in self.golden_bases.items():
            basis = bases.get(key)
            out.expect(basis is not None
                       and digest(serialize.basis_to_json(basis)) == want,
                       "reloaded basis %s differs" % (key,))
            got = forms.get(key, [])
            wants = self.golden_certs[key]
            for i, want_cert in enumerate(wants):
                cert, ok = got[i] if i < len(got) else (None, False)
                certified += isinstance(cert, construct.Certificate)
                out.expect(ok and digest(serialize.certificate_to_json(cert))
                           == want_cert,
                           "certificate %d of %s differs" % (i, key))
        attempted_combos = {key: ok for key, (_, ok) in combos}
        for key, _ in self.combos:
            out.expect(attempted_combos.get(key, False),
                       "combination in %s does not certify" % (key,))
        certified += sum(isinstance(cert, construct.Certificate)
                         for _, (cert, _) in combos)
        for name in MEROMORPHIC:
            rej = rejections.get(name)
            out.expect(isinstance(rej, construct.Rejection)
                       and rej.failing_l == self.golden_rejections[name],
                       "%s not rejected as expected" % name)
        out.counts.update({"construct.forms_certified": certified,
                           "cache.bytes_read": dir_bytes(self.cache_dir)})
        return out


WORKLOADS = {cls.name: cls for cls in (Tables, Oracle, Certify)}
