"""Tests of the benchmark itself: tracing leaves the library untouched,
self times account for the traced pass, and small instances of every
workload pass their golden checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
from workloads import Certify, Oracle, Tables

ALL_MODULES = ("cli", "cache", "serialize", "oracle")


@pytest.fixture
def library():
    run.import_library(ALL_MODULES)


def defined_objects():
    """(holder, attr, object as defined in its module or class)."""
    out = []
    for module, path in spans.LAYERS.values():
        owner_path, _, attr = path.rpartition(".")
        owner = spans.resolve(module, owner_path) if owner_path \
            else sys.modules[module]
        original = vars(owner)[attr]
        for holder, site_attr in spans.patch_sites(module, path):
            out.append((holder, site_attr, original))
    return out


def all_original(sites) -> bool:
    return all(getattr(h, a) is fn and not hasattr(getattr(h, a),
                                                   "__wrapped__")
               for h, a, fn in sites)


class Probe(Tables):
    """Small tables workload that records, while its pass runs, the
    objects found at the call sites (captured before the pass)."""

    sites = ()
    seen = None

    def run(self):
        Probe.seen = [(getattr(h, a), fn) for h, a, fn in Probe.sites]
        return super().run()


def test_every_layer_has_sites(library):
    for module, path in spans.LAYERS.values():
        assert spans.patch_sites(module, path), path
    # aliases imported into other modules are found too
    names = {(h.__name__, a) for h, a, _ in defined_objects()
             if hasattr(h, "__name__")}
    assert ("e8jacobi.construct", "nullspace") in names
    assert ("e8jacobi.kernels", "echelon_int_rows") in names


def test_untraced_pass_calls_the_original_functions(library, tmp_path):
    sites = Probe.sites = defined_objects()
    assert all_original(sites)
    wl = Probe(str(tmp_path), seed=1, max_index=2)
    wall, outcome = run.one_pass(wl)
    assert outcome.failed == 0
    assert all(current is fn for current, fn in Probe.seen)
    assert all_original(sites)
    wl.close()


def test_traced_pass_wraps_then_restores(library, tmp_path):
    sites = Probe.sites = defined_objects()
    wl = Probe(str(tmp_path), seed=1, max_index=3)
    metrics, outcome, path = run.traced_pass(wl, seed=1, out_dir=tmp_path)
    assert outcome.failed == 0, outcome.errors
    assert all(current is not fn and current.__wrapped__ is fn
               for current, fn in Probe.seen)
    assert all_original(sites)
    doc = json.loads(path.read_text())
    assert len(doc["start"]) == metrics["trace.spans"] > 0
    wl.close()


def test_self_times_account_for_the_pass(library, tmp_path):
    wl = Tables(str(tmp_path), seed=1, max_index=3)
    tracer = spans.Tracer()
    wall, outcome = run.one_pass(wl, tracer)
    self_s, top = tracer.self_times()
    assert all(v >= 0 for v in self_s.values())
    metrics = tracer.aggregate(wall)
    assert metrics["trace.unspanned_s"] >= 0
    assert sum(self_s.values()) + metrics["trace.unspanned_s"] == \
        pytest.approx(wall, rel=1e-9)
    assert metrics["construct.compute_basis_self_s"] > 0
    assert outcome.counts["construct.targets"] == 5 + 6 + 8
    wl.close()


def test_counts_repeat_exactly(library, tmp_path):
    counts = []
    for _ in range(2):
        # a fresh import, as in every run: lazy tables fill during a pass
        run.import_library(ALL_MODULES)
        wl = Tables(str(tmp_path), seed=1, max_index=3)
        tracer = spans.Tracer()
        wall, outcome = run.one_pass(wl, tracer)
        metrics = {**outcome.counts, **tracer.aggregate(wall)}
        counts.append({k: v for k, v in metrics.items()
                       if not k.endswith("_s")})
        wl.close()
    assert counts[0] == counts[1]
    assert counts[0]["grading.ParamPoly.substitute_calls"] > 0


def test_small_tables_pass_and_gate(library, tmp_path):
    wl = Tables(str(tmp_path), seed=1, max_index=3)
    rc, text, cache_dir = wl.run()
    outcome = wl.check((rc, text, cache_dir))
    assert (outcome.attempted, outcome.failed) == (2 + 19, 0)
    assert outcome.counts["cache.bytes_written"] > 0
    tampered = wl.check((rc, text.replace("1", "2"), cache_dir))
    assert tampered.failed == 1
    wl.close()


def test_small_certify_passes(library, tmp_path):
    wl = Certify(str(tmp_path), seed=3, max_index=2)
    wl.setup()
    wall, outcome = run.one_pass(wl)
    assert outcome.failed == 0, outcome.errors
    assert outcome.attempted == wl.ops_per_pass
    assert outcome.counts["construct.forms_certified"] > 0
    wl.close()


def test_small_oracle_passes(library, tmp_path):
    wl = Oracle(str(tmp_path), seed=5, spaces=((4, 1),), probe_names=("b1",))
    wl.setup()
    wall, outcome = run.one_pass(wl)
    assert (outcome.attempted, outcome.failed) == (2, 0), outcome.errors


def test_per_layer_metrics_are_all_produced():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    # the construct and cache-byte counts come from the workload checks
    produced = set(spans.Tracer().aggregate(1.0)) | {
        "construct.targets", "construct.zero_targets", "construct.forms",
        "construct.forms_certified", "cache.bytes_written",
        "cache.bytes_read", "calibration_s"}
    assert set(names) <= produced
    assert len(names) == len(set(names))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
