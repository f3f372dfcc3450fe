"""Pipeline benchmark for e8jacobi.

Run from the repository root:

    python3 perfbench/run.py --workload tables8 --seed 1 --seconds 1 --trace 0

One process, one thread, closed loop: each pass starts after the
previous one has returned, until `--seconds` have elapsed (at least one
pass).  With `--trace 0` the passes run against the untouched library and
the end-to-end metrics are reported; with `--trace 1` one pass runs with
the span wrappers of `spans.py` installed and the per-layer metrics are
reported.  Every pass is checked against the golden data in
`perfbench/golden/`.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Set-up (the import, the lazy generator tables and the workload's own
set-up) is timed cold: once in this process and repeatedly in fresh
child processes (`--setup-only`), each importing the package and its
dependencies from scratch; `setup_s` is the median.  A fixed pure-Python
calibration loop is timed before every pass and printed next to it, so
that machine drift is visible; it is never used to rescale anything.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
# have been spent on it, so that a set-up of a tenth of a second still
# gives a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 40
SETUP_TIMEOUT = 120

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def calibrate() -> float:
    """Seconds for a fixed pure-Python integer loop."""
    t0 = perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return perf_counter() - t0


def import_library(modules) -> None:
    """Fresh import of e8jacobi from this checkout's `src`, with the lazy
    generator tables built."""
    for name in [n for n in sys.modules
                 if n == "e8jacobi" or n.startswith("e8jacobi.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("e8jacobi")
    if Path(pkg.__file__).resolve().parent != SRC / "e8jacobi":
        raise ImportError("e8jacobi imported from %s, not from %s"
                          % (pkg.__file__, SRC))
    for name in ("construct", "generators", "grading") + tuple(modules):
        importlib.import_module("e8jacobi." + name)
    generators = sys.modules["e8jacobi.generators"]
    grading = sys.modules["e8jacobi.grading"]
    generators.meromorphic_images()
    generators.holomorphic_images()
    generators.p16_5()
    grading.delta_poly(grading.AB)
    grading.delta_poly(grading.ab)


def set_up_once(cls, workdir: str, seed: int):
    """Import the library and set the workload up; returns the workload
    and the seconds this took."""
    t0 = perf_counter()
    import_library(cls.modules)
    wl = cls(workdir, seed)
    wl.setup()
    return wl, perf_counter() - t0


def set_up(cls, workdir: str, seed: int):
    """Set up in this process, then again in fresh child processes until
    enough set-ups have been timed; returns this process's workload and
    every set-up time, each of a cold import."""
    wl, first = set_up_once(cls, workdir, seed)
    times = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           cls.name, "--seed", str(seed), "--setup-only"]
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS
            and len(times) < SETUP_MAX_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError("set-up in a child process failed (exit "
                               "%d):\n%s" % (proc.returncode, proc.stderr))
        times.append(float(proc.stdout.split()[-1]))
    return wl, times


def one_pass(wl, tracer=None):
    """Run and check one pass; returns (wall seconds, Outcome)."""
    t0 = perf_counter()
    try:
        if tracer is None:
            outputs = wl.run()
        else:
            with tracer:
                outputs = wl.run()
    except Exception:
        wall = perf_counter() - t0
        traceback.print_exc()
        return wall, Outcome(wl.ops_per_pass, wl.ops_per_pass,
                             ["pass raised an exception"])
    wall = perf_counter() - t0
    try:
        return wall, wl.check(outputs)
    except Exception:
        traceback.print_exc()
        return wall, Outcome(wl.ops_per_pass, wl.ops_per_pass,
                             ["check raised an exception"])


def originals_restored(originals) -> bool:
    return all(getattr(holder, attr) is fn
               for holder, attr, fn in originals)


def traced_pass(wl, seed: int, out_dir: Path = OUT):
    """One pass with the span wrappers installed; returns the per-layer
    metrics, the Outcome and the span file written to `out_dir`."""
    originals = [(holder, attr, spans.resolve(module, path))
                 for _, module, path in spans.loaded_layers()
                 for holder, attr in spans.patch_sites(module, path)]
    tracer = spans.Tracer()
    calibration = calibrate()
    wall, outcome = one_pass(wl, tracer)
    metrics = {**outcome.counts, **tracer.aggregate(wall)}
    metrics["calibration_s"] = calibration
    self_s, _ = tracer.self_times()
    # a negative self time or remainder means a span closed outside its
    # parent; the tolerance only absorbs floating-point rounding
    outcome.expect(min(self_s.values()) >= -1e-9
                   and metrics["trace.unspanned_s"] >= -1e-9,
                   "spans are not nested inside the pass")
    outcome.expect(originals_restored(originals),
                   "span wrappers were not removed")
    path = out_dir / ("spans-%s-seed%d.json" % (wl.name, seed))
    tracer.write(str(path), {"workload": wl.name, "seed": seed,
                             "pass_s": wall})
    return metrics, outcome, path


def per_layer_names():
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the seconds it took "
                        "(how the runner times cold set-ups)")
    args = parser.parse_args(argv)

    if not (SRC / "e8jacobi" / "__init__.py").is_file():
        print("error: no e8jacobi sources under %s" % SRC, file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: no BENCHMARK.json in %s" % ROOT, file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    cls = WORKLOADS[args.workload]
    wl = None
    try:
        if args.setup_only:
            wl, seconds = set_up_once(cls, workdir, args.seed)
            print(repr(seconds))
            return 0
        wl, setup_times = set_up(cls, workdir, args.seed)
        print("setup_s per set-up: %s"
              % " ".join("%.4f" % t for t in setup_times))
        print("row-reduction kernel: %s"
              % sys.modules["e8jacobi.kernels"].BACKEND)
        if args.trace:
            metrics, outcome, path = traced_pass(wl, args.seed)
            print("traced pass: %.4f s, %d spans written to %s"
                  % (metrics["trace.pass_s"], metrics["trace.spans"], path))
            # a layer the workload does not exercise reads 0
            result_metrics = {name: {"value": metrics.get(name, 0),
                                     "unit": unit}
                              for name, unit in per_layer_names()}
            detail = {"metrics": metrics}
        else:
            passes = []
            outcome = Outcome()
            start = perf_counter()
            while not passes or perf_counter() - start < args.seconds:
                calibration = calibrate()
                wall, one = one_pass(wl)
                passes.append({"wall_s": wall, "calibration_s": calibration,
                               "attempted": one.attempted,
                               "failed": one.failed})
                print("pass %d: wall_s %.4f s, calibration_s %.4f s, "
                      "%d/%d failed"
                      % (len(passes), wall, calibration, one.failed,
                         one.attempted))
                outcome.attempted += one.attempted
                outcome.failed += one.failed
                outcome.errors += one.errors[:10 - len(outcome.errors)]
                outcome.counts = one.counts
            values = {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            samples = {"wall_s": "median of %d pass(es)" % len(passes),
                       "setup_s": "median of %d set-ups" % len(setup_times),
                       "peak_rss_mb": "peak of 1 process"}
            for name, value in values.items():
                print("%-12s %12.4f %-3s %s"
                      % (name, value, END_TO_END_UNITS[name], samples[name]))
            print("error_rate   %d/%d" % (outcome.failed, outcome.attempted))
            result_metrics = {name: {"value": value,
                                     "unit": END_TO_END_UNITS[name]}
                              for name, value in values.items()}
            detail = {"passes": passes, "counts": outcome.counts}
        for err in outcome.errors:
            print("FAILED: %s" % err)
        detail.update({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "setup_s": setup_times,
                       "kernel_backend": sys.modules[
                           "e8jacobi.kernels"].BACKEND})
        print("detail " + json.dumps(detail, sort_keys=True))
        print(json.dumps({"correct": outcome.failed == 0,
                          "attempted": outcome.attempted,
                          "failed": outcome.failed,
                          "metrics": result_metrics}))
        return 0
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
