"""Run the benchmark over many seeds and write `perfbench/baseline.json`.

    python3 perfbench/baseline.py

For each workload of `BENCHMARK.json`: two sets of untraced runs, seeds
1..SEEDS each, every run in its own process, then TRACE_RUNS traced runs
with seed 1.  Per set and end-to-end metric it reports the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
and per metric the ratio of the second set's median to the first's.
From the traced runs: the per-layer self-time shares of the first traced
pass, the inclusive times from the span file of the last one, and the
exact counts, which must repeat exactly between traced runs.  The
tracing overhead is the median traced pass time minus the median
untraced `wall_s`; beside it, `overhead_estimate_s` is the span count
times the measured cost of recording one span.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

RUN_TIMEOUT = 900
SETS = 2
SEEDS = 10
TRACE_RUNS = 2
OUT = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s failed (exit %d):\n%s"
                           % (" ".join(cmd), proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    print("%s seed %d trace %d: %.1f s, %s" % (
        workload, seed, trace, elapsed,
        {k: round(v["value"], 4) for k, v in result["metrics"].items()
         if trace == 0 or k in ("trace.pass_s",)}), flush=True)
    return {"result": result, "detail": detail, "process_s": elapsed}


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def span_cost_s(calls: int = 200_000) -> float:
    """Measured cost of recording one span: a wrapped no-op call minus a
    plain one."""
    def noop():
        return None

    wrapped = spans.Tracer().wrap("linsolve.echelonize", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def is_time(name: str) -> bool:
    return name.endswith("_s")


def analyse_trace(runs, untraced_wall: float, workload: str) -> dict:
    metrics = [r["detail"]["metrics"] for r in runs]
    counts = [{k: v for k, v in m.items()
               if not is_time(k) and not k.endswith("_ratio")}
              for m in metrics]
    pass_s = [m["trace.pass_s"] for m in metrics]
    traced_wall = statistics.median(pass_s)
    first = metrics[0]
    shares = {k: v / first["trace.pass_s"] for k, v in first.items()
              if is_time(k) and k not in ("trace.pass_s", "calibration_s")
              and v}
    with open(HERE / "out" / ("spans-%s-seed1.json" % workload)) as fh:
        doc = json.load(fh)
    inclusive = {k: v for k, v in spans.inclusive_times(doc).items() if v}
    out = {
        "pass_s": pass_s,
        "untraced_wall_s_median": untraced_wall,
        "overhead_s": traced_wall - untraced_wall,
        "overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        "overhead_estimate_s": first["trace.spans"] * span_cost_s(),
        "self_share_of_pass": sorted(shares.items(), key=lambda kv: -kv[1]),
        "largest_layer": max((k for k in shares if not k.startswith(
            "trace.")), key=shares.get),
        "inclusive_s": inclusive,
        "counts": counts[0],
        "counts_repeat_exactly": all(c == counts[0] for c in counts),
        "ratios": {k: v for k, v in first.items() if k.endswith("_ratio")},
    }
    if workload == "oracle":
        under = spans.self_times_under(doc, "oracle.check_axioms")
        total = sum(under.values())
        out["check_axioms_self_share"] = sorted(
            ((k, v / total) for k, v in under.items() if v),
            key=lambda kv: -kv[1])
    return out


def untraced_set(workload: str, seconds: int, bounds) -> dict:
    """SEEDS untraced runs: the summary of each end-to-end metric, the
    calibration times and the failures."""
    runs = [run_once(workload, seed, seconds, 0)
            for seed in range(1, SEEDS + 1)]
    results = [r["result"] for r in runs]
    entry = {"end_to_end": {}}
    for name, bound in bounds.items():
        s = summary([r["metrics"][name]["value"] for r in results])
        s["bound"] = bound
        s["within_third_of_bound"] = s["spread"] <= bound / 3
        entry["end_to_end"][name] = s
    entry["calibration_s"] = summary(
        [p["calibration_s"] for r in runs for p in r["detail"]["passes"]])
    entry["passes_per_run"] = [len(r["detail"]["passes"]) for r in runs]
    entry["kernel_backends"] = sorted({r["detail"]["kernel_backend"]
                                       for r in runs})
    entry["process_s"] = summary([r["process_s"] for r in runs])
    entry["attempted"] = sum(r["attempted"] for r in results)
    entry["failed"] = sum(r["failed"] for r in results)
    entry["error_rate"] = entry["failed"] / entry["attempted"]
    return entry


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    report = {
        "parent_commit": commit,
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        sets = [untraced_set(workload, bench["run_seconds"], bounds)
                for _ in range(SETS)]
        # all metrics are lower-is-better: the second set's median may
        # exceed the first's by at most the bound
        ratios = {name: sets[1]["end_to_end"][name]["median"]
                  / sets[0]["end_to_end"][name]["median"]
                  for name in bounds}
        entry = {
            "sets": sets,
            "median_ratio_second_to_first": ratios,
            "sets_agree": all(ratios[name] - 1 <= bound
                              for name, bound in bounds.items()),
            "failed": sum(s["failed"] for s in sets),
        }
        traced = [run_once(workload, 1, bench["run_seconds"], 1)
                  for _ in range(TRACE_RUNS)]
        entry["trace"] = analyse_trace(
            traced, sets[0]["end_to_end"]["wall_s"]["median"], workload)
        entry["trace"]["failed"] = sum(r["result"]["failed"]
                                       for r in traced)
        ok = ok and entry["failed"] == 0 and entry["trace"]["failed"] == 0 \
            and entry["trace"]["counts_repeat_exactly"]
        report["workloads"][workload] = entry
        with open(OUT, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
