"""Command-line front end.

Subcommands: dim, basis, profile, module-gens, lb, certify, verify,
tables.  Default output is human-readable text; --format json emits a
schema-versioned result document.  Exit codes: 0 success, 1 mathematical
inconsistency, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from . import construct
from .construct import (Certificate, ConsistencyError, Rejection,
                        certificate_identity, certify, index_profile,
                        jacobi_basis, lb_analysis, module_generators,
                        rank_series, seed_cache)
from .grading import AlphabetMismatchError, GradingError
from .serialize import (basis_to_json, certificate_to_json, poly_from_json,
                        poly_to_json, result_document)

ENV_PRECISION = "E8JACOBI_PRECISION"
ENV_CACHE_DIR = "E8JACOBI_CACHE_DIR"


class UsageError(Exception):
    """Input from outside the program that the command cannot use."""


def _int_at_least(lo: int):
    """argparse type: an integer no smaller than `lo`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not an integer" % text)
        if value < lo:
            raise argparse.ArgumentTypeError(
                "must be >= %d, got %d" % (lo, value))
        return value
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite float greater than 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a number" % text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            "must be a finite number > 0, got %s" % text)
    return value


def _parse_window(text: str) -> Tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "window must be LO:HI with integer bounds")
    if lo > hi:
        raise argparse.ArgumentTypeError(
            "window must have LO <= HI, got %d:%d" % (lo, hi))
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e8jacobi",
        description="Weyl invariant E8 weak Jacobi forms: exact "
                    "construction, module tables and numeric verification.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--cache-dir", default=os.environ.get(ENV_CACHE_DIR))
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for independent "
                             "(weight, index) tasks")
    # a string default goes through `type` like a command-line value
    parser.add_argument("--precision", type=_int_at_least(1),
                        default=os.environ.get(ENV_PRECISION, "50"),
                        help="oracle working precision in decimal digits")
    parser.add_argument("--tol", type=_positive_float, default=1e-30,
                        help="oracle comparison tolerance")
    parser.add_argument("--window", type=_parse_window, default=None,
                        help="weight window LO:HI override for profiles")
    sub = parser.add_subparsers(dest="command", required=True)

    index = _int_at_least(0)
    positive_index = _int_at_least(1)

    p = sub.add_parser("dim", help="dimension of the space of forms")
    p.add_argument("weight", type=int)
    p.add_argument("index", type=index)

    p = sub.add_parser("basis", help="basis forms with certificates")
    p.add_argument("weight", type=int)
    p.add_argument("index", type=index)

    p = sub.add_parser("profile", help="generator-count polynomial P^w_m")
    p.add_argument("index", type=positive_index)

    p = sub.add_parser("module-gens", help="free-module generators")
    p.add_argument("index", type=positive_index)

    p = sub.add_parser("lb", help="lowest-weight subalgebra report")
    p.add_argument("max_index", type=positive_index)

    p = sub.add_parser("certify", help="membership certificate for a "
                                       "serialized polynomial")
    p.add_argument("file")

    p = sub.add_parser("verify", help="numeric axiom checks on a basis")
    p.add_argument("weight", type=int)
    p.add_argument("index", type=index)
    p.add_argument("--samples", type=_int_at_least(1), default=3)

    p = sub.add_parser("tables", help="profiles for all indices up to a "
                                      "bound")
    p.add_argument("--max-index", type=_int_at_least(1), required=True)

    return parser


def _profile_targets(m: int, window) -> List[Tuple[int, int]]:
    lo, hi = window if window is not None else construct._weight_window(m)
    return [(k, m) for k in range(lo + (lo % 2), hi + 1, 2)]


def _compute_one(target: Tuple[int, int]) -> Tuple[int, int, dict]:
    k, m = target
    return k, m, basis_to_json(jacobi_basis(k, m))


def _precompute(targets: List[Tuple[int, int]], jobs: int) -> None:
    """Fill the in-process basis cache, optionally in parallel.

    Workers ship results as JSON so the parent re-materializes them over
    its own canonical alphabet objects; outputs are byte-identical to a
    sequential run.
    """
    from .serialize import basis_from_json
    if jobs <= 1 or len(targets) <= 1:
        for k, m in targets:
            jacobi_basis(k, m)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for k, m, doc in pool.map(_compute_one, targets):
            seed_cache(k, m, basis_from_json(doc))


def _profile_poly_str(d: Dict[int, int]) -> str:
    """Render sum_k d_k x^k, weight ascending, as in 'x^-4 + x^-2 + 1'."""
    parts = []
    for k in sorted(d):
        c = d[k]
        if k == 0:
            parts.append(str(c))
        else:
            parts.append(("%dx^%d" % (c, k)) if c != 1 else "x^%d" % k)
    return " + ".join(parts) if parts else "0"


def _profile_payload(m: int, window) -> dict:
    profile = index_profile(m, window)
    return {"index": m,
            "rank": rank_series(m),
            "generator_counts": {str(k): v for k, v in
                                 sorted(profile.d.items())},
            "dimensions": {str(k): v for k, v in sorted(profile.dims.items())
                           if v},
            "polynomial": _profile_poly_str(profile.d)}


def _cmd_dim(args, out) -> dict:
    d = jacobi_basis(args.weight, args.index).dimension
    print(d, file=out)
    return {"dimension": d}


def _cmd_basis(args, out) -> dict:
    basis = jacobi_basis(args.weight, args.index)
    print("dim J_{%d,%d} = %d" % (args.weight, args.index, basis.dimension),
          file=out)
    for i, form in enumerate(basis.forms):
        print("form %d: %s" % (i + 1, form), file=out)
    return basis_to_json(basis)


def _cmd_profile(args, out) -> dict:
    _precompute(_profile_targets(args.index, args.window), args.jobs)
    payload = _profile_payload(args.index, args.window)
    print(payload["polynomial"], file=out)
    return payload


def _cmd_module_gens(args, out) -> dict:
    _precompute(_profile_targets(args.index, args.window), args.jobs)
    gens = module_generators(args.index, args.window)
    payload = {"index": args.index, "generators": []}
    for k, forms in gens:
        for form in forms:
            print("weight %d: %s" % (k, form), file=out)
            payload["generators"].append(
                {"weight": k, "form": poly_to_json(form)})
    return payload


def _cmd_lb(args, out) -> dict:
    _precompute([(-4 * m, m) for m in range(1, args.max_index + 1)],
                args.jobs)
    report = lb_analysis(args.max_index)
    print("m   dim J_{-4m,m}  new generators  relations", file=out)
    for m in range(1, args.max_index + 1):
        print("%-3d %-14d %-15d %d"
              % (m, report.lb_dims[m], len(report.lb_gens[m]),
                 report.relation_counts[m]), file=out)
    return {"max_index": args.max_index,
            "lb_dims": {str(m): v for m, v in report.lb_dims.items()},
            "generator_counts": {str(m): v for m, v in
                                 report.generator_counts.items()},
            "relation_counts": {str(m): v for m, v in
                                report.relation_counts.items()}}


def _cmd_certify(args, out) -> dict:
    try:
        with open(args.file) as fh:
            form = poly_from_json(json.load(fh))
    except (OSError, ValueError) as exc:
        raise UsageError("cannot read a polynomial from %s: %s"
                         % (args.file, exc))
    try:
        result = certify(form)
    except (AlphabetMismatchError, GradingError) as exc:
        raise UsageError("cannot certify %s: %s" % (args.file, exc))
    if isinstance(result, Rejection):
        print("rejected: divisibility fails at denominator power %d"
              % result.failing_l, file=out)
        return {"certified": False, "failing_l": result.failing_l}
    if not certificate_identity(form, result):
        raise ConsistencyError("certificate identity re-check failed")
    print("certified: Delta power %d, %d E4-part(s)"
          % (result.n, len(result.s_parts)), file=out)
    return {"certified": True, "certificate": certificate_to_json(result)}


def _cmd_verify(args, out) -> dict:
    from .oracle import EvalContext, check_axioms
    basis = jacobi_basis(args.weight, args.index)
    ctx = EvalContext(precision=args.precision)
    # identity checks carry ~precision-10 digits of headroom; accept
    # residuals up to --tol relaxed by that margin
    threshold = max(args.tol, 10.0 ** (5 - args.precision))
    reports = []
    for i, form in enumerate(basis.forms):
        rep = check_axioms(form, args.weight, args.index, args.samples, ctx,
                           seed=i)
        passed = rep.passed(threshold)
        print("form %d: quasi-periodicity %.2e, modular S %.2e, T %.2e, "
              "Weyl %.2e, regular %s -> %s"
              % (i + 1, rep.quasi_periodicity, rep.modular_s, rep.modular_t,
                 rep.weyl, rep.regular, "ok" if passed else "FAIL"), file=out)
        reports.append({"form": i + 1,
                        "quasi_periodicity": rep.quasi_periodicity,
                        "modular_s": rep.modular_s,
                        "modular_t": rep.modular_t,
                        "weyl": rep.weyl,
                        "regular": rep.regular,
                        "passed": passed})
    if not basis.forms:
        print("empty basis; nothing to verify", file=out)
    if not all(r["passed"] for r in reports):
        raise ConsistencyError("oracle residuals exceed tolerance")
    return {"dimension": basis.dimension, "reports": reports}


def _cmd_tables(args, out) -> dict:
    targets = []
    for m in range(1, args.max_index + 1):
        targets.extend(_profile_targets(m, None))
    _precompute(targets, args.jobs)
    profiles = []
    for m in range(1, args.max_index + 1):
        payload = _profile_payload(m, None)
        print("P^w_%d = %s" % (m, payload["polynomial"]), file=out)
        profiles.append(payload)
    return {"max_index": args.max_index, "profiles": profiles}


_COMMANDS = {
    "dim": _cmd_dim,
    "basis": _cmd_basis,
    "profile": _cmd_profile,
    "module-gens": _cmd_module_gens,
    "lb": _cmd_lb,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "tables": _cmd_tables,
}


def _target_echo(args) -> dict:
    target = {}
    for attr in ("weight", "index", "max_index", "file"):
        if hasattr(args, attr):
            target[attr] = getattr(args, attr)
    return target


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.cache_dir:
        from .cache import DiskStore
        construct.set_disk_store(DiskStore(args.cache_dir))
    try:
        import io
        start = time.perf_counter()
        text = io.StringIO()
        payload = _COMMANDS[args.command](args, text)
        elapsed = time.perf_counter() - start
        if args.format == "json":
            doc = result_document(args.command, _target_echo(args), payload,
                                  elapsed)
            json.dump(doc, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            sys.stdout.write(text.getvalue())
        return 0
    except UsageError as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print("inconsistency: %s" % exc, file=sys.stderr)
        return 1
    finally:
        construct.set_disk_store(None)


if __name__ == "__main__":
    sys.exit(main())
