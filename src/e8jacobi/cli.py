"""Command-line front end.

Subcommands: dim, basis, profile, module-gens, lb, certify, verify,
tables.  Every command builds the bases it reads lazily, in this
process, through `jacobi_basis`.  Exit codes: 0 success, 1 mathematical
inconsistency, 2 usage error.

Each command `_cmd_NAME(args, as_json)` builds one output: its text
lines, or under --format json the payload that `main` wraps in the
schema-versioned `result_document`.  `main` writes it once the command
has returned, so a command that raises leaves stdout empty.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional

from . import construct
from .cache import CacheError, DiskStore
from .construct import (ConsistencyError, Rejection, certificate_identity,
                        certify, index_profile, jacobi_basis, lb_analysis,
                        module_generators, rank_series)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e8jacobi",
        description="Weyl invariant E8 weak Jacobi forms: exact "
                    "construction, module tables and numeric verification.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--cache-dir", default=os.environ.get(ENV_CACHE_DIR))
    # accepted only as 1: the benchmark harness still passes --jobs 1
    parser.add_argument("--jobs", type=int, choices=(1,), default=1,
                        help=argparse.SUPPRESS)
    # a string default goes through `type` like a command-line value
    parser.add_argument("--precision", type=_int_at_least(1),
                        default=os.environ.get(ENV_PRECISION, "50"),
                        help="oracle working precision in decimal digits")
    parser.add_argument("--tol", type=_positive_float, default=1e-30,
                        help="oracle comparison tolerance")
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


def _profile_payload(m: int) -> dict:
    profile = index_profile(m)
    return {"index": m,
            "rank": rank_series(m),
            "generator_counts": {str(k): v for k, v in
                                 sorted(profile.d.items())},
            "dimensions": {str(k): v for k, v in sorted(profile.dims.items())
                           if v},
            "polynomial": _profile_poly_str(profile.d)}


def _cmd_dim(args, as_json):
    d = jacobi_basis(args.weight, args.index).dimension
    return {"dimension": d} if as_json else [str(d)]


def _cmd_basis(args, as_json):
    basis = jacobi_basis(args.weight, args.index)
    if as_json:
        return basis_to_json(basis)
    return ["dim J_{%d,%d} = %d" % (args.weight, args.index,
                                    basis.dimension)] + \
        ["form %d: %s" % (i, form) for i, form in enumerate(basis.forms, 1)]


def _cmd_profile(args, as_json):
    payload = _profile_payload(args.index)
    return payload if as_json else [payload["polynomial"]]


def _cmd_module_gens(args, as_json):
    gens = [(k, form) for k, forms in module_generators(args.index)
            for form in forms]
    if as_json:
        return {"index": args.index,
                "generators": [{"weight": k, "form": poly_to_json(form)}
                               for k, form in gens]}
    return ["weight %d: %s" % gen for gen in gens]


def _cmd_lb(args, as_json):
    report = lb_analysis(args.max_index)
    if as_json:
        return {"max_index": args.max_index,
                "lb_dims": {str(m): v for m, v in report.lb_dims.items()},
                "generator_counts": {str(m): v for m, v in
                                     report.generator_counts.items()},
                "relation_counts": {str(m): v for m, v in
                                    report.relation_counts.items()}}
    return ["m   dim J_{-4m,m}  new generators  relations"] + [
        "%-3d %-14d %-15d %d" % (m, report.lb_dims[m],
                                 len(report.lb_gens[m]),
                                 report.relation_counts[m])
        for m in range(1, args.max_index + 1)]


def _cmd_certify(args, as_json):
    try:
        with open(args.file) as fh:
            form = poly_from_json(json.load(fh))
    except (OSError, RecursionError, ValueError) as exc:
        raise UsageError("cannot read a polynomial from %s: %s"
                         % (args.file, exc))
    try:
        result = certify(form)
    except (AlphabetMismatchError, GradingError) as exc:
        raise UsageError("cannot certify %s: %s" % (args.file, exc))
    if isinstance(result, Rejection):
        if as_json:
            return {"certified": False, "failing_l": result.failing_l}
        return ["rejected: divisibility fails at denominator power %d"
                % result.failing_l]
    if not certificate_identity(form, result):
        raise ConsistencyError("certificate identity re-check failed")
    if as_json:
        return {"certified": True, "certificate": certificate_to_json(result)}
    return ["certified: Delta power %d, %d E4-part(s)"
            % (result.n, len(result.s_rows))]


def _cmd_verify(args, as_json):
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
        reports.append({"form": i + 1,
                        "quasi_periodicity": rep.quasi_periodicity,
                        "modular_s": rep.modular_s,
                        "modular_t": rep.modular_t,
                        "weyl": rep.weyl,
                        "regular": rep.regular,
                        "passed": rep.passed(threshold)})
    if not all(r["passed"] for r in reports):
        raise ConsistencyError("oracle residuals exceed tolerance")
    if as_json:
        return {"dimension": basis.dimension, "reports": reports}
    # a form that fails has raised above, so every line reads "ok"
    return ["form %(form)d: quasi-periodicity %(quasi_periodicity).2e, "
            "modular S %(modular_s).2e, T %(modular_t).2e, Weyl %(weyl).2e, "
            "regular %(regular)s -> ok" % r for r in reports] \
        or ["empty basis; nothing to verify"]


def _cmd_tables(args, as_json):
    profiles = [_profile_payload(m) for m in range(1, args.max_index + 1)]
    if as_json:
        return {"max_index": args.max_index, "profiles": profiles}
    return ["P^w_%d = %s" % (p["index"], p["polynomial"]) for p in profiles]


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

    try:
        if args.cache_dir:
            try:
                construct.set_disk_store(DiskStore(args.cache_dir))
            except OSError as exc:
                raise UsageError("cannot use --cache-dir %s: %s"
                                 % (args.cache_dir, exc.strerror or exc))
        as_json = args.format == "json"
        start = time.perf_counter()
        output = _COMMANDS[args.command](args, as_json)
        if as_json:
            doc = result_document(args.command, _target_echo(args), output,
                                  time.perf_counter() - start)
            json.dump(doc, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            sys.stdout.write("".join(line + "\n" for line in output))
        return 0
    except (UsageError, CacheError) as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print("inconsistency: %s" % exc, file=sys.stderr)
        return 1
    finally:
        construct.set_disk_store(None)


if __name__ == "__main__":
    sys.exit(main())
