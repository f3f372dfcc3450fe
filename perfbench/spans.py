"""Span tracing for the benchmark's traced run.

The library carries no instrumentation.  `Tracer.install()` replaces the
public function of each layer named in `LAYERS` -- and every alias of it
that another `e8jacobi` module imported -- with a recording wrapper, and
`Tracer.uninstall()` puts the original objects back.  While installed,
every call records one span (name, start, end, parent) in flat arrays;
`Tracer.aggregate()` turns them into per-layer self times and counts,
and `Tracer.write()` dumps the raw spans once the pass is over.

A layer's self time is its span durations minus the part covered by
child spans, so self times never double count nested calls (the
recursive `eval_poly`, or `nullspace` calling `echelonize`).  The sum of
all self times plus the un-spanned remainder equals the traced pass time.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import update_wrapper
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# metric prefix -> (defining module, attribute path)
LAYERS: Dict[str, Tuple[str, str]] = {
    "ansatz.enumerate_monomials": ("e8jacobi.ansatz", "enumerate_monomials"),
    "ansatz.build_ansatz": ("e8jacobi.ansatz", "build_ansatz"),
    "generators.sub_ab_to_AB": ("e8jacobi.generators", "sub_ab_to_AB"),
    "generators.e4_split": ("e8jacobi.generators", "e4_split"),
    "grading.ParamPoly.substitute": ("e8jacobi.grading",
                                     "ParamPoly.substitute"),
    "grading.ParamPoly.mul_poly": ("e8jacobi.grading", "ParamPoly.mul_poly"),
    "grading.Poly.divexact": ("e8jacobi.grading", "Poly.divexact"),
    "linsolve.coefficient_equations": ("e8jacobi.linsolve",
                                       "coefficient_equations"),
    "linsolve.nullspace": ("e8jacobi.linsolve", "nullspace"),
    "linsolve.echelon_int_rows": ("e8jacobi.linsolve", "echelon_int_rows"),
    "linsolve.echelonize": ("e8jacobi.linsolve", "echelonize"),
    "linsolve.primitive_vector": ("e8jacobi.linsolve", "primitive_vector"),
    "construct.compute_basis": ("e8jacobi.construct", "_compute_basis"),
    "construct.index_profile": ("e8jacobi.construct", "index_profile"),
    "construct.certify": ("e8jacobi.construct", "certify"),
    "construct.certificate_identity": ("e8jacobi.construct",
                                       "certificate_identity"),
    "cache.save": ("e8jacobi.cache", "DiskStore.save"),
    "cache.load": ("e8jacobi.cache", "DiskStore.load"),
    "serialize.poly_from_compact": ("e8jacobi.serialize",
                                    "poly_from_compact"),
    "oracle.check_axioms": ("e8jacobi.oracle", "check_axioms"),
    "oracle.theta": ("e8jacobi.oracle", "theta"),
    "oracle.theta_E8": ("e8jacobi.oracle", "theta_E8"),
    "oracle.eval_AB": ("e8jacobi.oracle", "eval_AB"),
    "oracle.eval_ab": ("e8jacobi.oracle", "eval_ab"),
    "oracle.eval_poly": ("e8jacobi.oracle", "eval_poly"),
    "oracle.eisenstein": ("e8jacobi.oracle", "eisenstein"),
    "oracle.q_laurent_probe": ("e8jacobi.oracle", "q_laurent_probe"),
    "oracle.orbit_character": ("e8jacobi.oracle", "orbit_character"),
}

# Self-time metric names that differ from "<prefix>_s": these layers nest
# heavily, so the name says outright that the figure is self time.
SELF_TIME_NAMES = {
    "construct.compute_basis": "construct.compute_basis_self_s",
    "oracle.eval_poly": "oracle.eval_poly_self_s",
}

# Hooks that run inside a span of their own, so that their cost is not
# charged to the caller's self time.
HOOK_SPAN = "trace.hooks"


def self_time_name(layer: str) -> str:
    return SELF_TIME_NAMES.get(layer, layer + "_s")


def resolve(module: str, path: str):
    """The object named by `path` inside the already imported `module`."""
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def loaded_layers():
    """(layer, module, path) for each layer whose module is imported; a
    layer of a module the workload never imports cannot be called."""
    return [(layer, module, path)
            for layer, (module, path) in LAYERS.items()
            if module in sys.modules]


def patch_sites(module: str, path: str) -> List[Tuple[object, str]]:
    """Every (holder, attribute) through which the library reaches the
    named function: the class for a method, otherwise each loaded
    `e8jacobi` module that holds the same object under that name."""
    owner_path, _, attr = path.rpartition(".")
    if owner_path:
        return [(resolve(module, owner_path), attr)]
    original = resolve(module, path)
    sites = []
    for name, mod in sorted(sys.modules.items()):
        if (name == "e8jacobi" or name.startswith("e8jacobi.")) \
                and mod is not None and vars(mod).get(attr) is original:
            sites.append((mod, attr))
    return sites


def _ctx_arg(args, kwargs, position: int):
    return args[position] if len(args) > position else kwargs["ctx"]


class Tracer:
    """Records spans for the functions in `LAYERS` while installed."""

    def __init__(self):
        self.names: List[str] = list(LAYERS) + [HOOK_SPAN]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.theta_args: List[tuple] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """A wrapper of `fn` that records each call as a span of `layer`."""
        name_id = self._ids[layer]
        hook_id = self._ids[HOOK_SPAN]
        count = _COUNTERS.get(layer)
        slow = _SLOW_COUNTERS.get(layer)
        tracer = self

        def wrapper(*args, **kwargs):
            state = count.before(args, kwargs) if count else None
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count:
                count.after(tracer, args, kwargs, result, state)
            if slow:
                hidx = tracer._open(hook_id)
                try:
                    slow(tracer, args, kwargs, result)
                finally:
                    tracer._close(hidx)
            return result

        update_wrapper(wrapper, fn)
        return wrapper

    # -- install / uninstall ------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        plan = []
        for layer, module, path in loaded_layers():
            original = resolve(module, path)
            wrapper = self.wrap(layer, original)
            for holder, attr in patch_sites(module, path):
                plan.append((holder, attr, original, wrapper))
        for holder, attr, original, wrapper in plan:
            self._saved.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], float]:
        """Self time per span name, and the summed duration of the
        top-level spans (those without a traced parent)."""
        own = span_self_times(self.start, self.end, self.parent)
        per_name = dict.fromkeys(self.names, 0.0)
        for name_id, t in zip(self.name, own):
            per_name[self.names[name_id]] += t
        top = sum(e - s for s, e, p in zip(self.start, self.end, self.parent)
                  if p < 0)
        return per_name, top

    def aggregate(self, pass_s: float) -> Dict[str, float]:
        """Per-layer metrics for one traced pass of `pass_s` seconds."""
        self_s, top = self.self_times()
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[self_time_name(layer)] = self_s[layer]
        c = self.counts
        for key in COUNT_METRICS:
            out[key] = c.get(key, 0)
        theta_calls = c.get("oracle.theta_calls", 0)
        out["oracle.theta_cache_hit_ratio"] = (
            (theta_calls - c.get("oracle.theta_evals", 0)) / theta_calls
            if theta_calls else 0.0)
        gen_calls = c.get("oracle.gen_cache_calls", 0)
        out["oracle.gen_cache_hit_ratio"] = (
            (gen_calls - c.get("oracle.gen_cache_misses", 0)) / gen_calls
            if gen_calls else 0.0)
        out["oracle.theta_terms"] = self.theta_terms()
        out["trace.hooks_s"] = self_s[HOOK_SPAN]
        out["trace.pass_s"] = pass_s
        out["trace.unspanned_s"] = pass_s - top
        out["trace.spans"] = len(self.start)
        return out

    def theta_terms(self) -> int:
        """Computed, not counted: the summed term count 2N+1 that
        `_theta_bound` gives for each argument theta evaluated."""
        if not self.theta_args:
            return 0
        bound = sys.modules["e8jacobi.oracle"]._theta_bound
        mpmath = sys.modules["mpmath"]
        total = 0
        for z, tau, digits in self.theta_args:
            n = bound(float(mpmath.im(tau)), float(abs(mpmath.im(z))),
                      digits)
            total += 2 * n + 1
        return total

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        """Write the raw spans as one JSON document (columns)."""
        doc = {"meta": meta or {},
               "names": self.names,
               "name": self.name.tolist(),
               "start": self.start.tolist(),
               "end": self.end.tolist(),
               "parent": self.parent.tolist()}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- analysis of a written span document ------------------------------

def span_self_times(start, end, parent) -> List[float]:
    """Per span: its duration minus the durations of its child spans."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def _ancestor_names(doc, i: int):
    names, parent = doc["names"], doc["parent"]
    p = parent[i]
    while p >= 0:
        yield names[doc["name"][p]]
        p = parent[p]


def inclusive_times(doc) -> Dict[str, float]:
    """Inclusive time per span name: the durations of its outermost
    spans, so a recursive call is not counted twice."""
    out = dict.fromkeys(doc["names"], 0.0)
    for i, name_id in enumerate(doc["name"]):
        name = doc["names"][name_id]
        if name not in _ancestor_names(doc, i):
            out[name] += doc["end"][i] - doc["start"][i]
    return out


def self_times_under(doc, root: str) -> Dict[str, float]:
    """Self time per span name, over the spans named `root` and all the
    spans nested in them."""
    out = dict.fromkeys(doc["names"], 0.0)
    own = span_self_times(doc["start"], doc["end"], doc["parent"])
    for i, name_id in enumerate(doc["name"]):
        name = doc["names"][name_id]
        if name == root or root in _ancestor_names(doc, i):
            out[name] += own[i]
    return out


# -- counters ---------------------------------------------------------
#
# A counter's `before` runs ahead of the span and `after` behind it; both
# are O(1).  Work proportional to the arguments goes into a slow counter,
# which runs inside a span of its own (HOOK_SPAN).

class _Counter:
    def before(self, args, kwargs):
        return None

    def after(self, tracer, args, kwargs, result, state):
        pass


class _Calls(_Counter):
    def __init__(self, key: str):
        self.key = key

    def after(self, tracer, args, kwargs, result, state):
        tracer.bump(self.key)


class _Unknowns(_Counter):
    def after(self, tracer, args, kwargs, result, state):
        tracer.bump("ansatz.unknowns", len(result.terms))


class _Nullspace(_Counter):
    def after(self, tracer, args, kwargs, result, state):
        tracer.bump("linsolve.equations", len(args[0].rows))
        tracer.bump("linsolve.rank", result.rank)


class _CacheLoad(_Counter):
    def after(self, tracer, args, kwargs, result, state):
        tracer.bump("cache.misses" if result is None else "cache.hits")


class _Theta(_Counter):
    # theta adds one cache entry exactly when it evaluates (a miss)
    def before(self, args, kwargs):
        return len(_ctx_arg(args, kwargs, 3)._theta_cache)

    def after(self, tracer, args, kwargs, result, state):
        tracer.bump("oracle.theta_calls")
        ctx = _ctx_arg(args, kwargs, 3)
        if len(ctx._theta_cache) != state:
            tracer.bump("oracle.theta_evals")
            tracer.theta_args.append((args[1], args[2], ctx.work_digits))


class _GenCache(_Counter):
    # eval_AB / eval_ab add their own cache entry exactly on a miss and
    # leave the cache untouched on a hit
    def before(self, args, kwargs):
        return len(_ctx_arg(args, kwargs, 2)._gen_cache)

    def after(self, tracer, args, kwargs, result, state):
        tracer.bump("oracle.gen_cache_calls")
        if len(_ctx_arg(args, kwargs, 2)._gen_cache) != state:
            tracer.bump("oracle.gen_cache_misses")


def _max_coeff_bits(tracer, args, kwargs, result):
    rows = args[0]
    bits = 0
    for row in rows:
        for x in row:
            if x:
                b = (x if x > 0 else -x).bit_length()
                if b > bits:
                    bits = b
    if bits > tracer.counts.get("linsolve.max_coeff_bits", 0):
        tracer.counts["linsolve.max_coeff_bits"] = bits


_COUNTERS: Dict[str, _Counter] = {
    "ansatz.build_ansatz": _Unknowns(),
    "grading.ParamPoly.substitute": _Calls(
        "grading.ParamPoly.substitute_calls"),
    "linsolve.nullspace": _Nullspace(),
    "cache.load": _CacheLoad(),
    "oracle.theta": _Theta(),
    "oracle.eval_AB": _GenCache(),
    "oracle.eval_ab": _GenCache(),
}

_SLOW_COUNTERS = {
    "linsolve.echelon_int_rows": _max_coeff_bits,
}

COUNT_METRICS = (
    "ansatz.unknowns",
    "grading.ParamPoly.substitute_calls",
    "linsolve.equations",
    "linsolve.rank",
    "linsolve.max_coeff_bits",
    "cache.hits",
    "cache.misses",
    "oracle.theta_calls",
    "oracle.theta_evals",
    "oracle.gen_cache_calls",
)
