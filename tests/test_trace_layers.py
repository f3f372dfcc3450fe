"""The library names that the benchmark's tracer depends on.

`perfbench/spans.py` wraps the functions listed in `LAYERS` by module
and attribute path, and its counters read the evaluation context of
`theta`, `eval_AB` and `eval_ab` by argument position.  The benchmark's
own tests are not part of this suite, so a rename or deletion in the
library is caught here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from test_imports import READ_OUTSIDE_SRC

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves():
    spans = load_spans()
    unresolved = []
    for layer, (module, path) in spans.LAYERS.items():
        importlib.import_module(module)
        try:
            target = spans.resolve(module, path)
        except AttributeError:
            target = None
        if not callable(target):
            unresolved.append(layer)
    assert not unresolved


def test_every_pin_is_a_layer():
    # a definition kept only because the tracer wraps it must leave
    # `READ_OUTSIDE_SRC` with the layer that names it
    spans = load_spans()
    paths = {path for _, path in spans.LAYERS.values()}
    stale = sorted(name for name, reason in READ_OUTSIDE_SRC.items()
                   if "pinned by perfbench/spans.py" in reason
                   and name not in paths)
    assert not stale


def test_context_argument_positions():
    # spans._Theta reads ctx as argument 3, spans._GenCache as argument 2,
    # and both read the context's caches and working digits
    from e8jacobi import oracle
    for fn, position in ((oracle.theta, 3), (oracle.eval_AB, 2),
                         (oracle.eval_ab, 2)):
        assert list(inspect.signature(fn).parameters).index("ctx") \
            == position, fn.__name__
    ctx = oracle.EvalContext()
    assert isinstance(ctx._theta_cache, dict)
    assert isinstance(ctx._gen_cache, dict)
    assert isinstance(ctx.work_digits, int)
