"""Per-module spans recorded from outside the qmsflow package.

`install` makes a timing wrapper for every public function of each
qmsflow module (its `__all__`, or its public functions when it declares
none), and `bind` swaps the wrappers in and out of every qmsflow namespace
that binds the function. Private names are never wrapped, so renaming a
solver internal cannot break the benchmark; the geodesic solver is
therefore a single span. Self time is a span's duration minus the time its
wrapped children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = (
    "linalg",
    "states",
    "generators",
    "canonical",
    "calculus",
    "transport",
    "entropy",
    "models",
    "serialize",
    "cli",
    "verify",
)

# Sub-microsecond helpers, called up to ~10^5 times per op. Wrapping
# linalg.hs_inner alone (131,584 calls from gks_matrix's orthonormality
# loop) added about 13% to dense-d16, so these stay unwrapped and their
# time counts as the caller's self time.
UNWRAPPED = (
    "linalg.hs_inner",
    "linalg.dag",
    "linalg.vec",
    "linalg.unvec",
    "linalg.check_finite",
    "calculus.log_mean",
    "states.bkm_weight",
)

GEODESIC = "transport.geodesic_distance"


class Tracer:
    """Accumulates calls and self time per wrapped function."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.top_level_s = 0.0
        self.geodesic_s = 0.0
        self.geodesic_iterations = 0
        self.geodesic_action = 0.0
        self._stack = []

    def wrap(self, name: str, fn):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        stack = self._stack
        clock = time.perf_counter
        is_geodesic = name == GEODESIC

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level_s += elapsed
                if is_geodesic and result is not None:
                    self.geodesic_s += elapsed
                    self.geodesic_iterations += result.iterations
                    self.geodesic_action += result.action

        return wrapper


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for n in names:
        obj = getattr(module, n)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield n, obj


def install(tracer: Tracer) -> list:
    """Wraps the public functions of every layer.

    Returns the bindings `(namespace, attribute, original, wrapper)`; pass
    them to `bind` to switch between traced and untraced calls. The
    originals stay bound until then.
    """
    modules = {layer: importlib.import_module(f"qmsflow.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for n, fn in _public_functions(module):
            name = f"{layer}.{n}"
            if name not in UNWRAPPED:
                wrapped[id(fn)] = tracer.wrap(name, fn)
    bindings = []
    for namespace in [importlib.import_module("qmsflow"), *modules.values()]:
        for attr, obj in vars(namespace).items():
            if inspect.isfunction(obj) and id(obj) in wrapped:
                bindings.append((namespace, attr, obj, wrapped[id(obj)]))
    return bindings


def bind(bindings: list, traced: bool):
    for namespace, attr, original, wrapper in bindings:
        setattr(namespace, attr, wrapper if traced else original)
