"""Outside-in layer tracing for the prolong engine.

The benchmark wraps the public functions of each layer module after the
package is imported; no engine code knows about it.  A wrapper records a
span (name, start, end, parent) per call.  Self time is a span's duration
minus the time its child spans cover, so the layer self times partition
the traced time without double counting nested calls.

A wrapper replaces the original in every namespace that binds it: the
module that defines a function, every module that imported the name, and
every class attribute that aliases a method (``Scalar.__radd__`` is the
same function object as ``__add__`` when the class is built).
``missed_bindings`` proves that no reference to an original is left.
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
import types

# Modules of the package, in the order their layers are reported.
LAYERS = ("coeff", "forms", "linsolve", "jets", "dsl", "su2", "we", "conservation", "cli")

# Dunder methods that do layer work; the rest (hash, repr, generated
# dataclass plumbing) are left alone.
WRAPPED_DUNDERS = frozenset(
    {
        "__post_init__",
        "__add__", "__radd__", "__sub__", "__rsub__",
        "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
        "__pow__", "__neg__", "__eq__",
    }
)

SCALAR_OPS = frozenset(
    "Scalar." + name
    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__pow__",
    )
)
PARSE_NAMES = frozenset({"parse", "parse_path"})
PRINT_NAMES = frozenset({"print_scalar", "print_form", "print_model"})

# Per-layer metrics, in report order: (name, unit).
LAYER_METRICS = (
    ("coeff.self_s", "s"),
    ("coeff.scalars", "count"),
    ("coeff.ops", "count"),
    ("coeff.diff_calls", "count"),
    ("coeff.subs_calls", "count"),
    ("forms.self_s", "s"),
    ("forms.wedge_calls", "count"),
    ("forms.d_calls", "count"),
    ("linsolve.self_s", "s"),
    ("linsolve.systems", "count"),
    ("linsolve.cells", "count"),
    ("linsolve.inconsistent", "count"),
    ("jets.self_s", "s"),
    ("jets.total_derivative_calls", "count"),
    ("jets.reduce_calls", "count"),
    ("jets.euler_calls", "count"),
    ("dsl.parse_s", "s"),
    ("dsl.print_s", "s"),
    ("dsl.print_calls", "count"),
    ("su2.self_s", "s"),
    ("we.self_s", "s"),
    ("conservation.self_s", "s"),
    ("cli.self_s", "s"),
)


class Tracer:
    """Holds the spans of one process; spans stay in memory until summarised."""

    def __init__(self):
        # Each span is [layer, name, start, end, parent index or -1].
        self.spans: list = []
        self._stack: list = []
        # One entry per solve_linear call: (rows, columns, inconsistent).
        self.systems: list = []

    def wrap(self, layer: str, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__module__ = fn.__module__
        return traced

    def observe_system(self, args, kwargs, result):
        matrix = args[0] if args else kwargs["matrix"]
        rows = len(matrix)
        columns = len(matrix[0]) if rows else 0
        self.systems.append((rows, columns, result is None))

    def summary(self) -> dict:
        """Per-layer metrics of every span recorded so far."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for layer, name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time = dict.fromkeys(LAYERS, 0.0)
        calls: dict = {}
        parse_s = print_s = 0.0
        print_calls = subs_calls = 0
        for index, (layer, name, start, end, parent) in enumerate(spans):
            self_time[layer] += end - start - covered[index]
            calls[name] = calls.get(name, 0) + 1
            outer = spans[parent][1] if parent >= 0 else ""
            short = name.rpartition(".")[2]
            if layer == "dsl" and short in PARSE_NAMES and outer.rpartition(".")[2] not in PARSE_NAMES:
                parse_s += end - start
            if layer == "dsl" and short in PRINT_NAMES and outer.rpartition(".")[2] not in PRINT_NAMES:
                print_s += end - start
                print_calls += 1
            # Scalar.subs delegates to substitute; count each substitution once.
            if name == "coeff.Scalar.subs" or (
                name == "coeff.substitute" and outer != "coeff.Scalar.subs"
            ):
                subs_calls += 1
        return {
            "coeff.self_s": self_time["coeff"],
            "coeff.scalars": calls.get("coeff.Scalar.__post_init__", 0),
            "coeff.ops": sum(calls.get("coeff." + op, 0) for op in SCALAR_OPS),
            "coeff.diff_calls": calls.get("coeff.Scalar.diff", 0),
            "coeff.subs_calls": subs_calls,
            "forms.self_s": self_time["forms"],
            "forms.wedge_calls": calls.get("forms.Form.wedge", 0),
            "forms.d_calls": calls.get("forms.Form.d", 0),
            "linsolve.self_s": self_time["linsolve"],
            "linsolve.systems": len(self.systems),
            "linsolve.cells": sum(r * (c + 1) for r, c, _ in self.systems),
            "linsolve.inconsistent": sum(1 for _, _, bad in self.systems if bad),
            "jets.self_s": self_time["jets"],
            "jets.total_derivative_calls": calls.get("jets.total_derivative", 0),
            "jets.reduce_calls": calls.get("jets.reduce_mod_evolution", 0),
            "jets.euler_calls": calls.get("jets.euler_operator", 0),
            "dsl.parse_s": parse_s,
            "dsl.print_s": print_s,
            "dsl.print_calls": print_calls,
            "su2.self_s": self_time["su2"],
            "we.self_s": self_time["we"],
            "conservation.self_s": self_time["conservation"],
            "cli.self_s": self_time["cli"],
        }


class Binding:
    """One wrapped function: where it was defined and what replaced it."""

    def __init__(self, name: str, original, wrapper):
        self.name = name
        self.original = original
        self.wrapper = wrapper


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "prolong" or name.startswith("prolong."))
    ]


def _wrap_class(tracer: Tracer, layer: str, cls, bindings: list) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, (staticmethod, classmethod)):
            inner = raw.__func__
            wrapper = tracer.wrap(layer, name, inner)
            setattr(cls, attr, type(raw)(wrapper))
        elif isinstance(raw, property):
            inner = raw.fget
            wrapper = tracer.wrap(layer, name, inner)
            setattr(cls, attr, property(wrapper, raw.fset, raw.fdel, raw.__doc__))
        elif isinstance(raw, types.FunctionType):
            inner = raw
            wrapper = tracer.wrap(layer, name, inner)
            setattr(cls, attr, wrapper)
        else:
            continue
        bindings.append(Binding(name, inner, wrapper))


def install(tracer: Tracer) -> list:
    """Wrap every public function and method of every layer module.

    Returns the bindings, for ``missed_bindings``.  Call once per process,
    after ``import prolong.cli``.
    """
    modules = _package_modules()
    bindings: list = []
    for layer in LAYERS:
        module = sys.modules[f"prolong.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, layer, obj, bindings)
            elif isinstance(obj, types.FunctionType):
                observe = tracer.observe_system if (layer, attr) == ("linsolve", "solve_linear") else None
                wrapper = tracer.wrap(layer, f"{layer}.{attr}", obj, observe)
                bindings.append(Binding(f"{layer}.{attr}", obj, wrapper))
                for holder in modules:
                    for held_name, held in list(vars(holder).items()):
                        if held is obj:
                            setattr(holder, held_name, wrapper)
    return bindings


def missed_bindings(bindings: list) -> list:
    """Every place that still reaches an original instead of its wrapper.

    Looks at all referrers the garbage collector knows, so a name bound in
    a module, a class attribute alias, a default argument or a table built
    at import time is found alike.  Returns (wrapped name, holder) pairs.
    """
    gc.collect()
    ours = {id(bindings)}
    for binding in bindings:
        ours.add(id(binding.__dict__))
        if binding.wrapper.__closure__:
            ours.update(id(cell) for cell in binding.wrapper.__closure__)
    missed = []
    for binding in bindings:
        for holder in gc.get_referrers(binding.original):
            if id(holder) in ours or isinstance(holder, types.FrameType):
                continue
            missed.append((binding.name, _describe(holder)))
    return missed


def _describe(holder) -> str:
    if isinstance(holder, dict):
        for module in _package_modules():
            if vars(module) is holder:
                return f"module {module.__name__}"
        for obj in gc.get_referrers(holder):
            if inspect.isclass(obj) and obj.__dict__ is not None:
                return f"class {obj.__qualname__}"
        keys = [k for k in holder if isinstance(k, str)][:5]
        return f"dict with keys {keys}"
    return type(holder).__name__
