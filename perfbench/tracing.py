"""Out-of-program tracing: wrap each layer's public callables, record spans.

A layer is one module of the package.  Its public callables are the
module-level functions and the public methods of classes defined in that
module (dunder methods such as AffineFn.__call__ are left alone).  Every
module-level name bound to a wrapped function, in any module of the
package, is rebound to the wrapper, so calls through an alias
(`from .geometry import vertices`) and recursive calls are seen too.

Time spent in private helpers, dunder methods and modules that are not
layers (rationalpoly) counts toward the self time of the nearest traced
caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from types import ModuleType

PACKAGE = "toricding"
LAYERS = ("geometry", "extremal", "functionals", "twisting", "lp", "lattice",
          "normalcone", "io", "cli")

# span tuple fields
NAME, TASK, PARENT, START, END, RAISED, WORK = range(7)


def _offered(args, kwargs):
    affines = args[1] if len(args) > 1 else kwargs.get("affines", ())
    return len(set(affines))


# name -> (counter names, counters of one call from its arguments and result)
WORK_OF = {
    "lattice.jump_weights": (("points",), lambda args, kwargs, r: (len(r),)),
    "geometry.region_subdivision": (
        ("kept", "offered"), lambda args, kwargs, r: (len(r), _offered(args, kwargs))),
    "functionals.dh_measure": (("pieces",), lambda args, kwargs, r: (len(r.pieces),)),
}


def _is_layer_callable(obj, module_name: str) -> bool:
    return (callable(obj) and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) == module_name)


class Tracer:
    """Spans of every wrapped call, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list = []
        self.task: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        work_of = WORK_OF.get(name, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, tracer.task, parent, start, perf_counter(), True, None)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, tracer.task, parent, start, end, False,
                          work_of(args, kwargs, result) if work_of else None)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, layers: dict[str, ModuleType] | None = None,
                namespaces: tuple[ModuleType, ...] | None = None) -> None:
        """Wrap the public callables of each layer module and rebind every
        alias of them found in the layers and the extra namespaces.

        By default the layers are LAYERS and the extra namespaces are the
        package and its other modules.
        """
        if layers is None:
            layers = load_modules()
            namespaces = tuple(
                mod for name, mod in list(sys.modules.items())
                if name == PACKAGE or (name.startswith(PACKAGE + ".")
                                       and mod not in layers.values()))
        wrapper_of: dict[int, object] = {}
        for layer, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _is_layer_callable(obj, mod.__name__):
                    name = f"{layer}.{attr}"
                    self.originals[name] = obj
                    wrapper_of[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        for mod in list(layers.values()) + list(namespaces or ()):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapper_of.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self.originals[name] = raw.__func__
                self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self.originals[name] = raw.__func__
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self.originals[name] = raw
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def cache_info(self, name: str):
        """cache_info() of a wrapped lru_cache function, or None."""
        fn = self.originals.get(name)
        return fn.cache_info() if hasattr(fn, "cache_info") else None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "task": s[TASK],
                                     "parent": s[PARENT], "start": s[START],
                                     "end": s[END], "raised": s[RAISED]}) + "\n")


def load_modules() -> dict[str, ModuleType]:
    """The layer modules by short name; a layer missing from a later
    version of the package is skipped."""
    mods = {}
    for layer in LAYERS:
        try:
            mods[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
    return mods


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, raised, self_s, incl_s and the WORK_OF counters.

    Self time is a span's duration minus the durations of its direct
    children; calls run one at a time, so children never overlap.
    Inclusive time counts only the outermost span of each recursion.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "raised": 0, "self_s": 0.0, "incl_s": 0.0})
    for i, s in enumerate(spans):
        st = stats[s[NAME]]
        dur = s[END] - s[START]
        st["calls"] += 1
        st["raised"] += s[RAISED]
        if s[WORK] is not None:
            for key, n in zip(WORK_OF[s[NAME]][0], s[WORK]):
                st[key] = st.get(key, 0) + n
        st["self_s"] += dur - child_time[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            st["incl_s"] += dur
    return dict(stats)


def top_level_s(spans) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
