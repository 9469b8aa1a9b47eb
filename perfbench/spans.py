"""Span recording from outside the program.

A :class:`Tracer` replaces each public function of the ``gxe_reml`` modules
with a timing wrapper: in the module that defines it and in every
``gxe_reml`` module that imported it by name.  Public methods and
hand-written constructors of public classes are wrapped on the class.  The
SciPy factorisation entry points that ``reml_core`` reaches are wrapped as
well, so factorisation counts survive a switch between them.  Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("reml_core", "cv", "simulator", "variance_structures", "env_features", "io", "cli")

# Factorisation entry points, wrapped where SciPy defines them, with the
# span name each call is recorded under.
SCIPY_ENTRY_POINTS = (
    ("scipy.linalg", "cholesky", "reml_core.cholesky"),
    ("scipy.linalg", "cho_factor", "reml_core.cholesky"),
    ("scipy.linalg.lapack", "dpotrf", "reml_core.cholesky"),
    ("scipy.linalg.lapack", "dpotri", "reml_core.potri"),
)

NAME, PARENT, KEY, START, END, FAILED, SIZE, OUT = range(8)


def _matrix_order(args, kwargs, result):
    """Order N of the matrix a factorisation call receives."""
    matrix = args[0] if args else next(iter(kwargs.values()), None)
    shape = getattr(matrix, "shape", None)
    return (int(shape[0]) if shape else 0), 0


def _fit_size(args, kwargs, result):
    """Records in the fitted dataset, and accepted iterations."""
    dataset = kwargs.get("dataset", args[0] if args else None)
    return dataset.n_records, result.iterations


# Extra readings for some spans: (size, out) from the call and its result.
READINGS = {"reml_core.fit": _fit_size}


class Tracer:
    """Records (name, parent, key, start, end, failed, size, out) spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.key = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func, reading=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        reading = reading or READINGS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.key, clock(), 0.0, False, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if reading is not None:
                span[SIZE], span[OUT] = reading(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, original, wrapper, modules) -> None:
        """Point every module-level name bound to ``original`` at ``wrapper``."""
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def install(self) -> None:
        import gxe_reml

        modules = [gxe_reml] + [importlib.import_module(f"gxe_reml.{m}") for m in LAYERS]
        for layer in LAYERS:
            module = importlib.import_module(f"gxe_reml.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    self._replace(obj, self._wrap(f"{layer}.{attr}", obj), modules)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj, module.__file__)
        for mod_name, attr, span_name in SCIPY_ENTRY_POINTS:
            owner = importlib.import_module(mod_name)
            original = getattr(owner, attr)
            self._replace(original, self._wrap(span_name, original, _matrix_order),
                          [owner] + modules)

    def _wrap_class(self, layer: str, cls, source_file: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj) or obj.__code__.co_filename != source_file:
                continue
            if attr in ("__init__", "__post_init__"):
                self._set(cls, attr, self._wrap(f"{layer}.{cls.__name__}", obj))
            elif not attr.startswith("_"):
                self._set(cls, attr, self._wrap(f"{layer}.{cls.__name__}.{attr}", obj))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "parent", "key", "start", "end", "failed", "size", "out"],
                 "spans": self.spans},
                handle,
            )


class SpanTable:
    """Self times and subtree counts over a finished list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
                self.children[s[PARENT]].append(i)
        self.self_time = [s[END] - s[START] - c for s, c in zip(spans, child_time)]

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def inclusive(self, name: str) -> float:
        """Seconds spent inside calls to ``name``, children included."""
        return sum(self.spans[i][END] - self.spans[i][START] for i in self.named(name))

    def self_busy(self, name: str) -> float:
        """Seconds spent in ``name``'s own code, children excluded."""
        return sum(self.self_time[i] for i in self.named(name))

    def layer_calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s[NAME].split(".", 1)[0] == layer)

    def layer_busy(self, layer: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time)
                   if s[NAME].split(".", 1)[0] == layer)

    def layer_failures(self, layer: str) -> int:
        return sum(1 for s in self.spans if s[NAME].split(".", 1)[0] == layer and s[FAILED])

    def descendants(self, i: int, name: str) -> int:
        """Spans called ``name`` anywhere below span ``i``."""
        count, todo = 0, list(self.children.get(i, ()))
        while todo:
            j = todo.pop()
            count += self.spans[j][NAME] == name
            todo.extend(self.children.get(j, ()))
        return count
