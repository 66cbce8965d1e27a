"""Signature-agnostic spans around the package's public functions.

The tracer wraps, by object identity and wherever a package module holds a
reference to it:

* every function named in the package's ``__all__``;
* every function one package module imports from another (the layer
  boundaries, such as the trajectory formatter that ``cli`` borrows from
  ``harness``);
* any extra functions the caller names, such as the CLI entry point;
* every public method, classmethod and staticmethod defined on a class named
  in ``__all__`` (such as ``PolicyMatrix.from_genome``), replaced on the
  class itself.

Each span is tagged with the wrapped function's defining module, which is
its layer. Classes themselves are never replaced, only their attributes, so
``isinstance`` and ``dataclasses.replace`` keep working. Wrappers pass
``*args, **kwargs`` through untouched, so a public function or method that
is added, removed or given a new signature is traced or dropped without
changes here.

Spans are kept in flat in-memory arrays; :meth:`Tracer.take` hands them
over once a traced body has finished, and :func:`write_csv` writes them out
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable

import numpy as np


@dataclass
class SpanTable:
    """One traced body: span i ran ``function[fid[i]]`` in ``layer[fid[i]]``."""

    functions: list[str]
    layers: list[str]
    fid: np.ndarray      # (n,) int, index into functions/layers
    parent: np.ndarray   # (n,) int, enclosing span index or -1
    start: np.ndarray    # (n,) float, perf_counter seconds
    end: np.ndarray      # (n,) float

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the time covered by its child spans."""
        dur = self.duration
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return dur - covered

    def layer_of_span(self) -> np.ndarray:
        return np.array(self.layers, dtype=object)[self.fid]

    def layer_self_time(self, layer: str) -> float:
        return float(self.self_time()[self.layer_of_span() == layer].sum())

    def layer_entries(self, layer: str) -> int:
        """Spans in ``layer`` entered from outside it (another layer or the caller)."""
        layers = self.layer_of_span()
        mine = layers == layer
        parent_layer = np.where(self.parent >= 0, layers[np.maximum(self.parent, 0)], None)
        return int((mine & (parent_layer != layer)).sum())

    def function_mask(self, names: Iterable[str]) -> np.ndarray:
        wanted = set(names)
        ids = [i for i, name in enumerate(self.functions) if name in wanted]
        return np.isin(self.fid, ids)

    def function_time(self, names: Iterable[str]) -> float:
        """Inclusive time of the spans running any of ``names``."""
        return float(self.duration[self.function_mask(names)].sum())

    def function_calls(self, names: Iterable[str]) -> int:
        return int(self.function_mask(names).sum())


class Tracer:
    """Installs span-recording wrappers into a package's modules."""

    def __init__(self, package: str, extra: Iterable[Callable] = ()):
        self.package = package
        self.functions: list[str] = []
        self.layers: list[str] = []
        self._fid = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._methods = self._public_methods()
        self._originals = self._targets(extra)
        self._wrappers = {key: self._wrap(fn) for key, fn in self._originals.items()}
        self._installed: list[tuple[ModuleType | type, str, object]] = []

    def _in_package(self, module_name: str) -> bool:
        return module_name == self.package or module_name.startswith(self.package + ".")

    def _modules(self) -> list[ModuleType]:
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and self._in_package(name)]

    def _targets(self, extra: Iterable[Callable]) -> dict[int, Callable]:
        pkg = sys.modules[self.package]
        found = [getattr(pkg, name) for name in getattr(pkg, "__all__", ())]
        found.extend(extra)
        for mod in self._modules():
            for obj in vars(mod).values():
                if (inspect.isfunction(obj) and obj.__module__ != mod.__name__
                        and self._in_package(obj.__module__)):
                    found.append(obj)
        found.extend(fn for _, _, _, fn in self._methods)
        return {id(fn): fn for fn in found if inspect.isfunction(fn)}

    def _public_methods(self) -> list[tuple[type, str, object, Callable]]:
        """(class, name, class attribute, function) for every public method
        of the classes named in ``__all__``; properties are left alone."""
        pkg = sys.modules[self.package]
        found = []
        for cls_name in getattr(pkg, "__all__", ()):
            cls = getattr(pkg, cls_name)
            if not (inspect.isclass(cls) and self._in_package(cls.__module__)):
                continue
            for name, attr in vars(cls).items():
                fn = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and self._in_package(fn.__module__)):
                    found.append((cls, name, attr, fn))
        return found

    def _reset(self) -> None:
        for column in (self._fid, self._parent, self._start, self._end):
            del column[:]
        self._stack[1:] = []

    def _wrap(self, fn: Callable) -> Callable:
        fid = len(self.functions)
        self.functions.append(fn.__qualname__)
        self.layers.append(fn.__module__.rsplit(".", 1)[-1])
        fids, parents, starts, ends = self._fid, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @property
    def traced_names(self) -> list[str]:
        return sorted(f"{fn.__module__}.{fn.__qualname__}" for fn in self._originals.values())

    def install(self) -> None:
        """Replace every reference to a target function with its wrapper."""
        if self._installed:
            return
        for mod in self._modules():
            for name, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and obj is self._originals[id(obj)]:
                    setattr(mod, name, wrapper)
                    self._installed.append((mod, name, obj))
        for cls, name, attr, fn in self._methods:
            wrapper = self._wrappers[id(fn)]
            if isinstance(attr, (classmethod, staticmethod)):
                wrapper = type(attr)(wrapper)
            setattr(cls, name, wrapper)
            self._installed.append((cls, name, attr))

    def uninstall(self) -> None:
        """Put every original function and method back where it was found."""
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def take(self) -> SpanTable:
        """Return the spans recorded since the last call and start afresh."""
        table = SpanTable(
            functions=list(self.functions),
            layers=list(self.layers),
            fid=np.array(self._fid, dtype=np.int64),
            parent=np.array(self._parent, dtype=np.int64),
            start=np.array(self._start, dtype=float),
            end=np.array(self._end, dtype=float),
        )
        self._reset()
        return table


def write_csv(path: Path, tables: Iterable[SpanTable]) -> None:
    """One line per span; times in seconds from the start of its body."""
    with path.open("w") as out:
        out.write("body,span,parent,layer,function,start_s,end_s\n")
        for body, table in enumerate(tables):
            origin = table.start.min() if len(table.start) else 0.0
            for i, (fid, parent) in enumerate(zip(table.fid.tolist(), table.parent.tolist())):
                out.write(f"{body},{i},{parent},{table.layers[fid]},{table.functions[fid]},"
                          f"{table.start[i] - origin:.9f},{table.end[i] - origin:.9f}\n")
