"""In-memory span tracing of nitreg's public functions, installed from outside.

The tracer wraps functions and methods of the package at their
module or class attribute, so the library itself is unchanged.  Each wrapped
call records one span: a name, a start and end time from
``time.perf_counter`` and the index of the enclosing span.  Spans are kept
in flat arrays while the run lasts and written out once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class _ModuleProxy:
    """Stands in for a module, overriding some attributes and forwarding the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that every call records a span called `name`."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_attr(self, owner, attr: str, name: str) -> None:
        """Trace `owner.attr` (a class method or a module-level callable)."""
        self._set(owner, attr, self.wrap(name, getattr(owner, attr)))

    def patch_function(self, package: str, fn, name: str) -> None:
        """Trace `fn` under every name it is bound to in the package's modules,
        so that ``from .module import fn`` bindings are traced as well."""
        traced = self.wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def patch_module_function(self, owner, module_attr: str, fn_attr: str,
                              name: str) -> None:
        """Trace `owner.<module_attr>.<fn_attr>` as seen from `owner` only,
        leaving the third-party module itself untouched."""
        module = getattr(owner, module_attr)
        traced = self.wrap(name, getattr(module, fn_attr))
        self._set(owner, module_attr, _ModuleProxy(module, **{fn_attr: traced}))

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def spans(self) -> "Spans":
        return Spans(list(self.names), np.frombuffer(self.name_id, dtype=np.int32).copy(),
                     np.frombuffer(self.parent, dtype=np.int32).copy(),
                     np.frombuffer(self.start).copy(), np.frombuffer(self.end).copy())


class Spans:
    """Finished spans as arrays, with durations, self times and roots derived."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=self.duration[has_parent],
                                 minlength=len(parent))
        self.self_time = self.duration - child_time
        # A span's root is its outermost ancestor; parents precede children,
        # so pointer jumping settles in log(depth) passes.
        root = np.where(has_parent, parent, np.arange(len(parent)))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root

    def __len__(self) -> int:
        return len(self.name_id)

    def mask(self, name: str, root: str | None = None) -> np.ndarray:
        """Spans called `name`, optionally only those under a root called `root`."""
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        sel = self.name_id == self.names.index(name)
        if root is not None:
            root_ids = self.name_id[self.root]
            sel &= root_ids == (self.names.index(root) if root in self.names else -1)
        return sel

    def nesting_errors(self, tol: float = 1e-9) -> list[str]:
        """Violations of span nesting: a child outside its parent's interval,
        a negative self time, or a self time above the span's duration."""
        errors = []
        has_parent = self.parent >= 0
        p = self.parent[has_parent]
        if np.any(self.start[has_parent] < self.start[p]) or \
                np.any(self.end[has_parent] > self.end[p]):
            errors.append("a child span lies outside its parent's interval")
        if np.any(self.duration[has_parent] > self.duration[p] + tol):
            errors.append("a child span is longer than its parent")
        if np.any(self.self_time < -tol):
            errors.append("a span has negative self time")
        if np.any(self.self_time > self.duration + tol):
            errors.append("a span's self time exceeds its duration")
        if np.any(self.parent >= np.arange(len(self))):
            errors.append("a span's parent does not precede it")
        return errors

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 parent=self.parent, start=self.start, end=self.end)

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            return cls([str(n) for n in data["names"]], data["name_id"], data["parent"],
                       data["start"], data["end"])
