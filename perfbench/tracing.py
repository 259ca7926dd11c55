"""Span tracer that wraps romlab's public functions from outside the package.

Each wrapped call records one span: name, start, end and the index of the
enclosing span (-1 at the top).  Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct
children; summed over every span under a top-level span, self times add up
to that top-level span's duration.

Modules bind library functions with ``from .x import f``, so a function is
wrapped under every name it is looked up by: each ``romlab`` module attribute
that is the original function object is replaced.  Methods are wrapped on
their class.  A target that no longer exists is recorded as absent.
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "romlab"


class Tracer:
    def __init__(self):
        self.names = []           # per span
        self.start = []
        self.end = []
        self.parent = []
        self.counts = []          # (span index, key, value)
        self.absent = []          # targets that could not be wrapped
        self._stack = []
        self._patches = []        # (owner, attribute, original)

    # ---- recording ---------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name, count=None):
        """Return fn wrapped in a span; count(result, *args, **kwargs)
        returns a dict of work counts attached to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                for key, value in count(out, *args, **kwargs).items():
                    tracer.counts.append((idx, key, value))
            return out

        return traced

    # ---- patching ----------------------------------------------------

    @contextmanager
    def installed(self, targets):
        """Wrap the targets while the block runs.

        targets: iterable of (module, attribute, span name, count), where
        attribute is "function" or "Class.method".  Missing modules or
        attributes are recorded in self.absent and skipped.
        """
        self._install(targets)
        try:
            yield self
        finally:
            for owner, key, orig in reversed(self._patches):
                setattr(owner, key, orig)
            self._patches.clear()

    def _install(self, targets):
        for module_name, attr, name, count in targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, name, count))
                continue
            orig = getattr(module, attr, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapped = self.wrap(orig, name, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or
                                       mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        self.absent = sorted(set(self.absent))

    # ---- analysis ----------------------------------------------------

    def arrays(self):
        """Per-span arrays: duration, self time and top-level ancestor."""
        n = len(self.names)
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        root = np.arange(n)
        for i in np.flatnonzero(has_parent):   # parents precede children
            root[i] = root[parent[i]]
        return dur, self_time, root

    def dump(self):
        """Spans and counts as plain lists, for writing out after the run."""
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, s, e, p] for n, s, e, p in
                      zip(self.names, self.start, self.end, self.parent)],
            "counts": [list(c) for c in self.counts],
            "absent": self.absent,
        }
