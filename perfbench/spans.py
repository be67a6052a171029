"""In-memory span recorder that wraps module attributes from outside.

A span is recorded at each wrapped boundary: its name, start and end
(``perf_counter_ns``) and the index of the enclosing span; the workload
id is the tracer's, written once per file.  Generator functions are
timed per ``next()``.  Spans stay in memory until ``dump`` writes them
out; self time is computed afterwards.

Nothing under ``src/`` knows about this module: ``Tracer.wrap`` swaps an
attribute of a module or class for a timing wrapper and ``restore`` puts
the original back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index); parent -1 is the root
        self.spans: list[tuple[int, int, int, int]] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # items yielded by each wrapped generator, by span name
        self.yields: dict[str, int] = defaultdict(int)

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _timed(self, nid: int, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append((nid, 0, 0, stack[-1]))
        stack.append(idx)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _now()
            stack.pop()
            spans[idx] = (nid, t0, t1, spans[idx][3])

    def begin(self, name: str) -> int:
        """Open a span explicitly; returns its index for ``end``."""
        idx = len(self.spans)
        self.spans.append((self._name_id(name), _now(), 0, self._stack[-1]))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        nid, t0, _, parent = self.spans[idx]
        self.spans[idx] = (nid, t0, _now(), parent)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        observe(args, result), when given, runs after each call outside
        the span, so hooks can count properties of arguments and results.
        """
        original = getattr(owner, attr)
        nid = self._name_id(name)
        timed = self._timed

        if inspect.isgeneratorfunction(original):
            yields = self.yields

            def wrapper(*args, **kwargs):
                return _TimedIterator(timed, nid, original(*args, **kwargs),
                                      yields, name)
        else:
            def wrapper(*args, **kwargs):
                result = timed(nid, original, args, kwargs)
                if observe is not None:
                    observe(args, result)
                return result
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span, gzip-compressed JSON, in start order."""
        doc = {"workload": self.workload, "names": self.names,
               "columns": ["name", "start_ns", "end_ns", "parent"],
               "spans": self.spans}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        return totals(self.names, self.spans)


class _TimedIterator:
    """Iterator proxy that records one span per ``next()``."""

    def __init__(self, timed, nid, it, yields, name):
        self._timed, self._nid, self._it = timed, nid, it
        self._yields, self._name = yields, name

    def __iter__(self):
        return self

    def __next__(self):
        item = self._timed(self._nid, self._it.__next__, (), {})
        self._yields[self._name] += 1
        return item


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus its children's.

    Wrapped calls run on one thread and nest, so the children of a span
    are disjoint intervals inside it and their durations add up to the
    part of it they cover.
    """
    child = [0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] for i, (_, t0, t1, _) in enumerate(spans)]


def totals(names, spans) -> dict[str, dict[str, float]]:
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (nid, t0, t1, _), st in zip(spans, self_times(spans)):
        row = out[names[nid]]
        row["calls"] += 1
        row["total_s"] += (t1 - t0) / 1e9
        row["self_s"] += st / 1e9
    return dict(out)
