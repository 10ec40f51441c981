"""Span tracing of a package's public functions, installed from outside.

`Recorder.installed` replaces each traced function by a wrapper in every
module of the package that holds a reference to it (and each traced method
on its class), and restores the originals on exit.  The package's source is
never edited.  Each call records one span

    (span id, parent id, name, start, end, value)

in memory; `value` is a number the target's value function extracts from
the result (rows stepped, samples accepted, ...), 0 when the call raised.
The parent is the innermost open span on the calling thread.  A span opened
on a thread with no open span of its own (a worker of a thread pool) takes
as parent the innermost open span of the thread that created the recorder,
which is the thread that handed it the work.

Self time of a span is its duration minus the part of its interval covered
by its children; children running concurrently on several threads are
merged into one covered interval, so self time never goes negative.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A function to trace: ``owner.attr``, recorded under ``name``.

    ``owner`` is a module (every module of the package that imported the
    function gets the wrapper) or a class (its method is replaced).
    """

    owner: object
    attr: str
    name: str
    value: Callable | None = None


class Recorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._origin = self._stack()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, value=None):
        clock = time.perf_counter
        spans = self.spans
        origin = self._origin

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = origin[-1] if origin else 0
            sid = next(self._ids)
            stack.append(sid)
            out = None
            ok = False
            start = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = clock()
                stack.pop()
                v = value(out) if (ok and value is not None) else 0
                spans.append((sid, parent, name, start, end, v))

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, targets, package: str):
        """Trace ``targets`` in every loaded module of ``package`` for the block."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        try:
            for t in targets:
                if isinstance(t.owner, type):
                    orig = vars(t.owner)[t.attr]
                    self._patch(t.owner, t.attr, orig, self.wrap(t.name, orig, t.value))
                    continue
                orig = getattr(t.owner, t.attr)
                wrapped = self.wrap(t.name, orig, t.value)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, orig, wrapped)
            yield self
        finally:
            for obj, key, orig in reversed(self._patches):
                setattr(obj, key, orig)
            self._patches.clear()

    def _patch(self, obj, key, orig, new):
        self._patches.append((obj, key, orig))
        setattr(obj, key, new)

    def write_csv(self, path):
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start", "end", "value"])
            writer.writerows(self.spans)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """{span id: duration minus the union of its children's intervals}."""
    children = defaultdict(list)
    for _sid, parent, _name, start, end, _v in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - covered_length(children.get(sid, ()), start, end)
        for sid, _parent, _name, start, end, _v in spans
    }


def summarize(spans) -> dict:
    """{name: {"calls", "total_s", "self_s", "value"}} summed over spans."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0})
    for sid, _parent, name, start, end, v in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
        row["value"] += v
    return dict(out)


def direct_children(spans, parent_name: str, child_name: str) -> tuple[int, float]:
    """(calls, summed value) of ``child_name`` spans whose parent is a ``parent_name`` span."""
    parents = {sid for sid, _p, name, *_ in spans if name == parent_name}
    calls = 0
    value = 0
    for _sid, parent, name, _s, _e, v in spans:
        if name == child_name and parent in parents:
            calls += 1
            value += v
    return calls, value
