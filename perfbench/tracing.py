"""In-memory spans around calls into the program's layers.

A :class:`Tracer` records one span per call: its name, start, end, the
span that was open when it began (its parent) and the rep it belongs
to.  Spans live in flat arrays while the run goes on and are written
out once, at the end (:meth:`Tracer.dump`).

Wrappers are installed on the class that *defines* a method, never on
an instance, and removed again by :meth:`Tracer.uninstall`.  Two things
depend on that: the replay engine decides which lane a cache takes by
comparing a cache's class attributes with the base class's
(``sim/engine.py``), and the fault runtime pickles whole caches to
implement a cold restart (``cdn/faults.py``).  An instance attribute
holding a closure would change the first and break the second.

:func:`self_times` turns spans into per-name self time: a span's
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = ["DispatchCounter", "Tracer", "defining_class", "label_of", "self_times"]

#: ``(name, start, end, parent)``: ``parent`` indexes the same sequence,
#: -1 for a root span.
Span = Tuple[str, float, float, int]


def defining_class(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO whose ``__dict__`` holds ``attr``."""
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class _Patches:
    """Class-attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[type, str, object]] = []
        self._done: set = set()

    def replace(self, cls: type, attr: str, make: Callable) -> bool:
        """Replace ``attr`` on its defining class with ``make(original)``.

        Returns False (and changes nothing) when that class attribute
        was already replaced through this object.
        """
        owner = defining_class(cls, attr)
        key = (owner, attr)
        if key in self._done:
            return False
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))
        self._done.add(key)
        return True

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._done.clear()


class Tracer:
    """Span recorder with class-level method wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._rep = array("i")
        self._stack: List[int] = []
        #: id shared by every span opened until the next :meth:`new_rep`
        self.rep = 0
        self._patches = _Patches()

    def __len__(self) -> int:
        return len(self._start)

    def new_rep(self) -> int:
        self.rep += 1
        return self.rep

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._start)
        stack = self._stack
        self._name.append(nid)
        self._parent.append(stack[-1] if stack else -1)
        self._rep.append(self.rep)
        self._end.append(0.0)
        self._start.append(time.perf_counter())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span(name): ...`` around a call site."""
        return _SpanContext(self, name)

    def wrap(self, cls: type, attr: str, name: "str | Callable[[object], str]") -> bool:
        """Record a span around every call of ``cls.attr``.

        ``name`` is a span name, or a function of the receiver (the
        first positional argument) that returns one.
        """
        namer = (lambda _obj, _n=name: _n) if isinstance(name, str) else name
        open_, close = self.open, self.close

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = open_(namer(args[0]))
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(index)

            return traced

        return self._patches.replace(cls, attr, make)

    def uninstall(self) -> None:
        """Put back every method this tracer wrapped."""
        self._patches.undo()

    def spans(self) -> List[Span]:
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self._name, self._start, self._end, self._parent)
        ]

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """:func:`self_times` over every span recorded so far."""
        return self_times(self.spans())

    def dump(self, path: str) -> None:
        """Write every span: one JSON header line naming the columns and
        span names, then each column as raw machine-order array bytes."""
        columns = [("name", self._name), ("start", self._start), ("end", self._end),
                   ("parent", self._parent), ("rep", self._rep)]
        header = {
            "spans": len(self),
            "names": self.names,
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for _name, col in columns:
                col.tofile(out)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._index = self._tracer.open(self._name)

    def __exit__(self, *exc) -> None:
        self._tracer.close(self._index)


def self_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``{"self": s, "total": s, "calls": n}``.

    ``total`` sums span durations.  ``self`` sums each span's duration
    minus the time its children cover.  Overlapping children are
    counted once, and a child's time outside its parent is ignored.
    """
    n = len(spans)
    order = sorted(range(n), key=lambda i: spans[i][1])
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in order:
        _, start, end, parent = spans[i]
        if parent < 0:
            continue
        _, p_start, p_end, _ = spans[parent]
        lo = max(start, p_start, reach[parent])
        hi = min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
        if hi > reach[parent]:
            reach[parent] = hi
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.get(name)
        if row is None:
            row = out[name] = {"self": 0.0, "total": 0.0, "calls": 0}
        duration = end - start
        row["total"] += duration
        row["self"] += duration - covered[i]
        row["calls"] += 1
    return out


class DispatchCounter:
    """Counts, per cache, the calls that decide which lane a block took.

    ``kernel``: the engine called the cache's vectorized
    ``handle_span_block_kernel``.  ``block``: the engine called the
    scalar ``handle_span_block`` walk directly.  ``residue``: a kernel
    handed (part of) its block to the scalar walk, which is how a
    kernel falls back when a probe is attached.  Both methods run once
    per block of requests, so counting costs nothing a replay can
    measure.
    """

    KERNEL = "handle_span_block_kernel"
    BLOCK = "handle_span_block"

    def __init__(self, label: Callable[[object], str]) -> None:
        self.label = label
        self.counts: Dict[str, Dict[str, int]] = {}
        self._depth = 0
        self._patches = _Patches()

    def install(self, classes: Iterable[type]) -> None:
        for cls in classes:
            self._patches.replace(cls, self.KERNEL, self._counting(True))
            self._patches.replace(cls, self.BLOCK, self._counting(False))

    def _bump(self, cache, kind: str) -> None:
        row = self.counts.setdefault(self.label(cache), {"kernel": 0, "block": 0, "residue": 0})
        row[kind] += 1

    def _counting(self, is_kernel: bool):
        def make(fn):
            @functools.wraps(fn)
            def counted(cache, *args, **kwargs):
                if is_kernel:
                    if self._depth == 0:
                        self._bump(cache, "kernel")
                    self._depth += 1
                    try:
                        return fn(cache, *args, **kwargs)
                    finally:
                        self._depth -= 1
                self._bump(cache, "residue" if self._depth else "block")
                return fn(cache, *args, **kwargs)

            return counted

        return make

    def take(self) -> Dict[str, Dict[str, int]]:
        """The counts since the last call, sorted by label; then reset."""
        out = {k: self.counts[k] for k in sorted(self.counts)}
        self.counts = {}
        return out

    def uninstall(self) -> None:
        self._patches.undo()


def label_of(cache: object) -> str:
    """A cache's algorithm name."""
    return getattr(cache, "name", type(cache).__name__)
