"""Columnar trace representation: the packed fast lane of the engine.

Replay throughput is bounded by per-request Python overhead: attribute
lookups on ``Request`` objects, ``__post_init__`` validation, and
re-deriving byte/chunk counts in every lane.  :class:`PackedTrace`
lowers a request sequence **once** into flat parallel arrays —

* ``t``            arrival timestamps (float64)
* ``video``        video IDs (int64)
* ``b0``, ``b1``   inclusive byte range (int64)
* ``c0``, ``c1``   derived inclusive chunk range (int64)
* ``num_bytes``    ``b1 - b0 + 1`` (int64)
* ``num_chunks``   ``c1 - c0 + 1`` (int64)

— validating time order and byte ranges at pack time, so the hot loop
can skip both the per-request order check and all re-derivation.

The backing storage is numpy when available, ``array``/``memoryview``
otherwise; either way every column is a fixed 8-byte-per-element buffer,
which makes the layout trivially exportable to
``multiprocessing.shared_memory``: :meth:`PackedTrace.to_shared` writes
the eight columns back-to-back into one segment and returns a tiny
picklable :class:`SharedTraceHandle` that sweep workers :meth:`attach
<SharedTraceHandle.attach>` to — one copy of the trace in ``/dev/shm``
instead of one pickled copy per worker.
"""

from __future__ import annotations

import os
import secrets
from collections.abc import Sequence
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.trace.requests import DEFAULT_CHUNK_BYTES, Request

#: Environment knob forcing the pure-``array``/``memoryview`` backing
#: even when numpy is importable.  CI uses it to exercise the fallback
#: lane on hosts where numpy cannot simply be uninstalled.
NO_NUMPY_ENV = "REPRO_NO_NUMPY"

try:  # pragma: no cover - exercised implicitly on numpy-equipped hosts
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

if os.environ.get(NO_NUMPY_ENV, "").strip() not in ("", "0"):
    _np = None  # pragma: no cover - exercised by the no-numpy CI lane

__all__ = [
    "BlockView",
    "PackedTrace",
    "PackedTraceBuilder",
    "SharedTraceHandle",
    "active_shared_traces",
    "list_block",
    "new_segment_name",
    "pack_trace",
    "request_block",
    "unlink_shared_segment",
]

#: Column order is the shared-memory layout: column ``i`` of an
#: ``n``-request trace occupies bytes ``[i*8*n, (i+1)*8*n)``.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("t", "d"),
    ("video", "q"),
    ("b0", "q"),
    ("b1", "q"),
    ("c0", "q"),
    ("c1", "q"),
    ("num_bytes", "q"),
    ("num_chunks", "q"),
)

_ITEMSIZE = 8

#: int64 guard: values at or beyond this cannot be packed losslessly.
_INT64_MAX = 2**63 - 1

#: Names of shared-memory segments created (and not yet unlinked) by
#: this process — the leak detector for tests and crash-path audits.
_ACTIVE_SEGMENTS: set = set()


def active_shared_traces() -> frozenset:
    """Segment names exported by this process and not yet unlinked."""
    return frozenset(_ACTIVE_SEGMENTS)


def _np_dtype(typecode: str):
    return _np.float64 if typecode == "d" else _np.int64


def _make_column(typecode: str, values: List) -> "object":
    """Build one backing column from a plain Python list."""
    if _np is not None:
        return _np.asarray(values, dtype=_np_dtype(typecode))
    import array as _array

    return memoryview(_array.array(typecode, values))


class PackedTrace(Sequence):
    """A request trace lowered to flat parallel arrays.

    Behaves as an immutable ``Sequence[Request]`` (indexing materializes
    a :class:`Request`, so offline ``prepare`` and existing engine code
    work unchanged) while exposing the raw columns for batched hot
    paths.  Construct via :func:`pack_trace` or
    :meth:`SharedTraceHandle.attach`; the constructor itself trusts its
    inputs and performs no validation.
    """

    __slots__ = ("chunk_bytes", "_n", "_cols", "_hot", "_shm")

    def __init__(
        self,
        chunk_bytes: int,
        columns: Dict[str, object],
        n: int,
        shm: "object | None" = None,
    ) -> None:
        self.chunk_bytes = chunk_bytes
        self._n = n
        self._cols = columns
        self._hot: Optional[Tuple[list, ...]] = None
        self._shm = shm

    # -- Sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._n)
            if step == 1:
                cols = {name: col[start:stop] for name, col in self._cols.items()}
                return PackedTrace(self.chunk_bytes, cols, max(0, stop - start))
            indices = range(start, stop, step)
            cols = {
                name: _make_column(typecode, [self._cols[name][i] for i in indices])
                for name, typecode in _COLUMNS
            }
            return PackedTrace(self.chunk_bytes, cols, len(indices))
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("PackedTrace index out of range")
        cols = self._cols
        return Request(
            float(cols["t"][index]),
            int(cols["video"][index]),
            int(cols["b0"][index]),
            int(cols["b1"][index]),
        )

    def __iter__(self) -> Iterator[Request]:
        ts, videos, b0s, b1s = self.hot_columns()[:4]
        for t, video, b0, b1 in zip(ts, videos, b0s, b1s):
            yield Request(t, video, b0, b1)

    def __repr__(self) -> str:
        return (
            f"PackedTrace({self._n} requests, chunk_bytes={self.chunk_bytes}, "
            f"backing={'numpy' if _np is not None else 'array'})"
        )

    # -- columnar access -----------------------------------------------------

    def column(self, name: str):
        """The raw backing array of one column (zero-copy)."""
        return self._cols[name]

    def hot_columns(self) -> Tuple[list, ...]:
        """All eight columns as plain Python lists, in layout order.

        Plain lists iterate faster than numpy scalars or memoryviews in
        a pure-Python loop (no per-element boxing), so the engine's
        packed lane slices these.  Computed once and cached.
        """
        if self._hot is None:
            hot = []
            for name, _typecode in _COLUMNS:
                col = self._cols[name]
                hot.append(col.tolist())
            self._hot = tuple(hot)
        return self._hot

    def block_view(self, start: int, stop: int) -> "BlockView":
        """One engine-block :class:`BlockView` over ``[start, stop)``.

        The view carries both list slices (for the hoisted walks) and,
        on numpy-backed traces, zero-copy array slices plus the lazily
        derived per-block columns the screens consume.  A view of the
        whole trace shares the trace's lists instead of copying them;
        walks only read a view's columns.
        """
        cols = self._cols
        arrays = None
        if _np is not None and isinstance(cols["t"], _np.ndarray):
            arrays = tuple(cols[name][start:stop] for name, _ in _COLUMNS)
        lists = self.hot_columns()
        if (start, stop) != (0, self._n):
            lists = tuple(col[start:stop] for col in lists)
        return BlockView(self.chunk_bytes, lists, arrays)

    @property
    def nbytes(self) -> int:
        """Total payload size of the packed columns."""
        return self._n * _ITEMSIZE * len(_COLUMNS)

    def total_requested_bytes(self) -> int:
        """Sum of the ``num_bytes`` column (C-speed, no request objects)."""
        col = self._cols["num_bytes"]
        if _np is not None and isinstance(col, _np.ndarray):
            return int(col.sum())
        return sum(col)

    def unique_chunk_count(self) -> int:
        """Distinct ``(video, chunk)`` pairs touched, at this chunk size.

        The columnar equivalent of ``set().update(r.chunk_ids())`` over a
        request list — used to size disks off the trace footprint.
        """
        _ts, videos, _b0s, _b1s, c0s, c1s, _nb, _nc = self.hot_columns()
        unique: set = set()
        add = unique.add
        for video, c0, c1 in zip(videos, c0s, c1s):
            if c0 == c1:
                add((video, c0))
            else:
                for c in range(c0, c1 + 1):
                    add((video, c))
        return len(unique)

    # -- serialization -------------------------------------------------------

    def __reduce__(self):
        payload = tuple(self._column_bytes(name) for name, _ in _COLUMNS)
        return (_unpack_pickled, (self.chunk_bytes, self._n, payload))

    def _column_bytes(self, name: str) -> bytes:
        col = self._cols[name]
        if _np is not None and isinstance(col, _np.ndarray):
            return col.tobytes()
        return bytes(col)

    def to_shared(self, name: Optional[str] = None) -> "SharedTraceHandle":
        """Export the packed columns into one shared-memory segment.

        Returns a picklable handle; the caller owns the segment and must
        :meth:`SharedTraceHandle.unlink` it (the scheduler does so in a
        ``finally`` so crash/retry paths cannot leak ``/dev/shm``
        entries).  Empty traces cannot be shared — ``SharedMemory``
        rejects zero-sized segments.
        """
        from multiprocessing import shared_memory

        total = self.nbytes
        if total == 0:
            raise ValueError("cannot export an empty trace to shared memory")
        shm = shared_memory.SharedMemory(create=True, size=total, name=name)
        try:
            offset = 0
            for cname, _typecode in _COLUMNS:
                data = self._column_bytes(cname)
                shm.buf[offset : offset + len(data)] = data
                offset += len(data)
            handle = SharedTraceHandle(shm.name, self._n, self.chunk_bytes)
            handle._shm = shm
            _ACTIVE_SEGMENTS.add(shm.name)
            return handle
        except BaseException:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # a signal handler unlinked it by name
                pass
            raise

    def close(self) -> None:
        """Release an attached shared-memory mapping (no-op otherwise)."""
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        self._cols = {}  # hot lists (if computed) are plain copies and survive
        try:
            shm.close()
        except BufferError:  # a caller still holds a column view
            pass


def _unpack_pickled(
    chunk_bytes: int, n: int, payload: Tuple[bytes, ...]
) -> PackedTrace:
    cols: Dict[str, object] = {}
    for (name, typecode), raw in zip(_COLUMNS, payload):
        if _np is not None:
            cols[name] = _np.frombuffer(raw, dtype=_np_dtype(typecode))
        else:
            cols[name] = memoryview(raw).cast(typecode)
    return PackedTrace(chunk_bytes, cols, n)


class SharedTraceHandle:
    """Picklable reference to a :class:`PackedTrace` in shared memory.

    The parent process creates it via :meth:`PackedTrace.to_shared` and
    passes it to workers in place of the request list; each worker calls
    :meth:`attach` to map the one segment.  Pickling carries only the
    segment name and metadata — a few dozen bytes regardless of trace
    length.
    """

    __slots__ = ("name", "length", "chunk_bytes", "_shm")

    def __init__(self, name: str, length: int, chunk_bytes: int) -> None:
        self.name = name
        self.length = length
        self.chunk_bytes = chunk_bytes
        self._shm = None

    def __getstate__(self):
        return (self.name, self.length, self.chunk_bytes)

    def __setstate__(self, state) -> None:
        self.name, self.length, self.chunk_bytes = state
        self._shm = None

    def __len__(self) -> int:
        return self.length

    @property
    def nbytes(self) -> int:
        return self.length * _ITEMSIZE * len(_COLUMNS)

    def __repr__(self) -> str:
        return (
            f"SharedTraceHandle({self.name!r}, {self.length} requests, "
            f"chunk_bytes={self.chunk_bytes})"
        )

    def attach(self) -> PackedTrace:
        """Map the segment and view it as a :class:`PackedTrace`.

        The returned trace owns the mapping; call
        :meth:`PackedTrace.close` when done (the worker-side executor
        does).  Attaching never copies the column payload.
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=self.name)
        n = self.length
        cols: Dict[str, object] = {}
        for i, (cname, typecode) in enumerate(_COLUMNS):
            offset = i * _ITEMSIZE * n
            if _np is not None:
                cols[cname] = _np.ndarray(
                    (n,), dtype=_np_dtype(typecode), buffer=shm.buf, offset=offset
                )
            else:
                cols[cname] = shm.buf[offset : offset + _ITEMSIZE * n].cast(typecode)
        return PackedTrace(self.chunk_bytes, cols, n, shm=shm)

    def close(self) -> None:
        """Release the creator-side mapping without destroying the segment."""
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        try:
            shm.close()
        except BufferError:  # pragma: no cover - no views are handed out
            pass

    def unlink(self) -> None:
        """Destroy the segment (idempotent).  Call exactly once, parent-side."""
        from multiprocessing import shared_memory

        shm = self._shm
        self._shm = None
        if shm is None:
            try:
                shm = shared_memory.SharedMemory(name=self.name)
            except FileNotFoundError:
                _ACTIVE_SEGMENTS.discard(self.name)
                return
        try:
            shm.close()
        except BufferError:  # pragma: no cover
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        _ACTIVE_SEGMENTS.discard(self.name)


def new_segment_name() -> str:
    """A fresh shared-memory segment name for :meth:`PackedTrace.to_shared`.

    Naming the segment before it exists lets a signal handler find it
    by name at any moment of the export.
    """
    return "psm_" + secrets.token_hex(8)


def unlink_shared_segment(name: str) -> None:
    """Remove segment ``name`` by name, if it exists (idempotent).

    Safe in a signal handler: it neither maps the segment nor talks to
    the multiprocessing resource tracker, and either may be what the
    signal interrupted (the first export starts the tracker).  The
    tracker, if it registered the segment, may warn at exit that it
    found it gone.
    """
    try:
        import _posixshmem
    except ImportError:  # pragma: no cover - segments die with their handles
        return
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        pass
    _ACTIVE_SEGMENTS.discard(name)


class BlockView:
    """One engine block of packed request columns, in both backings.

    The replay lanes hand whole blocks to each cache's block entry
    (:meth:`~repro.core.base.VideoCache.handle_span_block_kernel`).
    A view exposes the same columns twice — plain list slices for the
    hoisted walks, zero-copy numpy slices for vectorized screens — plus
    *derived per-block columns* that are computed lazily, once, and
    shared by every lane replaying the block:

    * the stable per-video grouping (``video_groups``), the basis of
      per-video residency summaries and batched touch condensation;
    * the previous same-video occurrence time within the block
      (``prev_t``, NaN at a video's first in-block occurrence) and the
      matching ``first_occurrence`` mask — what admission pre-screens
      join against their tracker snapshots.

    On the array-fallback lane (``REPRO_NO_NUMPY``) only the list
    slices exist and :attr:`vectorized` is False; the walks then run
    with every request undecided.
    """

    __slots__ = (
        "chunk_bytes",
        "n",
        "ts",
        "videos",
        "b0s",
        "b1s",
        "c0s",
        "c1s",
        "num_bytes",
        "num_chunks",
        "ts_l",
        "videos_l",
        "b0s_l",
        "b1s_l",
        "c0s_l",
        "c1s_l",
        "num_bytes_l",
        "num_chunks_l",
        "_order",
        "_starts",
        "_uniq",
        "_inverse",
        "_prev_t",
        "_first",
    )

    def __init__(
        self,
        chunk_bytes: int,
        lists: Tuple[list, ...],
        arrays: "Optional[Tuple[object, ...]]",
    ) -> None:
        """``lists``/``arrays``: the eight columns in layout order, as
        plain lists and as numpy arrays (None on the fallback backing)."""
        self.chunk_bytes = chunk_bytes
        (
            self.ts_l,
            self.videos_l,
            self.b0s_l,
            self.b1s_l,
            self.c0s_l,
            self.c1s_l,
            self.num_bytes_l,
            self.num_chunks_l,
        ) = lists
        self.n = len(self.ts_l)
        if arrays is None:
            arrays = (None,) * len(_COLUMNS)
        (
            self.ts,
            self.videos,
            self.b0s,
            self.b1s,
            self.c0s,
            self.c1s,
            self.num_bytes,
            self.num_chunks,
        ) = arrays
        self._order = None
        self._starts = None
        self._uniq = None
        self._inverse = None
        self._prev_t = None
        self._first = None

    @property
    def vectorized(self) -> bool:
        """Whether numpy column slices (and derived columns) exist."""
        return self.ts is not None

    def video_groups(self) -> Tuple["object", "object", "object"]:
        """``(uniq, order, starts)``: the stable per-video grouping.

        ``order`` is the stable argsort of the video column; requests of
        unique video ``uniq[j]`` occupy ``order[starts[j]:starts[j+1]]``
        in ascending request order (stability keeps time order within
        each group).  Computed once per block, shared across lanes.
        """
        if self._order is None:
            videos = self.videos
            order = _np.argsort(videos, kind="stable")
            sv = videos[order]
            cuts = _np.flatnonzero(sv[1:] != sv[:-1]) + 1
            # an empty block has no groups: starts is just [0]
            ends = [self.n] if self.n else []
            starts = _np.concatenate(([0], cuts, ends)).astype(_np.int64)
            self._order = order
            self._starts = starts
            self._uniq = sv[starts[:-1]]
        return self._uniq, self._order, self._starts

    def video_inverse(self) -> "object":
        """Per-request index into ``video_groups()[0]`` (np.unique-style)."""
        if self._inverse is None:
            uniq, order, starts = self.video_groups()
            counts = _np.diff(starts)
            inverse = _np.empty(self.n, dtype=_np.int64)
            inverse[order] = _np.repeat(
                _np.arange(len(uniq), dtype=_np.int64), counts
            )
            self._inverse = inverse
        return self._inverse

    def prev_t(self) -> "object":
        """Previous same-video occurrence time within the block.

        ``prev_t[i]`` is the timestamp of the latest ``j < i`` with
        ``videos[j] == videos[i]``, or NaN when ``i`` is its video's
        first in-block occurrence — the in-block part of a "last access"
        column that admission pre-screens complete from their tracker
        snapshot at the block boundary.
        """
        if self._prev_t is None:
            _uniq, order, starts = self.video_groups()
            tsorted = self.ts[order]
            prev_sorted = _np.empty(self.n, dtype=_np.float64)
            if self.n:
                prev_sorted[1:] = tsorted[:-1]
            prev_sorted[starts[:-1]] = _np.nan
            prev = _np.empty(self.n, dtype=_np.float64)
            prev[order] = prev_sorted
            self._prev_t = prev
        return self._prev_t

    def first_occurrence(self) -> "object":
        """Mask of each video's first in-block occurrence."""
        if self._first is None:
            _uniq, order, starts = self.video_groups()
            first = _np.zeros(self.n, dtype=bool)
            first[order[starts[:-1]]] = True
            self._first = first
        return self._first


def request_block(
    chunk_bytes: int, ts: list, videos: list, b0s: list, b1s: list
) -> BlockView:
    """A :class:`BlockView` over unpacked request columns (plain lists).

    Derives the chunk and count columns for ``chunk_bytes`` as
    :func:`pack_trace` does, but validates nothing: the caller
    guarantees time order and byte ranges (the fleet's upstream hop
    buffers, built from packed shards, do).  The view is vectorized
    when numpy is present, list-backed (:func:`list_block`) otherwise.
    """
    k = chunk_bytes
    if _np is not None:
        n = len(ts)
        b0 = _np.fromiter(b0s, _np.int64, n)
        b1 = _np.fromiter(b1s, _np.int64, n)
        c0 = b0 // k
        c1 = b1 // k
        nb = b1 - b0 + 1
        nc = c1 - c0 + 1
        arrays = (
            _np.fromiter(ts, _np.float64, n),
            _np.fromiter(videos, _np.int64, n),
            b0, b1, c0, c1, nb, nc,
        )
        lists = (
            ts, videos, b0s, b1s,
            c0.tolist(), c1.tolist(), nb.tolist(), nc.tolist(),
        )
        return BlockView(k, lists, arrays)
    return list_block(k, ts, videos, b0s, b1s)


def list_block(
    chunk_bytes: int, ts: list, videos: list, b0s: list, b1s: list
) -> BlockView:
    """A list-backed :class:`BlockView` over unpacked request columns.

    Like :func:`request_block` but never vectorized, so a walk runs
    every request undecided instead of first paying for its numpy
    screen: the cheap view for short blocks, such as a serving batch.
    """
    k = chunk_bytes
    c0s: List[int] = []
    c1s: List[int] = []
    num_bytes: List[int] = []
    num_chunks: List[int] = []
    # one loop beats four comprehensions at every block size
    for b0, b1 in zip(b0s, b1s):
        c0 = b0 // k
        c1 = b1 // k
        c0s.append(c0)
        c1s.append(c1)
        num_bytes.append(b1 - b0 + 1)
        num_chunks.append(c1 - c0 + 1)
    lists = (ts, videos, b0s, b1s, c0s, c1s, num_bytes, num_chunks)
    return BlockView(k, lists, None)


def pack_trace(
    requests: "Iterable[Request] | PackedTrace",
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    validate: bool = True,
) -> PackedTrace:
    """Lower a request sequence into a :class:`PackedTrace`.

    One validating pass extracts the four source columns; the four
    derived columns are computed vectorized (numpy) or in C-speed
    comprehensions.  Validation mirrors the engine's object-path
    checks — time order raises the same ``"trace not time-ordered at
    index i"`` message — so a trace that packs cleanly is exactly a
    trace the object loop would accept, and the packed lane can skip
    per-request checks.

    Packing an already-packed trace is a no-op when the chunk size
    matches, and re-derives only the chunk columns when it differs.
    """
    if chunk_bytes <= 0:
        raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
    if isinstance(requests, PackedTrace):
        if requests.chunk_bytes == chunk_bytes:
            return requests
        return _rechunk(requests, chunk_bytes)

    ts: List[float] = []
    videos: List[int] = []
    b0s: List[int] = []
    b1s: List[int] = []
    last_t = float("-inf")
    index = 0
    for request in requests:
        t = request.t
        b0 = request.b0
        b1 = request.b1
        if validate:
            if t < last_t:
                raise ValueError(
                    f"trace not time-ordered at index {index}: {t} < {last_t}"
                )
            if b0 < 0 or b1 < b0:
                raise ValueError(
                    f"invalid byte range [{b0}, {b1}] at index {index}"
                )
        last_t = t
        ts.append(t)
        videos.append(request.video)
        b0s.append(b0)
        b1s.append(b1)
        index += 1

    if b1s and (max(b1s) >= _INT64_MAX or max(abs(v) for v in videos) >= _INT64_MAX):
        raise OverflowError("trace values exceed the packed int64 range")

    k = chunk_bytes
    if _np is not None:
        b0_arr = _np.asarray(b0s, dtype=_np.int64)
        b1_arr = _np.asarray(b1s, dtype=_np.int64)
        c0_arr = b0_arr // k
        c1_arr = b1_arr // k
        cols: Dict[str, object] = {
            "t": _np.asarray(ts, dtype=_np.float64),
            "video": _np.asarray(videos, dtype=_np.int64),
            "b0": b0_arr,
            "b1": b1_arr,
            "c0": c0_arr,
            "c1": c1_arr,
            "num_bytes": b1_arr - b0_arr + 1,
            "num_chunks": c1_arr - c0_arr + 1,
        }
    else:
        c0s = [b // k for b in b0s]
        c1s = [b // k for b in b1s]
        cols = {
            "t": _make_column("d", ts),
            "video": _make_column("q", videos),
            "b0": _make_column("q", b0s),
            "b1": _make_column("q", b1s),
            "c0": _make_column("q", c0s),
            "c1": _make_column("q", c1s),
            "num_bytes": _make_column(
                "q", [hi - lo + 1 for lo, hi in zip(b0s, b1s)]
            ),
            "num_chunks": _make_column(
                "q", [hi - lo + 1 for lo, hi in zip(c0s, c1s)]
            ),
        }
    return PackedTrace(chunk_bytes, cols, index)


def _rechunk(packed: PackedTrace, chunk_bytes: int) -> PackedTrace:
    """Re-derive the chunk columns of a packed trace for a new chunk size."""
    k = chunk_bytes
    cols = dict(packed._cols)
    if _np is not None and isinstance(cols["b0"], _np.ndarray):
        c0 = cols["b0"] // k
        c1 = cols["b1"] // k
        cols["c0"] = c0
        cols["c1"] = c1
        cols["num_chunks"] = c1 - c0 + 1
    else:
        b0s = list(cols["b0"])
        b1s = list(cols["b1"])
        c0s = [b // k for b in b0s]
        c1s = [b // k for b in b1s]
        cols["c0"] = _make_column("q", c0s)
        cols["c1"] = _make_column("q", c1s)
        cols["num_chunks"] = _make_column(
            "q", [hi - lo + 1 for lo, hi in zip(c0s, c1s)]
        )
    return PackedTrace(chunk_bytes, cols, len(packed))


class PackedTraceBuilder:
    """Streaming constructor of :class:`PackedTrace`: append + finalize.

    ``append`` buffers the four source fields of one request in plain
    lists; every ``flush_every`` rows the buffers are lowered into
    fixed-width storage (numpy blocks, or ``array.array`` columns in the
    fallback lane).  Building a 10M-request trace therefore holds at
    most ``flush_every`` boxed values at a time plus the 8-byte-per-field
    packed payload — never a list of ``Request`` objects.

    ``finalize`` concatenates the blocks, stable-sorts by timestamp when
    appends arrived out of order (the same tie behaviour as
    ``list.sort(key=lambda r: r.t)`` on materialized requests, so a
    streamed trace is byte-identical to packing the object trace),
    derives the chunk columns and returns the trace.  A builder is
    single-use: ``append`` after ``finalize`` raises.
    """

    __slots__ = (
        "chunk_bytes",
        "_flush_every",
        "_ts",
        "_videos",
        "_b0s",
        "_b1s",
        "_store",
        "_n",
        "_sorted",
        "_prev_t",
        "_finalized",
    )

    def __init__(
        self,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        flush_every: int = 65536,
    ) -> None:
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.chunk_bytes = chunk_bytes
        self._flush_every = flush_every
        self._ts: List[float] = []
        self._videos: List[int] = []
        self._b0s: List[int] = []
        self._b1s: List[int] = []
        if _np is not None:
            # list of (t, video, b0, b1) array blocks, concatenated once
            self._store: object = []
        else:
            import array as _array

            self._store = (
                _array.array("d"),
                _array.array("q"),
                _array.array("q"),
                _array.array("q"),
            )
        self._n = 0
        self._sorted = True
        self._prev_t = float("-inf")
        self._finalized = False

    def __len__(self) -> int:
        return self._n

    def append(self, t: float, video: int, b0: int, b1: int) -> None:
        """Buffer one request; raises on invalid byte ranges."""
        if self._finalized:
            raise RuntimeError("PackedTraceBuilder already finalized")
        if b0 < 0 or b1 < b0:
            raise ValueError(f"invalid byte range [{b0}, {b1}] at index {self._n}")
        if t < self._prev_t:
            self._sorted = False
        self._prev_t = t
        self._ts.append(t)
        self._videos.append(video)
        self._b0s.append(b0)
        self._b1s.append(b1)
        self._n += 1
        if len(self._ts) >= self._flush_every:
            self._flush()

    def extend(self, requests: Iterable[Request]) -> None:
        """Buffer a request iterable (objects or ``(t, video, b0, b1)``)."""
        append = self.append
        for r in requests:
            append(r.t, r.video, r.b0, r.b1)

    def _flush(self) -> None:
        ts, videos, b0s, b1s = self._ts, self._videos, self._b0s, self._b1s
        if not ts:
            return
        if max(b1s) >= _INT64_MAX or max(map(abs, videos)) >= _INT64_MAX:
            raise OverflowError("trace values exceed the packed int64 range")
        if _np is not None:
            self._store.append(
                (
                    _np.asarray(ts, dtype=_np.float64),
                    _np.asarray(videos, dtype=_np.int64),
                    _np.asarray(b0s, dtype=_np.int64),
                    _np.asarray(b1s, dtype=_np.int64),
                )
            )
        else:
            cols = self._store
            cols[0].extend(ts)
            cols[1].extend(videos)
            cols[2].extend(b0s)
            cols[3].extend(b1s)
        self._ts = []
        self._videos = []
        self._b0s = []
        self._b1s = []

    def finalize(self) -> PackedTrace:
        """Lower the buffered requests into a time-ordered trace."""
        if self._finalized:
            raise RuntimeError("PackedTraceBuilder already finalized")
        self._flush()
        self._finalized = True
        k = self.chunk_bytes
        n = self._n
        if _np is not None:
            blocks = self._store
            self._store = []
            if blocks:
                t_arr = _np.concatenate([b[0] for b in blocks])
                video_arr = _np.concatenate([b[1] for b in blocks])
                b0_arr = _np.concatenate([b[2] for b in blocks])
                b1_arr = _np.concatenate([b[3] for b in blocks])
            else:
                t_arr = _np.empty(0, dtype=_np.float64)
                video_arr = _np.empty(0, dtype=_np.int64)
                b0_arr = _np.empty(0, dtype=_np.int64)
                b1_arr = _np.empty(0, dtype=_np.int64)
            if not self._sorted:
                order = _np.argsort(t_arr, kind="stable")
                t_arr = t_arr[order]
                video_arr = video_arr[order]
                b0_arr = b0_arr[order]
                b1_arr = b1_arr[order]
            c0_arr = b0_arr // k
            c1_arr = b1_arr // k
            cols: Dict[str, object] = {
                "t": t_arr,
                "video": video_arr,
                "b0": b0_arr,
                "b1": b1_arr,
                "c0": c0_arr,
                "c1": c1_arr,
                "num_bytes": b1_arr - b0_arr + 1,
                "num_chunks": c1_arr - c0_arr + 1,
            }
            return PackedTrace(k, cols, n)

        import array as _array

        ts, videos, b0s, b1s = self._store
        self._store = ()
        if not self._sorted:
            order = sorted(range(n), key=ts.__getitem__)
            ts = _array.array("d", map(ts.__getitem__, order))
            videos = _array.array("q", map(videos.__getitem__, order))
            b0s = _array.array("q", map(b0s.__getitem__, order))
            b1s = _array.array("q", map(b1s.__getitem__, order))
        c0s = [b // k for b in b0s]
        c1s = [b // k for b in b1s]
        cols = {
            "t": memoryview(ts),
            "video": memoryview(videos),
            "b0": memoryview(b0s),
            "b1": memoryview(b1s),
            "c0": _make_column("q", c0s),
            "c1": _make_column("q", c1s),
            "num_bytes": _make_column(
                "q", [hi - lo + 1 for lo, hi in zip(b0s, b1s)]
            ),
            "num_chunks": _make_column(
                "q", [hi - lo + 1 for lo, hi in zip(c0s, c1s)]
            ),
        }
        return PackedTrace(k, cols, n)
