"""Fleet traces: per-edge packed shards plus a global time-merge plan.

The CDN-wide experiments replay one trace *per edge server*, merged
into a single time-ordered stream.  The object lane does this with
``heapq.merge`` — one tuple allocation and one heap sift per request.
The packed CDN lane never merges: it hands each edge's shard (per
fault epoch) to the edge cache's block entry and sorts only the
hop-generating requests, by the object lane's ``(t,
index-within-trace, edge-name)`` keys.

:meth:`FleetTrace.merge_runs` computes the whole merged order once,
vectorized, as run-length segments: a maximal run of consecutive
same-edge entries in the merged stream always covers *consecutive*
positions of that edge's shard (within one shard the merge keys are
strictly increasing), so the permutation compresses to ``(edge,
start, stop)`` triples.  No replay lane uses it; it backs
:meth:`FleetTrace.merged` and set-up measurements.

:meth:`FleetTrace.to_shared` exports every shard via
:meth:`PackedTrace.to_shared` and returns a tiny picklable
:class:`SharedFleetHandle`; sweep workers :meth:`attach
<SharedFleetHandle.attach>` zero-copy.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.trace.columnar import _np, PackedTrace, SharedTraceHandle, _make_column
from repro.trace.requests import Request

__all__ = ["FleetTrace", "SharedFleetHandle"]

#: (edge index, shard start, shard stop) triples in merged-stream order.
MergeRuns = Tuple[List[int], List[int], List[int]]


class FleetTrace:
    """Per-edge :class:`PackedTrace` shards + the merged replay order.

    ``shards`` maps edge-server name to its packed user trace; iteration
    order of the mapping is preserved and defines the edge indices used
    in :meth:`merge_runs`.  ``validate=True`` checks each shard for time
    order up front (vectorized under numpy), raising the same
    edge-and-index error the simulator's object lane produces.
    """

    __slots__ = ("shards", "names", "_runs")

    def __init__(
        self, shards: Mapping[str, PackedTrace], validate: bool = True
    ) -> None:
        if not shards:
            raise ValueError("FleetTrace needs at least one edge shard")
        for name, shard in shards.items():
            if not isinstance(shard, PackedTrace):
                raise TypeError(
                    f"shard for edge {name!r} must be a PackedTrace, "
                    f"got {type(shard).__name__}"
                )
        self.shards: Dict[str, PackedTrace] = dict(shards)
        self.names: Tuple[str, ...] = tuple(self.shards)
        if validate:
            for name, shard in self.shards.items():
                _check_time_order(name, shard)
        self._runs: Optional[MergeRuns] = None

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards.values())

    def __repr__(self) -> str:
        return (
            f"FleetTrace({len(self.names)} edges, {len(self)} requests, "
            f"runs={'cached' if self._runs is not None else 'lazy'})"
        )

    def merge_runs(self) -> MergeRuns:
        """The merged replay order as ``(edge, start, stop)`` run triples.

        Returned as three parallel lists (edge index into
        :attr:`names`, shard start position, shard stop position).
        Computed lazily and cached; the order replicates
        ``heapq.merge`` over ``(t, position, name)`` keys exactly.
        No replay lane walks this plan any more (see the module
        docstring).
        """
        if self._runs is None:
            self._runs = self._compute_runs()
        return self._runs

    def _compute_runs(self) -> MergeRuns:
        # Tie-break rank: the object lane compares edge *names* after
        # (t, position), so rank is the name's position in sorted order.
        name_rank = {name: r for r, name in enumerate(sorted(self.names))}
        total = len(self)
        if total == 0:
            return ([], [], [])
        if _np is not None:
            ts = _np.empty(total, dtype=_np.float64)
            pos = _np.empty(total, dtype=_np.int64)
            rank = _np.empty(total, dtype=_np.int64)
            eid = _np.empty(total, dtype=_np.int64)
            offset = 0
            for e, name in enumerate(self.names):
                shard = self.shards[name]
                m = len(shard)
                if m == 0:
                    continue
                ts[offset : offset + m] = shard.column("t")
                pos[offset : offset + m] = _np.arange(m, dtype=_np.int64)
                rank[offset : offset + m] = name_rank[name]
                eid[offset : offset + m] = e
                offset += m
            order = _np.lexsort((rank, pos, ts))
            eseq = eid[order]
            pseq = pos[order]
            # Each run covers consecutive positions of one shard.
            change = _np.flatnonzero(eseq[1:] != eseq[:-1]) + 1
            starts = _np.concatenate(([0], change))
            ends = _np.concatenate((change, [total]))
            return (
                eseq[starts].tolist(),
                pseq[starts].tolist(),
                (pseq[ends - 1] + 1).tolist(),
            )

        keys = sorted(
            (t, i, name_rank[name], e)
            for e, name in enumerate(self.names)
            for i, t in enumerate(self.shards[name].column("t"))
        )
        run_edge: List[int] = []
        run_start: List[int] = []
        run_stop: List[int] = []
        for _t, i, _r, e in keys:
            if run_edge and run_edge[-1] == e:
                run_stop[-1] = i + 1
            else:
                run_edge.append(e)
                run_start.append(i)
                run_stop.append(i + 1)
        return (run_edge, run_start, run_stop)

    def merged(self) -> Iterator[Tuple[str, Request]]:
        """Yield ``(edge name, Request)`` in merged replay order.

        The object-compatible view of the precomputed plan — used by
        equivalence tests and debugging, not by the hot path.
        """
        run_edge, run_start, run_stop = self.merge_runs()
        for e, start, stop in zip(run_edge, run_start, run_stop):
            name = self.names[e]
            shard = self.shards[name]
            for i in range(start, stop):
                yield name, shard[i]

    # -- shared memory -------------------------------------------------------

    def to_shared(self) -> "SharedFleetHandle":
        """Export every shard to shared memory; returns a picklable handle.

        The caller owns the segments and must
        :meth:`SharedFleetHandle.unlink` them.  Empty shards (which
        ``SharedMemory`` cannot hold) are carried as metadata and
        reconstructed empty on attach.  The merge plan is *not*
        shipped; an attached fleet computes it on demand.
        """
        edges: List[Tuple[str, Optional[SharedTraceHandle], int, int]] = []
        try:
            for name, shard in self.shards.items():
                handle = shard.to_shared() if len(shard) else None
                edges.append((name, handle, shard.chunk_bytes, len(shard)))
        except BaseException:
            for _name, handle, _k, _m in edges:
                if handle is not None:
                    handle.unlink()
            raise
        return SharedFleetHandle(tuple(edges))

    def close(self) -> None:
        """Release attached shard mappings (no-op for local traces)."""
        for shard in self.shards.values():
            shard.close()


class SharedFleetHandle:
    """Picklable reference to a :class:`FleetTrace` in shared memory.

    One :class:`SharedTraceHandle` per non-empty shard; pickles to a few
    dozen bytes per edge regardless of trace length.
    """

    __slots__ = ("edges",)

    def __init__(
        self,
        edges: Tuple[Tuple[str, Optional[SharedTraceHandle], int, int], ...],
    ) -> None:
        self.edges = edges

    def __getstate__(self):
        return self.edges

    def __setstate__(self, state) -> None:
        self.edges = state

    def __len__(self) -> int:
        return sum(length for _name, _handle, _k, length in self.edges)

    def __repr__(self) -> str:
        return (
            f"SharedFleetHandle({len(self.edges)} edges, "
            f"{len(self)} requests)"
        )

    def attach(self) -> FleetTrace:
        """Map every shard segment and view them as a :class:`FleetTrace`.

        Shards were validated before export, so the attached fleet
        skips re-validation.  Call :meth:`FleetTrace.close` when done.
        """
        shards: Dict[str, PackedTrace] = {}
        for name, handle, chunk_bytes, _length in self.edges:
            if handle is None:
                shards[name] = _empty_trace(chunk_bytes)
            else:
                shards[name] = handle.attach()
        return FleetTrace(shards, validate=False)

    def close(self) -> None:
        """Release creator-side mappings without destroying the segments."""
        for _name, handle, _k, _m in self.edges:
            if handle is not None:
                handle.close()

    def unlink(self) -> None:
        """Destroy every shard segment (idempotent, parent-side)."""
        for _name, handle, _k, _m in self.edges:
            if handle is not None:
                handle.unlink()


def _empty_trace(chunk_bytes: int) -> PackedTrace:
    cols = {
        name: _make_column(typecode, [])
        for name, typecode in (
            ("t", "d"),
            ("video", "q"),
            ("b0", "q"),
            ("b1", "q"),
            ("c0", "q"),
            ("c1", "q"),
            ("num_bytes", "q"),
            ("num_chunks", "q"),
        )
    }
    return PackedTrace(chunk_bytes, cols, 0)


def _check_time_order(name: str, shard: PackedTrace) -> None:
    """Raise the simulator's edge-and-index error on disorder."""
    n = len(shard)
    if n < 2:
        return
    col = shard.column("t")
    if _np is not None and isinstance(col, _np.ndarray):
        bad = _np.flatnonzero(col[1:] < col[:-1])
        if bad.size:
            i = int(bad[0]) + 1
            raise ValueError(
                f"trace for edge {name!r} not time-ordered at "
                f"index {i}: t={col[i]} after t={col[i - 1]}"
            )
        return
    prev = col[0]
    for i in range(1, n):
        t = col[i]
        if t < prev:
            raise ValueError(
                f"trace for edge {name!r} not time-ordered at "
                f"index {i}: t={t} after t={prev}"
            )
        prev = t
