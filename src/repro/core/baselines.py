"""Classic caching baselines the paper positions itself against.

Section 2 argues that "standard caching solutions" — fetch every miss
from the backend and manage replacement only — cannot address the video
CDN problem because they lack the serve-vs-redirect decision and cannot
comply with a fill-to-redirect preference.  These reference
implementations make that argument measurable:

* ``PullLRU`` — the standard Web-cache pattern: every miss is
  cache-filled, chunk replacement is LRU.  Its ingress is unbounded by
  design; at ``alpha_F2R > 1`` its efficiency collapses.
* ``LFU`` — the frequency-flavoured variant (LFU replacement with
  periodic aging, admission after a minimum number of video hits),
  representative of the LFU/LRU-K family of Section 3.
* :class:`BeladyCache` — Belady's offline optimal *replacement* [5]:
  always serve, evict the chunk requested farthest in the future.  The
  optimal answer to the classic problem, and still not competitive with
  Psychic/Optimal on the CDN problem, because the classic problem is
  the wrong problem.

PullLRU and LFU run as policies on the policy-kernel engine
(:class:`~repro.core.policy.pull_lru.PullLruPolicy`,
:class:`~repro.core.policy.lfu_port.LfuKernelPolicy`); build them by
name from :data:`repro.sim.runner.CACHE_FACTORIES`.  Only the offline
Belady lives here.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Sequence

from repro.core.base import REDIRECT, CacheResponse, Decision, VideoCache
from repro.core.costs import CostModel
from repro.structures.scoreheap import ScoreHeap
from repro.trace.requests import DEFAULT_CHUNK_BYTES, ChunkId, Request

__all__ = ["BeladyCache"]

_INF = float("inf")


class BeladyCache(VideoCache):
    """Belady's offline replacement [5]: always serve, evict farthest.

    The optimum for the *classic* caching problem (no redirect option);
    included to quantify how much the serve-vs-redirect decision itself
    is worth beyond perfect replacement.
    """

    name = "Belady"
    offline = True
    cost_sensitive = False  # always serves; evicts purely by next use

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        self._future: Dict[ChunkId, Deque[float]] = {}
        self._cached: ScoreHeap[ChunkId] = ScoreHeap()
        self._prepared: Optional[Sequence[Request]] = None
        self._cursor = 0

    def prepare(self, requests: Sequence[Request]) -> None:
        self._future.clear()
        for r in requests:
            for chunk in r.chunk_ids(self.chunk_bytes):
                self._future.setdefault(chunk, deque()).append(r.t)
        self._prepared = requests
        self._cursor = 0

    def handle(self, request: Request) -> CacheResponse:
        if self._prepared is None:
            raise RuntimeError("BeladyCache.handle() before prepare()")
        if (
            self._cursor >= len(self._prepared)
            or self._prepared[self._cursor] != request
        ):
            raise RuntimeError(
                "requests must be replayed to BeladyCache in exactly the "
                "order given to prepare()"
            )
        self._cursor += 1

        chunks = list(request.chunk_ids(self.chunk_bytes))
        for chunk in chunks:
            queue = self._future.get(chunk)
            if queue:
                queue.popleft()
            if chunk in self._cached:
                self._cached.insert(chunk, self._eviction_key(chunk))

        if len(chunks) > self.disk_chunks:
            return REDIRECT

        missing = [c for c in chunks if c not in self._cached]
        evicted = 0
        need = len(missing) - (self.disk_chunks - len(self._cached))
        if need > 0:
            evicted = len(self._cached.pop_n_smallest(need, exclude=set(chunks)))
        for chunk in missing:
            self._cached.insert(chunk, self._eviction_key(chunk))
        return CacheResponse(
            Decision.SERVE, filled_chunks=len(missing), evicted_chunks=evicted
        )

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)

    def _eviction_key(self, chunk: ChunkId) -> float:
        """Ascending key: never-requested-again first, then farthest."""
        queue = self._future.get(chunk)
        return -(queue[0] if queue else _INF)
