"""Related-work LRU variants (Section 3's comparators).

The paper positions its algorithms against the classic replacement
literature: "Variants of LRU, such as the Greedy Dual Size (GDS) [7]
and GDS-Popularity [13] algorithms ... Other LRU variants try to
incorporate access frequency information such as the LRU-K [17] and
LNC-W3 [24] algorithms."  These implementations adapt the two most
cited of those to the video-CDN setting so the §3 argument — that
classic replacement policies don't address the serve-vs-redirect
decision — can be measured instead of assumed:

* :class:`LruKCache` — LRU-K [O'Neil et al., SIGMOD'93]: track the
  K-th most recent access time per video; a video with fewer than K
  accesses is "unproven" and gets redirected (a generalization of
  xLRU's LRU-2-flavoured admission); chunk replacement evicts the
  chunk whose video has the oldest K-th access.
* ``GDS`` — Greedy-Dual-Size [Cao & Irani, USITS'97], which runs as
  :class:`~repro.core.policy.gds.GdsPolicy` on the policy-kernel
  engine.

LRU-K always serves once admission passes: it has no
cost-model-driven redirect decision, so it cannot comply with
``alpha_F2R`` (it accepts a cost model only for accounting parity).
It stays hand-written: it re-keys a video's chunks in the iteration
order of a per-video ``set``, that order breaks ties among them, and a
set rebuilt from a snapshot does not reproduce it, so a policy port
would not continue a snapshot exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.core.base import (
    REDIRECT,
    SERVE_HIT,
    CacheResponse,
    VideoCache,
    serve_response,
)
from repro.core.costs import CostModel
from repro.structures.scoreheap import ScoreHeap
from repro.trace.requests import DEFAULT_CHUNK_BYTES, ChunkId, Request

__all__ = ["LruKCache"]

_INF = float("inf")


class LruKCache(VideoCache):
    """LRU-K admission and replacement at video granularity (§3, [17])."""

    name = "LRU-K"
    cost_sensitive = False  # admission/eviction use access recency only

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        k: int = 2,
        history_factor: float = 4.0,
    ) -> None:
        """``k``: accesses required before a video is cacheable (k=2
        mirrors xLRU's "first request is always redirected").
        ``history_factor`` bounds the per-video access-history table to
        ``history_factor * disk_chunks`` videos, recycled LRU-wise.
        """
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if history_factor <= 0:
            raise ValueError(f"history_factor must be positive, got {history_factor}")
        self.k = k
        #: video -> its last K access times (most recent last)
        self._history: Dict[int, Deque[float]] = {}
        self._max_history = max(1, int(history_factor * disk_chunks))
        #: cached chunks scored by their video's K-th-most-recent access
        self._cached: ScoreHeap[ChunkId] = ScoreHeap()
        self._video_chunks: Dict[int, set] = {}

    # -- VideoCache interface ------------------------------------------------

    def handle(self, request: Request) -> CacheResponse:
        k = self.chunk_bytes
        return self.handle_span(
            request.t,
            request.video,
            request.b0,
            request.b1,
            request.b0 // k,
            request.b1 // k,
        )

    def handle_span(
        self, t: float, video: int, b0: int, b1: int, c0: int, c1: int
    ) -> CacheResponse:
        history = self._history.get(video)
        if history is None:
            # Record this access *before* trimming: an empty history
            # keys as -inf, so trimming first would evict the video
            # being recorded whenever the table is full — new videos
            # could then never accumulate the K accesses admission
            # requires.  With the access recorded the video keys as the
            # most recent and a genuinely stale entry is dropped
            # instead.  (Re-fetch afterwards: when every other tracked
            # video has cached chunks, this video is still the only
            # trimmable entry and may legitimately be gone.)
            history = deque(maxlen=self.k)
            self._history[video] = history
            history.append(t)
            self._trim_history()
            history = self._history.get(video)
        else:
            history.append(t)

        cached = self._cached
        score = self._kth_access(video)
        # re-key this video's cached chunks under its new K-distance
        for chunk_number in self._video_chunks.get(video, ()):
            cached.insert((video, chunk_number), score)

        if c1 - c0 + 1 > self.disk_chunks:
            return REDIRECT
        if history is None or len(history) < self.k:
            # "unproven" video: below K recorded accesses (or trimmed
            # right back out of a table crowded with cached videos)
            return REDIRECT

        missing = [
            (video, c) for c in range(c0, c1 + 1) if (video, c) not in cached
        ]
        if not missing:
            return SERVE_HIT

        evicted = 0
        need = len(missing) - (self.disk_chunks - len(cached))
        if need > 0:
            exclude = {(video, c) for c in range(c0, c1 + 1)}
            video_chunks = self._video_chunks
            for (v, c), _score in cached.pop_n_smallest(need, exclude=exclude):
                siblings = video_chunks.get(v)
                if siblings is not None:
                    siblings.discard(c)
                    if not siblings:
                        del video_chunks[v]
                evicted += 1
        siblings = self._video_chunks.setdefault(video, set())
        for chunk in missing:
            cached.insert(chunk, score)
            siblings.add(chunk[1])
        return serve_response(len(missing), evicted)

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)

    # -- internals -----------------------------------------------------------

    def _kth_access(self, video: int) -> float:
        """The K-th most recent access time (the LRU-K ordering key);
        ``-inf`` while the video has fewer than K accesses."""
        history = self._history.get(video)
        if history is None or len(history) < self.k:
            return -_INF
        return history[0]

    def _trim_history(self) -> None:
        """Bound the history table, dropping the stalest videos first."""
        while len(self._history) > self._max_history:
            victim = min(
                self._history,
                key=lambda v: self._history[v][-1] if self._history[v] else -_INF,
            )
            if victim in self._video_chunks:
                # never orphan a cached video's history; drop the next
                # stalest uncached one instead, if any exists
                uncached = [
                    v for v in self._history if v not in self._video_chunks
                ]
                if not uncached:
                    break
                victim = min(uncached, key=lambda v: self._history[v][-1])
            del self._history[victim]
