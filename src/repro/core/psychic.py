"""Psychic Cache: the offline greedy estimator of Section 8.

Psychic knows the future request sequence but tracks nothing about the
past.  For every chunk ``x`` it keeps the (bounded) list ``L_x`` of the
timestamps of its next ``N`` future requests (the paper finds ``N = 10``
sufficient) and decides serve-vs-redirect with the Cafe-style expected
costs, computing the future value of a chunk directly from its future
requests (Eqs. 13–14)::

    value(x) = sum_{t in L_x} T / (t - t_now)

"a fast computable combination of how far in the future and how
frequent the chunk is requested".  Eviction victims are the cached
chunks requested farthest in the future (never-again chunks first),
Belady-style.  The horizon ``T`` is the cache age, which — having no
past to derive it from — is "tracked separately as the average time
that the evicted chunks have stayed in the cache".

Its efficiency serves as the practical upper bound ("maximum expected
efficiency") against which the online caches are judged in Section 9.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Dict, Optional, Sequence

from repro.core.base import CacheResponse, Decision, VideoCache
from repro.core.costs import CostModel
from repro.structures.scoreheap import ScoreHeap
from repro.trace.requests import DEFAULT_CHUNK_BYTES, ChunkId, Request

__all__ = ["PsychicCache"]

_INF = float("inf")

#: Lookahead bound from the paper: "N = 10 has proven sufficient in our
#: experiments — no gain with higher values".
DEFAULT_LOOKAHEAD = 10

#: Gap clamp for same-timestamp future requests, so 1/(t - t_now) stays
#: finite: an immediate re-request is simply extremely valuable.
_MIN_GAP = 1e-9


class PsychicCache(VideoCache):
    """Offline greedy cache aware of future requests (§8)."""

    name = "Psychic"
    offline = True

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        lookahead: int = DEFAULT_LOOKAHEAD,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {lookahead}")
        self.lookahead = lookahead
        #: chunk -> timestamps of its not-yet-replayed requests
        self._future: Dict[ChunkId, Deque[float]] = {}
        #: cached chunks keyed by -(next request time): never-requested-
        #: again chunks (key -inf) are evicted first, then farthest-next.
        self._cached: ScoreHeap[ChunkId] = ScoreHeap()
        self._admit_time: Dict[ChunkId, float] = {}
        self._prepared: Optional[Sequence[Request]] = None
        self._cursor = 0
        self._t0 = 0.0
        self._evictions = 0
        self._residence_sum = 0.0

    # -- VideoCache interface ------------------------------------------------

    def prepare(self, requests: Sequence[Request]) -> None:
        """Index the full request sequence (must precede any handle())."""
        self._future.clear()
        for r in requests:
            for chunk in r.chunk_ids(self.chunk_bytes):
                self._future.setdefault(chunk, deque()).append(r.t)
        self._prepared = requests
        self._cursor = 0
        self._t0 = requests[0].t if requests else 0.0

    def handle(self, request: Request) -> CacheResponse:
        if self._prepared is None:
            raise RuntimeError("PsychicCache.handle() before prepare()")
        if (
            self._cursor >= len(self._prepared)
            or self._prepared[self._cursor] != request
        ):
            raise RuntimeError(
                "requests must be replayed to PsychicCache in exactly the "
                "order given to prepare()"
            )
        self._cursor += 1

        now = request.t
        chunks = list(request.chunk_ids(self.chunk_bytes))

        # Consume this occurrence of every requested chunk, and re-key
        # cached ones by their *new* next request time.
        for chunk in chunks:
            queue = self._future.get(chunk)
            if queue:
                queue.popleft()
            if chunk in self._cached:
                self._cached.insert(chunk, self._eviction_key(chunk))

        if len(chunks) > self.disk_chunks:
            return CacheResponse(Decision.REDIRECT)

        missing = [c for c in chunks if c not in self._cached]
        if not missing:
            return CacheResponse(Decision.SERVE)

        horizon = self.cache_age(now)
        future_unit = self.cost_model.future_cost
        free = self.disk_chunks - len(self._cached)
        n_evict = max(0, len(missing) - free)
        victims = self._cached.n_smallest(n_evict, exclude=set(chunks))

        cost_serve = len(missing) * self.cost_model.fill_cost
        for chunk, _key in victims:
            cost_serve += self._future_value(chunk, now, horizon) * future_unit

        cost_redirect = len(chunks) * self.cost_model.redirect_cost
        for chunk in missing:
            cost_redirect += self._future_value(chunk, now, horizon) * future_unit

        if cost_serve > cost_redirect:
            return CacheResponse(Decision.REDIRECT)

        for chunk, _key in victims:
            self._cached.remove(chunk)
            self._record_eviction(chunk, now)
        for chunk in missing:
            self._cached.insert(chunk, self._eviction_key(chunk))
            self._admit_time[chunk] = now
        return CacheResponse(
            Decision.SERVE, filled_chunks=len(missing), evicted_chunks=len(victims)
        )

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)

    # -- Psychic specifics ----------------------------------------------------

    def cache_age(self, now: float) -> float:
        """Average residence time of evicted chunks (Section 8).

        Before the first eviction there is no sample; the time elapsed
        since the trace start is the natural stand-in (every cached
        chunk has resided at most that long).
        """
        if self._evictions == 0:
            return max(now - self._t0, _MIN_GAP)
        return self._residence_sum / self._evictions

    def future_times(self, chunk: ChunkId) -> list[float]:
        """The bounded future-request list ``L_x`` (next N timestamps)."""
        queue = self._future.get(chunk)
        if not queue:
            return []
        return list(islice(queue, self.lookahead))

    def _future_value(self, chunk: ChunkId, now: float, horizon: float) -> float:
        """Eqs. 13–14 inner sum: ``sum_{t in L_x} T / (t - now)``."""
        queue = self._future.get(chunk)
        if not queue:
            return 0.0
        total = 0.0
        for t in islice(queue, self.lookahead):
            total += horizon / max(t - now, _MIN_GAP)
        return total

    def _eviction_key(self, chunk: ChunkId) -> float:
        """Ascending-order key: farthest next request evicts first."""
        queue = self._future.get(chunk)
        next_t = queue[0] if queue else _INF
        return -next_t

    def _record_eviction(self, chunk: ChunkId, now: float) -> None:
        admitted = self._admit_time.pop(chunk, None)
        if admitted is None:
            return
        self._evictions += 1
        self._residence_sum += now - admitted
