"""Reference oracles: slow, transparent re-derivations of each algorithm.

Each oracle restates its algorithm directly from the paper's equations
with the simplest possible state — plain dicts and linear min-scans —
and none of the production data structures (no
:class:`~repro.structures.scoreheap.ScoreHeap`, no
:class:`~repro.structures.lru.AccessRecencyList`, no precomputed Eq. 9
virtual keys).  The differential harness replays fast implementation
and oracle side by side and requires their decision/fill/evict streams
to agree exactly, so the oracles pin down the *full* observable
semantics, including the parts that are easy to get subtly wrong:

* **eviction order ties** — the production ordered structures break
  score ties by insertion sequence (the ``(score, seq)`` composite key
  of ``ScoreHeap``); that tie-break is part of the replayable spec, so
  every oracle carries the same monotone insertion counter and orders
  candidates by ``(popularity, insertion sequence)`` with a plain sort;
* **popularity order without virtual keys** — Cafe's production code
  orders chunks by the Eq. 9 virtual timestamp so stale keys stay
  comparable (Theorem 1); the oracle instead evaluates Eq. 8 IATs
  directly at the current time and orders by "largest IAT = least
  popular", which Theorem 1 proves equivalent.  A divergence between
  the two orderings is exactly the kind of bug this module exists to
  catch;
* **history cleanup** — tracker cleanup (xLRU), frequency aging (LFU),
  history trimming (LRU-K) and ghost collection (Cafe) all affect
  admission decisions and are mirrored operation for operation.

Oracles are real :class:`~repro.core.base.VideoCache` instances, so
they run under the ordinary replay engine and metrics collectors.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.core.base import REDIRECT, SERVE_HIT, CacheResponse, Decision, VideoCache
from repro.core.costs import CostModel
from repro.core.policy import oracle_factories as _policy_oracle_factories
from repro.trace.requests import DEFAULT_CHUNK_BYTES, ChunkId, Request

__all__ = [
    "OraclePullLru",
    "OracleXlru",
    "OracleLfu",
    "OracleLruK",
    "OracleGds",
    "OracleCafe",
    "ORACLE_FACTORIES",
    "build_oracle",
]

_INF = float("inf")


def _oldest(store: Dict, seq_index: int = 1):
    """Linear min-scan for the entry with the smallest sequence number.

    ``store`` maps items to tuples whose ``seq_index`` element is the
    monotone insertion counter; the smallest counter is the least
    recently (re-)inserted item — the LRU end.
    """
    return min(store, key=lambda item: store[item][seq_index])


def _n_least(
    scored: List[Tuple[Tuple, ChunkId]], n: int, exclude: Set[ChunkId]
) -> List[ChunkId]:
    """The ``n`` least-popular chunks by ascending ``(score, seq)``,
    skipping ``exclude`` — a transparent sort-and-take."""
    if n <= 0:
        return []
    out = []
    for _key, chunk in sorted(scored):
        if chunk in exclude:
            continue
        out.append(chunk)
        if len(out) == n:
            break
    return out


class OraclePullLru(VideoCache):
    """Reference fetch-on-miss LRU: serve everything, evict least recent."""

    name = "oracle:PullLRU"
    cost_sensitive = False

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        #: chunk -> recency sequence number (larger = more recent)
        self._disk: Dict[ChunkId, int] = {}
        self._seq = 0

    def _touch(self, chunk: ChunkId) -> None:
        self._seq += 1
        self._disk[chunk] = self._seq

    def handle(self, request: Request) -> CacheResponse:
        chunks = list(request.chunk_ids(self.chunk_bytes))
        if len(chunks) > self.disk_chunks:
            return REDIRECT
        missing = []
        for chunk in chunks:
            if chunk in self._disk:
                self._touch(chunk)
            else:
                missing.append(chunk)
        evicted = 0
        free = self.disk_chunks - len(self._disk)
        for _ in range(len(missing) - free):
            del self._disk[min(self._disk, key=self._disk.get)]
            evicted += 1
        for chunk in missing:
            self._touch(chunk)
        if not missing:
            return SERVE_HIT
        return CacheResponse(
            Decision.SERVE, filled_chunks=len(missing), evicted_chunks=evicted
        )

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._disk

    def __len__(self) -> int:
        return len(self._disk)


class OracleXlru(VideoCache):
    """Reference xLRU (Section 5, Eq. 5).

    Admission: redirect a video's request iff it was never seen before
    or ``(t_now - t_last) * alpha_F2R > CacheAge()``; a non-full disk
    has unbounded cache age (warm-up).  Replacement: plain LRU over
    chunks.  The tracker is periodically cleaned with the same cutoff
    and cadence as the production implementation, because cleanup is
    observable (an entry dropped early changes a later admission when
    ``alpha < 1``, where the admission window widens over time).
    """

    name = "oracle:xLRU"

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        tracker_cleanup_interval: int = 1024,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        #: video -> last access time, in access order (dict order = time order)
        self._tracker: Dict[int, float] = {}
        #: chunk -> (last access time, recency sequence number)
        self._disk: Dict[ChunkId, Tuple[float, int]] = {}
        self._seq = 0
        self._cleanup_interval = tracker_cleanup_interval
        self._since_cleanup = 0

    def cache_age(self, now: float) -> float:
        if len(self._disk) < self.disk_chunks:
            return _INF
        if not self._disk:
            return _INF
        t_oldest, _seq = self._disk[_oldest(self._disk)]
        return now - t_oldest

    def handle(self, request: Request) -> CacheResponse:
        now = request.t
        last = self._tracker.get(request.video)
        # touch: move the video to the most recent end
        self._tracker.pop(request.video, None)
        self._tracker[request.video] = now
        self._cleanup(now)

        if last is None:
            return REDIRECT
        if (now - last) * self.cost_model.alpha_f2r > self.cache_age(now):
            return REDIRECT

        chunks = list(request.chunk_ids(self.chunk_bytes))
        if len(chunks) > self.disk_chunks:
            return REDIRECT

        missing = []
        for chunk in chunks:
            if chunk in self._disk:
                self._seq += 1
                self._disk[chunk] = (now, self._seq)
            else:
                missing.append(chunk)
        evicted = 0
        free = self.disk_chunks - len(self._disk)
        for _ in range(len(missing) - free):
            del self._disk[_oldest(self._disk)]
            evicted += 1
        for chunk in missing:
            self._seq += 1
            self._disk[chunk] = (now, self._seq)
        return CacheResponse(
            Decision.SERVE, filled_chunks=len(missing), evicted_chunks=evicted
        )

    def _cleanup(self, now: float) -> None:
        self._since_cleanup += 1
        if self._since_cleanup < self._cleanup_interval:
            return
        self._since_cleanup = 0
        age = self.cache_age(now)
        if age == _INF:
            return
        cutoff = now - age / self.cost_model.alpha_f2r
        # drop oldest-first while strictly below the cutoff
        for video in list(self._tracker):
            if self._tracker[video] >= cutoff:
                break
            del self._tracker[video]

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._disk

    def __len__(self) -> int:
        return len(self._disk)


class OracleLfu(VideoCache):
    """Reference LFU with hit-count admission and periodic aging.

    Replacement evicts the minimum ``(frequency, insertion sequence)``
    chunk; aging halves every frequency (and re-sequences every cached
    chunk, in admission order) every ``aging_interval`` requests.
    """

    name = "oracle:LFU"
    cost_sensitive = False

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        min_video_hits: int = 2,
        aging_interval: int = 10_000,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        self.min_video_hits = min_video_hits
        self.aging_interval = aging_interval
        self._video_hits: Dict[int, int] = {}
        #: chunk -> frequency, in admission order (mirrors the production
        #: ``_freq`` dict, whose iteration order the aging pass uses)
        self._freq: Dict[ChunkId, float] = {}
        #: chunk -> (frequency at last re-insert, insertion sequence)
        self._cached: Dict[ChunkId, Tuple[float, int]] = {}
        self._seq = 0
        self._handled = 0

    def _insert(self, chunk: ChunkId, score: float) -> None:
        self._seq += 1
        self._cached[chunk] = (score, self._seq)

    def handle(self, request: Request) -> CacheResponse:
        self._handled += 1
        if self._handled % self.aging_interval == 0:
            self._age()
        self._video_hits[request.video] = self._video_hits.get(request.video, 0) + 1
        chunks = list(request.chunk_ids(self.chunk_bytes))
        for chunk in chunks:
            if chunk in self._cached:
                self._freq[chunk] = self._freq.get(chunk, 0.0) + 1.0
                self._insert(chunk, self._freq[chunk])

        if len(chunks) > self.disk_chunks:
            return REDIRECT
        if self._video_hits[request.video] < self.min_video_hits:
            return REDIRECT

        missing = [c for c in chunks if c not in self._cached]
        if not missing:
            return SERVE_HIT
        evicted = 0
        need = len(missing) - (self.disk_chunks - len(self._cached))
        if need > 0:
            scored = [(key, chunk) for chunk, key in self._cached.items()]
            for chunk in _n_least(scored, need, set(chunks)):
                del self._cached[chunk]
                self._freq.pop(chunk, None)
                evicted += 1
        for chunk in missing:
            self._freq[chunk] = self._freq.get(chunk, 0.0) + 1.0
            self._insert(chunk, self._freq[chunk])
        return CacheResponse(
            Decision.SERVE, filled_chunks=len(missing), evicted_chunks=evicted
        )

    def _age(self) -> None:
        for chunk in list(self._freq):
            self._freq[chunk] /= 2.0
            if chunk in self._cached:
                self._insert(chunk, self._freq[chunk])
        for video in list(self._video_hits):
            self._video_hits[video] //= 2
            if self._video_hits[video] == 0:
                del self._video_hits[video]

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)


class OracleLruK(VideoCache):
    """Reference LRU-K: K-th most recent access per video (§3, [17]).

    A video below K recorded accesses is redirected; chunk replacement
    evicts the chunk whose video has the oldest K-th access.  The
    bounded history table drops the video with the stalest last access,
    never one that still has cached chunks, and never the video whose
    access is being recorded.
    """

    name = "oracle:LRU-K"
    cost_sensitive = False

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        k: int = 2,
        history_factor: float = 4.0,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        self.k = k
        self._history: Dict[int, List[float]] = {}
        self._max_history = max(1, int(history_factor * disk_chunks))
        self._cached: Dict[ChunkId, Tuple[float, int]] = {}
        self._seq = 0
        self._video_chunks: Dict[int, Set[int]] = {}

    def _insert(self, chunk: ChunkId, score: float) -> None:
        self._seq += 1
        self._cached[chunk] = (score, self._seq)

    def handle(self, request: Request) -> CacheResponse:
        now = request.t
        history = self._history.get(request.video)
        created = history is None
        if created:
            history = []
            self._history[request.video] = history
        history.append(now)
        if len(history) > self.k:
            del history[0]
        if created:
            self._trim_history()

        chunks = list(request.chunk_ids(self.chunk_bytes))
        score = self._kth_access(request.video)
        for chunk_number in self._video_chunks.get(request.video, ()):
            self._insert((request.video, chunk_number), score)

        if len(chunks) > self.disk_chunks:
            return REDIRECT
        history = self._history.get(request.video)
        if history is None or len(history) < self.k:
            return REDIRECT

        missing = [c for c in chunks if c not in self._cached]
        if not missing:
            return SERVE_HIT

        evicted = 0
        need = len(missing) - (self.disk_chunks - len(self._cached))
        if need > 0:
            scored = [(key, chunk) for chunk, key in self._cached.items()]
            for chunk in _n_least(scored, need, set(chunks)):
                del self._cached[chunk]
                siblings = self._video_chunks.get(chunk[0])
                if siblings is not None:
                    siblings.discard(chunk[1])
                    if not siblings:
                        del self._video_chunks[chunk[0]]
                evicted += 1
        for chunk in missing:
            self._insert(chunk, score)
            self._video_chunks.setdefault(chunk[0], set()).add(chunk[1])
        return CacheResponse(
            Decision.SERVE, filled_chunks=len(missing), evicted_chunks=evicted
        )

    def _kth_access(self, video: int) -> float:
        history = self._history.get(video)
        if history is None or len(history) < self.k:
            return -_INF
        return history[0]

    def _trim_history(self) -> None:
        while len(self._history) > self._max_history:
            victim = min(
                self._history,
                key=lambda v: self._history[v][-1] if self._history[v] else -_INF,
            )
            if victim in self._video_chunks:
                uncached = [v for v in self._history if v not in self._video_chunks]
                if not uncached:
                    break
                victim = min(uncached, key=lambda v: self._history[v][-1])
            del self._history[victim]

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)


class OracleGds(VideoCache):
    """Reference Greedy-Dual-Size on fixed-size chunks (§3, [7]).

    Credit on (re)access is ``H = L + C_F``; eviction takes the minimum
    ``(H, insertion sequence)`` chunk and raises the inflation ``L``.
    """

    name = "oracle:GDS"

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        self._cached: Dict[ChunkId, Tuple[float, int]] = {}
        self._seq = 0
        self._inflation = 0.0

    def _insert(self, chunk: ChunkId, score: float) -> None:
        self._seq += 1
        self._cached[chunk] = (score, self._seq)

    def handle(self, request: Request) -> CacheResponse:
        chunks = list(request.chunk_ids(self.chunk_bytes))
        if len(chunks) > self.disk_chunks:
            return REDIRECT

        credit = self._inflation + self.cost_model.fill_cost
        missing = []
        for chunk in chunks:
            if chunk in self._cached:
                self._insert(chunk, credit)
            else:
                missing.append(chunk)
        if not missing:
            return SERVE_HIT

        evicted = 0
        need = len(missing) - (self.disk_chunks - len(self._cached))
        if need > 0:
            scored = [(key, chunk) for chunk, key in self._cached.items()]
            for chunk in _n_least(scored, need, set(chunks)):
                h_value = self._cached[chunk][0]
                del self._cached[chunk]
                self._inflation = max(self._inflation, h_value)
                evicted += 1
            credit = self._inflation + self.cost_model.fill_cost
        for chunk in missing:
            self._insert(chunk, credit)
        return CacheResponse(
            Decision.SERVE, filled_chunks=len(missing), evicted_chunks=evicted
        )

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)


class OracleCafe(VideoCache):
    """Reference Cafe Cache straight from Eqs. 6–9 (Section 6).

    Per-chunk popularity is the raw EWMA pair ``(dt, t_last)``; the
    Eq. 8 IAT is evaluated at the current time wherever a popularity is
    needed — there are no precomputed Eq. 9 virtual keys and no ordered
    structure.  "Least popular" is "largest current IAT" (Theorem 1's
    semantic order), ties broken by insertion sequence like the
    production heap.  For request ``R`` with chunk set ``S``, missing
    subset ``S'`` and eviction candidates ``S''`` (the ``|S'|`` least
    popular cached chunks outside ``S``), the decision compares::

        E[serve]    = |S'| * C_F + sum_{x in S''} T / IAT_x * min(C_F, C_R)
        E[redirect] = |S|  * C_R + sum_{x in S'}  T / IAT_x * min(C_F, C_R)

    serving on ties, with ``T`` the cache age (the IAT of the least
    popular cached chunk; unbounded during warm-up).  Ghost history for
    uncached chunks is retained up to ``ghost_factor * disk_chunks``
    records and recycled least-recently-seen-first.
    """

    name = "oracle:Cafe"

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        gamma: float = 0.25,
        horizon: Optional[float] = None,
        ghost_factor: float = 4.0,
        use_video_iat_estimate: bool = True,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        self.gamma = gamma
        #: chunk -> [dt, t_last] EWMA state (Section 6); dt=inf means
        #: "seen once, no inter-arrival sample yet"
        self._stats: Dict[ChunkId, List[float]] = {}
        #: cached chunk -> insertion sequence (tie-break order)
        self._cached: Dict[ChunkId, int] = {}
        #: ghost chunk -> recency sequence (least recently seen = min)
        self._ghosts: Dict[ChunkId, int] = {}
        self._video_chunks: Dict[int, Set[int]] = {}
        self._seq = 0
        self._ghost_seq = 0
        self._horizon = horizon
        self._max_ghosts = int(ghost_factor * disk_chunks)
        self._use_video_estimate = use_video_iat_estimate

    # -- Eq. 8 popularity ------------------------------------------------

    def _record(self, chunk: ChunkId, now: float) -> None:
        state = self._stats.get(chunk)
        if state is None:
            self._stats[chunk] = [_INF, now]
            return
        sample = now - state[1]
        if math.isinf(state[0]):
            state[0] = sample
        else:
            state[0] = self.gamma * sample + (1.0 - self.gamma) * state[0]
        state[1] = now

    def _iat(self, chunk: ChunkId, now: float) -> float:
        state = self._stats.get(chunk)
        if state is None or math.isinf(state[0]):
            return _INF
        return self.gamma * (now - state[1]) + (1.0 - self.gamma) * state[0]

    def _popularity_order(self, now: float) -> List[Tuple[Tuple[float, int], ChunkId]]:
        """Cached chunks keyed for an ascending "evict first" sort:
        ``(-IAT, seq)`` — largest IAT (least popular) first, insertion
        order among equals."""
        return [
            ((-self._iat(chunk, now), seq), chunk)
            for chunk, seq in self._cached.items()
        ]

    def cache_age(self, now: float) -> float:
        """The IAT of the least popular cached chunk; inf in warm-up."""
        if len(self._cached) < self.disk_chunks:
            return _INF
        order = self._popularity_order(now)
        (_neg_iat, _seq), chunk = min(order)
        return self._iat(chunk, now)

    # -- VideoCache interface ----------------------------------------------

    def handle(self, request: Request) -> CacheResponse:
        now = request.t
        chunks = list(request.chunk_ids(self.chunk_bytes))

        # Track popularity regardless of the decision; refresh the
        # insertion sequence of cached chunks (the production heap
        # re-inserts them) and the recency of ghost chunks.
        for chunk in chunks:
            self._record(chunk, now)
            if chunk in self._cached:
                self._seq += 1
                self._cached[chunk] = self._seq
            elif chunk in self._ghosts:
                self._ghost_seq += 1
                self._ghosts[chunk] = self._ghost_seq

        if len(chunks) > self.disk_chunks:
            self._note_ghosts(chunks)
            return REDIRECT

        missing = [c for c in chunks if c not in self._cached]
        if not missing:
            return SERVE_HIT

        horizon = self._horizon if self._horizon is not None else self.cache_age(now)
        future_unit = self.cost_model.future_cost

        free = self.disk_chunks - len(self._cached)
        n_evict = max(0, len(missing) - free)
        victims = _n_least(self._popularity_order(now), n_evict, set(chunks))

        cost_serve = len(missing) * self.cost_model.fill_cost
        for chunk in victims:
            cost_serve += _future_term(self._iat(chunk, now), horizon) * future_unit

        cost_redirect = len(chunks) * self.cost_model.redirect_cost
        for chunk in missing:
            cost_redirect += (
                _future_term(self._estimate_iat(chunk, now), horizon) * future_unit
            )

        if cost_serve > cost_redirect:
            self._note_ghosts(chunks)
            return REDIRECT

        for chunk in victims:
            self._evict(chunk)
        for chunk in missing:
            self._admit(chunk, now)
        self._collect_ghosts()
        return CacheResponse(
            Decision.SERVE, filled_chunks=len(missing), evicted_chunks=len(victims)
        )

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)

    # -- internals -----------------------------------------------------------

    def _estimate_iat(self, chunk: ChunkId, now: float) -> float:
        """IAT of a missing chunk: its own history, else "the largest
        recorded IAT among the existing chunks" of its video."""
        own = self._iat(chunk, now)
        if not math.isinf(own):
            return own
        if not self._use_video_estimate:
            return _INF
        siblings = self._video_chunks.get(chunk[0])
        if not siblings:
            return _INF
        return max(self._iat((chunk[0], c), now) for c in siblings)

    def _admit(self, chunk: ChunkId, now: float) -> None:
        state = self._stats[chunk]
        if math.isinf(state[0]):
            # First fill with no IAT sample: seed with the estimate the
            # admission decision used, falling back to the cache age.
            seed = self._estimate_iat(chunk, now)
            if math.isinf(seed):
                seed = self.cache_age(now)
            if math.isinf(seed):
                seed = 1.0
            state[0] = seed
        self._seq += 1
        self._cached[chunk] = self._seq
        self._ghosts.pop(chunk, None)
        self._video_chunks.setdefault(chunk[0], set()).add(chunk[1])

    def _evict(self, chunk: ChunkId) -> None:
        del self._cached[chunk]
        siblings = self._video_chunks.get(chunk[0])
        if siblings is not None:
            siblings.discard(chunk[1])
            if not siblings:
                del self._video_chunks[chunk[0]]
        if self._max_ghosts > 0:
            self._ghost_seq += 1
            self._ghosts[chunk] = self._ghost_seq
        else:
            del self._stats[chunk]

    def _note_ghosts(self, chunks: List[ChunkId]) -> None:
        if self._max_ghosts <= 0:
            for chunk in chunks:
                if chunk not in self._cached:
                    self._stats.pop(chunk, None)
            return
        for chunk in chunks:
            if chunk not in self._cached and chunk not in self._ghosts:
                self._ghost_seq += 1
                self._ghosts[chunk] = self._ghost_seq
        self._collect_ghosts()

    def _collect_ghosts(self) -> None:
        while len(self._ghosts) > self._max_ghosts:
            chunk = min(self._ghosts, key=self._ghosts.get)
            del self._ghosts[chunk]
            self._stats.pop(chunk, None)


def _future_term(iat: float, horizon: float) -> float:
    """Expected future requests within the horizon: ``T / IAT``."""
    if math.isinf(iat):
        return 0.0
    if math.isinf(horizon):
        return _INF
    return horizon / max(iat, 1e-9)


#: Oracle counterpart of each *online* entry in
#: :data:`repro.sim.runner.CACHE_FACTORIES` (offline algorithms —
#: Psychic, Belady — are their own executable specifications).
ORACLE_FACTORIES = {
    "xLRU": OracleXlru,
    "Cafe": OracleCafe,
    "PullLRU": OraclePullLru,
    "LFU": OracleLfu,
    "LRU-K": OracleLruK,
    "GDS": OracleGds,
}

# Registered policy kernels bring their own oracles: an explicit
# hand-written reference (the LFU-PK port pins itself against the
# production LfuAdmissionCache) or the auto-derived OracleKernelCache —
# the same policy object replayed on plain dicts and linear min-scans.
ORACLE_FACTORIES.update(_policy_oracle_factories())


def build_oracle(
    algorithm: str,
    disk_chunks: int,
    alpha_f2r: float = 1.0,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    **kwargs,
) -> VideoCache:
    """Instantiate the oracle for ``algorithm`` with the standard knobs."""
    try:
        factory = ORACLE_FACTORIES[algorithm]
    except KeyError:
        known = ", ".join(sorted(ORACLE_FACTORIES))
        raise ValueError(
            f"no oracle for algorithm {algorithm!r}; known: {known}"
        ) from None
    return factory(
        disk_chunks,
        chunk_bytes=chunk_bytes,
        cost_model=CostModel(alpha_f2r),
        **kwargs,
    )
