"""xLRU Cache: the LRU-based baseline of Section 5.

Two recency structures cooperate:

* a **video popularity tracker** mapping video IDs to their last access
  time — the admission filter: a video qualifies for serving only if it
  was seen before *and* recently enough relative to the disk's cache
  age (LRU-2-like: the first request for a video is always redirected);
* a **disk cache** of fixed-size chunks under plain LRU replacement.

The admission test generalizes to any fill-to-redirect preference
``alpha_F2R`` (Eq. 5): redirect iff ::

    (t_now - t_last) * alpha_F2R > CacheAge()

i.e. with fills twice as costly as redirects (alpha = 2), a video must
be requested with a period at most *half* the cache age to be admitted.

The warm-up case the paper's pseudocode elides ("disk not full") is
handled by treating a non-full disk as having unbounded cache age: any
previously seen video is admitted while free space remains, and nothing
is evicted until the disk is full.
"""

from __future__ import annotations

from itertools import repeat

from repro.core import kernels
from repro.core.base import REDIRECT, SERVE_HIT, CacheResponse, VideoCache, serve_response
from repro.core.costs import CostModel
from repro.structures.lru import AccessRecencyList
from repro.trace.requests import DEFAULT_CHUNK_BYTES, ChunkId, Request

__all__ = ["XlruCache"]


class XlruCache(VideoCache):
    """Video cache with LRU popularity tracking and replacement (§5)."""

    name = "xLRU"

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        tracker_cleanup_interval: int = 1024,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        self._tracker: AccessRecencyList[int] = AccessRecencyList()
        self._disk: AccessRecencyList[ChunkId] = AccessRecencyList()
        self._cleanup_interval = tracker_cleanup_interval
        self._requests_since_cleanup = 0

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
        probe = self.probe
        last = self._tracker.last_access(video)
        self._tracker.touch(video, t)
        self._maybe_cleanup_tracker(t)

        if last is None:
            if probe is not None:
                probe.on_redirect(t, "never-seen")
            return REDIRECT
        if probe is not None:
            # Eq. 5 admission margin: positive admits.  Observed before
            # the test so both outcomes land in the same distribution.
            probe.on_margin(
                self.cache_age(t) - (t - last) * self.cost_model.alpha_f2r
            )
        if (t - last) * self.cost_model.alpha_f2r > self.cache_age(t):
            if probe is not None:
                probe.on_redirect(t, "stale")
            return REDIRECT

        if c1 - c0 + 1 > self.disk_chunks:
            # The request alone exceeds the disk; it can never be fully
            # served from this cache, so redirect it.
            if probe is not None:
                probe.on_redirect(t, "oversized")
            return REDIRECT

        # Touch the chunks already present first so LRU eviction cannot
        # pick a chunk this very request needs.
        disk = self._disk
        touch = disk.touch
        missing = []
        for c in range(c0, c1 + 1):
            chunk = (video, c)
            if chunk in disk:
                touch(chunk, t)
            else:
                missing.append(chunk)
        if not missing:
            if probe is not None:
                probe.on_serve(t, 0, 0)
            return SERVE_HIT

        evicted = 0
        free = self.disk_chunks - len(disk)
        for _ in range(len(missing) - free):
            victim, victim_last = disk.pop_oldest()
            if probe is not None:
                probe.on_evict(t, victim, victim_last)
            evicted += 1
        for chunk in missing:
            touch(chunk, t)

        if probe is not None:
            for chunk in missing:
                probe.on_fill(t, chunk)
            probe.on_serve(t, len(missing), evicted)
        return serve_response(len(missing), evicted)

    def handle_span_block_kernel(self, block) -> "tuple[list, list]":
        """Hoisted block walk over the tracker and disk recency dicts.

        Observably identical to :meth:`handle_span` element-wise — same
        tracker touch, cleanup cadence, admission test, chunk walk and
        eviction order — with the structure internals bound once per
        block.  On a vectorized view, a numpy admission screen first
        proves requests redirected from block-start snapshots.  Every
        xLRU request whose response is REDIRECT mutates only the
        popularity tracker (the touch plus the cleanup cadence), never
        the disk — so a screened request skips the admission
        arithmetic, the disk-age read and the whole chunk walk.  Three
        screens are exact:

        * **never-seen** — the video's first in-block occurrence with no
          tracker-snapshot entry: the tracker cannot have gained it
          (touches only add videos requested earlier; cleanup only
          deletes), so ``last is None`` holds at the request.
        * **definitely-stale** — with the disk full at block start and
          oldest access ``o0``, the disk-oldest access only advances
          (fills append newest, evictions drop oldest), so the live
          cache age at request ``i`` is at most ``t_i - o0``; then
          ``(t_i - last) * alpha > t_i - o0`` implies the live test
          fails.  ``last`` here is the exact last access (in-block
          predecessor, else snapshot); if cleanup dropped the entry
          meanwhile the true response is REDIRECT anyway (never-seen).
        * **oversized** — spans larger than the disk redirect on every
          admission path.

        Without a vectorized view every request is undecided.  The walk
        has no probe hooks, so with a probe attached the per-request
        reference runs instead.
        """
        if self.probe is not None:
            return VideoCache.handle_span_block_kernel(self, block)
        alpha = self.cost_model.alpha_f2r
        disk_chunks = self.disk_chunks
        tracker = self._tracker
        tentries = tracker.raw_entries()
        tpop = tentries.pop
        disk = self._disk
        dentries = disk.raw_entries()
        dpop = dentries.pop

        if block.vectorized:
            np = kernels._np
            uniq, _order, _starts = block.video_groups()
            snap = kernels.snapshot_times(uniq, tentries)
            prev = block.prev_t()
            last_eff = np.where(np.isnan(prev), snap[block.video_inverse()], prev)
            redirect = np.isnan(last_eff)
            if len(dentries) >= disk_chunks:
                o0 = next(iter(dentries.values()))
                ts = block.ts
                redirect |= (ts - last_eff) * alpha > (ts - o0)
            redirect |= (block.c1s - block.c0s + 1) > disk_chunks
            screen = redirect.tolist()
        else:
            screen = repeat(False)

        cleanup_interval = self._cleanup_interval
        since = self._requests_since_cleanup
        inf = float("inf")
        responses: list = []
        append = responses.append
        misses: list = []
        miss = misses.append
        # Cached (key, access time) of the disk-recency head: the oldest
        # entry changes only when it is itself touched or evicted, so
        # the admission age read is O(1) amortized instead of a fresh
        # next(iter(...)) per request.
        head_key = None
        head_t = 0.0
        i = -1
        last_t = None
        for t, video, c0, c1, scr in zip(
            block.ts_l, block.videos_l, block.c0s_l, block.c1s_l, screen
        ):
            i += 1
            last = tpop(video, None)
            tentries[video] = t
            last_t = t
            since += 1
            if since >= cleanup_interval:
                # _maybe_cleanup_tracker, inlined: drop tracker entries
                # that can no longer pass the admission test.
                since = 0
                if len(dentries) >= disk_chunks:
                    if head_key is None:
                        head_key = next(iter(dentries))
                        head_t = dentries[head_key]
                    cutoff = t - (t - head_t) / alpha
                    while tentries:
                        oldest = next(iter(tentries))
                        if tentries[oldest] >= cutoff:
                            break
                        del tentries[oldest]
            if scr:
                append(REDIRECT)
                miss(i)
                continue
            if last is None:
                append(REDIRECT)
                miss(i)
                continue
            if len(dentries) < disk_chunks:
                age = inf
            else:
                if head_key is None:
                    head_key = next(iter(dentries))
                    head_t = dentries[head_key]
                age = t - head_t
            if (t - last) * alpha > age:
                append(REDIRECT)
                miss(i)
                continue
            if c1 - c0 + 1 > disk_chunks:
                append(REDIRECT)
                miss(i)
                continue
            missing = None
            for c in range(c0, c1 + 1):
                chunk = (video, c)
                if dpop(chunk, None) is None:
                    if missing is None:
                        missing = [chunk]
                    else:
                        missing.append(chunk)
                else:
                    dentries[chunk] = t
                    if chunk == head_key:
                        head_key = None
            if missing is None:
                append(SERVE_HIT)
                continue
            evicted = len(dentries) + len(missing) - disk_chunks
            if evicted > 0:
                head_key = None
                for _ in range(evicted):
                    del dentries[next(iter(dentries))]
            else:
                evicted = 0
            for chunk in missing:
                dentries[chunk] = t
            append(serve_response(len(missing), evicted))
            miss(i)
        self._requests_since_cleanup = since
        if last_t is not None:
            tracker.advance_time(last_t)
            disk.advance_time(last_t)
        return responses, misses

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._disk

    def __len__(self) -> int:
        return len(self._disk)

    # -- xLRU specifics -------------------------------------------------------

    def cache_age(self, now: float) -> float:
        """Age of the oldest chunk access on disk (Section 5).

        A disk that is not yet full reports an unbounded age so that the
        admission test passes for any previously seen video (warm-up).
        """
        if len(self._disk) < self.disk_chunks:
            return float("inf")
        return self._disk.cache_age(now)

    def video_last_access(self, video: int) -> float | None:
        """Last tracked access time of ``video`` (None if untracked)."""
        return self._tracker.last_access(video)

    @property
    def tracked_videos(self) -> int:
        """Number of videos currently in the popularity tracker."""
        return len(self._tracker)

    def _maybe_cleanup_tracker(self, now: float) -> None:
        """Drop tracker entries that can no longer pass the admission test.

        An entry with last access ``t`` is useless once
        ``(now - t) * alpha > cache_age`` will hold for every future
        ``now``; since the left side only grows, the cutoff is
        ``now - cache_age / alpha``.  Dropping such entries is
        behaviour-preserving: a missing entry and a failing test both
        redirect.  Run periodically, as in the paper ("regularly
        cleaned up").
        """
        self._requests_since_cleanup += 1
        if self._requests_since_cleanup < self._cleanup_interval:
            return
        self._requests_since_cleanup = 0
        age = self.cache_age(now)
        if age == float("inf"):
            return
        self._tracker.evict_older_than(now - age / self.cost_model.alpha_f2r)
