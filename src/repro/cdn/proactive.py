"""Proactive caching: the Section 10 "spare ingress" extension.

"For cheap/non-constrained ingress ... we are investigating how to take
best advantage of under-utilized ingress whenever possible, such as
proactive caching during early morning hours."

:class:`ProactiveFiller` wraps any online cache.  It tracks recent video
demand (a windowed hit count) and, whenever the observed request rate
drops below ``offpeak_rate_fraction`` of the running mean — the early
morning trough of the diurnal cycle — it issues *prefetch* requests for
the most-demanded videos whose leading chunks are missing, up to an
ingress budget per off-peak window.

Prefetches flow through the cache's normal ``handle`` path (the cache
may still decline them), but their bytes are accounted separately: a
prefetch is ingress without user demand, so the wrapper reports demand
metrics and prefetch totals side by side.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.core.base import CacheResponse, Decision, VideoCache
from repro.trace.requests import Request

__all__ = ["ProactiveFiller", "PrefetchStats"]


@dataclass
class PrefetchStats:
    """Counters for prefetch activity."""

    attempts: int = 0
    accepted: int = 0
    filled_chunks: int = 0
    windows: int = 0


class ProactiveFiller:
    """Off-peak prefetching wrapper around an online cache.

    Use :meth:`handle` in place of ``cache.handle``; the wrapper
    piggybacks rate estimation and prefetch scheduling on the request
    stream (the simulator needs no event loop for this).
    """

    def __init__(
        self,
        cache: VideoCache,
        prefix_chunks: int = 2,
        rate_window: float = 3600.0,
        offpeak_rate_fraction: float = 0.6,
        budget_chunks_per_window: int = 64,
        top_videos: int = 32,
        demand_halflife_requests: int = 5000,
    ) -> None:
        if cache.offline:
            raise ValueError("proactive filling requires an online cache")
        if prefix_chunks < 1:
            raise ValueError("prefix_chunks must be >= 1")
        if not 0.0 < offpeak_rate_fraction < 1.0:
            raise ValueError("offpeak_rate_fraction must be in (0, 1)")
        self.cache = cache
        self.prefix_chunks = prefix_chunks
        self.rate_window = rate_window
        self.offpeak_rate_fraction = offpeak_rate_fraction
        self.budget_chunks = budget_chunks_per_window
        self.top_videos = top_videos
        self.demand_halflife = demand_halflife_requests
        self.stats = PrefetchStats()

        self._demand: Counter = Counter()
        self._video_bytes: dict[int, int] = {}
        self._arrivals: Deque[float] = deque()
        self._mean_rate: Optional[float] = None
        self._window_start: Optional[float] = None
        self._budget_left = 0
        self._requests_seen = 0

    def handle(self, request: Request) -> CacheResponse:
        """Pass the request through, updating demand and prefetching."""
        self._observe(request)
        response = self.cache.handle(request)
        self._maybe_prefetch(request.t)
        return response

    # -- internals -----------------------------------------------------------

    def _observe(self, request: Request) -> None:
        t = request.t
        self._requests_seen += 1
        self._demand[request.video] += 1
        known = self._video_bytes.get(request.video, 0)
        self._video_bytes[request.video] = max(known, request.b1 + 1)
        if self._requests_seen % self.demand_halflife == 0:
            for video in list(self._demand):
                self._demand[video] //= 2
                if self._demand[video] == 0:
                    del self._demand[video]

        self._arrivals.append(t)
        cutoff = t - self.rate_window
        while self._arrivals and self._arrivals[0] < cutoff:
            self._arrivals.popleft()

    def _current_rate(self) -> float:
        if len(self._arrivals) < 2:
            return 0.0
        span = self._arrivals[-1] - self._arrivals[0]
        if span <= 0:
            return 0.0
        return len(self._arrivals) / span

    def _maybe_prefetch(self, now: float) -> None:
        rate = self._current_rate()
        if rate <= 0:
            return
        # EWMA of the rate as the "normal" level to compare against.
        if self._mean_rate is None:
            self._mean_rate = rate
        else:
            self._mean_rate = 0.999 * self._mean_rate + 0.001 * rate

        if rate >= self._mean_rate * self.offpeak_rate_fraction:
            return  # not off-peak

        if self._window_start is None or now - self._window_start > self.rate_window:
            self._window_start = now
            self._budget_left = self.budget_chunks
            self.stats.windows += 1
        if self._budget_left <= 0:
            return

        for video, chunk in self._prefetch_candidates():
            if self._budget_left <= 0:
                break
            k = self.cache.chunk_bytes
            prefetch = Request(t=now, video=video, b0=chunk * k, b1=(chunk + 1) * k - 1)
            self.stats.attempts += 1
            response = self.cache.handle(prefetch)
            if response.decision is Decision.SERVE and response.filled_chunks:
                self.stats.accepted += 1
                self.stats.filled_chunks += response.filled_chunks
                self._budget_left -= response.filled_chunks

    def _prefetch_candidates(self) -> list[Tuple[int, int]]:
        """Missing leading chunks of the most-demanded videos."""
        out: list[Tuple[int, int]] = []
        for video, _count in self._demand.most_common(self.top_videos):
            size = self._video_bytes.get(video, 0)
            max_chunk = max(0, (size - 1) // self.cache.chunk_bytes)
            for chunk in range(min(self.prefix_chunks, max_chunk + 1)):
                if (video, chunk) not in self.cache:
                    out.append((video, chunk))
        return out
