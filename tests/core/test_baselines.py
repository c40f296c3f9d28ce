"""Tests for the classic baselines (pull-through LRU, LFU, Belady).

PullLRU and LFU run on the policy-kernel engine; their tests build them
by name, the way every caller does.
"""

import pytest

from repro.core.baselines import BeladyCache
from repro.core.base import Decision
from repro.core.costs import CostModel
from repro.core.cafe import CafeCache
from repro.sim.engine import replay
from repro.sim.runner import build_cache
from repro.trace.requests import Request

K = 1024


def req(t, video, c0, c1=None):
    c1 = c0 if c1 is None else c1
    return Request(t, video, c0 * K, (c1 + 1) * K - 1)


class TestPullThroughLru:
    def test_always_serves(self):
        cache = build_cache("PullLRU", 4, chunk_bytes=K)
        for i in range(20):
            response = cache.handle(req(float(i), i, 0))
            assert response.decision is Decision.SERVE
            assert response.filled_chunks == 1

    def test_lru_eviction(self):
        cache = build_cache("PullLRU", 2, chunk_bytes=K)
        cache.handle(req(0.0, 1, 0))
        cache.handle(req(1.0, 2, 0))
        cache.handle(req(2.0, 1, 0))  # refresh 1
        cache.handle(req(3.0, 3, 0))  # evicts 2 (LRU)
        assert (1, 0) in cache
        assert (2, 0) not in cache

    def test_oversize_request_redirected(self):
        cache = build_cache("PullLRU", 2, chunk_bytes=K)
        assert cache.handle(req(0.0, 1, 0, 5)).decision is Decision.REDIRECT

    def test_unbounded_ingress_hurts_at_high_alpha(self, small_trace):
        """The Section 2 argument: cache-all cannot respect alpha > 1."""
        pull = build_cache("PullLRU", 128, alpha_f2r=4.0)
        cafe = CafeCache(128, cost_model=CostModel(4.0))
        pull_eff = replay(pull, small_trace).steady.efficiency
        cafe_eff = replay(cafe, small_trace).steady.efficiency
        assert cafe_eff > pull_eff + 0.1

    def test_zero_redirects(self, small_trace):
        cache = build_cache("PullLRU", 128, alpha_f2r=1.0)
        totals = replay(cache, small_trace).totals
        assert totals.redirected_bytes == 0


class TestLfuAdmission:
    def test_first_seen_redirected(self):
        cache = build_cache("LFU", 4, chunk_bytes=K)
        assert cache.handle(req(0.0, 1, 0)).decision is Decision.REDIRECT

    def test_admitted_after_min_hits(self):
        cache = build_cache("LFU", 4, chunk_bytes=K, min_video_hits=3)
        assert cache.handle(req(0.0, 1, 0)).decision is Decision.REDIRECT
        assert cache.handle(req(1.0, 1, 0)).decision is Decision.REDIRECT
        assert cache.handle(req(2.0, 1, 0)).decision is Decision.SERVE

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_cache("LFU", 4, min_video_hits=0)
        with pytest.raises(ValueError):
            build_cache("LFU", 4, aging_interval=0)

    def test_frequency_beats_recency(self):
        """LFU keeps the 5x-requested chunk over the newer 2x one —
        the opposite of what a pure LRU would do."""
        cache = build_cache("LFU", 2, chunk_bytes=K)
        for t in range(5):
            cache.handle(req(float(t), 1, 0))  # A: freq 5, old
        cache.handle(req(5.0, 2, 0))
        cache.handle(req(6.0, 2, 0))  # B: freq 2, recent; disk full
        cache.handle(req(7.0, 3, 0))
        cache.handle(req(8.0, 3, 0))  # C admitted: evicts B (lowest freq)
        assert (1, 0) in cache
        assert (2, 0) not in cache
        assert (3, 0) in cache

    def test_aging_halves_frequencies(self):
        cache = build_cache("LFU", 4, chunk_bytes=K, aging_interval=5)
        for t in range(10):
            cache.handle(req(float(t), 1, 0))
        # survives aging without errors and stays consistent
        assert (1, 0) in cache
        assert len(cache) == 1

    def test_oversize_request_redirected(self):
        cache = build_cache("LFU", 2, chunk_bytes=K)
        cache.handle(req(0.0, 1, 0, 5))
        assert cache.handle(req(1.0, 1, 0, 5)).decision is Decision.REDIRECT

    def test_capacity_never_exceeded(self, small_trace):
        cache = build_cache("LFU", 32, alpha_f2r=1.0, aging_interval=100)
        for r in small_trace[:1000]:
            cache.handle(r)
            assert len(cache) <= 32


class TestBelady:
    def test_requires_prepare(self):
        cache = BeladyCache(2, chunk_bytes=K)
        with pytest.raises(RuntimeError):
            cache.handle(req(0.0, 1, 0))

    def test_order_mismatch_raises(self):
        cache = BeladyCache(2, chunk_bytes=K)
        cache.prepare([req(0.0, 1, 0)])
        with pytest.raises(RuntimeError):
            cache.handle(req(5.0, 9, 9))

    def test_always_serves(self):
        trace = [req(float(i), i, 0) for i in range(10)]
        cache = BeladyCache(2, chunk_bytes=K)
        cache.prepare(trace)
        assert all(cache.handle(r).decision is Decision.SERVE for r in trace)

    def test_farthest_future_evicted(self):
        trace = [
            req(0.0, 1, 0),  # A; next at t=5
            req(1.0, 2, 0),  # B; next at t=2
            req(2.0, 2, 0),
            req(3.0, 3, 0),  # C: evicts A? no — A @5 is nearer than B (never)
            req(5.0, 1, 0),
        ]
        cache = BeladyCache(2, chunk_bytes=K)
        cache.prepare(trace)
        for r in trace[:4]:
            cache.handle(r)
        # at t=3, B is never requested again -> B evicted, A kept
        assert (1, 0) in cache
        assert (2, 0) not in cache
        hit = cache.handle(trace[4])
        assert hit.filled_chunks == 0

    def test_belady_minimizes_fills_vs_lru(self, small_trace):
        """Optimal replacement never fills more than LRU replacement."""
        trace = small_trace[:1500]
        belady = BeladyCache(64, cost_model=CostModel(1.0))
        lru = build_cache("PullLRU", 64, alpha_f2r=1.0)
        belady_fills = replay(belady, trace).totals.filled_chunks
        lru_fills = replay(lru, trace).totals.filled_chunks
        assert belady_fills <= lru_fills
