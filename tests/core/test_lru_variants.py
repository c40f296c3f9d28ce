"""Tests for the related-work LRU variants (LRU-K, GDS).

GDS runs on the policy-kernel engine; its tests build it by name and
read its aging value ``L`` off the policy.
"""

import pytest

from repro.core.base import Decision
from repro.core.costs import CostModel
from repro.core.lru_variants import LruKCache
from repro.sim.engine import replay
from repro.sim.runner import build_cache
from repro.trace.requests import Request

K = 1024


def req(t, video, c0, c1=None):
    c1 = c0 if c1 is None else c1
    return Request(t, video, c0 * K, (c1 + 1) * K - 1)


class TestLruKAdmission:
    def test_k_validation(self):
        with pytest.raises(ValueError):
            LruKCache(4, k=0)
        with pytest.raises(ValueError):
            LruKCache(4, history_factor=0.0)

    def test_below_k_accesses_redirected(self):
        cache = LruKCache(4, chunk_bytes=K, k=3)
        assert cache.handle(req(0.0, 1, 0)).decision is Decision.REDIRECT
        assert cache.handle(req(1.0, 1, 0)).decision is Decision.REDIRECT
        assert cache.handle(req(2.0, 1, 0)).decision is Decision.SERVE

    def test_k2_matches_second_request_admission(self):
        cache = LruKCache(4, chunk_bytes=K, k=2)
        assert cache.handle(req(0.0, 1, 0)).decision is Decision.REDIRECT
        assert cache.handle(req(1.0, 1, 0)).decision is Decision.SERVE

    def test_oversize_request_redirected(self):
        cache = LruKCache(2, chunk_bytes=K, k=1)
        assert cache.handle(req(0.0, 1, 0, 5)).decision is Decision.REDIRECT


class TestLruKReplacement:
    def test_evicts_oldest_kth_access(self):
        """The video whose K-th most recent access is oldest loses."""
        cache = LruKCache(2, chunk_bytes=K, k=2)
        # A: accesses at 0, 1 -> K-distance key 0
        cache.handle(req(0.0, 1, 0))
        cache.handle(req(1.0, 1, 0))
        # B: accesses at 2, 3 -> key 2; disk now full
        cache.handle(req(2.0, 2, 0))
        cache.handle(req(3.0, 2, 0))
        # A again at 4, 5: its K-distance key becomes 4 > B's 2
        cache.handle(req(4.0, 1, 0))
        cache.handle(req(5.0, 1, 0))
        # C admitted: evicts B (oldest K-th access)
        cache.handle(req(6.0, 3, 0))
        cache.handle(req(7.0, 3, 0))
        assert (1, 0) in cache
        assert (2, 0) not in cache
        assert (3, 0) in cache

    def test_capacity_never_exceeded(self, small_trace):
        cache = LruKCache(32, cost_model=CostModel(1.0))
        for r in small_trace[:800]:
            cache.handle(r)
            assert len(cache) <= 32

    def test_history_bounded(self, small_trace):
        cache = LruKCache(16, cost_model=CostModel(1.0), history_factor=2.0)
        for r in small_trace[:800]:
            cache.handle(r)
        assert len(cache._history) <= max(64, 16 * 2 + 64)


class TestGds:
    def test_always_serves(self):
        cache = build_cache("GDS", 4, chunk_bytes=K)
        for i in range(10):
            assert cache.handle(req(float(i), i, 0)).decision is Decision.SERVE

    def test_inflation_advances_on_eviction(self):
        cache = build_cache("GDS", 1, chunk_bytes=K)
        cache.handle(req(0.0, 1, 0))
        assert cache.policy.inflation == 0.0
        cache.handle(req(1.0, 2, 0))  # evicts, L rises to victim's H
        assert cache.policy.inflation > 0.0

    def test_recently_refreshed_survives(self):
        cache = build_cache("GDS", 2, chunk_bytes=K)
        cache.handle(req(0.0, 1, 0))
        cache.handle(req(1.0, 2, 0))
        cache.handle(req(2.0, 1, 0))  # refresh A's credit
        cache.handle(req(3.0, 3, 0))  # evicts B (stale credit)
        assert (1, 0) in cache
        assert (2, 0) not in cache

    def test_oversize_request_redirected(self):
        cache = build_cache("GDS", 2, chunk_bytes=K)
        assert cache.handle(req(0.0, 1, 0, 5)).decision is Decision.REDIRECT

    def test_capacity_never_exceeded(self, small_trace):
        cache = build_cache("GDS", 32, alpha_f2r=1.0)
        for r in small_trace[:800]:
            cache.handle(r)
            assert len(cache) <= 32


class TestSection3Argument:
    """Classic variants cannot comply with alpha_F2R (Sections 2-3)."""

    def test_gds_ingress_insensitive_to_alpha(self, small_trace):
        fills = {}
        for alpha in (0.5, 4.0):
            cache = build_cache("GDS", 128, alpha_f2r=alpha)
            fills[alpha] = replay(cache, small_trace).totals.filled_chunks
        assert fills[0.5] == fills[4.0]  # no redirect decision at all

    def test_cafe_beats_variants_at_constrained_ingress(self, medium_trace):
        effs = {}
        for algo in ("Cafe", "LRU-K", "GDS"):
            cache = build_cache(algo, 256, alpha_f2r=2.0)
            effs[algo] = replay(cache, medium_trace).steady.efficiency
        assert effs["Cafe"] > effs["LRU-K"]
        assert effs["Cafe"] > effs["GDS"] + 0.05

    def test_registry_exposes_variants(self):
        assert build_cache("LRU-K", 16).name == "LRU-K"
        assert build_cache("GDS", 16).name == "GDS"


class TestLruKHistoryTrimRegression:
    """Regression: new videos must survive the history-table trim.

    Found by differential replay against the LRU-K oracle: when the
    bounded history table was full, a first-seen video's (empty) history
    entry was created and then immediately trimmed — an empty history
    keys as -inf, the stalest possible — before its access was recorded.
    New videos could then never accumulate the K accesses admission
    requires and were redirected forever.
    """

    def test_new_video_admissible_with_full_history_table(self):
        # history_factor=1 -> table holds exactly disk_chunks=4 videos
        cache = LruKCache(4, cost_model=CostModel(), history_factor=1.0)
        trace = []
        t = 0.0
        for video in (0, 1, 2):  # admit and cache three videos (k=2)
            trace += [req(t, video, 0), req(t + 1.0, video, 0)]
            t += 2.0
        trace.append(req(t, 3, 0))  # tracked but uncached (one access)
        for request in trace:
            cache.handle(request)

        # the table is now full; a brand-new video must still be able
        # to prove itself across two accesses
        first = cache.handle(req(t + 1.0, 9, 0))
        second = cache.handle(req(t + 2.0, 9, 0))
        assert first.decision is Decision.REDIRECT
        assert second.decision is Decision.SERVE

    def test_new_video_still_trimmable_when_all_others_cached(self):
        # with every tracked video holding cached chunks, the new video
        # is the only trimmable entry and legitimately stays unproven
        cache = LruKCache(2, cost_model=CostModel(), history_factor=1.0)
        for video in (0, 1):
            cache.handle(req(float(video), video, 0))
            cache.handle(req(float(video) + 0.5, video, 0))
        assert cache.handle(req(10.0, 9, 0)).decision is Decision.REDIRECT
        assert cache.handle(req(11.0, 9, 0)).decision is Decision.REDIRECT
