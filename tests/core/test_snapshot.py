"""Tests for cache state snapshots (save / restore a warm cache)."""

import pytest

from repro.core.cafe import CafeCache
from repro.core.costs import CostModel
from repro.core.psychic import PsychicCache
from repro.core.snapshot import (
    SNAPSHOT_KINDS,
    load_snapshot,
    load_state_dict,
    save_snapshot,
    snapshot_kind,
    state_dict,
    supports_snapshot,
)
from repro.core.xlru import XlruCache
from repro.sim.runner import build_cache
from repro.trace.requests import Request

K = 1024


def req(t, video, c0):
    return Request(t, video, c0 * K, (c0 + 1) * K - 1)


def warm(cache, trace):
    for r in trace:
        cache.handle(r)
    return cache


def continue_identically(original, restored, trace):
    """Both caches must make identical decisions on the continuation."""
    for r in trace:
        a = original.handle(r)
        b = restored.handle(r)
        assert a.decision == b.decision, r
        assert a.filled_chunks == b.filled_chunks, r


@pytest.fixture
def warm_trace(small_trace):
    return small_trace[:600]


@pytest.fixture
def continuation(small_trace):
    return small_trace[600:1000]


class TestRegistry:
    def test_registry_covers_hand_written_and_policy_kinds(self):
        from repro.core.policy import POLICY_REGISTRY

        expected = {"xlru", "cafe"} | {
            f"policy:{spec.kind}" for spec in POLICY_REGISTRY.values()
        }
        assert set(SNAPSHOT_KINDS) == expected

    def test_supports_snapshot(self):
        assert supports_snapshot(XlruCache(8, chunk_bytes=K))
        assert supports_snapshot(build_cache("PullLRU", 8, chunk_bytes=K))
        assert supports_snapshot(build_cache("GDS", 8, chunk_bytes=K))
        assert supports_snapshot(build_cache("LFU", 8, chunk_bytes=K))
        assert not supports_snapshot(PsychicCache(8))

    def test_kind_tags(self):
        # PullLRU, GDS and LFU run on the policy-kernel engine; legacy
        # "pull-lru" and "lfu" snapshots load through
        # tests/core/test_snapshot_fixtures.py
        assert snapshot_kind(build_cache("PullLRU", 8, chunk_bytes=K)) == "policy:pull-lru"
        assert snapshot_kind(build_cache("GDS", 8, chunk_bytes=K)) == "policy:gds"
        assert snapshot_kind(build_cache("LFU", 8, chunk_bytes=K)) == "policy:lfu"


class TestUnsupported:
    def test_offline_cache_rejected(self):
        with pytest.raises(TypeError, match="support"):
            state_dict(PsychicCache(8))

    def test_error_names_supported_set_and_requested_type(self):
        """The rejection must say what IS supported and what was asked."""
        with pytest.raises(TypeError) as excinfo:
            snapshot_kind(PsychicCache(8))
        message = str(excinfo.value)
        assert "PsychicCache" in message
        for cls in SNAPSHOT_KINDS.values():
            assert cls.__name__ in message

    def test_load_into_wrong_kind(self):
        state = state_dict(XlruCache(8, chunk_bytes=K))
        with pytest.raises(ValueError, match="kind"):
            load_state_dict(CafeCache(8, chunk_bytes=K), state)

    def test_geometry_mismatch(self):
        state = state_dict(XlruCache(8, chunk_bytes=K))
        with pytest.raises(ValueError, match="geometry"):
            load_state_dict(XlruCache(16, chunk_bytes=K), state)

    def test_version_check(self):
        state = state_dict(XlruCache(8, chunk_bytes=K))
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            load_state_dict(XlruCache(8, chunk_bytes=K), state)


class TestXlruRoundtrip:
    def test_contents_restored(self, warm_trace):
        original = warm(XlruCache(64, cost_model=CostModel(2.0)), warm_trace)
        restored = XlruCache(64, cost_model=CostModel(2.0))
        load_state_dict(restored, state_dict(original))
        assert len(restored) == len(original)
        assert restored.tracked_videos == original.tracked_videos
        assert restored.cache_age(warm_trace[-1].t) == original.cache_age(
            warm_trace[-1].t
        )

    def test_decisions_continue_identically(self, warm_trace, continuation):
        original = warm(XlruCache(64, cost_model=CostModel(2.0)), warm_trace)
        restored = XlruCache(64, cost_model=CostModel(2.0))
        load_state_dict(restored, state_dict(original))
        continue_identically(original, restored, continuation)

    def test_json_file_roundtrip(self, tmp_path, warm_trace):
        original = warm(XlruCache(64, cost_model=CostModel(1.0)), warm_trace)
        path = tmp_path / "xlru.json"
        save_snapshot(original, path)
        restored = XlruCache(64, cost_model=CostModel(1.0))
        load_snapshot(restored, path)
        assert len(restored) == len(original)

    def test_oversized_snapshot_rejected(self, warm_trace):
        original = warm(XlruCache(64, cost_model=CostModel(1.0)), warm_trace)
        state = state_dict(original)
        state["disk_chunks"] = 2  # lie about geometry consistently
        with pytest.raises(ValueError):
            load_state_dict(XlruCache(2, chunk_bytes=original.chunk_bytes), state)


class TestCafeRoundtrip:
    def test_contents_and_iats_restored(self, warm_trace):
        original = warm(CafeCache(64, cost_model=CostModel(2.0)), warm_trace)
        restored = CafeCache(64, cost_model=CostModel(2.0))
        load_state_dict(restored, state_dict(original))
        assert len(restored) == len(original)
        assert restored.tracked_chunks == original.tracked_chunks
        assert restored.ghost_chunks == original.ghost_chunks
        now = warm_trace[-1].t
        assert restored.cache_age(now) == pytest.approx(original.cache_age(now))

    def test_iat_values_exact(self):
        original = CafeCache(8, chunk_bytes=K, cost_model=CostModel(1.0))
        for t in (0.0, 3.0, 7.0, 13.0):
            original.handle(req(t, 1, 0))
        restored = CafeCache(8, chunk_bytes=K, cost_model=CostModel(1.0))
        load_state_dict(restored, state_dict(original))
        assert restored.chunk_iat((1, 0), 20.0) == original.chunk_iat((1, 0), 20.0)

    def test_inf_dt_survives_json(self, tmp_path):
        original = CafeCache(8, chunk_bytes=K, cost_model=CostModel(2.0))
        original.handle(req(0.0, 1, 0))  # single sighting: dt = inf ghost
        path = tmp_path / "cafe.json"
        save_snapshot(original, path)
        restored = CafeCache(8, chunk_bytes=K, cost_model=CostModel(2.0))
        load_snapshot(restored, path)
        import math

        assert math.isinf(restored._stats[(1, 0)].dt)

    def test_decisions_continue_identically(self, warm_trace, continuation):
        original = warm(CafeCache(64, cost_model=CostModel(2.0)), warm_trace)
        restored = CafeCache(64, cost_model=CostModel(2.0))
        load_state_dict(restored, state_dict(original))
        continue_identically(original, restored, continuation)

    def test_alpha_retune_on_restore(self, warm_trace):
        """Operators may change alpha across restarts; state loads."""
        original = warm(CafeCache(64, cost_model=CostModel(1.0)), warm_trace)
        restored = CafeCache(64, cost_model=CostModel(4.0))
        load_state_dict(restored, state_dict(original))
        assert restored.cost_model.alpha_f2r == 4.0
        assert len(restored) == len(original)


class TestPullLruRoundtrip:
    def test_contents_restored(self, warm_trace):
        original = warm(build_cache("PullLRU", 64), warm_trace)
        restored = build_cache("PullLRU", 64)
        load_state_dict(restored, state_dict(original))
        assert len(restored) == len(original)
        assert list(restored._cached.items_ascending()) == list(
            original._cached.items_ascending()
        )

    def test_decisions_continue_identically(self, warm_trace, continuation):
        original = warm(build_cache("PullLRU", 64), warm_trace)
        restored = build_cache("PullLRU", 64)
        load_state_dict(restored, state_dict(original))
        continue_identically(original, restored, continuation)

    def test_json_file_roundtrip(self, tmp_path, warm_trace):
        original = warm(build_cache("PullLRU", 64), warm_trace)
        path = tmp_path / "pull-lru.json"
        save_snapshot(original, path)
        restored = build_cache("PullLRU", 64)
        load_snapshot(restored, path)
        assert list(restored._cached.items_ascending()) == list(
            original._cached.items_ascending()
        )

    def test_oversized_snapshot_rejected(self, warm_trace):
        original = warm(build_cache("PullLRU", 64), warm_trace)
        state = state_dict(original)
        state["disk_chunks"] = 2
        with pytest.raises(ValueError):
            load_state_dict(
                build_cache("PullLRU", 2, chunk_bytes=original.chunk_bytes), state
            )


class TestLfuRoundtrip:
    def _cache(self, **kw):
        kw.setdefault("aging_interval", 200)
        return build_cache("LFU", 64, **kw)

    def test_contents_restored(self, warm_trace):
        original = warm(self._cache(), warm_trace)
        restored = self._cache()
        load_state_dict(restored, state_dict(original))
        assert len(restored) == len(original)
        assert restored.policy._video_hits == original.policy._video_hits
        assert restored.policy._freq == original.policy._freq
        assert restored.policy._handled == original.policy._handled
        assert list(restored._cached.items_ascending()) == list(
            original._cached.items_ascending()
        )

    def test_decisions_continue_identically(self, warm_trace, continuation):
        # aging_interval small enough that the continuation crosses at
        # least one aging boundary on both sides
        original = warm(self._cache(aging_interval=150), warm_trace)
        restored = self._cache(aging_interval=150)
        load_state_dict(restored, state_dict(original))
        continue_identically(original, restored, continuation)
        assert restored.policy._handled == original.policy._handled

    def test_json_file_roundtrip(self, tmp_path, warm_trace):
        original = warm(self._cache(), warm_trace)
        path = tmp_path / "lfu.json"
        save_snapshot(original, path)
        restored = self._cache()
        load_snapshot(restored, path)
        # dyadic floats: exact
        assert restored.policy._freq == original.policy._freq

    def test_admission_mismatch_rejected(self, warm_trace):
        original = warm(self._cache(min_video_hits=2), warm_trace)
        state = state_dict(original)
        with pytest.raises(ValueError, match="min_video_hits"):
            load_state_dict(self._cache(min_video_hits=3), state)

    def test_aging_mismatch_rejected(self, warm_trace):
        original = warm(self._cache(aging_interval=200), warm_trace)
        state = state_dict(original)
        with pytest.raises(ValueError, match="aging_interval"):
            load_state_dict(self._cache(aging_interval=100), state)
