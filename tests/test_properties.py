"""Property-based invariant tests across all cache algorithms.

Hypothesis generates arbitrary (time-ordered) request sequences; every
algorithm must uphold the Problem-1 contract on all of them:

* the disk never exceeds capacity;
* a served request leaves all its chunks resident, chunks filled never
  exceed the chunks requested, evictions never exceed fills;
* the engine's byte accounting balances exactly (egress + redirected ==
  requested; ingress == filled chunks x chunk size);
* efficiency stays within Eq. 2's range given the chunk rounding.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baselines import BeladyCache
from repro.core.cafe import CafeCache
from repro.core.costs import CostModel
from repro.core.lru_variants import LruKCache
from repro.core.psychic import PsychicCache
from repro.core.xlru import XlruCache
from repro.sim.engine import replay
from repro.sim.runner import CACHE_FACTORIES
from repro.trace.requests import Request

K = 1024
DISK = 12

ALL_CACHE_CLASSES = [
    XlruCache,
    CafeCache,
    PsychicCache,
    BeladyCache,
    # PullLRU, LFU and GDS run as policies on the kernel engine
    CACHE_FACTORIES["PullLRU"],
    CACHE_FACTORIES["LFU"],
    LruKCache,
    CACHE_FACTORIES["GDS"],
]


@st.composite
def request_sequences(draw):
    """Time-ordered sequences over a small universe of videos/chunks."""
    n = draw(st.integers(1, 60))
    t = 0.0
    requests = []
    for _ in range(n):
        t += draw(st.floats(0.0, 100.0))
        video = draw(st.integers(0, 7))
        c0 = draw(st.integers(0, 9))
        span = draw(st.integers(1, 4))
        b0 = c0 * K + draw(st.integers(0, K - 1))
        b1 = (c0 + span) * K - 1 - draw(st.integers(0, K - 1))
        if b1 < b0:
            b0, b1 = b1, b0
        requests.append(Request(t, video, b0, b1))
    return requests


@pytest.mark.parametrize("cache_cls", ALL_CACHE_CLASSES, ids=lambda c: c.name)
@settings(max_examples=25, deadline=None)
@given(trace=request_sequences(), alpha=st.sampled_from([0.5, 1.0, 2.0]))
def test_cache_contract(cache_cls, trace, alpha):
    cache = cache_cls(DISK, chunk_bytes=K, cost_model=CostModel(alpha))
    if cache.offline:
        cache.prepare(trace)
    for request in trace:
        span = request.num_chunks(K)
        response = cache.handle(request)
        assert len(cache) <= DISK, "capacity exceeded"
        assert response.filled_chunks <= span, "filled more than requested"
        assert response.evicted_chunks <= response.filled_chunks, (
            "evicted without filling"
        )
        if response.served and span <= DISK:
            for chunk in request.chunk_ids(K):
                assert chunk in cache, "served but chunk not resident"


@pytest.mark.parametrize("cache_cls", ALL_CACHE_CLASSES, ids=lambda c: c.name)
@settings(max_examples=15, deadline=None)
@given(trace=request_sequences())
def test_accounting_balances(cache_cls, trace):
    cache = cache_cls(DISK, chunk_bytes=K, cost_model=CostModel(2.0))
    result = replay(cache, trace)
    totals = result.totals
    requested = sum(r.num_bytes for r in trace)
    assert totals.requested_bytes == requested
    assert totals.egress_bytes + totals.redirected_bytes == requested
    assert totals.ingress_bytes == totals.filled_chunks * K
    assert totals.num_served + totals.num_redirected == len(trace)
    # Eq. 2 bound, allowing the whole-chunk rounding of ingress
    slack = 2.0 * K * totals.filled_chunks / max(requested, 1)
    assert -1.0 - slack <= totals.efficiency <= 1.0 + 1e-9


@settings(max_examples=15, deadline=None)
@given(trace=request_sequences())
def test_cafe_tracks_cached_chunks(trace):
    """Cafe-specific: every cached chunk retains IAT state."""
    cache = CafeCache(DISK, chunk_bytes=K, cost_model=CostModel(1.0))
    for request in trace:
        cache.handle(request)
        assert cache.tracked_chunks >= len(cache)


@settings(max_examples=15, deadline=None)
@given(trace=request_sequences())
def test_psychic_and_belady_agree_on_serve_everything_when_roomy(trace):
    """With a disk larger than the chunk universe, offline caches fill
    once and never redirect after warm-up decisions allow."""
    big = 8 * 10 + 8  # whole universe fits
    belady = BeladyCache(big, chunk_bytes=K, cost_model=CostModel(1.0))
    result = replay(belady, trace)
    assert result.totals.num_redirected == 0
