"""Policy-kernel protocol: the single-file-plugin contract, enforced.

Golden pins:

* the LFU port (``LFU-PK``, which ``LFU`` also runs) is byte-identical
  to the hand-written :class:`~repro.verify.oracles.OracleLfu` on the
  object lane, the hoisted block lane, and the vectorized kernel lane —
  outcomes, frequencies, hit counts, the aging cursor and the cached
  set in eviction order;
* the PullLRU and GDS ports are byte-identical to the hand-written
  :class:`~repro.verify.oracles.OraclePullLru` and
  :class:`~repro.verify.oracles.OracleGds` on the same three lanes,
  oversized spans included — outcomes, the cached set in eviction
  order and GDS's inflation ``L``;
* tunable LRU at ``q = 1`` collapses to PullLRU on oversize-free
  traces (the insertion position degenerates to the most-recent end;
  oversize handling legitimately differs: the pipeline re-scores a
  span's resident chunks before the size check, and PullLRU opts out
  of that re-score for a span larger than the disk);
* retention-aware scoring keeps early chunks over deep chunks under
  eviction pressure (the arXiv:1512.03274 behaviour the policy exists
  for).

Registry sweeps: every registered policy must surface in
``CACHE_FACTORIES``, ``ORACLE_FACTORIES``, ``KERNEL_ALGORITHMS`` and
``SNAPSHOT_KINDS``, pass the differential verifier, and observe
identical totals with probes attached (probes never influence
decisions).
"""

from __future__ import annotations

import pytest

from repro.core.costs import CostModel
from repro.core.policy import (
    POLICY_REGISTRY,
    KernelCache,
    LfuKernelPolicy,
    PolicySpec,
    RetentionAwarePolicy,
    TunableLruPolicy,
    register_policy,
)
from repro.core.snapshot import SNAPSHOT_KINDS, snapshot_kind, supports_snapshot
from repro.obs.probes import PolicyProbe, probe_for
from repro.sim.runner import CACHE_FACTORIES, build_cache
from repro.trace.columnar import pack_trace
from repro.trace.requests import Request
from repro.verify.differential import KERNEL_ALGORITHMS, verify_algorithm
from repro.verify.fuzz import FuzzScenario, adversarial_trace
from repro.verify.oracles import ORACLE_FACTORIES, OracleGds, OracleLfu, OraclePullLru

from tests.core.test_kernel_lane import replay_kernel, replay_scalar_blocks

K = 1024
POLICY_NAMES = sorted(POLICY_REGISTRY)


def _outcomes(responses):
    return [(r.decision.value, r.filled_chunks, r.evicted_chunks) for r in responses]


# -- golden port: LFU-PK vs the hand-written OracleLfu --------------------------


def assert_same_lfu_state(port, oracle):
    """Frequencies (in the admission order aging walks), hit counts,
    aging cursor, and the cached set in
    ascending ``(score, seq)`` order — the order evictions take."""
    assert list(port.policy._freq.items()) == list(oracle._freq.items())
    assert port.policy._video_hits == oracle._video_hits
    assert port.policy._handled == oracle._handled
    ranked = sorted(oracle._cached.items(), key=lambda item: item[1])
    assert list(port._cached.items_ascending()) == [
        (chunk, score) for chunk, (score, _seq) in ranked
    ]


@pytest.mark.parametrize("seed,disk,aging", [(31, 4, 10_000), (32, 8, 37), (33, 2, 7)])
def test_lfu_port_byte_identical_object_lane(seed, disk, aging):
    trace = adversarial_trace(seed=seed, num_requests=600, disk_chunks=disk)
    oracle = OracleLfu(disk, chunk_bytes=K, aging_interval=aging)
    port = KernelCache(LfuKernelPolicy(aging_interval=aging), disk, chunk_bytes=K)
    for r in trace:
        a = oracle.handle(r)
        b = port.handle(r)
        assert _outcomes([a]) == _outcomes([b]), r
        assert len(oracle) == len(port)
    assert_same_lfu_state(port, oracle)


@pytest.mark.parametrize("block", [1, 33, 256])
def test_lfu_port_byte_identical_block_and_kernel_lanes(block):
    trace = adversarial_trace(seed=41, num_requests=600, disk_chunks=6)
    packed = pack_trace(trace, chunk_bytes=K)
    oracle = OracleLfu(6, chunk_bytes=K, aging_interval=53)
    walker = KernelCache(LfuKernelPolicy(aging_interval=53), 6, chunk_bytes=K)
    kernel = KernelCache(LfuKernelPolicy(aging_interval=53), 6, chunk_bytes=K)
    want = replay_scalar_blocks(oracle, packed, block)
    got_walk = replay_scalar_blocks(walker, packed, block)
    got_kernel, misses_ok = replay_kernel(kernel, packed, block)
    assert got_walk == want
    assert got_kernel == want
    assert misses_ok
    for port in (walker, kernel):
        assert len(port) == len(oracle)
        assert_same_lfu_state(port, oracle)


# -- golden ports: PullLRU and GDS vs their hand-written oracles ---------------


def assert_same_pull_lru_state(port, oracle):
    """The cached set in eviction order: the oracle's recency order."""
    assert [chunk for chunk, _t in port._cached.items_ascending()] == sorted(
        oracle._disk, key=oracle._disk.get
    )


def assert_same_gds_state(port, oracle):
    """The inflation ``L`` and the cached set in ascending
    ``(score, seq)`` order, scores included."""
    assert port.policy.inflation == oracle._inflation
    ranked = sorted(oracle._cached.items(), key=lambda item: item[1])
    assert list(port._cached.items_ascending()) == [
        (chunk, score) for chunk, (score, _seq) in ranked
    ]


BASELINE_PORTS = {
    "PullLRU": (OraclePullLru, assert_same_pull_lru_state),
    "GDS": (OracleGds, assert_same_gds_state),
}


def _baseline_pair(name, disk, alpha):
    oracle_cls, same_state = BASELINE_PORTS[name]
    oracle = oracle_cls(disk, chunk_bytes=K, cost_model=CostModel(alpha))
    return oracle, same_state


@pytest.mark.parametrize("name", sorted(BASELINE_PORTS))
@pytest.mark.parametrize("seed,disk,alpha", [(61, 4, 1.0), (62, 8, 2.0), (63, 2, 0.5)])
def test_baseline_port_byte_identical_object_lane(name, seed, disk, alpha):
    trace = adversarial_trace(seed=seed, num_requests=600, disk_chunks=disk)
    assert any(r.num_chunks(K) > disk for r in trace)  # oversized spans on
    oracle, same_state = _baseline_pair(name, disk, alpha)
    port = build_cache(name, disk, alpha_f2r=alpha, chunk_bytes=K)
    for r in trace:
        a = oracle.handle(r)
        b = port.handle(r)
        assert _outcomes([a]) == _outcomes([b]), r
        assert len(oracle) == len(port)
    same_state(port, oracle)


@pytest.mark.parametrize("name", sorted(BASELINE_PORTS))
@pytest.mark.parametrize("block", [1, 33, 256])
def test_baseline_port_byte_identical_block_and_kernel_lanes(name, block):
    trace = adversarial_trace(seed=71, num_requests=600, disk_chunks=6)
    assert any(r.num_chunks(K) > 6 for r in trace)  # oversized spans on
    packed = pack_trace(trace, chunk_bytes=K)
    oracle, same_state = _baseline_pair(name, 6, 2.0)
    walker = build_cache(name, 6, alpha_f2r=2.0, chunk_bytes=K)
    kernel = build_cache(name, 6, alpha_f2r=2.0, chunk_bytes=K)
    want = replay_scalar_blocks(oracle, packed, block)
    got_walk = replay_scalar_blocks(walker, packed, block)
    got_kernel, misses_ok = replay_kernel(kernel, packed, block)
    assert got_walk == want
    assert got_kernel == want
    assert misses_ok
    for port in (walker, kernel):
        assert len(port) == len(oracle)
        same_state(port, oracle)


# -- qLRU degenerates to PullLRU at q = 1 --------------------------------------


def test_qlru_q1_matches_pull_lru_without_oversize():
    trace = adversarial_trace(
        seed=55, num_requests=700, disk_chunks=8, p_oversize=0.0
    )
    lru = build_cache("PullLRU", 8, chunk_bytes=K)
    qlru = KernelCache(TunableLruPolicy(q=1.0), 8, chunk_bytes=K)
    for r in trace:
        assert _outcomes([lru.handle(r)]) == _outcomes([qlru.handle(r)]), r
    assert len(lru) == len(qlru)


def test_qlru_small_q_protects_the_working_set():
    """With q small, a one-shot scan must evict fewer working-set chunks
    than plain LRU does (scanned fills enter near the eviction frontier
    and displace each other, not the re-referenced chunks)."""

    def surviving_working_set(q):
        cache = KernelCache(TunableLruPolicy(q=q), 16, chunk_bytes=K)
        t = 0.0
        # establish and re-reference a 16-chunk working set (video 0)
        for _ in range(3):
            for c in range(16):
                t += 1.0
                cache.handle_span(t, 0, c * K, (c + 1) * K - 1, c, c)
        # one-shot scan: 32 never-repeated chunks (videos 1..32)
        for v in range(1, 33):
            t += 1.0
            cache.handle_span(t, v, 0, K - 1, 0, 0)
        return sum((0, c) in cache for c in range(16))

    assert surviving_working_set(0.1) > surviving_working_set(1.0)


def test_qlru_rejects_bad_q():
    for q in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            TunableLruPolicy(q=q)


# -- retention-aware scoring ---------------------------------------------------


def test_retention_keeps_early_chunks_over_deep_chunks():
    """Under eviction pressure the deep chunks go first.

    Stream one video's 24 chunks through a 12-chunk disk, one chunk
    per request.  The retention boost dominates the slowly advancing
    clock, so every eviction takes the deepest resident chunk: the
    early chunks (positions 0-10) survive the whole sweep while the
    middle positions churn (each deep fill is itself the next victim,
    leaving only the final fill resident among the deep ones)."""
    cache = KernelCache(
        RetentionAwarePolicy(min_video_hits=1, boost=3600.0, halflife=8.0),
        12,
        chunk_bytes=K,
    )
    for c in range(24):
        cache.handle_span(1.0 + c, 7, c * K, (c + 1) * K - 1, c, c)
    assert len(cache) == 12
    resident = {c for (_v, c) in cache._cached.raw_index()}
    assert set(range(11)).issubset(resident)
    assert resident == set(range(11)) | {23}


def test_retention_admission_redirects_unproven_videos():
    cache = KernelCache(RetentionAwarePolicy(min_video_hits=2), 8, chunk_bytes=K)
    first = cache.handle_span(1.0, 3, 0, K - 1, 0, 0)
    second = cache.handle_span(2.0, 3, 0, K - 1, 0, 0)
    assert first.decision.value == "redirect"
    assert second.decision.value == "serve"


def test_retention_rejects_bad_knobs():
    for kwargs in (
        {"min_video_hits": 0},
        {"boost": -1.0},
        {"halflife": 0.0},
    ):
        with pytest.raises(ValueError):
            RetentionAwarePolicy(**kwargs)


# -- registry: one registration, every lane ------------------------------------


def test_registry_reaches_every_matrix():
    for name, spec in POLICY_REGISTRY.items():
        assert name in CACHE_FACTORIES
        assert name in ORACLE_FACTORIES
        assert name in KERNEL_ALGORITHMS
        assert f"policy:{spec.kind}" in SNAPSHOT_KINDS
        factory = CACHE_FACTORIES[name]
        assert factory.offline is False
        assert factory.cost_sensitive == spec.policy_cls.cost_sensitive


def test_registry_rejects_collisions():
    spec = POLICY_REGISTRY["qLRU"]
    with pytest.raises(ValueError):
        register_policy(spec)
    with pytest.raises(ValueError):
        register_policy(
            PolicySpec(name="qLRU-2", kind="qlru", policy_cls=TunableLruPolicy)
        )


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_policy_cache_snapshot_kind_and_support(name):
    cache = build_cache(name, 8, chunk_bytes=K)
    assert supports_snapshot(cache)
    assert snapshot_kind(cache) == f"policy:{cache.policy.kind}"


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_policy_passes_differential_verifier(name):
    scenario = FuzzScenario(
        seed=4096,
        num_requests=500,
        disk_chunks=5,
        chunk_bytes=1000,
        alpha_f2r=2.0,
        cache_kwargs={
            "LFU-PK": {"aging_interval": 61},
            "Retention": {"boost": 11.0, "halflife": 3.0},
            "qLRU": {"q": 0.5},
        },
    )
    result, _minimal = verify_algorithm(name, scenario, shrink=False)
    assert result.ok, str(result.divergence or result.violations[:3])


# -- probes --------------------------------------------------------------------


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_probe_parity_and_policy_gauges(name):
    """Probes observe without influencing: identical decision streams
    with and without a probe, outcome counters consistent with the
    stream, and the policy's gauges surfaced in snapshot_gauges."""
    trace = adversarial_trace(seed=91, num_requests=400, disk_chunks=6)
    plain = build_cache(name, 6, chunk_bytes=K)
    probed = build_cache(name, 6, chunk_bytes=K)
    probe = probe_for(probed)
    assert isinstance(probe, PolicyProbe)
    probed.probe = probe
    want = [plain.handle(r) for r in trace]
    got = [probed.handle(r) for r in trace]
    assert _outcomes(want) == _outcomes(got)
    counters = probe.registry.counters
    assert counters.get("serve", 0) + counters.get("redirect", 0) == len(trace)
    gauges = probe.snapshot_gauges(probed)
    for key in probed.policy.gauges():
        assert f"policy.{key}" in gauges


def test_probe_hooks_fire_on_fill_and_evict():
    cache = build_cache("qLRU", 2, chunk_bytes=K)
    probe = probe_for(cache)
    cache.probe = probe
    for t, c in ((1.0, 0), (2.0, 1), (3.0, 2)):
        cache.handle_span(t, 1, c * K, (c + 1) * K - 1, c, c)
    counters = probe.registry.counters
    assert counters["fill_chunks"] == 3
    assert counters["evict_chunks"] == 1


# -- engine dispatch -----------------------------------------------------------


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_kernel_cache_is_native_on_both_packed_lanes(name):
    from repro.core.base import VideoCache
    from repro.sim.engine import _kernel_native, _span_native

    cache = build_cache(name, 8, chunk_bytes=K)
    assert _span_native(cache)
    assert _kernel_native(cache)
    assert (
        type(cache).handle_span_block_kernel
        is not VideoCache.handle_span_block_kernel
    )


def test_oversized_span_redirects_after_rescore():
    """The pipeline walks (re-scoring hits) before the size check, like
    the LFU baseline — an oversized re-request must refresh residency
    but still redirect."""
    cache = build_cache("qLRU", 2, chunk_bytes=K)
    cache.handle_span(1.0, 1, 0, K - 1, 0, 0)
    response = cache.handle_span(2.0, 1, 0, 3 * K - 1, 0, 2)
    assert response.decision.value == "redirect"
    assert cache._cached.score((1, 0)) == 2.0


def test_requests_helpers_build_usable_traces():
    # tiny sanity pin for Request geometry used throughout this module
    r = Request(1.0, 5, 0, 2 * K - 1)
    assert list(r.chunk_ids(K)) == [(5, 0), (5, 1)]
