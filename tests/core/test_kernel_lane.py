"""handle_span_block_kernel: the hoisted walks must mirror the reference.

xLRU, Cafe and KernelCache (which runs LFU and every registered
policy) override
:meth:`~repro.core.base.VideoCache.handle_span_block_kernel` with one
hoisted walk, behind a numpy screen (admission, residency) where the
cache has one.  The
contract is observable identity with the per-request reference
:meth:`~repro.core.base.VideoCache.handle_span_block` — same
responses, same end state, and with a probe attached the same hook
calls in the same order — plus the miss-index contract: ``misses``
is exactly the ascending index list of every response that is not the
interned ``SERVE_HIT``.  These tests drive the walks over adversarial
fuzz traces (ties, 1-chunk disks, alpha extremes, oversized spans) and
over the no-numpy fallback; a probed walk must never defer to
``handle_span``.

Satellite audit: the xLRU cleanup-cadence sweep pins the hand-inlined
tracker cleanup of the batched walks to ``_maybe_cleanup_tracker``
across degenerate intervals.
"""

from __future__ import annotations

import pytest

from repro.core.base import SERVE_HIT, VideoCache
from repro.sim.runner import build_cache
from repro.trace.columnar import pack_trace
from repro.verify.differential import KERNEL_ALGORITHMS, verify_kernel_lane
from repro.verify.fuzz import FuzzScenario, adversarial_trace

from tests.core.test_block_lane import RecordingProbe

K = 1024

#: ``repro-verify`` checks the LFU-PK walk once; these tests also drive
#: it through the ``LFU`` factory, the name the experiments use.
LANE_ALGORITHMS = KERNEL_ALGORITHMS + ("LFU",)


def replay_kernel(cache, packed, block: int):
    """Block-by-block kernel replay; returns (responses, ok_misses)."""
    responses = []
    ok = True
    n = len(packed)
    for lo in range(0, n, block):
        view = packed.block_view(lo, min(lo + block, n))
        got, misses = cache.handle_span_block_kernel(view)
        expected = [i for i, r in enumerate(got) if r is not SERVE_HIT]
        ok = ok and misses == expected
        responses.extend(got)
    return responses, ok


def replay_scalar_blocks(cache, packed, block: int):
    responses = []
    n = len(packed)
    for lo in range(0, n, block):
        view = packed.block_view(lo, min(lo + block, n))
        responses.extend(
            cache.handle_span_block(
                view.ts_l,
                view.videos_l,
                view.b0s_l,
                view.b1s_l,
                view.c0s_l,
                view.c1s_l,
            )
        )
    return responses


@pytest.mark.parametrize("algo", LANE_ALGORITHMS)
def test_every_kernel_algorithm_overrides_the_entry_point(algo):
    cache = build_cache(algo, 8, chunk_bytes=K)
    assert (
        type(cache).handle_span_block_kernel
        is not VideoCache.handle_span_block_kernel
    )


@pytest.mark.parametrize("algo", LANE_ALGORITHMS)
@pytest.mark.parametrize("seed,disk,alpha", [
    (101, 1, 0.5),
    (102, 2, 4.0),
    (103, 7, 1.0),
    (104, 32, 2.0),
])
@pytest.mark.parametrize("block", [1, 33, 256])
def test_kernel_matches_scalar_block_walk(algo, seed, disk, alpha, block):
    trace = adversarial_trace(seed=seed, num_requests=500, disk_chunks=disk)
    packed = pack_trace(trace, chunk_bytes=K)
    scalar = build_cache(algo, disk, alpha_f2r=alpha, chunk_bytes=K)
    kernel = build_cache(algo, disk, alpha_f2r=alpha, chunk_bytes=K)
    want = replay_scalar_blocks(scalar, packed, block)
    got, misses_ok = replay_kernel(kernel, packed, block)
    assert got == want
    assert misses_ok
    assert len(kernel) == len(scalar)


@pytest.mark.parametrize("algo", LANE_ALGORITHMS)
def test_kernel_lane_verifier_passes(algo):
    """The repro-verify kernel-lane check is green on the production caches."""
    scenario = FuzzScenario(
        seed=2024,
        num_requests=600,
        disk_chunks=7,
        chunk_bytes=1000,
        alpha_f2r=2.0,
        cache_kwargs={
            "xLRU": {"tracker_cleanup_interval": 97},
            "LFU": {"aging_interval": 89},
        },
    )
    result = verify_kernel_lane(algo, scenario)
    assert result.ok, str(result.divergence)


@pytest.mark.parametrize("algo", LANE_ALGORITHMS)
def test_kernel_state_keeps_evolving_identically(algo):
    """Post-kernel caches behave exactly like post-scalar caches."""
    head = adversarial_trace(seed=7, num_requests=400, disk_chunks=8)
    tail = adversarial_trace(seed=8, num_requests=150, disk_chunks=8)
    shift = head[-1].t
    tail = [type(r)(t=r.t + shift, video=r.video, b0=r.b0, b1=r.b1) for r in tail]
    packed = pack_trace(head, chunk_bytes=K)
    scalar = build_cache(algo, 8, chunk_bytes=K)
    kernel = build_cache(algo, 8, chunk_bytes=K)
    replay_scalar_blocks(scalar, packed, 64)
    replay_kernel(kernel, packed, 64)
    assert [scalar.handle(r) for r in tail] == [kernel.handle(r) for r in tail]


@pytest.mark.parametrize("algo", LANE_ALGORITHMS)
def test_kernel_default_fallback_when_probe_attached(algo, monkeypatch):
    """With a probe attached each hoisted walk keeps running: it never
    calls ``handle_span``, and its hook log equals the per-request
    reference's, call for call."""
    trace = adversarial_trace(seed=21, num_requests=200, disk_chunks=8)
    packed = pack_trace(trace, chunk_bytes=K)
    reference = build_cache(algo, 8, chunk_bytes=K)
    reference.probe = RecordingProbe()
    probed = build_cache(algo, 8, chunk_bytes=K)
    probed.probe = RecordingProbe()

    def refuse(*args):
        raise AssertionError(f"the {algo} walk called handle_span")

    monkeypatch.setattr(probed, "handle_span", refuse)
    want = replay_scalar_blocks(reference, packed, 50)
    got, misses_ok = replay_kernel(probed, packed, 50)
    assert got == want
    assert misses_ok
    # repr: KernelCache reports NaN eviction ages, and NaN != NaN
    assert repr(probed.probe.log) == repr(reference.probe.log)


# -- satellite audit: xLRU inlined tracker cleanup cadence ---------------------


@pytest.mark.parametrize("interval", [1, 2, 1023])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_xlru_cleanup_cadence_parity_across_lanes(interval, alpha):
    """The hand-inlined cleanup in the batched xLRU walks fires at the
    same positions, with the same cutoff and the same strictness, as
    ``_maybe_cleanup_tracker`` — across degenerate intervals (1 = fire
    every request, 2, and one larger than the trace)."""
    trace = adversarial_trace(seed=77, num_requests=700, disk_chunks=6)
    packed = pack_trace(trace, chunk_bytes=K)
    n = len(packed)

    def make():
        return build_cache(
            "xLRU",
            6,
            alpha_f2r=alpha,
            chunk_bytes=K,
            tracker_cleanup_interval=interval,
        )

    scalar = make()
    walker = make()
    kernel = make()
    want = [scalar.handle(r) for r in trace]
    got_walk = replay_scalar_blocks(walker, packed, 97)
    got_kernel, misses_ok = replay_kernel(kernel, packed, 97)
    assert got_walk == want
    assert got_kernel == want
    assert misses_ok
    for other in (walker, kernel):
        assert other._tracker.raw_entries() == scalar._tracker.raw_entries()
        assert other._disk.raw_entries() == scalar._disk.raw_entries()
        assert other._requests_since_cleanup == scalar._requests_since_cleanup
