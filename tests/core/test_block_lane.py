"""The block entry: each cache's one block walk must mirror handle_span.

Every block lane — the engine's blocks, the fleet's whole-shard edge
batches and its leveled upstream buffers — makes one call per block
into a cache's :meth:`~repro.core.base.VideoCache.handle_span_block_kernel`.
xLRU, PullLRU, LFU and KernelCache override it with one hoisted walk,
numpy-screened on a vectorized view with no probe attached; every
other cache runs the base per-request walk.  The scenario rows below
drive the entry for every online cache on both views, with and without
a probe, at four block sizes, and check it against per-request
``handle_span``: responses, the miss list, end state and behaviour
afterwards.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.core.base import SERVE_HIT, VideoCache
from repro.core.cafe import CafeCache
from repro.core.snapshot import state_dict, supports_snapshot
from repro.sim.runner import CACHE_FACTORIES, build_cache
from repro.trace.columnar import BlockView, pack_trace
from repro.trace.requests import Request
from repro.verify.fuzz import adversarial_trace

K = 1024
DISK = 12
ONLINE = sorted(
    name for name, factory in CACHE_FACTORIES.items() if not factory.offline
)

#: Housekeeping cadences shrunk so tracker cleanup and frequency aging
#: fire inside the 400-request trace.  Aging every 5 requests lets a
#: video's hit count fall to zero while its chunks are still resident:
#: the case the LFU screens' zero-residency guard exists for.
KNOBS = {
    "xLRU": {"tracker_cleanup_interval": 97},
    "LFU": {"aging_interval": 5},
    "LFU-PK": {"aging_interval": 5},
}

#: (view, probe attached): the lanes every (algorithm, block size) row
#: runs on.
LANES = [
    ("vectorized", False),
    ("vectorized", True),
    ("unvectorized", False),
    ("unvectorized", True),
]


class RecordingProbe:
    """Logs every hook call; attaching one must not change a decision."""

    def __init__(self):
        self.log = []

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise AttributeError(name)

        def hook(*args):
            self.log.append((name,) + args)

        return hook


def make(algo: str, probe: bool) -> VideoCache:
    cache = build_cache(algo, DISK, alpha_f2r=2.0, chunk_bytes=K, **KNOBS.get(algo, {}))
    if probe:
        cache.probe = RecordingProbe()
    return cache


def unvectorized(view: BlockView) -> BlockView:
    """The same block with only the list columns (the no-numpy lane)."""
    lists = (
        view.ts_l, view.videos_l, view.b0s_l, view.b1s_l,
        view.c0s_l, view.c1s_l, view.num_bytes_l, view.num_chunks_l,
    )
    return BlockView(view.chunk_bytes, lists, None)


def replay_entry(cache, packed, block: int, view_kind: str):
    """Block-by-block entry replay; returns (responses, misses ok)."""
    responses = []
    ok = True
    n = len(packed)
    for lo in range(0, n, block):
        view = packed.block_view(lo, min(lo + block, n))
        if view_kind == "unvectorized":
            view = unvectorized(view)
        got, misses = cache.handle_span_block_kernel(view)
        ok = ok and misses == [i for i, r in enumerate(got) if r is not SERVE_HIT]
        responses.extend(got)
    return responses, ok


def replay_requests(cache, requests):
    k = cache.chunk_bytes
    return [
        cache.handle_span(r.t, r.video, r.b0, r.b1, r.b0 // k, r.b1 // k)
        for r in requests
    ]


def end_state(cache, requests):
    """Everything observable about ``cache``: its snapshot when the
    type has one, else occupancy over every chunk the trace touched."""
    if supports_snapshot(cache):
        return state_dict(cache)
    chunks = {c for r in requests for c in r.chunk_ids(K)}
    return len(cache), sorted(c for c in chunks if c in cache)


def probe_log(cache):
    # repr: KernelCache reports NaN eviction ages, and NaN != NaN
    return repr(cache.probe.log) if cache.probe is not None else None


@pytest.fixture(scope="module")
def traces():
    head = adversarial_trace(seed=11, num_requests=400, disk_chunks=DISK)
    tail = adversarial_trace(seed=29, num_requests=150, disk_chunks=DISK)
    shift = head[-1].t
    tail = [Request(r.t + shift, r.video, r.b0, r.b1) for r in tail]
    return head, pack_trace(head, chunk_bytes=K), tail


@pytest.mark.parametrize("algo", ONLINE)
@pytest.mark.parametrize("block", [1, 7, 64, 400])
def test_block_lane_matches_scalar_lane(traces, algo, block):
    head, packed, tail = traces
    for view_kind, probe in LANES:
        lane = f"{view_kind} view, probe {'on' if probe else 'off'}"
        reference = make(algo, probe)
        walked = make(algo, probe)
        want = replay_requests(reference, head)
        got, misses_ok = replay_entry(walked, packed, block, view_kind)
        assert got == want, lane
        assert misses_ok, lane
        assert end_state(walked, head) == end_state(reference, head), lane
        assert probe_log(walked) == probe_log(reference), lane
        assert replay_requests(walked, tail) == replay_requests(reference, tail), lane
        assert end_state(walked, tail) == end_state(reference, tail), lane


@pytest.mark.parametrize("algo", ONLINE)
def test_state_after_block_replay_behaves_identically(traces, algo):
    """Switching lanes mid-trace is seamless: blocks through the entry
    interleaved with per-request calls give the per-request results, so
    a walk keeps no state in locals across a block boundary."""
    head, packed, _tail = traces
    reference = make(algo, False)
    mixed = make(algo, False)
    want = replay_requests(reference, head)
    got = []
    for lo in range(0, len(head), 50):
        hi = min(lo + 50, len(head))
        if lo // 50 % 2:
            got.extend(replay_requests(mixed, head[lo:hi]))
        else:
            got.extend(mixed.handle_span_block_kernel(packed.block_view(lo, hi))[0])
    assert got == want
    assert end_state(mixed, head) == end_state(reference, head)


@pytest.mark.parametrize("algo", ONLINE)
def test_empty_block_is_a_noop(traces, algo):
    _head, packed, _tail = traces
    cache = make(algo, False)
    for view in (packed.block_view(0, 0), unvectorized(packed.block_view(0, 0))):
        assert cache.handle_span_block_kernel(view) == ([], [])
    assert len(cache) == 0


def test_only_the_base_defines_the_reference_walk():
    """No class in the package overrides ``handle_span_block``: a
    cache's hoisted walk is its block entry, and the base walk stays
    independent code."""
    owners = set()
    for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + "."):
        if info.name.endswith(".__main__"):  # entry scripts, not modules
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and "handle_span_block" in vars(cls)
            ):
                owners.add(cls)
    assert owners == {VideoCache}


def test_cafe_defines_no_block_method():
    """Cafe's block entry is the base per-request walk."""
    assert "handle_span_block" not in vars(CafeCache)
    assert "handle_span_block_kernel" not in vars(CafeCache)
