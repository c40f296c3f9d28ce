"""Property-based snapshot tests: restore-then-continue equivalence.

Hypothesis generates arbitrary warm-up traces; after snapshot/restore
the cache must continue with decisions identical to the original on an
arbitrary continuation — for every snapshot-supported cache kind,
across alpha settings, through a real JSON round-trip (in-memory for
the originals, on-disk via ``save_snapshot``/``load_snapshot`` for the
all-kinds cut-point test).
"""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.cafe import CafeCache
from repro.core.costs import CostModel
from repro.core.policy import POLICY_REGISTRY, KernelCache
from repro.core.snapshot import (
    SNAPSHOT_KINDS,
    load_snapshot,
    load_state_dict,
    save_snapshot,
    state_dict,
)
from repro.core.xlru import XlruCache
from repro.trace.requests import Request

K = 1024
DISK = 10

#: kind tag -> fresh cache with a geometry shared by all kinds, so one
#: snapshot file per kind can be compared like-for-like.
_BUILDERS = {
    "xlru": lambda: XlruCache(DISK, chunk_bytes=K, cost_model=CostModel(2.0)),
    "cafe": lambda: CafeCache(DISK, chunk_bytes=K, cost_model=CostModel(2.0)),
}

# Every registered policy kernel joins the cut-point property via the
# generic KernelCache snapshot path — a new plugin is covered with no
# edit here.  LFU is the LFU-PK policy, so ``policy:lfu`` covers it, as
# ``policy:pull-lru`` covers PullLRU.
# Stress kwargs keep the housekeeping paths (LFU-PK aging) inside
# hypothesis-sized traces.
_POLICY_KWARGS = {"LFU-PK": {"aging_interval": 20}}
_BUILDERS.update(
    {
        f"policy:{spec.kind}": (
            lambda spec=spec: KernelCache(
                spec.policy_cls(**_POLICY_KWARGS.get(spec.name, {})),
                DISK,
                chunk_bytes=K,
            )
        )
        for spec in POLICY_REGISTRY.values()
    }
)


@st.composite
def split_trace(draw):
    """A warm-up trace and a continuation, time-ordered end to end."""
    n_warm = draw(st.integers(1, 40))
    n_cont = draw(st.integers(1, 25))
    t = 0.0
    requests = []
    for _ in range(n_warm + n_cont):
        t += draw(st.floats(0.01, 50.0))
        video = draw(st.integers(0, 6))
        c0 = draw(st.integers(0, 7))
        span = draw(st.integers(1, 3))
        requests.append(Request(t, video, c0 * K, (c0 + span) * K - 1))
    return requests[:n_warm], requests[n_warm:]


@settings(max_examples=25, deadline=None)
@given(data=split_trace(), alpha=st.sampled_from([0.5, 1.0, 2.0]))
def test_cafe_snapshot_continuation_identical(data, alpha):
    warmup, continuation = data
    original = CafeCache(DISK, chunk_bytes=K, cost_model=CostModel(alpha))
    for r in warmup:
        original.handle(r)

    # through actual JSON: catches anything non-serializable
    payload = json.loads(json.dumps(state_dict(original)))
    restored = CafeCache(DISK, chunk_bytes=K, cost_model=CostModel(alpha))
    load_state_dict(restored, payload)

    for r in continuation:
        a = original.handle(r)
        b = restored.handle(r)
        assert a.decision == b.decision
        assert a.filled_chunks == b.filled_chunks
        assert len(original) == len(restored)


@settings(max_examples=25, deadline=None)
@given(data=split_trace(), alpha=st.sampled_from([0.5, 1.0, 2.0]))
def test_xlru_snapshot_continuation_identical(data, alpha):
    warmup, continuation = data
    original = XlruCache(DISK, chunk_bytes=K, cost_model=CostModel(alpha))
    for r in warmup:
        original.handle(r)

    payload = json.loads(json.dumps(state_dict(original)))
    restored = XlruCache(DISK, chunk_bytes=K, cost_model=CostModel(alpha))
    load_state_dict(restored, payload)

    for r in continuation:
        a = original.handle(r)
        b = restored.handle(r)
        assert a.decision == b.decision
        assert a.filled_chunks == b.filled_chunks


@st.composite
def trace_with_cut(draw):
    """One time-ordered trace plus a randomized snapshot cut point."""
    n = draw(st.integers(2, 60))
    t = 0.0
    requests = []
    for _ in range(n):
        t += draw(st.floats(0.01, 50.0))
        video = draw(st.integers(0, 6))
        c0 = draw(st.integers(0, 7))
        span = draw(st.integers(1, 3))
        requests.append(Request(t, video, c0 * K, (c0 + span) * K - 1))
    cut = draw(st.integers(1, n - 1))
    return requests, cut


@settings(max_examples=20, deadline=None)
@given(data=trace_with_cut(), kind=st.sampled_from(sorted(SNAPSHOT_KINDS)))
def test_every_kind_survives_file_roundtrip_at_any_cut(data, kind):
    """save → load → continue is byte-identical for all supported kinds.

    The cache is snapshotted to a real JSON file at an arbitrary point
    mid-trace; the restored cache must finish the trace with decisions,
    fills and occupancy identical to the uninterrupted original.
    """
    requests, cut = data
    original = _BUILDERS[kind]()
    for r in requests[:cut]:
        original.handle(r)

    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        save_snapshot(original, path)
        restored = _BUILDERS[kind]()
        load_snapshot(restored, path)
    finally:
        os.unlink(path)

    assert len(restored) == len(original)
    for r in requests[cut:]:
        a = original.handle(r)
        b = restored.handle(r)
        assert a.decision == b.decision, (kind, r)
        assert a.filled_chunks == b.filled_chunks, (kind, r)
        assert len(original) == len(restored), (kind, r)
