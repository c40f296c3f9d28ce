"""Persisted state written by earlier versions keeps loading.

``tests/fixtures/snapshots/`` holds one snapshot per kind a release has
written — ``xlru``, ``cafe``, the legacy ``lfu`` and ``pull-lru`` of
the retired hand-fused LFU and PullLRU caches, and ``policy:<kind>``
for each registered policy — each with the request tail that followed
it and the outcome that version gave for every request of the tail.
``tests/fixtures/serve_lfu/`` and ``serve_pull_lru/`` are LFU and
PullLRU ``repro-serve`` snapshot directories (manifest plus one payload
whose cache state is a legacy ``lfu`` or ``pull-lru`` snapshot);
``serve_lfu_tail.json`` and ``serve_pull_lru_tail.json`` hold their
continuations.

Loading a fixture into today's code must continue exactly as the
version that wrote it did.  A format change that cannot do that must
refuse by name instead, and regenerate nothing here.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.core.snapshot import SNAPSHOT_KINDS, load_state_dict, state_dict
from repro.obs.events import EventLog
from repro.serve.daemon import DecisionService, ServeConfig
from repro.sim.runner import build_cache
from repro.trace.columnar import pack_trace
from repro.trace.requests import Request

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SNAPSHOTS = sorted((FIXTURES / "snapshots").glob("*.json"))


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _restored(doc):
    cache = build_cache(
        doc["algorithm"],
        doc["disk_chunks"],
        alpha_f2r=doc["alpha_f2r"],
        chunk_bytes=doc["chunk_bytes"],
        **doc["kwargs"],
    )
    load_state_dict(cache, doc["snapshot"])
    return cache


def _tail(doc):
    return [Request(t, video, b0, b1) for t, video, b0, b1 in doc["tail"]]


def _outcomes(responses):
    return [[r.decision.value, r.filled_chunks, r.evicted_chunks] for r in responses]


def test_fixtures_cover_every_kind_and_the_legacy_lfu_kind():
    kinds = {_load(path)["kind"] for path in SNAPSHOTS}
    assert kinds == set(SNAPSHOT_KINDS) | {"lfu", "pull-lru"}


@pytest.mark.parametrize("path", SNAPSHOTS, ids=lambda p: p.stem)
def test_snapshot_fixture_continues_identically(path):
    doc = _load(path)
    cache = _restored(doc)
    assert _outcomes(cache.handle(r) for r in _tail(doc)) == doc["outcomes"]


@pytest.mark.parametrize("path", SNAPSHOTS, ids=lambda p: p.stem)
def test_snapshot_fixture_continues_identically_on_the_block_lane(path):
    doc = _load(path)
    cache = _restored(doc)
    packed = pack_trace(_tail(doc), chunk_bytes=doc["chunk_bytes"])
    responses, _misses = cache.handle_span_block_kernel(packed.block_view(0, len(packed)))
    assert _outcomes(responses) == doc["outcomes"]


def test_legacy_lfu_snapshot_loads_as_policy_lfu():
    doc = _load(FIXTURES / "snapshots" / "lfu.json")
    cache = _restored(doc)
    legacy = doc["snapshot"]
    state = state_dict(cache)
    assert state["kind"] == "policy:lfu"
    assert state["policy_state"]["handled"] == legacy["handled"]
    assert state["policy_state"]["video_hits"] == legacy["video_hits"]
    assert state["policy_state"]["freq"] == legacy["freq"]
    assert [[v, c] for v, c, _score in state["cached"]] == legacy["cached"]


def test_legacy_lfu_snapshot_refuses_a_cached_chunk_without_frequency():
    doc = _load(FIXTURES / "snapshots" / "lfu.json")
    snapshot = doc["snapshot"]
    cached = snapshot["cached"][0]
    snapshot["freq"] = [entry for entry in snapshot["freq"] if entry[:2] != cached]
    with pytest.raises(ValueError, match="missing frequency"):
        _restored(doc)


def test_legacy_lfu_snapshot_refuses_mismatched_knobs():
    doc = _load(FIXTURES / "snapshots" / "lfu.json")
    doc["kwargs"] = dict(doc["kwargs"], aging_interval=doc["kwargs"]["aging_interval"] + 1)
    with pytest.raises(ValueError, match="aging_interval"):
        _restored(doc)


def test_legacy_pull_lru_snapshot_loads_as_policy_pull_lru():
    doc = _load(FIXTURES / "snapshots" / "pull-lru.json")
    state = state_dict(_restored(doc))
    assert state["kind"] == "policy:pull-lru"
    assert state["policy_state"] == {}
    # recency order kept, each chunk scored by its access time
    assert state["cached"] == doc["snapshot"]["disk"]


def test_legacy_pull_lru_snapshot_refuses_a_decreasing_access_time():
    doc = _load(FIXTURES / "snapshots" / "pull-lru.json")
    disk = doc["snapshot"]["disk"]
    disk[-1][2] = disk[0][2] - 1.0
    with pytest.raises(ValueError, match="non-decreasing"):
        _restored(doc)


def test_lfu_serve_snapshot_directory_resumes_warm(tmp_path):
    _resume_serve_fixture(tmp_path, "serve_lfu")


def test_pull_lru_serve_snapshot_directory_resumes_warm(tmp_path):
    _resume_serve_fixture(tmp_path, "serve_pull_lru")


def _resume_serve_fixture(tmp_path, name):
    tail = _load(FIXTURES / f"{name}_tail.json")
    snapshot_dir = tmp_path / "snapshots"
    shutil.copytree(FIXTURES / name, snapshot_dir)
    events = EventLog()
    service = DecisionService(
        ServeConfig(**tail["config"], snapshot_dir=str(snapshot_dir)), events=events
    )
    assert service.resumed, [str(event) for event in events]
    assert [event.tag for event in events] == ["snapshot-resume"]
    assert service.watermark == tail["watermark"]
    assert service.totals == tail["totals_at_snapshot"]
    requests = [
        {"seq": tail["watermark"] + 1 + i, "t": t, "video": v, "b0": b0, "b1": b1}
        for i, (t, v, b0, b1) in enumerate(tail["tail"])
    ]
    responses, failure = service.apply_batch(requests)
    assert failure is None
    assert responses == tail["responses"]
    assert service.totals == tail["totals"]
