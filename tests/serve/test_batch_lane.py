"""The serve block lane: a batch must answer as one-at-a-time application.

The decision worker hands every request ready at a wake-up to
:meth:`DecisionService.apply_batch`, which judges the seq discipline per
request against a running watermark and sends the in-order run through
one block-entry call.  The scenario rows below build request scripts
that mix in-order, duplicate, gap, unsequenced and stale requests (plus
misrouted ones on a sharded worker), cut them at random batch
boundaries, and check every response, the totals, the watermark, the
stream clock and the cache's end state against applying the same
script one request at a time.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cdn.sharding import shard_of
from repro.core.snapshot import state_dict, supports_snapshot
from repro.serve.daemon import DecisionService, ServeConfig
from repro.serve.protocol import (
    decide_and_account,
    decision_response,
    encode_response,
    new_totals,
)
from repro.serve.soak import batch_totals
from repro.sim.engine import NO_KERNELS_ENV
from repro.sim.runner import CACHE_FACTORIES, build_cache
from repro.trace.requests import Request
from repro.verify.fuzz import adversarial_trace

K = 1024
DISK = 12
ONLINE = sorted(
    name for name, factory in CACHE_FACTORIES.items() if not factory.offline
)
#: a sharded worker's coordinates: shard 0 of 2 over 16 buckets
SHARD = {"shard_id": 0, "num_shards": 2, "num_buckets": 16}


def _config(algo, sharded):
    return ServeConfig(
        algorithm=algo,
        disk_chunks=DISK,
        chunk_bytes=K,
        alpha_f2r=2.0,
        **(SHARD if sharded else {}),
    )


def _owned(video, sharded):
    return not sharded or shard_of(
        video, SHARD["num_shards"], SHARD["num_buckets"]
    ) == SHARD["shard_id"]


def script(seed, sharded, n=300):
    """A request script over an adversarial trace, with the kind mix.

    The watermark is modelled as the script goes (nothing fails, so
    every in-order, unsequenced and stale request is consumed), which
    keeps in-order requests in order after the gaps and duplicates.
    """
    rng = random.Random(seed)
    base = adversarial_trace(seed=seed, num_requests=4 * n, disk_chunks=DISK)
    own = [r for r in base if _owned(r.video, sharded)]
    foreign = [r for r in base if not _owned(r.video, sharded)]
    out = []
    watermark = 0
    clock = float("-inf")
    trace = iter(own)
    while len(out) < n:
        roll = rng.random()
        r = next(trace)
        if roll < 0.08 and watermark:
            seq = rng.randint(1, watermark)  # duplicate
        elif roll < 0.14:
            seq = watermark + rng.randint(2, 4)  # gap
        elif roll < 0.22 and clock > float("-inf"):
            seq = watermark = watermark + 1  # stale: t behind the clock
            r = Request(clock - rng.uniform(0.5, 3.0), r.video, r.b0, r.b1)
        elif roll < 0.28 and foreign:
            r = rng.choice(foreign)  # misrouted: never consumed
            seq = watermark + 1
        elif roll < 0.40:
            seq = None  # unsequenced: implicitly next
            watermark += 1
            clock = max(clock, r.t)
        else:
            seq = watermark = watermark + 1
            clock = max(clock, r.t)
        out.append(
            {"seq": seq, "t": r.t, "video": r.video, "b0": r.b0, "b1": r.b1}
        )
    return out


def cut(requests, rng):
    """Random batch boundaries, batches of one included."""
    batches = []
    i = 0
    while i < len(requests):
        size = 1 if rng.random() < 0.3 else rng.randint(2, 24)
        batches.append(requests[i : i + size])
        i += size
    return batches


def end_state(service, requests):
    cache = service.cache
    if supports_snapshot(cache):
        return state_dict(cache)
    chunks = {
        (r["video"], c)
        for r in requests
        for c in range(r["b0"] // K, r["b1"] // K + 1)
    }
    return len(cache), sorted(c for c in chunks if c in cache)


def consumed(requests, responses):
    """The requests that took a seq, in order, as trace requests."""
    return [
        Request(r["t"], r["video"], r["b0"], r["b1"])
        for r, response in zip(requests, responses)
        if response.get("kind") == "decision"
    ]


@pytest.mark.parametrize("algo", ONLINE)
@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "sharded"])
@pytest.mark.parametrize("kernels", ["on", "off"])
def test_batches_answer_as_one_at_a_time(monkeypatch, algo, sharded, kernels):
    if kernels == "off":
        monkeypatch.setenv(NO_KERNELS_ENV, "1")
    else:
        monkeypatch.delenv(NO_KERNELS_ENV, raising=False)
    config = _config(algo, sharded)
    for seed in (3, 17):
        requests = script(seed, sharded)
        single = DecisionService(config)
        want = [single.apply(r) for r in requests]
        batched = DecisionService(config)
        got = []
        for batch in cut(requests, random.Random(seed)):
            responses, failure = batched.apply_batch(batch)
            assert failure is None
            assert len(responses) == len(batch)
            got.extend(responses)
        kinds = {r.get("kind") or r.get("error") for r in want}
        assert {"decision", "duplicate", "sequence-gap"} <= kinds
        assert any(r.get("decision") == "rejected" for r in want)
        assert ("misrouted" in kinds) == sharded
        assert got == want
        assert batched.totals == single.totals
        assert batched.watermark == single.watermark
        assert batched.last_t == single.last_t
        assert end_state(batched, requests) == end_state(single, requests)
        assert batched.totals == batch_totals(config, consumed(requests, want))


def test_fault_splits_the_run_at_the_item():
    """A transient fault at item i applies the run before i and answers
    it; item i and the rest are left for the caller, untouched."""
    config = ServeConfig(
        algorithm="xLRU", disk_chunks=DISK, chunk_bytes=K,
        test_hooks=True, fault_rate=0.5, fault_seed=2,
    )
    requests = [
        {"seq": s, "t": float(s), "video": s % 5, "b0": 0, "b1": 2 * K - 1}
        for s in range(1, 41)
    ]
    service = DecisionService(config)
    rng = random.Random(config.fault_seed)
    start = 0
    while start < len(requests):
        responses, failure = service.apply_batch(requests[start:])
        # the draws are one per attempt per in-order item, in item order
        for _ in responses:
            assert rng.random() >= config.fault_rate
        if failure is None:
            break
        assert rng.random() < config.fault_rate
        start += len(responses)
        assert service.watermark == start
        reference = DecisionService(ServeConfig(
            algorithm="xLRU", disk_chunks=DISK, chunk_bytes=K,
        ))
        for r in requests[:start]:
            reference.apply(r)
        assert service.totals == reference.totals
    assert service.watermark == len(requests)


def test_injected_crash_applies_the_run_before_it():
    config = ServeConfig(
        algorithm="PullLRU", disk_chunks=DISK, chunk_bytes=K, test_hooks=True
    )
    service = DecisionService(config)
    service.apply({"seq": 1, "t": 1.0, "video": 1, "b0": 0, "b1": K - 1})
    service.arm_crash()
    batch = [
        {"seq": 1, "t": 1.0, "video": 1, "b0": 0, "b1": K - 1},  # duplicate
        {"seq": 2, "t": 2.0, "video": 2, "b0": 0, "b1": K - 1},  # crashes
        {"seq": 3, "t": 3.0, "video": 3, "b0": 0, "b1": K - 1},
    ]
    responses, failure = service.apply_batch(batch)
    assert isinstance(failure, RuntimeError)
    assert [r["kind"] for r in responses] == ["duplicate"]
    assert service.watermark == 1
    assert service.totals["requests"] == 1
    responses, failure = service.apply_batch(batch[1:])
    assert failure is None
    assert [r["seq"] for r in responses] == [2, 3]
    assert service.watermark == 3


def test_failing_walk_fails_at_the_run_start():
    config = ServeConfig(algorithm="PullLRU", disk_chunks=DISK, chunk_bytes=K)
    service = DecisionService(config)
    service.apply({"seq": 1, "t": 5.0, "video": 1, "b0": 0, "b1": K - 1})
    totals, last_t = dict(service.totals), service.last_t
    batch = [
        {"seq": 1, "t": 5.0, "video": 1, "b0": 0, "b1": K - 1},  # duplicate
        {"seq": 2, "t": 6.0, "video": 2, "b0": 0, "b1": K - 1},  # the run
        {"seq": 3, "t": 1.0, "video": 3, "b0": 0, "b1": K - 1},  # stale
        {"seq": 3, "t": 7.0, "video": 3, "b0": 0, "b1": K - 1},  # duplicate
    ]
    entry = service._entry

    def failing(block):
        raise ValueError("walk failed")

    service._entry = failing
    responses, failure = service.apply_batch(batch)
    assert isinstance(failure, ValueError)
    # the duplicate before the run is answered; the one after it was
    # judged against the run's seqs, so it is not
    assert [r["kind"] for r in responses] == ["duplicate"]
    assert service.watermark == 1
    assert service.last_t == last_t
    assert service.totals == totals  # the stale request is not counted
    service._entry = entry
    responses, failure = service.apply_batch(batch[1:])
    assert failure is None
    assert [r["seq"] for r in responses] == [2, 3, 3]
    assert [r["kind"] for r in responses] == ["decision", "decision", "duplicate"]
    assert service.totals["rejected_stale"] == 1


# -- wire bytes ----------------------------------------------------------------


def _fields():
    """Real response fields of each decision kind, from the accounting."""
    totals = new_totals()
    xlru = build_cache("xLRU", 64, alpha_f2r=2.0, chunk_bytes=K)
    redirect, last_t = decide_and_account(xlru, totals, 1.0, 5, 0, K - 1, 0.0)
    pull = build_cache("PullLRU", 2, alpha_f2r=2.0, chunk_bytes=K)
    fill, last_t = decide_and_account(pull, totals, 2.0, 5, 0, 2 * K - 1, 0.0)
    hit, last_t = decide_and_account(pull, totals, 3.0, 5, 0, 2 * K - 1, last_t)
    evict, last_t = decide_and_account(pull, totals, 4.0, 6, 0, 2 * K - 1, last_t)
    stale, _ = decide_and_account(pull, totals, 1.5, 7, 0, K - 1, last_t)
    return {
        "redirect": redirect,
        "fill": fill,
        "hit": hit,
        "evict": evict,
        "stale": stale,
    }


@pytest.mark.parametrize("kind", ["redirect", "fill", "hit", "evict", "stale"])
@pytest.mark.parametrize("seq", [1, 12345, 2**62])
def test_templated_decision_lines_are_json_dumps(kind, seq):
    fields = _fields()[kind]
    response = decision_response(seq, fields)
    assert encode_response(response) == (json.dumps(response) + "\n").encode()


def test_fields_cover_every_template():
    fields = _fields()
    assert fields["redirect"] == {"decision": "redirect"}
    assert fields["fill"]["filled_chunks"] == 2
    assert fields["hit"]["filled_chunks"] == 0
    assert fields["evict"]["evicted_chunks"] == 2
    assert fields["stale"]["error"] == "stale-timestamp"
