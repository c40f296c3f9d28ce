"""End-to-end fault soak: SIGKILL a live daemon subprocess mid-trace
and require byte-identical totals vs the uninterrupted batch replay."""

import dataclasses
import random

import repro.serve.cli as serve_cli
import repro.serve.fleet as serve_fleet
from repro.serve.daemon import ServeConfig
from repro.serve.soak import (
    DaemonProcess,
    FleetProcess,
    batch_totals,
    kill_schedule,
    run_soak,
)
from repro.trace.requests import Request

K = 1024


def _trace(n, seed=11):
    rng = random.Random(seed)
    t = 0.0
    out = []
    for _ in range(n):
        t += rng.uniform(0.05, 2.0)
        c0 = rng.randrange(0, 8)
        span = rng.randrange(1, 4)
        out.append(
            Request(t, rng.randrange(0, 40), c0 * K, (c0 + span) * K - 1)
        )
    return out


def test_kill_schedule_is_seeded_and_inside_span():
    trace = _trace(100)
    schedule = kill_schedule(trace, restarts=3, seed=42)
    again = kill_schedule(trace, restarts=3, seed=42)
    times = [e.t for e in schedule.events]
    assert times == [e.t for e in again.events]
    assert len(times) == 3
    span = trace[-1].t - trace[0].t
    for t in times:
        assert trace[0].t + 0.1 * span <= t <= trace[0].t + 0.9 * span


#: ServeConfig fields that ``repro-serve`` takes as a flag, and those it
#: does not (daemon internals, and what each caller adds per process)
FLAG_FIELDS = (
    "algorithm",
    "disk_chunks",
    "chunk_bytes",
    "alpha_f2r",
    "rate",
    "burst",
    "queue_limit",
    "snapshot_every",
    "snapshot_keep",
    "request_timeout",
    "max_retries",
    "publish_interval",
    "test_hooks",
    "fault_rate",
    "fault_seed",
)
CALLER_FIELDS = ("snapshot_dir", "telemetry_path", "shard_id", "num_shards", "num_buckets")
INTERNAL_FIELDS = ("retry_base_delay", "degrade_high", "degrade_low")

OFF_DEFAULT = ServeConfig(
    algorithm="LFU",
    disk_chunks=77,
    chunk_bytes=4096,
    alpha_f2r=0.5,
    rate=123.5,
    burst=17.0,
    queue_limit=33,
    snapshot_dir="snaps",
    snapshot_every=11,
    snapshot_keep=5,
    request_timeout=1.25,
    max_retries=7,
    publish_interval=0.25,
    test_hooks=True,
    fault_rate=0.125,
    fault_seed=9,
)


def _parsed(argv, monkeypatch):
    """What ``repro-serve`` builds from ``argv``, without running it: the
    daemon's ServeConfig, or the fleet's FleetConfig."""
    built = []

    class Daemon:
        def __init__(self, config, events=None):
            built.append(config)

        async def run(self, **endpoints):
            return 0

    class Fleet:
        def __init__(self, config, events=None):
            built.append(config)

        def run(self):
            return 0

    monkeypatch.setattr(serve_cli, "ServeDaemon", Daemon)
    monkeypatch.setattr(serve_fleet, "ServeFleet", Fleet)
    assert serve_cli.main(argv[3:]) == 0  # drop "python -m repro.serve.cli"
    (config,) = built
    return config


def _flagged(config):
    return {name: getattr(config, name) for name in FLAG_FIELDS}


def test_flag_fields_are_every_field_and_set_off_default():
    names = {f.name for f in dataclasses.fields(ServeConfig)}
    assert names == set(FLAG_FIELDS + CALLER_FIELDS + INTERNAL_FIELDS)
    for name in FLAG_FIELDS:
        assert getattr(OFF_DEFAULT, name) != getattr(ServeConfig(), name), name


def test_daemon_argv_parses_back_to_its_config(monkeypatch):
    daemon = DaemonProcess("d.sock", OFF_DEFAULT, telemetry_path="t.jsonl")
    parsed = _parsed(daemon.args(), monkeypatch)
    assert _flagged(parsed) == _flagged(OFF_DEFAULT)
    assert parsed.snapshot_dir == "snaps"
    assert parsed.telemetry_path == "t.jsonl"


def test_fleet_worker_argv_parses_back_to_its_config(monkeypatch):
    fleet = FleetProcess("f.sock", "run", OFF_DEFAULT, workers=2, num_buckets=64)
    fleet_config = _parsed(fleet.args(), monkeypatch)
    assert fleet_config.snapshot_dir == "snaps"
    worker_argv = ["python", "-m", "repro.serve.cli", "--socket", "w0.sock"]
    worker_argv += ["--shard", "0", "--num-shards", "2", "--num-buckets", "64"]
    worker = _parsed(worker_argv + list(fleet_config.worker_args), monkeypatch)
    assert _flagged(worker) == _flagged(OFF_DEFAULT)
    assert (worker.shard_id, worker.num_shards, worker.num_buckets) == (0, 2, 64)


def test_batch_totals_counts_everything():
    trace = _trace(200)
    config = ServeConfig(algorithm="xLRU", disk_chunks=128, chunk_bytes=K)
    totals = batch_totals(config, trace)
    assert totals["requests"] == 200
    assert totals["served"] + totals["redirected"] == 200
    assert totals["requested_bytes"] == sum(r.b1 - r.b0 + 1 for r in trace)


def test_soak_with_kill_is_exact(tmp_path):
    """One SIGKILL mid-run; totals must equal the batch replay exactly
    and the watermark must cover every request exactly once."""
    trace = _trace(1500)
    config = ServeConfig(
        algorithm="xLRU",
        disk_chunks=256,
        chunk_bytes=K,
        snapshot_dir=str(tmp_path / "snaps"),
        snapshot_every=200,
        publish_interval=0.0,
    )
    outcome = run_soak(
        trace,
        config,
        restarts=1,
        fault_seed=20140413,
        malformed_every=100,
        window=128,
        socket_path=str(tmp_path / "serve.sock"),
    )
    assert outcome.restarts >= 1, "the fault schedule never fired"
    assert outcome.malformed_sent > 0
    assert outcome.malformed_acked == outcome.malformed_sent
    assert outcome.watermark == len(trace)
    assert outcome.totals == outcome.batch, outcome.describe()
    assert outcome.ok


def test_shard_plan_per_shard_seqs_are_contiguous():
    from repro.serve.soak import shard_plan

    trace = _trace(300)
    shards, seqs, positions = shard_plan(trace, 4, num_buckets=64)
    assert len(shards) == len(seqs) == 300
    # per-shard seq streams are each 1, 2, 3, ... with no gaps
    streams = {}
    for shard, seq in zip(shards, seqs):
        streams.setdefault(shard, []).append(seq)
    for shard, stream in streams.items():
        assert stream == list(range(1, len(stream) + 1))
        assert positions[shard] == [
            i for i, s in enumerate(shards) if s == shard
        ]
    assert sum(len(p) for p in positions) == 300


def test_sharded_batch_totals_partitions_the_trace():
    from repro.serve.soak import sharded_batch_totals

    trace = _trace(400)
    config = ServeConfig(algorithm="xLRU", disk_chunks=128, chunk_bytes=K)
    totals = sharded_batch_totals(config, trace, 2, num_buckets=64)
    assert totals["requests"] == 400
    assert totals["served"] + totals["redirected"] == 400
    assert totals["requested_bytes"] == sum(r.b1 - r.b0 + 1 for r in trace)
    # deterministic: same routing, same caches, same answer
    assert totals == sharded_batch_totals(config, trace, 2, num_buckets=64)


def test_sharded_soak_with_worker_and_router_kills_is_exact(tmp_path):
    """Multi-worker soak: SIGKILL one worker AND the router mid-trace;
    merged totals must equal the sharded batch replay byte-for-byte and
    the per-shard watermarks must cover every request exactly once (a
    resumed sharded fleet replays nothing twice — duplicates on the
    resume overlap are acked, never re-applied)."""
    from repro.serve.soak import run_sharded_soak

    trace = _trace(600)
    config = ServeConfig(
        algorithm="xLRU",
        disk_chunks=128,
        chunk_bytes=K,
        snapshot_dir=str(tmp_path / "snaps"),
        snapshot_every=50,
        publish_interval=0.0,
    )
    outcome = run_sharded_soak(
        trace,
        config,
        workers=2,
        restarts=2,
        fault_seed=20140413,
        malformed_every=100,
        window=64,
        num_buckets=64,
        socket_path=str(tmp_path / "pub.sock"),
    )
    assert outcome.workers == 2
    assert outcome.worker_kills >= 1, outcome.describe()
    assert outcome.router_kills >= 1, outcome.describe()
    assert outcome.malformed_acked == outcome.malformed_sent > 0
    assert outcome.watermark == len(trace)
    assert outcome.totals == outcome.batch, outcome.describe()
    assert outcome.ok
