"""In-process asyncio daemon tests: one event loop per test, real
unix-socket connections, no external processes (except the stdin lane,
which by nature needs a subprocess)."""

import asyncio
import json
import random
import subprocess
import sys

import pytest

from repro.core.base import VideoCache
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.soak import batch_totals
from repro.sim.engine import NO_KERNELS_ENV
from repro.verify.fuzz import adversarial_trace

K = 1024


def _config(tmp_path, **kw):
    kw.setdefault("algorithm", "PullLRU")
    kw.setdefault("disk_chunks", 64)
    kw.setdefault("chunk_bytes", K)
    kw.setdefault("publish_interval", 0.0)  # tests opt in explicitly
    return ServeConfig(**kw)


def run(coro):
    """Drive one test coroutine with a hard safety timeout."""
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


class Harness:
    """One started daemon on a unix socket plus client plumbing."""

    def __init__(self, tmp_path, **kw):
        self.socket_path = str(tmp_path / "serve.sock")
        self.daemon = ServeDaemon(_config(tmp_path, **kw))

    async def __aenter__(self):
        await self.daemon.start(unix_path=self.socket_path)
        return self

    async def __aexit__(self, *exc):
        self.daemon.request_stop()
        await self.daemon.shutdown(drain_timeout=10)

    async def connect(self):
        return await asyncio.open_unix_connection(self.socket_path)

    @staticmethod
    async def send_line(writer, text):
        writer.write(text.encode() + b"\n")
        await writer.drain()

    @staticmethod
    async def read_json(reader):
        line = await reader.readline()
        assert line, "daemon closed the connection"
        return json.loads(line)

    async def rpc(self, reader, writer, obj):
        await self.send_line(writer, json.dumps(obj))
        return await self.read_json(reader)

    async def request(self, reader, writer, seq, t, video=1, b0=0, b1=K - 1):
        return await self.rpc(
            reader, writer,
            {"seq": seq, "t": t, "video": video, "b0": b0, "b1": b1},
        )


def _slow_worker(daemon, delay):
    """Make every dequeued item take ``delay`` seconds to decide."""
    original = daemon._decide_batch

    async def slowed(batch):
        await asyncio.sleep(delay * len(batch))
        await original(batch)

    daemon._decide_batch = slowed


class TestRequestResponse:
    def test_hello_and_decisions(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path) as h:
                reader, writer = await h.connect()
                hello = await h.rpc(reader, writer, {"op": "hello"})
                assert hello["kind"] == "hello"
                assert hello["watermark"] == 0
                assert hello["algorithm"] == "PullLRU"
                assert hello["resumed"] is False

                for seq in (1, 2, 3):
                    response = await h.request(reader, writer, seq, float(seq))
                    assert response["ok"], response
                    assert response["seq"] == seq
                    assert response["decision"] in ("serve", "redirect")

                stats = await h.rpc(reader, writer, {"op": "stats"})
                # the key a router's stats fold reports its shard count in
                assert stats["workers"] == 1
                assert stats["watermark"] == 3
                assert stats["totals"]["requests"] == 3
                assert stats["slo"]["decisions"] == 3
                writer.close()

        run(scenario())

    def test_duplicate_and_gap_over_the_wire(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path) as h:
                reader, writer = await h.connect()
                await h.request(reader, writer, 1, 1.0)
                dup = await h.request(reader, writer, 1, 1.0)
                assert dup["kind"] == "duplicate" and dup["watermark"] == 1
                gap = await h.request(reader, writer, 9, 9.0)
                assert gap["ok"] is False and gap["error"] == "sequence-gap"
                writer.close()

        run(scenario())


class TestMalformedInput:
    def test_malformed_lines_are_answered_never_fatal(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path) as h:
                reader, writer = await h.connect()
                for bad in ("not json", '{"t": "x", "video": -3', "[]", ""):
                    await h.send_line(writer, bad)
                    response = await h.read_json(reader)
                    assert response["ok"] is False
                    assert response["error"] == "malformed"
                # the daemon is still fully alive afterwards
                response = await h.request(reader, writer, 1, 1.0)
                assert response["ok"]
                stats = await h.rpc(reader, writer, {"op": "stats"})
                assert stats["counters"]["serve.malformed"] == 4
                assert stats["watermark"] == 1
                writer.close()

        run(scenario())

    def test_unknown_op_is_unsupported(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path) as h:
                reader, writer = await h.connect()
                response = await h.rpc(reader, writer, {"op": "reboot"})
                assert response["error"] == "unsupported"
                writer.close()

        run(scenario())


class TestOverload:
    def test_2x_overload_sheds_structured_and_survives(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path, queue_limit=8) as h:
                _slow_worker(h.daemon, 0.02)
                reader, writer = await h.connect()
                # 2x the queue bound, pipelined in one burst, unsequenced
                # so shed requests don't open sequence gaps
                burst = 16
                for i in range(burst):
                    writer.write(
                        (json.dumps(
                            {"t": float(i), "video": i, "b0": 0, "b1": K - 1}
                        ) + "\n").encode()
                    )
                await writer.drain()
                shed, served = 0, 0
                for _ in range(burst):
                    response = await h.read_json(reader)
                    if response.get("ok"):
                        served += 1
                    else:
                        assert response["error"] == "overloaded"
                        assert response["retry_after"] >= 0.0
                        shed += 1
                assert shed >= 1, "2x overload must shed"
                assert served >= 8, "admitted requests must still be served"
                # the daemon never crashed: stats still answers
                stats = await h.rpc(reader, writer, {"op": "stats"})
                assert stats["counters"]["serve.shed"] == shed
                assert stats["watermark"] == served
                writer.close()

        run(scenario())

    def test_rate_limit_sheds_with_retry_after(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path, rate=1.0, burst=1.0) as h:
                reader, writer = await h.connect()
                first = await h.request(reader, writer, None, 1.0)
                assert first["ok"]
                second = await h.rpc(
                    reader, writer,
                    {"t": 2.0, "video": 1, "b0": 0, "b1": K - 1},
                )
                assert second["error"] == "overloaded"
                assert second["retry_after"] > 0.0
                writer.close()

        run(scenario())

    def test_shed_response_echoes_seq(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path, queue_limit=1) as h:
                _slow_worker(h.daemon, 0.05)
                reader, writer = await h.connect()
                for seq in (1, 2, 3):
                    writer.write(
                        (json.dumps(
                            {"seq": seq, "t": float(seq), "video": 1,
                             "b0": 0, "b1": K - 1}
                        ) + "\n").encode()
                    )
                await writer.drain()
                responses = [await h.read_json(reader) for _ in range(3)]
                shed = [r for r in responses if r.get("error") == "overloaded"]
                assert shed and all("seq" in r for r in shed)
                writer.close()

        run(scenario())


class TestTimeouts:
    def test_deadline_covers_queue_wait_and_preserves_seq(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path, request_timeout=0.0) as h:
                reader, writer = await h.connect()
                response = await h.request(reader, writer, 1, 1.0)
                assert response["ok"] is False
                assert response["error"] == "timeout"
                assert response["seq"] == 1
                stats = await h.rpc(reader, writer, {"op": "stats"})
                assert stats["watermark"] == 0  # seq NOT consumed
                assert stats["counters"]["serve.timeouts"] == 1
                writer.close()

        run(scenario())


class TestWorkerSupervision:
    def test_crashed_worker_restarts_and_request_retries(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path, test_hooks=True) as h:
                reader, writer = await h.connect()
                armed = await h.rpc(reader, writer, {"op": "crash-worker"})
                assert armed["kind"] == "crash-armed"
                # the poisoned request dies in the worker (no response);
                # the client-side retry of the SAME seq lands exactly once
                await h.send_line(
                    writer,
                    json.dumps({"seq": 1, "t": 1.0, "video": 1,
                                "b0": 0, "b1": K - 1}),
                )
                response = await h.request(reader, writer, 1, 1.0)
                assert response["ok"] and response["seq"] == 1
                stats = await h.rpc(reader, writer, {"op": "stats"})
                assert stats["worker_restarts"] == 1
                assert stats["watermark"] == 1
                assert stats["totals"]["requests"] == 1
                writer.close()

        run(scenario())

    def test_crash_worker_needs_test_hooks(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path) as h:
                reader, writer = await h.connect()
                response = await h.rpc(reader, writer, {"op": "crash-worker"})
                assert response["error"] == "unsupported"
                writer.close()

        run(scenario())

    def test_transient_faults_retry_to_success(self, tmp_path):
        async def scenario():
            async with Harness(
                tmp_path, test_hooks=True, fault_rate=0.5, fault_seed=13,
                max_retries=10, retry_base_delay=0.001,
            ) as h:
                reader, writer = await h.connect()
                for seq in range(1, 21):
                    response = await h.request(reader, writer, seq, float(seq))
                    assert response["ok"], response
                stats = await h.rpc(reader, writer, {"op": "stats"})
                assert stats["watermark"] == 20
                assert stats["counters"]["serve.retries"] >= 1
                writer.close()

        run(scenario())

    def test_exhausted_retries_fail_structured(self, tmp_path):
        async def scenario():
            async with Harness(
                tmp_path, test_hooks=True, fault_rate=1.0,
                max_retries=2, retry_base_delay=0.001,
            ) as h:
                reader, writer = await h.connect()
                response = await h.request(reader, writer, 1, 1.0)
                assert response["ok"] is False
                assert response["error"] == "decision-failed"
                assert "3 attempts" in response["detail"]
                stats = await h.rpc(reader, writer, {"op": "stats"})
                assert stats["watermark"] == 0  # seq NOT consumed
                assert stats["counters"]["serve.decision_failures"] == 1
                writer.close()

        run(scenario())


class TestSubscribers:
    def test_subscriber_receives_periodic_snapshots(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path, publish_interval=0.02) as h:
                reader, writer = await h.connect()
                sub = await h.rpc(reader, writer, {"op": "subscribe"})
                assert sub["kind"] == "subscribed"
                for _ in range(2):
                    record = await h.read_json(reader)
                    assert record["kind"] == "snapshot"
                    assert record["lane"] == "serve"
                    assert "occupancy" in record and "queue_depth" in record
                writer.close()

        run(scenario())


class TestGracefulDegradation:
    def test_degrades_under_backlog_then_recovers(self, tmp_path):
        async def scenario():
            async with Harness(
                tmp_path, queue_limit=10, degrade_high=0.5, degrade_low=0.2,
            ) as h:
                _slow_worker(h.daemon, 0.03)
                reader, writer = await h.connect()
                burst = 8
                for i in range(burst):
                    writer.write(
                        (json.dumps(
                            {"t": float(i), "video": i, "b0": 0, "b1": K - 1}
                        ) + "\n").encode()
                    )
                await writer.drain()
                # let the daemon ingest the burst; the queue is now deep
                await asyncio.sleep(0.02)
                assert h.daemon.state.degraded is True
                for _ in range(burst):
                    await h.read_json(reader)
                # fully drained: hysteresis low bound re-enables probes
                assert h.daemon.state.degraded is False
                assert h.daemon.slo.counter("serve.degrade_entered") >= 1
                writer.close()

        run(scenario())


class TestShutdownArtifacts:
    def test_shutdown_writes_final_snapshot_and_telemetry(self, tmp_path):
        telemetry = tmp_path / "serve.jsonl"
        snapdir = tmp_path / "snaps"

        async def scenario():
            async with Harness(
                tmp_path,
                snapshot_dir=str(snapdir),
                snapshot_every=0,
                telemetry_path=str(telemetry),
            ) as h:
                reader, writer = await h.connect()
                for seq in (1, 2, 3):
                    await h.request(reader, writer, seq, float(seq))
                stopping = await h.rpc(reader, writer, {"op": "shutdown"})
                assert stopping["kind"] == "stopping"
                writer.close()

        run(scenario())
        assert (snapdir / "MANIFEST.json").exists()
        manifest = json.loads((snapdir / "MANIFEST.json").read_text())
        assert manifest["watermark"] == 3
        # the telemetry export passes the repro-report schema check
        from repro.obs.report import main as report_main

        assert report_main(["--check", str(telemetry)]) == 0


class TestStdioLane:
    def test_stdin_protocol_subprocess(self, tmp_path):
        lines = "\n".join(
            [
                json.dumps({"op": "hello"}),
                json.dumps({"seq": 1, "t": 1.0, "video": 1, "b0": 0,
                            "b1": K - 1}),
                "garbage line",
                json.dumps({"op": "stats"}),
            ]
        ) + "\n"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve.cli", "--stdin",
             "--algorithm", "PullLRU", "--disk-chunks", "64",
             "--publish-interval", "0"],
            input=lines, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(l) for l in proc.stdout.splitlines() if l]
        # ops and malformed lines are answered inline while decision
        # requests flow through the queue, so match by kind, not order
        assert len(responses) == 4
        by_kind = {r.get("kind"): r for r in responses if r.get("ok")}
        assert responses[0]["kind"] == "hello"
        decision = by_kind["decision"]
        assert decision["seq"] == 1 and decision["decision"] == "serve"
        assert any(r.get("error") == "malformed" for r in responses)
        assert by_kind["stats"]["counters"]["serve.malformed"] == 1


class TestBlockLane:
    """Pipelined lines reach the worker as one batch: the connection
    handler reads every buffered line before the worker wakes, and the
    worker takes every ready item at once."""

    @staticmethod
    async def pipeline(writer, requests):
        writer.write(
            b"".join((json.dumps(r) + "\n").encode() for r in requests)
        )
        await writer.drain()

    @staticmethod
    def window(n=64):
        return adversarial_trace(seed=5, num_requests=n, disk_chunks=16, chunk_bytes=K)

    @staticmethod
    def lines(trace):
        return [
            {"seq": i + 1, "t": r.t, "video": r.video, "b0": r.b0, "b1": r.b1}
            for i, r in enumerate(trace)
        ]

    def test_pipelined_crash_answers_the_rest_as_restarted(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path, test_hooks=True) as h:
                reader, writer = await h.connect()
                armed = await h.rpc(reader, writer, {"op": "crash-worker"})
                assert armed["kind"] == "crash-armed"
                await self.pipeline(writer, [
                    {"seq": seq, "t": float(seq), "video": seq, "b0": 0,
                     "b1": K - 1}
                    for seq in (1, 2, 3)
                ])
                # the first line dies with the worker; the restarted
                # worker finds seq 1 unconsumed, so 2 and 3 are gaps
                gaps = [await h.read_json(reader) for _ in range(2)]
                assert [g.get("error") for g in gaps] == ["sequence-gap"] * 2
                assert [g["seq"] for g in gaps] == [2, 3]
                response = await h.request(reader, writer, 1, 1.0)
                assert response["kind"] == "decision" and response["seq"] == 1
                stats = await h.rpc(reader, writer, {"op": "stats"})
                assert stats["worker_restarts"] == 1
                assert stats["watermark"] == 1
                assert stats["totals"]["requests"] == 1
                writer.close()

        run(scenario())

    def test_pipelined_crash_mid_batch_keeps_the_run_before_it(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path, test_hooks=True) as h:
                reader, writer = await h.connect()
                await h.request(reader, writer, 1, 1.0)
                await h.rpc(reader, writer, {"op": "crash-worker"})
                await self.pipeline(writer, [
                    {"seq": 1, "t": 1.0, "video": 1, "b0": 0, "b1": K - 1},
                    {"seq": 2, "t": 2.0, "video": 2, "b0": 0, "b1": K - 1},
                    {"seq": 3, "t": 3.0, "video": 3, "b0": 0, "b1": K - 1},
                    {"seq": 2, "t": 2.0, "video": 2, "b0": 0, "b1": K - 1},
                ])
                got = [await h.read_json(reader) for _ in range(3)]
                assert got[0]["kind"] == "duplicate" and got[0]["seq"] == 1
                assert got[1]["error"] == "sequence-gap" and got[1]["seq"] == 3
                assert got[2]["kind"] == "decision" and got[2]["seq"] == 2
                stats = await h.rpc(reader, writer, {"op": "stats"})
                assert stats["worker_restarts"] == 1
                assert stats["watermark"] == 2
                assert stats["totals"]["requests"] == 2
                writer.close()

        run(scenario())

    def test_pipelined_walk_failure_answers_as_a_crash(self, tmp_path):
        async def scenario():
            async with Harness(tmp_path) as h:
                service = h.daemon.service
                entry = service._entry

                def fail_once(block):
                    service._entry = entry
                    raise ValueError("walk failed")

                service._entry = fail_once
                reader, writer = await h.connect()
                await self.pipeline(writer, [
                    {"seq": seq, "t": float(seq), "video": seq, "b0": 0,
                     "b1": K - 1}
                    for seq in (1, 2, 3)
                ])
                # whatever the batch held, the failed run started at seq 1
                gaps = [await h.read_json(reader) for _ in range(2)]
                assert [g.get("error") for g in gaps] == ["sequence-gap"] * 2
                assert [g["seq"] for g in gaps] == [2, 3]
                response = await h.request(reader, writer, 1, 1.0)
                assert response["kind"] == "decision" and response["seq"] == 1
                stats = await h.rpc(reader, writer, {"op": "stats"})
                assert stats["worker_restarts"] == 1
                assert stats["watermark"] == 1
                assert stats["totals"]["requests"] == 1
                writer.close()

        run(scenario())

    def test_failing_snapshot_loses_no_answer(self, tmp_path):
        trace = self.window()

        async def scenario():
            async with Harness(
                tmp_path, algorithm="xLRU", snapshot_dir=str(tmp_path / "snap"),
                snapshot_every=8,
            ) as h:
                store = h.daemon.service.store
                save = store.save

                def full_disk(*args, **kw):
                    store.save = save
                    raise OSError(28, "No space left on device")

                store.save = full_disk
                reader, writer = await h.connect()
                await self.pipeline(writer, self.lines(trace))
                got = [await h.read_json(reader) for _ in trace]
                stats = await h.rpc(reader, writer, {"op": "stats"})
                # the snapshot is still due, and the next batch takes it
                await h.request(reader, writer, len(trace) + 1, trace[-1].t)
                later = await h.rpc(reader, writer, {"op": "stats"})
                writer.close()
                return h.daemon.config, got, stats, later

        config, got, stats, later = run(scenario())
        assert [r["seq"] for r in got] == list(range(1, len(trace) + 1))
        assert all(r["kind"] == "decision" for r in got)
        assert stats["worker_restarts"] == 1
        assert stats["snapshots_written"] == 0
        assert stats["watermark"] == len(trace)
        assert stats["totals"] == batch_totals(config, trace)
        assert later["snapshots_written"] == 1
        assert later["worker_restarts"] == 1

    def test_pipelined_faults_retry_item_by_item(self, tmp_path):
        trace = self.window()
        fault_seed = 13

        async def scenario():
            async with Harness(
                tmp_path, algorithm="xLRU", test_hooks=True, fault_rate=0.5,
                fault_seed=fault_seed, max_retries=30, retry_base_delay=1e-5,
            ) as h:
                reader, writer = await h.connect()
                await self.pipeline(writer, self.lines(trace))
                got = [await h.read_json(reader) for _ in trace]
                assert [r["seq"] for r in got] == list(range(1, len(trace) + 1))
                assert all(r["kind"] == "decision" for r in got)
                stats = await h.rpc(reader, writer, {"op": "stats"})
                writer.close()
                return h.daemon.config, stats

        config, stats = run(scenario())
        assert stats["watermark"] == len(trace)
        assert stats["totals"] == batch_totals(config, trace)
        # one draw per attempt per item, in item order, as item by item
        rng = random.Random(fault_seed)
        faults = 0
        for _ in trace:
            while rng.random() < 0.5:
                faults += 1
        assert faults > 0
        assert stats["counters"]["serve.retries"] == faults
        assert "serve.decision_failures" not in stats["counters"]

    def test_slo_counts_every_decision_of_a_window(self, tmp_path):
        trace = self.window()

        async def scenario():
            async with Harness(tmp_path) as h:
                reader, writer = await h.connect()
                await self.pipeline(writer, self.lines(trace))
                for _ in trace:
                    await h.read_json(reader)
                stats = await h.rpc(reader, writer, {"op": "stats"})
                writer.close()
                return stats, h.daemon.slo

        stats, slo = run(scenario())
        assert stats["watermark"] == len(trace)
        assert stats["slo"]["decisions"] == len(trace)
        assert stats["registry"]["histograms"]["decision_us"]["count"] == len(trace)
        assert slo.registry.histograms["decision_us"].count == len(trace)

    @pytest.mark.parametrize("kernels", ["on", "off"])
    def test_totals_equal_batch_totals(self, tmp_path, monkeypatch, kernels):
        if kernels == "off":
            monkeypatch.setenv(NO_KERNELS_ENV, "1")
        else:
            monkeypatch.delenv(NO_KERNELS_ENV, raising=False)
        trace = self.window(200)

        async def scenario():
            async with Harness(tmp_path, algorithm="xLRU", disk_chunks=16) as h:
                reader, writer = await h.connect()
                for lo in range(0, len(trace), 50):
                    part = self.lines(trace)[lo : lo + 50]
                    await self.pipeline(writer, part)
                    for _ in part:
                        assert (await h.read_json(reader))["kind"] == "decision"
                stats = await h.rpc(reader, writer, {"op": "stats"})
                writer.close()
                return h.daemon, stats

        daemon, stats = run(scenario())
        reference = VideoCache.handle_span_block_kernel
        assert (daemon.service._entry.__func__ is reference) == (kernels == "off")
        assert stats["watermark"] == len(trace)
        assert stats["totals"] == batch_totals(daemon.config, trace)
