"""Serve SLO bench: decision latency quantiles + sustained QPS + scaling.

Two sections, both writing ``BENCH_serve.json``:

* **direct** — the PR 8 bench: one ``repro-serve`` daemon on a unix
  socket, one pipelined sequenced client, SLOs read from the daemon's
  own ``repro.obs`` sketches;
* **workersN** — the sharded fleet: N workers behind the video-hash
  router, several concurrent client connections, SLOs read from the
  router's ``stats`` fold (sketches merged exactly, QPS summed).

Every section records the host's ``cpu_count`` *honestly*: scaling rows
are only produced on hosts with enough cores (a 1-CPU host skips them
— skipped, never faked), and the ``REPRO_BENCH_REGRESSION=1`` gate only
compares a measured row against a committed row with the **same scale,
same workers and same cpu_count** (latency on a different core count is
a different experiment, not a regression).
"""

import json
import os
import random
import threading
from pathlib import Path

import pytest

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
REGRESSION_ENV = "REPRO_BENCH_REGRESSION"

K = 1024
WINDOW = 512
#: concurrent client connections driving every fleet row (constant
#: across worker counts so the load generator isn't the variable)
FLEET_CLIENTS = 4
#: worker counts the scaling section attempts (capped by cpu_count)
FLEET_WORKERS = (1, 2, 4)
#: per-shard queue bound of every fleet row: room for every request the
#: clients can have in flight, so a row measures latency, not shedding
FLEET_QUEUE_LIMIT = FLEET_CLIENTS * WINDOW


def _trace(n, seed=29, videos=200):
    rng = random.Random(seed)
    t = 0.0
    out = []
    for _ in range(n):
        t += rng.uniform(0.001, 0.2)
        c0 = rng.randrange(0, 16)
        span = rng.randrange(1, 4)
        out.append((t, rng.randrange(0, videos), c0 * K, (c0 + span) * K - 1))
    return out


def _load_payload():
    if BENCH_PATH.exists():
        baseline = json.loads(BENCH_PATH.read_text())
        if "scales" in baseline:
            return baseline, baseline
        return baseline, {"bench": "serve_latency", "scales": {}}
    return None, {"bench": "serve_latency", "scales": {}}


def _write_row(scale_name, row_key, row):
    baseline, payload = _load_payload()
    scales = payload.setdefault("scales", {})
    section = scales.setdefault(scale_name, {})
    if not all(isinstance(v, dict) for v in section.values()):
        # pre-sharding flat layout: rebuild the section from scratch
        section = {}
        scales[scale_name] = section
    section[row_key] = row
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return baseline


def _committed_row(baseline, scale_name, row_key):
    section = (baseline or {}).get("scales", {}).get(scale_name) or {}
    row = section.get(row_key)
    return row if isinstance(row, dict) else None


def _gate(report, committed, latency, qps, label):
    """Same-scale, same-workers, same-cpu_count regression comparison."""
    if not os.environ.get(REGRESSION_ENV, "").strip() or not committed:
        return
    cpus = os.cpu_count() or 1
    committed_cpus = committed.get("cpu_count")
    if committed_cpus != cpus:
        report(
            f"  regression gate skipped for {label}: committed row ran on "
            f"{committed_cpus} CPU(s), this host has {cpus}"
        )
        return
    committed_p99 = committed["latency_ms"]["p99"]
    committed_qps = committed["sustained_qps"]
    assert latency["p99"] <= committed_p99 * 3.0 + 1.0, (
        f"{label} p99 regressed: {latency['p99']:.2f}ms vs committed "
        f"{committed_p99:.2f}ms (>3x)"
    )
    assert qps >= committed_qps / 3.0, (
        f"{label} sustained QPS regressed: {qps:.0f} vs committed "
        f"{committed_qps:.0f} (<1/3)"
    )


def test_serve_decision_latency(report, strict, scale, tmp_path):
    from repro.serve.daemon import ServeConfig
    from repro.serve.soak import DaemonProcess

    n = 20_000 if strict else 2_000
    requests = _trace(n)
    config = ServeConfig(
        algorithm="xLRU",
        disk_chunks=2048,
        chunk_bytes=K,
        publish_interval=0.0,
    )
    daemon = DaemonProcess(str(tmp_path / "bench.sock"), config)
    daemon.start()
    try:
        client = daemon.connect()
        assert client.hello()["watermark"] == 0
        seq = 1
        while seq <= n:
            count = min(WINDOW, n - seq + 1)
            for offset in range(count):
                t, video, b0, b1 = requests[seq - 1 + offset]
                client.send(
                    {"seq": seq + offset, "t": t, "video": video,
                     "b0": b0, "b1": b1}
                )
            client.flush()
            for _ in range(count):
                response = client.read_response()
                assert response.get("ok"), response
            seq += count
        stats = client.stats()
        client.shutdown()
        client.close()
        daemon.wait()
    finally:
        daemon.kill()

    assert stats["watermark"] == n
    slo = stats["slo"]
    latency = slo["latency_ms"]
    qps = slo["sustained_qps"]
    assert slo["decisions"] == n
    assert latency["p50"] is not None and latency["p99"] is not None

    baseline = _write_row(
        scale.name,
        "direct",
        {
            "requests": n,
            "window": WINDOW,
            "workers": 1,
            "algorithm": config.algorithm,
            "disk_chunks": config.disk_chunks,
            "latency_ms": latency,
            "sustained_qps": qps,
            "cpu_count": os.cpu_count() or 1,
        },
    )

    report(
        f"serve decision latency ({n} requests over one unix socket):",
        f"  p50  : {latency['p50']:.3f} ms",
        f"  p99  : {latency['p99']:.3f} ms",
        f"  p999 : {latency['p999']:.3f} ms"
        if latency["p999"] is not None
        else "  p999 : n/a",
        f"  sustained: {qps:,.0f} decisions/s",
        f"  wrote {BENCH_PATH.name}",
    )

    if strict:
        # SLO sanity floors, deliberately loose for shared runners
        assert latency["p99"] < 250.0, f"p99 {latency['p99']:.1f}ms"
        assert qps > 200.0, f"sustained {qps:.0f} qps"

    committed = _committed_row(baseline, scale.name, "direct")
    if committed is None:
        # pre-sharding baselines kept the direct row flat under the scale
        committed = (baseline or {}).get("scales", {}).get(scale.name)
        if not isinstance(committed, dict) or "latency_ms" not in committed:
            committed = None
    _gate(report, committed, latency, qps, "direct")


def _drive_unsequenced(target, requests, window=WINDOW):
    """One connection pushing pipelined unsequenced windows."""
    from repro.serve.client import connect_with_retry

    client = connect_with_retry(target, retry_for=30.0)
    try:
        sent = 0
        n = len(requests)
        while sent < n:
            count = min(window, n - sent)
            for offset in range(count):
                t, video, b0, b1 = requests[sent + offset]
                client.send({"t": t, "video": video, "b0": b0, "b1": b1})
            client.flush()
            for _ in range(count):
                response = client.read_response()
                assert response.get("ok"), response
            sent += count
    finally:
        client.close()


def _run_fleet_row(workers, n, tmp_path):
    from repro.serve.daemon import ServeConfig
    from repro.serve.soak import FleetProcess, _fleet_op

    requests = _trace(n, videos=2000)
    config = ServeConfig(
        algorithm="xLRU",
        disk_chunks=2048,
        chunk_bytes=K,
        publish_interval=0.0,
        queue_limit=FLEET_QUEUE_LIMIT,
    )
    workdir = tmp_path / f"fleet-{workers}"
    workdir.mkdir()
    fleet = FleetProcess(
        str(workdir / "pub.sock"), str(workdir / "run"), config, workers
    )
    fleet.start()
    try:
        slices = [requests[i::FLEET_CLIENTS] for i in range(FLEET_CLIENTS)]
        errors = []

        def _worker(slice_):
            try:
                _drive_unsequenced(fleet.socket_path, slice_)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=_worker, args=(s,), daemon=True)
            for s in slices
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        assert not errors, errors[0]
        client = fleet.connect()
        client, stats = _fleet_op(fleet, client, "stats")
        _fleet_op(fleet, client, "shutdown")
        client.close()
        fleet.wait()
    finally:
        fleet.terminate()
    return stats


def test_serve_fleet_scaling(report, strict, scale, tmp_path):
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip(
            f"fleet scaling needs >= 2 CPUs (host has {cpus}); "
            f"rows are skipped, never faked"
        )
    n = 20_000 if strict else 2_000
    rows = {}
    baseline = None
    lines = [f"serve fleet scaling ({n} requests, {FLEET_CLIENTS} clients):"]
    for workers in FLEET_WORKERS:
        if workers > cpus:
            lines.append(
                f"  workers={workers}: skipped (host has {cpus} CPU(s))"
            )
            continue
        stats = _run_fleet_row(workers, n, tmp_path)
        slo = stats["slo"]
        assert slo["decisions"] == n
        assert stats["workers"] == workers
        rows[workers] = slo
        baseline = _write_row(
            scale.name,
            f"workers{workers}",
            {
                "requests": n,
                "window": WINDOW,
                "workers": workers,
                "clients": FLEET_CLIENTS,
                "queue_limit": FLEET_QUEUE_LIMIT,
                "algorithm": "xLRU",
                "disk_chunks": 2048,
                "latency_ms": slo["latency_ms"],
                "sustained_qps": slo["sustained_qps"],
                "cpu_count": cpus,
            },
        )
        lines.append(
            f"  workers={workers}: p99 {slo['latency_ms']['p99']:.3f} ms, "
            f"sustained {slo['sustained_qps']:,.0f} decisions/s"
        )
        _gate(
            report,
            _committed_row(baseline, scale.name, f"workers{workers}"),
            slo["latency_ms"],
            slo["sustained_qps"],
            f"workers{workers}",
        )
    report(*lines, f"  wrote {BENCH_PATH.name}")

    if strict and cpus >= 4 and 1 in rows and 4 in rows:
        qps1 = rows[1]["sustained_qps"]
        qps4 = rows[4]["sustained_qps"]
        assert qps4 >= 2.5 * qps1, (
            f"4-worker merged QPS {qps4:,.0f} < 2.5x 1-worker {qps1:,.0f}"
        )
        p99_1 = rows[1]["latency_ms"]["p99"]
        p99_4 = rows[4]["latency_ms"]["p99"]
        assert p99_4 <= 2.0 * p99_1 + 1.0, (
            f"4-worker p99 {p99_4:.2f}ms > 2x 1-worker {p99_1:.2f}ms"
        )
