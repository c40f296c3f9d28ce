"""The ``serve`` workload: one ``repro-serve`` daemon under a seeded trace.

One xLRU daemon on a unix socket, periodic snapshots and telemetry
publishing off, fed from a single busy-polling client process over one
connection with pre-encoded, sequenced lines.  This is the serving
user's path: parse, queue, ``handle_span``, encode, write.  The kernels
and ``cdn`` are idle, and ``core`` is entered one request at a time.

Phases, in trace order and never wrapping (a timestamp that goes
backwards would be consumed as a cheap stale ``rejected`` decision):

1. warm (untimed): a closed loop over the first requests;
2. open loop at a fixed light rate, about a quarter of today's
   capacity, in equal segments.  Each request is timed from the moment
   it was due to the moment its response arrived, so a stall also
   counts against the requests queued behind it, and the generator's
   own lateness is reported;
3. closed loop with a fixed window, in equal timed segments.

The daemon and the client are pinned to different CPUs: a daemon woken
onto the CPU the client busy-polls waited out the client's time slice,
which put some segments' p50 at 1-4 ms.  Between segments the client
runs the calibration workload on each CPU (see ``common.Stopwatch`` for
why), and each closed-loop segment's decisions/s is scaled by the
slowness measured around it.  The open-loop p50 is reported as
measured: at ~0.1 ms it is mostly wake-ups and socket hops, which did
not follow the calibration.

The generator never sleeps: sleeping until the next due time made it
run up to several ms late, which swamped a ~0.15 ms response time.

Routed serving (``--workers`` >= 2) is not measured: a router, two
workers and this client on 2 vCPUs would measure the scheduler.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import time
from typing import List

from repro.experiments.common import DISK_SCALED_1TB
from repro.obs.sketch import HistogramSketch
from repro.serve.daemon import ServeConfig
from repro.serve.soak import DaemonProcess, batch_totals
from repro.workload.generator import TraceGenerator
from repro.workload.servers import SERVER_PROFILES

from perfbench.common import calibrate, cpu_seconds, ensure_out_dir, generate_requests, peak_rss_mb, slowness, sub_seed
from perfbench.stats import median

SERVER = "europe"
ALGORITHM = "xLRU"
ALPHA = 2.0
#: open-loop arrival rate: about a quarter of the ~20k decisions/s one
#: daemon sustains on a 2-vCPU VM, so the phase measures response time,
#: not a backlog
OPEN_RATE = 5000.0
#: requests in flight during the closed loop
WINDOW = 64
#: closed-loop segments: each yields one decisions/s sample
SEGMENTS = 6
#: extra daemons started only to sample spawn-to-hello time
EXTRA_SPAWNS = 2
#: the daemon sketch records decide time under this name (``serve/slo.py``)
DECIDE_HISTOGRAM = "decision_us"


class Wire:
    """One non-blocking unix-socket connection, busy-polled."""

    def __init__(self, path: str, retry_for: float = 30.0) -> None:
        deadline = time.monotonic() + retry_for
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                break
            except OSError:
                sock.close()
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.002)
        sock.setblocking(False)
        self.sock = sock
        self._buf = b""

    def send(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            try:
                view = view[self.sock.send(view) :]
            except BlockingIOError:
                pass

    def poll(self) -> List[bytes]:
        """Complete response lines received so far (maybe none)."""
        try:
            chunk = self.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        data = self._buf + chunk
        lines = data.split(b"\n")
        self._buf = lines.pop()
        return lines

    def op(self, name: str) -> dict:
        self.send(json.dumps({"op": name}).encode() + b"\n")
        while True:
            lines = self.poll()
            if lines:
                if len(lines) != 1 or self._buf:
                    raise RuntimeError(f"expected one response to {name!r}")
                return json.loads(lines[0])

    def close(self) -> None:
        self.sock.close()


def encode(seq: int, request) -> bytes:
    return b'{"seq":%d,"t":%r,"video":%d,"b0":%d,"b1":%d}\n' % (
        seq, request.t, request.video, request.b0, request.b1,
    )


def judge(response: dict) -> bool:
    """True for an applied decision; errors, sheds, timeouts and stale
    ``rejected`` decisions are failures."""
    return (
        response.get("ok") is True
        and response.get("kind") == "decision"
        and response.get("decision") in ("serve", "redirect")
    )


def quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def decide_p50_us(before: dict, after: dict) -> float:
    """p50 of the daemon's decide-time sketch between two ``stats``."""
    hist_after = after["registry"]["histograms"][DECIDE_HISTOGRAM]
    hist_before = before["registry"]["histograms"].get(DECIDE_HISTOGRAM, {"pos": {}, "count": 0})
    pos = {
        k: v - hist_before["pos"].get(k, 0)
        for k, v in hist_after["pos"].items()
        if v - hist_before["pos"].get(k, 0) > 0
    }
    delta = dict(hist_after, pos=pos, count=sum(pos.values()), neg={}, zeros=0)
    return HistogramSketch.from_dict(delta).quantile(0.5)


def calibrate_cpus() -> float:
    """Mean calibration time over every CPU of the machine (this
    process's affinity is restored after): the daemon's CPU matters as
    much as this client's."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(_ALL_CPUS):
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


_ALL_CPUS = frozenset(os.sched_getaffinity(0))


class Failures:
    """Failed responses: all counted, the first few kept as examples."""

    KEEP = 10

    def __init__(self) -> None:
        self.count = 0
        self.examples: List[str] = []

    def add(self, phase: str, response: dict) -> None:
        self.count += 1
        if len(self.examples) < self.KEEP:
            self.examples.append(f"{phase}: {response}")


class Serve:
    def __init__(self, ctx) -> None:
        self.ctx = ctx
        # phase sizes follow the measuring time: ~0.3 s of it open
        # loop, ~0.4 s closed loop at today's rate, per second asked
        seconds = max(ctx.seconds, 1.0)
        quick = ctx.scale_name == "quick"
        self.n_warm = 500 if quick else 10_000
        n_open = 480 if quick else int(OPEN_RATE * 0.3 * seconds)
        n_closed = 1200 if quick else int(20_000 * 0.4 * seconds)
        # whole segments only: every line is sent, in order
        self.n_open = SEGMENTS * (n_open // SEGMENTS)
        self.n_closed = SEGMENTS * (n_closed // SEGMENTS)
        self.socket_path = os.path.join(ensure_out_dir(), f"serve-{os.getpid()}.sock")
        # daemon and client each keep a CPU of their own: a daemon woken
        # onto the CPU the client busy-polls waits out the client's slice
        cpus = sorted(os.sched_getaffinity(0))
        self.daemon_cpu, self.client_cpu = cpus[0], cpus[-1]

    def setup(self) -> None:
        """Generate a trace long enough for every phase, and encode it."""
        needed = self.n_warm + self.n_open + self.n_closed
        scale = self.ctx.scale
        profile = SERVER_PROFILES[SERVER].scaled(scale.profile_scale * 4)
        generator = TraceGenerator(profile, seed=sub_seed(self.ctx.seed, "serve", SERVER))
        # a 30-day FULL-scale europe trace holds at least ~36k requests,
        # so this profile (4x the population) yields ~4.8k a day
        days = scale.days * needed / (4 * 36_000)
        with self.ctx.span("workload.generate"):
            self.trace = generate_requests(generator.generate, days, needed)
        footprint = set()
        for request in self.trace:
            footprint.update(request.chunk_ids())
        self.config = ServeConfig(
            algorithm=ALGORITHM,
            disk_chunks=max(16, int(len(footprint) * DISK_SCALED_1TB)),
            alpha_f2r=ALPHA,
            snapshot_every=0,
            publish_interval=0.0,
        )
        self.lines = [encode(i + 1, r) for i, r in enumerate(self.trace)]

    def spawn(self):
        """Start a daemon; returns ``(process, wire, spawn-to-hello s)``
        with the time as measured and scaled by the host's slowness."""
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        argv = DaemonProcess(self.socket_path, self.config).args()
        before = calibrate_cpus()
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        try:
            os.sched_setaffinity(proc.pid, {self.daemon_cpu})
            wire = Wire(self.socket_path)
            hello = wire.op("hello")
            setup_s = time.monotonic() - start
            if not hello.get("ok") or hello.get("watermark") != 0:
                raise RuntimeError(f"unexpected hello: {hello}")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return proc, wire, (setup_s, setup_s / slowness(before, calibrate_cpus()))

    @staticmethod
    def stop(proc, wire) -> None:
        try:
            wire.op("shutdown")
            wire.close()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def closed_loop(self, wire: Wire, first: int, count: int, failures: "Failures") -> float:
        """Send ``count`` lines from index ``first`` keeping ``WINDOW`` in
        flight until every response is in; returns the seconds taken."""
        lines = self.lines
        stop = first + count
        start = time.perf_counter()
        sent = first + min(WINDOW, count)
        wire.send(b"".join(lines[first:sent]))
        done = 0
        while done < count:
            got = wire.poll()
            if not got:
                continue
            for line in got:
                response = json.loads(line)
                if not judge(response):
                    failures.add("closed loop", response)
                done += 1
            refill = min(stop - sent, WINDOW - (sent - first - done))
            if refill > 0:
                wire.send(b"".join(lines[sent : sent + refill]))
                sent += refill
        return time.perf_counter() - start

    def open_loop(self, wire: Wire, first: int, count: int, failures: "Failures"):
        """Send ``count`` lines at ``OPEN_RATE``; returns per-request
        latency from due time and the generator's lateness (seconds)."""
        lines = self.lines
        interval = 1.0 / OPEN_RATE
        clock = time.perf_counter
        t0 = clock() + 0.005
        latency = [0.0] * count
        late = []
        sent = done = 0
        while done < count:
            now = clock()
            while sent < count and t0 + sent * interval <= now:
                late.append(now - (t0 + sent * interval))
                wire.send(lines[first + sent])
                sent += 1
                now = clock()
            got = wire.poll()
            if not got:
                continue
            arrived = clock()
            for line in got:
                response = json.loads(line)
                if not judge(response):
                    failures.add("open loop", response)
                    done += 1
                    continue
                i = response["seq"] - 1 - first
                latency[i] = arrived - (t0 + i * interval)
                done += 1
        return latency, late

    def session(self) -> dict:
        failures = Failures()
        proc, wire, (setup_raw, setup_s) = self.spawn()
        all_cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.client_cpu})
        try:
            self.closed_loop(wire, 0, self.n_warm, failures)
            before = wire.op("stats")
            # both loops run in segments with a calibration between each,
            # so each segment gets the host slowness around it
            open_cal = [calibrate_cpus()]
            open_part = self.n_open // SEGMENTS
            latency, late, open_p50 = [], [], []
            for k in range(SEGMENTS):
                lat_k, late_k = self.open_loop(wire, self.n_warm + k * open_part, open_part, failures)
                latency += lat_k
                late += late_k
                open_p50.append(median(lat_k) * 1e3)
                open_cal.append(calibrate_cpus())
            after_open = wire.op("stats")
            first = self.n_warm + self.n_open
            per_segment = self.n_closed // SEGMENTS
            closed_cal = [open_cal[-1]]
            closed_s = []
            daemon_cpu = client_cpu = 0.0
            for k in range(SEGMENTS):
                daemon_cpu0, client_cpu0 = cpu_seconds(proc.pid), cpu_seconds()
                closed_s.append(self.closed_loop(wire, first + k * per_segment, per_segment, failures))
                daemon_cpu += cpu_seconds(proc.pid) - daemon_cpu0
                client_cpu += cpu_seconds() - client_cpu0
                closed_cal.append(calibrate_cpus())
            final = wire.op("stats")
            rss = peak_rss_mb(proc.pid)
        finally:
            os.sched_setaffinity(0, all_cpus)
            self.stop(proc, wire)
        sent = len(self.lines)
        expected = batch_totals(self.config, self.trace)
        p50_ms = median(latency) * 1e3
        decide_us = decide_p50_us(before, after_open)
        closed_raw = [per_segment / s for s in closed_s]
        return {
            "setup_s": setup_s,
            "setup_raw": setup_raw,
            "failed_responses": failures.count,
            "failures": failures.examples,
            "attempted": sent,
            "daemon_totals": final["totals"],
            "batch_totals": expected,
            "watermark": final["watermark"],
            "open_p50_ms": p50_ms,
            "open_segment_p50_ms": open_p50,
            "closed_rps_raw": closed_raw,
            "closed_rps": [
                rps * slowness(closed_cal[k], closed_cal[k + 1]) for k, rps in enumerate(closed_raw)
            ],
            "daemon_peak_rss_mb": rss,
            "calibration_s": open_cal + closed_cal[1:],
            "facts": {
                "serve.decide_p50_us": decide_us,
                "serve.overhead_p50_ms": p50_ms - decide_us / 1e3,
                "serve.daemon_us_per_decision": daemon_cpu / (per_segment * SEGMENTS) * 1e6,
                "serve.client_us_per_decision": client_cpu / (per_segment * SEGMENTS) * 1e6,
                "serve.client_p99_ms": quantile(latency, 0.99) * 1e3,
                "serve.client_p99_samples": len(latency),
                "serve.generator_late_p99_ms": quantile(late, 0.99) * 1e3,
                "workload.requests": sent,
            },
        }

    def setup_samples(self, n: int) -> List[tuple]:
        """``(measured, scaled)`` spawn-to-hello times of ``n`` daemons."""
        samples = []
        for _ in range(n):
            proc, wire, sample = self.spawn()
            self.stop(proc, wire)
            samples.append(sample)
        return samples

    def close(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)


def run(ctx) -> dict:
    serve = Serve(ctx)
    try:
        serve.setup()
        session = serve.session()
        extra = serve.setup_samples(EXTRA_SPAWNS if ctx.role == "timed" else 0)
        return {
            "setup_samples": [session["setup_s"], *(scaled for _, scaled in extra)],
            "setup_raw": [session["setup_raw"], *(raw for raw, _ in extra)],
            "e2e": {
                "replay_rps": session["closed_rps"],
                "latency_p50_ms": [session["open_p50_ms"]],
                "peak_rss_mb": [session["daemon_peak_rss_mb"]],
            },
            # no probe hook or fault schedule on the serving path
            "aliases": {"probed_rps": "replay_rps", "faulted_rps": "replay_rps"},
            "session": session,
            "calibration_s": session["calibration_s"],
            "facts": session["facts"],
        }
    finally:
        serve.close()

