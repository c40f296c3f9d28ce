"""The ``sweep`` workload: the policy-family matrix on one server.

``repro-experiment policies`` (``experiments/policies.py``) at FULL
scale, driven through ``TraceGenerator.generate`` and
``sweep_alpha(..., workers=1)``: xLRU, Cafe, PullLRU, LFU-PK, Retention
and qLRU at four alphas on the europe profile, with the disk at
``DISK_SCALED_1TB`` of the trace footprint.  The 24 cells collapse to
12 lanes of one packed pass (the alpha-blind policies need one lane
each).  Here ``sim`` and the ``core`` kernels do nearly all the work;
``cdn`` and ``serve`` are idle.  The matrix mixes hand-fused caches
(xLRU, Cafe, PullLRU) with ``KernelCache`` ports (LFU-PK, Retention,
qLRU).

A second arm replays the same trace through xLRU, Cafe and LFU-PK at
alpha 2 with probed telemetry and a JSONL export, the
``repro-sim --telemetry`` path.  Attaching probes makes every kernel
fall back to the scalar block walk, so this arm is where probe cost
shows; the unprobed arm is its no-change control.

Psychic is left out: it is offline, runs on the object path, and would
dilute the figures with work no open item touches.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.experiments.common import DISK_SCALED_1TB
from repro.experiments.policies import ALGORITHMS, SERVER
from repro.obs import Telemetry, TelemetryOptions, write_telemetry
from repro.obs.jsonl import validate_telemetry
from repro.obs.telemetry import LaneTelemetry
from repro.sim.engine import MultiReplay, NO_KERNELS_ENV
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import RunConfig, build_cache, sweep_alpha
from repro.sim.schedule import SweepScheduler
from repro.structures.scoreheap import ScoreHeap
from repro.workload.generator import TraceGenerator
from repro.workload.servers import SERVER_PROFILES

from perfbench import layers
from perfbench.common import Budget, Stopwatch, ensure_out_dir, generate_requests, peak_rss_mb, sub_seed, totals_row
from perfbench.tracing import DispatchCounter, label_of

ALPHAS = (0.5, 1.0, 2.0, 4.0)
PROBED_ALGORITHMS = ("xLRU", "Cafe", "LFU-PK")
PROBED_ALPHA = 2.0
CELLS = len(ALPHAS) * len(ALGORITHMS)
#: requests replayed.  A seed's 30-day FULL-scale europe trace holds
#: 36.6k-63k (seeds 1-30); each is cut to this length so every seed
#: does the same work.
REQUESTS = {"full": 36_000, "quick": 3_000}


def cell_key(alpha: float, algo: str) -> str:
    return f"alpha={alpha:g}/{algo}"


class Sweep:
    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.counter = DispatchCounter(label_of)
        self.counter.install(type(build_cache(a, 64)) for a in ALGORITHMS)
        self.telemetry_path = os.path.join(ensure_out_dir(), f"sweep-telemetry-{os.getpid()}.jsonl")

    def setup(self) -> None:
        scale = self.ctx.scale
        profile = SERVER_PROFILES[SERVER].scaled(scale.profile_scale)
        generator = TraceGenerator(profile, seed=sub_seed(self.ctx.seed, "sweep", SERVER))
        with self.ctx.span("workload.generate"):
            self.trace = generate_requests(generator.generate, scale.days, REQUESTS[self.ctx.scale_name])
        footprint = set()
        for request in self.trace:
            footprint.update(request.chunk_ids())
        self.disk = max(16, int(len(footprint) * DISK_SCALED_1TB))

    def _cells(self, results, alphas, algorithms) -> Dict[str, list]:
        return {
            cell_key(a, algo): totals_row(results[a][algo].totals)
            for a in alphas
            for algo in algorithms
        }

    def unprobed(self) -> dict:
        with Stopwatch() as watch, self.ctx.span("sim.schedule"):
            results = sweep_alpha(self.trace, self.disk, alphas=ALPHAS, algorithms=ALGORITHMS, workers=1)
        report = results[ALPHAS[0]][ALGORITHMS[0]].report
        return {
            "seconds": watch.seconds,
            "slowness": watch.slowness,
            "decisions": len(self.trace) * CELLS,
            "cells": self._cells(results, ALPHAS, ALGORITHMS),
            "lane": {
                "trace_format": report.extra.get("trace_format"),
                "lanes": report.num_caches,
                "dispatch": self.counter.take(),
            },
            "pack_s": sum(s.seconds for s in report.stages if s.name == "pack"),
        }

    def probed(self) -> dict:
        configs = [
            RunConfig(algo, self.disk, PROBED_ALPHA, label=cell_key(PROBED_ALPHA, algo))
            for algo in PROBED_ALGORITHMS
        ]
        with Stopwatch() as watch:
            telemetry = Telemetry(TelemetryOptions(probes=True))
            scheduler = SweepScheduler(workers=1, telemetry=telemetry)
            with self.ctx.span("sim.schedule"):
                results = scheduler.run(configs, self.trace)
            with self.ctx.span("obs.export"):
                write_telemetry(self.telemetry_path, telemetry, reports=[scheduler.last_report])
        report = next(iter(results.values())).report
        return {
            "seconds": watch.seconds,
            "slowness": watch.slowness,
            "decisions": len(self.trace) * len(configs),
            "cells": {key: totals_row(r.totals) for key, r in results.items()},
            "lane": {
                "trace_format": report.extra.get("trace_format"),
                "lanes": report.num_caches,
                "dispatch": self.counter.take(),
            },
            "telemetry_violations": validate_telemetry(self.telemetry_path),
        }

    def reference(self) -> Dict[str, list]:
        """Every cell on the scalar block walk (kernels off)."""
        os.environ[NO_KERNELS_ENV] = "1"
        try:
            results = sweep_alpha(self.trace, self.disk, alphas=ALPHAS, algorithms=ALGORITHMS, workers=1)
        finally:
            del os.environ[NO_KERNELS_ENV]
        self.counter.take()
        return self._cells(results, ALPHAS, ALGORITHMS)

    def close(self) -> None:
        self.counter.uninstall()
        if os.path.exists(self.telemetry_path):
            os.unlink(self.telemetry_path)


def install_layer_spans(tracer) -> None:
    """Wrap the sweep's layer entry points (traced role only)."""
    for algo in ALGORITHMS:
        cls = type(build_cache(algo, 64))
        tracer.wrap(cls, "handle_span_block_kernel", lambda c: "core.kernel." + c.name)
        tracer.wrap(cls, "handle_span_block", lambda c: "core.block." + c.name)
    layers.wrap_public(tracer, ScoreHeap, "structures.heap")
    for attr in layers.RECORD_METHODS:
        tracer.wrap(MetricsCollector, attr, "sim.record")
    tracer.wrap(MultiReplay, "run", "sim.engine")
    tracer.wrap(LaneTelemetry, "sample", "obs.sample")
    layers.wrap_probes(tracer, "obs.probe")


def run(ctx) -> dict:
    """Drive the workload in the role ``ctx.role``; returns the worker result."""
    sweep = Sweep(ctx)
    try:
        sweep.setup()
        out = {"setup_samples": [ctx.setup_done()]}
        if ctx.role == "setup":
            return out
        if ctx.role == "reference":
            out["reference"] = sweep.reference()
            return out
        if ctx.tracer is not None:
            install_layer_spans(ctx.tracer)
        budget = Budget(ctx.seconds, min_rounds=ctx.min_rounds)
        reps = budget.run({"unprobed": ctx.rep(sweep.unprobed, "unprobed"), "probed": ctx.rep(sweep.probed, "probed")})
        out.update(ctx.arm_summary(reps, budget))
        arms = out["arms"]
        out["e2e"] = {
            "replay_rps": arms["unprobed"]["rps"],
            "probed_rps": arms["probed"]["rps"],
            "latency_p50_ms": [s * 1e3 for s in arms["unprobed"]["seconds"]],
            "peak_rss_mb": [peak_rss_mb()],
        }
        # a single-server sweep has no fault schedule
        out["aliases"] = {"faulted_rps": "replay_rps"}
        out["cells"] = {arm: [r["cells"] for r in rows] for arm, rows in reps.items()}
        out["telemetry_violations"] = [i for r in reps["probed"] for i in r["telemetry_violations"]]
        out["facts"] = {
            "workload.requests": len(sweep.trace),
            "trace.pack_s": reps["unprobed"][0]["pack_s"],
            "sim.lanes": reps["unprobed"][0]["lane"]["lanes"],
            "sim.cells": CELLS,
        }
        return out
    finally:
        if ctx.tracer is not None:
            ctx.tracer.uninstall()
        sweep.close()
