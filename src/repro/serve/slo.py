"""Serve-side SLO measurement: decision latency and sustained QPS.

The decision worker answers every request ready at a wake-up as one
batch, so every admitted request's decision latency is its batch's
decide time: from the batch's dequeue to its responses built.  A batch
of ``n`` folds that one value ``n`` times, as one weighted add, into a
:class:`~repro.obs.sketch.HistogramSketch` inside a standard
:class:`~repro.obs.registry.MetricRegistry`, so the daemon's SLOs ride
the existing ``repro.obs`` machinery — same sketches, same JSONL
schema, same ``repro-report`` tooling — instead of a parallel metrics
stack.  Latencies are recorded in *microseconds* (decisions run tens
of µs) to keep the log-bucket resolution comfortable.

p50/p99/p999 and the sustained decision rate are exported in the lane
summary and gated by ``benchmarks/test_serve_latency.py``
(``BENCH_serve.json``).
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional

from repro.obs.registry import MetricRegistry
from repro.obs.sketch import DEFAULT_GROWTH

__all__ = ["ServeSLO", "merged_summary"]

_LATENCY = "decision_us"

#: quantiles the summary reports, with their field names
QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


def _latency_ms_from(sketch) -> Dict[str, Optional[float]]:
    """Quantile block (ms, JSON-safe) from one latency sketch (or None)."""
    out: Dict[str, Optional[float]] = {}
    for name, q in QUANTILES:
        value = sketch.quantile(q) if sketch is not None else math.nan
        out[name] = value / 1e3 if math.isfinite(value) else None
    return out


def merged_summary(registries, sustained_qps) -> dict:
    """Fold per-shard SLOs into one summary — *exactly*, not averaged.

    ``registries`` are worker ``MetricRegistry.to_dict`` payloads (the
    ``registry`` field of each worker's ``stats`` reply): their latency
    sketches merge bucket-wise via the standard ``repro.obs``
    cross-process merge, so the fleet-wide p99 is the true quantile of
    the union of all decisions, not an average of per-shard quantiles.
    Sustained QPS is summed — shards decide concurrently.  Returns the
    same shape as :meth:`ServeSLO.summary`.
    """
    registry = MetricRegistry.from_merged(registries)
    sketch = registry.histograms.get(_LATENCY)
    return {
        "decisions": int(sketch.count) if sketch is not None else 0,
        "latency_ms": _latency_ms_from(sketch),
        "sustained_qps": float(sum(sustained_qps)),
    }


class ServeSLO:
    """Latency/throughput accounting for one daemon lifetime."""

    def __init__(self, histogram_growth: float = DEFAULT_GROWTH) -> None:
        self.registry = MetricRegistry(histogram_growth=histogram_growth)
        self._first_decision: Optional[float] = None
        self._last_decision: Optional[float] = None
        self._decisions = 0

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.registry.count(name, n)

    def counter(self, name: str) -> float:
        return self.registry.counter(name)

    def observe_decision(self, seconds: float, n: int = 1) -> None:
        """Fold ``n`` decisions that each took ``seconds`` into the sketch."""
        now = time.perf_counter()
        if self._first_decision is None:
            self._first_decision = now
        self._last_decision = now
        self._decisions += n
        self.registry.histogram(_LATENCY).add(seconds * 1e6, n)

    # -- queries -------------------------------------------------------------

    def latency_ms(self) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p99": ..., "p999": ...}`` in milliseconds.

        Quantiles are ``None`` until the first decision lands — ``NaN``
        is not valid JSON, and these dicts go straight onto the wire.
        """
        return _latency_ms_from(self.registry.histograms.get(_LATENCY))

    def sustained_qps(self) -> float:
        """Decisions per second between the first and last decision."""
        if (
            self._decisions < 2
            or self._first_decision is None
            or self._last_decision is None
        ):
            return 0.0
        span = self._last_decision - self._first_decision
        if span <= 0:
            return 0.0
        return (self._decisions - 1) / span

    def summary(self) -> dict:
        """JSON-safe SLO block for the ``stats`` op and telemetry."""
        return {
            "decisions": self._decisions,
            "latency_ms": self.latency_ms(),
            "sustained_qps": self.sustained_qps(),
        }
