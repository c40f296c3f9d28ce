"""The per-layer metrics of the traced run, and the wrappers behind them.

The layers are the package's modules.  Each metric below is read from
spans the traced worker records around calls into that layer, or from
a count the workload already holds.  Which end-to-end figure each one
should move is recorded in ``CHANGES.md`` and in the workload modules.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

__all__ = ["ALGORITHMS", "FLEET_SERVERS", "PER_LAYER", "RECORD_METHODS", "per_layer", "wrap_probes", "wrap_public"]

#: the sweep matrix's algorithms (``experiments/policies.py``)
ALGORITHMS = ("xLRU", "Cafe", "PullLRU", "LFU-PK", "Retention", "qLRU")
#: the fleet's servers (``experiments/cdnwide.py`` hierarchy)
FLEET_SERVERS = ("europe", "africa", "asia", "parent")
#: ``MetricsCollector`` entry points the replay lanes record through
RECORD_METHODS = ("record", "record_raw", "record_packed", "record_packed_block")


def _metrics() -> List[Tuple[str, str, str]]:
    rows = [
        ("repro.import_s", "s", "lower"),
        ("workload.generate_s", "s", "lower"),
        ("workload.requests", "count", "higher"),
        ("trace.merge_plan_s", "s", "lower"),
        ("trace.merge_runs", "count", "lower"),
        ("trace.pack_s", "s", "lower"),
    ]
    for algo in ALGORITHMS:
        rows += [
            (f"core.kernel_s.{algo}", "s", "lower"),
            (f"core.kernel_calls.{algo}", "count", "higher"),
            (f"core.block_s.{algo}", "s", "lower"),
            (f"core.block_calls.{algo}", "count", "lower"),
        ]
    for server in FLEET_SERVERS:
        rows += [
            (f"core.span_s.{server}", "s", "lower"),
            (f"core.span_calls.{server}", "count", "lower"),
        ]
    rows += [
        ("structures.heap_s", "s", "lower"),
        ("sim.record_s", "s", "lower"),
        ("sim.engine_self_s", "s", "lower"),
        ("sim.schedule_self_s", "s", "lower"),
        ("sim.lanes", "count", "lower"),
        ("sim.cells", "count", "higher"),
        ("obs.probe_s", "s", "lower"),
        ("obs.sample_s", "s", "lower"),
        ("obs.export_s", "s", "lower"),
        ("cdn.self_s", "s", "lower"),
        ("cdn.hop_frac", "ratio", "lower"),
        ("cdn.stepwise_self_s", "s", "lower"),
        ("cdn.fault_advance_s", "s", "lower"),
        ("serve.decide_p50_us", "us", "lower"),
        ("serve.overhead_p50_ms", "ms", "lower"),
        ("serve.daemon_us_per_decision", "us", "lower"),
        ("serve.client_us_per_decision", "us", "lower"),
        ("serve.client_p99_ms", "ms", "lower"),
        ("serve.client_p99_samples", "count", "higher"),
        ("serve.generator_late_p99_ms", "ms", "lower"),
    ]
    return rows


#: ``(name, unit, better)`` of every per-layer metric, in report order
PER_LAYER: List[Tuple[str, str, str]] = _metrics()


def per_layer(times: Mapping[str, Mapping[str, float]], facts: Mapping[str, float]) -> Dict[str, float]:
    """Every per-layer metric from span times and workload facts.

    A layer the workload never entered reads 0.
    """

    def self_s(span: str) -> float:
        return float(times.get(span, {}).get("self", 0.0))

    def total_s(span: str) -> float:
        return float(times.get(span, {}).get("total", 0.0))

    def calls(span: str) -> int:
        return int(times.get(span, {}).get("calls", 0))

    out: Dict[str, float] = {
        "repro.import_s": total_s("repro.import"),
        "workload.generate_s": total_s("workload.generate"),
        "trace.merge_plan_s": total_s("trace.merge_plan"),
    }
    for algo in ALGORITHMS:
        out[f"core.kernel_s.{algo}"] = self_s(f"core.kernel.{algo}")
        out[f"core.kernel_calls.{algo}"] = calls(f"core.kernel.{algo}")
        out[f"core.block_s.{algo}"] = self_s(f"core.block.{algo}")
        out[f"core.block_calls.{algo}"] = calls(f"core.block.{algo}")
    for server in FLEET_SERVERS:
        out[f"core.span_s.{server}"] = self_s(f"core.span.{server}")
        out[f"core.span_calls.{server}"] = calls(f"core.span.{server}")
    out.update(
        {
            "structures.heap_s": self_s("structures.heap"),
            "sim.record_s": self_s("sim.record"),
            "sim.engine_self_s": self_s("sim.engine"),
            "sim.schedule_self_s": self_s("sim.schedule"),
            "obs.probe_s": self_s("obs.probe"),
            "obs.sample_s": self_s("obs.sample"),
            "obs.export_s": self_s("obs.export"),
            "cdn.self_s": self_s("cdn.run.clean"),
            "cdn.stepwise_self_s": self_s("cdn.run.faulted"),
            "cdn.fault_advance_s": self_s("cdn.fault_advance"),
        }
    )
    for name, _unit, _better in PER_LAYER:
        if name not in out:
            out[name] = facts.get(name, 0)
    return {name: out[name] for name, _u, _b in PER_LAYER}


def wrap_public(tracer, cls: type, span: str) -> None:
    """Trace every public method ``cls`` itself defines."""
    for attr, value in list(vars(cls).items()):
        if not attr.startswith("_") and callable(value):
            tracer.wrap(cls, attr, span)


def wrap_probes(tracer, span: str) -> None:
    """Trace every ``on_*`` hook of every cache probe class."""
    from repro.obs import probes

    for value in list(vars(probes).values()):
        if isinstance(value, type) and issubclass(value, probes.CacheProbe):
            for attr in list(vars(value)):
                if attr.startswith("on_"):
                    tracer.wrap(value, attr, span)
