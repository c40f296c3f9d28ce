"""``repro-report``: render and compare telemetry files.

One file renders as per-lane tables: the classic traffic metrics next
to the cache-internals the probes captured (fill/eviction volumes,
admission outcomes, IAT-estimator health, decision-margin and
eviction-age quantiles).  Two or more files render as a comparison —
lanes aligned by key, metric deltas computed against the first file
(the baseline) — which is what the CI job consumes: ``--json`` emits
the same structure machine-readably, and ``--max-eff-drop`` turns a
steady-state efficiency regression into a non-zero exit code.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

from repro.analysis.tables import format_table
from repro.obs.jsonl import TelemetryFile, read_telemetry
from repro.obs.sketch import HistogramSketch

__all__ = [
    "compare_runs",
    "lane_metrics",
    "load_runs",
    "render_comparison",
    "render_single",
]

#: Quantiles surfaced for each captured distribution.
_QUANTILES = (0.5, 0.9)


def load_runs(paths: List[str]) -> List[TelemetryFile]:
    return [read_telemetry(path) for path in paths]


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    if not denominator:
        return None
    return numerator / denominator


def lane_metrics(lane: dict) -> dict:
    """Flatten one lane summary record into reportable scalars."""
    registry = lane.get("registry", {})
    counters = registry.get("counters", {})
    histograms = registry.get("histograms", {})
    steady = lane.get("steady") or {}
    totals = lane.get("totals") or {}

    serves = counters.get("serve", 0)
    redirects = counters.get("redirect", 0)
    out: dict = {
        "lane": lane.get("lane", ""),
        "algorithm": lane.get("algorithm", ""),
        "requests": lane.get("num_requests", 0),
        "efficiency": steady.get("efficiency"),
        "redirect_ratio": steady.get("redirect_ratio"),
        "ingress_fraction": steady.get("ingress_fraction"),
        "total_efficiency": totals.get("efficiency"),
        "fill_chunks": counters.get("fill_chunks", 0),
        "evict_chunks": counters.get("evict_chunks", 0),
        "hit_rate": _ratio(counters.get("serve.hit", 0), serves),
        "probe_redirects": redirects,
    }
    iat_known = (
        counters.get("iat.own", 0)
        + counters.get("iat.video", 0)
        + counters.get("iat.cold", 0)
    )
    out["iat_fallback_rate"] = _ratio(counters.get("iat.video", 0), iat_known)
    out["margin_unbounded"] = counters.get("margin.unbounded", 0)
    for name in ("margin", "evict_age", "residence"):
        payload = histograms.get(name)
        if payload:
            sketch = HistogramSketch.from_dict(payload)
            for q in _QUANTILES:
                out[f"{name}_p{int(q * 100)}"] = sketch.quantile(q)
    return out


def _lane_rows(telemetry_file: TelemetryFile) -> List[dict]:
    return [lane_metrics(lane) for lane in telemetry_file.lanes.values()]


def render_single(telemetry_file: TelemetryFile) -> str:
    """Human-readable report of one telemetry file."""
    sections: List[str] = []
    meta = telemetry_file.meta.get("meta", {})
    head = f"telemetry: {telemetry_file.label}"
    if meta:
        interesting = {k: v for k, v in meta.items() if k not in ("label",) and v != ""}
        if interesting:
            head += "\n  " + ", ".join(
                f"{k}={v}" for k, v in sorted(interesting.items())
            )
    sections.append(head)

    rows = _lane_rows(telemetry_file)
    if rows:
        traffic_cols = [
            "lane",
            "algorithm",
            "requests",
            "efficiency",
            "redirect_ratio",
            "ingress_fraction",
        ]
        sections.append(
            format_table(rows, columns=traffic_cols, title="traffic (steady state)")
        )
        internals_cols = [
            "lane",
            "fill_chunks",
            "evict_chunks",
            "hit_rate",
            "iat_fallback_rate",
            "margin_p50",
            "evict_age_p50",
            "residence_p50",
        ]
        sections.append(
            format_table(rows, columns=internals_cols, title="cache internals")
        )
    else:
        sections.append("(no lanes)")

    warning_count = sum(
        1 for e in telemetry_file.events if e.get("level") in ("warning", "error")
    )
    sections.append(
        f"{len(telemetry_file.snapshots)} snapshot(s), "
        f"{len(telemetry_file.events)} event(s) "
        f"({warning_count} warning/error)"
    )
    return "\n\n".join(sections)


def _column_names(files: List[TelemetryFile]) -> List[str]:
    """One distinct name per file: its label, with ``#<position>``
    (1-based) appended when another file carries the same label."""
    labels = [telemetry_file.label for telemetry_file in files]
    return [
        f"{label} #{i}" if labels.count(label) > 1 else label
        for i, label in enumerate(labels, start=1)
    ]


def compare_runs(files: List[TelemetryFile]) -> dict:
    """Align lanes across ``files``; baseline is the first file.

    Returns ``{"files": [...], "lanes": {key: {"metrics": [per-file
    dict|None], "deltas": {metric: candidate - baseline}}}}`` where
    deltas compare the *last* file against the baseline.  ``files``
    names each file by its label, made distinct by position when two
    files share one.
    """
    keys: List[str] = []
    for telemetry_file in files:
        for key in telemetry_file.lanes:
            if key not in keys:
                keys.append(key)
    lanes: Dict[str, dict] = {}
    for key in keys:
        per_file: List[Optional[dict]] = []
        for telemetry_file in files:
            lane = telemetry_file.lanes.get(key)
            per_file.append(lane_metrics(lane) if lane is not None else None)
        deltas: Dict[str, float] = {}
        base, last = per_file[0], per_file[-1]
        if base is not None and last is not None:
            for metric in ("efficiency", "redirect_ratio", "ingress_fraction"):
                b, c = base.get(metric), last.get(metric)
                if (
                    isinstance(b, (int, float))
                    and isinstance(c, (int, float))
                    and math.isfinite(b)
                    and math.isfinite(c)
                ):
                    deltas[metric] = c - b
        lanes[key] = {"metrics": per_file, "deltas": deltas}
    return {"files": _column_names(files), "lanes": lanes}


def render_comparison(files: List[TelemetryFile]) -> str:
    """Human-readable comparison table of two or more files."""
    comparison = compare_runs(files)
    labels = comparison["files"]
    rows = []
    for key, entry in comparison["lanes"].items():
        row: dict = {"lane": key}
        for label, metrics in zip(labels, entry["metrics"]):
            row[label] = metrics.get("efficiency") if metrics else None
        row["delta"] = entry["deltas"].get("efficiency")
        rows.append(row)
    header = "steady-state efficiency by run (delta = last - first)"
    return format_table(rows, title=header)


def max_efficiency_drop(comparison: dict) -> float:
    """The worst efficiency regression (positive = got worse)."""
    worst = 0.0
    for entry in comparison["lanes"].values():
        delta = entry["deltas"].get("efficiency")
        if delta is not None:
            worst = max(worst, -delta)
    return worst


def main(argv=None) -> int:
    """CLI body for ``repro-report`` (wired up in :mod:`repro.cli`)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-report",
        description=(
            "Render one telemetry JSONL file, or compare several "
            "(the first file is the baseline)."
        ),
    )
    parser.add_argument("files", nargs="+", help="telemetry .jsonl file(s)")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable comparison structure instead of tables",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate every file against the schema; exit 1 on violations",
    )
    parser.add_argument(
        "--max-eff-drop",
        type=float,
        default=None,
        metavar="X",
        help=(
            "exit 1 when any lane's steady-state efficiency drops by "
            "more than X between the baseline (first file) and the "
            "last file"
        ),
    )
    args = parser.parse_args(argv)

    files = load_runs(args.files)
    bad = [f for f in files if not f.ok]
    if bad:
        for telemetry_file in bad:
            for issue in telemetry_file.issues[:20]:
                print(f"{telemetry_file.path}: {issue}")
            if len(telemetry_file.issues) > 20:
                print(
                    f"{telemetry_file.path}: ... and "
                    f"{len(telemetry_file.issues) - 20} more"
                )
        if args.check:
            return 1

    if args.json:
        payload = compare_runs(files)
        payload["schema_ok"] = not bad
        if args.max_eff_drop is not None:
            payload["max_efficiency_drop"] = max_efficiency_drop(payload)
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif len(files) == 1:
        print(render_single(files[0]))
    else:
        print(render_comparison(files))

    if args.max_eff_drop is not None:
        worst = max_efficiency_drop(compare_runs(files))
        if worst > args.max_eff_drop:
            print(
                f"FAIL: steady-state efficiency dropped {worst:.4f} "
                f"(> {args.max_eff_drop:.4f} allowed)"
            )
            return 1
    return 0
