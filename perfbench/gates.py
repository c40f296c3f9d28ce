"""Correctness gates: pure checks over the outputs the workers report.

Each gate returns a list of failure messages; an empty list passes.
They import nothing from the program, so the orchestrator and the
tests can run them on plain JSON values.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

__all__ = ["count_failed", "fleet_gate", "lanes_gate", "serve_gate", "sweep_gate"]


def sweep_gate(
    reps: Mapping[str, Sequence[Mapping[str, list]]],
    reference: Mapping[str, list],
    telemetry_violations: Sequence[str] = (),
) -> List[str]:
    """Every unprobed cell of every rep equals the scalar-lane reference
    (which also makes the reps equal to each other), every probed cell
    equals its unprobed twin, and the telemetry export validates."""
    failures = []
    for rep, cells in enumerate(reps.get("unprobed", ())):
        if sorted(cells) != sorted(reference):
            failures.append(f"unprobed rep {rep}: cells {sorted(cells)} are not the reference cells")
        for key, row in sorted(reference.items()):
            if key in cells and cells[key] != row:
                failures.append(f"unprobed rep {rep}: {key} totals differ from the scalar-lane reference")
    for rep, cells in enumerate(reps.get("probed", ())):
        for key, row in sorted(cells.items()):
            if reference.get(key) != row:
                failures.append(f"probed rep {rep}: {key} totals differ from its unprobed twin")
    failures.extend(f"telemetry export: {violation}" for violation in telemetry_violations)
    return failures


def fleet_gate(clean: Sequence[str], faulted: Sequence[str], lost: Sequence[int]) -> List[str]:
    """Fingerprints agree across reps within each arm; the faulted arm
    lost requests and ended in a state the fault-free arm did not."""
    failures = []
    if len(set(clean)) != 1:
        failures.append(f"fault-free fingerprints differ across reps: {sorted(set(clean))}")
    if len(set(faulted)) != 1:
        failures.append(f"faulted fingerprints differ across reps: {sorted(set(faulted))}")
    if any(n <= 0 for n in lost):
        failures.append(f"the fault schedule lost no requests in some rep: {list(lost)}")
    if set(clean) & set(faulted):
        failures.append("the faulted arm ended with the fault-free fingerprint")
    return failures


def serve_gate(
    daemon_totals: Mapping[str, int],
    batch_totals: Mapping[str, int],
    watermark: int,
    sent: int,
) -> List[str]:
    """The daemon's final totals equal a batch replay of exactly the
    lines sent, and its watermark counts every one of them."""
    failures = []
    if dict(daemon_totals) != dict(batch_totals):
        diff = {
            k: (daemon_totals.get(k), batch_totals.get(k))
            for k in sorted(set(daemon_totals) | set(batch_totals))
            if daemon_totals.get(k) != batch_totals.get(k)
        }
        failures.append(f"daemon totals differ from batch_totals (daemon, batch): {diff}")
    if watermark != sent:
        failures.append(f"daemon watermark {watermark} != {sent} lines sent")
    return failures


def lanes_gate(untraced: Mapping[str, object], traced: Mapping[str, object]) -> List[str]:
    """The traced run took the same lanes and produced the same outputs
    as the untraced run (compared arm by arm)."""
    failures = []
    for key in sorted(set(untraced) | set(traced)):
        if untraced.get(key) != traced.get(key):
            failures.append(f"{key}: untraced {untraced.get(key)!r} != traced {traced.get(key)!r}")
    return failures


def count_failed(failures: Dict[str, List[str]]) -> int:
    """Failure messages over every gate."""
    return sum(len(v) for v in failures.values())
