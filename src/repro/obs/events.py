"""Structured, level-tagged event log for engine and scheduler plumbing.

The sweep scheduler's operational chatter — checkpoint journal resumes
and corrupt tails, shared-memory segment lifecycle, worker crashes and
in-process fallbacks — used to reach the user as a mix of
``warnings.warn`` text and nothing at all.  :class:`EventLog` gives
those paths one sink: every record is a :class:`TelemetryEvent` with a
wall-clock timestamp, a severity level and a machine-friendly tag, so
the telemetry JSONL export (and therefore CI artifacts) captures them
verbatim.

``warning``-level records still raise a real :class:`RuntimeWarning`
(callers and tests that filter on warnings keep working); ``error``
records always echo to stderr; ``info``/``debug`` records echo only
when the log was built with ``echo=True``.
"""

from __future__ import annotations

import sys
import time
import warnings
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["LEVELS", "EventLog", "TelemetryEvent"]

#: Recognized severity levels, in increasing order of severity.
LEVELS = ("debug", "info", "warning", "error")


@dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """One structured log record.

    ``wall`` is seconds since the Unix epoch (CI artifacts correlate
    across jobs by wall time); ``tag`` is a short machine-friendly
    identifier ("checkpoint-resume", "shm-unlink-failed"); ``detail``
    is free-form human context.
    """

    wall: float
    level: str
    tag: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "wall": self.wall,
            "level": self.level,
            "tag": self.tag,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetryEvent":
        return cls(
            wall=data["wall"],
            level=data["level"],
            tag=data["tag"],
            detail=data.get("detail", ""),
        )

    def __str__(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        return f"[{self.level}] {self.tag}{suffix}"


class EventLog:
    """Bounded, mergeable collection of :class:`TelemetryEvent` records.

    The record list is capped at ``max_records`` (oldest records are
    dropped, and the drop itself is counted) so a pathological run
    cannot grow the log without bound.
    """

    def __init__(self, echo: bool = False, max_records: int = 10_000) -> None:
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self.echo = echo
        self.max_records = max_records
        self.records: List[TelemetryEvent] = []
        #: records discarded to honour ``max_records``
        self.dropped = 0

    # -- emission ------------------------------------------------------------

    def emit(
        self, level: str, tag: str, detail: str = "", wall: Optional[float] = None
    ) -> TelemetryEvent:
        """Record one event; returns it for callers that also display it."""
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
        event = TelemetryEvent(
            wall=time.time() if wall is None else wall,
            level=level,
            tag=tag,
            detail=detail,
        )
        self.records.append(event)
        if len(self.records) > self.max_records:
            overflow = len(self.records) - self.max_records
            del self.records[:overflow]
            self.dropped += overflow
        return event

    def debug(self, tag: str, detail: str = "") -> TelemetryEvent:
        event = self.emit("debug", tag, detail)
        if self.echo:
            print(str(event), file=sys.stderr)
        return event

    def info(self, tag: str, detail: str = "") -> TelemetryEvent:
        event = self.emit("info", tag, detail)
        if self.echo:
            print(str(event), file=sys.stderr)
        return event

    def warning(
        self,
        tag: str,
        detail: str = "",
        category: type = RuntimeWarning,
        stacklevel: int = 3,
    ) -> TelemetryEvent:
        """Record a warning and raise it through the warnings machinery.

        Routing through :func:`warnings.warn` keeps the record visible
        on stderr exactly once (no double echo) and keeps
        ``pytest.warns`` / ``-W error`` semantics intact for callers
        that relied on the scheduler's previous ad-hoc warnings.
        """
        event = self.emit("warning", tag, detail)
        warnings.warn(detail or tag, category, stacklevel=stacklevel)
        return event

    def error(self, tag: str, detail: str = "") -> TelemetryEvent:
        event = self.emit("error", tag, detail)
        print(str(event), file=sys.stderr)
        return event

    # -- access / composition ------------------------------------------------

    def select(self, level: str) -> List[TelemetryEvent]:
        """All records at exactly ``level``."""
        return [record for record in self.records if record.level == level]

    def merge(self, other: "EventLog") -> None:
        """Fold ``other``'s records in, keeping wall-clock order."""
        self.records = sorted(
            self.records + other.records, key=lambda record: record.wall
        )
        self.dropped += other.dropped
        if len(self.records) > self.max_records:
            overflow = len(self.records) - self.max_records
            del self.records[:overflow]
            self.dropped += overflow

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
