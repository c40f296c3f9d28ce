"""Deterministic fault injection for multi-server replay.

The paper's framing is cache servers as "strong lines of defense" (§1,
§10) that keep traffic off constrained ingress links and the origin.
This module asks the follow-up question the paper leaves open: what
happens when a line of defense *falls*?  It models four failure kinds
as timed, seedable events:

* ``outage`` — the server is unreachable for a window; its cache state
  survives (a network partition or a crashed frontend);
* ``restart`` — the server is unreachable for a window and comes back
  **cold**: its cache is wiped at recovery time (a disk swap or a
  process restart without persistence);
* ``degrade`` — the server's ingress link is degraded for a window:
  every byte it cache-fills effectively costs ``factor`` times the
  normal fill cost (congested backbone, lossy transit);
* ``brownout`` — the *origin* drops a fraction of the requests that
  reach it during a window (overload shedding).  Drops are decided by
  a dedicated ``random.Random(schedule.seed)`` stream, so a schedule
  replays bit-identically.

Routing semantics inside :class:`~repro.cdn.multiserver.CdnSimulator`:

* a user request that targets a *down* server fails over along the
  topology's secondary map (``redirect_to``), bounded by
  ``max_redirects`` and backstopped by the origin;
* a cache fill that targets a down upstream retries against that
  server's own ``fill_from`` hop, climbing until the origin (fill
  chains are acyclic by construction);
* a request the origin drops during a brownout is **lost** — the
  failure the defense lines exist to prevent — and is accounted both
  CDN-wide and at the edge it landed on.

Everything is deterministic: the same topology, traces and schedule
produce byte-identical results, and an **empty schedule (or none) is
exactly free** — the object lane does a single ``is None`` check per
hop, the packed lane replays one epoch (fault state only changes at
:meth:`FaultRuntime.boundaries`), and both stay byte-identical to a
fault-unaware replay.
"""

from __future__ import annotations

import pickle
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cdn.topology import CdnTopology

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "ServerAvailability",
    "FaultRuntime",
]

FAULT_KINDS = ("outage", "restart", "degrade", "brownout")


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One timed fault: a server misbehaves during ``[t, t + duration)``.

    ``factor`` is the fill-cost multiplier of ``degrade`` events (> 1);
    ``drop_fraction`` is the share of requests a ``brownout`` origin
    drops (in ``(0, 1]``).  Both are ignored by the other kinds.
    """

    kind: str
    server: str
    t: float
    duration: float
    factor: float = 2.0
    drop_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.duration <= 0:
            raise ValueError(f"fault duration must be positive, got {self.duration}")
        if self.kind == "degrade" and self.factor <= 1.0:
            raise ValueError(
                f"degrade factor must be > 1 (got {self.factor}); "
                "factor 1 is not a fault"
            )
        if self.kind == "brownout" and not 0.0 < self.drop_fraction <= 1.0:
            raise ValueError(
                f"brownout drop_fraction must be in (0, 1], got {self.drop_fraction}"
            )

    @property
    def t_end(self) -> float:
        return self.t + self.duration

    def describe(self) -> str:
        extra = ""
        if self.kind == "degrade":
            extra = f" x{self.factor:g}"
        elif self.kind == "brownout":
            extra = f" drop={self.drop_fraction:g}"
        return f"{self.kind}[{self.server}] t={self.t:g}+{self.duration:g}{extra}"


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted set of fault events plus a drop seed.

    The schedule is pure data — it knows nothing about a topology until
    :meth:`runtime` binds it to one (validating that outage/restart/
    degrade target cache servers and brownouts target the origin).
    """

    events: Tuple[FaultEvent, ...] = ()
    #: seed of the brownout drop stream (irrelevant without brownouts)
    seed: int = 0

    def __init__(
        self, events: Iterable[FaultEvent] = (), seed: int = 0
    ) -> None:
        ordered = tuple(sorted(events, key=lambda e: (e.t, e.server, e.kind)))
        object.__setattr__(self, "events", ordered)
        object.__setattr__(self, "seed", seed)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def describe(self) -> str:
        if not self.events:
            return "no faults"
        return "; ".join(e.describe() for e in self.events)

    def runtime(self, topology: CdnTopology) -> Optional["FaultRuntime"]:
        """Bind the schedule to a topology; None when the schedule is empty."""
        if not self.events:
            return None
        return FaultRuntime(self, topology)

    @classmethod
    def random(
        cls,
        cache_servers: Sequence[str],
        origin: str,
        duration: float,
        seed: int,
        num_events: int = 4,
        min_duration_fraction: float = 0.02,
        max_duration_fraction: float = 0.10,
    ) -> "FaultSchedule":
        """A seeded random schedule over ``[0, duration)``.

        Used by the fault fuzzer: outage/restart/degrade events land on
        random cache servers, plus (with probability 1/2) one origin
        brownout.  Identical arguments produce identical schedules.
        """
        if not cache_servers:
            raise ValueError("need at least one cache server")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        kinds = ("outage", "restart", "degrade")
        for _ in range(num_events):
            span = duration * rng.uniform(
                min_duration_fraction, max_duration_fraction
            )
            start = rng.uniform(0.0, max(duration - span, 0.0))
            events.append(
                FaultEvent(
                    kind=rng.choice(kinds),
                    server=rng.choice(list(cache_servers)),
                    t=start,
                    duration=span,
                    factor=rng.choice((1.5, 2.0, 4.0)),
                )
            )
        if rng.random() < 0.5:
            span = duration * rng.uniform(
                min_duration_fraction, max_duration_fraction
            )
            events.append(
                FaultEvent(
                    kind="brownout",
                    server=origin,
                    t=rng.uniform(0.0, max(duration - span, 0.0)),
                    duration=span,
                    drop_fraction=rng.choice((0.25, 0.5, 1.0)),
                )
            )
        return cls(events, seed=seed)


@dataclass
class ServerAvailability:
    """Per-server availability accounting of one faulted replay."""

    #: user requests that targeted this server while it was down
    down_requests: int = 0
    #: cache-fill requests that targeted this server while it was down
    down_fills: int = 0
    #: extra routing hops caused by this server being down
    failover_hops: int = 0
    #: requests this server served on behalf of a down server
    backup_requests: int = 0
    backup_bytes: int = 0
    #: user requests landing on this edge that were ultimately dropped
    lost_requests: int = 0
    lost_bytes: int = 0
    #: cold restarts applied (cache wiped at recovery)
    restarts: int = 0
    #: ingress spent re-warming the cache after each cold restart
    refill_bytes: int = 0
    #: seconds from recovery until occupancy regained its pre-wipe level
    rewarm_seconds: List[float] = field(default_factory=list)
    #: fill bytes moved while the ingress link was degraded
    degraded_fill_bytes: int = 0
    #: cost-equivalent extra ingress: sum((factor - 1) * fill_bytes)
    extra_ingress_bytes: float = 0.0

    def to_dict(self) -> dict:
        return {
            "down_requests": self.down_requests,
            "down_fills": self.down_fills,
            "failover_hops": self.failover_hops,
            "backup_requests": self.backup_requests,
            "backup_bytes": self.backup_bytes,
            "lost_requests": self.lost_requests,
            "lost_bytes": self.lost_bytes,
            "restarts": self.restarts,
            "refill_bytes": self.refill_bytes,
            "rewarm_seconds": list(self.rewarm_seconds),
            "degraded_fill_bytes": self.degraded_fill_bytes,
            "extra_ingress_bytes": self.extra_ingress_bytes,
        }


class _IntervalSet:
    """Merged half-open intervals with O(log n) point queries."""

    __slots__ = ("starts", "ends")

    def __init__(self, intervals: Iterable[Tuple[float, float]]) -> None:
        merged: List[List[float]] = []
        for start, end in sorted(intervals):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        self.starts = [m[0] for m in merged]
        self.ends = [m[1] for m in merged]

    def covers(self, t: float) -> bool:
        i = bisect_right(self.starts, t) - 1
        return i >= 0 and t < self.ends[i]


class _FactorIntervals:
    """Point query of the (maximum) active degrade factor at a time."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Tuple[float, float, float]]) -> None:
        self.intervals = sorted(intervals)

    def factor_at(self, t: float) -> float:
        worst = 1.0
        for start, end, factor in self.intervals:
            if start > t:
                break
            if t < end and factor > worst:
                worst = factor
        return worst


class FaultRuntime:
    """A :class:`FaultSchedule` bound to a topology, ready to replay.

    Holds the per-server interval indexes, the pending cache wipes, the
    pristine cache blobs that implement a cold restart, and the
    availability counters.  One runtime serves one replay — build a
    fresh one (via :meth:`FaultSchedule.runtime`) per run.
    """

    def __init__(self, schedule: FaultSchedule, topology: CdnTopology) -> None:
        self.schedule = schedule
        self.topology = topology
        origin = topology.origin_name
        self.availability: Dict[str, ServerAvailability] = {
            name: ServerAvailability() for name in topology.servers
        }
        self._drop_rng = random.Random(schedule.seed)

        down: Dict[str, List[Tuple[float, float]]] = {}
        degrade: Dict[str, List[Tuple[float, float, float]]] = {}
        brownout: List[Tuple[float, float, float]] = []
        wipes: List[Tuple[float, str]] = []
        for event in schedule.events:
            if event.server not in topology:
                raise ValueError(
                    f"fault event targets unknown server {event.server!r}"
                )
            is_origin = event.server == origin
            if event.kind == "brownout":
                if not is_origin:
                    raise ValueError(
                        f"brownout events must target the origin "
                        f"({origin!r}), got {event.server!r}"
                    )
                brownout.append((event.t, event.t_end, event.drop_fraction))
            else:
                if is_origin:
                    raise ValueError(
                        f"{event.kind} events cannot target the origin "
                        "(it has no cache and never goes down); "
                        "use a brownout instead"
                    )
                if event.kind in ("outage", "restart"):
                    down.setdefault(event.server, []).append(
                        (event.t, event.t_end)
                    )
                    if event.kind == "restart":
                        wipes.append((event.t_end, event.server))
                else:
                    degrade.setdefault(event.server, []).append(
                        (event.t, event.t_end, event.factor)
                    )

        self._down = {name: _IntervalSet(iv) for name, iv in down.items()}
        self._degrade = {
            name: _FactorIntervals(iv) for name, iv in degrade.items()
        }
        self._brownout = sorted(brownout)
        #: (recovery_time, server) queue; applied lazily as replay time
        #: passes each recovery instant
        self._wipes = sorted(wipes)
        self._wipe_index = 0
        #: server -> (pre-wipe occupancy target, recovery time) while
        #: the cache is re-warming after a cold restart
        self._rewarming: Dict[str, Tuple[int, float]] = {}
        #: pristine cache state, captured at replay start, used to
        #: implement the wipe (a cold restart restores t=0 state)
        self._pristine: Dict[str, bytes] = {}
        for _, name in self._wipes:
            if name not in self._pristine:
                self._pristine[name] = pickle.dumps(
                    self._wipe_target(topology[name]),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )

    # -- queries (called per request, must stay cheap) -----------------------

    def is_down(self, name: str, t: float) -> bool:
        intervals = self._down.get(name)
        return intervals is not None and intervals.covers(t)

    def fill_factor(self, name: str, t: float) -> float:
        intervals = self._degrade.get(name)
        return 1.0 if intervals is None else intervals.factor_at(t)

    def browned_out(self, t: float) -> bool:
        """Whether a brownout window covers ``t`` (consumes no drops)."""
        return any(start <= t < end for start, end, _f in self._brownout)

    def origin_drops(self, t: float) -> bool:
        """Whether the origin sheds this request (consumes drop stream).

        The drop stream advances only for requests arriving inside a
        brownout window, so determinism is preserved regardless of how
        much traffic flows outside the windows.
        """
        for start, end, fraction in self._brownout:
            if start > t:
                break
            if t < end:
                return self._drop_rng.random() < fraction
        return False

    # -- timeline ------------------------------------------------------------

    def boundaries(self) -> List[float]:
        """Every event's ``t`` and ``t_end``, sorted and distinct.

        Between two consecutive boundaries the fault state (who is
        down, each degrade factor, the brownout) is constant.
        """
        return sorted(
            {x for event in self.schedule.events for x in (event.t, event.t_end)}
        )

    def advance_to(self, t: float) -> List[str]:
        """Apply every cache wipe whose recovery time has passed.

        Returns the names of the servers wiped (for event logging).
        """
        wiped: List[str] = []
        while (
            self._wipe_index < len(self._wipes)
            and self._wipes[self._wipe_index][0] <= t
        ):
            recovery_t, name = self._wipes[self._wipe_index]
            self._wipe_index += 1
            self._apply_wipe(name, recovery_t)
            wiped.append(name)
        return wiped

    def note_fill(self, name: str, t: float, fill_bytes: int, occupancy: int) -> None:
        """Fold one cache fill into degrade + re-warm accounting."""
        stats = self.availability[name]
        factor = self.fill_factor(name, t)
        if factor > 1.0:
            stats.degraded_fill_bytes += fill_bytes
            stats.extra_ingress_bytes += (factor - 1.0) * fill_bytes
        warming = self._rewarming.get(name)
        if warming is not None:
            stats.refill_bytes += fill_bytes
            target, recovery_t = warming
            if occupancy >= target:
                stats.rewarm_seconds.append(t - recovery_t)
                del self._rewarming[name]

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _wipe_target(server):
        """The object a wipe replaces: the inner cache when audited."""
        cache = server.cache
        if hasattr(cache, "note_wipe") and hasattr(cache, "inner"):
            return cache.inner
        return cache

    def _apply_wipe(self, name: str, recovery_t: float) -> None:
        server = self.topology[name]
        cache = server.cache
        occupancy_before = len(cache)
        pristine = pickle.loads(self._pristine[name])
        if hasattr(cache, "note_wipe") and hasattr(cache, "inner"):
            # Audited wrapper: swap the inner cache, keep the auditor
            # (so capacity/fill invariants keep holding across the wipe)
            # and let it check the wipe-emptiness invariant.
            cache.inner = pristine
            cache.note_wipe()
        else:
            server.cache = pristine
        stats = self.availability[name]
        stats.restarts += 1
        if occupancy_before > 0:
            self._rewarming[name] = (occupancy_before, recovery_t)
