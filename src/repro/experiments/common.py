"""Shared experiment infrastructure: scales, trace memoization, sweeps.

Traces are deterministic given (server, scale), so they are memoized
in-process: a bench session that runs Figures 3–7 generates each
server's trace once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.sim.engine import SimulationResult
from repro.sim.runner import sweep_alpha as _sweep_alpha
from repro.trace.requests import Request
from repro.workload.generator import TraceGenerator
from repro.workload.servers import SERVER_PROFILES

__all__ = [
    "ExperimentScale",
    "ExperimentResult",
    "QUICK",
    "FULL",
    "PAPER",
    "DISK_SCALED_1TB",
    "scale_from_env",
    "server_trace",
    "trace_footprint_chunks",
    "scaled_disk_chunks",
    "alpha_sweep_cached",
]

#: The disk fraction of the trace footprint that plays the role of the
#: paper's "1 TB" (calibrated so steady-state efficiencies land in the
#: reported range: xLRU ~0.6, Cafe ~0.75 at alpha=2 on Europe).
DISK_SCALED_1TB = 0.18


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """How big the synthetic reproduction runs."""

    name: str
    #: multiplier on per-server catalog size and session volume
    profile_scale: float
    #: trace length in days (the paper uses a one-month period)
    days: float

    def __post_init__(self) -> None:
        if self.profile_scale <= 0 or self.days <= 0:
            raise ValueError("profile_scale and days must be positive")


#: Fast scale for unit/integration tests.
QUICK = ExperimentScale("quick", profile_scale=0.04, days=6.0)
#: Default bench scale: month-long traces, quarter-size population.
FULL = ExperimentScale("full", profile_scale=0.25, days=30.0)
#: Full synthetic population (slowest; closest to the paper's volumes).
PAPER = ExperimentScale("paper", profile_scale=1.0, days=30.0)

_SCALES = {s.name: s for s in (QUICK, FULL, PAPER)}


def scale_from_env(default: ExperimentScale = FULL) -> ExperimentScale:
    """Resolve the scale from ``REPRO_SCALE`` (quick|full|paper)."""
    name = os.environ.get("REPRO_SCALE", "").strip().lower()
    if not name:
        return default
    try:
        return _SCALES[name]
    except KeyError:
        known = ", ".join(sorted(_SCALES))
        raise ValueError(f"REPRO_SCALE={name!r}; expected one of: {known}") from None


@dataclass
class ExperimentResult:
    """Rows + extras from one figure experiment."""

    name: str
    description: str
    rows: List[dict]
    columns: Optional[List[str]] = None
    extras: Dict[str, object] = field(default_factory=dict)

    def to_text(self) -> str:
        """Render rows and extras as an aligned text block."""
        parts = [format_table(self.rows, columns=self.columns, title=f"{self.name}: {self.description}")]
        for key, value in self.extras.items():
            parts.append(f"{key}: {value}")
        return "\n".join(parts)


# -- trace memoization --------------------------------------------------------

_TRACE_CACHE: Dict[Tuple[str, str], List[Request]] = {}
_FOOTPRINT_CACHE: Dict[Tuple[str, str], int] = {}


def server_trace(server: str, scale: ExperimentScale) -> List[Request]:
    """The (memoized) synthetic trace of one paper server at a scale."""
    key = (server, scale.name)
    if key not in _TRACE_CACHE:
        profile = SERVER_PROFILES[server].scaled(scale.profile_scale)
        _TRACE_CACHE[key] = TraceGenerator(profile).generate(days=scale.days)
    return _TRACE_CACHE[key]


def trace_footprint_chunks(server: str, scale: ExperimentScale) -> int:
    """Unique requested chunks of the server's trace (memoized)."""
    key = (server, scale.name)
    if key not in _FOOTPRINT_CACHE:
        unique = set()
        for r in server_trace(server, scale):
            unique.update(r.chunk_ids())
        _FOOTPRINT_CACHE[key] = len(unique)
    return _FOOTPRINT_CACHE[key]


def scaled_disk_chunks(
    server: str, scale: ExperimentScale, fraction: float = DISK_SCALED_1TB
) -> int:
    """Disk size in chunks: ``fraction`` of the trace footprint."""
    if fraction <= 0:
        raise ValueError("fraction must be positive")
    return max(16, int(trace_footprint_chunks(server, scale) * fraction))


# -- sweep memoization (figures 4 and 5 share one sweep) -----------------------

_SWEEP_CACHE: Dict[tuple, Mapping[float, Dict[str, SimulationResult]]] = {}


def alpha_sweep_cached(
    server: str,
    scale: ExperimentScale,
    alphas: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    disk_fraction: float = DISK_SCALED_1TB,
    workers: Optional[int] = None,
    algorithms: Optional[Sequence[str]] = None,
) -> Mapping[float, Dict[str, SimulationResult]]:
    """Run (or reuse) an algorithm/alpha sweep on a server.

    ``algorithms`` defaults to the paper trio (xLRU/Cafe/Psychic, the
    Figure 4/5 matrix); the policy-family experiment passes its own
    lineup.  ``workers`` is forwarded to the sweep scheduler (it also
    honours the ``REPRO_WORKERS`` environment variable); the cache key
    ignores it because the results are execution-strategy independent.
    """
    key = (
        server,
        scale.name,
        tuple(alphas),
        disk_fraction,
        None if algorithms is None else tuple(algorithms),
    )
    if key not in _SWEEP_CACHE:
        trace = server_trace(server, scale)
        disk = scaled_disk_chunks(server, scale, disk_fraction)
        kwargs = {} if algorithms is None else {"algorithms": tuple(algorithms)}
        _SWEEP_CACHE[key] = _sweep_alpha(
            trace, disk, alphas=alphas, workers=workers, **kwargs
        )
    return _SWEEP_CACHE[key]
