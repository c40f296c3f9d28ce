"""repro — reproduction of "Caching in Video CDNs: Building Strong
Lines of Defense" (Mokhtarian & Jacobsen, EuroSys 2014).

Quickstart::

    from repro import CafeCache, CostModel, TraceGenerator, SERVER_PROFILES, replay

    trace = TraceGenerator(SERVER_PROFILES["europe"]).generate(days=7)
    cache = CafeCache(disk_chunks=2048, cost_model=CostModel(alpha_f2r=2.0))
    result = replay(cache, trace)
    print(result.describe())

Package layout:

* :mod:`repro.core` — the four caching algorithms (xLRU, Cafe, Psychic,
  Optimal) plus classic baselines and the cost model;
* :mod:`repro.trace` — request/chunk model, trace I/O, statistics and
  the Section 9.1 down-sampler;
* :mod:`repro.workload` — synthetic trace generation (six regional
  server profiles);
* :mod:`repro.sim` — replay engine, metrics, parameter sweeps;
* :mod:`repro.cdn` — multi-server topology, redirection maps,
  hierarchical simulation, proactive caching;
* :mod:`repro.experiments` — one module per paper figure;
* :mod:`repro.analysis` — table/series formatting helpers.
"""

from repro.core import (
    BeladyCache,
    CacheResponse,
    CafeCache,
    CostModel,
    Decision,
    OptimalCache,
    OptimalSolution,
    PsychicCache,
    VideoCache,
    XlruCache,
    solve_optimal,
)
from repro.sim import MetricsCollector, SimulationResult, replay
from repro.trace import (
    DEFAULT_CHUNK_BYTES,
    ChunkId,
    Request,
    TraceStats,
    downsample_trace,
)
from repro.workload import SERVER_PROFILES, ServerProfile, TraceGenerator

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "VideoCache",
    "CacheResponse",
    "Decision",
    "CostModel",
    "XlruCache",
    "CafeCache",
    "PsychicCache",
    "OptimalCache",
    "OptimalSolution",
    "solve_optimal",
    "BeladyCache",
    # trace
    "Request",
    "ChunkId",
    "DEFAULT_CHUNK_BYTES",
    "TraceStats",
    "downsample_trace",
    # workload
    "TraceGenerator",
    "ServerProfile",
    "SERVER_PROFILES",
    # sim
    "replay",
    "SimulationResult",
    "MetricsCollector",
]
