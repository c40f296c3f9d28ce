"""``repro.serve`` — the cache as a service, not a batch job.

A long-running asyncio daemon (``repro-serve``) that answers
serve/redirect decisions over a JSONL stream (unix socket, TCP, or
stdin), with the robustness pillars the paper's "lines of defense"
story implies for production: admission control + backpressure, atomic
watermarked crash recovery, a supervised decision worker with bounded
retries, SLO measurement through ``repro.obs``, and a fault-soak
harness proving exactly-once accounting across SIGKILLs.

``--workers N`` scales the daemon out to one event loop per core: N
sharded workers behind a stateless video-hash router
(:mod:`repro.serve.router`), supervised by :mod:`repro.serve.fleet`,
with per-shard snapshot lineages and exactly-merged SLOs.

See DESIGN.md §13 for the single-daemon architecture and failure
matrix, §14 for the sharded fleet.
"""

from repro.serve.client import ServeClient, ShardedSeq, connect_with_retry
from repro.serve.daemon import (
    DecisionService,
    ServeConfig,
    ServeDaemon,
    TransientDecisionError,
)
from repro.serve.fleet import FleetConfig, ServeFleet
from repro.serve.limiter import TokenBucket
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decide_and_account,
    decide_block,
    new_totals,
    parse_line,
)
from repro.serve.router import ShardRouter
from repro.serve.slo import ServeSLO, merged_summary
from repro.serve.snapshotter import RestoredState, SnapshotStore

__all__ = [
    "DecisionService",
    "FleetConfig",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RestoredState",
    "ServeClient",
    "ServeConfig",
    "ServeDaemon",
    "ServeFleet",
    "ServeSLO",
    "ShardRouter",
    "ShardedSeq",
    "SnapshotStore",
    "TokenBucket",
    "TransientDecisionError",
    "connect_with_retry",
    "decide_and_account",
    "decide_block",
    "merged_summary",
    "new_totals",
    "parse_line",
]
