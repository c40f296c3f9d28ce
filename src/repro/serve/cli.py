"""``repro-serve``: run the live decision daemon from the command line.

``--workers 1`` (the default) runs the single daemon exactly as PR 8
shipped it — same wire, same snapshot lineage.  ``--workers N`` (N>1)
runs the sharded fleet instead: this process becomes the supervisor
(:mod:`repro.serve.fleet`), which spawns N worker daemons (each one
re-entering this CLI with the hidden ``--shard``/``--num-shards``
flags) and the video-hash router (:mod:`repro.serve.router`) owning the
public endpoint.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional, Sequence, Tuple

from repro.cdn.sharding import DEFAULT_NUM_BUCKETS
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.sim.runner import CACHE_FACTORIES
from repro.trace.requests import DEFAULT_CHUNK_BYTES

__all__ = ["config_flags", "main"]


def _parse_tcp(value: str) -> Tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"--tcp needs HOST:PORT, got {value!r}"
        )
    return host, int(port)


def config_flags(config: ServeConfig) -> List[str]:
    """The ``repro-serve`` flags that carry ``config``'s decision knobs.

    The one mapping from :class:`~repro.serve.daemon.ServeConfig` to
    argv: the soak harnesses and the fleet's workers all build their
    command lines from it.  Endpoints, snapshot dirs, telemetry paths
    and shard coordinates are the caller's to add (a fleet derives them
    per shard).  ``--rate`` and ``--queue-limit`` are per-shard: each
    fleet worker owns its own token bucket and bounded queue
    (DESIGN.md §14).
    """
    flags = [
        "--algorithm", config.algorithm,
        "--disk-chunks", str(config.disk_chunks),
        "--chunk-bytes", str(config.chunk_bytes),
        "--alpha", str(config.alpha_f2r),
        "--rate", str(config.rate),
        "--burst", str(config.burst),
        "--queue-limit", str(config.queue_limit),
        "--snapshot-every", str(config.snapshot_every),
        "--snapshot-keep", str(config.snapshot_keep),
        "--request-timeout", str(config.request_timeout),
        "--max-retries", str(config.max_retries),
        "--publish-interval", str(config.publish_interval),
    ]
    if config.test_hooks:
        flags.append("--test-hooks")
    if config.fault_rate > 0:
        flags += ["--fault-rate", str(config.fault_rate)]
    if config.fault_seed:
        flags += ["--fault-seed", str(config.fault_seed)]
    return flags


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Serve live serve/redirect decisions over a JSONL stream."""
    parser = argparse.ArgumentParser(prog="repro-serve", description=main.__doc__)
    endpoints = parser.add_argument_group("endpoints (at least one)")
    endpoints.add_argument(
        "--socket", metavar="PATH", default=None, help="unix socket to bind"
    )
    endpoints.add_argument(
        "--tcp", metavar="HOST:PORT", type=_parse_tcp, default=None
    )
    endpoints.add_argument(
        "--stdin",
        action="store_true",
        help="speak the protocol on stdin/stdout (EOF stops the daemon)",
    )
    parser.add_argument(
        "--algorithm",
        default="xLRU",
        choices=sorted(
            name
            for name, factory in CACHE_FACTORIES.items()
            if not getattr(factory, "offline", False)
        ),
    )
    parser.add_argument("--disk-chunks", type=int, default=4096)
    parser.add_argument("--chunk-bytes", type=int, default=DEFAULT_CHUNK_BYTES)
    parser.add_argument("--alpha", type=float, default=2.0, dest="alpha")
    parser.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="admission tokens/second, per worker (0 = unlimited)",
    )
    parser.add_argument("--burst", type=float, default=256.0)
    parser.add_argument("--queue-limit", type=int, default=1024)
    parser.add_argument(
        "--snapshot-dir",
        default=None,
        help="enable crash recovery: atomic watermarked snapshots here "
        "(sharded fleets use one subdirectory per shard)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=5000,
        help="applied requests between periodic snapshots (0 = final only)",
    )
    parser.add_argument("--snapshot-keep", type=int, default=2)
    parser.add_argument("--request-timeout", type=float, default=5.0)
    parser.add_argument("--max-retries", type=int, default=3)
    parser.add_argument(
        "--publish-interval",
        type=float,
        default=1.0,
        help="seconds between telemetry pushes to subscribers (0 = off)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="OUT",
        default=None,
        help="write repro.obs JSONL telemetry at graceful shutdown "
        "(sharded fleets merge per-worker files into this path)",
    )
    sharding = parser.add_argument_group("sharded fleet")
    sharding.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 runs the sharded fleet: one event "
        "loop per core, requests routed by video hash",
    )
    sharding.add_argument(
        "--num-buckets",
        type=int,
        default=DEFAULT_NUM_BUCKETS,
        help="video-hash bucket space for shard routing",
    )
    sharding.add_argument(
        "--run-dir",
        default=None,
        help="fleet scratch dir for worker sockets, logs and the "
        "pidfile (default: <socket>.fleet)",
    )
    sharding.add_argument(
        "--pidfile",
        default=None,
        help="atomic JSON role->pid map (default: <run-dir>/fleet.json)",
    )
    # hidden worker-mode flags: the fleet re-enters this CLI with the
    # shard coordinates; humans never pass these
    parser.add_argument("--shard", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument(
        "--num-shards", type=int, default=None, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--test-hooks",
        action="store_true",
        help="enable test-only ops (crash-worker) and fault injection",
    )
    parser.add_argument("--fault-rate", type=float, default=0.0)
    parser.add_argument("--fault-seed", type=int, default=0)
    parser.add_argument(
        "--echo-events", action="store_true", help="echo events to stderr"
    )
    args = parser.parse_args(argv)

    if not (args.socket or args.tcp or args.stdin):
        parser.error("need at least one endpoint: --socket, --tcp or --stdin")
    if args.fault_rate > 0 and not args.test_hooks:
        parser.error("--fault-rate requires --test-hooks")
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if (args.shard is None) != (args.num_shards is None):
        parser.error("--shard and --num-shards go together")
    if args.shard is not None and args.workers > 1:
        parser.error("--shard is a worker-mode flag; it excludes --workers")
    config = ServeConfig(
        algorithm=args.algorithm,
        disk_chunks=args.disk_chunks,
        chunk_bytes=args.chunk_bytes,
        alpha_f2r=args.alpha,
        rate=args.rate,
        burst=args.burst,
        queue_limit=args.queue_limit,
        snapshot_dir=args.snapshot_dir,
        snapshot_every=args.snapshot_every,
        snapshot_keep=args.snapshot_keep,
        request_timeout=args.request_timeout,
        max_retries=args.max_retries,
        publish_interval=args.publish_interval,
        telemetry_path=args.telemetry,
        test_hooks=args.test_hooks,
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
        shard_id=args.shard,
        num_shards=args.num_shards if args.num_shards is not None else 1,
        num_buckets=args.num_buckets,
    )

    if args.workers > 1:
        if args.stdin:
            parser.error("--stdin needs --workers 1 (one loop, one pipe)")
        from repro.obs.events import EventLog
        from repro.serve.fleet import FleetConfig, ServeFleet

        fleet = ServeFleet(
            FleetConfig(
                workers=args.workers,
                socket=args.socket,
                tcp=args.tcp,
                run_dir=args.run_dir,
                num_buckets=args.num_buckets,
                snapshot_dir=args.snapshot_dir,
                telemetry_path=args.telemetry,
                pidfile=args.pidfile,
                worker_args=tuple(config_flags(config)),
                echo_events=args.echo_events,
            ),
            events=EventLog(echo=args.echo_events),
        )
        return fleet.run()

    from repro.obs.events import EventLog

    daemon = ServeDaemon(config, events=EventLog(echo=args.echo_events))
    try:
        return asyncio.run(
            daemon.run(unix_path=args.socket, tcp=args.tcp, stdio=args.stdin)
        )
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
