"""Cache state snapshots: persist and restore a warm cache.

A production cache server restarts without losing its disk; a
simulation should be able to do the same — checkpoint a warmed cache,
restart the process, and continue the replay.  This module serializes
the online caches to plain JSON-able dicts:

* **xLRU** — popularity tracker entries and disk-chunk entries, each in
  recency order with access times;
* **Cafe** — per-chunk EWMA records (``dt``, ``t_last``), the cached
  chunk set, and the ghost list;
* **PullLRU** — the disk recency list (the whole state of a
  fetch-on-miss LRU);
* **LFU** — video hit counters, chunk frequencies, the cached set in
  eviction order, and the aging cursor.

Restores are *logically* exact: every lookup, IAT, key and admission
decision matches the original state.  Heap-ordered sets (Cafe, LFU)
are persisted in ascending ``(score, seq)`` order and reinserted in
that order, so the relative eviction order among equal-scored chunks
survives the round trip even though internal sequence numbers restart.

Supported cache types register in :data:`SNAPSHOT_KINDS`; asking for
any other type raises a ``TypeError`` naming both the supported set
and the offending type.  ``repro.serve`` builds its crash-recovery
story on these primitives (DESIGN.md §13).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Tuple, Type, Union

from repro.core.baselines import LfuAdmissionCache, PullThroughLruCache
from repro.core.base import VideoCache
from repro.core.cafe import CafeCache
from repro.core.policy import POLICY_REGISTRY, KernelCache
from repro.core.policy import snapshot_kinds as _policy_snapshot_kinds
from repro.core.xlru import XlruCache

__all__ = [
    "SNAPSHOT_KINDS",
    "snapshot_kind",
    "supports_snapshot",
    "state_dict",
    "load_state_dict",
    "save_snapshot",
    "load_snapshot",
]

_FORMAT_VERSION = 1

#: kind tag -> cache class, for every snapshot-supported algorithm.
SNAPSHOT_KINDS: Dict[str, Type[VideoCache]] = {
    "xlru": XlruCache,
    "cafe": CafeCache,
    "pull-lru": PullThroughLruCache,
    "lfu": LfuAdmissionCache,
}
# Every registered policy kernel snapshots through the generic
# KernelCache dumper/loader under the kind tag ``policy:<kind>``.
SNAPSHOT_KINDS.update(_policy_snapshot_kinds())

_POLICY_KIND_TAGS = {spec.kind: name for name, spec in POLICY_REGISTRY.items()}


def snapshot_kind(cache: VideoCache) -> str:
    """The registry kind tag for ``cache``, or raise ``TypeError``.

    The error names the full supported set and the requested type, so
    a caller wiring an unsupported algorithm (e.g. an offline cache)
    into the snapshot path learns exactly what is allowed.
    """
    if isinstance(cache, KernelCache):
        # dispatch on the bound policy, not the (shared) engine type
        if cache.policy.kind in _POLICY_KIND_TAGS:
            return f"policy:{cache.policy.kind}"
        raise TypeError(
            f"policy kind {cache.policy.kind!r} is not registered; "
            f"registered: {sorted(_POLICY_KIND_TAGS)}"
        )
    for kind, cls in SNAPSHOT_KINDS.items():
        # exact-type match: subclasses may add state the base-kind
        # serializer would silently drop
        if type(cache) is cls:
            return kind
    supported = ", ".join(
        sorted({cls.__name__ for cls in SNAPSHOT_KINDS.values()})
    )
    raise TypeError(
        f"snapshots support {{{supported}}}, not {type(cache).__name__}"
    )


def supports_snapshot(cache: VideoCache) -> bool:
    """True when :func:`state_dict` accepts ``cache``."""
    if isinstance(cache, KernelCache):
        return cache.policy.kind in _POLICY_KIND_TAGS
    return type(cache) in SNAPSHOT_KINDS.values()


def state_dict(cache: VideoCache) -> dict:
    """Extract a JSON-able snapshot of a supported cache's state."""
    kind = snapshot_kind(cache)
    state = {
        "version": _FORMAT_VERSION,
        "kind": kind,
        "disk_chunks": cache.disk_chunks,
        "chunk_bytes": cache.chunk_bytes,
        "alpha_f2r": cache.cost_model.alpha_f2r,
    }
    state.update(_DUMPERS[kind](cache))
    return state


def load_state_dict(cache: VideoCache, state: dict) -> None:
    """Restore a snapshot into a compatibly configured cache.

    The target must match the snapshot's geometry (disk size, chunk
    size); the cost model may differ — operators retune alpha across
    restarts.
    """
    if state.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot version {state.get('version')!r}")
    expected = snapshot_kind(cache)
    if state.get("kind") != expected:
        raise ValueError(
            f"snapshot kind {state.get('kind')!r} cannot load into {expected}"
        )
    if (
        state["disk_chunks"] != cache.disk_chunks
        or state["chunk_bytes"] != cache.chunk_bytes
    ):
        raise ValueError(
            "snapshot geometry mismatch: snapshot "
            f"({state['disk_chunks']} chunks x {state['chunk_bytes']} B) vs "
            f"cache ({cache.disk_chunks} x {cache.chunk_bytes})"
        )
    _LOADERS[expected](cache, state)


def save_snapshot(cache: VideoCache, path: Union[str, Path]) -> None:
    """Write a cache snapshot as JSON."""
    with open(path, "w") as fh:
        json.dump(state_dict(cache), fh)


def load_snapshot(cache: VideoCache, path: Union[str, Path]) -> None:
    """Load a JSON snapshot written by :func:`save_snapshot`."""
    with open(path) as fh:
        load_state_dict(cache, json.load(fh))


# -- internals -----------------------------------------------------------------


def _encode_float(value: float) -> Union[float, str]:
    # JSON has no inf; first-sighting dt values are inf
    return "inf" if math.isinf(value) else value


def _decode_float(value: Union[float, str]) -> float:
    return float("inf") if value == "inf" else float(value)


def _dump_xlru(cache: XlruCache) -> dict:
    return {
        "tracker": [[video, t] for video, t in cache._tracker.items()],
        "disk": [[v, c, t] for (v, c), t in cache._disk.items()],
    }


def _dump_cafe(cache: CafeCache) -> dict:
    return {
        "gamma": cache._stats.gamma,
        "stats": [
            [v, c, _encode_float(state.dt), state.t_last]
            for (v, c), state in cache._stats.items()
        ],
        "cached": [[v, c] for (v, c), _ in cache._cached.items_ascending()],
        "ghosts": [[v, c, t] for (v, c), t in cache._ghosts.items()],
    }


def _dump_pull_lru(cache: PullThroughLruCache) -> dict:
    return {
        "disk": [[v, c, t] for (v, c), t in cache._disk.items()],
    }


def _dump_lfu(cache: LfuAdmissionCache) -> dict:
    # ``cached`` is persisted in ascending (score, seq) order; the
    # loader reinserts in that order, which preserves the relative
    # eviction order among equal-frequency chunks.  Frequencies are
    # dyadic (increments of 1.0, halved by aging), so the JSON float
    # round-trip is exact.
    return {
        "min_video_hits": cache.min_video_hits,
        "aging_interval": cache.aging_interval,
        "handled": cache._handled,
        "video_hits": [[video, hits] for video, hits in cache._video_hits.items()],
        "freq": [[v, c, score] for (v, c), score in cache._freq.items()],
        "cached": [[v, c] for (v, c), _ in cache._cached.items_ascending()],
    }


def _load_xlru(cache: XlruCache, state: dict) -> None:
    from repro.structures.lru import AccessRecencyList

    tracker: AccessRecencyList = AccessRecencyList()
    for video, t in state["tracker"]:
        tracker.touch(int(video), float(t))
    disk: AccessRecencyList = AccessRecencyList()
    for v, c, t in state["disk"]:
        disk.touch((int(v), int(c)), float(t))
    if len(disk) > cache.disk_chunks:
        raise ValueError("snapshot holds more chunks than the disk fits")
    cache._tracker = tracker
    cache._disk = disk
    cache._requests_since_cleanup = 0


def _load_cafe(cache: CafeCache, state: dict) -> None:
    from repro.structures.ewma import EwmaIat, IatEstimator
    from repro.structures.lru import AccessRecencyList
    from repro.structures.scoreheap import ScoreHeap

    stats: IatEstimator = IatEstimator(float(state["gamma"]))
    for v, c, dt, t_last in state["stats"]:
        stats[(int(v), int(c))] = EwmaIat(
            dt=_decode_float(dt), t_last=float(t_last)
        )
    cached: ScoreHeap = ScoreHeap()
    video_chunks: dict[int, set] = {}
    for v, c in state["cached"]:
        chunk = (int(v), int(c))
        if chunk not in stats:
            raise ValueError(f"cached chunk {chunk} missing IAT state")
        cached.insert(chunk, stats.key(chunk))
        video_chunks.setdefault(chunk[0], set()).add(chunk[1])
    if len(cached) > cache.disk_chunks:
        raise ValueError("snapshot holds more chunks than the disk fits")
    ghosts: AccessRecencyList = AccessRecencyList()
    for v, c, t in state["ghosts"]:
        ghosts.touch((int(v), int(c)), float(t))
    cache._stats = stats
    cache._stats.gamma = float(state["gamma"])
    cache._cached = cached
    cache._ghosts = ghosts
    cache._video_chunks = video_chunks


def _load_pull_lru(cache: PullThroughLruCache, state: dict) -> None:
    from repro.structures.lru import AccessRecencyList

    disk: AccessRecencyList = AccessRecencyList()
    for v, c, t in state["disk"]:
        disk.touch((int(v), int(c)), float(t))
    if len(disk) > cache.disk_chunks:
        raise ValueError("snapshot holds more chunks than the disk fits")
    cache._disk = disk


def _load_lfu(cache: LfuAdmissionCache, state: dict) -> None:
    from collections import Counter

    from repro.structures.scoreheap import ScoreHeap

    if (
        int(state["min_video_hits"]) != cache.min_video_hits
        or int(state["aging_interval"]) != cache.aging_interval
    ):
        raise ValueError(
            "snapshot admission/aging mismatch: snapshot "
            f"(min_video_hits={state['min_video_hits']}, "
            f"aging_interval={state['aging_interval']}) vs cache "
            f"({cache.min_video_hits}, {cache.aging_interval})"
        )
    freq: Dict[Tuple[int, int], float] = {
        (int(v), int(c)): float(score) for v, c, score in state["freq"]
    }
    cached: ScoreHeap = ScoreHeap()
    for v, c in state["cached"]:
        chunk = (int(v), int(c))
        if chunk not in freq:
            raise ValueError(f"cached chunk {chunk} missing frequency state")
        cached.insert(chunk, freq[chunk])
    if len(cached) > cache.disk_chunks:
        raise ValueError("snapshot holds more chunks than the disk fits")
    cache._video_hits = Counter(
        {int(video): int(hits) for video, hits in state["video_hits"]}
    )
    cache._freq = freq
    cache._cached = cached
    cache._handled = int(state["handled"])


def _dump_policy(cache: KernelCache) -> dict:
    # ``cached`` carries explicit scores in ascending (score, seq)
    # order; the loader reinserts in that order, preserving the
    # relative eviction order among equal-scored chunks.  The policy's
    # own state rides along via its state_dict contract.
    return {
        "policy": cache.policy.kind,
        "policy_state": cache.policy.state_dict(),
        "cached": [
            [v, c, _encode_float(score)]
            for (v, c), score in cache._cached.items_ascending()
        ],
    }


def _load_policy(cache: KernelCache, state: dict) -> None:
    from repro.structures.scoreheap import ScoreHeap

    if state["policy"] != cache.policy.kind:
        raise ValueError(
            f"snapshot policy kind {state['policy']!r} cannot load into "
            f"{cache.policy.kind!r}"
        )
    # load_state validates immutable knobs before any engine mutation
    cache.policy.load_state(state["policy_state"])
    cached: ScoreHeap = ScoreHeap()
    for v, c, score in state["cached"]:
        cached.insert((int(v), int(c)), _decode_float(score))
    if len(cached) > cache.disk_chunks:
        raise ValueError("snapshot holds more chunks than the disk fits")
    cache._cached = cached


_DUMPERS = {
    "xlru": _dump_xlru,
    "cafe": _dump_cafe,
    "pull-lru": _dump_pull_lru,
    "lfu": _dump_lfu,
}
_DUMPERS.update({tag: _dump_policy for tag in _policy_snapshot_kinds()})

_LOADERS = {
    "xlru": _load_xlru,
    "cafe": _load_cafe,
    "pull-lru": _load_pull_lru,
    "lfu": _load_lfu,
}
_LOADERS.update({tag: _load_policy for tag in _policy_snapshot_kinds()})
