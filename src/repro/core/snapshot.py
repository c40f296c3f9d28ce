"""Cache state snapshots: persist and restore a warm cache.

A production cache server restarts without losing its disk; a
simulation should be able to do the same — checkpoint a warmed cache,
restart the process, and continue the replay.  This module serializes
the online caches to plain JSON-able dicts:

* **xLRU** — popularity tracker entries and disk-chunk entries, each in
  recency order with access times;
* **Cafe** — per-chunk EWMA records (``dt``, ``t_last``), the cached
  chunk set, and the ghost list;
* **policy kernels** (``policy:<kind>``: LFU, PullLRU and GDS among
  them) — the policy's own state plus the cached set with its scores.

Restores are *logically* exact: every lookup, IAT, key and admission
decision matches the original state.  Heap-ordered sets (Cafe, policy
kernels) are persisted in ascending ``(score, seq)`` order and
reinserted in that order, so the relative eviction order among
equal-scored chunks survives the round trip even though internal
sequence numbers restart.

The kinds ``lfu`` and ``pull-lru`` were written by the retired
hand-fused LFU and PullLRU caches; they are no longer written, and
:func:`load_state_dict` converts each into the ``policy:lfu`` or
``policy:pull-lru`` snapshot that holds the same state in the
policy's form.

Supported cache types register in :data:`SNAPSHOT_KINDS`; asking for
any other type raises a ``TypeError`` naming both the supported set
and the offending type.  ``repro.serve`` builds its crash-recovery
story on these primitives (DESIGN.md §13).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Type, Union

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
    restarts.  A legacy ``lfu`` or ``pull-lru`` snapshot loads as
    ``policy:lfu`` or ``policy:pull-lru``.
    """
    if state.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot version {state.get('version')!r}")
    legacy = _LEGACY.get(state.get("kind"))
    if legacy is not None:
        state = legacy(state)
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


def _legacy_lfu_as_policy(state: dict) -> dict:
    """A legacy ``lfu`` snapshot as the ``policy:lfu`` one it equals.

    ``handled``, ``video_hits`` and ``freq`` are the policy's state;
    each chunk of ``cached`` keeps its stored ascending order and takes
    its frequency as its score, which is the key the hand-fused cache
    held it under.
    """
    freq = {(v, c): score for v, c, score in state["freq"]}
    cached = []
    for v, c in state["cached"]:
        if (v, c) not in freq:
            raise ValueError(f"cached chunk {(v, c)} missing frequency state")
        cached.append([v, c, freq[(v, c)]])
    policy = ("min_video_hits", "aging_interval", "handled", "video_hits", "freq")
    return _as_policy(state, "lfu", {key: state[key] for key in policy}, cached)


def _legacy_pull_lru_as_policy(state: dict) -> dict:
    """A legacy ``pull-lru`` snapshot as the ``policy:pull-lru`` one it
    equals.

    The stored recency order is kept and each chunk is scored by its
    access time: on a time-ordered trace, recency order is ascending
    ``(access time, sequence)`` order.  A decreasing access time breaks
    that, so it is refused, as the recency list it was dumped from
    refused one.
    """
    cached = []
    last = float("-inf")
    for v, c, t in state["disk"]:
        if t < last:
            raise ValueError(
                f"access time {t} of chunk {(v, c)} precedes {last}; "
                "access times must be non-decreasing"
            )
        last = t
        cached.append([v, c, t])
    return _as_policy(state, "pull-lru", {}, cached)


def _as_policy(state: dict, kind: str, policy_state: dict, cached: list) -> dict:
    header = ("version", "disk_chunks", "chunk_bytes", "alpha_f2r")
    return {
        **{key: state[key] for key in header},
        "kind": f"policy:{kind}",
        "policy": kind,
        "policy_state": policy_state,
        "cached": cached,
    }


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
}
_DUMPERS.update({tag: _dump_policy for tag in _policy_snapshot_kinds()})

_LOADERS = {
    "xlru": _load_xlru,
    "cafe": _load_cafe,
}
_LOADERS.update({tag: _load_policy for tag in _policy_snapshot_kinds()})

#: legacy kind -> converter into the ``policy:<kind>`` snapshot it equals
_LEGACY = {
    "lfu": _legacy_lfu_as_policy,
    "pull-lru": _legacy_pull_lru_as_policy,
}
