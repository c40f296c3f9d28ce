"""The ``repro-serve`` wire protocol: JSONL requests, JSONL responses.

One line in, one line out.  Clients send either a *decision request*
(the trace-file schema plus an optional exactly-once sequence number)
or an *operation*::

    {"seq": 17, "t": 123.5, "video": 42, "b0": 0, "b1": 1048575}
    {"op": "hello"}

and receive exactly one JSON response line per input line.  Responses
always carry ``ok`` (bool); failures add a machine-readable ``error``
code from :data:`ERROR_CODES` so clients can branch without parsing
prose.  Malformed lines produce an ``ok=false`` *response*, never a
connection teardown — a misbehaving producer cannot take the daemon
down (DESIGN.md §13's failure matrix).

**Exactly-once accounting.**  ``seq`` numbers are assigned by the
client, contiguous from 1.  The daemon applies ``seq == watermark + 1``
only: a lower seq is acknowledged as a ``duplicate`` (not re-applied,
not re-counted), a higher seq is a ``sequence-gap`` error (not
applied).  After a crash the client asks ``hello`` for the restored
watermark and resends from ``watermark + 1`` — replayed requests land
exactly once no matter where the crash fell relative to the last
snapshot.

:func:`decide_block` is the *single* implementation of decision +
traffic accounting, and it is block-form: the live daemon sends each
batch's in-order run of requests through one call of the cache's
block entry, and the offline batch comparators send whole trace
blocks through the per-request reference entry.  Both fold the same
totals by the same code, so "daemon totals == batch totals" is an
exact check of the daemon's hoisted walk against independent code.
:func:`decide_and_account` is its one-request case.
:func:`encode_response` turns responses into wire lines, applied
decisions through two byte templates.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.base import Decision, VideoCache
from repro.sim.engine import _block_entry
from repro.trace.columnar import list_block

__all__ = [
    "ERROR_CODES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "parse_line",
    "decision_response",
    "duplicate_response",
    "error_response",
    "shed_response",
    "encode_response",
    "decide_block",
    "decide_and_account",
    "new_totals",
]

#: Wire protocol version.  Version 1 is the single-worker daemon of
#: DESIGN.md §13; version 2 adds the sharded router handshake
#: (``hello`` gains ``workers``/``num_buckets``/``shards`` and ``seq``
#: becomes per-shard contiguous when ``workers > 1``).  A ``--workers
#: 1`` daemon still speaks version 1 unchanged — that is the documented
#: downgrade path for clients that assign one global sequence.
PROTOCOL_VERSION = 2

#: Operations a client may issue instead of a decision request.
OPS = (
    "hello",      # identify the daemon; returns watermark + config
    "stats",      # totals, counters, latency quantiles, watermark
    "snapshot",   # force a cache snapshot now; returns its watermark
    "subscribe",  # turn this connection into a telemetry subscriber
    "shutdown",   # graceful stop: drain, snapshot, flush telemetry
    "crash-worker",  # test hook (only honored with --test-hooks)
)

#: Machine-readable failure codes responses may carry.
ERROR_CODES = (
    "malformed",       # unparseable/invalid line (counted, skipped)
    "overloaded",      # load shed at admission; retry_after included
    "sequence-gap",    # seq beyond watermark+1; resend from watermark+1
    "stale-timestamp", # t went backwards; consumed but not applied
    "decision-failed", # transient failure survived all retries
    "timeout",         # per-request deadline exceeded
    "unsupported",     # unknown op, or op not enabled
    "misrouted",       # video does not hash to this shard (not applied)
    "worker-down",     # a fan-out op could not reach a worker shard
)


class ProtocolError(Exception):
    """A structured, per-line protocol failure (never fatal)."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


def parse_line(line: str) -> dict:
    """Parse one wire line into a validated request or op dict.

    Returns ``{"type": "op", "op": ...}`` or ``{"type": "request",
    "seq": int | None, "t": float, "video": int, "b0": int, "b1":
    int}``.  Raises :class:`ProtocolError` (code ``malformed`` or
    ``unsupported``) on anything else; the caller turns that into an
    error *response*, not a disconnect.
    """
    text = line.strip()
    if not text:
        raise ProtocolError("malformed", "empty line")
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ProtocolError("malformed", f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            "malformed", f"expected an object, got {type(obj).__name__}"
        )

    if "op" in obj:
        op = obj["op"]
        if op not in OPS:
            raise ProtocolError("unsupported", f"unknown op {op!r}")
        return {"type": "op", "op": op}

    try:
        t = obj["t"]
        video = obj["video"]
        b0 = obj["b0"]
        b1 = obj["b1"]
    except KeyError as exc:
        raise ProtocolError("malformed", f"missing field {exc.args[0]!r}") from None
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise ProtocolError("malformed", f"t must be a number, got {t!r}")
    for name, value in (("video", video), ("b0", b0), ("b1", b1)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                "malformed", f"{name} must be an integer, got {value!r}"
            )
    if video < 0 or b0 < 0 or b1 < b0:
        raise ProtocolError(
            "malformed", f"need video >= 0 and 0 <= b0 <= b1, got {text}"
        )
    seq = obj.get("seq")
    if seq is not None and (
        isinstance(seq, bool) or not isinstance(seq, int) or seq < 1
    ):
        raise ProtocolError("malformed", f"seq must be an integer >= 1, got {seq!r}")
    return {
        "type": "request",
        "seq": seq,
        "t": float(t),
        "video": video,
        "b0": b0,
        "b1": b1,
    }


# -- response builders ---------------------------------------------------------


def decision_response(seq: int, fields: Dict) -> dict:
    out = {"ok": True, "kind": "decision", "seq": seq}
    out.update(fields)
    return out


def duplicate_response(seq: int, watermark: int) -> dict:
    return {"ok": True, "kind": "duplicate", "seq": seq, "watermark": watermark}


def error_response(
    code: str, detail: str, seq: Optional[int] = None
) -> dict:
    out: dict = {"ok": False, "error": code, "detail": detail}
    if seq is not None:
        out["seq"] = seq
    return out


def shed_response(retry_after: float, detail: str = "admission shed") -> dict:
    """The structured overload answer, with a Retry-After hint (s)."""
    return {
        "ok": False,
        "error": "overloaded",
        "detail": detail,
        "retry_after": round(max(retry_after, 0.0), 6),
    }


#: The two applied-decision lines, byte-equal to
#: ``json.dumps(decision_response(seq, fields)) + "\n"`` for the fields
#: :func:`decide_block` builds.
_SERVE_LINE = (
    b'{"ok": true, "kind": "decision", "seq": %d, "decision": "serve", '
    b'"filled_chunks": %d, "evicted_chunks": %d}\n'
)
_REDIRECT_LINE = (
    b'{"ok": true, "kind": "decision", "seq": %d, "decision": "redirect"}\n'
)


def encode_response(response: dict) -> bytes:
    """One response as its wire line (UTF-8 JSON plus newline).

    Serve and redirect decisions fill a byte template; every other
    response (stale rejections included) goes through ``json.dumps``.
    """
    if response.get("kind") == "decision":
        decision = response["decision"]
        if decision == "serve":
            return _SERVE_LINE % (
                response["seq"],
                response["filled_chunks"],
                response["evicted_chunks"],
            )
        if decision == "redirect":
            return _REDIRECT_LINE % response["seq"]
    return (json.dumps(response) + "\n").encode()


# -- shared decision accounting ------------------------------------------------


def new_totals() -> Dict[str, int]:
    """A zeroed traffic-totals dict (every field is an exact int)."""
    return {
        "requests": 0,
        "served": 0,
        "hits": 0,
        "redirected": 0,
        "rejected_stale": 0,
        "filled_chunks": 0,
        "evicted_chunks": 0,
        "requested_bytes": 0,
    }


def decide_block(
    entry: Callable,
    chunk_bytes: int,
    totals: Dict[str, int],
    ts: Sequence[float],
    videos: Sequence[int],
    b0s: Sequence[int],
    b1s: Sequence[int],
    last_t: float,
) -> Tuple[List[dict], float]:
    """Apply a run of requests through one block-entry call; fold totals.

    ``entry`` is a cache's block entry (its own
    ``handle_span_block_kernel`` or the base-class per-request
    reference, bound to the cache); the requests reach it as one
    list-backed :class:`~repro.trace.columnar.BlockView`.  Returns
    ``(fields, new_last_t)``: each request's response fields, in order,
    and the stream clock after them.

    Timestamps must be non-decreasing: a request whose ``t`` went
    backwards against the running clock is *consumed* (counted under
    ``rejected_stale``) but left out of the block, so it never touches
    the cache.  The daemon and the batch comparators both apply this
    rule, so totals stay byte-identical across them.
    """
    n = len(ts)
    fields: List[Optional[dict]] = [None] * n
    fresh: List[int] = []
    for i, t in enumerate(ts):
        if t < last_t:
            fields[i] = {
                "decision": "rejected",
                "error": "stale-timestamp",
                "detail": f"t={t!r} is before the stream clock {last_t!r}",
            }
        else:
            last_t = t
            fresh.append(i)
    stale = n - len(fresh)
    if stale:
        if not fresh:
            totals["requests"] += n
            totals["rejected_stale"] += n
            return fields, last_t
        ts = [ts[i] for i in fresh]
        videos = [videos[i] for i in fresh]
        b0s = [b0s[i] for i in fresh]
        b1s = [b1s[i] for i in fresh]
    block = list_block(chunk_bytes, ts, videos, b0s, b1s)
    responses, _misses = entry(block)
    serve = Decision.SERVE
    served = hits = filled = evicted = 0
    for i, response in zip(fresh, responses):
        if response.decision is serve:
            f = response.filled_chunks
            e = response.evicted_chunks
            served += 1
            if f == 0:
                hits += 1
            filled += f
            evicted += e
            fields[i] = {
                "decision": "serve",
                "filled_chunks": f,
                "evicted_chunks": e,
            }
        else:
            fields[i] = {"decision": "redirect"}
    # totals move only once the walk returned
    totals["requests"] += n
    totals["rejected_stale"] += stale
    totals["served"] += served
    totals["hits"] += hits
    totals["redirected"] += len(fresh) - served
    totals["filled_chunks"] += filled
    totals["evicted_chunks"] += evicted
    totals["requested_bytes"] += sum(block.num_bytes_l)
    return fields, last_t


def decide_and_account(
    cache: VideoCache,
    totals: Dict[str, int],
    t: float,
    video: int,
    b0: int,
    b1: int,
    last_t: float,
) -> Tuple[dict, float]:
    """One request through :func:`decide_block` and the per-request
    reference entry.  Returns ``(response_fields, new_last_t)``."""
    fields, last_t = decide_block(
        _block_entry(cache, False),
        cache.chunk_bytes,
        totals,
        [t],
        [video],
        [b0],
        [b1],
        last_t,
    )
    return fields[0], last_t
