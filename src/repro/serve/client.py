"""A small synchronous client for the ``repro-serve`` wire protocol.

Used by the soak harness, the latency benchmark and the CI smoke job;
deliberately dependency-free (stdlib sockets) so it also serves as the
reference implementation of the client side of the exactly-once
protocol: connect, ``hello`` for the watermark, send from
``watermark + 1``, and on any failure reconnect and ask again.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Optional, Tuple, Union

__all__ = ["ServeClient", "ShardedSeq", "connect_with_retry"]


class ServeClient:
    """One connection speaking line-oriented JSON to the daemon."""

    def __init__(
        self,
        sock: socket.socket,
        timeout: float = 30.0,
        jitter_seed: Optional[int] = None,
    ) -> None:
        sock.settimeout(timeout)
        self._sock = sock
        self._file = sock.makefile("rwb")
        # per-instance RNG: two clients shed with the same retry_after
        # must NOT retry at the same instant (thundering herd); a seed
        # makes backoff reproducible in tests
        self._rng = random.Random(jitter_seed)

    # -- construction --------------------------------------------------------

    @classmethod
    def connect_unix(
        cls,
        path: str,
        timeout: float = 30.0,
        jitter_seed: Optional[int] = None,
    ) -> "ServeClient":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
        except OSError:
            sock.close()
            raise
        return cls(sock, timeout=timeout, jitter_seed=jitter_seed)

    @classmethod
    def connect_tcp(
        cls,
        host: str,
        port: int,
        timeout: float = 30.0,
        jitter_seed: Optional[int] = None,
    ) -> "ServeClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        return cls(sock, timeout=timeout, jitter_seed=jitter_seed)

    def close(self) -> None:
        for closer in (self._file.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- raw line I/O --------------------------------------------------------

    def send_raw(self, line: str) -> None:
        """Send one already-encoded line (no trailing newline needed)."""
        self._file.write(line.encode() + b"\n")

    def send(self, obj: dict) -> None:
        self._file.write(json.dumps(obj).encode() + b"\n")

    def flush(self) -> None:
        self._file.flush()

    def read_response(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    # -- conveniences --------------------------------------------------------

    def op(self, name: str) -> dict:
        self.send({"op": name})
        self.flush()
        return self.read_response()

    def hello(self) -> dict:
        return self.op("hello")

    def stats(self) -> dict:
        return self.op("stats")

    def shutdown(self) -> dict:
        return self.op("shutdown")

    def request(
        self, t: float, video: int, b0: int, b1: int, seq: Optional[int] = None
    ) -> dict:
        message: dict = {"t": t, "video": video, "b0": b0, "b1": b1}
        if seq is not None:
            message["seq"] = seq
        self.send(message)
        self.flush()
        return self.read_response()

    # -- backoff -------------------------------------------------------------

    def backoff(self, retry_after: float, attempt: int = 0) -> float:
        """Jittered wait before honouring a shed's ``retry_after``.

        The daemon hands every concurrently shed client the *same*
        ``retry_after`` hint; sleeping exactly that long would march
        the whole herd back through the door in one instant and trigger
        the next shed.  Decorrelated jitter spreads the retries over
        ``[retry_after/2, retry_after * 1.5 * 2^attempt)`` — each
        client's per-instance RNG picks a different point even when the
        hints are identical.
        """
        retry_after = max(retry_after, 1e-4)
        low = retry_after * 0.5
        high = retry_after * 1.5 * (2 ** min(attempt, 6))
        return self._rng.uniform(low, high)


class ShardedSeq:
    """Client-side per-shard sequence bookkeeping for a sharded fleet.

    Under the router, the exactly-once ledger is *per shard*: each
    worker keeps its own watermark over the subsequence of requests for
    the videos it owns.  A sequenced client therefore assigns
    **per-shard contiguous** sequence numbers using the same
    :func:`repro.cdn.sharding.shard_of` routing the router applies —
    ``next_seq(video)`` hands out 1, 2, 3, ... within the video's
    shard, and :meth:`resume` rewinds every shard cursor to the
    watermarks a router ``hello`` reports (duplicates are acked, so
    overlap after a partial failure is harmless).
    """

    def __init__(self, num_shards: int, num_buckets: int = 1024) -> None:
        from repro.cdn.sharding import shard_of

        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if num_buckets < num_shards:
            raise ValueError("num_buckets must be >= num_shards")
        self._shard_of = shard_of
        self.num_shards = num_shards
        self.num_buckets = num_buckets
        self.next = [1] * num_shards

    def shard(self, video: int) -> int:
        return self._shard_of(video, self.num_shards, self.num_buckets)

    def next_seq(self, video: int) -> Tuple[int, int]:
        """``(shard, seq)`` for the next request of ``video``."""
        shard = self.shard(video)
        seq = self.next[shard]
        self.next[shard] = seq + 1
        return shard, seq

    def rewind(self, shard: int, watermark: int) -> None:
        """Resend from ``watermark + 1`` on one shard."""
        self.next[shard] = watermark + 1

    def resume(self, hello: dict) -> None:
        """Align every cursor with a router ``hello`` reply."""
        for entry in hello.get("shards", []):
            self.rewind(entry["shard"], entry.get("watermark", 0))


def connect_with_retry(
    target: Union[str, Tuple[str, int]],
    timeout: float = 30.0,
    retry_for: float = 10.0,
    interval: float = 0.05,
) -> ServeClient:
    """Connect to a unix path or ``(host, port)``, retrying while the
    daemon is (re)starting.  Raises the last error after ``retry_for``
    seconds."""
    deadline = time.monotonic() + retry_for
    last: Optional[Exception] = None
    while True:
        try:
            if isinstance(target, str):
                return ServeClient.connect_unix(target, timeout=timeout)
            host, port = target
            return ServeClient.connect_tcp(host, port, timeout=timeout)
        except OSError as exc:
            last = exc
            if time.monotonic() >= deadline:
                raise ConnectionError(
                    f"could not reach daemon at {target!r} within "
                    f"{retry_for:g}s: {last!r}"
                ) from last
            time.sleep(interval)
