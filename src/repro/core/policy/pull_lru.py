"""Fetch-on-miss LRU on the policy-kernel protocol (Section 2).

The standard Web-proxy pattern the paper argues against: every miss is
cache-filled and replacement is LRU, so ingress is unbounded and the
cache cannot comply with ``alpha_F2R``.  It never redirects, which is
the trivial policy the :class:`~repro.core.policy.kernel.PolicyKernel`
defaults encode (fill and re-score at ``t``).  One thing sets it apart
from the bare defaults: a span larger than the disk is redirected
without touching its resident chunks, while the engine re-scores hits
before its oversized check — so :meth:`PullLruPolicy.on_request` notes
such a span and :meth:`PullLruPolicy.rescore_hit` then leaves the keys
alone.

Recency order is ``(t, insertion sequence)`` order on a time-ordered
trace, so the engine's heap evicts exactly what a recency list would.
The hand-written :class:`~repro.verify.oracles.OraclePullLru` is its
differential oracle.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policy.kernel import PolicyKernel

__all__ = ["PullLruPolicy"]


class PullLruPolicy(PolicyKernel):
    """Always serve, fill every miss, evict the least recently used."""

    kind = "pull-lru"
    name = "PullLRU"
    cost_sensitive = False  # always serves; never consults the cost model

    def __init__(self) -> None:
        super().__init__()
        self._oversized = False

    def on_request(self, t: float, video: int, c0: int, c1: int) -> None:
        self._oversized = c1 - c0 + 1 > self.cache.disk_chunks

    def rescore_hit(self, t: float, video: int, c: int) -> Optional[float]:
        return None if self._oversized else t
