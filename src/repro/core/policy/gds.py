"""Greedy-Dual-Size on the policy-kernel protocol (§3, [7]).

GDS [Cao & Irani, USITS'97] gives each cached chunk a credit
``H = L + cost / size``; eviction takes the minimum-H chunk and raises
the global inflation ``L`` to its credit, which ages everything else
relatively.  With fixed-size chunks the size term degenerates (as the
paper notes: "we deal with fixed-size chunks ... the size is not a
concern"), so the credit is ``L + C_F`` on every hit and fill and GDS
degrades toward LRU-with-aging — which is precisely the paper's point.

GDS is fetch-on-miss caching with another replacement order, so it
extends :class:`~repro.core.policy.pull_lru.PullLruPolicy`: it always
serves a span that fits the disk (its credits use ``C_F``, but it has
no cost-model-driven redirect decision) and redirects a larger span
without re-crediting its resident chunks.  The hand-written
:class:`~repro.verify.oracles.OracleGds` is its differential oracle.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policy.pull_lru import PullLruPolicy
from repro.trace.requests import ChunkId

__all__ = ["GdsPolicy"]


class GdsPolicy(PullLruPolicy):
    """Greedy-Dual-Size replacement on fixed-size chunks."""

    kind = "gds"
    name = "GDS"
    cost_sensitive = True  # credits are L + C_F

    def __init__(self) -> None:
        super().__init__()
        #: the GDS aging value ``L``
        self.inflation = 0.0

    def rescore_hit(self, t: float, video: int, c: int) -> Optional[float]:
        return None if self._oversized else self.fill_score(t, video, c)

    def fill_score(self, t: float, video: int, c: int) -> float:
        return self.inflation + self.cache.cost_model.fill_cost

    def on_evict(self, chunk: ChunkId, score: float) -> None:
        self.inflation = max(self.inflation, score)

    def gauges(self) -> dict:
        return {"inflation": self.inflation}

    def state_dict(self) -> dict:
        return {"inflation": self.inflation}

    def load_state(self, state: dict) -> None:
        self.inflation = float(state["inflation"])
