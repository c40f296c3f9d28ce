"""Tunable / generalized LRU (Friedlander & Aggarwal, arXiv:1806.10853).

Plain LRU inserts a filled chunk at the most-recent end of the queue —
a new object immediately outranks everything resident, which is exactly
why fetch-on-miss LRU collapses under one-hit-wonder traffic.  The
generalized family parameterizes the *insertion position*: a fill
enters a fraction ``q`` of the way up the queue, so it must survive the
``(1-q)`` tail below it (proving itself against re-referenced content)
before it can displace the working set.  ``q = 1`` recovers plain LRU;
small ``q`` approximates FIFO-with-promotion.

On the score axis the queue is the ``(score, seq)`` order, spanning
``[min_score, t]``; the insertion position interpolates::

    fill_score = q * t + (1 - q) * min_score

Hits are always promoted to the top (``t``), like LRU.  Within one
request's fill batch the frontier reading is stable (every fill lands
at or above the pre-fill minimum and evictions happen first), so the
per-fill ``min_score()`` probe is deterministic across the object,
packed and oracle engines.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policy.kernel import PolicyKernel

__all__ = ["TunableLruPolicy"]


class TunableLruPolicy(PolicyKernel):
    """LRU with a tunable insertion position ``q`` in ``(0, 1]``."""

    kind = "qlru"
    name = "qLRU"
    cost_sensitive = False

    def __init__(self, q: float = 0.5) -> None:
        super().__init__()
        if not (0.0 < q <= 1.0):
            raise ValueError(f"q must be in (0, 1], got {q}")
        self.q = q

    def rescore_hit(self, t: float, video: int, c: int) -> Optional[float]:
        return t

    def fill_score(self, t: float, video: int, c: int) -> float:
        base = self.cache.min_score()
        if base is None:
            base = t
        return self.q * t + (1.0 - self.q) * base

    def gauges(self) -> dict:
        return {"q": self.q}

    def state_dict(self) -> dict:
        return {"q": self.q}

    def load_state(self, state: dict) -> None:
        if state["q"] != self.q:
            raise ValueError(f"snapshot q={state['q']} != live {self.q}")
