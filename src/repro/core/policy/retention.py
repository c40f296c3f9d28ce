"""Retention-aware chunk caching (Maggi et al., arXiv:1512.03274).

Audience-retention measurements show most viewers abandon a video early
— the session generator models exactly this skew (an 80/20
full-watch/abandon split with a Beta(0.7, 2.2) abandonment point), so
deep chunks are requested far less often than early ones.  A
position-blind policy spends disk on chunks users never reach; the
retention-aware policy keeps the chunks audiences actually reach by
folding the within-video position into the eviction score::

    score(t, c) = t + boost * 2^(-c / halflife)

i.e. recency, future-dated by a bonus that halves every ``halflife``
chunk positions.  Early chunks (high expected audience) outlive the
plain-LRU horizon; deep chunks (low expected audience) become the
eviction frontier first.  Admission follows the LFU baseline's
hit-count rule (a video must prove ``min_video_hits`` requests) so
one-off videos never pollute the disk, but needs no aging: the score
decay already bounds a stale video's tenure.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.core import kernels
from repro.core.policy.kernel import PolicyKernel

__all__ = ["RetentionAwarePolicy"]


class RetentionAwarePolicy(PolicyKernel):
    """Recency eviction with an early-segment retention boost."""

    kind = "retention"
    name = "Retention"
    cost_sensitive = False

    def __init__(
        self,
        min_video_hits: int = 2,
        boost: float = 3600.0,
        halflife: float = 8.0,
    ) -> None:
        super().__init__()
        if min_video_hits < 1:
            raise ValueError(f"min_video_hits must be >= 1, got {min_video_hits}")
        if boost < 0.0:
            raise ValueError(f"boost must be >= 0, got {boost}")
        if halflife <= 0.0:
            raise ValueError(f"halflife must be > 0, got {halflife}")
        self.min_video_hits = min_video_hits
        self.boost = boost
        self.halflife = halflife
        self._video_hits: Counter = Counter()

    def _score(self, t: float, c: int) -> float:
        return t + self.boost * 2.0 ** (-(c / self.halflife))

    def on_request(self, t: float, video: int, c0: int, c1: int) -> None:
        self._video_hits[video] += 1

    def rescore_hit(self, t: float, video: int, c: int) -> Optional[float]:
        return self._score(t, c)

    def admit(
        self, t: float, video: int, c0: int, c1: int, num_missing: int
    ) -> Optional[str]:
        if self._video_hits[video] < self.min_video_hits:
            return "unproven-video"
        return None

    def fill_score(self, t: float, video: int, c: int) -> float:
        return self._score(t, c)

    def screen(self, block, uniq, inv, counts, first_occurrence):
        """Unproven-video redirects from block-start hit counts.

        Exact (not merely conservative) under the engine's
        first-occurrence guard: hit counts only grow and never decay, so
        a first-occurrence request's live count is precisely
        ``snapshot + 1``.
        """
        snap_hits = kernels.snapshot_counts(uniq, self._video_hits)
        return snap_hits[inv] + 1 < self.min_video_hits

    def gauges(self) -> dict:
        return {"tracked_videos": len(self._video_hits)}

    def state_dict(self) -> dict:
        return {
            "min_video_hits": self.min_video_hits,
            "boost": self.boost,
            "halflife": self.halflife,
            "video_hits": [[v, n] for v, n in self._video_hits.items()],
        }

    def load_state(self, state: dict) -> None:
        for knob in ("min_video_hits", "boost", "halflife"):
            if state[knob] != getattr(self, knob):
                raise ValueError(
                    f"snapshot {knob}={state[knob]} != live {getattr(self, knob)}"
                )
        self._video_hits = Counter({int(v): int(n) for v, n in state["video_hits"]})
