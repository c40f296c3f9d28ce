"""The LFU baseline on the policy-kernel protocol.

LFU replacement with periodic aging and hit-count admission (the
paper's Section 3 frequency family), expressed as a
:class:`~repro.core.policy.kernel.PolicyKernel`.  This is the one
production LFU: ``CACHE_FACTORIES`` serves it as ``LFU-PK`` and, under
the baseline's name, as ``LFU``.  It was ported byte-identically from
a hand-fused LFU cache, which it replaced; a legacy ``lfu`` snapshot
of that cache loads into it (:mod:`repro.core.snapshot`).  The
hand-written :class:`~repro.verify.oracles.OracleLfu` is the
differential oracle of both names, so the fuzz matrix enforces
byte-identity on the object lane, the packed lane and the vectorized
kernel lane against code that shares nothing with the engine.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from repro.core import kernels
from repro.core.policy.kernel import PolicyKernel
from repro.trace.requests import ChunkId

__all__ = ["LfuKernelPolicy"]


class LfuKernelPolicy(PolicyKernel):
    """LFU replacement with hit-count admission and periodic aging.

    Admission: a video qualifies once it has been requested at least
    ``min_video_hits`` times (first-seen requests are redirected, like
    xLRU).  Replacement: evict the lowest-frequency chunk; frequencies
    are halved every ``aging_interval`` handled requests so stale
    popularity cannot pollute the cache forever (the paper's Section 3
    critique of frequency-based schemes).
    """

    kind = "lfu"
    name = "LFU-PK"
    cost_sensitive = False

    def __init__(self, min_video_hits: int = 2, aging_interval: int = 10_000) -> None:
        super().__init__()
        if min_video_hits < 1:
            raise ValueError(f"min_video_hits must be >= 1, got {min_video_hits}")
        if aging_interval < 1:
            raise ValueError(f"aging_interval must be >= 1, got {aging_interval}")
        self.min_video_hits = min_video_hits
        self.aging_interval = aging_interval
        self._video_hits: Counter = Counter()
        self._freq: Dict[ChunkId, float] = {}
        self._handled = 0

    def on_request(self, t: float, video: int, c0: int, c1: int) -> None:
        self._handled += 1
        if self._handled % self.aging_interval == 0:
            self._age()
        self._video_hits[video] += 1

    def rescore_hit(self, t: float, video: int, c: int) -> Optional[float]:
        chunk = (video, c)
        score = self._freq.get(chunk, 0.0) + 1.0
        self._freq[chunk] = score
        return score

    def admit(
        self, t: float, video: int, c0: int, c1: int, num_missing: int
    ) -> Optional[str]:
        if self._video_hits[video] < self.min_video_hits:
            return "unproven-video"
        return None

    def fill_score(self, t: float, video: int, c: int) -> float:
        chunk = (video, c)
        score = self._freq.get(chunk, 0.0) + 1.0
        self._freq[chunk] = score
        return score

    def on_evict(self, chunk: ChunkId, score: float) -> None:
        self._freq.pop(chunk, None)

    def _age(self) -> None:
        """Halve all frequencies and re-key the cached set (in ``_freq``
        admission order, consuming one heap sequence number per resident
        chunk — exactly like ``OracleLfu``'s aging pass)."""
        for chunk in list(self._freq):
            self._freq[chunk] /= 2.0
            self.cache.rekey(chunk, self._freq[chunk])
        for video in list(self._video_hits):
            self._video_hits[video] //= 2
            if self._video_hits[video] == 0:
                del self._video_hits[video]

    def screen(self, block, uniq, inv, counts, first_occurrence):
        """Unproven-video redirects, from the block-start hit counts.

        Sound under the engine's ``first_occurrence & counts == 0``
        guard: a first-occurrence video's live count after its own
        ``on_request`` bump is at most ``snapshot + 1`` (aging can only
        lower it), so ``snapshot + 1 < min_video_hits`` proves the live
        admission test fails.
        """
        snap_hits = kernels.snapshot_counts(uniq, self._video_hits)
        return snap_hits[inv] + 1 < self.min_video_hits

    def gauges(self) -> dict:
        return {
            "tracked_videos": len(self._video_hits),
            "tracked_frequencies": len(self._freq),
            "handled": self._handled,
        }

    def state_dict(self) -> dict:
        return {
            "min_video_hits": self.min_video_hits,
            "aging_interval": self.aging_interval,
            "handled": self._handled,
            "video_hits": [[v, n] for v, n in self._video_hits.items()],
            "freq": [[v, c, f] for (v, c), f in self._freq.items()],
        }

    def load_state(self, state: dict) -> None:
        for knob in ("min_video_hits", "aging_interval"):
            if state[knob] != getattr(self, knob):
                raise ValueError(
                    f"snapshot {knob}={state[knob]} != live {getattr(self, knob)}"
                )
        self._handled = int(state["handled"])
        self._video_hits = Counter({int(v): int(n) for v, n in state["video_hits"]})
        self._freq = {(int(v), int(c)): float(f) for v, c, f in state["freq"]}
