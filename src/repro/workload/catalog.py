"""Video catalog: file sizes, birth times, and popularity ranks.

A catalog is the population the trace generator samples from.  Sizes
follow a clipped lognormal (most videos are a few minutes, a tail of
long-form content), matching the broad size spread observed in YouTube
workload studies [11].  Part of the catalog exists when the trace
starts; the rest is *churn* — videos born during the trace that ramp up
and decay (handled by :mod:`repro.workload.popularity`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["Video", "VideoCatalog"]


@dataclass(frozen=True, slots=True)
class Video:
    """One catalog entry."""

    video_id: int
    size_bytes: int
    #: popularity rank among catalog peers (0 = most popular)
    rank: int
    #: trace-relative birth time in seconds; <= 0 means pre-existing
    birth: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"video size must be positive, got {self.size_bytes}")


class VideoCatalog:
    """A fixed population of videos with generation helpers."""

    def __init__(self, videos: List[Video]) -> None:
        if not videos:
            raise ValueError("catalog must contain at least one video")
        self.videos = videos
        self._by_id = {v.video_id: v for v in videos}
        if len(self._by_id) != len(videos):
            raise ValueError("duplicate video IDs in catalog")

    def __len__(self) -> int:
        return len(self.videos)

    def __getitem__(self, video_id: int) -> Video:
        return self._by_id[video_id]

    def __contains__(self, video_id: int) -> bool:
        return video_id in self._by_id

    @classmethod
    def generate(
        cls,
        num_videos: int,
        seed: int = 0,
        mean_size_bytes: float = 24e6,
        sigma: float = 0.9,
        min_size_bytes: int = 1 << 20,
        max_size_bytes: int = 512 << 20,
        churn_fraction: float = 0.25,
        duration: float = 30 * 86400.0,
        first_id: int = 0,
    ) -> "VideoCatalog":
        """Generate a catalog of ``num_videos``.

        ``churn_fraction`` of the videos are born uniformly during
        ``[0, duration)``; the rest pre-exist.  Popularity ranks are a
        random permutation — per-server local popularity is
        uncorrelated with any global ordering [28], so each server's
        catalog gets its own ranking via its own ``seed``.

        Sizes are lognormal with the given linear-space mean, clipped to
        ``[min_size_bytes, max_size_bytes]``.
        """
        if num_videos <= 0:
            raise ValueError(f"num_videos must be positive, got {num_videos}")
        if not 0.0 <= churn_fraction < 1.0:
            raise ValueError(f"churn_fraction must be in [0, 1), got {churn_fraction}")
        rng = np.random.default_rng(seed)
        # lognormal parameterized so the linear mean is mean_size_bytes
        mu = np.log(mean_size_bytes) - sigma**2 / 2.0
        sizes = np.clip(
            rng.lognormal(mu, sigma, size=num_videos),
            min_size_bytes,
            max_size_bytes,
        ).astype(np.int64)
        ranks = rng.permutation(num_videos)
        births = np.full(num_videos, -1.0)
        num_churn = int(num_videos * churn_fraction)
        if num_churn:
            churn_idx = rng.choice(num_videos, size=num_churn, replace=False)
            births[churn_idx] = rng.uniform(0.0, duration, size=num_churn)
        videos = [
            Video(
                video_id=first_id + i,
                size_bytes=int(sizes[i]),
                rank=int(ranks[i]),
                birth=float(births[i]),
            )
            for i in range(num_videos)
        ]
        return cls(videos)

    def sizes_array(self) -> np.ndarray:
        """Sizes indexed by catalog position (generation order)."""
        return np.array([v.size_bytes for v in self.videos], dtype=np.int64)

    def subset(self, video_ids: list[int]) -> "VideoCatalog":
        """A catalog restricted to the given IDs (order preserved)."""
        missing = [v for v in video_ids if v not in self._by_id]
        if missing:
            raise KeyError(f"IDs not in catalog: {missing[:5]}...")
        return VideoCatalog([self._by_id[v] for v in video_ids])

    def describe(self) -> dict:
        """Plain-dict summary for logs and docs."""
        sizes = self.sizes_array()
        return {
            "videos": len(self),
            "total_gb": float(sizes.sum()) / 1e9,
            "mean_mb": float(sizes.mean()) / 1e6,
            "p50_mb": float(np.median(sizes)) / 1e6,
            "p99_mb": float(np.percentile(sizes, 99)) / 1e6,
            "churn": sum(1 for v in self.videos if v.birth >= 0) / len(self),
        }
