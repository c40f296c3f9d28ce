"""The paper's contribution: four video-CDN caching algorithms.

* :class:`XlruCache` — the LRU-based baseline (Section 5),
* :class:`CafeCache` — the chunk-aware, fill-efficient cache (Section 6),
* :class:`PsychicCache` — the offline greedy estimator (Section 8),
* :class:`OptimalCache` — the IP/LP-relaxed offline optimum (Section 7),

plus the classic "standard solution" baselines the paper argues are
insufficient (:mod:`repro.core.baselines`; PullLRU, LFU and GDS run on
the policy-kernel engine, :mod:`repro.core.policy`, and are built by
name) and the shared cost model (:mod:`repro.core.costs`).
"""

from repro.core.base import CacheResponse, Decision, VideoCache
from repro.core.baselines import BeladyCache
from repro.core.cafe import CafeCache
from repro.core.costs import CostModel
from repro.core.lru_variants import LruKCache
from repro.core.optimal import OptimalCache, OptimalSolution, solve_optimal
from repro.core.psychic import PsychicCache
from repro.core.snapshot import (
    load_snapshot,
    load_state_dict,
    save_snapshot,
    state_dict,
)
from repro.core.xlru import XlruCache

__all__ = [
    "CacheResponse",
    "Decision",
    "VideoCache",
    "CostModel",
    "XlruCache",
    "CafeCache",
    "PsychicCache",
    "OptimalCache",
    "OptimalSolution",
    "solve_optimal",
    "BeladyCache",
    "LruKCache",
    "state_dict",
    "load_state_dict",
    "save_snapshot",
    "load_snapshot",
]
