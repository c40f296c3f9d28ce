"""Parameter-sweep runner: the experiment matrices of Section 9.

The paper's figures sweep three axes — algorithm, ``alpha_F2R`` and disk
size — over per-server traces.  :func:`run_matrix` runs any cross
product of cache factories and configurations;
:func:`sweep_alpha` / :func:`sweep_disk` are the two named sweeps
(Figures 4–6).

Execution is delegated to :class:`~repro.sim.schedule.SweepScheduler`:
online cells share a single broadcast pass of the trace, offline cells
run as independent tasks, and a worker count > 1 (argument or
``REPRO_WORKERS``) distributes the work over a process pool.  The
results are identical to per-cell sequential replay — the
golden-equivalence suite in ``tests/sim/test_equivalence.py`` holds the
scheduler to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.base import VideoCache
from repro.core.baselines import BeladyCache
from repro.core.cafe import CafeCache
from repro.core.costs import CostModel
from repro.core.lru_variants import LruKCache
from repro.core.policy import cache_factories as _policy_cache_factories
from repro.core.policy import cache_factory as _policy_cache_factory
from repro.core.psychic import PsychicCache
from repro.core.xlru import XlruCache
from repro.sim.engine import SimulationResult
from repro.sim.instrumentation import ProgressCallback
from repro.trace.requests import DEFAULT_CHUNK_BYTES, Request

__all__ = [
    "CACHE_FACTORIES",
    "PAPER_ALGORITHMS",
    "build_cache",
    "RunConfig",
    "run_matrix",
    "sweep_alpha",
    "sweep_disk",
    "results_table",
]

#: Registry of algorithm name -> cache class, for config-driven runs.
CACHE_FACTORIES: Dict[str, Callable[..., VideoCache]] = {
    "xLRU": XlruCache,
    "Cafe": CafeCache,
    "Psychic": PsychicCache,
    # the LFU-PK policy on the policy-kernel engine, under the
    # baseline's name: one production LFU
    "LFU": _policy_cache_factory("LFU-PK", name="LFU"),
    "Belady": BeladyCache,
    "LRU-K": LruKCache,
}

#: The paper's trio, in figure order (left-to-right bars of Figs. 4, 7).
PAPER_ALGORITHMS = ("xLRU", "Cafe", "Psychic")

# Registered policy kernels ride in through the registry, the PullLRU
# and GDS baselines among them: each entry is a KernelCache factory
# carrying the offline/cost_sensitive attributes the scheduler and
# equivalence suite read off factory values.
CACHE_FACTORIES.update(_policy_cache_factories())


def build_cache(
    algorithm: str,
    disk_chunks: int,
    alpha_f2r: float = 1.0,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    **kwargs,
) -> VideoCache:
    """Instantiate a registered algorithm with the standard knobs."""
    try:
        factory = CACHE_FACTORIES[algorithm]
    except KeyError:
        known = ", ".join(sorted(CACHE_FACTORIES))
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {known}") from None
    return factory(
        disk_chunks,
        chunk_bytes=chunk_bytes,
        cost_model=CostModel(alpha_f2r),
        **kwargs,
    )


@dataclass(frozen=True, slots=True)
class RunConfig:
    """One cell of an experiment matrix."""

    algorithm: str
    disk_chunks: int
    alpha_f2r: float = 1.0
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    label: str = ""

    def build(self, **kwargs) -> VideoCache:
        return build_cache(
            self.algorithm,
            self.disk_chunks,
            alpha_f2r=self.alpha_f2r,
            chunk_bytes=self.chunk_bytes,
            **kwargs,
        )

    @property
    def key(self) -> str:
        return self.label or (
            f"{self.algorithm}/disk={self.disk_chunks}/alpha={self.alpha_f2r}"
        )


def run_matrix(
    configs: Iterable[RunConfig],
    requests: Iterable[Request],
    interval: float = 3600.0,
    *,
    workers: Optional[int] = None,
    mode: str = "auto",
    collapse: bool = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, SimulationResult]:
    """Replay ``requests`` against every configuration.

    Online cells share one broadcast pass; offline cells spill the
    trace to a list and run independently.  ``workers`` > 1 (or the
    ``REPRO_WORKERS`` environment variable) executes the plan on a
    process pool; ``mode`` selects the execution strategy (see
    :class:`~repro.sim.schedule.SweepScheduler`).

    Raises :class:`ValueError` when two configs share a ``key`` (e.g. a
    duplicate ``label``) — previously the later cell silently
    overwrote the earlier one.
    """
    from repro.sim.schedule import SweepScheduler

    scheduler = SweepScheduler(
        workers=workers,
        mode=mode,
        interval=interval,
        collapse=collapse,
        progress=progress,
    )
    return scheduler.run(list(configs), requests)


def sweep_alpha(
    requests: Sequence[Request],
    disk_chunks: int,
    alphas: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    interval: float = 3600.0,
    *,
    workers: Optional[int] = None,
    mode: str = "auto",
) -> Mapping[float, Dict[str, SimulationResult]]:
    """The Figure 4/5 sweep: every algorithm at every ``alpha_F2R``.

    The whole alpha x algorithm matrix is scheduled as ONE plan, so all
    online cells — across every alpha — share a single pass of the
    trace instead of one pass per alpha.
    """
    alphas = list(dict.fromkeys(alphas))
    algorithms = list(dict.fromkeys(algorithms))
    configs = [
        RunConfig(
            algo, disk_chunks, alpha, chunk_bytes, label=f"alpha={alpha:g}/{algo}"
        )
        for alpha in alphas
        for algo in algorithms
    ]
    results = run_matrix(
        configs, requests, interval=interval, workers=workers, mode=mode
    )
    return {
        alpha: {
            algo: results[f"alpha={alpha:g}/{algo}"] for algo in algorithms
        }
        for alpha in alphas
    }


def sweep_disk(
    requests: Sequence[Request],
    disk_sizes: Sequence[int],
    alpha_f2r: float = 2.0,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    interval: float = 3600.0,
    *,
    workers: Optional[int] = None,
    mode: str = "auto",
) -> Mapping[int, Dict[str, SimulationResult]]:
    """The Figure 6 sweep: every algorithm at every disk size (chunks).

    Like :func:`sweep_alpha`, the whole disk x algorithm matrix is one
    scheduler plan — online cells at every disk size share one pass.
    """
    disk_sizes = list(dict.fromkeys(disk_sizes))
    algorithms = list(dict.fromkeys(algorithms))
    configs = [
        RunConfig(
            algo, disk, alpha_f2r, chunk_bytes, label=f"disk={disk}/{algo}"
        )
        for disk in disk_sizes
        for algo in algorithms
    ]
    results = run_matrix(
        configs, requests, interval=interval, workers=workers, mode=mode
    )
    return {
        disk: {algo: results[f"disk={disk}/{algo}"] for algo in algorithms}
        for disk in disk_sizes
    }


def results_table(
    results: Mapping[str, SimulationResult], steady: bool = True
) -> List[dict]:
    """Flatten results into printable row dicts (used by the CLI)."""
    rows = []
    for key, result in results.items():
        summary = result.steady if steady else result.totals
        rows.append(
            {
                "config": key,
                "efficiency": summary.efficiency,
                "redirect_ratio": summary.redirect_ratio,
                "ingress_fraction": summary.ingress_fraction,
                "requests": summary.num_requests,
            }
        )
    return rows
