"""Request-throughput benches for the full cache algorithms.

Measures handled requests per second on a slice of the European trace
(the figure in the bench report is seconds per slice; divide the slice
size by it for req/s).  xLRU should be fastest (two O(1) structures);
Cafe and Psychic pay for their ``ScoreHeap`` (O(log n) per fill, lower
or eviction, O(1) per raise) and Psychic for its future index.

``_seed_matrix`` replays a config matrix the way the seed's
``run_matrix`` did — one sequential loop per cell — for the replay
bench's seed-serial mode (``test_replay_throughput.py``).
"""

import math

import pytest

from repro.core.cafe import CafeCache
from repro.core.costs import CostModel
from repro.core.psychic import PsychicCache
from repro.core.xlru import XlruCache
from repro.experiments.common import scaled_disk_chunks, server_trace
from repro.sim.metrics import IntervalSample, MetricsCollector, _MutableCounters
from repro.sim.runner import CACHE_FACTORIES

SLICE = 5_000
ALPHA = 2.0


@pytest.fixture(scope="module")
def trace(scale):
    full = server_trace("europe", scale)
    return full[: min(SLICE, len(full))]


@pytest.fixture(scope="module")
def disk(scale):
    return max(64, scaled_disk_chunks("europe", scale) // 4)


def _bench_online(benchmark, cache_cls, trace, disk):
    def setup():
        return (cache_cls(disk, cost_model=CostModel(ALPHA)),), {}

    def run(cache):
        for request in trace:
            cache.handle(request)

    benchmark.pedantic(run, setup=setup, rounds=3)
    benchmark.extra_info["requests_per_round"] = len(trace)


def test_throughput_xlru(benchmark, trace, disk):
    _bench_online(benchmark, XlruCache, trace, disk)


def test_throughput_cafe(benchmark, trace, disk):
    _bench_online(benchmark, CafeCache, trace, disk)


def test_throughput_pull_lru(benchmark, trace, disk):
    _bench_online(benchmark, CACHE_FACTORIES["PullLRU"], trace, disk)


def test_throughput_psychic(benchmark, trace, disk):
    def setup():
        cache = PsychicCache(disk, cost_model=CostModel(ALPHA))
        cache.prepare(trace)
        return (cache,), {}

    def run(cache):
        for request in trace:
            cache.handle(request)

    benchmark.pedantic(run, setup=setup, rounds=3)
    benchmark.extra_info["requests_per_round"] = len(trace)


def test_throughput_psychic_prepare(benchmark, trace, disk):
    """Index-building cost of the offline cache, separately."""
    cache = PsychicCache(disk, cost_model=CostModel(ALPHA))
    benchmark(cache.prepare, trace)


# -- the seed's per-cell replay, the replay bench's baseline mode ------------


class _SeedCollector(MetricsCollector):
    """Faithful replica of the seed collector's per-record cost.

    The seed ``record`` maintained a running-totals counter *and* the
    live bucket (two ``_MutableCounters.add`` calls per request) and
    stepped idle intervals one at a time.  Reproducing that cost keeps
    the "vs seed run_matrix" speedup honest.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._running_totals = _MutableCounters()

    def record(self, request, response):
        t = request.t
        if self._t_first is None:
            self._t_first = t
        self._t_last = t
        if self._bucket_start is None:
            self._bucket_start = math.floor(t / self.interval) * self.interval
            self._bucket_end = self._bucket_start + self.interval
        while t >= self._bucket_end:
            if self._bucket.num_requests:
                self._samples.append(
                    IntervalSample(
                        self._bucket_start, self._bucket.freeze(self.cost_model)
                    )
                )
                self._bucket = _MutableCounters()
            self._bucket_start += self.interval
            self._bucket_end += self.interval
        for counters in (self._running_totals, self._bucket):
            counters.add(request, response, self.chunk_bytes)

    def totals(self):
        return self._running_totals.freeze(self.cost_model)


def _seed_matrix(configs, trace):
    """The seed ``run_matrix``: one sequential replay loop per cell."""
    results = {}
    for config in configs:
        cache = config.build()
        metrics = _SeedCollector(cache.cost_model, chunk_bytes=cache.chunk_bytes)
        if cache.offline:
            cache.prepare(trace)
        last_t = float("-inf")
        for i, request in enumerate(trace):
            if request.t < last_t:
                raise ValueError(f"trace not time-ordered at index {i}")
            last_t = request.t
            metrics.record(request, cache.handle(request))
        results[config.key] = metrics
    return results
