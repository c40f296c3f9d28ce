"""Throughput benches for the low-level data structures.

These are real pytest-benchmark measurements (multiple rounds): the
paper's structures promise O(1) recency-list operations and O(log n)
ordered-set operations, and the caches' request rates bottleneck on
them.
"""

import random

from repro.structures.ewma import IatEstimator
from repro.structures.lru import AccessRecencyList
from repro.structures.scoreheap import ScoreHeap

N = 10_000


def test_lru_touch_churn(benchmark):
    """touch() over a working set with constant churn."""
    keys = list(range(N))

    def run():
        lru = AccessRecencyList()
        t = 0.0
        for key in keys:
            lru.touch(key % 2048, t)
            t += 1.0
        return lru

    lru = benchmark(run)
    assert len(lru) <= 2048


def test_lru_pop_oldest(benchmark):
    def setup():
        lru = AccessRecencyList()
        for i in range(N):
            lru.touch(i, float(i))
        return (lru,), {}

    def run(lru):
        while lru:
            lru.pop_oldest()

    benchmark.pedantic(run, setup=setup, rounds=10)


def test_scoreheap_n_smallest(benchmark):
    heap = ScoreHeap()
    rng = random.Random(8)
    for i in range(N):
        heap.insert(i, rng.random())

    result = benchmark(heap.n_smallest, 16)
    assert len(result) == 16


def test_ewma_record_and_key(benchmark):
    """Per-request stats updates: one record + key per chunk."""
    items = [(i % 4096) for i in range(N)]

    def run():
        est = IatEstimator(0.25)
        t = 0.0
        for item in items:
            est.record(item, t)
            est.key(item)
            t += 0.5
        return est

    est = benchmark(run)
    assert len(est) == 4096
