"""Throughput benches for the low-level data structures.

These are real pytest-benchmark measurements (multiple rounds): the
paper's structures promise O(1) recency-list operations and O(log n)
ordered-set operations, and the caches' request rates bottleneck on
them.
"""

import math
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


def test_scoreheap_cafe_mix(benchmark):
    """Cafe's heap traffic on a full cache, from a fixed seed: every hit
    raises its item's Eq. 9 key, and every miss takes a victim run
    (``n_smallest`` then ``remove``) before its fill."""
    capacity = 1024
    gamma = 0.25
    rng = random.Random(8)
    stream = [int(4 * capacity * rng.random() ** 6) for _ in range(N)]

    def run():
        heap = ScoreHeap()
        last: dict = {}
        dts: dict = {}
        fills = 0
        for t, item in enumerate(stream):
            prev = last.get(item)
            last[item] = t
            dt = dts.get(item, math.inf)
            if prev is not None:
                gap = t - prev
                dt = gap if math.isinf(dt) else gamma * gap + (1 - gamma) * dt
                dts[item] = dt
            key = -math.inf if math.isinf(dt) else gamma * t - (1 - gamma) * dt
            if item not in heap:
                fills += 1
                if len(heap) >= capacity:
                    for victim, _key in heap.n_smallest(1, exclude={item}):
                        heap.remove(victim)
            heap.insert(item, key)
        return heap, fills

    heap, fills = benchmark(run)
    assert len(heap) == capacity
    assert capacity < fills < N // 2
    heap.check_invariants()


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
