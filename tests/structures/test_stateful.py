"""Stateful (model-based) hypothesis tests for the core structures.

Hypothesis drives long interleaved operation sequences against a plain
reference model; every intermediate state must agree.  These catch the
ordering bugs unit tests miss — e.g. keys computed at different times
disagreeing about eviction order (the Theorem 1 pitfall).
"""

import math

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.structures.lru import AccessRecencyList
from repro.structures.scoreheap import ScoreHeap

ITEMS = st.integers(0, 25)
SCORES = st.floats(-1e6, 1e6, allow_nan=False)
#: ScoreHeap keys: finite scores, plus ``-inf`` (Cafe's key for a chunk
#: before its first IAT sample)
HEAP_SCORES = SCORES | st.just(-math.inf)
#: re-key offsets, zero included: an equal-score re-insert still takes
#: a new seq, so it must order after the items it used to precede
DELTAS = st.just(0.0) | st.floats(0.0, 1e3, allow_nan=False)
EXCLUDES = st.sets(ITEMS, max_size=6)


class ScoreHeapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.heap = ScoreHeap()
        self.model: dict[int, tuple[float, int]] = {}
        self.seq = 0

    def _insert(self, item, score):
        self.heap.insert(item, score)
        self.model[item] = (score, self.seq)
        self.seq += 1

    def _ascending(self, exclude=frozenset()):
        return [
            (item, self.model[item][0])
            for item in sorted(self.model, key=self.model.__getitem__)
            if item not in exclude
        ]

    @rule(item=ITEMS, score=HEAP_SCORES)
    def insert(self, item, score):
        self._insert(item, score)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), delta=DELTAS)
    def raise_(self, data, delta):
        """A raise only re-keys the index: the heap keeps its length."""
        item = data.draw(st.sampled_from(sorted(self.model)))
        entries = len(self.heap._heap)
        self._insert(item, self.model[item][0] + delta)
        assert len(self.heap._heap) == entries

    @precondition(lambda self: self.model)
    @rule(data=st.data(), delta=st.floats(1e-3, 1e3, allow_nan=False))
    def lower(self, data, delta):
        item = data.draw(st.sampled_from(sorted(self.model)))
        self._insert(item, self.model[item][0] - delta)

    @rule(item=ITEMS)
    def discard(self, item):
        expected = item in self.model
        assert self.heap.discard(item) is expected
        self.model.pop(item, None)

    @precondition(lambda self: self.model)
    @rule()
    def min_item(self):
        assert self.heap.min_item() == self._ascending()[0]

    @precondition(lambda self: self.model)
    @rule()
    def pop_min(self):
        expected = self._ascending()[0]
        assert self.heap.pop_min() == expected
        del self.model[expected[0]]

    @rule(n=st.integers(0, 8), exclude=st.none() | EXCLUDES)
    def peek_n_smallest(self, n, exclude):
        got = self.heap.n_smallest(n, exclude=exclude)
        assert got == self._ascending(exclude or ())[:n]

    @rule(n=st.integers(0, 8), exclude=st.none() | EXCLUDES)
    def pop_n_smallest(self, n, exclude):
        expected = self._ascending(exclude or ())[:n]
        assert self.heap.pop_n_smallest(n, exclude=exclude) == expected
        for item, _score in expected:
            del self.model[item]

    @rule(n=st.integers(0, 8), exclude=st.none() | EXCLUDES, drop=st.booleans())
    def take_n_smallest(self, n, exclude, drop):
        """A take pops each victim's anchor once, at its live key: put
        back, it changes no order; dropped, it leaves no stale entry."""
        expected = self._ascending(exclude or ())[:n]
        stale = self.heap._stale
        entries = self.heap.take_n_smallest(n, exclude=exclude)
        assert [(item, score) for score, _seq, item in entries] == expected
        assert [(score, seq) for score, seq, _item in entries] == [
            self.model[item] for item, _score in expected
        ]
        assert self.heap._stale <= stale
        if drop:
            for item, _score in expected:
                del self.model[item]
        else:
            self.heap.put_back(entries)

    @invariant()
    def sizes_agree(self):
        assert len(self.heap) == len(self.model)

    @invariant()
    def scores_agree(self):
        for item, (score, _seq) in self.model.items():
            assert self.heap.score(item) == score

    @invariant()
    def heap_is_valid(self):
        self.heap.check_invariants()


class RecencyMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.lru = AccessRecencyList()
        self.model: dict[int, float] = {}
        self.clock = 0.0

    @rule(item=ITEMS, advance=st.floats(0.0, 100.0, allow_nan=False))
    def touch(self, item, advance):
        self.clock += advance
        self.lru.touch(item, self.clock)
        self.model.pop(item, None)
        self.model[item] = self.clock

    @precondition(lambda self: self.model)
    @rule()
    def pop_oldest(self):
        expected_key = next(iter(self.model))
        key, t = self.lru.pop_oldest()
        assert key == expected_key
        assert t == self.model.pop(expected_key)

    @rule(item=ITEMS)
    def discard(self, item):
        expected = item in self.model
        assert self.lru.discard(item) is expected
        self.model.pop(item, None)

    @precondition(lambda self: self.model)
    @rule(back=st.floats(0.0, 200.0, allow_nan=False))
    def evict_older_than(self, back):
        cutoff = self.clock - back
        evicted = self.lru.evict_older_than(cutoff)
        expected = [(k, t) for k, t in self.model.items() if t < cutoff]
        assert evicted == expected
        for key, _t in evicted:
            del self.model[key]

    @invariant()
    def order_and_lookups_agree(self):
        assert list(self.lru) == list(self.model)
        for key, t in self.model.items():
            assert self.lru.last_access(key) == t


TestScoreHeapStateful = ScoreHeapMachine.TestCase
TestScoreHeapStateful.settings = settings(max_examples=40, stateful_step_count=60)

TestRecencyStateful = RecencyMachine.TestCase
TestRecencyStateful.settings = settings(max_examples=40, stateful_step_count=60)
