"""Stateful (model-based) hypothesis tests for the core structures.

Hypothesis drives long interleaved operation sequences against a plain
reference model; every intermediate state must agree.  These catch the
ordering bugs unit tests miss — e.g. keys computed at different times
disagreeing about eviction order (the Theorem 1 pitfall).
"""

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


class ScoreHeapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.heap = ScoreHeap()
        self.model: dict[int, tuple[float, int]] = {}
        self.seq = 0

    @rule(item=ITEMS, score=SCORES)
    def insert(self, item, score):
        self.heap.insert(item, score)
        self.model[item] = (score, self.seq)
        self.seq += 1

    @rule(item=ITEMS)
    def discard(self, item):
        expected = item in self.model
        assert self.heap.discard(item) is expected
        self.model.pop(item, None)

    @precondition(lambda self: self.model)
    @rule()
    def pop_min(self):
        expected = min(self.model, key=lambda k: self.model[k])
        item, score = self.heap.pop_min()
        assert item == expected
        assert score == self.model.pop(expected)[0]

    @rule(n=st.integers(0, 8))
    def peek_n_smallest(self, n):
        got = self.heap.n_smallest(n)
        expected = sorted(self.model, key=lambda k: self.model[k])[:n]
        assert [item for item, _ in got] == expected

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
