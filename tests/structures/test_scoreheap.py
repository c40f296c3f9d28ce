"""Unit, property and differential tests for ScoreHeap.

ScoreHeap is the lazy heap under the decision kernels; its observable
contract is *exact* ascending ``(score, seq)`` order (each insert takes
the next sequence number), plus kernel-facing extensions: ``raw_index``
(stable read-only key dict), ``take_n_smallest`` (the one victim-pop
loop) with ``put_back``, and ``pop_n_smallest`` (the fused eviction
run, a take whose entries are dropped).  Inside, each live item keeps one *anchor* entry at or
below its live key, so a raise pushes nothing.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.structures.scoreheap import ScoreHeap


class TestBasics:
    def test_empty(self):
        h = ScoreHeap()
        assert len(h) == 0
        assert "x" not in h
        assert h.score("x") is None
        with pytest.raises(KeyError):
            h.min_item()

    def test_insert_and_score(self):
        h = ScoreHeap()
        h.insert("a", 3.0)
        h.insert("b", 1.0)
        assert h.score("a") == 3.0
        assert h.score("b") == 1.0
        assert len(h) == 2

    def test_pop_min_order(self):
        h = ScoreHeap()
        for item, score in [("a", 3.0), ("b", 1.0), ("c", 2.0)]:
            h.insert(item, score)
        assert [h.pop_min()[0] for _ in range(3)] == ["b", "c", "a"]
        assert len(h) == 0

    def test_reinsert_replaces_score(self):
        h = ScoreHeap()
        h.insert("a", 1.0)
        h.insert("b", 2.0)
        h.insert("a", 5.0)
        assert len(h) == 2
        assert h.min_item() == ("b", 2.0)
        assert h.score("a") == 5.0

    def test_remove_and_discard(self):
        h = ScoreHeap()
        h.insert("a", 1.0)
        assert h.remove("a") == 1.0
        assert "a" not in h
        with pytest.raises(KeyError):
            h.remove("a")
        h.insert("a", 2.0)
        assert h.discard("a") is True
        assert h.discard("a") is False

    def test_duplicate_scores_fifo(self):
        h = ScoreHeap()
        h.insert("a", 1.0)
        h.insert("b", 1.0)
        assert h.pop_min()[0] == "a"
        assert h.pop_min()[0] == "b"

    def test_compaction_keeps_order(self):
        h = ScoreHeap()
        # lower one item beside a small live set, so its stale anchors
        # outnumber the live items and trip repeated compactions
        for i in range(200):
            h.insert("hot", float(-i))
            h.insert(i % 3, float(i))
        h.check_invariants()
        assert len(h._heap) <= 2 * len(h)
        drained = [h.pop_min() for _ in range(len(h))]
        assert drained == [("hot", -199.0), (2, 197.0), (0, 198.0), (1, 199.0)]


class TestLazyRaises:
    """A raise re-keys only the index; the item's anchor entry stays
    at or below the live key until it surfaces at the top."""

    def test_raise_pushes_nothing_fill_and_lower_push_one(self):
        h = ScoreHeap()
        h.insert("a", 1.0)
        assert len(h._heap) == 1
        h.insert("a", 5.0)  # raise
        h.insert("a", 5.0)  # equal-score re-insert: also a raise
        assert len(h._heap) == 1
        h.insert("b", 2.0)  # fill
        assert len(h._heap) == 2
        h.insert("a", 0.5)  # lower, below the anchor at 1.0
        assert len(h._heap) == 3
        h.check_invariants()
        assert list(h.items_ascending()) == [("a", 0.5), ("b", 2.0)]

    def test_equal_score_reinsert_orders_after(self):
        """The re-insert takes a new seq, so ``a`` now follows ``b``."""
        h = ScoreHeap()
        h.insert("a", 1.0)
        h.insert("b", 1.0)
        h.insert("a", 1.0)
        assert h.raw_index() == {"a": (1.0, 2), "b": (1.0, 1)}
        assert h.min_item() == ("b", 1.0)
        assert h.n_smallest(2) == [("b", 1.0), ("a", 1.0)]
        assert h.pop_n_smallest(2) == [("b", 1.0), ("a", 1.0)]
        h.check_invariants()

    def test_stale_entry_of_a_raised_item_is_dropped(self):
        """Only the anchor, found by identity, is re-pushed at the live
        key; the entry a lower left behind stays stale."""
        h = ScoreHeap()
        h.insert("a", 1.0)
        h.insert("a", 0.0)  # lower: the entry at 1.0 goes stale
        h.insert("a", 10.0)  # raise: the anchor stays at 0.0
        h.insert("b", 2.0)
        assert h.n_smallest(3) == [("b", 2.0), ("a", 10.0)]
        h.check_invariants()

    @pytest.mark.parametrize(
        "clone",
        [lambda h: pickle.loads(pickle.dumps(h)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_clone_keeps_anchor_identity(self, clone):
        """Sweep lanes are cloned by pickle and tests deep-copy caches:
        both must keep each anchor the very tuple that sits in the heap."""
        h = ScoreHeap()
        for i in range(50):
            h.insert((i, 0), float(i % 7))
        for i in range(0, 50, 3):
            h.insert((i, 0), float(10 + i))  # raises, anchors left low
        h.insert((1, 0), -1.0)  # a lower leaves one stale entry
        assert any(
            h.raw_index()[item] != (score, seq) for score, seq, item in h._heap
        )
        twin = clone(h)
        twin.check_invariants()
        assert twin.raw_index() == h.raw_index()
        got = [twin.pop_min() for _ in range(len(twin))]
        assert got == [h.pop_min() for _ in range(len(h))]


class TestRawIndex:
    def test_maps_items_to_score_seq(self):
        h = ScoreHeap()
        h.insert("a", 3.0)
        h.insert("b", 1.0)
        h.insert("a", 5.0)
        assert h.raw_index() == {"a": (5.0, 2), "b": (1.0, 1)}

    def test_reference_is_stable_across_all_mutations(self):
        """A hoisted reference must survive churn and compaction —
        the kernels hoist it once per block."""
        h = ScoreHeap()
        index = h.raw_index()
        for i in range(300):
            h.insert(i % 9, float(i))
            if i % 4 == 3:
                h.pop_min()
            if i % 11 == 10:
                h.pop_n_smallest(2)
        assert h.raw_index() is index
        assert set(index) == {item for item, _ in h.items_ascending()}


class TestPopNSmallest:
    def fresh(self):
        h = ScoreHeap()
        for i in range(10):
            h.insert(f"item{i}", float(i))
        return h

    def test_removes_and_returns_in_order(self):
        h = self.fresh()
        got = h.pop_n_smallest(3)
        assert got == [("item0", 0.0), ("item1", 1.0), ("item2", 2.0)]
        assert len(h) == 7
        assert "item0" not in h
        h.check_invariants()

    def test_exclude_is_kept(self):
        h = self.fresh()
        got = h.pop_n_smallest(3, exclude={"item0", "item2"})
        assert [item for item, _ in got] == ["item1", "item3", "item4"]
        assert "item0" in h and "item2" in h
        assert len(h) == 7
        h.check_invariants()

    def test_n_larger_than_size_drains(self):
        h = self.fresh()
        assert len(h.pop_n_smallest(99)) == 10
        assert len(h) == 0

    def test_n_zero_or_negative(self):
        h = self.fresh()
        assert h.pop_n_smallest(0) == []
        assert h.pop_n_smallest(-1) == []
        assert len(h) == 10

    @settings(max_examples=60)
    @given(
        scores=st.lists(st.floats(-100, 100, allow_nan=False), max_size=40),
        n=st.integers(0, 12),
        exclude=st.sets(st.integers(0, 39), max_size=8),
    )
    def test_equals_n_smallest_then_remove(self, scores, n, exclude):
        """The fused eviction run picks exactly the victims that
        n_smallest + remove would, in the same order."""
        fused, split = ScoreHeap(), ScoreHeap()
        for i, s in enumerate(scores):
            fused.insert(i, s)
            split.insert(i, s)
        want = split.n_smallest(n, exclude=exclude)
        for item, _score in want:
            split.remove(item)
        got = fused.pop_n_smallest(n, exclude=exclude)
        assert got == want
        assert fused.raw_index() == split.raw_index()
        fused.check_invariants()
        split.check_invariants()


#: inserts over a small item range, so re-keys (raises, lowers, equal
#: scores) leave anchors below their live keys and stale entries behind
INSERTS = st.lists(
    st.tuples(st.integers(0, 15), st.floats(-100, 100, allow_nan=False)),
    max_size=60,
)


def _twins(inserts):
    a, b = ScoreHeap(), ScoreHeap()
    for item, score in inserts:
        a.insert(item, score)
        b.insert(item, score)
    return a, b


def _drain(heap):
    return [heap.pop_min() for _ in range(len(heap))]


class TestTakeNSmallest:
    @settings(max_examples=80)
    @given(
        inserts=INSERTS,
        n=st.integers(0, 12),
        exclude=st.sets(st.integers(0, 15), max_size=6),
    )
    def test_take_then_drop_equals_n_smallest_then_remove(self, inserts, n, exclude):
        """Dropping the taken entries evicts what n_smallest + remove
        evicts: the same victims in the same order, then the same pops."""
        taken, split = _twins(inserts)
        want = split.n_smallest(n, exclude=exclude)
        for item, _score in want:
            split.remove(item)
        entries = taken.take_n_smallest(n, exclude=exclude)
        assert [(item, score) for score, _seq, item in entries] == want
        assert taken.raw_index() == split.raw_index()
        taken.check_invariants()
        split.check_invariants()
        assert _drain(taken) == _drain(split)

    @settings(max_examples=80)
    @given(
        inserts=INSERTS,
        n=st.integers(0, 12),
        exclude=st.sets(st.integers(0, 15), max_size=6),
    )
    def test_take_then_put_back_changes_no_later_read(self, inserts, n, exclude):
        """Each taken entry is its item's live key, so putting it back
        leaves every later pop, and the next seq, as they were."""
        restored, untouched = _twins(inserts)
        entries = restored.take_n_smallest(n, exclude=exclude)
        live = untouched.raw_index()
        assert [live[item] for _score, _seq, item in entries] == [
            (score, seq) for score, seq, _item in entries
        ]
        restored.put_back(entries)
        restored.check_invariants()
        assert restored.raw_index() == untouched.raw_index()
        restored.insert(99, 0.0)
        untouched.insert(99, 0.0)
        assert restored.raw_index()[99] == untouched.raw_index()[99]
        assert _drain(restored) == _drain(untouched)

    def test_n_zero_or_negative_takes_nothing(self):
        h, _twin = _twins([(i, float(i)) for i in range(5)])
        assert h.take_n_smallest(0) == []
        assert h.take_n_smallest(-3) == []
        assert len(h) == 5


@settings(max_examples=60)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["insert", "remove", "pop_min", "n_smallest", "pop_n"]
            ),
            st.integers(0, 15),
            st.floats(-100, 100, allow_nan=False),
        ),
        max_size=150,
    )
)
def test_property_matches_sorted_model(ops):
    """ScoreHeap is observably a dict of ``item -> (score, seq)`` read
    in sorted order under interleaved operations — same results, same
    eviction order."""
    heap = ScoreHeap()
    model: dict = {}
    seq = 0

    def ascending():
        # seq is unique, so the sort never compares items
        return [(item, key[0]) for key, item in sorted((k, i) for i, k in model.items())]

    for op, item, score in ops:
        if op == "insert":
            heap.insert(item, score)
            model[item] = (score, seq)
            seq += 1
        elif op == "remove":
            assert heap.discard(item) == (model.pop(item, None) is not None)
        elif op == "pop_min":
            if model:
                want = ascending()[0]
                del model[want[0]]
                assert heap.pop_min() == want
            else:
                with pytest.raises(KeyError):
                    heap.pop_min()
        elif op == "n_smallest":
            assert heap.n_smallest(item) == ascending()[:item]
        else:  # pop_n: fused on the heap
            want = ascending()[: item % 4]
            for victim, _score in want:
                del model[victim]
            assert heap.pop_n_smallest(item % 4) == want
        assert len(heap) == len(model)
    heap.check_invariants()
    assert list(heap.items_ascending()) == ascending()
