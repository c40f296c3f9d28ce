"""Lazy binary heap ordered by ``(score, insertion sequence)``.

The ordered structures of the decision kernels (Cafe's virtual-timestamp
set, LFU's frequency set, LRU-K / GDS credit sets) order items by a
``(score, seq)`` composite key, which makes eviction order
deterministic for a fixed insertion sequence — a property the
verification oracles replicate and therefore part of the replayable
spec.

:class:`ScoreHeap` keeps that order — each :meth:`insert` takes the
next sequence number — on top of :mod:`heapq` (C-implemented), with
raises and deletions both lazy.  Each live item has exactly one heap
entry, its *anchor*, whose key is at or below the item's live
``(score, seq)``:

* ``insert`` writes the live key into the index and pushes nothing
  when the new score is at least the anchor's (a *raise*: the new seq
  is larger, so the anchor stays at or below the live key).  Only a
  fill or a re-key below the anchor pushes, and the entry it pushes is
  the new anchor.  Cafe's re-keys are all raises (Eqs. 8-9,
  Theorem 1), as are the request-time re-keys of the qLRU and
  Retention policies;
* an entry is an anchor iff ``_anchor[item] is entry`` — an identity
  test, since the anchor map holds the very tuple that sits in the
  heap.  Every other entry is *stale*: it was left by ``remove``/
  ``discard`` or by a re-key below the anchor, and is dropped when it
  surfaces at the top or during compaction;
* wherever the heap is read from the top (``min_item``/``pop_min``
  and ``take_n_smallest``, which ``n_smallest`` and ``pop_n_smallest``
  go through), an anchor that surfaces below its live key is replaced
  by an entry at the live key before anything reads it.  Every live key
  is at or above its anchor, and every anchor at or above the top, so a
  top entry at its live key is the true minimum and the order stays
  exactly ascending ``(score, seq)``.  A top entry whose seq is its
  item's live seq is that anchor at its live key (each seq is pushed at
  most once), so the common case costs one index lookup;
* ``take_n_smallest`` is the one victim-pop loop: it pops each victim's
  anchor at its live key out of the heap, the index and the anchor map,
  and returns those very entries.  Dropping them is an eviction run;
  ``put_back`` restores them at their original ``(score, seq)``, which
  are their live keys, so a take followed by a put-back changes the
  heap's layout but not its order.  ``n_smallest`` is exactly that
  peek, ``pop_n_smallest`` the drop;
* when stale entries outnumber live ones the heap and the anchor map
  are rebuilt from the live index (amortized O(1) per mutation).

Because every composite key is unique, heap order never compares items
themselves, so unhashable-score pathologies cannot arise and the order
is total.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Generic, Hashable, Iterator, Optional, Tuple, TypeVar

T = TypeVar("T", bound=Hashable)

__all__ = ["ScoreHeap"]


class ScoreHeap(Generic[T]):
    """Map of hashable items to float scores, ordered by ascending
    ``(score, insertion sequence)``.

    The heap holds ``len(self) + stale`` entries: one anchor per live
    item, at or below its live key, plus the stale entries that removes
    and lowers leave behind.  Raises push nothing.
    """

    __slots__ = ("_heap", "_index", "_anchor", "_seq", "_stale")

    def __init__(self) -> None:
        # (score, seq, item) entries: one anchor per live item, plus
        # stale entries.
        self._heap: list[Tuple[float, int, T]] = []
        # item -> (score, seq) composite key currently live
        self._index: dict[T, Tuple[float, int]] = {}
        # item -> the very (score, seq, item) tuple of its anchor entry
        self._anchor: dict[T, Tuple[float, int, T]] = {}
        self._seq = 0
        self._stale = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, item: T) -> bool:
        return item in self._index

    def score(self, item: T) -> Optional[float]:
        """Return the item's current score, or None if absent."""
        entry = self._index.get(item)
        return entry[0] if entry is not None else None

    def raw_index(self) -> dict:
        """The live ``item -> (score, seq)`` key dict, for batched
        read-only membership and score probes in cache hot paths.

        Callers must not mutate it — all mutations go through
        :meth:`insert`/:meth:`remove`/:meth:`discard`.  The dict object
        itself is stable across every operation (compaction rebuilds
        only the heap and the anchor map), so a reference hoisted once
        per block stays valid for the whole block.
        """
        return self._index

    def insert(self, item: T, score: float) -> None:
        """Insert ``item`` with ``score``, replacing any previous entry.

        A raise (``score`` at or above the anchor's) only updates the
        index; a fill or a lower pushes a new anchor.
        """
        seq = self._seq
        self._seq = seq + 1
        self._index[item] = (score, seq)
        anchor = self._anchor.get(item)
        if anchor is not None:
            if score >= anchor[0]:
                return
            self._stale += 1
        entry = self._anchor[item] = (score, seq, item)
        heappush(self._heap, entry)
        if self._stale > len(self._index):
            self._compact()

    def remove(self, item: T) -> float:
        """Remove ``item`` and return its score. Raises KeyError if absent."""
        key = self._index.pop(item)
        del self._anchor[item]
        self._stale += 1
        if self._stale > len(self._index):
            self._compact()
        return key[0]

    def discard(self, item: T) -> bool:
        """Remove ``item`` if present; return whether it was present."""
        if item not in self._index:
            return False
        self.remove(item)
        return True

    def _compact(self) -> None:
        """Rebuild the heap and the anchor map from the live index,
        dropping stale entries and settling every anchor at its live key."""
        heap = [(score, seq, item) for item, (score, seq) in self._index.items()]
        self._anchor = {entry[2]: entry for entry in heap}
        heapify(heap)
        self._heap = heap
        self._stale = 0

    def _resettle(
        self, top: Tuple[float, int, T], key: Optional[Tuple[float, int]]
    ) -> None:
        """Settle ``top``, the heap's top entry, which is not at its
        item's live ``key``: re-push it at ``key`` when it is the item's
        anchor, otherwise pop it as stale."""
        item = top[2]
        if self._anchor.get(item) is top:
            entry = self._anchor[item] = (key[0], key[1], item)
            heapreplace(self._heap, entry)
        else:
            heappop(self._heap)
            self._stale -= 1

    def min_item(self) -> Tuple[T, float]:
        """Return ``(item, score)`` with the smallest score.

        Raises KeyError when empty.
        """
        index = self._index
        if not index:
            raise KeyError("min_item() on empty ScoreHeap")
        heap = self._heap
        # a live item's anchor is in the heap, so the loop settles an
        # anchor at its live key before the heap runs out
        while True:
            top = heap[0]
            score, seq, item = top
            key = index.get(item)
            if key is not None and key[1] == seq:
                return item, score
            self._resettle(top, key)

    def pop_min(self) -> Tuple[T, float]:
        """Remove and return the ``(item, score)`` with the smallest score."""
        item, score = self.min_item()
        del self._index[item]
        del self._anchor[item]
        heappop(self._heap)
        return item, score

    def take_n_smallest(
        self, n: int, exclude: Optional[set] = None
    ) -> list[Tuple[float, int, T]]:
        """Remove and return up to ``n`` ``(score, seq, item)`` entries
        with the smallest keys, skipping (and keeping) items in
        ``exclude``.

        Each returned entry is its item's anchor at its live key, taken
        out of the heap, the index and the anchor map in one pop.  The
        caller either drops the entries (an eviction run) or hands them,
        with none of their items inserted since, to :meth:`put_back`.
        """
        if n <= 0:
            return []
        out: list[Tuple[float, int, T]] = []
        kept: list[Tuple[float, int, T]] = []
        heap = self._heap
        index = self._index
        anchor = self._anchor
        while heap and len(out) < n:
            top = heap[0]
            _score, seq, item = top
            key = index.get(item)
            if key is None or key[1] != seq:
                self._resettle(top, key)
                continue
            heappop(heap)
            if exclude is not None and item in exclude:
                kept.append(top)
                continue
            del index[item]
            del anchor[item]
            out.append(top)
        for entry in kept:
            heappush(heap, entry)
        return out

    def put_back(self, entries: list[Tuple[float, int, T]]) -> None:
        """Restore entries from :meth:`take_n_smallest` at their original
        ``(score, seq)``: the live keys and anchors they were taken at,
        so every later read sees the order the take left untouched."""
        heap = self._heap
        index = self._index
        anchor = self._anchor
        for entry in entries:
            score, seq, item = entry
            index[item] = (score, seq)
            anchor[item] = entry
            heappush(heap, entry)

    def n_smallest(self, n: int, exclude: Optional[set] = None) -> list[Tuple[T, float]]:
        """Return up to ``n`` ``(item, score)`` pairs with the smallest
        scores, skipping items in ``exclude``, without removing them.

        A take put straight back.  For readers that only look: Cafe's
        per-request reference walk and ``explain``, and Psychic.
        """
        entries = self.take_n_smallest(n, exclude)
        self.put_back(entries)
        return [(item, score) for score, _seq, item in entries]

    def pop_n_smallest(
        self, n: int, exclude: Optional[set] = None
    ) -> list[Tuple[T, float]]:
        """Remove and return up to ``n`` ``(item, score)`` pairs with the
        smallest scores, skipping (and keeping) items in ``exclude``.

        The ``(item, score)`` view of :meth:`take_n_smallest` with the
        entries dropped: exactly the victims ``n_smallest`` followed by
        ``remove`` of every returned item selects, in the same
        ``(score, seq)`` order, without pushing the victims back only to
        re-surface them as stale entries.
        """
        return [(item, score) for score, _seq, item in self.take_n_smallest(n, exclude)]

    def items_ascending(self) -> Iterator[Tuple[T, float]]:
        """Iterate all ``(item, score)`` pairs in ascending score order."""
        for score, _seq, item in sorted(
            (score, seq, item) for item, (score, seq) in self._index.items()
        ):
            yield item, score

    def check_invariants(self) -> None:
        """Validate heap/index/anchor consistency (for tests): each live
        item has exactly one anchor in the heap, found by identity; no
        anchor sits above its live key; every other entry is counted
        stale."""
        index = self._index
        anchor = self._anchor
        anchored: set = set()
        for entry in self._heap:
            score, seq, item = entry
            assert seq < self._seq, "sequence counter behind heap entry"
            if anchor.get(item) is entry:
                assert item not in anchored, "anchor entry held twice"
                anchored.add(item)
                live = index.get(item)
                assert live is not None, "anchor for an absent item"
                assert (score, seq) <= live, "anchor above its live key"
        assert anchored == index.keys(), "live item without an anchor entry"
        assert anchor.keys() == index.keys(), "anchor map/index mismatch"
        assert len(self._heap) == len(index) + self._stale, "stale count drift"
