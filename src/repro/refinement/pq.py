"""Addressable max-priority queue for FM local search.

The paper's implementation uses binary heaps ("Priority queues for the
local search are based on binary heaps", Section 6).  This is a classic
addressable binary max-heap: ``push``/``pop``/``update``/``remove`` in
O(log n), keyed by node id, with deterministic tie-breaking by an explicit
secondary key (FM initialises queues "in random order", which we realise
by passing random secondary keys).

FM local search does not use this class: its two queues are lazy
:mod:`heapq` binary heaps over plain lists (see
:mod:`repro.refinement.fm`), which need no position map, and
rebalancing (:mod:`repro.refinement.balance`) never re-keys, so it
sorts its candidates once instead.  It remains the queue of the initial
partitioners' region growing, which removes and re-keys items.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["AddressablePQ"]


class AddressablePQ:
    """Binary max-heap over (priority, tiebreak) with item addressing."""

    __slots__ = ("_heap", "_pos")

    def __init__(self) -> None:
        # heap entries: (priority, tiebreak, item)
        self._heap: List[Tuple[float, float, int]] = []
        self._pos: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, item: int) -> bool:
        return item in self._pos

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, item: int, priority: float, tiebreak: float = 0.0) -> None:
        """Insert ``item``; raises if already present (use :meth:`update`)."""
        if item in self._pos:
            raise KeyError(f"item {item} already in queue")
        self._heap.append((priority, tiebreak, item))
        self._pos[item] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)

    def peek(self) -> Tuple[int, float]:
        """The (item, priority) with maximum (priority, tiebreak)."""
        if not self._heap:
            raise IndexError("peek on empty queue")
        p, _, item = self._heap[0]
        return item, p

    def pop(self) -> Tuple[int, float]:
        """Remove and return the max (item, priority)."""
        if not self._heap:
            raise IndexError("pop on empty queue")
        p, _, item = self._heap[0]
        self._remove_at(0)
        return item, p

    def update(self, item: int, priority: float,
               tiebreak: Optional[float] = None) -> None:
        """Change ``item``'s priority (keeps its tiebreak unless given)."""
        i = self._pos[item]
        old_p, old_t, _ = self._heap[i]
        t = old_t if tiebreak is None else tiebreak
        self._heap[i] = (priority, t, item)
        if (priority, t) > (old_p, old_t):
            self._sift_up(i)
        else:
            self._sift_down(i)

    def push_or_update(self, item: int, priority: float,
                       tiebreak: float = 0.0) -> None:
        if item in self._pos:
            self.update(item, priority)
        else:
            self.push(item, priority, tiebreak)

    def remove(self, item: int) -> None:
        self._remove_at(self._pos[item])

    def priority(self, item: int) -> float:
        return self._heap[self._pos[item]][0]

    # ------------------------------------------------------------------
    def _remove_at(self, i: int) -> None:
        last = len(self._heap) - 1
        item = self._heap[i][2]
        if i != last:
            self._heap[i] = self._heap[last]
            self._pos[self._heap[i][2]] = i
        self._heap.pop()
        del self._pos[item]
        if i < len(self._heap):
            self._sift_up(i)
            self._sift_down(i)

    def _key(self, i: int) -> Tuple[float, float]:
        p, t, _ = self._heap[i]
        return (p, t)

    def _sift_up(self, i: int) -> None:
        heap, pos = self._heap, self._pos
        entry = heap[i]
        key = (entry[0], entry[1])
        while i > 0:
            parent = (i - 1) >> 1
            pe = heap[parent]
            if (pe[0], pe[1]) >= key:
                break
            heap[i] = pe
            pos[pe[2]] = i
            i = parent
        heap[i] = entry
        pos[entry[2]] = i

    def _sift_down(self, i: int) -> None:
        heap, pos = self._heap, self._pos
        n = len(heap)
        entry = heap[i]
        key = (entry[0], entry[1])
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            best = left
            right = left + 1
            if right < n and (heap[right][0], heap[right][1]) > (
                heap[left][0], heap[left][1]
            ):
                best = right
            be = heap[best]
            if key >= (be[0], be[1]):
                break
            heap[i] = be
            pos[be[2]] = i
            i = best
        heap[i] = entry
        pos[entry[2]] = i
