"""Streams: bounded queues connecting operators.

Liebre connects operators through bounded in-memory queues; a full queue
blocks the producer, which is how back-pressure propagates upstream to the
sources. Every stream has one producer and one consumer; fan-in is an
operator with several input streams (union, join), never a queue with
several writers. ``END_OF_STREAM`` is the control marker the producer
appends when it will emit nothing more.

Queue entries are either single tuples, control items (barriers, EOS), or
a :class:`TupleBatch` — a contiguous run of data tuples a producer moved
as one entry to amortize lock/condvar traffic: what a planned operator
returned for one run, or a run a source yielded whole (a connector
reader's block record). Capacity and the produced/consumed counters
account for the *tuples* inside a batch, so back-pressure semantics are
unchanged.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from .barrier import is_barrier


class EndOfStream:
    """Sentinel marking that the producer of a stream has finished."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<END_OF_STREAM>"


END_OF_STREAM = EndOfStream()


class TupleBatch(list):
    """A run of data tuples transported through a stream as one queue entry.

    Consumers unbatch transparently (``NodeExecutor.handle``); per-tuple
    latency metrics are preserved because every tuple keeps its own
    ``ingest_time``. Control items (barriers, EOS) are never batched, so
    barrier alignment sees the exact same cut as unbatched transport.
    """

    __slots__ = ()


#: entry types whose capacity weight is their row count; extended by
#: :func:`register_weighted_type` (repro.spe.columnar registers its block
#: type here instead of stream importing it, which would be circular)
_WEIGHTED_TYPES: tuple[type, ...] = (TupleBatch,)


def register_weighted_type(cls: type) -> None:
    """Account entries of ``cls`` by ``len()`` instead of as one tuple."""
    global _WEIGHTED_TYPES
    if cls not in _WEIGHTED_TYPES:
        _WEIGHTED_TYPES = _WEIGHTED_TYPES + (cls,)


def item_weight(item: Any) -> int:
    """Tuples an entry contributes to capacity/counter accounting."""
    return len(item) if type(item) in _WEIGHTED_TYPES else 1


class Stream:
    """Thread-safe bounded FIFO carrying tuples between two query nodes."""

    def __init__(self, name: str, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError("stream capacity must be positive")
        self.name = name
        self._capacity = capacity
        self._items: deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._size = 0
        self.produced = 0
        self.consumed = 0
        # deepest fill level ever observed (tuples); read by repro.obs
        self.high_watermark = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def put(self, item: Any, timeout: float | None = None) -> bool:
        """Append one item, blocking while full (back-pressure).

        Returns False only if ``timeout`` elapsed with the queue still full.
        EOS markers bypass the capacity check so shutdown never deadlocks.
        A :class:`TupleBatch` is admitted whenever *any* capacity remains
        (it may transiently overshoot by at most one batch), so a batch
        never deadlocks against a capacity smaller than its length.
        """
        with self._not_full:
            if item is not END_OF_STREAM:
                while self._size >= self._capacity:
                    if not self._not_full.wait(timeout):
                        return False
            self._append(item)
            return True

    def put_unbounded(self, item: Any) -> bool:
        """Append one item without ever waiting on capacity.

        For single-threaded schedulers: with no concurrent consumer to
        drain a full queue, a blocking :meth:`put` is a self-deadlock
        (e.g. one join step emitting more pairs than the output stream
        holds). Back-pressure is meaningless there — the round-robin loop
        itself bounds how much is in flight — so the queue is allowed to
        overshoot its capacity; ``high_watermark`` still records it.
        """
        with self._not_full:
            self._append(item)
            return True

    def _append(self, item: Any) -> None:
        """Enqueue ``item`` and wake its waiters; the caller holds the lock."""
        self._items.append(item)
        if item is END_OF_STREAM:
            self._not_empty.notify_all()
            return
        weight = item_weight(item)
        self._size += weight
        self.produced += weight
        if self._size > self.high_watermark:
            self.high_watermark = self._size
        self._not_empty.notify()

    def get(self, timeout: float | None = None) -> Any | None:
        """Pop one item, blocking while empty; ``None`` on timeout.

        The EOS marker is returned once the producer finished, and left
        visible to subsequent calls so multiple pollers see it.
        """
        with self._not_empty:
            while not self._items:
                if not self._not_empty.wait(timeout):
                    return None
            item = self._items[0]
            if item is END_OF_STREAM:
                return END_OF_STREAM
            self._items.popleft()
            weight = item_weight(item)
            self._size -= weight
            self.consumed += weight
            self._not_full.notify()
            return item

    def try_get(self) -> Any | None:
        """Non-blocking pop; ``None`` when empty."""
        return self.get(timeout=0.0)

    def drain(self, max_items: int | None = None) -> list[Any]:
        """Pop up to ``max_items`` data entries without blocking.

        Stops at control items — EOS *and* checkpoint barriers — so a
        consumer draining in bulk still observes barriers one at a time at
        the exact position producers placed them (alignment stays exact).
        """
        out: list[Any] = []
        with self._not_empty:
            while self._items and (max_items is None or len(out) < max_items):
                head = self._items[0]
                if head is END_OF_STREAM or is_barrier(head):
                    break
                self._items.popleft()
                weight = item_weight(head)
                self._size -= weight
                self.consumed += weight
                out.append(head)
            if out:
                self._not_full.notify_all()
        return out

    def __len__(self) -> int:
        """Tuples currently queued (batches count their contents)."""
        with self._lock:
            return self._size
