"""Sources: where tuples enter a continuous query.

A source is any iterable of what an edge carries: :class:`StreamTuple`
items, :class:`~repro.spe.stream.TupleBatch` runs (sent down each edge as
one entry; a connector reader yields a block record's rows this way) and
checkpoint barriers (a barrier-capable wrapper injects them between
items). The node's executor sends each item on. ``ListSource`` replays a
fixed dataset (optionally re-stamping ``ingest_time`` at emission, which is
what latency measurement needs); ``RateLimitedSource`` paces another source
at a target tuple rate, used by the throughput experiment (Figure 7) to
sweep offered load; ``CallbackSource`` adapts a pull function.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Callable, Iterable, Iterator, Sequence

from .tuples import StreamTuple


class Source(ABC):
    """Base class for tuple producers."""

    def __init__(self, name: str) -> None:
        self.name = name

    @abstractmethod
    def __iter__(self) -> Iterator[StreamTuple]:
        """Yield tuples, ``TupleBatch`` runs and barriers until exhausted."""


class ListSource(Source):
    """Replays a pre-built sequence of tuples.

    ``restamp=True`` sets each tuple's ``ingest_time`` to the moment it is
    emitted, so downstream latency measures system time, not dataset age.
    """

    def __init__(
        self, name: str, tuples: Sequence[StreamTuple], restamp: bool = True
    ) -> None:
        super().__init__(name)
        self._tuples = list(tuples)
        self._restamp = restamp

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[StreamTuple]:
        for t in self._tuples:
            if self._restamp:
                t.ingest_time = time.monotonic()
            yield t


class CallbackSource(Source):
    """Adapts a zero-argument function returning tuples (or None to stop)."""

    def __init__(
        self, name: str, poll: Callable[[], StreamTuple | None], restamp: bool = True
    ) -> None:
        super().__init__(name)
        self._poll = poll
        self._restamp = restamp

    def __iter__(self) -> Iterator[StreamTuple]:
        while True:
            t = self._poll()
            if t is None:
                return
            if self._restamp:
                t.ingest_time = time.monotonic()
            yield t


class IterableSource(Source):
    """Wraps any iterable of tuples."""

    def __init__(
        self, name: str, iterable: Iterable[StreamTuple], restamp: bool = True
    ) -> None:
        super().__init__(name)
        self._iterable = iterable
        self._restamp = restamp

    def __iter__(self) -> Iterator[StreamTuple]:
        for t in self._iterable:
            if self._restamp:
                t.ingest_time = time.monotonic()
            yield t


class RateLimitedSource(Source):
    """Paces an inner source to ``rate`` tuples per second.

    Uses an absolute schedule (start + i/rate) rather than per-tuple sleeps
    so pacing error does not accumulate; if the consumer falls behind the
    schedule the source does not try to catch up faster than the rate.
    """

    def __init__(self, inner: Source, rate: float) -> None:
        super().__init__(inner.name)
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._inner = inner
        self._rate = rate
        # how far behind the absolute emission schedule the last tuple was
        # (0.0 while keeping up); exported as source lag by repro.obs
        self.lag_s = 0.0
        self.emitted = 0

    @property
    def rate(self) -> float:
        return self._rate

    def __iter__(self) -> Iterator[StreamTuple]:
        start = time.monotonic()
        for i, t in enumerate(self._inner):
            due = start + i / self._rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
                self.lag_s = 0.0
            else:
                self.lag_s = -delay
            t.ingest_time = time.monotonic()
            self.emitted = i + 1
            yield t
