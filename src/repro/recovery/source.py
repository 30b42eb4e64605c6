"""Barrier-capable source wrapper.

:class:`CheckpointableSource` decorates any SPE source so the checkpoint
coordinator can inject :class:`~repro.spe.barrier.CheckpointBarrier` items
into its tuple stream. The barrier is yielded *by the source's own
iterator, between tuples*, which is the only place where the source's
replay position exactly matches the barrier's position in the stream —
injecting from another thread would race against in-flight tuples.

Two position models, chosen by duck-typing the inner source:

* **pubsub** — the inner source exposes ``offsets()``/``seek()`` (e.g.
  :class:`~repro.core.connectors.PubSubReaderSource`); positions are
  per-partition broker offsets and restore is an exact seek. Such a
  source may yield a whole record's tuples as one ``TupleBatch`` run; a
  barrier then falls between records, never inside one.
* **count** — any other source; the position is the number of tuples
  emitted (a run counts its rows), and restore skips that many tuples on
  the next iteration — a run lying wholly inside the skip is dropped, one
  straddling it yields its tail (correct whenever the source replays
  deterministically, which holds for the replayed-print datasets this
  repo uses).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator

from ..spe.barrier import CheckpointBarrier
from ..spe.source import Source
from ..spe.stream import TupleBatch
from ..spe.tuples import StreamTuple

#: (source_name, epoch, position) — invoked at the exact injection point
OffsetCallback = Callable[[str, int, dict], None]

KIND_PUBSUB = "pubsub"
KIND_COUNT = "count"


class CheckpointableSource(Source):
    """Wraps a source so barriers can be injected at exact cut points."""

    def __init__(self, inner: Source, name: str | None = None) -> None:
        super().__init__(name or inner.name)
        self._inner = inner
        self._lock = threading.Lock()
        self._pending: list[tuple[CheckpointBarrier, OffsetCallback | None]] = []
        self._emitted = 0
        self._skip = 0

    @property
    def inner(self) -> Source:
        return self._inner

    @property
    def emitted(self) -> int:
        """Rows emitted so far, those a restore skipped included (no barriers)."""
        return self._emitted

    def request_barrier(
        self, barrier: CheckpointBarrier, on_inject: OffsetCallback | None = None
    ) -> None:
        """Ask the source to emit ``barrier`` before its next tuple.

        Thread-safe; the barrier is injected by the source's own thread, at
        which point ``on_inject`` receives the captured position.
        """
        with self._lock:
            self._pending.append((barrier, on_inject))

    def position(self) -> dict[str, Any]:
        """Current replay position in a restore_position-compatible dict."""
        if hasattr(self._inner, "offsets"):
            return {"kind": KIND_PUBSUB, "offsets": self._inner.offsets()}
        return {"kind": KIND_COUNT, "emitted": self._emitted}

    def restore_position(self, position: dict[str, Any]) -> None:
        """Rewind/advance so the next tuple is the one after the cut."""
        kind = position["kind"]
        if kind == KIND_PUBSUB:
            self._inner.seek(position["offsets"])
        elif kind == KIND_COUNT:
            self._skip = int(position["emitted"])
            self._emitted = 0
        else:
            raise ValueError(f"unknown source position kind {kind!r}")

    def _drain(self) -> Iterator[CheckpointBarrier]:
        with self._lock:
            pending, self._pending = self._pending, []
        for barrier, on_inject in pending:
            if on_inject is not None:
                on_inject(self.name, barrier.epoch, self.position())
            yield barrier

    def __iter__(self) -> Iterator[StreamTuple | TupleBatch | CheckpointBarrier]:
        """The inner source's items, whole runs included, with barriers between."""
        iterator = iter(self._inner)
        while True:
            # Drain BEFORE pulling the next item: once it is pulled, a
            # pubsub inner's offsets already point past it, so a barrier
            # taken then would both replay the item and have emitted it.
            yield from self._drain()
            try:
                item = next(iterator)
            except StopIteration:
                yield from self._drain()
                return
            rows = len(item) if type(item) is TupleBatch else 1
            if self._skip > 0:
                # a count position counts rows: drop a run lying wholly
                # inside the skip, hand over the tail of one straddling it
                skipped = min(rows, self._skip)
                self._skip -= skipped
                self._emitted += skipped
                if skipped == rows:
                    continue
                item, rows = TupleBatch(item[skipped:]), rows - skipped
            yield item
            self._emitted += rows
