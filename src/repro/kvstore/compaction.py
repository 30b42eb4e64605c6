"""Size-tiered compaction: merge many SSTables into one, newest wins.

Compaction performs a k-way merge over sorted runs. When the same key
appears in several inputs, only the value from the *newest* table survives;
tombstones are dropped entirely when the merge output is the bottom level
(there is nothing older left to shadow).
"""

from __future__ import annotations

import heapq
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .memtable import TOMBSTONE
from .sstable import SSTable, SSTableWriter


def merge_runs(
    runs: Sequence[Iterable[tuple[bytes, bytes | memoryview]]],
) -> Iterator[tuple[bytes, bytes | memoryview]]:
    """K-way merge of sorted runs ordered oldest → newest.

    Yields one entry per distinct key — the value from the newest run
    containing that key. Tombstones are yielded (the caller decides whether
    to drop them). Compaction merges whole SSTables with it; the store's
    range reads merge table slices and the memtable with it.
    """
    # Heap entries: (key, -age, value). Newer runs get a more negative
    # tie-breaker so for equal keys the newest value pops first.
    iters = [iter(run) for run in runs]
    heap: list[tuple[bytes, int, bytes | memoryview, int]] = []
    for age, it in enumerate(iters):
        first = next(it, None)
        if first is not None:
            heap.append((first[0], -age, first[1], age))
    heapq.heapify(heap)
    last_key: bytes | None = None
    while heap:
        key, _neg_age, value, age = heapq.heappop(heap)
        nxt = next(iters[age], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt[0], -age, nxt[1], age))
        if key == last_key:
            continue  # an older duplicate; newest already emitted
        last_key = key
        yield key, value


def compact(
    tables: Sequence[SSTable],
    output_path: str | Path,
    drop_tombstones: bool,
) -> SSTable:
    """Merge ``tables`` (oldest → newest) into a single new SSTable."""
    expected = sum(len(t) for t in tables)
    writer = SSTableWriter(output_path, expected_items=max(1, expected))
    for key, value in merge_runs([table.items() for table in tables]):
        if drop_tombstones and value == TOMBSTONE:
            continue
        writer.add(key, value)
    writer.finish()
    return SSTable(output_path)
