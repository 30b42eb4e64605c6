"""LSM-tree key-value store (the RocksDB substitute).

Write path: WAL append → skiplist memtable. When the memtable exceeds
``memtable_bytes`` it is flushed to an SSTable and the WAL truncated.
Read path: memtable → SSTables newest-first (bloom filters prune files).
When the number of SSTables exceeds ``compaction_threshold`` they are
merged into one (size-tiered compaction) and tombstones are reclaimed.

Thread safety: a single re-entrant lock guards all public operations; the
store is shared by every STRATA module in one process, matching how the
paper's prototype shares one RocksDB instance.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Iterator

from .api import KVStore, decode_value, encode_key, encode_value
from .batch import WriteBatch
from .compaction import compact, merge_runs
from .errors import StoreClosedError
from .memtable import TOMBSTONE, SkipListMemtable
from .sstable import SSTable, SSTableWriter
from .wal import WriteAheadLog


class LSMStore(KVStore):
    """Persistent key-value store backed by a log-structured merge tree."""

    def __init__(
        self,
        directory: str | Path,
        memtable_bytes: int = 4 * 1024 * 1024,
        compaction_threshold: int = 4,
        sync_wal: bool = False,
    ) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._memtable_bytes = memtable_bytes
        self._compaction_threshold = compaction_threshold
        self._sync_wal = sync_wal
        self._lock = threading.RLock()
        self._closed = False
        self._tables: list[SSTable] = []  # oldest → newest
        self._next_table_id = 0
        self._load_existing_tables()
        self._memtable = SkipListMemtable()
        self._wal_path = self._dir / "wal.log"
        self._recover_wal()
        self._wal = WriteAheadLog(self._wal_path, sync=sync_wal)

    # -- startup ---------------------------------------------------------

    def _load_existing_tables(self) -> None:
        paths = sorted(self._dir.glob("sstable-*.sst"))
        for path in paths:
            self._tables.append(SSTable(path))
            table_id = int(path.stem.split("-")[1])
            self._next_table_id = max(self._next_table_id, table_id + 1)

    def _recover_wal(self) -> None:
        for key, value in WriteAheadLog.replay(self._wal_path):
            self._memtable.put(key, value)

    # -- internals -------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")

    def _new_table_path(self) -> Path:
        path = self._dir / f"sstable-{self._next_table_id:08d}.sst"
        self._next_table_id += 1
        return path

    def _flush_memtable(self) -> None:
        if len(self._memtable) == 0:
            return
        path = self._new_table_path()
        writer = SSTableWriter(path, expected_items=len(self._memtable))
        for key, value in self._memtable.items():
            writer.add(key, value)
        writer.finish()
        self._tables.append(SSTable(path))
        self._memtable = SkipListMemtable()
        self._wal.remove()
        self._wal = WriteAheadLog(self._wal_path, sync=self._sync_wal)
        if len(self._tables) > self._compaction_threshold:
            self._compact_all()

    def _compact_all(self) -> None:
        path = self._new_table_path()
        merged = compact(self._tables, path, drop_tombstones=True)
        for table in self._tables:
            table.path.unlink(missing_ok=True)
        self._tables = [merged]

    # -- public API ------------------------------------------------------

    def put(self, key: str | bytes, value: Any) -> None:
        raw_key = encode_key(key)
        raw_value = encode_value(value)
        with self._lock:
            self._check_open()
            self._wal.append(raw_key, raw_value)
            self._memtable.put(raw_key, raw_value)
            if self._memtable.approximate_bytes >= self._memtable_bytes:
                self._flush_memtable()

    def get(self, key: str | bytes, default: Any = None) -> Any:
        raw_key = encode_key(key)
        with self._lock:
            self._check_open()
            value = self._memtable.get(raw_key)
            if value is None:
                for table in reversed(self._tables):
                    value = table.get(raw_key)
                    if value is not None:
                        break
        if value is None or value == TOMBSTONE:
            return default
        return decode_value(value)

    def delete(self, key: str | bytes) -> None:
        raw_key = encode_key(key)
        with self._lock:
            self._check_open()
            self._wal.append(raw_key, TOMBSTONE)
            self._memtable.put(raw_key, TOMBSTONE)

    def _range(
        self, start: str | bytes | None, end: str | bytes | None
    ) -> Iterator[tuple[bytes, bytes | memoryview]]:
        raw_start = encode_key(start) if start is not None else None
        raw_end = encode_key(end) if end is not None else None
        with self._lock:
            self._check_open()
            # Snapshot the merge inputs under the lock; iteration itself is
            # lock-free over immutable SSTables plus a copied memtable slice.
            # Table values are views into the tables' buffers, not copies.
            runs: list[list[tuple[bytes, bytes | memoryview]]] = [
                list(table.range_items(raw_start, raw_end)) for table in self._tables
            ]
            runs.append(list(self._memtable.range_items(raw_start, raw_end)))
        for key, value in merge_runs(runs):
            if value != TOMBSTONE:
                yield key, value

    def write_batch(self, batch: "WriteBatch") -> None:
        """Apply a batch of puts/deletes atomically.

        All records enter the WAL before any reaches the memtable, and the
        whole batch is applied under one lock acquisition — readers never
        observe a partially-applied batch, and recovery replays either a
        prefix that ends cleanly at a record boundary or the whole batch
        (individual records are CRC-framed).
        """
        with self._lock:
            self._check_open()
            encoded: list[tuple[bytes, bytes]] = []
            for op, key, value in batch.operations:
                raw_key = encode_key(key)
                raw_value = TOMBSTONE if op == "delete" else encode_value(value)
                encoded.append((raw_key, raw_value))
            for raw_key, raw_value in encoded:
                self._wal.append(raw_key, raw_value)
            for raw_key, raw_value in encoded:
                self._memtable.put(raw_key, raw_value)
            if self._memtable.approximate_bytes >= self._memtable_bytes:
                self._flush_memtable()

    def flush(self) -> None:
        """Force the active memtable to disk (exposed for tests/benches)."""
        with self._lock:
            self._check_open()
            self._flush_memtable()

    def compact(self) -> None:
        """Force a full compaction of all SSTables."""
        with self._lock:
            self._check_open()
            self._flush_memtable()
            if len(self._tables) > 1:
                self._compact_all()

    @property
    def sstable_count(self) -> int:
        with self._lock:
            return len(self._tables)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._flush_memtable()
            self._wal.close()
            self._closed = True
