"""Immutable sorted string tables (SSTables).

File layout::

    [data block: sequence of records, sorted by key]
    [sparse index block]
    [bloom filter block]
    [footer: offsets + counts + magic]

Record layout matches the WAL record (crc, key_len, value_len, key, value).
The sparse index stores every ``index_interval``-th key with its file
offset, so a point lookup reads at most one index segment of records.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from pathlib import Path
from typing import Iterator, Optional

from .bloom import BloomFilter
from .errors import CorruptionError
from .wal import record_crc, write_record

_RECORD_HEADER = struct.Struct("<III")
_FOOTER = struct.Struct("<QQQQ8s")
_MAGIC = b"SSTBLv01"
_INDEX_INTERVAL = 16


class SSTableWriter:
    """Streams sorted entries into a new SSTable file."""

    def __init__(
        self,
        path: str | Path,
        expected_items: int = 1024,
        fp_rate: float = 0.01,
        index_interval: int = _INDEX_INTERVAL,
    ) -> None:
        self._path = Path(path)
        self._file = open(self._path, "wb")
        self._bloom = BloomFilter(expected_items, fp_rate)
        self._index: list[tuple[bytes, int]] = []
        self._index_interval = index_interval
        self._count = 0
        self._offset = 0
        self._last_key: Optional[bytes] = None

    def add(self, key: bytes, value: bytes) -> None:
        """Append one entry; keys must arrive in strictly increasing order."""
        if self._last_key is not None and key <= self._last_key:
            raise ValueError("SSTable entries must be added in sorted order")
        self._last_key = key
        if self._count % self._index_interval == 0:
            self._index.append((key, self._offset))
        self._offset += write_record(self._file, key, value)
        self._bloom.add(key)
        self._count += 1

    def finish(self) -> None:
        """Write index, bloom, and footer, then close the file."""
        index_offset = self._offset
        index_blob = bytearray()
        for key, offset in self._index:
            index_blob += struct.pack("<IQ", len(key), offset) + key
        self._file.write(index_blob)
        bloom_offset = index_offset + len(index_blob)
        bloom_blob = self._bloom.to_bytes()
        self._file.write(bloom_blob)
        self._file.write(
            _FOOTER.pack(index_offset, bloom_offset, self._count, len(index_blob), _MAGIC)
        )
        self._file.close()


class SSTable:
    """Read-only view over one SSTable file.

    The file is read once and held as one buffer; values come back as
    ``memoryview`` slices of it, so iterating keys or checking CRCs copies
    no value.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        with open(self._path, "rb") as f:
            data = f.read()
        if len(data) < _FOOTER.size:
            raise CorruptionError(f"{self._path}: file too small for footer")
        index_offset, bloom_offset, count, index_len, magic = _FOOTER.unpack(
            data[-_FOOTER.size :]
        )
        if magic != _MAGIC:
            raise CorruptionError(f"{self._path}: bad magic {magic!r}")
        self._data = memoryview(data)[:index_offset]
        self._count = count
        self._bloom = BloomFilter.from_bytes(data[bloom_offset : -_FOOTER.size])
        self._index_keys: list[bytes] = []
        self._index_offsets: list[int] = []
        blob = data[index_offset : index_offset + index_len]
        pos = 0
        while pos < len(blob):
            key_len, offset = struct.unpack_from("<IQ", blob, pos)
            pos += 12
            self._index_keys.append(blob[pos : pos + key_len])
            pos += key_len
            self._index_offsets.append(offset)

    @property
    def path(self) -> Path:
        return self._path

    def __len__(self) -> int:
        return self._count

    def _records_from(self, offset: int) -> Iterator[tuple[bytes, memoryview]]:
        data = self._data
        total = len(data)
        while offset + _RECORD_HEADER.size <= total:
            crc, key_len, value_len = _RECORD_HEADER.unpack_from(data, offset)
            start = offset + _RECORD_HEADER.size
            end = start + key_len + value_len
            if end > total:
                raise CorruptionError(f"{self._path}: truncated record at {offset}")
            key = data[start : start + key_len]
            value = data[start + key_len : end]
            if crc != record_crc(data[offset + 4 : start], key, value):
                raise CorruptionError(f"{self._path}: CRC mismatch at {offset}")
            yield key.tobytes(), value
            offset = end

    def get(self, key: bytes) -> Optional[memoryview]:
        """Point lookup; returns the raw stored value (may be a tombstone)."""
        if not self._index_keys or not self._bloom.might_contain(key):
            return None
        slot = bisect_right(self._index_keys, key) - 1
        if slot < 0:
            return None
        for record_key, value in self._records_from(self._index_offsets[slot]):
            if record_key == key:
                return value
            if record_key > key:
                return None
        return None

    def items(self) -> Iterator[tuple[bytes, memoryview]]:
        """All entries in key order (tombstones included)."""
        yield from self._records_from(0)

    def range_items(
        self, start: bytes | None, end: bytes | None
    ) -> Iterator[tuple[bytes, memoryview]]:
        """Entries with ``start <= key < end`` in key order."""
        offset = 0
        if start is not None and self._index_keys:
            slot = bisect_right(self._index_keys, start) - 1
            if slot >= 0:
                offset = self._index_offsets[slot]
        for key, value in self._records_from(offset):
            if end is not None and key >= end:
                return
            if start is None or key >= start:
                yield key, value
