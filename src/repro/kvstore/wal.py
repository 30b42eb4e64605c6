"""Write-ahead log for crash-safe memtable recovery.

Record layout (little-endian):

    [u32 crc][u32 key_len][u32 value_len][key bytes][value bytes]

The CRC covers both length headers and both bodies. Replay stops at the
first corrupt or truncated record, mirroring the torn-write tolerance of
production WAL implementations.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

from .errors import StoreClosedError

_HEADER = struct.Struct("<III")
_CRC = struct.Struct("<I")
_LENGTHS = struct.Struct("<II")


def record_crc(lengths, key, value) -> int:
    """CRC of one record: its two length fields, key and value.

    Computed incrementally over the parts, so a large value is never
    copied to be checked.
    """
    return zlib.crc32(value, zlib.crc32(key, zlib.crc32(lengths)))


def write_record(file, key: bytes, value) -> int:
    """Frame ``key``/``value`` as one record on ``file``; returns its size."""
    lengths = _LENGTHS.pack(len(key), len(value))
    file.write(_CRC.pack(record_crc(lengths, key, value)) + lengths)
    file.write(key)
    file.write(value)
    return _HEADER.size + len(key) + len(value)


class WriteAheadLog:
    """Append-only durability log paired with the active memtable."""

    def __init__(self, path: str | Path, sync: bool = False) -> None:
        self._path = Path(path)
        self._sync = sync
        self._file = open(self._path, "ab")
        self._closed = False

    @property
    def path(self) -> Path:
        return self._path

    def append(self, key: bytes, value: bytes) -> None:
        """Durably record one put/delete before it reaches the memtable."""
        if self._closed:
            raise StoreClosedError("WAL is closed")
        write_record(self._file, key, value)
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._closed:
            self._file.close()
            self._closed = True

    def remove(self) -> None:
        """Close and delete the log file (after a successful flush)."""
        self.close()
        self._path.unlink(missing_ok=True)

    @staticmethod
    def replay(path: str | Path) -> Iterator[tuple[bytes, bytes]]:
        """Yield all intact records from an existing log, oldest first."""
        path = Path(path)
        if not path.exists():
            return
        with open(path, "rb") as f:
            data = f.read()
        offset = 0
        total = len(data)
        while offset + _HEADER.size <= total:
            crc, key_len, value_len = _HEADER.unpack_from(data, offset)
            body_start = offset + _HEADER.size
            body_end = body_start + key_len + value_len
            if body_end > total:
                return  # truncated tail
            key = data[body_start : body_start + key_len]
            value = data[body_start + key_len : body_end]
            if crc != record_crc(data[offset + 4 : body_start], key, value):
                return  # corrupt record; discard it and everything after
            yield key, value
            offset = body_end
