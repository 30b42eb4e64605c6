"""In-memory key-value backend (fast path for latency-critical pipelines)."""

from __future__ import annotations

import threading
from typing import Any, Iterator

from .api import KVStore, decode_value, encode_key, encode_value
from .errors import StoreClosedError


class MemoryStore(KVStore):
    """Dict-backed store with the same contract as :class:`LSMStore`.

    Values are still round-tripped through the codec so that storing a
    mutable object and mutating it afterwards cannot silently change what
    readers observe — the same isolation a persistent store provides.
    """

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        self._lock = threading.RLock()
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")

    def put(self, key: str | bytes, value: Any) -> None:
        raw_key = encode_key(key)
        raw_value = encode_value(value)
        with self._lock:
            self._check_open()
            self._data[raw_key] = raw_value

    def get(self, key: str | bytes, default: Any = None) -> Any:
        raw_key = encode_key(key)
        with self._lock:
            self._check_open()
            raw = self._data.get(raw_key)
        if raw is None:
            return default
        return decode_value(raw)

    def delete(self, key: str | bytes) -> None:
        raw_key = encode_key(key)
        with self._lock:
            self._check_open()
            self._data.pop(raw_key, None)

    def _range(
        self, start: str | bytes | None, end: str | bytes | None
    ) -> Iterator[tuple[bytes, bytes]]:
        raw_start = encode_key(start) if start is not None else None
        raw_end = encode_key(end) if end is not None else None
        with self._lock:
            self._check_open()
            keys = sorted(self._data)
        for key in keys:
            if raw_start is not None and key < raw_start:
                continue
            if raw_end is not None and key >= raw_end:
                break
            with self._lock:
                raw = self._data.get(key)
            if raw is not None:
                yield key, raw

    def write_batch(self, batch) -> None:
        """Apply a :class:`~repro.kvstore.batch.WriteBatch` atomically."""
        with self._lock:
            self._check_open()
            for op, key, value in batch.operations:
                raw_key = encode_key(key)
                if op == "delete":
                    self._data.pop(raw_key, None)
                else:
                    self._data[raw_key] = encode_value(value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def close(self) -> None:
        with self._lock:
            self._closed = True
