"""Abstract key-value store interface.

STRATA's modules persist and retrieve data-at-rest through this interface
(the paper's ``store(k, v)`` / ``get(k)`` API, Table 1). Two backends are
provided: :class:`repro.kvstore.memory.MemoryStore` (fast, in-process) and
:class:`repro.kvstore.lsm.LSMStore` (persistent, RocksDB-like LSM tree).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterator

# The value codec is shared with the network wire format: repro.serde owns
# it now; these re-exports keep the historical kvstore import surface (and
# behaviour: pickle is always accepted when decoding stored values).
from ..serde import _json_roundtrips, decode_value, encode_value  # noqa: F401
from .errors import InvalidKeyError


def encode_key(key: str | bytes) -> bytes:
    """Normalize a key to ``bytes``, rejecting empty or mistyped keys."""
    if isinstance(key, str):
        key = key.encode("utf-8")
    if not isinstance(key, bytes):
        raise InvalidKeyError(f"key must be str or bytes, got {type(key).__name__}")
    if not key:
        raise InvalidKeyError("key must be non-empty")
    return key


class KVStore(ABC):
    """Key-value store contract shared by all backends.

    Keys are ``str`` or ``bytes``; values are arbitrary Python objects
    (serialized transparently). Range scans iterate in lexicographic key
    order, which STRATA uses to fetch per-job historical records.
    """

    @abstractmethod
    def put(self, key: str | bytes, value: Any) -> None:
        """Store ``value`` under ``key``, overwriting any previous value."""

    @abstractmethod
    def get(self, key: str | bytes, default: Any = None) -> Any:
        """Return the value stored under ``key``, or ``default``."""

    @abstractmethod
    def delete(self, key: str | bytes) -> None:
        """Remove ``key`` if present (idempotent)."""

    def scan(
        self,
        start: str | bytes | None = None,
        end: str | bytes | None = None,
    ) -> Iterator[tuple[bytes, Any]]:
        """Iterate ``(key, value)`` pairs with ``start <= key < end``."""
        for key, raw in self._range(start, end):
            yield key, decode_value(raw)

    def keys(
        self,
        start: str | bytes | None = None,
        end: str | bytes | None = None,
    ) -> Iterator[bytes]:
        """Iterate the keys ``start <= key < end`` in order; no value is decoded."""
        for key, _raw in self._range(start, end):
            yield key

    @abstractmethod
    def _range(
        self, start: str | bytes | None, end: str | bytes | None
    ) -> Iterator[tuple[bytes, bytes | memoryview]]:
        """Live ``(key, encoded value)`` pairs with ``start <= key < end``."""

    @abstractmethod
    def close(self) -> None:
        """Release resources; further operations raise ``StoreClosedError``."""

    def __contains__(self, key: str | bytes) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
