"""Checkpoint persistence layout over a :class:`~repro.kvstore.api.KVStore`.

One checkpoint epoch occupies a key range::

    ckpt/<epoch:010d>/node/<node-name>     -> operator/sink state dict
    ckpt/<epoch:010d>/source/<node-name>   -> source position (offsets)
    ckpt/<epoch:010d>/manifest             -> commit record, written LAST

The manifest is the commit point: an epoch whose manifest key is absent is
invisible to recovery, so a crash mid-checkpoint leaves at most some
orphaned ``node/``/``source/`` keys that are never read (and are harmlessly
overwritten if the epoch number is ever reused). Atomicity therefore rests
on a single KV put, which both backends apply atomically.

Listing and dropping epochs reads keys only (``KVStore.keys``): retention
runs on every commit and never decodes a stored state.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..kvstore.api import KVStore

#: zero-padded so lexicographic key order == numeric epoch order
_EPOCH_WIDTH = 10


class CheckpointStorage:
    """Reads and writes checkpoint epochs under a common key prefix."""

    def __init__(self, store: KVStore, prefix: str = "ckpt") -> None:
        if not prefix or "/" in prefix:
            raise ValueError("prefix must be a non-empty string without '/'")
        self._store = store
        self._prefix = prefix

    @property
    def store(self) -> KVStore:
        return self._store

    # -- key layout ---------------------------------------------------------

    def _epoch_prefix(self, epoch: int) -> str:
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        return f"{self._prefix}/{epoch:0{_EPOCH_WIDTH}d}"

    def node_key(self, epoch: int, node_name: str) -> str:
        return f"{self._epoch_prefix(epoch)}/node/{node_name}"

    def source_key(self, epoch: int, node_name: str) -> str:
        return f"{self._epoch_prefix(epoch)}/source/{node_name}"

    def manifest_key(self, epoch: int) -> str:
        return f"{self._epoch_prefix(epoch)}/manifest"

    # -- writes -------------------------------------------------------------

    def save_node_state(self, epoch: int, node_name: str, state: dict) -> None:
        self._store.put(self.node_key(epoch, node_name), state)

    def save_source_position(self, epoch: int, node_name: str, position: dict) -> None:
        self._store.put(self.source_key(epoch, node_name), position)

    def commit_manifest(self, epoch: int, manifest: dict[str, Any]) -> None:
        """Make the epoch visible to recovery. Call strictly last."""
        self._store.put(self.manifest_key(epoch), manifest)

    def drop_epoch(self, epoch: int) -> None:
        """Delete one epoch, manifest first so readers never see a torso."""
        self._store.delete(self.manifest_key(epoch))
        doomed = list(self._keys_under(self._epoch_prefix(epoch) + "/"))
        for key in doomed:
            self._store.delete(key)

    def retain(self, keep: int) -> list[int]:
        """Drop all but the newest ``keep`` committed epochs; returns dropped."""
        if keep < 1:
            raise ValueError("must retain at least one epoch")
        committed = self.epochs()
        doomed = committed[:-keep] if len(committed) > keep else []
        for epoch in doomed:
            self.drop_epoch(epoch)
        return doomed

    # -- reads --------------------------------------------------------------

    def _keys_under(self, prefix: str) -> Iterator[str]:
        # '0x2F + 1 = 0x30' trick: "p/" .. "p0" spans every key under p/.
        end = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        for raw_key in self._store.keys(start=prefix, end=end):
            yield raw_key.decode("utf-8")

    def epochs(self) -> list[int]:
        """Committed (manifested) epochs, ascending."""
        out = []
        for key in self._keys_under(self._prefix + "/"):
            parts = key.split("/")
            if len(parts) == 3 and parts[2] == "manifest":
                out.append(int(parts[1]))
        return out

    def latest_epoch(self) -> int | None:
        committed = self.epochs()
        return committed[-1] if committed else None

    def load_manifest(self, epoch: int) -> dict[str, Any] | None:
        return self._store.get(self.manifest_key(epoch))

    def load_node_state(self, epoch: int, node_name: str) -> dict | None:
        return self._store.get(self.node_key(epoch, node_name))

    def load_source_position(self, epoch: int, node_name: str) -> dict | None:
        return self._store.get(self.source_key(epoch, node_name))
