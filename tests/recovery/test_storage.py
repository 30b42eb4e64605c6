"""Checkpoint storage layout: manifest-last atomicity, retention, scans."""

import pytest

import repro.kvstore.api
import repro.kvstore.lsm
import repro.kvstore.memory
from repro.kvstore.lsm import LSMStore
from repro.kvstore.memory import MemoryStore
from repro.recovery.storage import CheckpointStorage


@pytest.fixture(params=["memory", "lsm"])
def storage(request, tmp_path):
    if request.param == "memory":
        yield CheckpointStorage(MemoryStore())
    else:
        store = LSMStore(tmp_path / "db")
        yield CheckpointStorage(store)
        store.close()


def test_node_state_roundtrip(storage):
    storage.save_node_state(0, "agg", {"windows": {("k", 1): [1, 2]}})
    state = storage.load_node_state(0, "agg")
    assert state["windows"] == {("k", 1): [1, 2]}


def test_source_position_roundtrip(storage):
    position = {"kind": "pubsub", "offsets": [["t", 0, 7]]}
    storage.save_source_position(3, "src", position)
    assert storage.load_source_position(3, "src") == position


def test_epoch_invisible_without_manifest(storage):
    storage.save_node_state(0, "agg", {"x": 1})
    storage.save_source_position(0, "src", {"kind": "count", "emitted": 5})
    assert storage.epochs() == []
    assert storage.latest_epoch() is None


def test_manifest_commits_epoch(storage):
    storage.save_node_state(0, "agg", {"x": 1})
    storage.commit_manifest(0, {"epoch": 0, "nodes": ["agg"], "sources": []})
    assert storage.epochs() == [0]
    assert storage.latest_epoch() == 0
    assert storage.load_manifest(0)["nodes"] == ["agg"]


def test_partial_epoch_hides_behind_committed_one(storage):
    """A crash mid-checkpoint (epoch 1 torso) must not mask epoch 0."""
    storage.save_node_state(0, "agg", {"x": 1})
    storage.commit_manifest(0, {"epoch": 0, "nodes": ["agg"], "sources": []})
    # epoch 1 crashed before its manifest
    storage.save_node_state(1, "agg", {"x": 2})
    storage.save_source_position(1, "src", {"kind": "count", "emitted": 9})
    assert storage.epochs() == [0]
    assert storage.latest_epoch() == 0


def test_epochs_sorted_numerically_past_width_9(storage):
    for epoch in (0, 2, 10, 9, 100):
        storage.commit_manifest(epoch, {"epoch": epoch, "nodes": [], "sources": []})
    assert storage.epochs() == [0, 2, 9, 10, 100]
    assert storage.latest_epoch() == 100


def test_drop_epoch_removes_every_key(storage):
    storage.save_node_state(0, "agg", {"x": 1})
    storage.save_source_position(0, "src", {"kind": "count", "emitted": 1})
    storage.commit_manifest(0, {"epoch": 0, "nodes": ["agg"], "sources": ["src"]})
    storage.drop_epoch(0)
    assert storage.epochs() == []
    assert storage.load_node_state(0, "agg") is None
    assert storage.load_source_position(0, "src") is None
    assert storage.load_manifest(0) is None


def test_retain_drops_oldest(storage):
    for epoch in range(5):
        storage.save_node_state(epoch, "agg", {"x": epoch})
        storage.commit_manifest(epoch, {"epoch": epoch, "nodes": ["agg"], "sources": []})
    dropped = storage.retain(2)
    assert dropped == [0, 1, 2]
    assert storage.epochs() == [3, 4]
    assert storage.load_node_state(3, "agg") == {"x": 3}
    assert storage.load_node_state(1, "agg") is None


def test_retain_noop_when_under_budget(storage):
    storage.commit_manifest(0, {"epoch": 0, "nodes": [], "sources": []})
    assert storage.retain(3) == []
    assert storage.epochs() == [0]


def test_retain_requires_positive(storage):
    with pytest.raises(ValueError):
        storage.retain(0)


def test_negative_epoch_rejected(storage):
    with pytest.raises(ValueError):
        storage.save_node_state(-1, "agg", {})


def test_prefix_validation():
    with pytest.raises(ValueError):
        CheckpointStorage(MemoryStore(), prefix="")
    with pytest.raises(ValueError):
        CheckpointStorage(MemoryStore(), prefix="a/b")


def test_prefix_isolation():
    """Two prefixes on one store don't see each other's epochs."""
    store = MemoryStore()
    a = CheckpointStorage(store, prefix="ckptA")
    b = CheckpointStorage(store, prefix="ckptB")
    a.commit_manifest(0, {"epoch": 0, "nodes": [], "sources": []})
    assert b.epochs() == []
    assert a.epochs() == [0]


def test_node_names_with_separators(storage):
    """STRATA node names contain ':' and may contain '/'-ish chars."""
    name = "sink:expert:3"
    storage.save_node_state(0, name, {"ok": True})
    storage.commit_manifest(0, {"epoch": 0, "nodes": [name], "sources": []})
    assert storage.load_node_state(0, name) == {"ok": True}


def test_listing_and_dropping_epochs_decode_no_value(storage, monkeypatch):
    """Retention runs on every commit: it reads keys, never a stored state."""
    for epoch in range(4):
        if epoch == 2 and isinstance(storage.store, LSMStore):
            storage.store.flush()  # epochs 0-1 in an SSTable, 2-3 in the memtable
        storage.save_node_state(epoch, "fuse", {"image": bytes(4096), "epoch": epoch})
        storage.save_source_position(epoch, "src", {"kind": "count", "emitted": epoch})
        storage.commit_manifest(epoch, {"epoch": epoch, "nodes": ["fuse"], "sources": ["src"]})
    decoded = []
    decode = repro.kvstore.api.decode_value

    def counted(data, *args, **kwargs):
        decoded.append(bytes(data[:1]))
        return decode(data, *args, **kwargs)

    for module in (repro.kvstore.api, repro.kvstore.lsm, repro.kvstore.memory):
        monkeypatch.setattr(module, "decode_value", counted)
    assert storage.epochs() == [0, 1, 2, 3]
    assert storage.latest_epoch() == 3
    storage.drop_epoch(0)
    assert storage.retain(2) == [1]
    assert decoded == []
    # the count is live: reading a state decodes it
    assert storage.load_node_state(2, "fuse")["epoch"] == 2
    assert decoded
