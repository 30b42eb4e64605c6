"""LSM store: the full read/write/recover lifecycle."""

import pytest

from repro.kvstore import CorruptionError, LSMStore, StoreClosedError


@pytest.fixture()
def store(tmp_path):
    s = LSMStore(tmp_path, memtable_bytes=4096, compaction_threshold=3)
    yield s
    s.close()


def test_put_get_various_types(store):
    store.put("str", "value")
    store.put("int", 42)
    store.put("dict", {"nested": [1, 2, 3]})
    store.put("bytes", b"\x00\x01")
    assert store.get("str") == "value"
    assert store.get("int") == 42
    assert store.get("dict") == {"nested": [1, 2, 3]}
    assert store.get("bytes") == b"\x00\x01"


def test_get_default(store):
    assert store.get("missing") is None
    assert store.get("missing", "fallback") == "fallback"


def test_delete(store):
    store.put("k", 1)
    store.delete("k")
    assert store.get("k") is None
    store.delete("never-existed")  # idempotent


def test_delete_shadows_flushed_value(store):
    store.put("k", "old")
    store.flush()
    store.delete("k")
    assert store.get("k") is None
    store.flush()
    assert store.get("k") is None


def test_contains(store):
    store.put("here", 1)
    assert "here" in store
    assert "gone" not in store


def test_flush_then_read(store):
    for i in range(50):
        store.put(f"k{i:03d}", i)
    store.flush()
    assert store.sstable_count >= 1
    for i in range(50):
        assert store.get(f"k{i:03d}") == i


def test_automatic_memtable_rotation(tmp_path):
    store = LSMStore(tmp_path, memtable_bytes=512, compaction_threshold=100)
    for i in range(200):
        store.put(f"key-{i:04d}", "x" * 20)
    assert store.sstable_count > 1
    for i in range(200):
        assert store.get(f"key-{i:04d}") == "x" * 20
    store.close()


def test_compaction_bounds_table_count(tmp_path):
    store = LSMStore(tmp_path, memtable_bytes=256, compaction_threshold=3)
    for i in range(300):
        store.put(f"key-{i:04d}", i)
    assert store.sstable_count <= 4
    assert store.get("key-0123") == 123
    store.close()


def test_scan_merges_all_levels(store):
    store.put("a", 1)
    store.flush()
    store.put("b", 2)
    store.flush()
    store.put("c", 3)  # still in the memtable
    store.put("a", 10)  # overwrite in memtable shadows the sstable
    got = dict(store.scan())
    assert got == {b"a": 10, b"b": 2, b"c": 3}


def test_scan_range(store):
    for i in range(20):
        store.put(f"{i:02d}", i)
    store.flush()
    got = [k.decode() for k, _ in store.scan("05", "10")]
    assert got == ["05", "06", "07", "08", "09"]


def test_scan_excludes_deleted(store):
    store.put("a", 1)
    store.put("b", 2)
    store.flush()
    store.delete("a")
    assert dict(store.scan()) == {b"b": 2}


def test_keys_list_what_scan_yields(store):
    for i in range(12):
        store.put(f"{i:02d}", {"state": i})
        if i % 4 == 3:
            store.flush()
    store.delete("05")
    store.put("07", "newer")
    assert list(store.keys()) == [k for k, _ in store.scan()]
    assert list(store.keys("03", "08")) == [b"03", b"04", b"06", b"07"]


def test_keys_still_check_each_record(tmp_path):
    with LSMStore(tmp_path) as store:
        store.put("a", b"value")
    (path,) = tmp_path.glob("sstable-*.sst")
    data = bytearray(path.read_bytes())
    data[12 + 1 + 2] ^= 0x01  # inside the value of the only record
    path.write_bytes(bytes(data))
    with LSMStore(tmp_path) as store:
        with pytest.raises(CorruptionError):
            list(store.keys())


def test_recovery_from_wal(tmp_path):
    store = LSMStore(tmp_path)
    store.put("durable", "yes")
    store._wal.close()  # simulate crash: skip the clean close/flush
    store._closed = True

    recovered = LSMStore(tmp_path)
    assert recovered.get("durable") == "yes"
    recovered.close()


def test_reopen_after_clean_close(tmp_path):
    store = LSMStore(tmp_path)
    for i in range(30):
        store.put(f"k{i}", i)
    store.delete("k5")
    store.close()
    reopened = LSMStore(tmp_path)
    assert reopened.get("k7") == 7
    assert reopened.get("k5") is None
    reopened.close()


def test_operations_after_close_raise(tmp_path):
    store = LSMStore(tmp_path)
    store.close()
    with pytest.raises(StoreClosedError):
        store.put("k", 1)
    with pytest.raises(StoreClosedError):
        store.get("k")
    with pytest.raises(StoreClosedError):
        list(store.scan())


def test_forced_compact_single_table(store):
    store.put("x", 1)
    store.compact()
    assert store.sstable_count == 1
    assert store.get("x") == 1


def test_invalid_keys_rejected(store):
    from repro.kvstore import InvalidKeyError

    with pytest.raises(InvalidKeyError):
        store.put("", 1)
    with pytest.raises(InvalidKeyError):
        store.get(123)  # type: ignore[arg-type]


def test_context_manager(tmp_path):
    with LSMStore(tmp_path) as store:
        store.put("k", "v")
    with pytest.raises(StoreClosedError):
        store.get("k")
