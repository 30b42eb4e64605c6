"""SSTable write/read, sparse index lookups, corruption detection."""

import pytest

from repro.kvstore.errors import CorruptionError
from repro.kvstore.sstable import SSTable, SSTableWriter


def build_table(path, entries, **kwargs):
    writer = SSTableWriter(path, expected_items=len(entries) or 1, **kwargs)
    for key, value in entries:
        writer.add(key, value)
    writer.finish()
    return SSTable(path)


def test_point_lookup_every_key(tmp_path):
    entries = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(200)]
    table = build_table(tmp_path / "t.sst", entries)
    for key, value in entries:
        assert table.get(key) == value


def test_lookup_absent_keys(tmp_path):
    entries = [(f"k{i:04d}".encode(), b"v") for i in range(0, 100, 2)]
    table = build_table(tmp_path / "t.sst", entries)
    assert table.get(b"k0001") is None
    assert table.get(b"a") is None
    assert table.get(b"zzz") is None


def test_items_in_order(tmp_path):
    entries = [(f"k{i:04d}".encode(), b"v") for i in range(50)]
    table = build_table(tmp_path / "t.sst", entries)
    assert list(table.items()) == entries
    assert len(table) == 50


def test_range_items(tmp_path):
    entries = [(f"{i:02d}".encode(), b"v") for i in range(30)]
    table = build_table(tmp_path / "t.sst", entries)
    got = [k for k, _ in table.range_items(b"10", b"15")]
    assert got == [b"10", b"11", b"12", b"13", b"14"]
    assert [k for k, _ in table.range_items(None, b"03")] == [b"00", b"01", b"02"]
    assert [k for k, _ in table.range_items(b"28", None)] == [b"28", b"29"]


def test_unsorted_add_rejected(tmp_path):
    writer = SSTableWriter(tmp_path / "t.sst")
    writer.add(b"b", b"1")
    with pytest.raises(ValueError):
        writer.add(b"a", b"2")
    with pytest.raises(ValueError):
        writer.add(b"b", b"dup")


def test_empty_table(tmp_path):
    table = build_table(tmp_path / "t.sst", [])
    assert len(table) == 0
    assert table.get(b"k") is None
    assert list(table.items()) == []


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "t.sst"
    build_table(path, [(b"k", b"v")])
    data = bytearray(path.read_bytes())
    data[-4:] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptionError):
        SSTable(path)


def test_data_corruption_detected_on_read(tmp_path):
    path = tmp_path / "t.sst"
    build_table(path, [(b"key-one", b"value-one"), (b"key-two", b"value-two")])
    data = bytearray(path.read_bytes())
    data[16] ^= 0xFF  # inside first record's body
    path.write_bytes(bytes(data))
    table = SSTable(path)
    with pytest.raises(CorruptionError):
        list(table.items())


def test_flipped_value_byte_detected_on_read(tmp_path):
    path = tmp_path / "t.sst"
    build_table(path, [(b"key-one", b"value-one"), (b"key-two", b"value-two")])
    data = bytearray(path.read_bytes())
    data[12 + len(b"key-one") + 3] ^= 0x01  # inside the first record's value
    path.write_bytes(bytes(data))
    table = SSTable(path)
    with pytest.raises(CorruptionError):
        table.get(b"key-one")
    with pytest.raises(CorruptionError):
        list(table.range_items(None, None))


def test_small_index_interval(tmp_path):
    entries = [(f"{i:03d}".encode(), str(i).encode()) for i in range(64)]
    table = build_table(tmp_path / "t.sst", entries, index_interval=4)
    for key, value in entries:
        assert table.get(key) == value


def test_large_values(tmp_path):
    big = bytes(range(256)) * 1000
    table = build_table(tmp_path / "t.sst", [(b"big", big)])
    assert table.get(b"big") == big
