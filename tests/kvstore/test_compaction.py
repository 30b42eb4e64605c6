"""Compaction: newest-wins merging and tombstone reclamation."""

from repro.kvstore.compaction import compact, merge_runs
from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.sstable import SSTable, SSTableWriter


def make_table(path, entries):
    writer = SSTableWriter(path, expected_items=len(entries) or 1)
    for key, value in sorted(entries):
        writer.add(key, value)
    writer.finish()
    return SSTable(path)


def test_merge_newest_wins(tmp_path):
    old = make_table(tmp_path / "0.sst", [(b"a", b"old"), (b"b", b"old")])
    new = make_table(tmp_path / "1.sst", [(b"b", b"new"), (b"c", b"new")])
    merged = dict(merge_runs([old.items(), new.items()]))
    assert merged == {b"a": b"old", b"b": b"new", b"c": b"new"}


def test_merge_three_generations(tmp_path):
    t0 = make_table(tmp_path / "0.sst", [(b"k", b"v0")])
    t1 = make_table(tmp_path / "1.sst", [(b"k", b"v1")])
    t2 = make_table(tmp_path / "2.sst", [(b"k", b"v2")])
    assert dict(merge_runs([t.items() for t in (t0, t1, t2)])) == {b"k": b"v2"}


def test_compact_drops_tombstones_at_bottom(tmp_path):
    t0 = make_table(tmp_path / "0.sst", [(b"a", b"1"), (b"b", b"2")])
    t1 = make_table(tmp_path / "1.sst", [(b"a", TOMBSTONE)])
    merged = compact([t0, t1], tmp_path / "out.sst", drop_tombstones=True)
    assert dict(merged.items()) == {b"b": b"2"}


def test_compact_keeps_tombstones_mid_level(tmp_path):
    t0 = make_table(tmp_path / "0.sst", [(b"a", b"1")])
    t1 = make_table(tmp_path / "1.sst", [(b"a", TOMBSTONE)])
    merged = compact([t0, t1], tmp_path / "out.sst", drop_tombstones=False)
    assert dict(merged.items()) == {b"a": TOMBSTONE}


def test_compact_preserves_order_and_size(tmp_path):
    left = make_table(
        tmp_path / "0.sst", [(f"k{i:02d}".encode(), b"L") for i in range(0, 40, 2)]
    )
    right = make_table(
        tmp_path / "1.sst", [(f"k{i:02d}".encode(), b"R") for i in range(1, 40, 2)]
    )
    merged = compact([left, right], tmp_path / "out.sst", drop_tombstones=True)
    keys = [k for k, _ in merged.items()]
    assert keys == sorted(keys)
    assert len(keys) == 40


def test_merge_empty_inputs(tmp_path):
    empty = make_table(tmp_path / "0.sst", [])
    assert list(merge_runs([empty.items()])) == []
