"""Shared serde: storage codec extraction + pickle-free wire codec."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.serde import (
    PickleRefusedError,
    SerdeContext,
    SerdeError,
    decode_value,
    decode_wire,
    encode_value,
    encode_wire,
)
from repro.spe import ColumnarBlock, StreamTuple


def test_storage_codec_roundtrips():
    for value in (b"\x00raw", {"a": [1, 2.5, None, True]}, "text", 42):
        assert decode_value(encode_value(value)) == value


def test_storage_codec_still_pickles_non_json():
    # kvstore back-compat: tuples/sets fall back to pickle, decode allows it
    value = {"key": (1, 2)}
    assert decode_value(encode_value(value)) == value


def test_storage_codec_unknown_tag():
    with pytest.raises(SerdeError):
        decode_value(b"?junk")


def test_kvstore_reexports_shared_codec():
    from repro import serde
    from repro.kvstore import api

    assert api.encode_value is serde.encode_value
    assert api.decode_value is serde.decode_value


def test_wire_json_roundtrip():
    for value in (None, True, 3, 2.5, "s", [1, "x"], {"k": [1]}):
        assert decode_wire(encode_wire(value)) == value


def test_wire_bytes_roundtrip():
    assert decode_wire(encode_wire(b"\xff\x00blob")) == b"\xff\x00blob"


@pytest.mark.parametrize("dtype", ["<f8", "<f4", "<i4", "<u2", "|b1"])
def test_wire_ndarray_roundtrip(dtype):
    array = (np.arange(24) % 2).astype(np.dtype(dtype)).reshape(2, 3, 4)
    got = decode_wire(encode_wire(array))
    assert got.dtype == array.dtype and got.shape == array.shape
    np.testing.assert_array_equal(got, array)


def test_wire_ndarray_non_contiguous():
    array = np.arange(16, dtype=np.float64).reshape(4, 4)[:, ::2]
    np.testing.assert_array_equal(decode_wire(encode_wire(array)), array)


def test_wire_decoded_ndarray_is_writable():
    got = decode_wire(encode_wire(np.zeros(3)))
    got[0] = 1.0  # frombuffer views are read-only; the codec must copy


def test_wire_stream_tuple_roundtrip():
    t = StreamTuple(
        tau=3.5, job="J1", layer=7,
        payload={"image": np.ones((4, 4), dtype=np.float32), "count": 2},
        specimen="s0", portion="p1", ingest_time=123.25,
    )
    t.trace_id = "trace-9"
    got = decode_wire(encode_wire(t))
    assert isinstance(got, StreamTuple)
    assert (got.tau, got.job, got.layer) == (3.5, "J1", 7)
    assert (got.specimen, got.portion) == ("s0", "p1")
    assert got.ingest_time == 123.25  # preserved: latency spans the hop
    assert got.trace_id == "trace-9"
    assert got.payload["count"] == 2
    np.testing.assert_array_equal(got.payload["image"], t.payload["image"])


def test_wire_refuses_pickle_by_default():
    with pytest.raises(PickleRefusedError):
        encode_wire({"bad": (1, 2)})  # tuple is not JSON-exact
    blob = encode_wire({"bad": (1, 2)}, allow_pickle=True)
    with pytest.raises(PickleRefusedError):
        decode_wire(blob)
    assert decode_wire(blob, allow_pickle=True) == {"bad": (1, 2)}


def test_wire_tuple_payload_honours_pickle_gate():
    t = StreamTuple(tau=0.0, job="J", layer=0, payload={"odd": {1, 2}})
    with pytest.raises(PickleRefusedError):
        encode_wire(t)
    got = decode_wire(encode_wire(t, allow_pickle=True), allow_pickle=True)
    assert got.payload["odd"] == {1, 2}


def test_wire_object_ndarray_needs_pickle():
    array = np.array([object(), object()], dtype=object)
    with pytest.raises(PickleRefusedError):
        encode_wire(array)


def test_wire_unknown_tag():
    with pytest.raises(SerdeError):
        decode_wire(b"zoops")


# -- block records -------------------------------------------------------------

# One column's values: uniformly float (an array column; NaN and inf must
# survive), uniformly int, or an object column mixing what a payload holds.
_COLUMN_VALUES = {
    "f": st.floats(allow_nan=True, allow_infinity=True),
    "i": st.integers(min_value=-(2**62), max_value=2**62),
    "o": st.one_of(
        st.none(), st.booleans(), st.text(max_size=6),
        st.floats(allow_nan=False, allow_infinity=False),
        st.lists(st.integers(-5, 5), max_size=3),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),  # needs pickle
    ),
}


@st.composite
def _runs(draw):
    """A same-schema run of tuples, metadata as varied as the schema allows."""
    kinds = draw(st.lists(st.sampled_from("fio"), min_size=0, max_size=4))
    rows = draw(st.integers(min_value=1, max_value=9))
    run = []
    for i in range(rows):
        payload = {
            f"k{j}": draw(_COLUMN_VALUES[kind]) for j, kind in enumerate(kinds)
        }
        t = StreamTuple(
            tau=draw(st.floats(allow_nan=False, allow_infinity=False)),
            job=draw(st.sampled_from(["J", "job-2"])),
            layer=draw(st.integers(0, 2**40)),
            payload=payload,
            specimen=draw(st.one_of(st.none(), st.sampled_from(["S0", "S1"]))),
            portion=draw(st.one_of(st.none(), st.text(max_size=4))),
            ingest_time=draw(st.floats(allow_nan=False, allow_infinity=False)),
        )
        t.trace_id = draw(st.one_of(st.none(), st.text(max_size=5)))
        run.append(t)
    return run


def _same(a, b):
    """Equal values of equal type; NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


@given(run=_runs())
@settings(max_examples=150, deadline=None)
def test_wire_block_roundtrip_equals_the_tuples(run):
    block = ColumnarBlock.from_tuples(run)
    blob = encode_wire(block, allow_pickle=True)
    assert blob[:1] == b"c"
    got = decode_wire(blob, allow_pickle=True).to_tuples()
    assert len(got) == len(run)
    for want, have in zip(run, got):
        for field in ("tau", "job", "layer", "specimen", "portion", "trace_id"):
            assert _same(getattr(want, field), getattr(have, field)), field
        assert have.ingest_time == want.ingest_time  # latency spans the hop
        assert list(have.payload) == list(want.payload)
        for key, value in want.payload.items():
            assert _same(value, have.payload[key]), key


def test_wire_block_pickles_only_where_a_tuple_would():
    plain = [
        StreamTuple(tau=float(i), job="J", layer=1, payload={"x": float(i), "s": "a"})
        for i in range(3)
    ]
    encode_wire(ColumnarBlock.from_tuples(plain))  # no pickle needed
    odd = [
        StreamTuple(tau=float(i), job="J", layer=1, payload={"x": {i}}) for i in range(3)
    ]
    with pytest.raises(PickleRefusedError):
        encode_wire(ColumnarBlock.from_tuples(odd))
    blob = encode_wire(ColumnarBlock.from_tuples(odd), allow_pickle=True)
    with pytest.raises(PickleRefusedError):
        decode_wire(blob)
    got = decode_wire(blob, allow_pickle=True).to_tuples()
    assert [t.payload["x"] for t in got] == [{0}, {1}, {2}]


def test_wire_block_column_takes_a_slab_and_survives_spill():
    """A column of SHM_MIN_BYTES or more rides the ring by itself; once the
    ring reclaims its slot, a fetch re-encode and an in-process read both
    still return the exact values."""
    from repro.net.shm import (
        ShmProducerPlane, ShmServerPlane, SlabRef, SlabRing, resolve_refs,
    )

    rows = 1024  # float64 column: 8 KB, eligible under the 4 KB floor below
    run = [
        StreamTuple(tau=float(i), job="J", layer=3, payload={"v": i * 0.5, "tag": "t"})
        for i in range(rows)
    ]
    ring = SlabRing.create(slots=4, slab_bytes=16 * 1024)
    plane = ShmServerPlane(ring, min_bytes=4096)
    try:
        producer = ShmProducerPlane(
            ring,
            lease_fn=lambda n: plane.lease(owner=1, count=n),
            release_fn=lambda pairs: plane.release(1, pairs),
            min_bytes=4096,
            lease_batch=1,
        )
        produce = SerdeContext(producer_plane=producer)
        store = SerdeContext(server_plane=plane)
        blob = encode_wire(ColumnarBlock.from_tuples(run), context=produce)
        stored = decode_wire(blob, context=store)
        assert isinstance(stored.columns["v"], SlabRef) and stored.columns["v"].live
        assert isinstance(stored.tau, SlabRef)  # row metadata is a column too
        assert stored.columns["tag"] == ["t"] * rows
        # lap the ring: every slot of the first block is reclaimed and spilled
        for _ in range(3):
            decode_wire(
                encode_wire(ColumnarBlock.from_tuples(run), context=produce),
                context=store,
            )
        assert not stored.columns["v"].live
        assert plane.stats()["slabs_spilled"] >= 4
        assert plane.stats()["slabs_materialized"] == 0
        # fetch path: re-encoded inline, decodable by a plain consumer
        refetched = decode_wire(encode_wire(stored, context=SerdeContext()))
        # in-process path: refs resolved into a shallow copy
        local = resolve_refs(stored)
        assert isinstance(stored.columns["v"], SlabRef)  # the log's record is untouched
        for got in (refetched.to_tuples(), local.to_tuples()):
            assert [t.payload["v"] for t in got] == [t.payload["v"] for t in run]
            assert [t.tau for t in got] == [t.tau for t in run]
            assert [t.ingest_time for t in got] == [t.ingest_time for t in run]
    finally:
        plane.close()


# -- the wire bytes, pinned ----------------------------------------------------


def _pin_tuple(i, payload):
    t = StreamTuple(
        tau=1.5 + i, job="J7", layer=3, payload=payload,
        specimen="S02", portion="p", ingest_time=10.25 + i,
    )
    t.trace_id = "tr" if i == 0 else None
    return t


#: (kind, value, expected) per wire case. ``exact``: the frame byte for
#: byte, and re-encoding its decode gives the same frame. ``pickle``: the
#: tag, the gate both ways and the round trip — pickle's own bytes differ
#: across numpy lines. ``slab``: a SlabRef ships its handle even with no
#: producer plane. ``unknown``: decoding an unknown tag names it.
WIRE_PINS = {
    "tuple": ("exact", lambda: _pin_tuple(
        0, {"f": 0.5, "np": np.float64(2.25), "s": "hot", "a": np.array([1.0, -2.0])}
    ), b't\x00\x00\x00\x8f{"tau": 1.5, "job": "J7", "layer": 3, "specimen": "S02", '
       b'"portion": "p", "ingest_time": 10.25, "trace_id": "tr", "keys": ["f", "np", '
       b'"s", "a"]}\x00\x00\x00\x04j0.5\x00\x00\x00\x05j2.25\x00\x00\x00\x06j"hot"'
       b'\x00\x00\x003n\x00\x00\x00\x1e{"dtype": "<f8", "shape": [2]}'
       b'\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00\xc0'),
    "block": ("exact", lambda: ColumnarBlock.from_tuples([
        _pin_tuple(i, {"x": 0.5 * i, "tag": ["a", i],
                       "img": np.array([i, i + 1], dtype=np.uint8)})
        for i in range(2)
    ]), b'c\x00\x00\x00\xb2{"n": 2, "job": ["J7", "J7"], "specimen": ["S02", "S02"], '
        b'"portion": ["p", "p"], "trace_id": ["tr", null], "cols": [["x", "a"], '
        b'["tag", "j", [["a", 0], ["a", 1]]], ["img", "l"]]}'
        b'\x00\x00\x003n\x00\x00\x00\x1e{"dtype": "<f8", "shape": [2]}'
        b'\x00\x00\x00\x00\x00\x00\xf8?\x00\x00\x00\x00\x00\x00\x04@'
        b'\x00\x00\x003n\x00\x00\x00\x1e{"dtype": "<i8", "shape": [2]}'
        b'\x03\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00'
        b'\x00\x00\x003n\x00\x00\x00\x1e{"dtype": "<f8", "shape": [2]}'
        b'\x00\x00\x00\x00\x00\x80$@\x00\x00\x00\x00\x00\x80&@'
        b'\x00\x00\x003n\x00\x00\x00\x1e{"dtype": "<f8", "shape": [2]}'
        b'\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xe0?'
        b'\x00\x00\x00%n\x00\x00\x00\x1e{"dtype": "|u1", "shape": [2]}\x00\x01'
        b'\x00\x00\x00%n\x00\x00\x00\x1e{"dtype": "|u1", "shape": [2]}\x01\x02'),
    "c-order": ("exact", lambda: np.arange(6, dtype="<i4").reshape(2, 3),
                b'n\x00\x00\x00!{"dtype": "<i4", "shape": [2, 3]}'
                b'\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00'
                b'\x03\x00\x00\x00\x04\x00\x00\x00\x05\x00\x00\x00'),
    "f-order": ("exact", lambda: np.asfortranarray(
        np.arange(6, dtype="<f4").reshape(2, 3)
    ), b'n\x00\x00\x00!{"dtype": "<f4", "shape": [2, 3]}'
       b'\x00\x00\x00\x00\x00\x00\x80?\x00\x00\x00@\x00\x00@@\x00\x00\x80@\x00\x00\xa0@'),
    "np.float64": ("exact", lambda: np.float64(2.25), b"j2.25"),
    "bytes": ("exact", lambda: b"\x00\xffraw", b"b\x00\xffraw"),
    "dict": ("exact", lambda: {"k": [1, 2.5, None, True], "s": "x"},
             b'j{"k": [1, 2.5, null, true], "s": "x"}'),
    "none": ("exact", lambda: None, b"jnull"),
    "np.int64": ("pickle", lambda: np.int64(7), b"p"),
    "np.bool_": ("pickle", lambda: np.bool_(True), b"p"),
    "tuple-value": ("pickle", lambda: (1, "a"), b"p"),
    "nan": ("pickle", lambda: float("nan"), b"p"),
    "object-array": ("pickle", lambda: np.array([1, "a"], dtype=object), b"p"),
    "slab-ref": ("slab", None, b"S"),
    "unknown-tag": ("unknown", lambda: b"zoops", b"z"),
}


@pytest.mark.parametrize("case", WIRE_PINS)
def test_wire_bytes_are_pinned(case):
    kind, make, expected = WIRE_PINS[case]
    if kind == "exact":
        blob = encode_wire(make())
        assert blob == expected
        assert encode_wire(decode_wire(blob)) == blob
    elif kind == "pickle":
        value = make()
        with pytest.raises(PickleRefusedError):
            encode_wire(value)
        blob = encode_wire(value, allow_pickle=True)
        assert blob[:1] == expected
        with pytest.raises(PickleRefusedError):
            decode_wire(blob)
        back = decode_wire(blob, allow_pickle=True)
        assert type(back) is type(value)
        assert encode_wire(back, allow_pickle=True) == blob
    elif kind == "slab":
        from repro.net.shm import SlabHandle, SlabRef, SlabRing

        ring = SlabRing.create(slots=1, slab_bytes=64)
        try:
            handle = SlabHandle(ring.name, slot=0, gen=0, dtype="<f8", shape=(2,))
            blob = encode_wire(SlabRef(handle, ring))
            assert blob[:1] == expected and blob == handle.encode()
        finally:
            ring.close()
            ring.unlink()
    else:
        with pytest.raises(SerdeError) as err:
            decode_wire(make())
        assert err.value.tag == expected
