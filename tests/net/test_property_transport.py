"""Property-based wire invariants: frame batching, slab handles, ring I/O.

Covers the transport-plane edges the unit tests pin only pointwise: any
batch of frames survives vectored writes and arbitrary read fragmentation,
any handle survives its JSON encoding, any array survives the slab ring,
and a starved ring always degrades to inline payloads instead of losing
records.
"""

import socket
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.net import (
    MAX_FRAME_BYTES,
    TYPE_ERROR,
    TYPE_REQUEST,
    TYPE_RESPONSE,
    Frame,
    FrameDecoder,
    frame_iovecs,
    write_frames,
)
from repro.net.errors import ProtocolError
from repro.net.shm import (
    ShmProducerPlane,
    ShmServerPlane,
    SlabHandle,
    SlabRing,
    StaleSlabError,
)
from repro.serde import SerdeContext, decode_wire, encode_wire

# -- strategies ---------------------------------------------------------------

meta_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)
metas = st.dictionaries(st.text(min_size=1, max_size=8), meta_values, max_size=4)
blobs = st.lists(st.binary(max_size=2048), max_size=4)


@st.composite
def frames(draw):
    return Frame(
        type=draw(st.sampled_from([TYPE_REQUEST, TYPE_RESPONSE, TYPE_ERROR])),
        corr_id=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        meta=draw(metas),
        blobs=tuple(draw(blobs)),
    )


small_arrays = st.builds(
    lambda dtype, shape, seed: (
        np.random.default_rng(seed)
        .integers(0, 255, size=shape)
        .astype(dtype)
    ),
    dtype=st.sampled_from(["u1", "i4", "f4", "f8"]),
    shape=st.tuples(
        st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=24)
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)


# -- frame batching over real sockets -----------------------------------------


@given(batch=st.lists(frames(), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_write_frames_roundtrips_any_batch(batch):
    """Vectored writes are byte-identical to sequential framing."""
    a, b = socket.socketpair()
    received = []
    errors = []

    def drain():
        decoder = FrameDecoder()
        try:
            while len(received) < len(batch):
                data = b.recv(1 << 16)
                if not data:
                    break
                decoder.feed(data)
                received.extend(decoder.frames())
        except Exception as exc:  # surfaced by the main thread's assert
            errors.append(exc)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        write_frames(a, batch)
        reader.join(timeout=10)
    finally:
        a.close()
        b.close()
    assert not errors
    assert received == batch


@given(
    batch=st.lists(frames(), min_size=1, max_size=6),
    chunk=st.integers(min_value=1, max_value=97),
)
@settings(max_examples=40, deadline=None)
def test_decoder_is_fragmentation_invariant(batch, chunk):
    """Any byte-level fragmentation parses to the same frame sequence."""
    wire = b"".join(b"".join(frame_iovecs(f)) for f in batch)
    decoder = FrameDecoder()
    out = []
    for start in range(0, len(wire), chunk):
        decoder.feed(wire[start : start + chunk])
        out.extend(decoder.frames())
    assert out == batch
    assert decoder.buffered == 0


# -- max-frame-cap edges ------------------------------------------------------


def _frame_with_body(body_len: int) -> Frame:
    """A one-blob frame whose body is exactly ``body_len`` bytes."""
    # body = 4 (meta len) + 2 (meta "{}") + 4 (blob count) + 4 (blob len) + blob
    overhead = 4 + 2 + 4 + 4
    return Frame(
        type=TYPE_REQUEST, corr_id=1, meta={}, blobs=(bytes(body_len - overhead),)
    )


def test_frame_at_exact_cap_is_accepted():
    frame = _frame_with_body(MAX_FRAME_BYTES)
    wire = b"".join(frame_iovecs(frame))
    decoder = FrameDecoder()
    decoder.feed(wire)
    assert list(decoder.frames()) == [frame]


def test_frame_one_byte_over_cap_is_refused_by_writer_and_reader():
    frame = _frame_with_body(MAX_FRAME_BYTES + 1)
    with pytest.raises(ProtocolError, match="exceeds"):
        frame_iovecs(frame)
    # a hostile peer that writes it anyway is refused at the header
    from repro.net.frames import HEADER, MAGIC, VERSION

    decoder = FrameDecoder()
    decoder.feed(HEADER.pack(MAGIC, VERSION, TYPE_REQUEST, 1, MAX_FRAME_BYTES + 1))
    with pytest.raises(ProtocolError, match="exceeds"):
        list(decoder.frames())


@given(cap=st.integers(min_value=64, max_value=4096), extra=st.integers(0, 64))
@settings(max_examples=30, deadline=None)
def test_decoder_honors_custom_cap(cap, extra):
    frame = _frame_with_body(cap + extra)
    wire = b"".join(frame_iovecs(frame))
    decoder = FrameDecoder(max_frame=cap)
    decoder.feed(wire)
    if extra == 0:
        assert list(decoder.frames()) == [frame]
    else:
        with pytest.raises(ProtocolError, match="exceeds"):
            list(decoder.frames())


# -- slab handle encoding -----------------------------------------------------


@given(
    ring=st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=24,
    ),
    slot=st.integers(min_value=0, max_value=2**20),
    gen=st.integers(min_value=0, max_value=2**63 - 1),
    dtype=st.sampled_from(["<f8", "<f4", "<i4", "|u1"]),
    shape=st.lists(st.integers(min_value=0, max_value=4096), min_size=1, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_slab_handle_roundtrip(ring, slot, gen, dtype, shape):
    handle = SlabHandle(
        ring=ring, slot=slot, gen=gen, dtype=dtype, shape=tuple(shape)
    )
    body = handle.encode()
    assert body[:1] == b"S"
    assert SlabHandle.decode(body[1:]) == handle


def test_malformed_handle_raises_serde_error():
    from repro.serde import SerdeError

    with pytest.raises(SerdeError, match="malformed"):
        SlabHandle.decode(b'{"ring": "x"}')  # missing keys
    with pytest.raises(SerdeError, match="malformed"):
        SlabHandle.decode(b"\xff not json")


# -- slab ring I/O ------------------------------------------------------------


@pytest.fixture(scope="module")
def ring():
    r = SlabRing.create(slots=4, slab_bytes=64 * 1024)
    yield r
    r.close()
    r.unlink()


@given(array=small_arrays, slot=st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_ring_write_read_roundtrip(ring, array, slot):
    ring.set_gen(slot, 7)
    ring.write(slot, array)
    handle = SlabHandle(
        ring=ring.name, slot=slot, gen=7,
        dtype=array.dtype.str, shape=array.shape,
    )
    np.testing.assert_array_equal(ring.read(handle), array)
    # a reclaimed slot (bumped generation) must raise, never return junk
    ring.set_gen(slot, 8)
    with pytest.raises(StaleSlabError):
        ring.read(handle)


# -- ring-full inline fallback ------------------------------------------------


@given(n_arrays=st.integers(min_value=1, max_value=10))
@settings(max_examples=20, deadline=None)
def test_starved_ring_degrades_to_inline(n_arrays):
    """When every slot is leased away, producers encode inline; every
    record still round-trips bit-exact."""
    server_ring = SlabRing.create(slots=2, slab_bytes=64 * 1024)
    plane = ShmServerPlane(server_ring, min_bytes=0)
    try:
        # another connection holds every slot: leased slots are never
        # reclaimable (their writers may be mid-copy), so the ring is dry
        assert len(plane.lease(owner=999, count=2)) == 2
        producer = ShmProducerPlane(
            server_ring,
            lease_fn=lambda n: plane.lease(owner=1, count=n),
            release_fn=lambda pairs: plane.release(1, pairs),
            min_bytes=0,
        )
        ctx = SerdeContext(allow_pickle=False, producer_plane=producer)
        arrays = [
            np.full((16, 16), i, dtype=np.float64) for i in range(n_arrays)
        ]
        encoded = [encode_wire(a, context=ctx) for a in arrays]
        assert all(blob[:1] != b"S" for blob in encoded)  # all inline
        assert producer.inline_fallbacks == n_arrays
        for blob, original in zip(encoded, arrays):
            np.testing.assert_array_equal(decode_wire(blob), original)
    finally:
        plane.close()


@given(n_arrays=st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_ring_recycles_through_reclamation(n_arrays):
    """More payloads than slots: the server plane reclaims bound slots by
    spilling, and every record stays readable afterwards."""
    server_ring = SlabRing.create(slots=3, slab_bytes=64 * 1024)
    plane = ShmServerPlane(server_ring, min_bytes=0)
    try:
        producer = ShmProducerPlane(
            server_ring,
            lease_fn=lambda n: plane.lease(owner=1, count=n),
            release_fn=lambda pairs: plane.release(1, pairs),
            min_bytes=0,
            lease_batch=2,
        )
        encode_ctx = SerdeContext(allow_pickle=False, producer_plane=producer)
        decode_ctx = SerdeContext(allow_pickle=False, server_plane=plane)
        arrays = [np.full((8, 8), i, dtype=np.int32) for i in range(n_arrays)]
        stored = [
            decode_wire(encode_wire(a, context=encode_ctx), context=decode_ctx)
            for a in arrays
        ]
        for ref, original in zip(stored, arrays):
            # ref is a SlabRef: live in its slab or, after reclamation,
            # spilled; either way the pixels must match
            np.testing.assert_array_equal(ref.load(), original)
        stats = plane.stats()
        assert stats["leased"] <= producer._lease_batch
        assert stats["slabs_bound"] == n_arrays
        assert stats["slabs_spilled"] == sum(not ref.live for ref in stored)
        assert stats["slabs_materialized"] == 0
    finally:
        plane.close()


# -- block records through a served broker ------------------------------------


def _run_of(rows: int, layer: int, wide: bool):
    from repro.spe import StreamTuple

    return [
        StreamTuple(
            tau=layer + i / 1000.0, job="J", layer=layer,
            payload={"v": i * 0.25, "n": i, "tag": "x" if wide else None},
            specimen=f"S{i % 3}", portion=str(i), ingest_time=5.0 + i,
        )
        for i in range(rows)
    ]


@pytest.fixture(scope="module", params=["tcp", "shm"])
def served(request):
    from repro.net import BrokerClient, BrokerServer
    from repro.pubsub import Broker

    # a tiny ring with a low slab floor: block columns of 64 rows or more
    # ride slabs, and a handful of examples laps the ring into the spill
    options = (
        {"slots": 4, "slab_bytes": 8 * 1024, "min_bytes": 512}
        if request.param == "shm"
        else None
    )
    with BrokerServer(
        Broker(), transport=request.param, transport_options=options
    ) as server:
        with BrokerClient(*server.address) as client:
            yield server, client


_topic_ids = iter(range(10**9))


@given(
    shapes=st.lists(
        st.tuples(st.integers(min_value=1, max_value=96), st.booleans()),
        min_size=1, max_size=6,
    )
)
@settings(max_examples=25, deadline=None)
def test_block_records_survive_any_produce_frame(served, shapes):
    """Any mix of tuple and block records in one produce frame comes back
    from a fetch — and from an in-process read — as the same tuples in the
    same order, whatever the transport did with the columns."""
    from repro.spe import ColumnarBlock

    server, client = served
    topic = f"blocks-{next(_topic_ids)}"
    runs = [_run_of(rows, layer, wide) for layer, (rows, wide) in enumerate(shapes)]
    records = [
        {"value": run[0] if len(run) == 1 else ColumnarBlock.from_tuples(run), "key": "k"}
        for run in runs
    ]
    producer = client.producer()
    try:
        offsets = producer.send_batch(topic, records)
    finally:
        producer.close()
    assert [offset for _, offset in offsets] == list(range(len(runs)))

    def rows_of(messages):
        out = []
        for message in messages:
            value = message.value
            out.extend(value.to_tuples() if isinstance(value, ColumnarBlock) else [value])
        return out

    def fields(t):
        return (t.tau, t.job, t.layer, t.specimen, t.portion, t.ingest_time,
                t.trace_id, t.payload)

    expected = [fields(t) for run in runs for t in run]
    consumer = client.consumer(f"g-{topic}", [topic])
    try:
        remote = []
        while len(remote) < len(expected):
            got = consumer.poll(timeout=5.0)
            assert got, "fetch returned nothing before every record arrived"
            remote.extend(rows_of(got))
    finally:
        consumer.close()
    local = rows_of(server.consumer(f"l-{topic}", [topic]).poll())
    assert [fields(t) for t in remote] == expected
    assert [fields(t) for t in local] == expected
