"""Shared serialization codecs: storage values and wire payloads.

Two codecs live here, layered on the same one-byte tag scheme:

* the **storage codec** (``encode_value``/``decode_value``), extracted from
  ``repro.kvstore.api`` — bytes pass through (``b``), JSON-exact values are
  stored as JSON (``j``), everything else pickles (``p``). The kvstore
  keeps its historical behaviour: pickle is always accepted on decode.
* the **wire codec** (``encode_wire``/``decode_wire``), used by
  ``repro.net`` — one fixed dispatch over the storage tags plus four of
  its own: :class:`~repro.spe.tuples.StreamTuple` (``t``: JSON metadata +
  recursively encoded payload entries),
  :class:`~repro.spe.columnar.ColumnarBlock` (``c``: a run of same-schema
  tuples as one record, one array body per numeric column), numpy arrays
  (``n``: dtype/shape header + raw buffer, no pickle) and the shm
  transport's slab handles (``S``, :mod:`repro.net.shm`), whose frames
  carry a slot of a shared-memory ring instead of pixels.

Pickle is refused on the wire in both directions unless the caller opts
in (``allow_pickle=True``), because a networked broker must not execute
arbitrary bytecode from a peer. Unknown tags raise a structured
:class:`SerdeError` whose ``tag`` attribute names the offending byte.

Both sides share tags, so a wire frame whose value happens to be plain
JSON is byte-identical to its stored form.
"""

from __future__ import annotations

import json
import pickle
import struct
from dataclasses import dataclass
from typing import Any

TAG_BYTES = b"b"
TAG_JSON = b"j"
TAG_PICKLE = b"p"
TAG_NDARRAY = b"n"
TAG_TUPLE = b"t"
TAG_BLOCK = b"c"
TAG_SHM = b"S"

_U32 = struct.Struct("!I")


class SerdeError(ValueError):
    """Malformed or unsupported serialized data.

    ``tag`` names the offending codec tag byte when the failure is an
    unknown or unusable tag (else ``None``), so callers can branch on the
    exact codec a peer tried to use.
    """

    def __init__(self, message: str, tag: bytes | None = None) -> None:
        super().__init__(message)
        self.tag = tag


class PickleRefusedError(SerdeError):
    """A pickle frame was seen on a path where pickle is not enabled."""


def _json_roundtrips(value: Any) -> bool:
    """True when JSON encoding reproduces ``value`` exactly.

    ``json.dumps`` silently coerces tuples to lists (and non-string dict
    keys to strings), so "it serialized without error" is not enough for a
    store that must return exactly what was put.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, float):
        return value == value and value not in (float("inf"), float("-inf"))
    if isinstance(value, list):
        return all(_json_roundtrips(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _json_roundtrips(item)
            for key, item in value.items()
        )
    return False


# -- storage codec (kvstore) -------------------------------------------------


def encode_value(value: Any, allow_pickle: bool = True) -> bytes:
    """Serialize an arbitrary Python value for storage.

    Values that are already ``bytes`` pass through untouched; values that
    JSON reproduces exactly are stored as JSON (portable, inspectable);
    everything else — tuples, sets, NaN, arbitrary objects — is pickled,
    or refused with :class:`PickleRefusedError` when ``allow_pickle`` is
    off. A one-byte tag records the codec used.
    """
    if isinstance(value, bytes):
        return TAG_BYTES + value
    if _json_roundtrips(value):
        return TAG_JSON + json.dumps(value).encode("utf-8")
    if not allow_pickle:
        raise PickleRefusedError(
            f"value of type {type(value).__name__} needs pickle, which is "
            "disabled on the network path (pass allow_pickle=True on a "
            "trusted link to enable it)"
        )
    return TAG_PICKLE + pickle.dumps(value)


def decode_value(data: bytes | memoryview, allow_pickle: bool = True) -> Any:
    """Inverse of :func:`encode_value`.

    ``data`` may be any bytes-like object (the LSM store hands in views of
    its tables); the body is decoded in place, not copied first.
    """
    tag, body = bytes(data[:1]), memoryview(data)[1:]
    if tag == TAG_BYTES:
        return body.tobytes()
    if tag == TAG_JSON:
        return json.loads(str(body, "utf-8"))
    if tag == TAG_PICKLE:
        if not allow_pickle:
            raise PickleRefusedError(
                "refusing to unpickle: pickle frames are disabled on this path"
            )
        return pickle.loads(body)
    raise SerdeError(f"unknown value codec tag {tag!r}", tag=tag)


# -- wire codec (repro.net) ---------------------------------------------------


@dataclass
class SerdeContext:
    """Per-call state threaded through the wire codec.

    ``allow_pickle`` opens the pickle gate. The other three fields hand the
    shm transport's payload plane (:mod:`repro.net.shm`) to the ``S`` tag,
    one per role on this side of the link: ``producer_plane`` writes
    eligible arrays into leased slabs (a producer's encode),
    ``server_plane`` binds produced handles to the stored record (the
    broker's decode) and ``ring`` is the attached ring a consumer reads
    handles from.
    """

    allow_pickle: bool = False
    producer_plane: Any = None
    server_plane: Any = None
    ring: Any = None


def encode_wire(
    value: Any, allow_pickle: bool = False, context: SerdeContext | None = None
) -> bytes:
    """Serialize a value for the network, avoiding pickle where possible.

    Kinds are tried in a fixed order: stream tuple (``t``), columnar block
    (``c``), slab ref or slab-eligible array under a producer plane
    (``S``), numeric ndarray (``n``); anything else takes the storage
    codec's ``b``/``j``/``p``. A value that needs pickle raises
    :class:`PickleRefusedError` at the *sender* unless ``allow_pickle`` is
    set, so misconfiguration fails fast and loudly.
    """
    import numpy as np

    from .net import shm
    from .spe.tuples import StreamTuple

    ctx = context if context is not None else SerdeContext(allow_pickle)
    if isinstance(value, StreamTuple):
        return _encode_tuple(value, ctx)
    if getattr(value, "_is_columnar_block", False):
        return _encode_block(value, ctx)
    array = isinstance(value, np.ndarray) and not value.dtype.hasobject
    plane = ctx.producer_plane
    if isinstance(value, shm.SlabRef) or (
        array and plane is not None and plane.eligible(value)
    ):
        return shm.encode_shm(value, plane)
    if array:
        return encode_ndarray_body(value)
    return encode_value(value, ctx.allow_pickle)


def decode_wire(
    data: bytes, allow_pickle: bool = False, context: SerdeContext | None = None
) -> Any:
    """Inverse of :func:`encode_wire`; the pickle gate applies symmetrically."""
    ctx = context if context is not None else SerdeContext(allow_pickle)
    decode = _WIRE_DECODERS.get(data[:1])
    if decode is None:  # b/j/p, or an unknown tag
        return decode_value(data, ctx.allow_pickle)
    return decode(data[1:], ctx)


def _encode_tuple(value: Any, ctx: SerdeContext) -> bytes:
    keys = list(value.payload)
    meta = json.dumps(
        {
            "tau": value.tau,
            "job": value.job,
            "layer": value.layer,
            "specimen": value.specimen,
            "portion": value.portion,
            "ingest_time": value.ingest_time,
            "trace_id": value.trace_id,
            "keys": keys,
        }
    ).encode("utf-8")
    parts = [TAG_TUPLE, _U32.pack(len(meta)), meta]
    for key in keys:
        blob = encode_wire(value.payload[key], context=ctx)
        parts.append(_U32.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def _decode_tuple(body: bytes, ctx: SerdeContext) -> Any:
    from .spe.tuples import StreamTuple

    meta_len = _U32.unpack_from(body)[0]
    meta = json.loads(body[4 : 4 + meta_len].decode("utf-8"))
    payload: dict[str, Any] = {}
    cursor = 4 + meta_len
    for key in meta["keys"]:
        blob_len = _U32.unpack_from(body, cursor)[0]
        cursor += 4
        payload[key] = decode_wire(body[cursor : cursor + blob_len], context=ctx)
        cursor += blob_len
    t = StreamTuple(
        tau=meta["tau"],
        job=meta["job"],
        layer=meta["layer"],
        payload=payload,
        specimen=meta["specimen"],
        portion=meta["portion"],
        ingest_time=meta["ingest_time"],
    )
    t.trace_id = meta["trace_id"]
    return t


# A block record is a run of same-schema tuples shipped as one value:
#
#   c | u32 meta_len | meta JSON | (u32 blob_len | blob)*
#
# meta holds the row count, the four object metadata columns (job,
# specimen, portion, trace_id) and, per payload column in order,
# ``[key, kind]`` or ``[key, "j", values]``. Row metadata ships as the
# block holds it (``ColumnarBlock.run_encoded``): with ``runs`` in meta,
# job, specimen, trace_id, tau, layer and ingest_time carry one entry per
# run of rows and ``runs`` the run lengths — a fan-out's inherited
# metadata costs its parents, not its rows; without it they are per row.
# ``portion`` is always per row. Blobs follow in this order:
# tau, layer, ingest_time, then the payload columns that have any —
# kind "a" (a numeric column) is one blob, kind "l" (a list column JSON
# cannot reproduce) is one blob per row, kind "j" (a JSON-exact list) has
# none. Every blob goes through encode_wire, so an array column of
# SHM_MIN_BYTES or more takes a slab by itself and a list element pickles
# exactly where the tuple codec would have pickled it as a payload value.


def _encode_block(value: Any, ctx: SerdeContext) -> bytes:
    cols: list[list] = []
    inherited, runs = value.run_encoded()
    bodies = [inherited["tau"], inherited["layer"], inherited["ingest_time"]]
    for key, col in value.columns.items():
        if type(col) is not list:
            cols.append([key, "a"])
            bodies.append(col)
        elif _json_roundtrips(col):
            cols.append([key, "j", col])
        else:
            cols.append([key, "l"])
            bodies.extend(col)
    fields = {
        "n": len(value),
        "job": inherited["job"],
        "specimen": inherited["specimen"],
        "portion": value.portion,
        "trace_id": inherited["trace_id"],
        "cols": cols,
    }
    if runs is not None:
        fields["runs"] = runs
    meta = json.dumps(fields).encode("utf-8")
    parts = [TAG_BLOCK, _U32.pack(len(meta)), meta]
    for body in bodies:
        blob = encode_wire(body, context=ctx)
        parts.append(_U32.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def _decode_block(body: bytes, ctx: SerdeContext) -> Any:
    import numpy as np

    from .spe.columnar import ColumnarBlock

    meta_len = _U32.unpack_from(body)[0]
    meta = json.loads(body[4 : 4 + meta_len].decode("utf-8"))
    cursor = 4 + meta_len

    def blob() -> Any:
        nonlocal cursor
        blob_len = _U32.unpack_from(body, cursor)[0]
        start = cursor + 4
        cursor = start + blob_len
        return decode_wire(body[start:cursor], context=ctx)

    rows = meta["n"]
    tau, layer, ingest_time = blob(), blob(), blob()
    columns: dict[str, Any] = {}
    for key, kind, *inline in meta["cols"]:
        if kind == "a":
            columns[key] = blob()
        elif kind == "l":
            columns[key] = [blob() for _ in range(rows)]
        else:
            columns[key] = inline[0]
    runs = meta.get("runs")
    return ColumnarBlock(
        tau=tau,
        job=meta["job"],
        layer=layer,
        specimen=meta["specimen"],
        portion=meta["portion"],
        ingest_time=ingest_time,
        trace_id=meta["trace_id"],
        columns=columns,
        parent=(
            None
            if runs is None
            else np.repeat(np.arange(len(runs), dtype=np.intp), runs)
        ),
    )


def ndarray_frame(dtype: str, shape: Any, raw: Any) -> bytes:
    """The plain ndarray wire layout around an already-flat buffer."""
    header = json.dumps({"dtype": dtype, "shape": list(shape)}).encode("utf-8")
    return b"".join((TAG_NDARRAY, _U32.pack(len(header)), header, raw))


def encode_ndarray_body(array: Any) -> bytes:
    """The plain ndarray wire layout, tag included (shared with shm fallback)."""
    import numpy as np

    array = np.ascontiguousarray(array)
    return ndarray_frame(array.dtype.str, array.shape, array.tobytes())


def _decode_ndarray(body: bytes, ctx: SerdeContext) -> Any:
    import numpy as np

    header_len = _U32.unpack_from(body)[0]
    header = json.loads(body[4 : 4 + header_len].decode("utf-8"))
    raw = body[4 + header_len :]
    array = np.frombuffer(raw, dtype=np.dtype(header["dtype"]))
    return array.reshape(header["shape"]).copy()


def _decode_shm(body: bytes, ctx: SerdeContext) -> Any:
    from .net import shm

    return shm.decode_shm(body, ctx)


#: the wire tags beyond the storage codec's b/j/p
_WIRE_DECODERS = {
    TAG_TUPLE: _decode_tuple,
    TAG_BLOCK: _decode_block,
    TAG_SHM: _decode_shm,
    TAG_NDARRAY: _decode_ndarray,
}
