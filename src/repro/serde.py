"""Shared serialization codecs: storage values and wire payloads.

Two codecs live here, layered on the same one-byte tag scheme:

* the **storage codec** (``encode_value``/``decode_value``), extracted from
  ``repro.kvstore.api`` — bytes pass through (``b``), JSON-exact values are
  stored as JSON (``j``), everything else pickles (``p``). The kvstore
  keeps its historical behaviour: pickle is always accepted on decode.
* the **wire codec** (``encode_wire``/``decode_wire``), used by
  ``repro.net`` — a **registry of tagged codecs** (see
  :func:`register_codec`). The built-in entries cover numpy arrays
  (``n``: dtype/shape header + raw buffer, no pickle) and
  :class:`~repro.spe.tuples.StreamTuple` (``t``: JSON metadata +
  recursively encoded payload entries) and
  :class:`~repro.spe.columnar.ColumnarBlock` (``c``: a run of same-schema
  tuples as one record, one array body per numeric column) on top of the
  storage tags.
  Transports add their own: the shared-memory payload plane registers an
  ``ndarray-shm`` codec (:mod:`repro.net.shm`) whose frames carry slab
  handles instead of pixels.

Pickle on the wire is a *registry flag*, not a special case: any codec
registered ``trusted_only=True`` (the built-in pickle fallback is the only
one) is refused in both directions unless the caller opts in
(``allow_pickle=True``), because a networked broker must not execute
arbitrary bytecode from a peer. Unknown tags raise a structured
:class:`SerdeError` whose ``tag`` attribute names the offending byte.

Both sides share tags, so a wire frame whose value happens to be plain
JSON is byte-identical to its stored form.
"""

from __future__ import annotations

import json
import pickle
import struct
from dataclasses import dataclass, field
from typing import Any, Callable

TAG_BYTES = b"b"
TAG_JSON = b"j"
TAG_PICKLE = b"p"
TAG_NDARRAY = b"n"
TAG_TUPLE = b"t"
TAG_BLOCK = b"c"

#: bumped whenever a built-in tag's byte layout changes; registered codecs
#: carry their own semantic versions via the ``version=`` registry field
WIRE_CODEC_VERSION = 3

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


def encode_value(value: Any) -> bytes:
    """Serialize an arbitrary Python value for storage.

    Values that are already ``bytes`` pass through untouched; values that
    JSON reproduces exactly are stored as JSON (portable, inspectable);
    everything else — tuples, sets, NaN, arbitrary objects — is pickled.
    A one-byte tag records the codec used.
    """
    if isinstance(value, bytes):
        return TAG_BYTES + value
    if _json_roundtrips(value):
        return TAG_JSON + json.dumps(value).encode("utf-8")
    return TAG_PICKLE + pickle.dumps(value)


def decode_value(data: bytes, allow_pickle: bool = True) -> Any:
    """Inverse of :func:`encode_value`."""
    tag, body = data[:1], data[1:]
    if tag == TAG_BYTES:
        return body
    if tag == TAG_JSON:
        return json.loads(body.decode("utf-8"))
    if tag == TAG_PICKLE:
        if not allow_pickle:
            raise PickleRefusedError(
                "refusing to unpickle: pickle frames are disabled on this path"
            )
        return pickle.loads(body)
    raise SerdeError(f"unknown value codec tag {tag!r}", tag=tag)


# -- wire codec registry (repro.net) -----------------------------------------


@dataclass
class SerdeContext:
    """Per-call state threaded through codec encode/decode hooks.

    ``allow_pickle`` gates every ``trusted_only`` codec; ``options`` is a
    scratch mapping transports use to hand their payload planes to the
    codecs they registered (e.g. the shm plane and its role on this side
    of the link).
    """

    allow_pickle: bool = False
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class WireCodec:
    """One registered wire codec.

    ``encode(value, ctx)`` returns the complete tagged byte string — it
    normally starts with ``tag`` but may *delegate* to another codec's
    encoding (the shm codec falls back to the plain ndarray layout when
    its ring is full). ``decode(body, ctx)`` receives everything after the
    tag byte. ``matches(value, ctx)`` decides whether this codec claims a
    value on encode; codecs with ``matches=None`` are decode-only.
    """

    tag: bytes
    encode: Callable[[Any, SerdeContext], bytes]
    decode: Callable[[bytes, SerdeContext], Any]
    matches: Callable[[Any, SerdeContext], bool] | None = None
    priority: int = 0
    trusted_only: bool = False
    version: int = 1
    name: str = ""


_CODECS: dict[bytes, WireCodec] = {}
_ENCODE_ORDER: list[WireCodec] = []


def register_codec(
    tag: bytes,
    encode: Callable[[Any, SerdeContext], bytes],
    decode: Callable[[bytes, SerdeContext], Any],
    *,
    matches: Callable[[Any, SerdeContext], bool] | None = None,
    priority: int = 0,
    trusted_only: bool = False,
    version: int = 1,
    name: str = "",
    replace: bool = False,
) -> WireCodec:
    """Register a wire codec under a one-byte ``tag``.

    Encode candidates are tried in descending ``priority`` (ties: first
    registered wins); the first whose ``matches`` claims the value encodes
    it. ``trusted_only=True`` puts the codec behind the pickle gate: both
    encoding to and decoding from it require ``allow_pickle=True``.
    Re-registering a live tag raises unless ``replace=True``.
    """
    if not isinstance(tag, bytes) or len(tag) != 1:
        raise SerdeError(f"codec tag must be a single byte, got {tag!r}")
    if tag in _CODECS and not replace:
        raise SerdeError(
            f"wire codec tag {tag!r} already registered "
            f"({_CODECS[tag].name or 'unnamed'}); pass replace=True to override",
            tag=tag,
        )
    codec = WireCodec(
        tag=tag,
        encode=encode,
        decode=decode,
        matches=matches,
        priority=priority,
        trusted_only=trusted_only,
        version=version,
        name=name or tag.decode("latin-1"),
    )
    if tag in _CODECS:
        _ENCODE_ORDER[:] = [c for c in _ENCODE_ORDER if c.tag != tag]
    _CODECS[tag] = codec
    if codec.matches is not None:
        _ENCODE_ORDER.append(codec)
        _ENCODE_ORDER.sort(key=lambda c: -c.priority)
    return codec


def registered_codecs() -> dict[str, dict[str, Any]]:
    """Public view of the registry: name, tag, version, trust, priority."""
    return {
        codec.name: {
            "tag": codec.tag.decode("latin-1"),
            "version": codec.version,
            "trusted_only": codec.trusted_only,
            "priority": codec.priority,
            "encodes": codec.matches is not None,
        }
        for codec in _CODECS.values()
    }


def encode_wire(
    value: Any, allow_pickle: bool = False, context: SerdeContext | None = None
) -> bytes:
    """Serialize a value for the network, avoiding pickle where possible.

    Walks the codec registry by priority; the first codec claiming the
    value encodes it. Anything that would fall back to a ``trusted_only``
    codec (pickle) raises :class:`PickleRefusedError` at the *sender*
    unless ``allow_pickle`` is set, so misconfiguration fails fast and
    loudly.
    """
    ctx = context if context is not None else SerdeContext(allow_pickle)
    for codec in _ENCODE_ORDER:
        if not codec.matches(value, ctx):
            continue
        if codec.trusted_only and not ctx.allow_pickle:
            raise PickleRefusedError(
                f"value of type {type(value).__name__} needs {codec.name}, "
                "which is disabled on the network path (pass "
                "allow_pickle=True on a trusted link to enable it)"
            )
        return codec.encode(value, ctx)
    raise SerdeError(
        f"no wire codec claims value of type {type(value).__name__}"
    )  # pragma: no cover - the pickle fallback matches everything


def decode_wire(
    data: bytes, allow_pickle: bool = False, context: SerdeContext | None = None
) -> Any:
    """Inverse of :func:`encode_wire`; the pickle gate applies symmetrically."""
    ctx = context if context is not None else SerdeContext(allow_pickle)
    tag = data[:1]
    codec = _CODECS.get(tag)
    if codec is None:
        raise SerdeError(f"unknown wire codec tag {tag!r}", tag=tag)
    if codec.trusted_only and not ctx.allow_pickle:
        raise PickleRefusedError(
            f"refusing to decode a {codec.name} frame: {codec.name} is "
            "disabled on this path"
        )
    return codec.decode(data[1:], ctx)


# -- built-in codecs ----------------------------------------------------------


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


def _matches_tuple(value: Any, ctx: SerdeContext) -> bool:
    from .spe.tuples import StreamTuple

    return isinstance(value, StreamTuple)


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
# none. Every blob goes through the codec walk, so an array column of
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


def _encode_ndarray(value: Any, ctx: SerdeContext) -> bytes:
    return encode_ndarray_body(value)


def _decode_ndarray(body: bytes, ctx: SerdeContext) -> Any:
    import numpy as np

    header_len = _U32.unpack_from(body)[0]
    header = json.loads(body[4 : 4 + header_len].decode("utf-8"))
    raw = body[4 + header_len :]
    array = np.frombuffer(raw, dtype=np.dtype(header["dtype"]))
    return array.reshape(header["shape"]).copy()


def _matches_ndarray(value: Any, ctx: SerdeContext) -> bool:
    import numpy as np

    return isinstance(value, np.ndarray) and not value.dtype.hasobject


register_codec(
    TAG_TUPLE,
    _encode_tuple,
    _decode_tuple,
    matches=_matches_tuple,
    priority=100,
    name="stream-tuple",
)
register_codec(
    TAG_BLOCK,
    _encode_block,
    _decode_block,
    matches=lambda value, ctx: getattr(value, "_is_columnar_block", False),
    priority=95,
    name="columnar-block",
)
register_codec(
    TAG_NDARRAY,
    _encode_ndarray,
    _decode_ndarray,
    matches=_matches_ndarray,
    priority=80,
    name="ndarray",
)
register_codec(
    TAG_BYTES,
    lambda value, ctx: TAG_BYTES + value,
    lambda body, ctx: body,
    matches=lambda value, ctx: isinstance(value, bytes),
    priority=60,
    name="bytes",
)
register_codec(
    TAG_JSON,
    lambda value, ctx: TAG_JSON + json.dumps(value).encode("utf-8"),
    lambda body, ctx: json.loads(body.decode("utf-8")),
    matches=lambda value, ctx: _json_roundtrips(value),
    priority=40,
    name="json",
)
register_codec(
    TAG_PICKLE,
    lambda value, ctx: TAG_PICKLE + pickle.dumps(value),
    lambda body, ctx: pickle.loads(body),
    matches=lambda value, ctx: True,
    priority=-100,
    trusted_only=True,
    name="pickle",
)
