"""repro.net — networked broker transport.

A length-prefixed binary wire protocol (:mod:`repro.net.frames`) with a
typed op table shared by both peers (:mod:`repro.net.ops`), an async
selector-based :class:`BrokerServer` exposing an in-process broker, and a
:class:`BrokerClient` whose producers and consumers let the pub/sub
connectors cross machine boundaries unchanged — the decoupling
the paper gets from Kafka, over our own Kafka substitute.

Every record value crosses the wire through :mod:`repro.serde`'s one wire
codec. Payloads ride one of two transports (:mod:`repro.net.transport`):
plain tcp everywhere, or a zero-copy shared-memory slab ring
(:mod:`repro.net.shm`) when the peers share a machine — its server half is
the :class:`ShmServerPlane` itself, and frames carry slab handles under
serde's ``S`` tag.
"""

from .client import BrokerClient, Connection, RemoteProducer
from .errors import ConnectionClosedError, NetError, ProtocolError, RpcError
from .frames import (
    MAGIC,
    MAX_FRAME_BYTES,
    TYPE_ERROR,
    TYPE_REQUEST,
    TYPE_RESPONSE,
    VERSION,
    Frame,
    FrameDecoder,
    encode_frame,
    frame_iovecs,
    read_frame,
    write_frame,
    write_frames,
)
from .ops import OPS, OpSpec
from .server import BrokerServer
from .shm import (
    ShmProducerPlane,
    ShmServerPlane,
    SlabHandle,
    SlabRing,
    SlabRingError,
    StaleSlabError,
)
from .transport import (
    ClientTransport,
    ServerTransport,
    connect_transport,
    make_server_transport,
)

__all__ = [
    "BrokerClient",
    "BrokerServer",
    "ClientTransport",
    "Connection",
    "ConnectionClosedError",
    "Frame",
    "FrameDecoder",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "NetError",
    "OPS",
    "OpSpec",
    "ProtocolError",
    "RemoteProducer",
    "RpcError",
    "ServerTransport",
    "ShmProducerPlane",
    "ShmServerPlane",
    "SlabHandle",
    "SlabRing",
    "SlabRingError",
    "StaleSlabError",
    "TYPE_ERROR",
    "TYPE_REQUEST",
    "TYPE_RESPONSE",
    "VERSION",
    "connect_transport",
    "encode_frame",
    "frame_iovecs",
    "make_server_transport",
    "read_frame",
    "write_frame",
    "write_frames",
]
