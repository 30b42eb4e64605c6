"""The two payload transports of a broker connection.

A *transport* decides how record payloads travel between peers; the
framing, op table, and broker semantics stay identical regardless. There
are two, and :func:`make_server_transport` / :func:`connect_transport`
choose between them by name:

``tcp``
    Payload bytes ride inside the frame blobs. Always works, including
    across machines. This is the default and the fallback.

``shm``
    Payload ndarrays ride a shared-memory :class:`~repro.net.shm.SlabRing`
    and frames carry slab handles (see :mod:`repro.net.shm`). Only
    meaningful when every peer shares a kernel; peers that cannot attach
    the ring silently stay on tcp. Its server half is the
    :class:`~repro.net.shm.ShmServerPlane` itself, which fills in the
    seam :class:`ServerTransport` leaves as tcp no-ops.

Negotiation is server-advertised: the client issues the ``transport`` op,
receives the server's descriptor (``{"name": "shm", "ring": ...}`` or
``{"name": "tcp"}``), and calls :func:`connect_transport` to build its
side. Old servers answer unknown ops with a :class:`ProtocolError`, which
the client treats as ``tcp`` — so a new client against an old broker
degrades instead of breaking.
"""

from __future__ import annotations

import logging
from typing import Any, Callable

from .shm import (
    SHM_MIN_BYTES,
    ShmProducerPlane,
    ShmServerPlane,
    SlabRing,
    SlabRingError,
    attach_ring,
)

logger = logging.getLogger(__name__)

#: defaults for the shm ring; sized so four in-flight 2000 px float64
#: layer images per stage fit with headroom
DEFAULT_SHM_SLOTS = 64
DEFAULT_SHM_SLAB_BYTES = 40 * 1024 * 1024


class ServerTransport:
    """Server half of the tcp transport: the seam, all no-ops.

    :class:`~repro.net.shm.ShmServerPlane` implements the same methods
    for the shm transport.
    """

    name = "tcp"

    def describe(self) -> dict[str, Any]:
        """The descriptor sent back from the ``transport`` op."""
        return {"name": self.name}

    def resolve(self, value: Any) -> Any:
        """A stored record value as an in-process reader should see it.

        Whatever the transport made the server store in place of a
        payload is turned back into the payload here (identity on tcp).
        """
        return value

    def lease(self, conn_token: int, count: int) -> list[tuple[int, int]]:
        """Grant payload slabs to a connection (no-op on tcp)."""
        return []

    def release(self, conn_token: int, pairs: list[tuple[int, int]]) -> int:
        """Take back unused slabs from a connection (no-op on tcp)."""
        return 0

    def on_disconnect(self, conn_token: int) -> None:
        """A connection died; reclaim anything charged to it."""

    def stats(self) -> dict[str, Any]:
        return {}

    def close(self) -> None:
        pass


class ClientTransport:
    """Client half: what a connection's serde context carries (nothing on tcp)."""

    name = "tcp"
    #: the attached ring consumers read slab handles from
    ring: SlabRing | None = None

    def producer_plane(
        self,
        lease_fn: Callable[[int], list[tuple[int, int]]],
        release_fn: Callable[[list[tuple[int, int]]], int],
    ) -> ShmProducerPlane | None:
        """The slab writer for one producer connection, if this transport has one.

        ``lease_fn``/``release_fn`` are bound to that connection's typed
        ops so the server charges leases to the right socket.
        """
        return None


def make_server_transport(
    name: str,
    slots: int = DEFAULT_SHM_SLOTS,
    slab_bytes: int = DEFAULT_SHM_SLAB_BYTES,
    min_bytes: int = SHM_MIN_BYTES,
    spill_dir: str | None = None,
) -> ServerTransport | ShmServerPlane:
    """Build the server half of the named transport.

    Unknown names raise ``ValueError`` listing the known ones (a bad
    ``[dist] transport`` is already refused when the config is parsed).
    The other arguments size the shm ring; tcp has nothing to size.
    """
    if name == "tcp":
        return ServerTransport()
    if name == "shm":
        ring = SlabRing.create(slots=slots, slab_bytes=slab_bytes)
        return ShmServerPlane(ring, min_bytes=min_bytes, spill_dir=spill_dir)
    raise ValueError(f"unknown transport {name!r} (known: shm, tcp)")


def connect_transport(descriptor: dict[str, Any] | None) -> ClientTransport:
    """Build the client half for a server-advertised descriptor.

    Anything unusable — no descriptor, an unknown name, or an shm ring
    that cannot be attached from here (it is on another machine) — yields
    the tcp transport. The client can always talk tcp.
    """
    name = (descriptor or {}).get("name", "tcp")
    if name == "shm":
        client = _connect_shm(descriptor or {})
        if client is not None:
            return client
        logger.info("transport 'shm' not usable from this process; using tcp")
    elif name != "tcp":
        logger.info("unknown transport %r advertised; staying on tcp", name)
    return ClientTransport()


# -- shm ----------------------------------------------------------------------


class ShmClientTransport(ClientTransport):
    """Client side: producer planes over an attached ring."""

    name = "shm"

    def __init__(self, ring: SlabRing, min_bytes: int) -> None:
        self.ring = ring
        self._min_bytes = min_bytes

    def producer_plane(
        self,
        lease_fn: Callable[[int], list[tuple[int, int]]],
        release_fn: Callable[[list[tuple[int, int]]], int],
    ) -> ShmProducerPlane:
        return ShmProducerPlane(
            self.ring, lease_fn, release_fn, min_bytes=self._min_bytes
        )


def _connect_shm(descriptor: dict[str, Any]) -> ClientTransport | None:
    name = descriptor.get("ring")
    if not name:
        return None
    try:
        ring = attach_ring(name)
    except SlabRingError as exc:
        logger.info("cannot attach shm ring %r (%s); using tcp", name, exc)
        return None
    return ShmClientTransport(ring, int(descriptor.get("min_bytes", SHM_MIN_BYTES)))
