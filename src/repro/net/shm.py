"""The shared-memory payload plane: ndarray slabs that never ride TCP.

On a multi-core box every stage boundary of a distributed deployment is a
loopback socket, so a 2000×2000 OT image pays serialization plus four
memory copies per hop for data that never leaves the machine. This module
gives the wire codec an ``ndarray-shm`` escape hatch: payload arrays are
written once into a slab of a :class:`SlabRing` (one
``multiprocessing.shared_memory`` block shared by the whole deployment)
and the frames crossing sockets carry ~100-byte **slab handles** instead
of pixels.

Ownership is explicit and server-authoritative:

* a producer **leases** slots over the broker connection (``lease`` op),
  writes pixels, and publishes a handle; the lease is charged to the
  connection, so a producer that dies before publishing is reclaimed the
  moment its socket closes;
* on produce the server **binds** the slot to the stored record via a
  :class:`SlabRef` — a lazy reference the broker keeps *instead of* the
  array. Fetches re-encode the handle (tiny frame); replay re-reads the
  same slab;
* when the ring is full, the server **reclaims** the oldest bound slot by
  **spilling** its pixels to an unlinked temp file (one ``pwrite``
  straight out of the ring, into an extent that is reused once the
  record it held is trimmed) — or for free, if the record was
  already trimmed — so the ring recycles without ever losing replayable
  data and without the broker's heap growing with the stream. A fetch,
  a replay from the earliest offset or an in-process read of a spilled
  record ``pread``s it back. Producers whose lease request still comes
  back empty fall back to inline payloads; remote peers that cannot
  attach the ring never negotiate shm at all.

Staleness is detected with a per-slot generation seqlock: readers check
the generation before and after copying out, and a mismatch raises
:class:`StaleSlabError`, which the remote consumer answers by re-fetching
the record (the server has spilled it by then and answers inline). A
read inside the server's process (:func:`resolve_refs`) never raises it:
the spill is recorded before the generation moves, so a stale read falls
back to the spilled copy.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import tempfile
import threading
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any

from ..serde import (
    SerdeContext,
    SerdeError,
    encode_ndarray_body,
    ndarray_frame,
    register_codec,
)

logger = logging.getLogger(__name__)

TAG_NDARRAY_SHM = b"S"

#: arrays smaller than this are cheaper inline than through a lease
SHM_MIN_BYTES = 32 * 1024

#: how many slots a producer leases per round trip (amortizes the op)
LEASE_BATCH = 8

_HEADER = struct.Struct("!4sIQ")  # magic, slots, slab_bytes
_GEN = struct.Struct("!Q")
_MAGIC = b"SLAB"

#: rings created by this process — attaching one of these must NOT
#: unregister it from the resource tracker (the tracker's cache is a set,
#: so the create-time registration would be lost and unlink would warn)
_CREATED: set[str] = set()


class StaleSlabError(SerdeError):
    """A slab handle's generation no longer matches the ring (slot reused).

    Recoverable: the record that carried the handle has been spilled
    server-side, so re-fetching the same offset returns inline pixels.
    """


class SlabRingError(SerdeError):
    """The ring is malformed or not attachable from this process."""


@dataclass(frozen=True)
class SlabHandle:
    """Wire identity of one slab payload (what the frame actually carries)."""

    ring: str
    slot: int
    gen: int
    dtype: str
    shape: tuple[int, ...]

    def encode(self) -> bytes:
        header = json.dumps(
            {
                "ring": self.ring,
                "slot": self.slot,
                "gen": self.gen,
                "dtype": self.dtype,
                "shape": list(self.shape),
            },
            separators=(",", ":"),
        ).encode("utf-8")
        return TAG_NDARRAY_SHM + header

    @classmethod
    def decode(cls, body: bytes) -> "SlabHandle":
        try:
            meta = json.loads(body.decode("utf-8"))
            return cls(
                ring=meta["ring"],
                slot=int(meta["slot"]),
                gen=int(meta["gen"]),
                dtype=meta["dtype"],
                shape=tuple(int(n) for n in meta["shape"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise SerdeError(f"malformed ndarray-shm handle: {exc}") from exc

    @property
    def nbytes(self) -> int:
        import numpy as np

        count = 1
        for n in self.shape:
            count *= n
        return count * np.dtype(self.dtype).itemsize


class SlabRing:
    """A shared-memory block of fixed-size ndarray slabs + generation words.

    Layout: 16-byte header (magic, slot count, slab size), one big-endian
    ``u64`` generation per slot, then the slab data region. The *server*
    owns generation assignment; everyone else only ever reads them to
    validate handles (seqlock style).
    """

    def __init__(self, shm: Any, slots: int, slab_bytes: int, owner: bool) -> None:
        self._shm = shm
        self.slots = slots
        self.slab_bytes = slab_bytes
        self._owner = owner
        self._data_off = _HEADER.size + slots * _GEN.size
        self._closed = False

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, slots: int, slab_bytes: int) -> "SlabRing":
        from multiprocessing import shared_memory

        if slots < 1:
            raise SlabRingError("a slab ring needs at least one slot")
        if slab_bytes < 1:
            raise SlabRingError("slab_bytes must be positive")
        size = _HEADER.size + slots * _GEN.size + slots * slab_bytes
        shm = shared_memory.SharedMemory(create=True, size=size)
        _CREATED.add(shm.name)
        _HEADER.pack_into(shm.buf, 0, _MAGIC, slots, slab_bytes)
        ring = cls(shm, slots, slab_bytes, owner=True)
        for slot in range(slots):
            ring.set_gen(slot, 0)
        return ring

    @classmethod
    def attach(cls, name: str) -> "SlabRing":
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError, ValueError) as exc:
            raise SlabRingError(f"shm ring {name!r} is not attachable: {exc}") from exc
        # Non-owners must not let the resource tracker unlink the ring when
        # they exit (Python registers every attach, not just the create).
        if name not in _CREATED:
            try:  # pragma: no cover - depends on interpreter internals
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        try:
            magic, slots, slab_bytes = _HEADER.unpack_from(shm.buf, 0)
        except struct.error as exc:
            shm.close()
            raise SlabRingError(f"shm ring {name!r} is truncated") from exc
        if magic != _MAGIC:
            shm.close()
            raise SlabRingError(f"shm ring {name!r} has bad magic {magic!r}")
        return cls(shm, slots, slab_bytes, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- generations ---------------------------------------------------------

    def gen(self, slot: int) -> int:
        return _GEN.unpack_from(self._shm.buf, _HEADER.size + slot * _GEN.size)[0]

    def set_gen(self, slot: int, gen: int) -> None:
        _GEN.pack_into(self._shm.buf, _HEADER.size + slot * _GEN.size, gen)

    # -- slab I/O ------------------------------------------------------------

    def write(self, slot: int, array: Any) -> None:
        """Copy ``array`` (C-contiguous view taken) into ``slot``."""
        import numpy as np

        contiguous = np.ascontiguousarray(array)
        if contiguous.nbytes > self.slab_bytes:
            raise SlabRingError(
                f"array of {contiguous.nbytes} bytes exceeds the "
                f"{self.slab_bytes}-byte slab"
            )
        offset = self._data_off + slot * self.slab_bytes
        dst = np.ndarray(
            (contiguous.nbytes,), dtype=np.uint8, buffer=self._shm.buf, offset=offset
        )
        dst[:] = contiguous.view(np.uint8).reshape(-1)

    def view(self, slot: int, nbytes: int) -> memoryview:
        """The first ``nbytes`` of ``slot``, in place (no copy, no seqlock)."""
        offset = self._data_off + slot * self.slab_bytes
        return self._shm.buf[offset : offset + nbytes]

    def read(self, handle: SlabHandle) -> Any:
        """Copy the slab out as a private ndarray, seqlock-validated."""
        import numpy as np

        if not 0 <= handle.slot < self.slots:
            raise SlabRingError(f"slab slot {handle.slot} out of range")
        if self.gen(handle.slot) != handle.gen:
            raise StaleSlabError(
                f"slab {handle.slot} of ring {self.name} was reclaimed "
                f"(gen {self.gen(handle.slot)} != handle gen {handle.gen})"
            )
        offset = self._data_off + handle.slot * self.slab_bytes
        src = np.ndarray(
            handle.shape,
            dtype=np.dtype(handle.dtype),
            buffer=self._shm.buf,
            offset=offset,
        )
        out = src.copy()
        if self.gen(handle.slot) != handle.gen:
            raise StaleSlabError(
                f"slab {handle.slot} of ring {self.name} was reclaimed mid-read"
            )
        return out

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass

    def unlink(self) -> None:
        _CREATED.discard(self.name)
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


# -- attachment cache (consumer-side decode) ----------------------------------

_ATTACHED: dict[str, SlabRing] = {}
_ATTACH_LOCK = threading.Lock()


def attach_ring(name: str) -> SlabRing:
    """Attach (or reuse an attachment of) a ring by name, process-wide."""
    with _ATTACH_LOCK:
        ring = _ATTACHED.get(name)
        if ring is None:
            ring = SlabRing.attach(name)
            _ATTACHED[name] = ring
        return ring


def detach_ring(name: str) -> None:
    with _ATTACH_LOCK:
        ring = _ATTACHED.pop(name, None)
    if ring is not None:
        ring.close()


# -- server side ---------------------------------------------------------------


def _default_spill_dir() -> str | None:
    """Where the spill file goes when the server was given no directory.

    ``$TMPDIR`` if set, else ``/var/tmp``: by convention that one is on
    disk, where ``/tmp`` is a tmpfs on many hosts — and a spill into RAM
    frees nothing, it only hides the payloads from the process's RSS.
    ``None`` leaves the choice to :mod:`tempfile`.
    """
    if os.environ.get("TMPDIR"):
        return None
    return "/var/tmp" if os.access("/var/tmp", os.W_OK | os.X_OK) else None


class _Spill:
    """Home of reclaimed slab payloads: one unlinked temp file of slab-sized extents.

    Created on the first reclaim, so a deployment whose ring never wraps
    opens nothing. A payload takes one extent; the extent goes back on the
    free list when the record that owned it leaves the broker log (its
    :class:`SlabRef` is collected), so under topic retention the file stops
    growing at about ``retained records x slab_bytes``. With no retention it
    grows with the stream — on disk, which is the point. Stores are
    serialized by the plane's lock; reads are positional and need none.
    """

    def __init__(self, extent_bytes: int, directory: str | None = None) -> None:
        self._extent_bytes = extent_bytes
        self._directory = directory
        self._file: Any | None = None
        self._extents = 0  # ever allocated: the file never shrinks
        self._free: list[int] = []
        # (offset, nbytes) of extents whose ref is gone. Filled by weakref
        # finalizers, which may run in any thread, mid-allocation, with the
        # plane's lock held: they do this one atomic append and no more.
        self._released: deque[tuple[int, int]] = deque()
        self._held = 0

    def _collect(self) -> None:
        while self._released:
            offset, nbytes = self._released.popleft()
            self._free.append(offset)
            self._held -= nbytes

    def store(self, ref: "SlabRef", payload: memoryview) -> int:
        """Write ``payload`` into a free extent, owned by ``ref``; returns its offset."""
        if self._file is None:
            self._file = tempfile.TemporaryFile(
                prefix="strata-slab-spill-",
                dir=self._directory or _default_spill_dir(),
            )
        self._collect()
        reused = bool(self._free)
        offset = self._free.pop() if reused else self._extents * self._extent_bytes
        fd = self._file.fileno()
        written = 0
        try:
            while written < len(payload):
                written += os.pwrite(fd, payload[written:], offset + written)
        except OSError:
            if reused:
                self._free.append(offset)
            raise
        if not reused:
            self._extents += 1
        self._held += written
        weakref.finalize(ref, self._released.append, (offset, written)).atexit = False
        return offset

    def readinto(self, buffer: bytearray, offset: int) -> None:
        """Fill ``buffer`` from the file at ``offset``."""
        fd = self._file.fileno()
        view = memoryview(buffer)
        done = 0
        while done < len(view):
            got = os.preadv(fd, [view[done:]], offset + done)
            if not got:
                raise SlabRingError("slab spill file is truncated")
            done += got

    def stats(self) -> dict[str, int]:
        """``spill_bytes``: payload held now; ``spill_file_bytes``: the file's size."""
        self._collect()
        return {
            "spill_bytes": self._held,
            "spill_file_bytes": self._extents * self._extent_bytes,
        }

    def close(self) -> None:
        if self._file is not None:
            self._file.close()


class SlabRef:
    """What the broker stores in place of a payload array.

    Holds the handle while the slab is live. When the ring reclaims the
    slot the payload moves to the plane's spill file and ``_home`` names
    where: ``(spill, offset)`` — or the payload's ``bytes``, when the spill
    could not be written and it had to stay in this process. The server
    plane tracks refs by weakref, so a record trimmed from the broker log
    frees its slot without any copy at all.
    """

    __slots__ = ("handle", "_ring", "_home", "__weakref__")

    def __init__(self, handle: SlabHandle, ring: SlabRing) -> None:
        self.handle = handle
        self._ring = ring
        self._home: Any | None = None

    @property
    def live(self) -> bool:
        """True while the payload still sits in its slab."""
        return self._home is None

    def _reclaimed(self) -> bytearray:
        """A private copy of the reclaimed payload's bytes."""
        if isinstance(self._home, bytes):  # the spill could not take it
            return bytearray(self._home)
        spill, offset = self._home
        raw = bytearray(self.handle.nbytes)
        spill.readinto(raw, offset)
        return raw

    def load(self) -> Any:
        """The payload as a private ndarray, from wherever it lives now.

        The reclaimer records the new home *before* it moves the slot's
        generation, so a read that loses the seqlock race finds the copy.
        Only a handle that never matched a lease has neither, and raises.
        """
        import numpy as np

        if self._home is None:
            try:
                return self._ring.read(self.handle)
            except StaleSlabError:
                if self._home is None:
                    raise
        flat = np.frombuffer(self._reclaimed(), dtype=np.dtype(self.handle.dtype))
        return flat.reshape(self.handle.shape)

    def encode(self) -> bytes:
        """Wire form for a fetch: the handle while live, else the pixels."""
        if self._home is None:
            return self.handle.encode()
        return ndarray_frame(self.handle.dtype, self.handle.shape, self._reclaimed())


def _load(value: Any) -> Any:
    return value.load() if type(value) is SlabRef else value


def resolve_refs(value: Any) -> Any:
    """A stored record value as a reader inside the server's process sees it.

    Every :class:`SlabRef` is replaced by its array, in a shallow copy of
    the tuple or block that held it (``map_values``): the log's record
    keeps its refs — it is neither mutated nor re-inflated — and the reader
    owns what it was given.
    """
    map_values = getattr(value, "map_values", None)
    return _load(value) if map_values is None else map_values(_load)


@dataclass
class _Lease:
    owner: int  # opaque connection token
    gen: int


class ShmServerPlane:
    """Server-side slab bookkeeping: lease, bind, reclaim, account.

    One instance per :class:`~repro.net.server.BrokerServer` running the
    shm transport. All state transitions happen under one lock; the slot
    population is fixed, so every operation is O(1) amortized.
    """

    def __init__(
        self,
        ring: SlabRing,
        min_bytes: int = SHM_MIN_BYTES,
        spill_dir: str | None = None,
    ) -> None:
        self.ring = ring
        self.min_bytes = min_bytes
        self._lock = threading.Lock()
        self._free: deque[int] = deque(range(ring.slots))
        self._leased: dict[int, _Lease] = {}
        self._bound: OrderedDict[int, weakref.ref] = OrderedDict()
        self._next_gen = 1
        self._spill = _Spill(ring.slab_bytes, spill_dir)
        # accounting, surfaced through stats()
        self.leases_granted = 0
        self.leases_reclaimed = 0
        self.slabs_bound = 0
        self.slabs_spilled = 0
        self.slabs_materialized = 0
        self.slabs_trimmed = 0

    def describe(self) -> dict[str, Any]:
        """The transport descriptor the server advertises to clients."""
        return {
            "name": "shm",
            "ring": self.ring.name,
            "slots": self.ring.slots,
            "slab_bytes": self.ring.slab_bytes,
            "min_bytes": self.min_bytes,
            "version": 1,
        }

    # -- lease / release -----------------------------------------------------

    def lease(self, owner: int, count: int) -> list[tuple[int, int]]:
        """Grant up to ``count`` (slot, gen) pairs to ``owner``.

        When the free list runs dry, bound slots are reclaimed oldest
        first (trimmed records for free, live ones by spilling to disk).
        Returns fewer — possibly zero — pairs when the ring is truly full,
        which is the caller's cue to fall back to inline payloads.
        """
        granted: list[tuple[int, int]] = []
        with self._lock:
            for _ in range(max(0, count)):
                if not self._free and not self._reclaim_one_locked():
                    break
                slot = self._free.popleft()
                gen = self._next_gen
                self._next_gen += 1
                self.ring.set_gen(slot, gen)
                self._leased[slot] = _Lease(owner=owner, gen=gen)
                granted.append((slot, gen))
            self.leases_granted += len(granted)
        return granted

    def release(self, owner: int, pairs: list[tuple[int, int]]) -> int:
        """Return unused leases; foreign or stale pairs are ignored."""
        released = 0
        with self._lock:
            for slot, gen in pairs:
                lease = self._leased.get(slot)
                if lease is None or lease.owner != owner or lease.gen != gen:
                    continue
                del self._leased[slot]
                self._retire_locked(slot)
                released += 1
        return released

    def reclaim_owner(self, owner: int) -> int:
        """Free every unbound lease charged to ``owner`` (connection died)."""
        with self._lock:
            dead = [s for s, lease in self._leased.items() if lease.owner == owner]
            for slot in dead:
                del self._leased[slot]
                self._retire_locked(slot)
            self.leases_reclaimed += len(dead)
        return len(dead)

    # -- bind (produce) / encode hooks ---------------------------------------

    def bind(self, handle: SlabHandle) -> SlabRef:
        """Transition a leased slot to record-bound; returns its SlabRef.

        Called from the serde decode hook while the server stores a
        produced record. A handle that does not match a live lease (e.g. a
        replayed produce after a reclaim) yields a ref that will simply
        read stale — but in practice the producing client just wrote it
        under a valid lease.
        """
        ref = SlabRef(handle, self.ring)
        with self._lock:
            lease = self._leased.get(handle.slot)
            if lease is not None and lease.gen == handle.gen:
                del self._leased[handle.slot]
                self._bound[handle.slot] = weakref.ref(ref)
                self.slabs_bound += 1
            elif handle.slot in self._bound:  # re-produce of a bound slab
                self._bound.move_to_end(handle.slot, last=False)
        return ref

    # -- reclamation ---------------------------------------------------------

    def _retire_locked(self, slot: int) -> None:
        self.ring.set_gen(slot, self._next_gen)  # invalidate outstanding handles
        self._next_gen += 1
        self._free.append(slot)

    def _reclaim_one_locked(self) -> bool:
        """Free the oldest bound slot; True when a slot was recovered."""
        while self._bound:
            slot, ref_w = self._bound.popitem(last=False)
            ref = ref_w()
            if ref is None:
                # the broker log already dropped the record: free for free
                self.slabs_trimmed += 1
                self._retire_locked(slot)
                return True
            if self.ring.gen(slot) != ref.handle.gen:
                # already invalidated (shouldn't happen, but never spin)
                self._retire_locked(slot)
                return True
            # The payload's new home is recorded before the generation
            # moves: a reader that then loses the seqlock finds the copy.
            try:
                offset = self._spill.store(
                    ref, self.ring.view(slot, ref.handle.nbytes)
                )
                ref._home = (self._spill, offset)
                self.slabs_spilled += 1
            except OSError as exc:
                # no room to spill: keep the record replayable from the heap
                logger.warning("slab spill failed (%s); keeping payload in memory", exc)
                ref._home = bytes(self.ring.view(slot, ref.handle.nbytes))
                self.slabs_materialized += 1
            self._retire_locked(slot)
            return True
        return False

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "slots": self.ring.slots,
                "free": len(self._free),
                "leased": len(self._leased),
                "bound": len(self._bound),
                "leases_granted": self.leases_granted,
                "leases_reclaimed": self.leases_reclaimed,
                "slabs_bound": self.slabs_bound,
                "slabs_spilled": self.slabs_spilled,
                **self._spill.stats(),
                "slabs_materialized": self.slabs_materialized,
                "slabs_trimmed": self.slabs_trimmed,
            }

    def close(self) -> None:
        self._spill.close()
        self.ring.close()
        if self.ring._owner:
            self.ring.unlink()


# -- producer side -------------------------------------------------------------


class ShmProducerPlane:
    """Client-side slab writer: a pool of leased slots, refilled in batches.

    Not thread-safe by design — each producer owns a private connection
    and a private plane, mirroring the one-connection-per-producer rule of
    :mod:`repro.net.client`.
    """

    def __init__(
        self,
        ring: SlabRing,
        lease_fn: Any,
        release_fn: Any,
        min_bytes: int = SHM_MIN_BYTES,
        lease_batch: int = LEASE_BATCH,
    ) -> None:
        self._ring = ring
        self._lease_fn = lease_fn
        self._release_fn = release_fn
        self.min_bytes = min_bytes
        self._lease_batch = max(1, lease_batch)
        self._pool: deque[tuple[int, int]] = deque()
        self._starved = False  # last refill came back empty
        self.slabs_written = 0
        self.inline_fallbacks = 0

    def eligible(self, array: Any) -> bool:
        return self.min_bytes <= array.nbytes <= self._ring.slab_bytes

    def put(self, array: Any) -> SlabHandle | None:
        """Write ``array`` into a leased slab; None = fall back to inline."""
        import numpy as np

        if not self._pool:
            try:
                self._pool.extend(self._lease_fn(self._lease_batch))
            except Exception:  # lease op unavailable: permanent inline
                self._pool.clear()
                self._starved = True
                self.inline_fallbacks += 1
                return None
            if not self._pool:
                self._starved = True
                self.inline_fallbacks += 1
                return None
        self._starved = False
        slot, gen = self._pool.popleft()
        contiguous = np.ascontiguousarray(array)
        self._ring.write(slot, contiguous)
        self.slabs_written += 1
        return SlabHandle(
            ring=self._ring.name,
            slot=slot,
            gen=gen,
            dtype=contiguous.dtype.str,
            shape=tuple(contiguous.shape),
        )

    def close(self) -> None:
        """Return every unused lease to the server (best effort)."""
        if self._pool:
            pairs = list(self._pool)
            self._pool.clear()
            try:
                self._release_fn(pairs)
            except Exception:  # pragma: no cover - connection already gone
                pass


# -- the ndarray-shm wire codec ------------------------------------------------


def _matches_shm(value: Any, ctx: SerdeContext) -> bool:
    if isinstance(value, SlabRef):
        return True
    plane = ctx.options.get("shm_producer")
    if plane is None:
        return False
    import numpy as np

    return (
        isinstance(value, np.ndarray)
        and not value.dtype.hasobject
        and plane.eligible(value)
    )


def _encode_shm(value: Any, ctx: SerdeContext) -> bytes:
    if isinstance(value, SlabRef):
        return value.encode()
    plane = ctx.options["shm_producer"]
    handle = plane.put(value)
    if handle is None:  # ring full (or lease path gone): inline fallback
        return encode_ndarray_body(value)
    return handle.encode()


def _decode_shm(body: bytes, ctx: SerdeContext) -> Any:
    handle = SlabHandle.decode(body)
    plane = ctx.options.get("shm_server")
    if plane is not None and handle.ring == plane.ring.name:
        return plane.bind(handle)
    ring = ctx.options.get("shm_ring")
    if ring is None or ring.name != handle.ring:
        ring = attach_ring(handle.ring)
    return ring.read(handle)


register_codec(
    TAG_NDARRAY_SHM,
    _encode_shm,
    _decode_shm,
    matches=_matches_shm,
    priority=90,  # above the plain ndarray codec: claims eligible arrays
    name="ndarray-shm",
)
