"""Stream tuples: the unit of data flowing through queries.

The paper's tuple model (§2) has two parts: *metadata* carrying the event
timestamp ``tau`` plus other sub-attributes, and a *payload* of key-value
sub-attributes. STRATA fixes the metadata schema to
``(tau, job, layer, specimen, portion)`` (Table 1); ``specimen``/``portion``
are ``None`` until a ``partition`` step assigns them.

``ingest_time`` is not part of the paper's logical schema: it records the
wall-clock instant at which the datum entered the system and is carried
through every derived tuple so sinks can measure end-to-end latency exactly
as the paper defines it (time from *all inputs available* to result).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping

# Default identifiers used when no partition function has run yet: the whole
# layer is treated as a single specimen/portion (paper, Table 1 `partition`).
WHOLE_SPECIMEN = "__whole__"
WHOLE_PORTION = "__whole__"


class StreamTuple:
    """Immutable-by-convention record with metadata and payload."""

    __slots__ = (
        "tau", "job", "layer", "specimen", "portion", "payload", "ingest_time",
        "trace_id",
    )

    def __init__(
        self,
        tau: float,
        job: str,
        layer: int,
        payload: Mapping[str, Any] | None = None,
        specimen: str | None = None,
        portion: str | None = None,
        ingest_time: float | None = None,
    ) -> None:
        self.tau = float(tau)
        self.job = job
        self.layer = int(layer)
        self.specimen = specimen
        self.portion = portion
        self.payload: dict[str, Any] = dict(payload or {})
        self.ingest_time = time.monotonic() if ingest_time is None else ingest_time
        # observability: set by the tracer on sampled tuples, inherited by
        # everything derived from them (repro.obs)
        self.trace_id: str | None = None

    # -- derivation helpers (keep lineage: ingest_time is inherited) ------

    def derive(
        self,
        payload: Mapping[str, Any] | None = None,
        tau: float | None = None,
        specimen: str | None = None,
        portion: str | None = None,
        layer: int | None = None,
        copy: bool = True,
    ) -> "StreamTuple":
        """Create a downstream tuple inheriting metadata not overridden.

        Hot path (one call per derived tuple, millions per run): assigns
        slots directly instead of going through ``__init__`` — inherited
        fields are already coerced, so re-validating them per derivation
        only costs time. ``copy=False`` hands ownership of a freshly built
        payload dict to the new tuple without the defensive copy; the
        caller must not touch that dict afterwards.
        """
        t = StreamTuple.__new__(StreamTuple)
        t.tau = self.tau if tau is None else float(tau)
        t.job = self.job
        t.layer = self.layer if layer is None else int(layer)
        t.specimen = self.specimen if specimen is None else specimen
        t.portion = self.portion if portion is None else portion
        if payload is None:
            t.payload = dict(self.payload)
        elif copy or type(payload) is not dict:
            t.payload = dict(payload)
        else:
            t.payload = payload
        t.ingest_time = self.ingest_time
        t.trace_id = self.trace_id
        return t

    def map_values(self, fn: Callable[[Any], Any]) -> "StreamTuple":
        """Shallow copy with ``fn`` applied to every payload value."""
        return self.derive(
            payload={key: fn(v) for key, v in self.payload.items()}, copy=False
        )

    @staticmethod
    def fused(
        left: "StreamTuple", right: "StreamTuple", tau: float | None = None
    ) -> "StreamTuple":
        """Concatenate two tuples' payloads (the `fuse` output schema).

        The fused tuple's ``ingest_time`` is the *latest* of the two inputs:
        latency counts from the moment all contributing data was available.
        Duplicate payload keys violate the API contract (Table 1) and raise.
        """
        overlap = left.payload.keys() & right.payload.keys()
        if overlap:
            raise ValueError(f"fuse requires unique payload keys; duplicates: {sorted(overlap)}")
        merged = {**left.payload, **right.payload}
        t = StreamTuple(
            tau=left.tau if tau is None else tau,
            job=left.job,
            layer=left.layer,
            payload=merged,
            specimen=left.specimen if left.specimen is not None else right.specimen,
            portion=left.portion if left.portion is not None else right.portion,
            ingest_time=max(left.ingest_time, right.ingest_time),
        )
        t.trace_id = left.trace_id if left.trace_id is not None else right.trace_id
        return t

    def latency_from(self, now: float | None = None) -> float:
        """Seconds elapsed since this tuple's data became available."""
        if now is None:
            now = time.monotonic()
        return now - self.ingest_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keys = ",".join(sorted(self.payload))
        return (
            f"StreamTuple(tau={self.tau:.3f}, job={self.job!r}, layer={self.layer}, "
            f"specimen={self.specimen!r}, portion={self.portion!r}, payload_keys=[{keys}])"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamTuple):
            return NotImplemented
        return (
            self.tau == other.tau
            and self.job == other.job
            and self.layer == other.layer
            and self.specimen == other.specimen
            and self.portion == other.portion
            and _payload_equal(self.payload, other.payload)
        )

    def __hash__(self) -> int:
        return hash((self.tau, self.job, self.layer, self.specimen, self.portion))


def _payload_equal(a: dict[str, Any], b: dict[str, Any]) -> bool:
    if a.keys() != b.keys():
        return False
    for key, value in a.items():
        other = b[key]
        try:
            import numpy as np

            if isinstance(value, np.ndarray) or isinstance(other, np.ndarray):
                if not np.array_equal(value, other):
                    return False
                continue
        except ImportError:  # pragma: no cover
            pass
        if value != other:
            return False
    return True
