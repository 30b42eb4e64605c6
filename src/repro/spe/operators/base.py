"""Operator contract shared by every native operator.

Operators are the vertices of a continuous query's DAG (§2). Each operator
consumes tuples from one or more inputs and emits zero or more tuples per
invocation. Stateful operators additionally flush pending state when their
inputs close (``on_close``), so finite replays terminate with complete
results.

Operators also participate in the checkpointing protocol of
:mod:`repro.recovery`: ``snapshot_state`` captures everything an operator
would need to continue after a crash, and ``restore_state`` re-installs a
snapshot into a freshly built operator of the same kind. Stateless
operators return ``None`` (nothing to persist); the scheduler invokes
``snapshot_state`` exactly when an epoch's checkpoint barrier has been
seen on every input, so the snapshot sits on a consistent cut.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Any, Iterable

from ..tuples import StreamTuple


class Operator(ABC):
    """Base class for all native operators."""

    #: number of input streams the operator consumes (1 for most, 2 for Join)
    num_inputs: int = 1

    def __init__(self, name: str) -> None:
        self.name = name

    @abstractmethod
    def process(self, input_index: int, t: StreamTuple) -> list[StreamTuple]:
        """Consume one tuple from input ``input_index``; return outputs."""

    def process_many(
        self, tuples: list[StreamTuple], input_index: int = 0
    ) -> list[StreamTuple]:
        """Consume one run of tuples from one input, in order.

        What the scheduler and a fused chain call: a lone tuple is a run
        of one. The default is the per-tuple loop; an operator overrides
        it when it can do better over a whole run.
        """
        out: list[StreamTuple] = []
        extend = out.extend
        process = self.process
        for t in tuples:
            got = process(input_index, t)
            if got:
                extend(got)
        return out

    # -- columnar execution -------------------------------------------------

    #: True when :meth:`process_block` is an array-at-a-time form of
    #: :meth:`process`; read once, by the plan compiler, when a fused
    #: chain is built around this operator
    supports_block: bool = False

    def block_eligible(self, t: StreamTuple) -> bool:
        """True when ``t`` may join a columnar block through this stage;
        an ineligible tuple takes :meth:`process` at its stream position."""
        return True

    def process_block(self, block: Any) -> Any:
        """Transform a :class:`~repro.spe.columnar.ColumnarBlock` of
        eligible rows exactly as :meth:`process` would row by row."""
        raise NotImplementedError(
            f"{type(self).__name__} has no block variant"
        )

    def on_input_closed(self, input_index: int) -> list[StreamTuple]:
        """One input reached end-of-stream; may release held-back results."""
        return []

    def on_close(self) -> list[StreamTuple]:
        """All inputs closed: flush any remaining state."""
        return []

    # -- observability ----------------------------------------------------

    def stats_extra(self) -> dict[str, float]:
        """Operator-specific counters exported by repro.obs at scrape time
        (e.g. events detected, triggers correlated). Keys become metric
        names ``spe_operator_<key>``; values must be monotone counters."""
        return {}

    # -- checkpointing protocol -------------------------------------------

    def snapshot_state(self) -> dict[str, Any] | None:
        """State to persist at a checkpoint barrier; ``None`` = stateless."""
        return None

    def restore_state(self, state: dict[str, Any]) -> None:
        """Re-install a snapshot produced by :meth:`snapshot_state`."""
        raise NotImplementedError(
            f"{type(self).__name__} has no restorable state"
        )

    # -- elastic rescaling --------------------------------------------------

    def reshard_state(
        self,
        states: list[dict[str, Any] | None],
        shards: int,
        route: "Any",
    ) -> list[dict[str, Any] | None]:
        """Redistribute N drained shard snapshots across ``shards`` replicas.

        ``states`` holds one :meth:`snapshot_state` result per old replica;
        ``route`` maps a routing key to its new shard index (the same hash
        the group's router will use). The default covers stateless
        operators only — keyed operators override this to split their
        per-key state along the routing key.
        """
        if all(state is None for state in states):
            return [None] * shards
        raise NotImplementedError(
            f"{type(self).__name__} carries state but defines no "
            f"reshard_state; it cannot be rescaled"
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.name!r})"


def snapshot_callable(fn: object) -> dict[str, Any] | None:
    """Snapshot a wrapped user function, if it supports the protocol.

    Map-like operators delegate their state to the user function they wrap
    (e.g. the use case's adaptive threshold learner); plain lambdas simply
    return ``None``.
    """
    snap = getattr(fn, "snapshot_state", None)
    return snap() if callable(snap) else None


def restore_callable(fn: object, state: dict[str, Any] | None) -> None:
    """Inverse of :func:`snapshot_callable` (no-op for ``None`` state)."""
    if state is None:
        return
    restore = getattr(fn, "restore_state", None)
    if not callable(restore):
        raise NotImplementedError(
            f"{type(fn).__name__} has snapshotted state but no restore_state"
        )
    restore(state)


def reshard_callable(
    fn: object,
    fn_states: list[dict[str, Any] | None],
    shards: int,
    route: Any,
) -> list[dict[str, Any] | None]:
    """Redistribute wrapped-function state across ``shards`` replicas.

    A user function may define its own ``reshard_state(states, shards,
    route)``; otherwise the states are treated as cache-like (e.g. the
    per-cell calibration cache): dict states are shallow-merged and the
    merged copy replicated into every shard — idempotent under repeated
    merge/split cycles, at the cost of each replica warming the same cache.
    """
    hook = getattr(fn, "reshard_state", None)
    if callable(hook):
        return hook(fn_states, shards, route)
    present = [s for s in fn_states if s is not None]
    if not present:
        return [None] * shards
    if all(isinstance(s, dict) for s in present):
        merged: dict[str, Any] = {}
        for s in present:
            merged.update(s)
        return [copy.deepcopy(merged) for _ in range(shards)]
    return [copy.deepcopy(present[0]) for _ in range(shards)]


def as_tuple_list(result: StreamTuple | Iterable[StreamTuple] | None) -> list[StreamTuple]:
    """Normalize a user function's return value to a list of tuples."""
    if type(result) is list:
        # hot path: the list is freshly built by the function and consumed
        # immediately by the caller, so hand it over without copying
        return result
    if result is None:
        return []
    if isinstance(result, StreamTuple):
        return [result]
    return list(result)
