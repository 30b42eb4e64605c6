"""The checkpoint coordinator: periodic aligned snapshots of a live query.

Protocol (Chandy–Lamport with aligned barriers, the Flink ABS variant):

1. ``request_checkpoint`` opens an epoch and asks every checkpointable
   source to inject a :class:`CheckpointBarrier` between two tuples; the
   source reports its exact replay position at the injection point.
2. Barriers flow downstream in-band. Each node aligns them across its
   inputs (handled by the SPE's ``NodeExecutor``), snapshots its state,
   and the scheduler's checkpoint listener forwards the snapshot here.
3. Once every participant node has acked and every source has reported
   its offsets, the epoch's *manifest* is committed — strictly last, so a
   crash mid-checkpoint leaves the epoch invisible to recovery.

The plan's replica groups merge through an explicit Union with one input
stream per replica, so every stream has a single producer and alignment
across a node's inputs gives exact cuts; sink-side dedup
(:class:`~repro.recovery.dedup.DedupSink`) drops what a replay delivers
twice.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from ..kvstore.api import KVStore
from ..spe.barrier import CheckpointBarrier
from ..spe.query import Node
from .errors import CheckpointConfigError
from .storage import CheckpointStorage


class _Epoch:
    """Book-keeping for one in-flight checkpoint."""

    __slots__ = (
        "pending_nodes",
        "pending_sources",
        "stateful_nodes",
        "state_entries",
        "started",
        "done",
    )

    def __init__(self, nodes: set[str], sources: set[str]) -> None:
        self.pending_nodes = set(nodes)
        self.pending_sources = set(sources)
        self.stateful_nodes: set[str] = set()
        self.state_entries = 0
        self.started = time.monotonic()
        self.done = threading.Event()


class CheckpointCoordinator:
    """Drives aligned checkpoints of one deployed query into a KV store."""

    def __init__(
        self,
        store: KVStore | CheckpointStorage,
        interval: float | None = None,
        retain: int | None = None,
        on_epoch_committed: Callable[[int], None] | None = None,
    ) -> None:
        self.storage = (
            store if isinstance(store, CheckpointStorage) else CheckpointStorage(store)
        )
        if interval is not None and interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        if retain is not None and retain < 1:
            raise ValueError("retain must keep at least one epoch")
        self._interval = interval
        self._retain = retain
        self._on_epoch_committed = on_epoch_committed
        # RLock: the commit path runs user callbacks that may re-enter
        # (e.g. trigger another checkpoint from on_epoch_committed).
        self._lock = threading.RLock()
        self._inflight: dict[int, _Epoch] = {}
        self._events: dict[int, threading.Event] = {}
        self._participants: set[str] = set()
        self._sources: dict[str, Any] = {}
        # Continue numbering after any previous run's epochs so recovery
        # always finds the newest state at the highest committed epoch.
        latest = self.storage.latest_epoch()
        self._next_epoch = 0 if latest is None else latest + 1
        self.completed_epochs: list[int] = []
        self.last_duration: float | None = None
        self._daemon: threading.Thread | None = None
        self._daemon_stop = threading.Event()
        self._m_total: Any | None = None
        self._m_duration: Any | None = None
        self._m_last_duration: Any | None = None
        self._m_entries: Any | None = None
        self._m_epoch: Any | None = None

    # -- wiring -------------------------------------------------------------

    def bind(self, nodes: list[Node]) -> None:
        """Discover participants from a materialized query graph.

        Called by ``StreamEngine`` after build. Every source must be able
        to carry barriers (``request_barrier``), else downstream alignment
        would wait forever on its silent input.
        """
        participants: set[str] = set()
        sources: dict[str, Any] = {}
        for node in nodes:
            if node.kind == "source":
                if not hasattr(node.source, "request_barrier"):
                    raise CheckpointConfigError(
                        f"source node {node.name!r} cannot carry barriers; wrap "
                        "it in repro.recovery.CheckpointableSource"
                    )
                sources[node.name] = node.source
            else:
                # A fused node acks once per constituent, under the original
                # node names, so manifests are identical across plan shapes.
                participants.update(node.checkpoint_names())
        with self._lock:
            self._participants = participants
            self._sources = sources

    def rebind(self, nodes: list[Node]) -> None:
        """Re-discover participants after an elastic rescale splices nodes.

        Must run *before* the scheduler splices the replacement executors:
        ``on_node_snapshot`` discards acks from names outside an epoch's
        pending set, so any checkpoint epoch still in flight has to expect
        the new replica names before they can start acking. For each such
        epoch, the retired group's outstanding names are swapped for the
        replacement names — the rescale barrier drained the old replicas
        after they forwarded any older checkpoint barriers, so the new
        replicas will see (and ack) those epochs' barriers from the
        boundary queue.
        """
        old_participants = self._participants
        self.bind(nodes)
        with self._lock:
            added = self._participants - old_participants
            removed = old_participants - self._participants
            for epoch, ep in list(self._inflight.items()):
                gone = ep.pending_nodes & removed
                if not gone:
                    continue
                ep.pending_nodes -= gone
                ep.pending_nodes |= added
                self._maybe_commit_locked(epoch, ep)

    def attach_metrics(self, registry: Any) -> None:
        """Export checkpoint health into an observability registry.

        Called by ``Strata`` when the pipeline runs with ``obs=``; the
        registry is duck-typed (``counter``/``gauge``/``histogram``) so this
        module keeps no import on ``repro.obs``. Size is approximated by
        the number of state entries captured per epoch — node state keys
        plus one per source position — so the commit path never re-pickles
        state just to weigh it.
        """
        self._m_total = registry.counter(
            "strata_checkpoints_total", "checkpoint epochs committed"
        )
        self._m_duration = registry.histogram(
            "strata_checkpoint_duration_seconds",
            "barrier injection to manifest commit",
            buckets=(0.005, 0.02, 0.1, 0.5, 2.0, 10.0),
        )
        self._m_last_duration = registry.gauge(
            "strata_checkpoint_last_duration_seconds",
            "duration of the newest committed checkpoint",
        )
        self._m_entries = registry.gauge(
            "strata_checkpoint_state_entries",
            "state entries captured by the newest committed checkpoint",
        )
        self._m_epoch = registry.gauge(
            "strata_checkpoint_epoch", "newest committed checkpoint epoch"
        )
        registry.gauge(
            "strata_checkpoints_inflight",
            "checkpoint epochs currently awaiting alignment",
            fn=lambda: float(len(self._inflight)),
        )

    # -- checkpoint lifecycle ------------------------------------------------

    def request_checkpoint(self) -> int:
        """Open an epoch and inject barriers; returns without waiting."""
        with self._lock:
            if not self._sources:
                raise CheckpointConfigError("coordinator is not bound to a query")
            epoch = self._next_epoch
            self._next_epoch += 1
            self._inflight[epoch] = _Epoch(self._participants, set(self._sources))
            self._events[epoch] = self._inflight[epoch].done
            sources = list(self._sources.items())
        barrier = CheckpointBarrier(epoch)
        for node_name, source in sources:
            # Acks are keyed by *node* name; the source only knows its own.
            source.request_barrier(
                barrier,
                lambda _src, ep, pos, name=node_name: self._on_source_position(
                    name, ep, pos
                ),
            )
        return epoch

    def trigger(self, timeout: float | None = 30.0) -> int:
        """Checkpoint synchronously: inject barriers and wait for commit."""
        epoch = self.request_checkpoint()
        if not self.wait_for(epoch, timeout):
            raise TimeoutError(f"checkpoint epoch {epoch} did not complete")
        return epoch

    def wait_for(self, epoch: int, timeout: float | None = None) -> bool:
        """Block until the epoch's manifest is committed (True on success)."""
        with self._lock:
            event = self._events.get(epoch)
        if event is None:
            return epoch in self.completed_epochs
        return event.wait(timeout)

    # -- callbacks from the running query ------------------------------------

    def _on_source_position(self, source_name: str, epoch: int, position: dict) -> None:
        """Invoked in the source thread at the exact barrier cut."""
        self.storage.save_source_position(epoch, source_name, position)
        # Pin pubsub offsets on the broker too, so plain consumer-group
        # restarts (outside full recovery) resume at the checkpoint.
        source = self._sources.get(source_name)
        if (
            position.get("kind") == "pubsub"
            and source is not None
            and hasattr(source.inner, "commit_offsets")
        ):
            source.inner.commit_offsets(position["offsets"])
        with self._lock:
            ep = self._inflight.get(epoch)
            if ep is None:
                return
            ep.pending_sources.discard(source_name)
            ep.state_entries += 1
            self._maybe_commit_locked(epoch, ep)

    def on_node_snapshot(self, node_name: str, epoch: int, state: dict | None) -> None:
        """Checkpoint listener the engine hands to its schedulers."""
        if state is not None:
            self.storage.save_node_state(epoch, node_name, state)
        with self._lock:
            ep = self._inflight.get(epoch)
            if ep is None or node_name not in ep.pending_nodes:
                return
            ep.pending_nodes.discard(node_name)
            if state is not None:
                ep.stateful_nodes.add(node_name)
                ep.state_entries += len(state)
            self._maybe_commit_locked(epoch, ep)

    def _maybe_commit_locked(self, epoch: int, ep: _Epoch) -> None:
        if ep.pending_nodes or ep.pending_sources:
            return
        del self._inflight[epoch]
        # a waiter already holds the event; a later wait_for reads
        # completed_epochs, so the map only holds epochs in flight
        del self._events[epoch]
        duration = time.monotonic() - ep.started
        manifest = {
            "epoch": epoch,
            "nodes": sorted(ep.stateful_nodes),
            "sources": sorted(self._sources),
            "duration_s": duration,
            "wall_time": time.time(),
        }
        # The single put below is the commit point of the whole epoch.
        self.storage.commit_manifest(epoch, manifest)
        self.completed_epochs.append(epoch)
        self.last_duration = duration
        if self._m_total is not None:
            self._m_total.inc()
            self._m_duration.observe(duration)
            self._m_last_duration.set(duration)
            self._m_entries.set(ep.state_entries)
            self._m_epoch.set(epoch)
        if self._retain is not None:
            self.storage.retain(self._retain)
        ep.done.set()
        if self._on_epoch_committed is not None:
            self._on_epoch_committed(epoch)

    # -- periodic mode -------------------------------------------------------

    def start_periodic(self) -> None:
        """Run ``request_checkpoint`` every ``interval`` seconds (daemon)."""
        if self._interval is None:
            raise CheckpointConfigError("no interval configured")
        if self._daemon is not None:
            return
        self._daemon_stop.clear()
        self._daemon = threading.Thread(
            target=self._periodic_loop, name="checkpoint-coordinator", daemon=True
        )
        self._daemon.start()

    def _periodic_loop(self) -> None:
        while not self._daemon_stop.wait(self._interval):
            with self._lock:
                backlog = len(self._inflight)
            if backlog >= 4:
                continue  # the pipeline is not keeping up; don't pile on
            try:
                self.request_checkpoint()
            except CheckpointConfigError:
                return  # unbound (query stopped); nothing left to do

    def stop(self) -> None:
        """Stop the periodic daemon (in-flight epochs may still commit)."""
        if self._daemon is None:
            return
        self._daemon_stop.set()
        self._daemon.join(timeout=5.0)
        self._daemon = None
