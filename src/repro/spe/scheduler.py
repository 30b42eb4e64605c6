"""Schedulers: drive a materialized query graph to completion.

Two execution strategies, one node semantics:

* :class:`ThreadedScheduler` — one thread per node with bounded blocking
  queues, the Liebre execution model; used for all latency/throughput
  measurements because tuples flow as soon as they are produced.
* :class:`SynchronousScheduler` — a deterministic single-threaded
  topological drain; used by tests and anywhere reproducibility matters
  more than timing fidelity.

Both share :class:`NodeExecutor`, which implements the per-node protocol:
send what a source yields (tuples, ``TupleBatch`` runs, barriers) down its
edges, process data items, react to per-input end-of-stream, flush on full
close, and propagate the end-of-stream marker downstream exactly once. A
scheduler only decides when a node runs.

With a plan, a run is the unit of transport: an operator's output for one
run leaves as one ``TupleBatch`` per destination, and the threaded
scheduler hands a node everything one drain took from an input (up to
``DRAIN_BATCH`` entries, never past a barrier or EOS) as one run. Without
a plan every tuple is its own entry and every entry its own ``handle``:
the graph as declared, tuple at a time.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from .barrier import CheckpointBarrier, RescaleBarrier, is_barrier
from .columnar import ColumnarBlock
from .errors import OperatorError
from .metrics import OperatorStats
from .query import Node
from .stream import END_OF_STREAM, Stream, TupleBatch
from .tuples import StreamTuple

# (node_name, epoch, state-or-None) — invoked once a node snapshots at an
# aligned barrier. ``None`` state means the node is stateless but did align.
CheckpointListener = Callable[[str, int, "dict | None"], None]

#: how long an idle consumer blocks on one input before it looks again
POLL_TIMEOUT = 0.02
#: queued entries one consumer wake-up takes under one lock acquisition
DRAIN_BATCH = 64


class NodeExecutor:
    """Uniform execution wrapper around one query node."""

    def __init__(
        self,
        node: Node,
        stop_event: threading.Event | None = None,
        checkpoint_listener: CheckpointListener | None = None,
        obs=None,
        blocking_puts: bool = True,
        planned: bool = False,
    ) -> None:
        self.node = node
        self.stats = OperatorStats(node.name)
        # Observability (repro.obs.ObsContext, duck-typed): when attached,
        # the per-tuple extra cost is one None check plus a few attribute
        # writes; when absent it is a single None check.
        self._obs = obs
        self._tracer = obs.tracer if obs is not None else None
        if obs is not None:
            obs.attach_executor(self)
        self._closed_inputs: set[int] = set()
        self._finalized = False
        self._stop_event = stop_event
        # Single-threaded schedulers must never block on a full output
        # stream — there is no concurrent consumer to drain it, so a
        # blocking put is a self-deadlock (see Stream.put_unbounded).
        self._blocking_puts = blocking_puts
        self._checkpoint_listener = checkpoint_listener
        # The graph was compiled from a plan: an operator's output for one
        # run leaves whole, one TupleBatch per destination; otherwise tuple
        # by tuple, the graph exactly as declared.
        self._planned = planned
        # Chandy–Lamport alignment: epoch -> inputs whose barrier arrived.
        # An input is aligned for an epoch once its barrier arrived (or it
        # closed); while aligned-but-waiting it is *blocked* so no
        # post-barrier tuple sneaks into the snapshot.
        self._barrier_seen: dict[int, set[int]] = {}
        # epoch -> the barrier object that opened it. Needed because rescale
        # barriers carry identity (scope, snapshot sink) and must be
        # forwarded as the same object, unlike plain checkpoint barriers.
        self._barriers: dict[int, CheckpointBarrier] = {}
        # A retired executor belongs to a replica group that was drained by
        # a rescale barrier; its thread exits without finalizing (no EOS).
        self._retired = False
        # Drain hook: a sink that buffers (a batching connector writer) is
        # told when its input has nothing more ready — on the way to
        # blocking, so under load its batches fill instead.
        self._sink_flush = (
            getattr(node.sink, "flush", None) if node.kind == "sink" else None
        )

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def retired(self) -> bool:
        return self._retired

    @property
    def open_inputs(self) -> list[int]:
        return [
            i for i in range(len(self.node.inputs)) if i not in self._closed_inputs
        ]

    @property
    def ready_inputs(self) -> list[int]:
        """Open inputs a scheduler may consume from right now.

        Inputs already aligned for the oldest in-flight barrier epoch are
        excluded until every input catches up (barrier alignment).
        """
        if not self._barrier_seen:
            return self.open_inputs
        epoch = min(self._barrier_seen)
        return [
            i for i in self.open_inputs if not self._input_aligned(epoch, i)
        ]

    def input_blocked(self, input_index: int) -> bool:
        """True when barrier alignment currently blocks this input."""
        if not self._barrier_seen:
            return False
        return self._input_aligned(min(self._barrier_seen), input_index)

    def _input_aligned(self, epoch: int, input_index: int) -> bool:
        if input_index in self._closed_inputs:
            return True
        return input_index in self._barrier_seen.get(epoch, ())

    def _emit(self, tuples: list[StreamTuple]) -> None:
        self.stats.tuples_out += len(tuples)
        if self._planned:
            self._send(tuples)
            return
        for t in tuples:
            self._send(t)

    def flush_outputs(self) -> None:
        """Tell a buffering sink to ship what it holds now."""
        if self._sink_flush is not None:
            self._sink_flush()

    def _put(self, stream: Stream, item: object) -> bool:
        """Append ``item`` to ``stream``; False if it was dropped at stop."""
        if not self._blocking_puts:
            return stream.put_unbounded(item)
        if self._stop_event is None:
            return stream.put(item)
        # Cooperative shutdown: a downstream consumer may already
        # have exited without draining; never block forever on a
        # full queue once stop was requested — drop instead.
        while not stream.put(item, timeout=0.1):
            if self._stop_event.is_set():
                return False
        return True

    def _send(self, item: StreamTuple | list[StreamTuple]) -> bool:
        """Send data down this node's edges: the one send path.

        A tuple goes along ``node.route``; a run (a list of tuples) goes as
        one :class:`TupleBatch` per destination, split by the router if
        there is one. False once a put was dropped because stop was
        requested.
        """
        node = self.node
        if not isinstance(item, list):
            return all(self._put(stream, item) for stream in node.route(item))
        if node.router is None:
            sends = [(stream, TupleBatch(item)) for stream in node.outputs]
        else:
            routed: dict[int, TupleBatch] = {}
            for t in item:
                routed.setdefault(node.router.route(t), TupleBatch()).append(t)
            sends = [(node.outputs[i], batch) for i, batch in routed.items()]
        return all(self._put(stream, batch) for stream, batch in sends)

    def emit_from_source(self, item: object) -> bool:
        """Send one item a source yielded down this node's edges.

        A barrier goes to every output, bypassing any hash router (it
        belongs to all replicas, not one key's partition); a tuple or a
        :class:`TupleBatch` run goes through :meth:`_send`. Rows count and
        are stamped one by one whatever their framing. False once a put
        was dropped because stop was requested.
        """
        node = self.node
        if is_barrier(item):
            return all(self._put(stream, item) for stream in node.outputs)
        run = item if type(item) is TupleBatch else (item,)
        self.stats.tuples_out += len(run)
        if self._obs is not None:
            self.stats.last_tau = run[-1].tau
            if self._tracer is not None:
                for t in run:
                    self._tracer.at_source(node.name, t)
        return self._send(item)

    def handle(self, input_index: int, item: object) -> None:
        """Process one item (data tuple, batch, barrier, or EOS) from one input."""
        node = self.node
        if type(item) is TupleBatch:
            # Batches carry only data tuples, so no control transition can
            # occur mid-batch: the whole run is handled (and traced) as one.
            if item:
                self._handle_batch(input_index, item)
            return
        if type(item) is ColumnarBlock:
            # Blocks normally live *inside* a vectorized fused node; one
            # crossing an edge re-enters as the equivalent tuple run.
            if len(item):
                self._handle_batch(input_index, item.to_tuples())
            return
        if item is END_OF_STREAM:
            if input_index in self._closed_inputs:
                return
            self._closed_inputs.add(input_index)
            if node.kind == "operator":
                self._run_operator(node.operator.on_input_closed, input_index)
            # A closed input can never deliver its barrier; it counts as
            # aligned so in-flight epochs still complete during shutdown.
            self._recheck_alignment()
            if len(self._closed_inputs) == len(node.inputs):
                self.finalize()
            return
        if is_barrier(item):
            self._on_barrier(input_index, item)
            return
        # a lone tuple is a run of one
        self._handle_batch(input_index, [item])

    def _handle_batch(self, input_index: int, batch: list[StreamTuple]) -> None:
        """Run one non-empty run of data tuples through the node.

        One path whatever the run's length and whether or not anyone is
        watching: an operator takes the run in one ``process_many`` call,
        a sink loops inside the same timing envelope.
        Counters advance exactly as a per-tuple loop would advance them;
        processing time is attributed evenly across the run's tuples for
        the per-tuple timing histogram, and the tracer gets one span per
        distinct trace id in the run.
        """
        node = self.node
        stats = self.stats
        n = len(batch)
        stats.tuples_in += n
        tracer = self._tracer
        started_wall = time.time() if tracer is not None else 0.0
        started = time.perf_counter()
        if node.kind == "operator":
            self._run_operator(node.operator.process_many, batch, input_index)
        elif node.kind == "sink":
            accept = node.sink.accept
            for t in batch:
                accept(t)
        duration = time.perf_counter() - started
        stats.processing_seconds += duration
        if self._obs is not None:
            stats.last_tau = batch[-1].tau
            if stats.timing_counts is not None:
                stats.record_time(duration / n, n)
            if tracer is not None:
                tracer.record_run(node.name, node.kind, started_wall, duration, batch)

    def _run_operator(self, fn, *args: object) -> None:
        try:
            outputs = fn(*args)
        except Exception as exc:
            raise OperatorError(self.node.name, exc) from exc
        if outputs:
            self._emit(outputs)

    def _on_barrier(self, input_index: int, barrier: CheckpointBarrier) -> None:
        self._barrier_seen.setdefault(barrier.epoch, set()).add(input_index)
        self._barriers.setdefault(barrier.epoch, barrier)
        self._check_alignment(barrier.epoch)

    def _recheck_alignment(self) -> None:
        for epoch in sorted(self._barrier_seen):
            self._check_alignment(epoch)

    def _check_alignment(self, epoch: int) -> None:
        if epoch not in self._barrier_seen:
            return
        if not all(
            self._input_aligned(epoch, i) for i in range(len(self.node.inputs))
        ):
            return
        del self._barrier_seen[epoch]
        barrier = self._barriers.pop(epoch, None) or CheckpointBarrier(epoch)
        if isinstance(barrier, RescaleBarrier):
            self._complete_rescale(barrier)
        else:
            self._complete_checkpoint(epoch)

    def _snapshot_into(self, listener, epoch: int) -> None:
        """Deliver this node's aligned-cut state to ``listener(name, epoch, state)``."""
        node = self.node
        if node.kind == "operator" and hasattr(node.operator, "snapshot_parts"):
            # Fused node: one manifest entry per constituent, under its
            # original node name, so manifests stay portable between
            # fused and unfused plan shapes.
            for part_name, state in node.operator.snapshot_parts().items():
                listener(part_name, epoch, state)
        else:
            state: dict | None = None
            if node.kind == "operator":
                state = node.operator.snapshot_state()
            elif node.kind == "sink":
                state = node.sink.snapshot_state()
            listener(node.name, epoch, state)

    def _complete_checkpoint(self, epoch: int) -> None:
        """Snapshot at the aligned cut, then forward the barrier downstream."""
        # Pre-barrier data must leave a buffering sink before the sink
        # acknowledges the epoch: the snapshot claims everything before the
        # cut was delivered.
        self.flush_outputs()
        if self._checkpoint_listener is not None:
            self._snapshot_into(self._checkpoint_listener, epoch)
        # Broadcast to every output stream (bypassing any hash router: a
        # barrier belongs to all replicas, not one key's partition).
        barrier = CheckpointBarrier(epoch)
        for stream in self.node.outputs:
            self._put(stream, barrier)

    def _complete_rescale(self, barrier: RescaleBarrier) -> None:
        """Drain protocol for one node inside a rescaling replica group.

        A scope node retires: it snapshots its drained state into the
        barrier and forwards the *same* barrier object. The merge
        node (``absorb_at``) absorbs the barrier instead — by then every
        scope node upstream of it has retired (alignment guarantees their
        pre-barrier output was fully consumed), so absorbing doubles as the
        group-drained signal. Nodes outside the scope (possible only if a
        barrier escapes, which the merge prevents) forward it unchanged.
        """
        node = self.node
        in_scope = node.name in barrier.scope
        if in_scope:
            # Retire *before* forwarding: once the barrier leaves this node
            # the controller may observe the merge absorbing it, and by then
            # every scope node must already be out of the dataflow.
            self._retired = True
            self._snapshot_into(
                lambda name, _epoch, state: barrier.on_snapshot(name, state),
                barrier.epoch,
            )
        if node.name == barrier.absorb_at:
            barrier.notify_absorbed()
            return
        for stream in node.outputs:
            self._put(stream, barrier)

    def finalize(self) -> None:
        """Close the node and propagate EOS downstream (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        # Epochs still aligning at shutdown are abandoned: the coordinator
        # never sees their manifest, so recovery ignores them.
        self._barrier_seen.clear()
        self._barriers.clear()
        node = self.node
        if node.kind == "operator":
            self._run_operator(node.operator.on_close)
        elif node.kind == "sink":
            node.sink.on_close()
        for stream in node.outputs:
            stream.put(END_OF_STREAM)


class SynchronousScheduler:
    """Deterministic single-threaded drain in topological order."""

    def __init__(
        self,
        batch_size: int = 256,
        checkpoint_listener: CheckpointListener | None = None,
        obs=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._batch_size = batch_size
        self._checkpoint_listener = checkpoint_listener
        self._obs = obs

    def run(self, nodes: list[Node]) -> dict[str, OperatorStats]:
        executors = [
            NodeExecutor(
                node,
                checkpoint_listener=self._checkpoint_listener,
                obs=self._obs,
                blocking_puts=False,
            )
            for node in nodes
        ]
        source_iters = {
            ex.node.name: iter(ex.node.source)
            for ex in executors
            if ex.node.kind == "source"
        }
        while True:
            progressed = False
            for ex in executors:
                if ex.finalized:
                    continue
                if ex.node.kind == "source":
                    progressed |= self._step_source(ex, source_iters)
                else:
                    progressed |= self._step_consumer(ex)
            if not progressed and all(ex.finalized for ex in executors):
                return {ex.node.name: ex.stats for ex in executors}
            if not progressed:
                # No data moved but someone is unfinalized: only possible if
                # an upstream EOS has not been consumed yet; loop once more.
                if not any(self._step_consumer(ex) for ex in executors if not ex.finalized):
                    unfinished = [ex.node.name for ex in executors if not ex.finalized]
                    if unfinished and all(
                        ex.node.kind != "source" for ex in executors if not ex.finalized
                    ):
                        raise RuntimeError(f"query stalled; unfinished nodes: {unfinished}")

    def _step_source(self, ex: NodeExecutor, source_iters: dict) -> bool:
        iterator = source_iters[ex.node.name]
        for _ in range(self._batch_size):
            item = next(iterator, None)
            if item is None:
                ex.finalize()
                break
            ex.emit_from_source(item)
        return True

    def _step_consumer(self, ex: NodeExecutor) -> bool:
        progressed = False
        for index in list(ex.ready_inputs):
            stream = ex.node.inputs[index]
            for _ in range(self._batch_size):
                item = stream.try_get()
                if item is None:
                    break
                ex.handle(index, item)
                progressed = True
                if item is END_OF_STREAM or ex.input_blocked(index):
                    break
        return progressed


class ThreadedScheduler:
    """Liebre-style execution: one thread per node, blocking bounded queues."""

    def __init__(
        self,
        checkpoint_listener: CheckpointListener | None = None,
        obs=None,
        planned: bool = False,
    ) -> None:
        self._checkpoint_listener = checkpoint_listener
        self._obs = obs
        # nodes compiled from a plan send and take whole runs
        self._planned = planned
        self._threads: list[threading.Thread] = []
        self._threads_lock = threading.Lock()
        self._executors: list[NodeExecutor] = []
        self._stop = threading.Event()
        self._error: list[BaseException] = []
        self._error_lock = threading.Lock()

    @property
    def executors(self) -> list[NodeExecutor]:
        """Live executors, including any spliced in by a rescale."""
        with self._threads_lock:
            return list(self._executors)

    def run(self, nodes: list[Node]) -> dict[str, OperatorStats]:
        """Run to completion (all sources exhausted, all sinks closed)."""
        self.start(nodes)
        self.join()
        return self.stats()

    def stats(self) -> dict[str, OperatorStats]:
        """Per-node stats of every executor, retired ones included."""
        return {ex.node.name: ex.stats for ex in self.executors}

    def start(self, nodes: list[Node]) -> list[NodeExecutor]:
        """Launch node threads; returns executors for metric access."""
        self._stop.clear()
        executors = [self._make_executor(node) for node in nodes]
        for ex in executors:
            self._launch(ex)
        return executors

    def _make_executor(self, node: Node) -> NodeExecutor:
        return NodeExecutor(
            node,
            stop_event=self._stop,
            checkpoint_listener=self._checkpoint_listener,
            obs=self._obs,
            planned=self._planned,
        )

    def _launch(self, ex: NodeExecutor) -> None:
        target = self._source_loop if ex.node.kind == "source" else self._consumer_loop
        thread = threading.Thread(
            target=self._guarded, args=(target, ex), name=f"spe-{ex.node.name}", daemon=True
        )
        with self._threads_lock:
            self._threads.append(thread)
            self._executors.append(ex)
        thread.start()

    def splice(self, nodes: list[Node]) -> list[NodeExecutor]:
        """Add freshly built nodes to the running dataflow (rescale).

        Retired executors stay in the registry (their stats remain
        readable) but their threads have exited; the new nodes' threads
        start consuming from the streams the retired group abandoned.
        """
        executors = [self._make_executor(node) for node in nodes]
        for ex in executors:
            self._launch(ex)
        return executors

    def _guarded(self, target, ex: NodeExecutor) -> None:
        try:
            target(ex)
        except BaseException as exc:  # propagate to join()
            with self._error_lock:
                self._error.append(exc)
            self._stop.set()

    def _source_loop(self, ex: NodeExecutor) -> None:
        for item in ex.node.source:
            if self._stop.is_set():
                break
            if not ex.emit_from_source(item):
                return
        ex.finalize()

    def _consumer_loop(self, ex: NodeExecutor) -> None:
        while not ex.finalized and not ex.retired and not self._stop.is_set():
            moved = False
            for index in list(ex.ready_inputs):
                stream = ex.node.inputs[index]
                # Take queued data entries under one lock acquisition;
                # drain() stops before control items (EOS, barriers), which
                # the try_get fallback then delivers one at a time.
                items = stream.drain(DRAIN_BATCH)
                if not items:
                    item = stream.try_get()
                    if item is None:
                        continue
                    items = [item]
                self._deliver(ex, index, items)
                moved = True
                if ex.retired:
                    break
            if ex.retired:
                break
            if not moved and not ex.finalized:
                # Going idle: a buffering sink ships what it holds, so its
                # latency is bounded by the blocking timeout, not by how
                # long this node stays starved.
                ex.flush_outputs()
                self._block_on_any_input(ex)
        if self._stop.is_set() and not ex.finalized and not ex.retired:
            # Cooperative shutdown: propagate EOS so downstream exits too.
            ex.finalize()
        # A retired executor exits silently: no finalize, no EOS — its
        # replacement (spliced in by the elastic controller) takes over
        # the very streams this node stopped consuming.

    def _block_on_any_input(self, ex: NodeExecutor) -> None:
        ready = ex.ready_inputs
        if not ready:
            # Every open input is barrier-blocked: wait for the laggards'
            # barriers to arrive (delivered by other node threads).
            if ex.open_inputs:
                time.sleep(POLL_TIMEOUT)
            return
        # Block briefly on the first ready input; the timeout bounds how
        # long we ignore the other inputs and the stop flag.
        stream = ex.node.inputs[ready[0]]
        item = stream.get(timeout=POLL_TIMEOUT)
        if item is None:
            return
        if item is END_OF_STREAM or is_barrier(item):
            ex.handle(ready[0], item)
            return
        # Whatever queued up behind the entry we waited for is taken in
        # the same wake-up, one lock acquisition for the whole drain.
        self._deliver(ex, ready[0], [item, *stream.drain(DRAIN_BATCH - 1)])

    def _deliver(self, ex: NodeExecutor, index: int, entries: list) -> None:
        """Hand ``ex`` what one drain took from input ``index``.

        With a plan, the data entries go as one run; without one, and for
        a control item, one ``handle`` per entry.
        """
        if self._planned and len(entries) > 1:
            run = TupleBatch()
            for item in entries:
                if type(item) is TupleBatch:
                    run.extend(item)
                elif type(item) is ColumnarBlock:
                    run.extend(item.to_tuples())
                else:
                    run.append(item)
            entries = [run]
        for item in entries:
            ex.handle(index, item)

    def stop(self) -> None:
        """Request cooperative shutdown of all node threads."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        """True once cooperative shutdown has been requested."""
        return self._stop.is_set()

    def alive(self) -> bool:
        """True while at least one node thread is still running."""
        with self._threads_lock:
            threads = list(self._threads)
        return any(t.is_alive() for t in threads)

    def join(self, timeout: float | None = None) -> None:
        """Wait for every node thread; re-raise the first node error.

        Polls the thread list because a rescale may splice new threads in
        while we wait; joining is done only when a full pass over the
        current list finds every thread finished.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._threads_lock:
                threads = list(self._threads)
            for thread in threads:
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                thread.join(remaining)
            with self._threads_lock:
                self._threads = [t for t in self._threads if t.is_alive()]
                done = not self._threads
            if done or (deadline is not None and time.monotonic() >= deadline):
                break
        with self._error_lock:
            if self._error:
                raise self._error[0]
