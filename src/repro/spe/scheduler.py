"""Schedulers: drive a materialized query graph to completion.

Two execution strategies, one node semantics:

* :class:`ThreadedScheduler` — one thread per node with bounded blocking
  queues, the Liebre execution model; used for all latency/throughput
  measurements because tuples flow as soon as they are produced.
* :class:`SynchronousScheduler` — a deterministic single-threaded
  topological drain; used by tests and anywhere reproducibility matters
  more than timing fidelity.

Both share :class:`NodeExecutor`, which implements the per-node protocol:
process data items, react to per-input end-of-stream, flush on full close,
and propagate the end-of-stream marker downstream exactly once.
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


class NodeExecutor:
    """Uniform execution wrapper around one query node."""

    def __init__(
        self,
        node: Node,
        stop_event: threading.Event | None = None,
        checkpoint_listener: CheckpointListener | None = None,
        edge_batch_size: int = 1,
        linger_s: float = 0.005,
        obs=None,
        blocking_puts: bool = True,
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
        # Batched edge transport: with edge_batch_size > 1, emitted data
        # tuples are buffered per output stream and shipped as one
        # TupleBatch queue entry. Buffers are touched only by the thread
        # driving this executor, so they need no locking; control items
        # (barriers, EOS) always flush first, preserving in-band ordering.
        self._edge_batch = max(1, edge_batch_size)
        self._linger_s = linger_s
        # Buffers are always allocated so batching can be switched on at
        # runtime (adaptive tuning); _emit fast-paths on _edge_batch <= 1.
        self._buffers: dict[int, tuple[Stream, list]] = {
            id(s): (s, []) for s in node.outputs
        }
        self._last_flush = time.monotonic()
        # Chandy–Lamport alignment: epoch -> input_index -> barriers seen.
        # An input is aligned for an epoch once it delivered one barrier per
        # producer feeding it (or closed); while aligned-but-waiting it is
        # *blocked* so no post-barrier tuple sneaks into the snapshot.
        self._barrier_seen: dict[int, dict[int, int]] = {}
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
    def edge_batch_size(self) -> int:
        return self._edge_batch

    def set_batching(self, batch_size: int, linger_s: float | None = None) -> None:
        """Retune edge batching at runtime (adaptive controller hook).

        Safe to call from any thread: both knobs are atomic scalar writes;
        the buffers themselves stay owner-thread-only. Leftover tuples in a
        shrunken buffer ship on the owner's next flush or linger expiry.
        """
        self._edge_batch = max(1, int(batch_size))
        if linger_s is not None:
            self._linger_s = max(0.0, float(linger_s))

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
        seen = self._barrier_seen.get(epoch, {}).get(input_index, 0)
        return seen >= self.node.inputs[input_index].num_producers

    def _emit(self, tuples: list[StreamTuple]) -> None:
        buffers = self._buffers
        for t in tuples:
            self.stats.tuples_out += 1
            for stream in self.node.route(t):
                if self._edge_batch <= 1:
                    self._put(stream, t)
                    continue
                buf = buffers[id(stream)][1]
                buf.append(t)
                if len(buf) >= self._edge_batch:
                    self._flush_stream(stream, buf)

    def _flush_stream(self, stream: Stream, buf: list) -> None:
        if not buf:
            return
        stats = self.stats
        stats.batches_out += 1
        stats.batch_tuples_out += len(buf)
        item = buf[0] if len(buf) == 1 else TupleBatch(buf)
        buf.clear()
        self._put(stream, item)

    def flush_outputs(self) -> None:
        """Ship every partially filled output batch now."""
        for stream, buf in self._buffers.values():
            self._flush_stream(stream, buf)
        if self._sink_flush is not None:
            self._sink_flush()
        self._last_flush = time.monotonic()

    def maybe_flush(self, now: float) -> None:
        """Flush buffered batches older than the linger deadline."""
        if now - self._last_flush >= self._linger_s:
            self.flush_outputs()

    def _put(self, stream: Stream, item: object) -> None:
        if not self._blocking_puts:
            stream.put_unbounded(item)
            return
        if self._stop_event is None:
            stream.put(item)
            return
        # Cooperative shutdown: a downstream consumer may already
        # have exited without draining; never block forever on a
        # full queue once stop was requested — drop instead.
        while not stream.put(item, timeout=0.1):
            if self._stop_event.is_set():
                break

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
                stats.record_time_bulk(duration / n, n)
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
        counts = self._barrier_seen.setdefault(barrier.epoch, {})
        counts[input_index] = counts.get(input_index, 0) + 1
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
        # Pre-barrier data must precede the barrier in every output queue —
        # and leave a buffering sink before the sink acknowledges the epoch:
        # the snapshot claims everything before the cut was delivered.
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
        barrier, flushes, and forwards the *same* barrier object. The merge
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
        self.flush_outputs()
        if node.name == barrier.absorb_at:
            barrier.notify_absorbed()
            return
        for stream in node.outputs:
            self._put(stream, barrier)

    def finalize(self) -> None:
        """Flush remaining state and propagate EOS downstream (idempotent)."""
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
        self.flush_outputs()
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
        tracer = ex._tracer
        obs_on = ex._obs is not None
        progressed = False
        for _ in range(self._batch_size):
            t = next(iterator, None)
            if t is None:
                ex.finalize()
                return True
            if is_barrier(t):
                # Barriers go to every output, ignoring hash routers.
                for stream in ex.node.outputs:
                    stream.put_unbounded(t)
                progressed = True
                continue
            ex.stats.tuples_out += 1
            if obs_on:
                ex.stats.last_tau = t.tau
                if tracer is not None:
                    tracer.at_source(ex.node.name, t)
            for stream in ex.node.route(t):
                stream.put_unbounded(t)
            progressed = True
        return progressed

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
        poll_timeout: float = 0.02,
        checkpoint_listener: CheckpointListener | None = None,
        edge_batch_size: int = 1,
        drain_batch: int = 64,
        linger_s: float = 0.005,
        obs=None,
    ) -> None:
        if drain_batch < 1:
            raise ValueError("drain_batch must be positive")
        self._poll_timeout = poll_timeout
        self._checkpoint_listener = checkpoint_listener
        self._edge_batch_size = max(1, edge_batch_size)
        self._drain_batch = drain_batch
        self._linger_s = linger_s
        self._obs = obs
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
            edge_batch_size=self._edge_batch_size if node.kind != "source" else 1,
            linger_s=self._linger_s,
            obs=self._obs,
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
        node = ex.node
        tracer = ex._tracer
        obs_on = ex._obs is not None
        put = self._source_put
        # A source that already holds framed runs (a connector reader
        # decoding block records) hands each over whole through runs().
        runs = getattr(node.source, "runs", None)
        for t in runs() if runs is not None else node.source:
            if self._stop.is_set():
                break
            if is_barrier(t):
                # Barriers go to every output, ignoring hash routers.
                if not all(put(stream, t) for stream in node.outputs):
                    return
                continue
            if type(t) is TupleBatch:
                if not self._ship_run(ex, t):
                    return
                continue
            ex.stats.tuples_out += 1
            if obs_on:
                ex.stats.last_tau = t.tau
                if tracer is not None:
                    tracer.at_source(node.name, t)
            for stream in node.route(t):
                if not put(stream, t):
                    return
        ex.finalize()

    def _source_put(self, stream: Stream, item: object) -> bool:
        """Blocking put; False once stop was requested."""
        while not stream.put(item, timeout=0.2):
            if self._stop.is_set():
                return False
        return True

    def _ship_run(self, ex: NodeExecutor, run: TupleBatch) -> bool:
        """Send a source's run down its edges: one TupleBatch per destination."""
        node = ex.node
        ex.stats.tuples_out += len(run)
        if ex._obs is not None:
            ex.stats.last_tau = run[-1].tau
            if ex._tracer is not None:
                for t in run:
                    ex._tracer.at_source(node.name, t)
        if node.router is None:
            batches = [(stream, TupleBatch(run)) for stream in node.outputs]
        else:
            routed: dict[int, TupleBatch] = {}
            for t in run:
                routed.setdefault(node.router.route(t), TupleBatch()).append(t)
            batches = [(node.outputs[i], batch) for i, batch in routed.items()]
        return all(self._source_put(stream, batch) for stream, batch in batches)

    def _consumer_loop(self, ex: NodeExecutor) -> None:
        while not ex.finalized and not ex.retired and not self._stop.is_set():
            moved = False
            for index in list(ex.ready_inputs):
                stream = ex.node.inputs[index]
                # Bulk-drain queued data entries under one lock acquisition;
                # drain() stops before control items (EOS, barriers), which
                # the try_get fallback then delivers one at a time.
                items = stream.drain(self._drain_batch)
                if not items:
                    item = stream.try_get()
                    if item is None:
                        continue
                    ex.handle(index, item)
                    moved = True
                    if ex.retired:
                        break
                    continue
                for item in items:
                    ex.handle(index, item)
                moved = True
                if ex.retired:
                    break
            if ex.retired:
                break
            if moved:
                ex.maybe_flush(time.monotonic())
            elif not ex.finalized:
                # Going idle: ship partially filled output batches so
                # downstream latency is bounded by the blocking timeout,
                # not by how long this node stays starved.
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
                time.sleep(self._poll_timeout)
            return
        # Block briefly on the first ready input; the timeout bounds how
        # long we ignore the other inputs and the stop flag.
        stream = ex.node.inputs[ready[0]]
        item = stream.get(timeout=self._poll_timeout)
        if item is None:
            return
        ex.handle(ready[0], item)
        if ex.finalized or ex.retired or ex.input_blocked(ready[0]):
            return
        # Opportunistic drain: whatever queued up behind the item we just
        # waited for is consumed in the same wake-up, one lock acquisition
        # for the whole run instead of one per item.
        for extra in stream.drain(self._drain_batch):
            ex.handle(ready[0], extra)
            if ex.retired:
                return

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
