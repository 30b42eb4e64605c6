"""Span tracing from outside the program: timed wrappers around entry points.

Nothing under ``src/`` knows about this file. :class:`Tracer.install`
replaces each declared ``module:attribute.path`` with a wrapper that records
one span per call — name, start, end, and the span that was open on the same
thread when it began (its parent). Spans stay in memory; :meth:`Tracer.write`
puts them in one JSON file when the run ends. A layer's *self* time is its
spans' duration minus the part their child spans cover.

Targets name the namespace the caller looks the function up in: a function
imported by name (``from ..analysis.cells import cell_means``) is patched
where it is used (``repro.core.functions:cell_means``), a method on its
class. Only calls made once per block, batch, layer or request are declared —
never per cell — so the wrappers stay a small share of the work they time
(``trace.overhead_ratio`` reports what they cost).

Install before the pipeline is built: operators capture bound methods when
they are constructed. Forked children (the distributed workload's stage
workers) inherit the wrappers; each child drops the spans it inherited and
writes its own file when ``repro.dist.worker:run_stage`` returns.

Run as a program, this file is the traced twin of ``python -m repro``::

    python benchmarks/e2e/trace.py OUT.json serve --port 0 --state-dir DIR
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: (span name, target). The span name's prefix is the layer it belongs to.
ENTRY_POINTS: list[tuple[str, str]] = [
    # spe: one span per fused-chain invocation; its self time is block
    # plumbing (tuple<->column conversion, scalar members, batching)
    ("spe.chain", "repro.spe.plan:FusedOperator.process"),
    ("spe.chain", "repro.spe.plan:FusedOperator.process_many"),
    ("spe.chain", "repro.spe.plan:VectorizedFusedOperator.process_many"),
    # core: the Alg. 1 operators, block and bulk variants only
    ("core.partition", "repro.core.operators:PartitionOperator.process_block"),
    ("core.detect", "repro.core.operators:DetectEventOperator.process_block"),
    ("core.detect", "repro.core.operators:DetectEventOperator.process_many"),
    # analysis: the numpy kernels core calls per specimen image
    ("analysis.kernel", "repro.core.functions:cell_means"),
    ("analysis.kernel", "repro.core.functions:masked_cell_means"),
    # clustering: one correlate call per (layer, specimen) window
    ("clustering.correlate", "repro.core.functions:DBSCANCorrelator.__call__"),
    ("clustering.dbscan", "repro.core.functions:dbscan"),
    ("clustering.summarize", "repro.core.functions:summarize_clusters"),
    # kvstore
    ("kvstore.put", "repro.kvstore.lsm:LSMStore.put"),
    ("kvstore.put", "repro.kvstore.lsm:LSMStore.write_batch"),
    ("kvstore.get", "repro.kvstore.lsm:LSMStore.get"),
    ("kvstore.put", "repro.kvstore.memory:MemoryStore.put"),
    ("kvstore.get", "repro.kvstore.memory:MemoryStore.get"),
    # recovery
    ("recovery.snapshot", "repro.recovery.coordinator:CheckpointCoordinator.on_node_snapshot"),
    ("recovery.commit", "repro.recovery.storage:CheckpointStorage.commit_manifest"),
    # pubsub: the broker's log, as the network server drives it
    ("pubsub.produce", "repro.pubsub.topic:Topic.append"),
    ("pubsub.poll", "repro.pubsub.log:PartitionLog.read"),
    # serde, on both ends of the wire
    ("serde.encode", "repro.net.server:encode_wire"),
    ("serde.decode", "repro.net.server:decode_wire"),
    ("serde.encode", "repro.net.client:encode_wire"),
    ("serde.decode", "repro.net.client:decode_wire"),
    # net: client round trips as the stage workers see them
    ("net.produce", "repro.net.client:RemoteProducer.send"),
    ("net.produce", "repro.net.client:RemoteProducer.send_batch"),
    # dist: root span of a forked stage worker
    ("dist.stage", "repro.dist.worker:run_stage"),
    # obs
    ("obs.snapshot", "repro.obs.context:ObsContext.snapshot"),
    # fleet control plane
    ("fleet.submit", "repro.fleet.service:FleetService.submit"),
    ("fleet.admit", "repro.fleet.admission:AdmissionController.decide"),
    ("fleet.transition", "repro.fleet.registry:JobRegistry.transition"),
    ("fleet.status", "repro.fleet.service:FleetService.get"),
    ("fleet.list", "repro.fleet.service:FleetService.list"),
    ("fleet.scrape", "repro.fleet.service:FleetService.prometheus"),
    ("fleet.build", "repro.fleet.runner:build_pipeline"),
    # thermal and am, inside fleet jobs
    ("thermal.estimate", "repro.thermal.estimator:EstimateThermalState.process_block"),
    ("thermal.reconstruct", "repro.thermal.reconstruct:ReconstructLaserParameters.__call__"),
    ("am.render", "repro.am.ot:OTImageRenderer.render"),
]


Summary = dict[str, dict[str, float]]  # span name -> calls, busy_s, self_s


class Tracer:
    """Installs the wrappers and owns the spans they record."""

    def __init__(self, out_path: Path) -> None:
        self._out_path = Path(out_path)
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        #: thread name -> that thread's spans, in start order; a span is
        #: [name, start, end, parent index within the same list or -1]
        self._threads: dict[str, list] = {}
        self._installed: list[str] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- installation --------------------------------------------------------

    def install(self, entry_points: list[tuple[str, str]] = ENTRY_POINTS) -> None:
        """Wrap every entry point; a target that does not resolve is an error."""
        for span_name, target in entry_points:
            module_name, _, path = target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, self._wrap(span_name, getattr(owner, attr)))
            self._installed.append(target)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            spans, stack = tracer._thread_state()
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if not stack and tracer._is_child_main_thread():
                    tracer.write()

        return traced

    def _thread_state(self) -> tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            thread = threading.current_thread()
            spans: list = []
            with self._lock:
                # names and idents are reused once a thread has ended
                self._threads[f"{thread.name}#{len(self._threads)}"] = spans
            state = self._local.state = (spans, [])
        return state

    # -- fork handling -------------------------------------------------------

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = {}

    def _is_child_main_thread(self) -> bool:
        return (
            os.getpid() != self._pid
            and threading.current_thread() is threading.main_thread()
        )

    # -- read-out ------------------------------------------------------------

    def _snapshot(self) -> dict[str, list]:
        with self._lock:
            return {name: list(spans) for name, spans in self._threads.items()}

    def summary(self) -> Summary:
        """Per span name: calls, busy seconds, self seconds (this process)."""
        return summarize(self._snapshot())

    def write(self) -> Path:
        """Write this process's spans; the forking parent's file has no suffix."""
        path = self._out_path
        if os.getpid() != self._pid:
            path = path.with_name(f"{path.stem}.{os.getpid()}{path.suffix}")
        threads = self._snapshot()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "pid": os.getpid(),
                    "entry_points": self._installed,
                    "span_fields": ["name", "start_s", "end_s", "parent_index"],
                    "summary": summarize(threads),
                    "threads": threads,
                },
                fh,
            )
        return path


def summarize(threads: dict[str, list]) -> Summary:
    """Aggregate spans by name; self time subtracts each span's children."""
    out: dict[str, dict[str, float]] = {}
    for spans in threads.values():
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0 and end:
                child_s[parent] += end - start
        for (name, start, end, _parent), children in zip(spans, child_s):
            if not end:
                continue  # still open when the snapshot was taken
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - children
    return out


def merge_summaries(summaries: list[Summary]) -> Summary:
    """Sum per-name aggregates of several processes."""
    out: Summary = {}
    for summary in summaries:
        for name, agg in summary.items():
            into = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]
    return out


def main(argv: list[str]) -> int:
    """``trace.py OUT.json <repro cli args...>``: the CLI with tracing on."""
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer(Path(argv[0]))
    tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    sys.exit(main(sys.argv[1:]))
