"""The distributed coordinator: one deploy, many processes.

The coordinator owns the broker (served over TCP by
:class:`~repro.net.server.BrokerServer`), cuts the built query into stages
at the pub/sub connector edges, forks one worker process per stage group,
and runs the terminal stage — the one delivering to the expert's sinks —
in its own process so results land in the objects the user holds. That
stage reads the broker's logs in place (``BrokerServer.consumer``): the
records never leave the address space they already sit in.

Supervision is process-first: a worker that dies with a non-zero exit
code is re-forked from the coordinator's pristine copy of its stage (up
to ``restart_limit`` times); the replacement resumes from the worker's
last committed epoch (:mod:`repro.dist.commits`) and the content-key
dedup filters downstream keep the final output identical. Heartbeats
carry per-worker liveness and an observability snapshot, aggregated here
and exposed through the Prometheus exporter (``scrape_port``).

The coordinator also keeps the logs short. Every supervision tick it
reads each worker's newest epoch record and trims each connector topic
below the lowest position any of its readers committed; the terminal stage
is never re-forked, so what its readers have delivered counts as their
commit (its in-place reads copy out of the slab, so a delivered record may
go). A trimmed record takes its shm slab reference with it, so its slot is
reclaimed for free instead of spilled. The records' horizons tell the
terminal readers which content keys no restart can republish.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..core.connectors import EOS_SENTINEL
from ..core.errors import DeployConfigError
from ..elastic import ElasticConfig, elastic_plan, elastic_supervisor
from ..net.server import BrokerServer
from ..obs.exporters import snapshot_from_dict, to_prometheus, write_http_response
from ..obs.registry import MetricsSnapshot, Sample
from ..pubsub.broker import Broker
from ..pubsub.producer import Producer
from ..spe.engine import RunReport, join, launch, run_report
from ..spe.plan import PlanConfig, compile_plan
from ..spe.query import Query
from .commits import CommitLog, commit_topic, record_positions
from .stages import StageSpec, assign_stages, cut_stages
from .worker import WorkerProcess

logger = logging.getLogger(__name__)

#: how long shutdown waits for a worker to exit before terminating it
WORKER_JOIN_TIMEOUT_S = 60.0


class DistError(Exception):
    """A distributed deployment failed (worker death past the restart budget)."""


@dataclass
class DistConfig:
    """Knobs for a distributed deployment.

    ``workers``             worker process count (None = one per remote stage).
    ``allow_pickle``        enable pickle frames on the loopback links; the
                            runtime owns both endpoints, so this is the
                            trusted-path default (standalone servers default
                            to refusing pickle).
    ``restart_limit``       automatic re-forks per worker before giving up.
    ``scrape_port``         serve aggregated metrics over HTTP (None = off,
                            0 = ephemeral port).
    ``transport``           payload transport: ``"tcp"`` (payloads in frames)
                            or ``"shm"`` (ndarray payloads in a shared-memory
                            slab ring; frames carry handles — the fast path
                            when every worker shares the machine).
    ``shm_slots``           slab count of the shm ring.
    ``shm_slab_bytes``      byte size of each slab (must fit the largest
                            payload array; bigger arrays ride inline).
    ``produce_batch``       max tuples per produce frame: a writer sink
                            buffers up to this many (never past the end of
                            its input's ready run) and publishes them in one
                            ``produce_batch`` frame, same-layer runs as one
                            block record (1 = one send per tuple).
    """

    workers: int | None = None
    host: str = "127.0.0.1"
    port: int = 0
    allow_pickle: bool = True
    restart_limit: int = 2
    scrape_port: int | None = None
    transport: str = "tcp"
    shm_slots: int = 64
    shm_slab_bytes: int = 40 * 1024 * 1024
    produce_batch: int = 1

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "shm"):
            raise ValueError(
                f"unknown transport {self.transport!r} (known: shm, tcp)"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.restart_limit < 0:
            raise ValueError("restart_limit must be >= 0")
        for name in ("shm_slots", "shm_slab_bytes", "produce_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("port", "scrape_port"):
            port = getattr(self, name)
            if port is not None and not 0 <= port <= 65535:
                raise ValueError(f"{name} must be in 0-65535")

    @classmethod
    def resolve(cls, value: Any) -> "DistConfig | None":
        """Normalize the ``dist`` field of a ``DeployConfig``."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, int):
            if value < 1:
                raise ValueError("distributed worker count must be >= 1")
            return cls(workers=value)
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"distributed must be bool, int or DistConfig, got {value!r}"
        )


class DistCoordinator:
    """Runs one built query across worker processes; see module docstring."""

    def __init__(
        self,
        query: Query,
        broker: Broker,
        config: DistConfig | None = None,
        obs: Any | None = None,
        plan: Any | None = None,
        elastic: Any | None = None,
    ) -> None:
        self._query = query
        self._broker = broker
        self._config = config if config is not None else DistConfig()
        self._obs = obs
        self._plan = PlanConfig.resolve(plan)
        self._elastic = ElasticConfig.resolve(elastic)
        if self._elastic is not None and self._plan is None:
            raise DeployConfigError(
                "elastic rescaling drains and re-splices plan-compiled replica "
                "groups; distribute with plan=True (or a PlanConfig) alongside "
                "elastic="
            )
        self._server = BrokerServer(
            broker,
            self._config.host,
            self._config.port,
            allow_pickle=self._config.allow_pickle,
            transport=self._config.transport,
            transport_options={
                "slots": self._config.shm_slots,
                "slab_bytes": self._config.shm_slab_bytes,
            },
        )
        self._commits = CommitLog(broker, self._config.allow_pickle)
        self._stages: list[StageSpec] = []
        self._local_stages: list[StageSpec] = []
        self._workers: list[WorkerProcess] = []
        self._monitor: threading.Thread | None = None
        self._done = threading.Event()
        self._failure: str | None = None
        self._failure_lock = threading.Lock()
        self._final_beats: dict[str, dict] | None = None
        self._scrape_server: Any | None = None
        self._started = False
        self._stopped = False

    # -- introspection ------------------------------------------------------

    @property
    def stages(self) -> list[StageSpec]:
        return list(self._stages)

    @property
    def workers(self) -> list[WorkerProcess]:
        return list(self._workers)

    @property
    def server(self) -> BrokerServer:
        return self._server

    @property
    def address(self) -> tuple[str, int]:
        return self._server.address

    @property
    def scrape_address(self) -> tuple[str, int] | None:
        if self._scrape_server is None:
            return None
        return self._scrape_server.server_address[:2]

    def status(self) -> dict[str, Any]:
        """Cluster status: stages, workers, restarts, failures, the slab ring."""
        readers = self._local_readers()
        transport = self._server.transport.stats()
        return {
            "stages": [stage.describe() for stage in self._stages],
            "workers": {worker.name: worker.status() for worker in self._workers},
            "restarts": sum(worker.restarts for worker in self._workers),
            "failure": self._failure,
            "duplicates_suppressed_local": sum(
                reader.duplicates_suppressed for reader in readers
            ),
            "dedup_keys_local": sum(reader.dedup_keys for reader in readers),
            "transport": {
                key: transport.get(key, 0)
                for key in (
                    "slabs_spilled", "slabs_materialized", "spill_bytes",
                    "spill_file_bytes",
                )
            },
        }

    def _local_readers(self) -> list:
        return [reader for stage in self._local_stages for reader in stage.readers()]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Cut stages, start the server and the workers; returns the address."""
        if self._started:
            raise RuntimeError("coordinator already started")
        self._started = True
        # With elastic enabled every replicable keyed stage materializes
        # rescalable in its worker.
        compile_cfg, forced = elastic_plan(self._plan, self._elastic)
        nodes = compile_plan(self._query.build(), compile_cfg, force_replication=forced)
        self._stages = cut_stages(nodes)
        groups, self._local_stages = assign_stages(
            self._stages, self._config.workers
        )
        address = self._server.start()
        # The terminal stage is never re-forked, so it commits nothing; it
        # drops what a restarted worker republishes. It attaches to the
        # server in-process, which reads the logs in place and resolves
        # transport-internal payload refs (shm SlabRefs).
        for reader in self._local_readers():
            reader.rebind(self._server, auto_commit=False, dedup=True)
        self._workers = [
            WorkerProcess(
                f"worker-{i}",
                group,
                address,
                allow_pickle=self._config.allow_pickle,
                plan=self._plan,
                elastic=self._elastic,
                produce_batch=self._config.produce_batch,
            )
            for i, group in enumerate(groups)
        ]
        for worker in self._workers:
            worker.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="dist-monitor", daemon=True
        )
        self._monitor.start()
        if self._config.scrape_port is not None:
            self._start_scrape(self._config.scrape_port)
        logger.info(
            "distributed deployment: %d stage(s), %d worker(s) at %s:%d",
            len(self._stages), len(self._workers), *address,
        )
        return address

    def run(self) -> RunReport:
        """Start (if needed), run the terminal stage to completion, report.

        A failed start or a raising terminal stage stops the workers, the
        server (and its shm ring) and the monitor before the error
        propagates.
        """
        try:
            if not self._started:
                self.start()
            nodes = [node for stage in self._local_stages for node in stage.nodes]
            supervise = elastic_supervisor(
                self._elastic, self._plan, obs=self._obs, required=False
            )
            started = time.monotonic()
            scheduler, controller = launch(nodes, self._plan, self._obs, supervise=supervise)
            join(scheduler, controller)
            wall = time.monotonic() - started
        except BaseException:
            self.stop()
            raise
        self.shutdown()
        if self._failure is not None:
            raise DistError(self._failure)
        report = run_report(
            self._query.name, scheduler.stats(), nodes, wall,
            self._plan, self._obs, controller,
        )
        report.extra["dist"] = self.status()
        worker_metrics = self.worker_metrics()
        if worker_metrics:
            report.extra["worker_metrics"] = worker_metrics
        return report

    def shutdown(self) -> None:
        """Join/terminate workers, capture final heartbeats, stop serving."""
        self._finish(abort=False)

    def stop(self) -> None:
        """Abort: terminate workers immediately and stop serving."""
        self._finish(abort=True)

    def _finish(self, abort: bool) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._done.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        for worker in self._workers:
            if abort:
                worker.terminate(timeout=1.0)
                continue
            worker.join(WORKER_JOIN_TIMEOUT_S)
            if worker.alive():
                logger.warning("terminating straggler %s", worker.name)
                worker.terminate()
            elif worker.exitcode == 0:
                worker.finished = True
        self._trim()
        self._commits.close()
        self._final_beats = self._server.workers()
        if self._scrape_server is not None:
            self._scrape_server.shutdown()
            self._scrape_server.server_close()
        if self._server.stop() and not abort:
            logger.warning("broker server stop() hit its drain deadline")

    # -- supervision ----------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._done.wait(0.1):
            try:
                self._trim()
            except Exception:  # never let the log upkeep stop supervision
                logger.exception("trimming the connector logs failed")
            for worker in self._workers:
                if worker.finished or worker.alive():
                    continue
                code = worker.exitcode
                if code is None:
                    continue  # between incarnations
                if code == 0:
                    worker.finished = True
                elif worker.restarts < self._config.restart_limit:
                    logger.warning(
                        "worker %s died (exit %s); restarting (attempt %d/%d)",
                        worker.name, code,
                        worker.restarts + 1, self._config.restart_limit,
                    )
                    worker.restart()
                else:
                    self._fail(
                        f"worker {worker.name} exited with code {code} after "
                        f"{worker.restarts} restart(s)"
                    )

    def _trim(self) -> None:
        """Trim each log to its readers' commits; pass the horizons on.

        A worker that exited cleanly read its inputs to the end and is
        never re-forked; one that has not committed yet holds its inputs
        from offset 0. A terminal reader's delivered position is its commit.
        """
        records = self._commits.poll()
        floor: dict[tuple[str, int], int] = {}
        for worker in self._workers:
            record = records.get(commit_topic(worker.stages))
            committed = {} if record is None else record_positions(record)
            for topic in {t for stage in worker.stages for t in stage.input_topics}:
                for partition in range(self._broker.partitions(topic)):
                    key = (topic, partition)
                    if worker.finished:
                        position = self._broker.offsets(topic, partition)[1]
                    else:
                        position = committed.get(key, 0)
                    floor[key] = min(floor.get(key, position), position)
        readers = self._local_readers()
        for reader in readers:
            for topic, partition, delivered in reader.offsets():
                key = (topic, partition)
                floor[key] = min(floor.get(key, delivered), delivered)
        for (topic, partition), before in floor.items():
            self._broker.trim(topic, partition, before)
        horizon = self._commits.horizon()
        for reader in readers:
            reader.forget_below(horizon)

    def _fail(self, reason: str) -> None:
        """Record the first failure and unwedge every blocked reader."""
        with self._failure_lock:
            if self._failure is not None:
                return
            self._failure = reason
        logger.error("distributed deployment failed: %s", reason)
        # Readers block waiting for records that will never come; push the
        # end-of-stream sentinel into every stage input so the pipeline
        # drains and run() can surface the failure instead of hanging.
        producer = Producer(self._broker)
        topics = {
            topic for stage in self._stages for topic in stage.input_topics
        }
        for topic in sorted(topics):
            for partition in range(producer.partitions_of(topic)):
                producer.send(topic, EOS_SENTINEL, partition=partition)

    # -- metrics aggregation ---------------------------------------------------

    def worker_beats(self) -> dict[str, dict]:
        """Latest heartbeat per worker (final ones after shutdown)."""
        if self._final_beats is not None:
            return dict(self._final_beats)
        return self._server.workers()

    def worker_metrics(self) -> dict[str, MetricsSnapshot]:
        """Per-worker metrics snapshots parsed from the heartbeats."""
        out: dict[str, MetricsSnapshot] = {}
        for name, beat in self.worker_beats().items():
            payload = beat.get("metrics")
            if payload:
                out[name] = snapshot_from_dict(payload)
        return out

    def cluster_snapshot(self) -> MetricsSnapshot:
        """One snapshot over the whole deployment, samples labeled by worker."""
        samples: list[Sample] = []

        def tagged(snapshot: MetricsSnapshot, worker: str) -> None:
            for s in snapshot.samples:
                labels = tuple(sorted(s.labels + (("worker", worker),)))
                samples.append(Sample(s.name, labels, s.value, s.kind))

        if self._obs is not None:
            tagged(self._obs.snapshot(), "coordinator")
        for name, snapshot in self.worker_metrics().items():
            tagged(snapshot, name)
        return MetricsSnapshot(wall_time=time.time(), samples=samples)

    def _start_scrape(self, port: int) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        coordinator = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"  # keep-alive for a polling scraper

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?")[0] not in ("/", "/metrics"):
                    self.send_error(404)
                    return
                body = to_prometheus(coordinator.cluster_snapshot()).encode("utf-8")
                write_http_response(
                    self, 200, "text/plain; version=0.0.4; charset=utf-8", body
                )

            def log_message(self, *args: Any) -> None:  # silence per-request spam
                pass

        self._scrape_server = ThreadingHTTPServer((self._config.host, port), Handler)
        threading.Thread(
            target=self._scrape_server.serve_forever,
            name="dist-scrape",
            daemon=True,
        ).start()
