"""Stage workers: the child-process runtime and its parent-side handle.

:func:`run_stage` is a worker process's main: it reconnects the stage's
pub/sub connectors to the coordinator's broker server, restores its stages
from its newest epoch record, runs the stage nodes on a private
:class:`~repro.spe.scheduler.ThreadedScheduler` that commits an epoch every
:data:`EPOCH_INTERVAL_S` (:mod:`repro.dist.commits`), and heartbeats
liveness plus an observability snapshot back to the server while it runs.

:class:`WorkerProcess` is the coordinator-side handle. Workers are forked:
the coordinator's copies of the stage nodes never execute locally, so they
stay pristine in its memory, and a *restart* re-forks them — the
replacement restores node state and reader positions from the worker's
last committed epoch and resumes there; downstream dedup filters absorb
what the dead incarnation published after that commit, which is what
makes one worker restart invisible in the final output.
"""

from __future__ import annotations

import importlib
import logging
import multiprocessing
import os
import threading
import time
from typing import Any

from ..elastic import elastic_supervisor
from ..net.client import BrokerClient
from ..obs.context import ObsContext
from ..obs.exporters import snapshot_to_dict
from ..recovery.source import CheckpointableSource
from ..spe.engine import join, launch
from ..spe.plan import PlanConfig
from .commits import CommitLog, StageCommitter, commit_topic
from .stages import StageSpec, cut_stages

logger = logging.getLogger(__name__)

#: seconds between a worker's heartbeats (liveness + an obs snapshot)
HEARTBEAT_INTERVAL_S = 0.25

#: seconds between a worker's checkpoint epochs. The coordinator trims an
#: input topic only up to the last commit, so a topic retains about one
#: interval of layers plus the ones in flight: on a 2-core Xeon the
#: ``dist_shm_replay`` benchmark (~160 layers/s, 16 in flight) outgrew its
#: 64-slot ring at 0.25 s and spilled ~13 images/s; at 0.1 s it spills none.
EPOCH_INTERVAL_S = 0.1


def run_stage(
    stages: list[StageSpec],
    address: tuple[str, int],
    worker_name: str,
    allow_pickle: bool = True,
    plan: PlanConfig | None = None,
    incarnation: int = 0,
    elastic: Any | None = None,
    produce_batch: int = 1,
) -> None:
    """Execute one or more stages against a networked broker; blocking.

    This is the target of a worker process, but runs equally in the
    calling thread (the ``strata-repro worker`` CLI verb uses it
    directly). With ``elastic`` (an ``ElasticConfig``), stages containing
    keyed-replicated groups get their own rescale controller — each
    worker scales its replicas against its private scheduler; stages
    without such groups run unmanaged, which is the normal case for most
    stages of a cut pipeline. Every client opened here is closed on the
    way out, so the server is left holding none of this stage's sockets or
    slab leases.

    The stages resume from the newest record on their commit topic when
    there is one (a re-forked worker, or a hand-run one started again),
    and commit an epoch every :data:`EPOCH_INTERVAL_S`.
    """
    host, port = address
    client = BrokerClient(host, port, allow_pickle=allow_pickle)
    client.wait_ready(timeout=15.0)
    stage_names = [s.name for s in stages]
    readers = [reader for stage in stages for reader in stage.readers()]
    for stage in stages:
        for writer in stage.writers():
            writer.rebind(client, batch_size=produce_batch)
    for reader in readers:
        # The epoch record is the one commit; what an upstream incarnation
        # republished after its own commit is dropped here.
        reader.rebind(client, auto_commit=False, dedup=True)
    obs_ctx = ObsContext()
    nodes = [node for stage in stages for node in stage.nodes]
    for node in nodes:
        if node.kind == "source" and not hasattr(node.source, "request_barrier"):
            node.source = CheckpointableSource(node.source)
    commits = CommitLog(client, allow_pickle)
    committer = StageCommitter(
        stages, nodes, client, commits.poll().get(commit_topic(stages)),
        EPOCH_INTERVAL_S, allow_pickle,
    )

    stop_beat = threading.Event()
    state = {"value": "running"}

    def beat() -> None:
        client.heartbeat(
            worker_name,
            {
                "stages": stage_names,
                "pid": os.getpid(),
                "incarnation": incarnation,
                "state": state["value"],
                "resumed": committer.resumed,
            },
            snapshot_to_dict(obs_ctx.snapshot()),
        )

    def heartbeat_loop() -> None:
        while not stop_beat.is_set():
            try:
                beat()
                commits.poll()
            except Exception:  # the server vanished: nothing useful left to do
                return
            horizon = commits.horizon()
            for reader in readers:
                reader.forget_below(horizon)
            stop_beat.wait(HEARTBEAT_INTERVAL_S)

    beater = threading.Thread(
        target=heartbeat_loop, name=f"{worker_name}-heartbeat", daemon=True
    )
    try:
        supervise = elastic_supervisor(
            elastic, plan, obs=obs_ctx, checkpointer=committer.checkpointer,
            required=False,
        )
        scheduler, controller = launch(
            nodes, plan, obs_ctx, committer.checkpointer.on_node_snapshot, supervise
        )
        committer.checkpointer.start_periodic()
        beater.start()  # after launch: every beat carries the bound graph
        join(scheduler, controller)
        state["value"] = "done"
    except BaseException:
        state["value"] = "failed"
        raise
    finally:
        stop_beat.set()
        committer.checkpointer.stop()
        if beater.is_alive():
            beater.join(timeout=2.0)
        try:
            beat()  # the final state, with the final snapshot
        except Exception:
            pass
        # Not at end of stream: a reader's consumer outlives its last
        # record. (Writers closed their producers with their EOS broadcast.)
        for reader in readers:
            reader.close()
        committer.close()
        commits.close()
        client.close()


class WorkerProcess:
    """Coordinator-side handle on one (restartable) stage worker."""

    def __init__(
        self,
        name: str,
        stages: list[StageSpec],
        address: tuple[str, int],
        allow_pickle: bool = True,
        plan: PlanConfig | None = None,
        elastic: Any | None = None,
        produce_batch: int = 1,
    ) -> None:
        self.name = name
        self.stages = stages
        self.stage_names = [s.name for s in stages]
        self._address = address
        self._allow_pickle = allow_pickle
        self._plan = plan
        self._elastic = elastic
        self._produce_batch = produce_batch
        # Stage nodes carry closures and live generators; only fork can hand
        # them to a child. Spawn and other machines go through the
        # `strata-repro worker` CLI, which rebuilds the pipeline from source.
        self._ctx = multiprocessing.get_context("fork")
        self._process: multiprocessing.process.BaseProcess | None = None
        self.incarnation = 0
        self.restarts = 0
        self.finished = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._process = self._ctx.Process(
            target=run_stage,
            kwargs={
                "stages": self.stages,
                "address": self._address,
                "worker_name": self.name,
                "allow_pickle": self._allow_pickle,
                "plan": self._plan,
                "incarnation": self.incarnation,
                "elastic": self._elastic,
                "produce_batch": self._produce_batch,
            },
            name=self.name,
            daemon=True,
        )
        self._process.start()

    def restart(self) -> None:
        """Terminate any live incarnation and fork a fresh one."""
        self.restarts += 1
        self.terminate()
        self.incarnation += 1
        self.start()

    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def exitcode(self) -> int | None:
        return None if self._process is None else self._process.exitcode

    @property
    def pid(self) -> int | None:
        return None if self._process is None else self._process.pid

    def join(self, timeout: float | None = None) -> None:
        if self._process is not None:
            self._process.join(timeout)

    def kill(self) -> None:
        """Hard-kill the current incarnation (chaos/restart testing)."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)

    def terminate(self, timeout: float = 5.0) -> None:
        if self._process is None:
            return
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout)
            if self._process.is_alive():  # pragma: no cover - stubborn child
                self._process.kill()
                self._process.join(timeout)

    def status(self) -> dict[str, Any]:
        return {
            "stages": self.stage_names,
            "pid": self.pid,
            "alive": self.alive(),
            "exitcode": self.exitcode,
            "incarnation": self.incarnation,
            "restarts": self.restarts,
            "finished": self.finished,
        }


# -- CLI support -------------------------------------------------------------


def load_pipeline(ref: str):
    """Import ``module:callable`` and build its declared query's nodes.

    The callable must return a :class:`~repro.core.api.Strata` instance
    (or a bare :class:`~repro.spe.query.Query`) with the pipeline declared
    but not deployed. Every worker machine rebuilds the same pipeline from
    source — the network carries only records, never code.
    """
    module_name, sep, attr = ref.partition(":")
    if not sep or not attr:
        raise ValueError(f"pipeline reference must be 'module:callable', got {ref!r}")
    factory = getattr(importlib.import_module(module_name), attr)
    built = factory()
    return getattr(built, "query", built).build()


def run_worker_from_ref(
    pipeline_ref: str,
    stage_indexes: list[int],
    address: tuple[str, int],
    worker_name: str | None = None,
    allow_pickle: bool = True,
    list_stages: bool = False,
) -> int:
    """The ``strata-repro worker`` verb: rebuild, cut, run chosen stages."""
    from .stages import render_stages

    nodes = load_pipeline(pipeline_ref)
    stages = cut_stages(nodes)
    if list_stages:
        print(render_stages(stages))
        return 0
    chosen: list[StageSpec] = []
    for index in stage_indexes:
        if not 0 <= index < len(stages):
            raise ValueError(f"stage {index} out of range (pipeline has {len(stages)})")
        if stages[index].terminal:
            raise ValueError(
                f"stage {index} is terminal (delivers to an expert sink); "
                "it must run in the coordinator process"
            )
        chosen.append(stages[index])
    name = worker_name or f"worker-{'-'.join(str(i) for i in stage_indexes)}"
    started = time.monotonic()
    run_stage(chosen, address, worker_name=name, allow_pickle=allow_pickle)
    logger.info("worker %s finished in %.2fs", name, time.monotonic() - started)
    return 0
