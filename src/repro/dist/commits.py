"""Epoch records: how a dist worker commits its stages, and who reads them.

A worker checkpoints its stages with :mod:`repro.recovery`'s aligned
barriers (the protocol an in-process deployment runs with ``recovery=``)
into a private in-memory store, one epoch every few layers
(:data:`repro.dist.worker.EPOCH_INTERVAL_S`).
Each committed epoch becomes **one record** on the worker's commit topic
(:func:`commit_topic`, retention 1, so the broker keeps only the newest),
written through the ordinary produce path::

    {"epoch": e, "manifest": {...}, "nodes": {name: state},
     "sources": {name: position}, "horizon": [[topic, partition, offset], ...]}

``sources`` holds every source's replay position at the barrier (broker
offsets for a connector reader, a tuple count for a raw collector);
``nodes`` every stateful node's snapshot, the writer sinks' acked end
offsets among them. The record is the worker's only commit: consumer
groups commit nothing, so no second position can disagree with it.

Three readers act on it:

* a re-forked worker (:class:`StageCommitter`) restores its stages from
  its own newest record and seeks its readers to the positions in it;
* the coordinator trims each connector topic below what every stage
  reading it has committed (:func:`record_positions`);
* every deduplicating reader forgets the content keys of records below
  ``horizon``: the offset up to which the producing stage's output is
  final. A restarted stage republishes what it produced after its
  commit, so its horizon holds at the restored value until its own
  commits have passed every input its dead incarnation could have read
  (:meth:`StageCommitter._horizon`).
"""

from __future__ import annotations

import logging
import math
from typing import Any

from ..core.connectors import PubSubWriterSink
from ..kvstore.memory import MemoryStore
from ..recovery.coordinator import CheckpointCoordinator
from ..recovery.recover import RecoveryCoordinator
from ..recovery.source import KIND_PUBSUB
from ..recovery.storage import CheckpointStorage
from ..serde import SerdeError, decode_value, encode_value
from ..spe.operators.router import hash_route
from ..spe.query import Node
from .stages import StageSpec

logger = logging.getLogger(__name__)

#: commit topics share this prefix; connector topics never carry it
COMMIT_PREFIX = "strata.__commit__."


def commit_topic(stages: list[StageSpec]) -> str:
    """The topic a worker running ``stages`` commits its epochs to."""
    return COMMIT_PREFIX + "+".join(stage.name for stage in stages)


def record_positions(record: dict[str, Any]) -> dict[tuple[str, int], int]:
    """Committed read position per ``(topic, partition)`` of a record's readers.

    Two readers of one partition in one worker commit the lower of the two.
    """
    out: dict[tuple[str, int], int] = {}
    for position in record["sources"].values():
        if position.get("kind") != KIND_PUBSUB:
            continue
        for topic, partition, offset in position["offsets"]:
            key = (topic, int(partition))
            out[key] = min(out.get(key, int(offset)), int(offset))
    return out


class CommitLog:
    """The newest epoch record of every worker, read off a broker.

    ``broker`` is broker-shaped (``topics()`` plus ``consumer()``): the
    coordinator's in-process broker or a worker's network client. One
    consumer follows every commit topic; retention 1 means a poll returns
    at most the newest record of each.
    """

    def __init__(self, broker: Any, allow_pickle: bool = True) -> None:
        self._broker = broker
        self._allow_pickle = allow_pickle
        self._consumer = broker.consumer("strata-commit-log", auto_commit=False)
        self._topics: list[str] = []
        self._latest: dict[str, dict[str, Any]] = {}

    def poll(self) -> dict[str, dict[str, Any]]:
        """Commit topic -> its newest record, as far as the broker has them."""
        topics = [t for t in self._broker.topics() if t.startswith(COMMIT_PREFIX)]
        if topics != self._topics:
            self._topics = topics
            self._consumer.assign([(topic, 0) for topic in topics])
        for message in self._consumer.poll():
            self._latest[message.topic] = decode_value(message.value, self._allow_pickle)
        return self._latest

    def horizon(self) -> list[list]:
        """Every committed ``[topic, partition, offset]`` output horizon."""
        return [entry for record in self._latest.values() for entry in record["horizon"]]

    def close(self) -> None:
        self._consumer.close()


class StageCommitter:
    """One worker's epochs: restore from its record, cut, publish.

    Built after the stage's connectors are bound to ``client`` and every
    source is barrier-capable, before the nodes launch. ``record`` is the
    worker's newest epoch record (None on a first start); ``interval`` the
    seconds between epochs.
    """

    def __init__(
        self,
        stages: list[StageSpec],
        nodes: list[Node],
        client: Any,
        record: dict[str, Any] | None,
        interval: float,
        allow_pickle: bool = True,
    ) -> None:
        self.topic = commit_topic(stages)
        self._stages = stages
        self._allow_pickle = allow_pickle
        self._warned = False
        storage = CheckpointStorage(MemoryStore())
        self.resumed: dict[str, Any] | None = None
        restored: list[list] = []
        if record is not None:
            _seed(storage, record, _fit_replicas(record["nodes"], nodes))
            RecoveryCoordinator(storage).restore(nodes)
            restored = record["horizon"]
            self.resumed = {
                "epoch": record["epoch"],
                "offsets": sorted(
                    [t, p, o] for (t, p), o in record_positions(record).items()
                ),
            }
        self._restored = restored
        self._fences = {
            stage.name: _fence(stage, client, restored) for stage in stages
        }
        client.ensure_topic(self.topic, retention=1)
        self._producer = client.producer()
        self.checkpointer = CheckpointCoordinator(
            storage,
            interval=interval,
            retain=1,
            on_epoch_committed=self._publish,
        )
        self.checkpointer.bind(nodes)

    def _publish(self, epoch: int) -> None:
        """Write the committed epoch as one record (the checkpointer's callback)."""
        storage = self.checkpointer.storage
        manifest = storage.load_manifest(epoch)
        record = {
            "epoch": epoch,
            "manifest": manifest,
            "nodes": {n: storage.load_node_state(epoch, n) for n in manifest["nodes"]},
            "sources": {
                n: storage.load_source_position(epoch, n) for n in manifest["sources"]
            },
        }
        record["horizon"] = self._horizon(record)
        try:
            blob = encode_value(record, self._allow_pickle)
        except SerdeError as exc:  # state that needs pickle, with pickle off
            if not self._warned:
                self._warned = True
                logger.warning(
                    "%s: epochs are not committed: the stage state needs "
                    "pickle (allow_pickle) (%s)", self.topic, exc,
                )
            return
        self._producer.send(self.topic, blob)

    def _horizon(self, record: dict[str, Any]) -> list[list]:
        """Each writer's committed output offsets, or the restored ones while fenced."""
        positions = record_positions(record)
        out = []
        for stage in self._stages:
            fence = self._fences[stage.name]
            if fence is not None and all(
                positions.get(key, -1) >= end for key, end in fence.items()
            ):
                fence = self._fences[stage.name] = None
            for node in _writer_nodes(stage):
                topic = node.sink.topic
                if fence is not None:
                    out.extend(e for e in self._restored if e[0] == topic)
                    continue
                state = record["nodes"].get(node.name) or {"acked": []}
                out.extend([topic, p, offset] for p, offset in state["acked"])
        return out

    def close(self) -> None:
        self.checkpointer.stop()
        self._producer.close()


def _seed(
    storage: CheckpointStorage, record: dict[str, Any], states: dict[str, Any]
) -> None:
    """Write a record back as the committed epoch it was cut from."""
    epoch = record["epoch"]
    for name, state in states.items():
        storage.save_node_state(epoch, name, state)
    for name, position in record["sources"].items():
        storage.save_source_position(epoch, name, position)
    storage.commit_manifest(epoch, {**record["manifest"], "nodes": sorted(states)})


def _fit_replicas(states: dict[str, Any], nodes: list[Node]) -> dict[str, Any]:
    """A record's node states, replica groups re-sharded onto ``nodes``.

    A worker's elastic controller may have rescaled a group before the
    commit (its replicas snapshot as ``member::i``); the re-forked worker
    starts the group at the plan's count, so the states are re-sharded to
    it the way a rescale re-shards them.
    """
    out = dict(states)
    for node in nodes:
        meta = getattr(node, "rescale_meta", None)
        if meta is None:
            continue
        shards = node.router.num_shards
        for member, factory in zip(meta.members, meta.factories):
            held = [
                int(index) for name in states
                for base, _, index in [name.rpartition("::")] if base == member
            ]
            if not held or max(held) + 1 == shards:
                continue
            old = [out.pop(f"{member}::{i}", None) for i in range(max(held) + 1)]
            new = factory().reshard_state(old, shards, lambda k: hash_route(k, shards))
            out.update(
                (f"{member}::{i}", state) for i, state in enumerate(new) if state is not None
            )
    return out


def _writer_nodes(stage: StageSpec) -> list[Node]:
    return [
        node for node in stage.nodes
        if node.kind == "sink" and isinstance(node.sink, PubSubWriterSink)
    ]


def _fence(
    stage: StageSpec, client: Any, restored: list[list]
) -> dict[tuple[str, int], float] | None:
    """What a stage's commits must reach before its horizon may move, or None.

    A stage whose output holds nothing past its restored horizon starts
    fresh. Otherwise a dead incarnation published past the commit, and its
    records are final only once this incarnation has committed past every
    input that one could have read: each input partition's end as of now.
    A raw collector's reach cannot be told, so its stage's horizon stays.
    """
    committed = {(t, int(p)): int(o) for t, p, o in restored}
    republished = any(
        end > committed.get((node.sink.topic, int(p)), 0)
        for node in _writer_nodes(stage)
        for p, end in _ends(client, node.sink.topic)
    )
    if not republished:
        return None
    if len(stage.readers()) < sum(node.kind == "source" for node in stage.nodes):
        return {("raw collector", -1): math.inf}
    return {
        (topic, int(p)): end for topic in stage.input_topics for p, end in _ends(client, topic)
    }


def _ends(client: Any, topic: str) -> list[tuple[int, int]]:
    """``(partition, end offset)`` pairs of a topic, created if it is not yet."""
    client.ensure_topic(topic)
    return list(client.end_offsets(topic).items())
