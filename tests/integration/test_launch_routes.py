"""Every deploy route of one small pipeline reports the same contract.

Sync ``run``, threaded ``deploy``, ``start`` + ``wait``, elastic
``deploy`` and distributed ``deploy`` all start, supervise, join and
report a compiled graph. Each route must name the same operators and
sinks it always did, time a positive wall and carry exactly its own
``extra`` keys; the three configurations no route accepts must fail
before anything runs.
"""

import pytest

from repro.core import DeployConfig, Strata
from repro.core.errors import DeployConfigError
from repro.dist import DistConfig
from repro.elastic import ElasticConfig
from repro.spe import CollectingSink, ListSource, PlanError
from repro.spe.tuples import StreamTuple

N_RECORDS = 48

#: the control loop never ticks inside these short runs
ELASTIC = ElasticConfig(max_parallelism=2, tick_s=60.0)

FUSED = "fused[partition:parts+partition:cells+depunct:cells:0]"
DECLARED = {
    "source:raw", "partition:parts", "partition:cells", "depunct:cells:0",
    "sink:out:0",
}
REPLICATED = {
    "partition:parts", "partition:cells::router", "partition:cells::0",
    "partition:cells::merge", "depunct:cells:0", "sink:out:0",
}


def records(n=N_RECORDS):
    return [
        StreamTuple(tau=float(i), job="j", layer=i // 8, payload={"v": i})
        for i in range(n)
    ]


def assign(t):
    return [t.derive(specimen=f"s{t.payload['v'] % 3}", portion="p0")]


def mark(t):
    return [t.derive(payload={**t.payload, "c": t.payload["v"] * 2})]


def build(**strata_kwargs):
    """source -> partition(assign) -> partition(mark) -> sink; the second
    partition is keyed downstream of the first, so it is replicable."""
    strata = Strata(**strata_kwargs)
    sink = CollectingSink("out")
    strata.add_source(ListSource("src", records()), "raw")
    strata.partition("raw", "parts", assign)
    strata.partition("parts", "cells", mark)
    strata.deliver("cells", sink)
    return strata, sink


ROUTES = {
    # name: (Strata kwargs, DeployConfig, operator names, extra keys)
    "sync": (
        dict(engine_mode="sync", obs=True), DeployConfig(plan=True),
        {"source:raw", FUSED, "sink:out:0"}, {"plan", "metrics"},
    ),
    "sync-declared": (
        dict(engine_mode="sync"), None, DECLARED, set(),
    ),
    "threaded": (
        dict(obs=True), DeployConfig(plan=True),
        {"source:raw", FUSED, "sink:out:0"}, {"plan", "metrics"},
    ),
    "threaded-declared": (dict(), None, DECLARED, set()),
    "elastic": (
        dict(obs=True), DeployConfig(plan=True, elastic=ELASTIC),
        {"source:raw"} | REPLICATED, {"plan", "elastic", "metrics"},
    ),
    "dist": (
        dict(connector_mode="pubsub", obs=True),
        DeployConfig(plan=True, dist=DistConfig(workers=1)),
        {"bridge:raw:event-monitor", FUSED, "sink:out:0"},
        {"dist", "plan", "metrics", "worker_metrics"},
    ),
    # the worker's stage (source -> writer) has nothing to manage and runs
    # unmanaged; the coordinator's terminal stage holds the replica group
    "dist-elastic": (
        dict(connector_mode="pubsub", obs=True),
        DeployConfig(plan=True, dist=DistConfig(workers=1), elastic=ELASTIC),
        {"bridge:raw:event-monitor"} | REPLICATED,
        {"dist", "elastic", "plan", "metrics", "worker_metrics"},
    ),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_deploy_route_reports_its_contract(route):
    strata_kwargs, config, operators, extra = ROUTES[route]
    strata, sink = build(**strata_kwargs)
    report = strata.deploy(config)
    assert set(report.operator_stats) == operators
    assert set(report.sinks) == {"sink:out:0"}
    assert report.sinks["sink:out:0"] is sink
    assert report.wall_seconds > 0
    assert set(report.extra) == extra
    assert len(sink.results) == N_RECORDS
    assert not strata.running()


@pytest.mark.parametrize("elastic", [None, ELASTIC], ids=["plain", "elastic"])
def test_start_then_wait_delivers_everything(elastic):
    strata, sink = build(obs=True)
    sinks = strata.start(DeployConfig(plan=True, elastic=elastic))
    assert set(sinks) == {"sink:out:0"} and sinks["sink:out:0"] is sink
    assert (strata.elastic is not None) == (elastic is not None)
    strata.wait(timeout=60)
    assert not strata.running()
    assert strata.elastic is None
    assert len(sink.results) == N_RECORDS


def test_elastic_with_nothing_to_manage_raises_and_leaves_nothing_running():
    strata = Strata()
    sink = CollectingSink("out")
    strata.add_source(ListSource("src", records(4)), "raw")
    strata.deliver("raw", sink)
    with pytest.raises(PlanError, match="no keyed-replicated operator group"):
        strata.deploy(DeployConfig(plan=True, elastic=ELASTIC))
    assert not strata.running()
    assert strata.elastic is None


def test_elastic_on_the_sync_engine_is_refused():
    strata, _ = build(engine_mode="sync")
    with pytest.raises(DeployConfigError, match="threaded"):
        strata.deploy(DeployConfig(plan=True, elastic=ELASTIC))


def test_start_refuses_distributed():
    strata, _ = build(connector_mode="pubsub")
    with pytest.raises(DeployConfigError, match="deploy"):
        strata.start(DeployConfig(dist=1))
    assert not strata.running()
