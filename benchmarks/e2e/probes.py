"""Micro-probes: one layer's public operation, timed alone from outside.

Each probe belongs to the one workload whose end-to-end number its layer
should move (see ``PROBES`` at the bottom and the README's interaction list)
and runs in that workload's traced run, after the measured slices. A probe
reports the median of its repetitions, so one scheduler hiccup does not
decide it.
"""

from __future__ import annotations

import itertools
import shutil
import statistics
import time
from typing import Callable

import numpy as np
import reference
import workloads
from loadgen import Build

from repro.core import DeployConfig, Strata, UseCaseConfig, build_use_case
from repro.kvstore import LSMStore
from repro.net import BrokerClient, BrokerServer
from repro.pubsub import Broker, Consumer, Producer
from repro.serde import decode_wire, encode_wire
from repro.spe.columnar import ColumnarBlock
from repro.spe.tuples import StreamTuple


def _median_us(fn: Callable[[], object], repeats: int) -> float:
    """Median microseconds of ``fn`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return 1e6 * statistics.median(samples)


def _ot_tuple(image_px: int) -> StreamTuple:
    """One OT-image tuple as the collector emits it."""
    image = np.random.default_rng(0).random((image_px, image_px))
    return StreamTuple(tau=0.0, job="probe", layer=0, payload={"image": image})


def spe_and_am(seed: int) -> dict[str, float]:
    """Columnar round trip, single-threaded baseline, and layer rendering."""
    spec = workloads.REPLAY
    started = time.perf_counter()
    build = Build(spec.image_px, 6, seed, spec.defect_rate)
    render_ms = 1e3 * (time.perf_counter() - started) / len(build.records)

    rows = [
        StreamTuple(float(i), "probe", i, {"mean_intensity": 0.5 * i, "center_y_px": 1.0},
                    specimen="S00", portion=f"0:{i}")
        for i in range(4096)
    ]
    roundtrip_us = _median_us(lambda: ColumnarBlock.from_tuples(rows).to_tuples(), 15)

    # the same job on one thread: what parallel stages and queues buy or cost
    layers = 8
    records = list(itertools.islice(build.replay(), layers))
    config = UseCaseConfig(
        image_px=spec.image_px, cell_edge_px=spec.cell_edge_px,
        window_layers=spec.window_layers,
    )
    strata = Strata(engine_mode="sync")
    build_use_case(iter(records), iter(records), config, strata=strata)
    reference.calibrate(strata, build, config)
    started = time.perf_counter()
    strata.deploy(DeployConfig(plan=True))
    return {
        "am.render_layer_ms": render_ms,
        "spe.columnar_roundtrip_us": roundtrip_us / len(rows),
        "spe.sync_baseline_items_per_s": layers / (time.perf_counter() - started),
    }


def kvstore_lsm(seed: int) -> dict[str, float]:
    """Put and get of a checkpoint-sized value on a fresh LSM store."""
    state_dir = workloads.scratch_dir("probe-lsm-")
    store = LSMStore(state_dir)
    try:
        value = {"events": list(range(256)), "layer": 7}
        keys = [f"probe/{i:05d}" for i in range(400)]
        puts = iter(keys)
        put_us = _median_us(lambda: store.put(next(puts), value), len(keys))
        gets = iter(keys)
        get_us = _median_us(lambda: store.get(next(gets)), len(keys))
    finally:
        store.close()
        shutil.rmtree(state_dir, ignore_errors=True)
    return {"kvstore.lsm_put_us": put_us, "kvstore.lsm_get_us": get_us}


def _loopback_roundtrip_ms(transport: str, record: StreamTuple, repeats: int = 40) -> float:
    """Produce one OT record to a loopback BrokerServer and fetch it back."""
    image_bytes = record.payload["image"].nbytes
    server = BrokerServer(
        Broker(), allow_pickle=True, transport=transport,
        transport_options={"slots": 8, "slab_bytes": image_bytes + (1 << 20)}
        if transport == "shm" else None,
    )
    host, port = server.start()
    client = BrokerClient(host, port, allow_pickle=True)
    try:
        client.wait_ready(timeout=15.0)
        client.ensure_topic("probe-ot")
        producer = client.producer()
        consumer = client.consumer("probe", ["probe-ot"])

        def roundtrip() -> None:
            producer.send("probe-ot", record)
            while not consumer.poll(max_records=1, timeout=1.0):
                pass

        return _median_us(roundtrip, repeats) / 1e3
    finally:
        client.close()
        server.stop()


def wire(seed: int) -> dict[str, float]:
    """pubsub, serde and net cost of one OT record (500 px, as dist_shm_replay)."""
    record = _ot_tuple(workloads.DIST.image_px)
    blob = encode_wire(record)

    broker = Broker()
    broker.ensure_topic("probe-ot")
    producer = Producer(broker)
    consumer = Consumer(broker, "probe", ["probe-ot"])

    def produce_poll() -> None:
        producer.send("probe-ot", record)
        consumer.poll(max_records=1)

    return {
        "pubsub.produce_poll_us": _median_us(produce_poll, 2000),
        "serde.encode_ot_tuple_us": _median_us(lambda: encode_wire(record), 40),
        "serde.decode_ot_tuple_us": _median_us(lambda: decode_wire(blob), 40),
        "serde.bytes_per_ot_tuple": len(blob),
        "net.tcp_roundtrip_ms": _loopback_roundtrip_ms("tcp", record),
        "net.shm_roundtrip_ms": _loopback_roundtrip_ms("shm", record),
    }


#: workload -> probes run in its traced run
PROBES: dict[str, list[Callable[[int], dict[str, float]]]] = {
    "replay_saturated": [spe_and_am],
    "live_paced_dense": [kvstore_lsm],
    "dist_shm_replay": [wire],
}
