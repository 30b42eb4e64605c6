"""Shared fixtures: small deterministic workloads and stores."""

from __future__ import annotations

import collections
import http.client
import statistics
import time

import pytest

from repro.am import BuildDataset, OTImageRenderer, make_job
from repro.kvstore import MemoryStore
from repro.spe.stream import TupleBatch

# Small-but-real geometry: full 12-specimen plate at a coarse sensor
# resolution keeps a layer render around a millisecond.
TEST_IMAGE_PX = 250


def keepalive_median_ms(host: str, port: int, path: str, rounds: int = 20) -> float:
    """Median wall time of ``rounds`` GETs over one kept-alive connection.

    A response sent as headers, then body, in two writes waits ~40 ms on
    each round trip (Nagle's algorithm against the client's delayed ACK);
    one write answers in about a millisecond on loopback.
    """
    conn = http.client.HTTPConnection(host, port, timeout=10)
    times, local_ends = [], set()
    try:
        for _ in range(rounds):
            started = time.perf_counter()
            conn.request("GET", path)
            local_ends.add(conn.sock.getsockname())
            response = conn.getresponse()
            response.read()
            times.append(1e3 * (time.perf_counter() - started))
            assert response.status == 200, response.status
    finally:
        conn.close()
    assert len(local_ends) == 1, "the server closed the keep-alive connection"
    return statistics.median(times)


def assert_one_producer_one_consumer(nodes) -> None:
    """Every stream between ``nodes`` is written by one node and read by one.

    Fan-in is an operator with several input streams, never a stream with
    several writers; the scheduler's EOS and barrier handling rely on it.
    """
    producers = collections.Counter(id(s) for n in nodes for s in n.outputs)
    consumers = collections.Counter(id(s) for n in nodes for s in n.inputs)
    names = {id(s): s.name for n in nodes for s in n.inputs + n.outputs}
    assert names, "a graph without streams"
    wrong = {
        names[key]: (producers[key], consumers[key])
        for key in names
        if (producers[key], consumers[key]) != (1, 1)
    }
    assert not wrong, f"(producers, consumers) per stream: {wrong}"


def rows(items) -> list:
    """What a source yielded, one row each: a ``TupleBatch`` run as its rows."""
    return [t for item in items for t in (item if type(item) is TupleBatch else [item])]


def assert_families_grouped(text: str) -> None:
    """Prometheus text exposition: all lines of one metric family form one
    group, under the family's one ``# TYPE`` line.

    Every sample line must belong to the family of the last ``# TYPE``
    line above it (a histogram family owns its ``_bucket``/``_sum``/
    ``_count`` series), and no family may be typed twice.
    """
    typed: collections.Counter[str] = collections.Counter()
    family = kind = None
    samples = 0
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ", 3)
            typed[family] += 1
        elif line and not line.startswith("#"):
            name = line.partition("{")[0].partition(" ")[0]
            suffixes = ("", "_bucket", "_sum", "_count") if kind == "histogram" else ("",)
            assert family is not None and name in {family + s for s in suffixes}, (
                f"{line!r} sits in the group of {family!r}"
            )
            samples += 1
    assert samples, "no sample lines"
    split = sorted(f for f, n in typed.items() if n > 1)
    assert not split, f"families typed more than once: {split}"


@pytest.fixture(scope="session")
def test_job():
    """The paper's evaluation job, deterministic seed."""
    return make_job("JOB-TEST", seed=7)


@pytest.fixture(scope="session")
def clean_job():
    """A defect-free sibling job used for calibration."""
    return make_job("JOB-REF", seed=1, defect_rate_per_stack=0.0)


@pytest.fixture(scope="session")
def renderer():
    return OTImageRenderer(image_px=TEST_IMAGE_PX, seed=7)


@pytest.fixture(scope="session")
def layer_records(test_job, renderer):
    """First 8 layers of the defective job (cached, session-wide)."""
    dataset = BuildDataset(test_job, renderer, with_truth=True, cache=True)
    return [dataset.layer_record(i) for i in range(8)]


@pytest.fixture(scope="session")
def reference_images(clean_job, renderer):
    dataset = BuildDataset(clean_job, renderer)
    return [dataset.layer_record(i).image for i in range(3)]


@pytest.fixture()
def kv_store():
    store = MemoryStore()
    yield store
    store.close()
