"""The five workloads: what each sets up, drives, verifies and counts.

Every workload is a function ``run(seed, seconds, trace_path) -> Outcome``.
``seconds=0`` is a *set-up trial*: everything up to the first layer (or job)
sent, one item through, tear down — the driver takes the median set-up time
over several. ``trace_path`` is set in the traced run; only the fleet
workload needs it (to start its server through ``trace.py``), the in-process
wrappers are installed by the caller.

``--seed`` reaches the input generators (:class:`loadgen.Build`, the fleet
spec seeds) and nothing else; the system under test never sees it.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import reference
from loadgen import Build, Gate, GatedCollector, LayerSink

from repro.core import (
    DeployConfig,
    OTImageCollector,
    PrintingParameterCollector,
    RecoveryConfig,
    Strata,
    UseCaseConfig,
    build_use_case,
)
from repro.dist import DistConfig
from repro.fleet import run_standalone
from repro.kvstore import LSMStore, encode_value
from repro.recovery import CheckpointCoordinator, RecoveryCoordinator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: rendered layers per build; replays cycle them (see reference.py)
BASE_LAYERS = 12
#: the recoat gap: a layer reported later than this missed its deadline
QOS_SECONDS = 3.0
#: open-loop rate of live_paced_dense: a third of its ~32 layers/s capacity.
#: At 15/s a slow phase of the shared box (CPU per layer +60 %, measured)
#: pushed utilisation to 1 and latency from 50 ms to 2 s; the headroom is
#: what keeps latency proportional to service time
LIVE_RATE = 10.0


@dataclass
class Outcome:
    """What one run of one workload measured."""

    setup_s: float
    attempted: int
    sent_at: float  # monotonic instant the first item was sent
    done_at: list[float]  # instant each item's result was complete, in order
    latency_s: list[float]  # per item, in sending order
    warmup: int  # leading items whose latency is not representative
    cpu_s: float  # process + reaped children, from deployment to last result
    #: runs the oracle and returns how many items failed; kept out of the
    #: run so that neither timings nor spans include the reference
    check: Callable[[], int]
    failed: int = 0  # set from check() by the caller
    digest: str = ""  # SHA-256 over a run-length-independent part of the results
    layers: dict[str, float] = field(default_factory=dict)  # per-layer numbers


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1))]


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def scratch_dir(prefix: str) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=RESULTS))


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# -- Alg. 1 pipelines ----------------------------------------------------------


@dataclass(frozen=True)
class Alg1Spec:
    """Inputs and loop of one Alg. 1 workload."""

    image_px: int
    cell_edge_px: int
    window_layers: int
    defect_rate: float
    loop: dict[str, float]  # Gate keywords: {"window": N, "chunk": C} or {"rate": R}
    warmup_layers: int  # dropped from the latency sample

    @property
    def head_layers(self) -> int:
        """Layers the oracle computes itself (the rest follow by period)."""
        return max(2 * BASE_LAYERS, BASE_LAYERS + self.window_layers)


@dataclass
class Alg1Run:
    """A composed, calibrated, not yet deployed Alg. 1 pipeline."""

    spec: Alg1Spec
    build: Build
    config: UseCaseConfig
    gate: Gate
    sink: LayerSink
    pipeline: Any
    began: float
    cpu_began: float


def _compose(
    spec: Alg1Spec, seed: int, seconds: float, strata: Strata, checkpointable: bool = False
) -> Alg1Run:
    """Render, compose Alg. 1 on ``strata`` behind a gate, calibrate."""
    began = time.monotonic()
    build = Build(spec.image_px, BASE_LAYERS, seed, spec.defect_rate)
    config = UseCaseConfig(
        image_px=spec.image_px,
        cell_edge_px=spec.cell_edge_px,
        window_layers=spec.window_layers,
    )
    gate = Gate(seconds, **spec.loop)
    sink = LayerSink(gate, len(build.job.specimens))
    pipeline = build_use_case(
        None,
        None,
        config,
        strata=strata,
        sink=sink,
        ot_source=GatedCollector(OTImageCollector, build.replay(), gate, "ot", lead=False),
        pp_source=GatedCollector(
            PrintingParameterCollector, build.replay(), gate, "pp", lead=True
        ),
        checkpointable=checkpointable,
    )
    reference.calibrate(strata, build, config)
    return Alg1Run(spec, build, config, gate, sink, pipeline, began, _cpu_seconds())


def _outcome(run: Alg1Run) -> Outcome:
    """Read a finished deployment's measurements off its gate and sink."""
    sent = run.gate.admitted
    keys = run.sink.keys
    latency = dict(sorted(run.sink.latency_s.items()))
    missed = sent - len(latency) + sum(s > QOS_SECONDS for s in latency.values())
    events = [key[3] for key in keys]
    head_layers = run.spec.head_layers

    def check() -> int:
        head = reference.alg1_head(run.build, run.config, min(sent, head_layers))
        return reference.failed_layers(keys, head, sent, BASE_LAYERS)

    return Outcome(
        setup_s=run.gate.start - run.began,
        attempted=sent,
        sent_at=run.gate.start,
        done_at=run.sink.done_at,
        latency_s=list(latency.values()),
        warmup=run.spec.warmup_layers,
        cpu_s=_cpu_seconds() - run.cpu_began,
        check=check,
        layers={
            # counted by the detect stage in this process: 0 when it runs
            # in a forked stage worker (dist_shm_replay)
            "core.cells_evaluated": run.pipeline.cells_evaluated,
            "clustering.window_points_mean": statistics.fmean(events) if events else 0.0,
            "loadgen.late_p90_ms": 1e3 * percentile(run.gate.lateness(), 0.9),
            "loadgen.qos_miss_share": missed / sent,
        },
        # over the oracle's head only: the same in every run of one seed,
        # however many layers its seconds allowed
        digest=reference.digest(k for k in keys if k[1] < head_layers),
    )


REPLAY = Alg1Spec(
    image_px=1000,
    cell_edge_px=2,
    window_layers=10,
    defect_rate=0.02,
    # A replay client reading its archive 16 layers at a time, 32 in flight.
    # Chunks matter: the fuse join's output edge batches up to 32 tuples, and
    # the vectorized chain needs batches. Credits returned one layer at a
    # time make admission trickle in step with completions, the batches
    # shrink, and throughput decays 145 -> 65 layers/s within 20 s; sources
    # held back by queue back-pressure alone keep throughput flat but leave
    # the depth in flight, hence latency, to chance (85-390 ms run to run).
    # 32 in flight also keeps an observed layer's wait (~1.5 s at today's
    # 17 layers/s) under the 3 s the QoS watchdog alarms on.
    loop={"window": 32, "chunk": 16},
    warmup_layers=32,
)


def replay_saturated(seed: int, seconds: float, trace_path: Path | None = None) -> Outcome:
    """Historical replay, observability off, default fused + vectorized plan."""
    return replay_observed(seed, seconds, trace_path, obs=False)


def replay_observed(
    seed: int, seconds: float, trace_path: Path | None = None, obs: bool = True
) -> Outcome:
    """The same replay the way operators and the fleet run it: ``obs=True``."""
    strata = Strata(obs=obs or None)
    run = _compose(REPLAY, seed, seconds, strata)
    strata.deploy(DeployConfig(plan=True))
    outcome = _outcome(run)
    if obs:
        started = time.perf_counter()
        snapshot = strata.metrics()
        outcome.layers["obs.snapshot_ms"] = 1e3 * (time.perf_counter() - started)
        outcome.layers["obs.samples_per_snapshot"] = len(snapshot.samples)
    return outcome


LIVE = Alg1Spec(
    image_px=1000,
    cell_edge_px=4,
    window_layers=40,
    defect_rate=0.9,
    loop={"rate": LIVE_RATE},
    warmup_layers=40,  # until the correlate window is full
)


def live_paced_dense(seed: int, seconds: float, trace_path: Path | None = None) -> Outcome:
    """Live monitoring at a fixed layer rate with checkpoints to an LSM store."""
    state_dir = scratch_dir("live-")
    store = LSMStore(state_dir)
    try:
        strata = Strata(store=store)
        run = _compose(LIVE, seed, seconds, strata, checkpointable=True)
        durations: list[float] = []
        coordinator = CheckpointCoordinator(
            store,
            interval=2.0,
            retain=3,
            on_epoch_committed=lambda _epoch: durations.append(coordinator.last_duration),
        )
        strata.start(
            DeployConfig(plan=True, recovery=RecoveryConfig(checkpointer=coordinator))
        )
        coordinator.start_periodic()
        strata.wait(timeout=600)
        coordinator.stop()
        outcome = _outcome(run)
        # a live result is worthless past the recoat gap: late counts as failed
        wrong = outcome.check
        late = round(outcome.layers["loadgen.qos_miss_share"] * outcome.attempted)
        outcome.check = lambda: wrong() + late
        outcome.layers["recovery.epochs_committed"] = len(coordinator.completed_epochs)
        if durations:
            outcome.layers["recovery.checkpoint_p50_ms"] = 1e3 * statistics.median(durations)
        if durations and trace_path is not None:
            epoch = coordinator.completed_epochs[-1]
            manifest = coordinator.storage.load_manifest(epoch)
            outcome.layers["recovery.state_bytes"] = sum(
                len(encode_value(coordinator.storage.load_node_state(epoch, node)))
                for node in manifest["nodes"]
            )
            outcome.layers["recovery.restore_s"] = _timed_restore(seed, store)
        store.flush()
        outcome.layers["kvstore.bytes_on_disk"] = _dir_bytes(state_dir)
        return outcome
    finally:
        store.close()
        shutil.rmtree(state_dir, ignore_errors=True)


def _timed_restore(seed: int, store: LSMStore) -> float:
    """Seconds ``recover_from`` takes to restore the newest epoch."""
    strata = Strata(store=store)
    _compose(LIVE, seed, 0, strata, checkpointable=True)
    recovery = RecoveryCoordinator(store)
    took: list[float] = []

    def timed(nodes: list) -> None:
        started = time.perf_counter()
        recovery(nodes)
        took.append(time.perf_counter() - started)

    strata.deploy(DeployConfig(plan=True, recovery=RecoveryConfig(recover_from=timed)))
    return took[0]


DIST = Alg1Spec(
    image_px=500,
    cell_edge_px=5,
    window_layers=10,
    defect_rate=0.3,
    # the pub/sub path never bounds broker backlog itself; 16 layers in
    # flight does, and is also why the unpaced-source shm slot race (see
    # README, known baselines) never fires here
    loop={"window": 16},
    warmup_layers=16,
)


def dist_shm_replay(seed: int, seconds: float, trace_path: Path | None = None) -> Outcome:
    """Replay across two forked stage workers over the shared-memory transport."""
    strata = Strata(connector_mode="pubsub")
    run = _compose(DIST, seed, seconds, strata)
    dist = DistConfig(
        workers=2,
        transport="shm",
        shm_slots=64,
        shm_slab_bytes=DIST.image_px * DIST.image_px * 8 + (1 << 20),
        produce_batch=8,
    )
    deployed = time.monotonic()
    report = strata.deploy(DeployConfig(plan=True, dist=dist))
    outcome = _outcome(run)
    status = report.extra["dist"]
    outcome.layers["dist.fork_to_first_result_s"] = (
        run.gate.start + run.sink.latency_s.get(0, 0.0) - deployed
    )
    outcome.layers["dist.restarts"] = status["restarts"]
    outcome.layers["dist.duplicates_suppressed"] = status["duplicates_suppressed_local"]
    shares = [
        sum(s.value for s in snapshot.samples if s.name == "spe_busy_seconds_total")
        / report.wall_seconds
        for snapshot in report.extra.get("worker_metrics", {}).values()
    ]
    if shares:
        outcome.layers["dist.worker_busy_share_max"] = max(shares)
        outcome.layers["dist.worker_busy_share_min"] = min(shares)
    return outcome


# -- fleet ---------------------------------------------------------------------

FLEET_KINDS = ("thermal", "streaks", "forecast", "reconstruct")
FLEET_SEEDS = 4
FLEET_CLIENTS = 2
FLEET_TENANTS = 100
#: first cycles pay one-time imports of each kind's modules in the server
FLEET_WARMUP_JOBS = 2 * len(FLEET_KINDS)
TERMINAL = ("COMPLETED", "FAILED", "CANCELLED")


def fleet_specs(seed: int) -> list[dict[str, Any]]:
    """The 16 job specs (4 kinds x 4 job seeds), in the order ``seed`` draws.

    The seed shuffles the submission order, not the jobs: job cost depends
    on the job seed (+-7 % on throughput over ten benchmark seeds when it
    followed ``--seed``), and a soak must cost the same whatever its seed.
    """
    specs = [
        {"kind": kind, "name": f"e2e-{kind}-{k}", "layers": 8, "image_px": 160, "seed": k}
        for k in range(FLEET_SEEDS)
        for kind in FLEET_KINDS
    ]
    random.Random(seed).shuffle(specs)
    return specs


class _Client:
    """One closed-loop HTTP client: submit, poll to terminal, repeat."""

    def __init__(
        self,
        index: int,
        address: tuple[str, int],
        specs: list[dict[str, Any]],
        deadline: Callable[[], bool],
    ) -> None:
        self._index = index
        self._conn = http.client.HTTPConnection(*address, timeout=60)
        self._specs = specs
        self._over = deadline
        #: (spec index, final record) of every cycle
        self.jobs: list[tuple[int, dict[str, Any]]] = []
        self.turnaround: list[tuple[float, float]] = []  # (sent at, seconds)
        self.http_ms: dict[str, list[float]] = {
            "submit": [], "status": [], "metrics": [], "list": [],
        }
        self.http_errors = 0
        self.scrape_bytes = 0
        self.first_sent = 0.0
        self.done_at: list[float] = []
        self.thread = threading.Thread(target=self._loop, name=f"client-{index}")

    def _request(
        self, kind: str, method: str, path: str, body: Any = None
    ) -> tuple[int, bytes]:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        started = time.perf_counter()
        self._conn.request(method, path, body=payload, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        self.http_ms[kind].append(1e3 * (time.perf_counter() - started))
        return response.status, data

    def _loop(self) -> None:
        cycle = self._index
        try:
            while True:
                self._cycle(cycle)
                cycle += FLEET_CLIENTS
                if self._over():
                    return
        finally:
            self._conn.close()

    def _cycle(self, cycle: int) -> None:
        which = cycle % len(self._specs)
        tenant = f"tenant-{cycle % FLEET_TENANTS:03d}"
        sent = time.monotonic()
        if not self.first_sent:
            self.first_sent = sent
        status, data = self._request(
            "submit", "POST", "/jobs",
            {"tenant": tenant, "workload": self._specs[which], "deploy": {"plan": True}},
        )
        if status != 201:
            self.jobs.append((which, {"state": f"HTTP {status}", "transitions": []}))
            return
        record = json.loads(data)
        while record["state"] not in TERMINAL:
            time.sleep(0.005)
            status, data = self._request("status", "GET", f"/jobs/{record['job_id']}")
            if status != 200:
                self.http_errors += 1
                break
            record = json.loads(data)
        self.done_at.append(time.monotonic())
        self.turnaround.append((sent, self.done_at[-1] - sent))
        self.jobs.append((which, record))
        if len(self.jobs) % 10 == 0:
            status, data = self._request("metrics", "GET", "/metrics")
            self.scrape_bytes = len(data)
            listed, _ = self._request("list", "GET", f"/jobs?tenant={tenant}")
            self.http_errors += (status != 200) + (listed != 200)


def _boot_server(state_dir: Path, trace_path: Path | None) -> tuple[subprocess.Popen, tuple]:
    """Start ``repro serve`` (through trace.py when traced); returns its address."""
    program = (
        [str(HERE / "trace.py"), str(trace_path.with_name(trace_path.stem + ".server.json"))]
        if trace_path is not None
        else ["-m", "repro"]
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    server = subprocess.Popen(
        [sys.executable, *program, "serve", "--port", "0", "--state-dir", str(state_dir)],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    line = server.stdout.readline()  # "fleet control plane on http://host:port (...)"
    if "http://" not in line:
        server.kill()
        server.wait()
        raise RuntimeError(f"fleet server did not start: {line!r}")
    host, _, port = line.split("http://")[1].split()[0].partition(":")
    return server, (host, int(port))


def fleet_soak(seed: int, seconds: float, trace_path: Path | None = None) -> Outcome:
    """Closed-loop job traffic against ``repro serve`` over HTTP."""
    specs = fleet_specs(seed)
    began = time.monotonic()
    state_dir = scratch_dir("fleet-")
    server, address = _boot_server(state_dir, trace_path)
    try:
        cpu_began = _cpu_seconds()
        stop_at = time.monotonic() + seconds
        clients = [
            _Client(i, address, specs, lambda: time.monotonic() >= stop_at)
            for i in range(FLEET_CLIENTS)
        ]
        for client in clients:
            client.thread.start()
        for client in clients:
            client.thread.join()
        state_bytes = _dir_bytes(state_dir)
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.communicate(timeout=60)  # drains its output, waits for it
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()
        shutil.rmtree(state_dir, ignore_errors=True)
    first_sent = min(c.first_sent for c in clients)
    cycles = [cycle for c in clients for cycle in c.jobs]
    jobs = [job for _which, job in cycles]

    def check() -> int:
        """Jobs rejected, not COMPLETED, or diverging from their standalone run."""
        expected = {
            which: run_standalone(specs[which]) for which in {which for which, _ in cycles}
        }
        wrong = sum(
            job["state"] != "COMPLETED" or job["result"]["result_ids"] != expected[which]
            for which, job in cycles
        )
        return wrong + sum(c.http_errors for c in clients)

    outcome = Outcome(
        setup_s=first_sent - began,
        attempted=len(jobs),
        sent_at=first_sent,
        done_at=sorted(done for c in clients for done in c.done_at),
        latency_s=[s for _sent, s in sorted(t for c in clients for t in c.turnaround)],
        warmup=FLEET_WARMUP_JOBS,
        cpu_s=_cpu_seconds() - cpu_began,
        check=check,
        # over distinct results: the same in every run that cycled all specs
        digest=reference.digest({
            (j["workload"]["name"], repr(j["result"]["result_ids"]))
            for j in jobs if j.get("result")
        }),
    )
    for kind in ("submit", "status", "metrics", "list"):
        samples = [ms for c in clients for ms in c.http_ms[kind]]
        if samples:
            outcome.layers[f"fleet.http_{kind}_ms"] = statistics.median(samples)
        if kind == "submit":
            outcome.layers["fleet.http_submit_p90_ms"] = percentile(samples, 0.9)
    outcome.layers["fleet.metrics_scrape_bytes"] = max(c.scrape_bytes for c in clients)
    outcome.layers["fleet.state_dir_bytes"] = state_bytes
    outcome.layers["fleet.rejected_total"] = sum(
        j["state"] == "HTTP 429" for j in jobs
    )
    outcome.layers.update(_transition_times(jobs))
    return outcome


#: per-kind run time lands under the layer that does the work
_KIND_METRIC = {
    "thermal": "core.alg1_run_ms",
    "streaks": "core.streaks_run_ms",
    "forecast": "thermal.forecast_run_ms",
    "reconstruct": "thermal.reconstruct_run_ms",
}


def _transition_times(jobs: list[dict[str, Any]]) -> dict[str, float]:
    """Median gaps between the timestamps in each job's public transitions."""
    gaps: dict[str, list[float]] = {}
    for job in jobs:
        at = {step["state"]: step["at"] for step in job["transitions"]}
        if "COMPLETED" not in at:
            continue
        run_ms = 1e3 * (at["COMPLETED"] - at["RUNNING"])
        gaps.setdefault("fleet.admit_ms", []).append(1e3 * (at["ADMITTED"] - at["PENDING"]))
        gaps.setdefault("fleet.launch_ms", []).append(1e3 * (at["RUNNING"] - at["ADMITTED"]))
        gaps.setdefault("fleet.run_ms", []).append(run_ms)
        gaps.setdefault(_KIND_METRIC[job["workload"]["kind"]], []).append(run_ms)
    return {name: statistics.median(values) for name, values in gaps.items()}


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "replay_saturated": replay_saturated,
    "replay_observed": replay_observed,
    "live_paced_dense": live_paced_dense,
    "dist_shm_replay": dist_shm_replay,
    "fleet_soak": fleet_soak,
}
