"""Load generation for the pipeline workloads: who may send which layer, when.

The generator is the benchmark's, not the system's: a :class:`Gate` decides
when layer ``i`` enters the pipeline and when the run is over, and stamps
each layer with the instant latency is counted from. Two loop kinds:

* **closed** (``window=N, chunk=C``): at most ``N`` layers in flight, sent
  ``C`` at a time — a replay client reading its archive in chunks; a layer's
  credit returns when its last verdict lands. A slow system receives less
  load.
  Sending stops when draining what is in flight is predicted to use up the
  rest of the run, so the run lasts ``seconds`` from first send to last
  verdict whatever the window.
* **open** (``rate=R``): layer ``i`` is due at ``start + i / R`` whatever the
  system does, and is stamped with that *due* time, so a stall is charged to
  every layer it delays. How late the generator itself ran is recorded.

The OT and the printing-parameter collector of one deployment share one
gate, and in the distributed workload they live in forked worker processes
while the sink lives in the coordinator — hence multiprocessing primitives
(created before the fork) rather than threading ones.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from typing import Callable, Iterable, Iterator

from reference import VerdictKey, verdict_key

from repro.am import BuildDataset, LayerRecord, OTImageRenderer, PrintJob, make_job
from repro.spe.sink import Sink
from repro.spe.source import Source
from repro.spe.tuples import StreamTuple

#: stamps are kept in a ring; a layer's stamp must survive until its last
#: verdict, so the ring bounds how far the sources may run ahead of the sink
RING = 8192

_CTX = multiprocessing.get_context("fork")


#: every build has the defect layout of this job seed; see Build
LAYOUT_SEED = 7


class Build:
    """A short rendered build, replayed endlessly: the Alg. 1 input generator.

    Like :class:`repro.bench.EvaluationWorkload`, except that ``seed`` drives
    the sensor noise only and the defect layout is pinned. The Poisson layout
    moves clustering work by +-40 % from seed to seed on dense defects and
    +-20 % on moderate ones — measured, ten seeds — which would drown every
    bound this benchmark sets; sensor noise moves it by 1-2 %.
    """

    def __init__(self, image_px: int, layers: int, seed: int, defect_rate: float) -> None:
        self.job: PrintJob = make_job(
            "EOS-M290-J1", seed=LAYOUT_SEED, defect_rate_per_stack=defect_rate
        )
        self._renderer = OTImageRenderer(image_px=image_px, seed=seed)
        dataset = BuildDataset(self.job, self._renderer)
        self.records = [dataset.layer_record(i) for i in range(layers)]

    def reference_images(self, count: int = 5) -> list:
        """Defect-free layers of a sibling job, for threshold calibration."""
        sibling = make_job(f"{self.job.job_id}-ref", seed=1, defect_rate_per_stack=0.0)
        dataset = BuildDataset(sibling, self._renderer)
        return [dataset.layer_record(i).image for i in range(count)]

    def replay(self) -> Iterator[LayerRecord]:
        """Cycle the rendered layers forever, continuing the layer numbering.

        Repetition ``r`` of layer ``i`` is layer ``r * base + i`` at the
        matching height, so event time stays monotonic and the stream reads
        as one long build (what ``EvaluationWorkload.replay`` does for a
        fixed count).
        """
        base = len(self.records)
        for rep in itertools.count():
            for record in self.records:
                yield LayerRecord(
                    job_id=record.job_id,
                    layer=rep * base + record.layer,
                    z_mm=rep * base * 0.04 + record.z_mm,
                    image=record.image,
                    parameters=record.parameters,
                    truth_mask=record.truth_mask,
                )


class Gate:
    """Admission schedule of one deployment; see the module docstring."""

    def __init__(
        self,
        seconds: float,
        window: int | None = None,
        chunk: int = 1,
        rate: float | None = None,
    ) -> None:
        if (window is None) == (rate is None):
            raise ValueError("a gate is either closed (window=) or open (rate=)")
        self._seconds = seconds
        self._window = window
        self._chunk = chunk
        self._rate = rate
        self._limit = _CTX.Value("q", 0, lock=False)  # end of the open chunk
        self._cond = _CTX.Condition()
        self._admitted = _CTX.Value("q", 0, lock=False)
        self._lead_sent = _CTX.Value("q", 0, lock=False)  # layers the leader has sent
        self._completed = _CTX.Value("q", 0, lock=False)
        self._closed = _CTX.Value("b", 0, lock=False)
        self._start = _CTX.Value("d", 0.0, lock=False)
        self._drain_s = _CTX.Value("d", 0.0, lock=False)
        self._stamps = _CTX.Array("d", RING, lock=False)
        self._late = _CTX.Array("d", RING, lock=False)

    # -- source side ---------------------------------------------------------

    def admit(self, index: int, lead: bool) -> float | None:
        """Block until layer ``index`` may be sent; None once the run is over.

        Both collectors ask for every index in order. The leader (printing
        parameters, known before the layer is exposed) takes the decision;
        the follower (the OT image) sends a layer only once the leader has
        sent it, which the leader shows by asking for the next. The order is
        fixed because it is worth 20 ms: a two-input operator that idles
        blocks on its first input for the scheduler's ``poll_timeout``, so a
        fuse whose first input arrives first sees the second 20 ms late —
        left to a thread race, that decided a whole run's latency mode.
        """
        with self._cond:
            if lead:
                self._lead_sent.value = index
                self._cond.notify_all()
            while True:
                if index < (self._admitted.value if lead else self._lead_sent.value):
                    return self._stamps[index % RING]
                if self._closed.value and index >= self._admitted.value:
                    return None
                wait = self._try_admit(index) if lead else 0.5
                if wait is None:
                    continue
                self._cond.wait(wait)

    def _try_admit(self, index: int) -> float | None:
        """Admit ``index`` if allowed now (returns None), else seconds to wait."""
        now = time.monotonic()
        if index == 0:
            self._start.value = now
        start = self._start.value
        if self._rate is not None:
            due = start + index / self._rate
            over = due - start >= self._seconds
        else:
            # stop sending when what is in flight will take the rest of the
            # run to drain — as long as the newest finished layer took — so
            # first send -> last verdict spans `seconds`
            due = now
            over = now - start + self._drain_s.value >= self._seconds
        if index > 0 and over:
            self._closed.value = 1
            self._cond.notify_all()
            return None
        if due > now:
            return due - now
        if self._window is not None and index == self._limit.value:
            # chunk used up: open the next once it fits inside the window
            if index + self._chunk - self._completed.value > self._window:
                return 0.5
            self._limit.value = index + self._chunk
        self._stamps[index % RING] = due
        self._late[index % RING] = now - due
        self._admitted.value = index + 1
        self._cond.notify_all()
        return None

    # -- sink side -----------------------------------------------------------

    def complete(self, index: int) -> float:
        """Layer ``index``'s last verdict landed: return its credit.

        Returns the seconds since the layer's stamp.
        """
        with self._cond:
            took = time.monotonic() - self._stamps[index % RING]
            self._drain_s.value = took
            self._completed.value += 1
            self._cond.notify_all()
        return took

    # -- read-out --------------------------------------------------------------

    @property
    def start(self) -> float:
        """Monotonic instant the first layer was sent."""
        return self._start.value

    @property
    def admitted(self) -> int:
        return self._admitted.value

    def lateness(self) -> list[float]:
        """Seconds each (still ringed) layer was admitted after it was due."""
        n = min(self._admitted.value, RING)
        return [self._late[i] for i in range(n)]


class GatedCollector(Source):
    """One of the repo's collectors, fed and stamped by a :class:`Gate`.

    ``collector`` is the collector class (``OTImageCollector`` ...); it sees
    an ordinary record iterable. Unlike ``RateLimitedSource``, which stamps
    ``ingest_time`` at emission, the stamp here is the gate's: the due time
    in an open loop.
    """

    def __init__(
        self,
        collector: Callable[[Iterable], Source],
        records: Iterable,
        gate: Gate,
        name: str,
        lead: bool,
    ) -> None:
        super().__init__(name)
        self._collector = collector
        self._records = records
        self._gate = gate
        self._lead = lead

    def __iter__(self) -> Iterator[StreamTuple]:
        stamp = 0.0

        def admitted() -> Iterator:
            nonlocal stamp
            for index, record in enumerate(self._records):
                got = self._gate.admit(index, self._lead)
                if got is None:
                    return
                stamp = got
                yield record

        for t in self._collector(admitted()):
            t.ingest_time = stamp
            yield t


class LayerSink(Sink):
    """Expert sink: verdict keys, per-layer completion times, credit return."""

    def __init__(self, gate: Gate, verdicts_per_layer: int, name: str = "expert") -> None:
        super().__init__(name, latency_capacity=1)
        self._gate = gate
        self._expected = verdicts_per_layer
        self._counts: dict[int, int] = {}
        self.keys: list[VerdictKey] = []
        #: layer -> seconds from its stamp to its last verdict
        self.latency_s: dict[int, float] = {}
        #: instant each layer's last verdict landed, in completion order
        self.done_at: list[float] = []

    def consume(self, t: StreamTuple) -> None:
        self.keys.append(verdict_key(t))
        count = self._counts.get(t.layer, 0) + 1
        self._counts[t.layer] = count
        if count == self._expected:
            self.latency_s[t.layer] = self._gate.complete(t.layer)
            self.done_at.append(time.monotonic())
