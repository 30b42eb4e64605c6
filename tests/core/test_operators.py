"""STRATA operators: punctuation flow and correlate windowing."""

import numpy as np
import pytest

from repro.analysis import ThermalThresholds, store_thresholds
from repro.core.functions import IsolateCells, LabelCell
from repro.core.operators import (
    CorrelateEventsOperator,
    DetectEventOperator,
    PartitionOperator,
)
from repro.core.punctuation import is_punctuation, make_punctuation
from repro.spe import WHOLE_SPECIMEN, ColumnarBlock, StreamTuple


def layer_tuple(layer, job="J", specimen=None, portion=None, **payload):
    return StreamTuple(
        tau=float(layer), job=job, layer=layer, specimen=specimen, portion=portion,
        payload=payload,
    )


class TestPartitionOperator:
    def test_assigning_stage_emits_punctuation_per_specimen(self):
        op = PartitionOperator(
            "p",
            lambda t: [t.derive(specimen="S1", portion="a"),
                       t.derive(specimen="S1", portion="b"),
                       t.derive(specimen="S2", portion="a")],
        )
        out = op.process(0, layer_tuple(0, x=1))
        data = [t for t in out if not is_punctuation(t)]
        puncts = [t for t in out if is_punctuation(t)]
        assert len(data) == 3
        assert [p.specimen for p in puncts] == ["S1", "S2"]
        # punctuation comes after all data of its specimen
        assert out.index(puncts[0]) > max(out.index(d) for d in data if d.specimen == "S1")

    def test_non_assigning_stage_does_not_duplicate_punctuation(self):
        op = PartitionOperator("p", lambda t: [t.derive(portion=f"{t.portion}/x")])
        already_assigned = layer_tuple(0, specimen="S1", portion="a", x=1)
        out = op.process(0, already_assigned)
        assert all(not is_punctuation(t) for t in out)

    def test_punctuation_forwarded_unchanged(self):
        op = PartitionOperator("p", lambda t: [])
        punct = make_punctuation(layer_tuple(0), "S1")
        assert op.process(0, punct) == [punct]

    def test_empty_output_still_emits_whole_punctuation(self):
        op = PartitionOperator("p", lambda t: [])
        out = op.process(0, layer_tuple(0))
        assert len(out) == 1
        assert is_punctuation(out[0])
        assert out[0].specimen == WHOLE_SPECIMEN

    def test_defaults_fill_missing_specimen(self):
        op = PartitionOperator("p", lambda t: [t.derive(payload={})])
        out = op.process(0, layer_tuple(0))
        data = [t for t in out if not is_punctuation(t)]
        assert data[0].specimen == WHOLE_SPECIMEN


class TestDetectEventOperator:
    def test_transforms_and_counts(self):
        op = DetectEventOperator("d", lambda t: [t] if t.payload["x"] > 0 else [])
        assert op.process(0, layer_tuple(0, specimen="S", portion="p", x=1))
        assert op.process(0, layer_tuple(0, specimen="S", portion="p", x=-1))[:0] == []
        assert op.events_out == 1

    def test_forwards_punctuation(self):
        op = DetectEventOperator("d", lambda t: [t])
        punct = make_punctuation(layer_tuple(0), "S1")
        assert op.process(0, punct) == [punct]

    def test_assigns_defaults_and_punctuates_when_fed_from_source(self):
        op = DetectEventOperator("d", lambda t: [t])
        out = op.process(0, layer_tuple(0, x=1))
        data = [t for t in out if not is_punctuation(t)]
        puncts = [t for t in out if is_punctuation(t)]
        assert len(data) == 1
        assert data[0].specimen == WHOLE_SPECIMEN
        assert len(puncts) == 1

    def test_inherits_specimen_onto_outputs(self):
        op = DetectEventOperator(
            "d", lambda t: [StreamTuple(tau=t.tau, job=t.job, layer=t.layer, payload={})]
        )
        out = op.process(0, layer_tuple(0, specimen="S9", portion="q", x=1))
        assert out[0].specimen == "S9"
        assert out[0].portion == "q"


class TestCorrelateEventsOperator:
    @staticmethod
    def count_fn(job, layer, specimen, events):
        return {"n": len(events), "layers": sorted({e.layer for e in events})}

    def feed_layer(self, op, layer, specimen, num_events):
        out = []
        for i in range(num_events):
            event = layer_tuple(layer, specimen=specimen, portion=f"c{i}", x=i)
            out.extend(op.process(0, event))
        out.extend(op.process(0, make_punctuation(layer_tuple(layer), specimen)))
        return out

    def test_triggers_once_per_punctuation(self):
        op = CorrelateEventsOperator("c", window_layers=3, fn=self.count_fn)
        out = self.feed_layer(op, 0, "S1", 2)
        assert len(out) == 1
        assert out[0].payload["n"] == 2
        assert op.triggers == 1

    def test_window_accumulates_l_layers(self):
        op = CorrelateEventsOperator("c", window_layers=3, fn=self.count_fn)
        results = []
        for layer in range(6):
            results.extend(self.feed_layer(op, layer, "S1", 1))
        counts = [r.payload["n"] for r in results]
        assert counts == [1, 2, 3, 3, 3, 3]  # grows, then slides at L=3
        assert results[-1].payload["layers"] == [3, 4, 5]

    def test_specimens_grouped_independently(self):
        op = CorrelateEventsOperator("c", window_layers=5, fn=self.count_fn)
        self.feed_layer(op, 0, "S1", 3)
        out = self.feed_layer(op, 0, "S2", 1)
        assert out[0].payload["n"] == 1  # S2 sees only its own events

    def test_jobs_grouped_independently(self):
        op = CorrelateEventsOperator("c", window_layers=5, fn=self.count_fn)
        op.process(0, layer_tuple(0, job="A", specimen="S", portion="p", x=1))
        out = op.process(0, make_punctuation(layer_tuple(0, job="B"), "S"))
        assert out[0].payload["n"] == 0

    def test_empty_window_still_reports(self):
        op = CorrelateEventsOperator("c", window_layers=2, fn=self.count_fn)
        out = self.feed_layer(op, 0, "S1", 0)
        assert out[0].payload["n"] == 0

    def test_fn_returning_none_suppresses_output(self):
        op = CorrelateEventsOperator("c", window_layers=2, fn=lambda *a: None)
        assert self.feed_layer(op, 0, "S1", 1) == []

    def test_fn_returning_list_emits_many(self):
        op = CorrelateEventsOperator(
            "c", window_layers=2, fn=lambda j, l, s, e: [{"i": 0}, {"i": 1}]
        )
        out = self.feed_layer(op, 0, "S1", 1)
        assert [t.payload["i"] for t in out] == [0, 1]

    def test_output_metadata(self):
        op = CorrelateEventsOperator("c", window_layers=2, fn=self.count_fn)
        out = self.feed_layer(op, 4, "S7", 1)
        t = out[0]
        assert t.layer == 4
        assert t.specimen == "S7"
        assert t.portion is None

    def test_ingest_time_spans_window_events(self):
        op = CorrelateEventsOperator("c", window_layers=5, fn=self.count_fn)
        event = layer_tuple(0, specimen="S", portion="p", x=0)
        event.ingest_time = 123.0
        op.process(0, event)
        punct = make_punctuation(layer_tuple(0), "S")
        punct.ingest_time = 1.0
        out = op.process(0, punct)
        assert out[0].ingest_time == 123.0

    def test_ingest_time_is_the_latest_across_retained_layers_only(self):
        op = CorrelateEventsOperator("c", window_layers=2, fn=self.count_fn)
        for layer, stamp in ((0, 900.0), (1, 50.0), (2, 70.0), (2, 60.0)):
            event = layer_tuple(layer, specimen="S", portion=f"p{stamp}", x=0)
            event.ingest_time = stamp
            op.process(0, event)
        punct = make_punctuation(layer_tuple(2), "S")
        punct.ingest_time = 1.0
        out = op.process(0, punct)
        assert out[0].payload["layers"] == [1, 2]
        assert out[0].ingest_time == 70.0  # layer 0's 900.0 has left the window

    def test_random_arrivals_match_sorting_on_every_trigger(self):
        """Late events, layers arriving out of order, punctuations going
        backwards, a restore in the middle: windows, eviction and ingest
        times equal a per-trigger sort and scan of everything held."""
        import random

        rng = random.Random(5)
        for window in (1, 3, 6):
            seen_events = []

            def fn(job, layer, specimen, events):
                seen_events.append(list(events))
                return {"n": len(events)}

            op = CorrelateEventsOperator("c", window_layers=window, fn=fn)
            held: dict[int, list] = {}
            for step in range(300):
                layer = max(0, step // 6 + rng.randint(-4, 2))
                if rng.random() < 0.7:
                    event = layer_tuple(layer, specimen="S", portion=f"c{step}", x=step)
                    event.ingest_time = rng.uniform(0, 1000)
                    held.setdefault(layer, []).append(event)
                    assert op.process(0, event) == []
                    continue
                punct = make_punctuation(layer_tuple(layer), "S")
                punct.ingest_time = rng.uniform(0, 1000)
                if rng.random() < 0.2:
                    state = op.snapshot_state()
                    op = CorrelateEventsOperator("c", window_layers=window, fn=fn)
                    op.restore_state(state)
                (out,) = op.process(0, punct)
                low = layer - window + 1
                want = [e for l in sorted(held) if low <= l <= layer for e in held[l]]
                assert len(seen_events[-1]) == len(want)
                assert all(a is b for a, b in zip(seen_events[-1], want))
                stamps = [e.ingest_time for e in want] + [punct.ingest_time]
                assert out.ingest_time == max(stamps)
                held = {l: evs for l, evs in held.items() if l >= low}
                per_layer = op._events.get(("J", "S"), {})
                assert list(per_layer) == sorted(held)
                assert all(per_layer[l] == held[l] for l in held)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            CorrelateEventsOperator("c", window_layers=0, fn=self.count_fn)

    def test_eviction_frees_old_layers(self):
        op = CorrelateEventsOperator("c", window_layers=2, fn=self.count_fn)
        for layer in range(10):
            self.feed_layer(op, layer, "S1", 1)
        per_layer = op._events[("J", "S1")]
        assert all(layer >= 8 for layer in per_layer)


class TestCellFanOutBlocks:
    """partition(IsolateCells) -> detectEvent(LabelCell) as blocks (ISSUE 16).

    The fan-out block inherits row metadata from its specimen rows instead
    of expanding it per cell; what leaves the chain must still be the
    scalar chain's tuples, field for field and type for type.
    """

    TH = ThermalThresholds(100, 110, 150, 160)

    def specimen_tuples(self, seed, jobs=("J",), masks=False):
        rng = np.random.default_rng(seed)
        # 8 px patches of one level (so coarse cells still reach the extreme
        # classes) with pixel noise on top (so fine cells are not uniform)
        levels = rng.choice(
            np.array([20, 105, 130, 155, 240], dtype=np.uint8),
            size=(12, 15), p=[0.2, 0.1, 0.4, 0.1, 0.2],
        )
        frame = np.kron(levels, np.ones((8, 8), dtype=np.uint8))
        frame += rng.integers(0, 6, size=frame.shape, dtype=np.uint8)
        out = []
        for k, (rows, cols) in enumerate([(24, 36), (24, 36), (17, 9), (30, 50)]):
            r0, c0 = 5 * k, 7 * k
            payload = {
                "image": frame[r0 : r0 + rows, c0 : c0 + cols],
                "origin_row": r0,
                "origin_col": c0,
            }
            if masks:  # one schema per block: unshaped specimens carry None
                shaped = k % 2 == 0
                payload["part_mask"] = rng.random((rows, cols)) < 0.75 if shaped else None
            t = StreamTuple(
                tau=1.5, job=jobs[k % len(jobs)], layer=4, specimen=f"S{k:02d}",
                portion="*", payload=payload, ingest_time=10.0 + k,
            )
            t.trace_id = f"tr{k}" if k % 2 else None
            out.append(t)
        return out

    def chain(self, kv_store, edge, jobs):
        for job in jobs:
            store_thresholds(kv_store, job, self.TH)
        return (
            PartitionOperator("p", IsolateCells(edge)),
            DetectEventOperator("d", LabelCell(kv_store)),
        )

    @staticmethod
    def typed(tuples):
        return [
            [(v, type(v)) for v in (
                t.tau, t.job, t.layer, t.specimen, t.portion, t.ingest_time,
                t.trace_id, *t.payload.keys(), *t.payload.values(),
            )]
            for t in tuples
        ]

    @pytest.mark.parametrize("edge", [1, 2, 3, 8])
    @pytest.mark.parametrize("masks", [False, True])
    @pytest.mark.parametrize("jobs", [("J",), ("J", "K")])
    def test_block_chain_equals_scalar_chain(self, kv_store, edge, masks, jobs):
        tuples = self.specimen_tuples(edge, jobs, masks)
        part, detect = self.chain(kv_store, edge, jobs)
        scalar = []
        for t in tuples:
            for cell in part.process(0, t):
                scalar.extend(detect.process(0, cell))
        assert scalar, "the frame is seeded to contain events"
        counters = (part._fn.cells_emitted, detect._fn.cells_evaluated, detect.events_out)

        part_b, detect_b = self.chain(kv_store, edge, jobs)
        cells = part_b.process_block(ColumnarBlock.from_tuples(tuples))
        events = detect_b.process_block(cells)
        assert self.typed(events.to_tuples()) == self.typed(scalar)
        assert counters == (
            part_b._fn.cells_emitted, detect_b._fn.cells_evaluated, detect_b.events_out
        )
        # metadata was never expanded on the way: one entry per specimen row
        assert len(cells.inherited("specimen")) == len(tuples)
        assert len(events.inherited("specimen")) == len(tuples)

        # ... and equals what the eagerly expanded cell block gives
        eager = ColumnarBlock(
            tau=cells.tau, job=cells.job, layer=cells.layer, specimen=cells.specimen,
            portion=cells.portion, ingest_time=cells.ingest_time,
            trace_id=cells.trace_id, columns=dict(cells.columns),
        )
        assert len(eager.inherited("specimen")) == len(cells)
        assert self.typed(cells.to_tuples()) == self.typed(eager.to_tuples())
        _, detect_e = self.chain(kv_store, edge, jobs)
        assert self.typed(detect_e.process_block(eager).to_tuples()) == self.typed(scalar)

    def test_partitioning_a_layer_allocates_per_specimen_not_per_cell(self):
        """12 specimens, 60 000 cells: the block's row metadata may cost
        Python-heap memory per specimen, never per cell. The eager fan-out
        held four 60 000-element lists (~1.9 MB of pointers); the bound
        here is 64 KB for everything the block keeps on the Python heap."""
        import tracemalloc

        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, size=(700, 700), dtype=np.uint8)
        tuples = [
            StreamTuple(
                tau=1.0, job="J", layer=1, specimen=f"S{k:02d}", portion="*",
                payload={
                    "image": frame[10 + 40 * k : 210 + 40 * k, 15 * k : 15 * k + 100],
                    "origin_row": 10 + 40 * k, "origin_col": 15 * k,
                },
            )
            for k in range(12)
        ]
        iso = IsolateCells(2)
        source = ColumnarBlock.from_tuples(tuples)
        iso.process_block(source)  # warm the per-grid label and center caches

        def python_heap():
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, 0)]  # numpy buffers are domain != 0
            )
            return sum(stat.size for stat in snapshot.statistics("filename"))

        tracemalloc.start()
        try:
            before = python_heap()
            cells = iso.process_block(source)
            grown = python_heap() - before
        finally:
            tracemalloc.stop()
        assert len(cells) == 60_000
        assert grown < 64 * 1024, f"{grown} bytes of Python objects for one layer"
        assert all(
            len(cells.inherited(name)) == 12
            for name in ("job", "specimen", "trace_id", "tau", "layer", "ingest_time")
        )

    def test_encoded_fan_out_block_carries_job_and_specimen_per_specimen(self):
        """On the wire a longer job name costs a fan-out block one copy per
        specimen row (``job``, and once more inside ``specimen``) — not one
        per cell, whatever the cell count."""
        from repro.serde import decode_wire, encode_wire

        def encoded(job, edge):
            tuples = [
                StreamTuple(
                    tau=1.0, job=job, layer=1, specimen=f"{job}/S{k}", portion="*",
                    payload={"image": np.full((40, 40), 7 * k, dtype=np.uint8)},
                )
                for k in range(3)
            ]
            cells = IsolateCells(edge).process_block(ColumnarBlock.from_tuples(tuples))
            assert len(cells) == 3 * (40 // edge) ** 2
            return cells, encode_wire(cells)

        extra = 30
        for edge in (10, 2):  # 16 and 400 cells per specimen
            cells, short = encoded("J", edge)
            _, long = encoded("J" + "x" * extra, edge)
            assert len(long) - len(short) == 3 * 2 * extra
            back = decode_wire(short)
            assert self.typed(back.to_tuples()) == self.typed(cells.to_tuples())
