"""STRATA operators: punctuation flow and correlate windowing."""

import pytest

from repro.core.operators import (
    CorrelateEventsOperator,
    DetectEventOperator,
    PartitionOperator,
)
from repro.core.punctuation import is_punctuation, make_punctuation
from repro.spe import WHOLE_SPECIMEN, StreamTuple


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
            out.extend(op.process(0, layer_tuple(layer, specimen=specimen, portion=f"c{i}", x=i)))
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
