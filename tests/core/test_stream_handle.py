"""StreamHandle: str compatibility, fluent chaining, aliases, metrics."""

import pickle
import warnings

import pytest

from repro.core import PipelineDefinitionError, Strata, StreamHandle
from repro.spe import CollectingSink
from repro.spe.source import ListSource
from repro.spe.tuples import StreamTuple


def _tuples(n=4, key="v"):
    return [
        StreamTuple(tau=float(i), job="j", layer=i, payload={key: i})
        for i in range(n)
    ]


def _source(name="src", n=4, key="v"):
    return ListSource(name, _tuples(n, key))


class TestStringCompatibility:
    def test_handle_is_the_stream_name(self):
        strata = Strata()
        h = strata.addSource(_source(), "raw")
        assert isinstance(h, StreamHandle)
        assert isinstance(h, str)
        assert h == "raw"
        assert h.name == "raw"
        assert str(h) == "raw"
        assert hash(h) == hash("raw")
        assert {h: 1}["raw"] == 1

    def test_handle_accepted_where_string_expected(self):
        strata = Strata()
        h = strata.addSource(_source(), "raw")
        strata.detectEvent(h, "events", lambda t: [t])  # handle as s_in
        strata.deliver("events")  # plain string still fine

    def test_pickle_round_trips_as_plain_text(self):
        h = StreamHandle("raw")
        assert pickle.loads(pickle.dumps(str(h))) == "raw"

    def test_repr_shows_context(self):
        strata = Strata()
        h = strata.addSource(_source(), "raw")
        assert "raw" in repr(h)
        assert h.node in repr(h)


class TestContext:
    def test_handle_carries_node_module_schema(self):
        strata = Strata()
        h = strata.addSource(_source(), "raw")
        assert h.node == "source:raw"
        assert h.module is not None
        assert h.schema is not None and "tau" in h.schema
        assert h.strata is strata

    def test_each_verb_returns_a_bound_handle(self):
        strata = Strata()
        raw = strata.addSource(_source("a"), "rawA")
        other = strata.addSource(_source("b", key="w"), "rawB")
        fused = strata.fuse(raw, other, "fused")
        events = strata.detectEvent(fused, "events", lambda t: [t])
        corr = strata.correlateEvents(events, "reports", 2, lambda w, t: [])
        for handle in (fused, events, corr):
            assert isinstance(handle, StreamHandle)
            assert handle.strata is strata
            assert handle.node is not None

    def test_detached_handle_refuses_verbs(self):
        h = StreamHandle("loose")
        with pytest.raises(PipelineDefinitionError):
            h.detectEvent("out", lambda t: [t])
        with pytest.raises(PipelineDefinitionError):
            h.metrics()


class TestFluentChaining:
    def test_chain_builds_the_same_pipeline(self):
        strata = Strata()
        sink = CollectingSink("out")
        (
            strata.addSource(_source(), "raw")
            .detectEvent("events", lambda t: [t.derive()])
            .deliver(sink)
        )
        strata.deploy()
        assert len(sink.results) == 4

    def test_fuse_through_handle(self):
        strata = Strata()
        a = strata.addSource(_source("a"), "rawA")
        b = strata.addSource(_source("b", key="w"), "rawB")
        fused = a.fuse(b, "fused")
        assert fused == "fused"
        sink = fused.deliver()
        strata.deploy()
        assert len(sink.results) == 4

    def test_then_dispatches_by_verb_name(self):
        strata = Strata()
        h = strata.addSource(_source(), "raw")
        events = h.then("detectEvent", "events", lambda t: [t])
        assert events == "events"
        with pytest.raises(PipelineDefinitionError):
            h.then("noSuchVerb", "x")


class TestSnakeCaseAliases:
    def test_aliases_wrap_the_canonical_function(self):
        strata = Strata()
        assert strata.addSource.__func__.__wrapped__ is strata.add_source.__func__
        assert strata.detectEvent.__func__.__wrapped__ is strata.detect_event.__func__
        assert (
            strata.correlateEvents.__func__.__wrapped__
            is strata.correlate_events.__func__
        )

    def test_canonical_spellings_no_deprecation_warning(self, recwarn):
        strata = Strata()
        strata.add_source(_source(), "raw")
        strata.detect_event("raw", "events", lambda t: [t])
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]

    def test_camelcase_alias_warns_once(self):
        from repro.core.handles import _warned_aliases

        _warned_aliases.discard("Strata.detectEvent")
        strata = Strata()
        strata.add_source(_source(), "raw")
        with pytest.warns(DeprecationWarning, match="Strata.detect_event"):
            strata.detectEvent("raw", "events", lambda t: [t])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            strata.detectEvent("events", "events2", lambda t: [t])  # no rewarn

    def test_handle_aliases_work(self):
        strata = Strata()
        h = strata.add_source(_source(), "raw")
        events = h.detect_event("events", lambda t: [t])
        assert isinstance(events, StreamHandle)
        assert h.detectEvent.__func__.__wrapped__ is h.detect_event.__func__


class TestHandleMetrics:
    def test_metrics_filtered_to_producing_operator(self):
        strata = Strata(obs=True)
        h = strata.addSource(_source(), "raw")
        events = h.detectEvent("events", lambda t: [t.derive()])
        events.deliver()
        strata.deploy()
        snap = events.metrics()
        operators = {s.label("operator") for s in snap}
        assert operators == {events.node}
        assert snap.value("spe_tuples_in_total", operator=events.node) == 4.0

    def test_metrics_without_obs_is_empty(self):
        strata = Strata()
        h = strata.addSource(_source(), "raw")
        h.deliver()
        strata.deploy()
        assert len(h.metrics()) == 0
