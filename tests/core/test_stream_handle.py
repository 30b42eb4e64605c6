"""What the verbs hand back: plain stream names, exact camelCase aliases, and
per-operator metrics read from the pipeline-wide snapshot."""

import pickle
import warnings

import pytest

from repro.core import DeployConfig, Strata, UnknownStreamError
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
        returned = [
            ("rawA", strata.add_source(_source("a"), "rawA")),
            ("rawB", strata.add_source(_source("b", key="w"), "rawB")),
            ("fused", strata.fuse("rawA", "rawB", "fused")),
            ("parts", strata.partition("fused", "parts")),
            ("events", strata.detect_event("parts", "events", lambda t: [t])),
            ("reports", strata.correlate_events("events", "reports", 2, lambda *a: {})),
        ]
        for s_out, value in returned:
            assert type(value) is str
            assert value == s_out
        sink = CollectingSink("out")
        assert strata.deliver("reports", sink) is sink

    def test_handle_accepted_where_string_expected(self):
        strata = Strata()
        h = strata.addSource(_source(), "raw")
        strata.detectEvent(h, "events", lambda t: [t])  # handle as s_in
        strata.deliver("events")  # plain string still fine

    def test_pickle_round_trips_as_plain_text(self):
        h = Strata().add_source(_source(), "raw")
        assert pickle.loads(pickle.dumps(h)) == "raw"

    def test_str_methods_on_a_returned_name_stay_str_methods(self):
        strata = Strata()
        assert strata.add_source(_source(), "job:raw").partition(":") == ("job", ":", "raw")
        with pytest.raises(UnknownStreamError):
            strata.deliver(":")  # the split declared no stream


class TestContext:
    def test_each_verb_returns_a_bound_handle(self):
        strata = Strata()
        raw = strata.addSource(_source("a"), "rawA")
        other = strata.addSource(_source("b", key="w"), "rawB")
        fused = strata.fuse(raw, other, "fused")
        events = strata.detectEvent(fused, "events", lambda t: [t])
        corr = strata.correlateEvents(events, "reports", 2, lambda w, t: [])
        for handle, name in ((fused, "fused"), (events, "events"), (corr, "reports")):
            assert type(handle) is str and handle == name
            strata.deliver(handle, CollectingSink(name))  # declared in this strata
            with pytest.raises(UnknownStreamError):
                Strata().deliver(handle)  # and in no other


class TestSnakeCaseAliases:
    def test_aliases_wrap_the_canonical_function(self):
        strata = Strata()
        assert strata.addSource.__func__ is strata.add_source.__func__
        assert strata.detectEvent.__func__ is strata.detect_event.__func__
        assert strata.correlateEvents.__func__ is strata.correlate_events.__func__

    def test_canonical_spellings_no_deprecation_warning(self, recwarn):
        strata = Strata()
        strata.add_source(_source(), "raw")
        strata.detect_event("raw", "events", lambda t: [t])
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]

    def test_camelcase_aliases_never_warn(self):
        strata = Strata()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strata.addSource(_source(), "raw")
            strata.detectEvent("raw", "events", lambda t: [t])
            strata.correlateEvents("events", "reports", 2, lambda *a: {})


class TestHandleMetrics:
    def test_metrics_filtered_to_producing_operator(self):
        strata = Strata(obs=True)
        strata.add_source(_source(), "raw")
        strata.detect_event("raw", "events", lambda t: [t.derive()])
        strata.deliver("events")
        strata.deploy()
        snap = strata.metrics().filter(operator="detect:events")
        assert {s.label("operator") for s in snap} == {"detect:events"}
        assert snap.value("spe_tuples_in_total", operator="detect:events") == 4.0

    def test_fused_member_keeps_its_node_name(self):
        strata = Strata(obs=True)
        strata.add_source(_source(), "raw")
        strata.detect_event("raw", "m1", lambda t: [t.derive()])
        strata.detect_event("m1", "m2", lambda t: [t.derive()])
        strata.deliver("m2")
        assert "fused[detect:m1+detect:m2" in strata.explain(DeployConfig(plan=True))
        strata.deploy(DeployConfig(plan=True))
        snap = strata.metrics().filter(operator="detect:m1")
        assert {s.label("operator") for s in snap} == {"detect:m1"}
        assert snap.value("spe_tuples_in_total", operator="detect:m1") == 4.0

    def test_metrics_without_obs_is_empty(self):
        strata = Strata()
        strata.add_source(_source(), "raw")
        strata.deliver("raw")
        strata.deploy()
        assert len(strata.metrics().filter(operator="source:raw")) == 0
