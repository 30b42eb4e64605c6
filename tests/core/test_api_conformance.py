"""E5 — Table 1 API conformance.

Verifies the framework exposes exactly the API surface of the paper's
Table 1: method names, optional parameters, and the output tuple schemas
each method promises.
"""

import dataclasses
import inspect

import pytest

from repro.core import Strata
from repro.spe import ListSource, StreamTuple
from repro.spe.sink import CollectingSink


def make_strata():
    return Strata(engine_mode="sync")


def source_tuples():
    return [
        StreamTuple(tau=float(i), job="J", layer=i, payload={"k1": i, "k2": -i})
        for i in range(4)
    ]


class TestAPISurface:
    def test_table1_methods_exist(self):
        strata = make_strata()
        for method in ("store", "get", "addSource", "fuse", "partition",
                       "detectEvent", "correlateEvents"):
            assert callable(getattr(strata, method)), method

    def test_fuse_optional_parameters(self):
        signature = inspect.signature(Strata.fuse)
        assert signature.parameters["ws"].default is None
        assert signature.parameters["wa"].default is None
        assert signature.parameters["gb"].default is None

    def test_partition_function_optional(self):
        signature = inspect.signature(Strata.partition)
        assert signature.parameters["f"].default is None

    def test_verbs_declare_no_replica_count(self):
        """Table 1 takes (s_in, s_out[, L], F): replicas are the plan's."""
        from repro.core import UseCaseConfig
        from repro.spe import Query
        from repro.thermal import ThermalPipelineConfig

        for verb in (Strata.partition, Strata.detect_event, Strata.correlate_events,
                     Strata.detectEvent, Strata.correlateEvents, Query.add_operator):
            assert "parallelism" not in inspect.signature(verb).parameters, verb
        for config in (UseCaseConfig, ThermalPipelineConfig):
            assert "parallelism" not in {f.name for f in dataclasses.fields(config)}

    def test_snake_case_aliases(self):
        assert Strata.addSource is Strata.add_source
        assert Strata.detectEvent is Strata.detect_event
        assert Strata.correlateEvents is Strata.correlate_events


class TestStoreGet:
    def test_roundtrip(self):
        strata = make_strata()
        strata.store("k", {"v": 1})
        assert strata.get("k") == {"v": 1}
        assert strata.get("missing") is None
        assert strata.get("missing", 7) == 7

    def test_accessible_by_user_functions(self):
        """store/get 'can be invoked by all other API methods' (Table 1)."""
        strata = make_strata()
        strata.store("factor", 3)

        def scale(t):
            return [t.derive(payload={"x": t.payload["k1"] * strata.get("factor")})]

        strata.addSource(ListSource("src", source_tuples()), "s")
        strata.detectEvent("s", "out", scale)
        sink = strata.deliver("out")
        strata.deploy()
        assert sorted(t.payload["x"] for t in sink.results) == [0, 3, 6, 9]


class TestOutputSchemas:
    def test_addsource_schema(self):
        """<tau, job, layer, [k:v...]> out of a Source."""
        strata = make_strata()
        strata.addSource(ListSource("src", source_tuples()), "s")
        sink = strata.deliver("s")
        strata.deploy()
        t = sink.results[0]
        assert isinstance(t.tau, float)
        assert t.job == "J"
        assert isinstance(t.layer, int)
        assert set(t.payload) == {"k1", "k2"}

    def test_partition_schema_adds_specimen_portion(self):
        """<tau, job, layer, specimen, portion, [k:v...]> after partition."""
        strata = make_strata()
        strata.addSource(ListSource("src", source_tuples()), "s")
        strata.partition(
            "s", "p",
            lambda t: [t.derive(specimen="S1", portion="a"),
                       t.derive(specimen="S2", portion="b")],
        )
        sink = strata.deliver("p")
        strata.deploy()
        from repro.core import is_punctuation

        data = [t for t in sink.results if not is_punctuation(t)]
        assert all(t.specimen in ("S1", "S2") for t in data)
        assert all(t.portion in ("a", "b") for t in data)

    def test_partition_defaults_without_function(self):
        """Table 1: without F, the whole tuple is one specimen/portion."""
        from repro.spe import WHOLE_PORTION, WHOLE_SPECIMEN

        strata = make_strata()
        strata.addSource(ListSource("src", source_tuples()), "s")
        strata.partition("s", "p")
        sink = strata.deliver("p")
        strata.deploy()
        from repro.core import is_punctuation

        data = [t for t in sink.results if not is_punctuation(t)]
        assert len(data) == 4
        assert all(t.specimen == WHOLE_SPECIMEN for t in data)
        assert all(t.portion == WHOLE_PORTION for t in data)

    def test_fuse_concatenates_unique_keys(self):
        strata = make_strata()
        left = [StreamTuple(tau=float(i), job="J", layer=i, payload={"a": i}) for i in range(3)]
        right = [StreamTuple(tau=float(i), job="J", layer=i, payload={"b": 10 * i}) for i in range(3)]
        strata.addSource(ListSource("L", left), "l")
        strata.addSource(ListSource("R", right), "r")
        strata.fuse("l", "r", "f")
        sink = strata.deliver("f")
        strata.deploy()
        assert len(sink.results) == 3
        for t in sink.results:
            assert set(t.payload) == {"a", "b"}
            assert t.payload["b"] == 10 * t.payload["a"]

    def test_correlate_schema_drops_portion(self):
        """<tau, job, layer, specimen, [k:v...]> out of correlateEvents."""
        strata = make_strata()
        strata.addSource(ListSource("src", source_tuples()), "s")
        strata.partition("s", "p")
        strata.detectEvent("p", "e", lambda t: [t])
        strata.correlateEvents("e", "out", 2, lambda job, layer, spec, evs: {"n": len(evs)})
        sink = strata.deliver("out")
        strata.deploy()
        assert len(sink.results) == 4  # one trigger per layer (single specimen)
        for t in sink.results:
            assert t.portion is None
            assert t.specimen is not None
            assert "n" in t.payload


class TestPipelineValidation:
    def test_unknown_stream_rejected(self):
        from repro.core import UnknownStreamError

        strata = make_strata()
        with pytest.raises(UnknownStreamError):
            strata.partition("ghost", "p")

    def test_duplicate_stream_rejected(self):
        from repro.core import PipelineDefinitionError

        strata = make_strata()
        strata.addSource(ListSource("src", []), "s")
        with pytest.raises(PipelineDefinitionError):
            strata.addSource(ListSource("src2", []), "s")

    def test_ws_without_wa_rejected(self):
        from repro.core import PipelineDefinitionError

        strata = make_strata()
        strata.addSource(ListSource("a", []), "a")
        strata.addSource(ListSource("b", []), "b")
        with pytest.raises(PipelineDefinitionError):
            strata.fuse("a", "b", "f", ws=5.0)

    def test_deploy_freezes_pipeline(self):
        from repro.core import DeploymentError

        strata = make_strata()
        strata.addSource(ListSource("src", source_tuples()), "s")
        strata.deliver("s", CollectingSink())
        strata.deploy()
        with pytest.raises(DeploymentError):
            strata.addSource(ListSource("x", []), "late")
