"""Stage cutting: DAG components at pub/sub connector edges."""

import pytest

from repro.core import (
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
    topic_for_stream,
)
from repro.dist import assign_stages, cut_stages, render_stages
from tests.conftest import TEST_IMAGE_PX

CELL_EDGE = 5


def build(layer_records, reference_images, test_job, connector_mode="pubsub"):
    config = UseCaseConfig(
        image_px=TEST_IMAGE_PX, cell_edge_px=CELL_EDGE, window_layers=4
    )
    strata = Strata(engine_mode="threaded", connector_mode=connector_mode)
    calibrate_job(
        strata.kv, test_job.job_id, reference_images, CELL_EDGE,
        regions=specimen_regions_px(test_job.specimens, TEST_IMAGE_PX),
    )
    build_use_case(
        iter(layer_records), iter(layer_records), config, strata=strata
    )
    return strata.query.build()


def test_use_case_cuts_into_four_stages(layer_records, reference_images, test_job):
    stages = cut_stages(build(layer_records, reference_images, test_job))
    assert len(stages) == 4
    by_name = {s.name: s for s in stages}
    # two source stages publish the raw topics
    source_outputs = sorted(
        t for s in stages if not s.input_topics and not s.terminal
        for t in s.output_topics
    )
    assert source_outputs == sorted(
        [topic_for_stream("OT"), topic_for_stream("pp")]
    )
    # the monitor stage consumes both raw topics and publishes events
    monitor = [
        s for s in stages
        if set(s.input_topics)
        == {topic_for_stream("OT"), topic_for_stream("pp")}
    ]
    assert len(monitor) == 1
    assert monitor[0].output_topics == [topic_for_stream("cellLabel")]
    assert not monitor[0].terminal
    # exactly one terminal stage: aggregator + expert sink
    terminal = [s for s in stages if s.terminal]
    assert len(terminal) == 1
    assert terminal[0].input_topics == [topic_for_stream("cellLabel")]
    assert terminal[0].output_topics == []
    assert "stage-0" in by_name  # indexes are dense and deterministic


def test_stage_indexes_are_deterministic(layer_records, reference_images, test_job):
    first = cut_stages(build(layer_records, reference_images, test_job))
    second = cut_stages(build(layer_records, reference_images, test_job))
    assert [s.node_names for s in first] == [s.node_names for s in second]


def test_readers_and_writers_found_through_wrappers(
    layer_records, reference_images, test_job
):
    stages = cut_stages(build(layer_records, reference_images, test_job))
    terminal = next(s for s in stages if s.terminal)
    readers = terminal.readers()  # wrapped in CheckpointableSource by the API
    assert len(readers) == 1
    assert readers[0].topic == topic_for_stream("cellLabel")
    monitor = next(
        s for s in stages if s.input_topics and not s.terminal
    )
    assert [w.topic for w in monitor.writers()] == [topic_for_stream("cellLabel")]


def test_assign_stages_round_robin(layer_records, reference_images, test_job):
    stages = cut_stages(build(layer_records, reference_images, test_job))
    groups, local = assign_stages(stages, workers=2)
    assert len(groups) == 2
    assert len(local) == 1 and local[0].terminal
    assert sorted(s.name for g in groups for s in g) == [
        s.name for s in stages if not s.terminal
    ]
    # one worker per stage by default
    default_groups, _ = assign_stages(stages, workers=None)
    assert len(default_groups) == 3
    # more workers than stages collapses to one stage per worker
    many_groups, _ = assign_stages(stages, workers=10)
    assert len(many_groups) == 3


def test_direct_mode_graph_has_nothing_to_distribute(
    layer_records, reference_images, test_job
):
    nodes = build(layer_records, reference_images, test_job, connector_mode="direct")
    stages = cut_stages(nodes)
    assert len(stages) == 1 and stages[0].terminal
    with pytest.raises(ValueError, match="no remote-capable"):
        assign_stages(stages, workers=2)


def test_render_stages_lists_every_node(layer_records, reference_images, test_job):
    stages = cut_stages(build(layer_records, reference_images, test_job))
    rendered = render_stages(stages)
    assert "4 stage(s):" in rendered
    assert "[terminal]" in rendered and "[remote]" in rendered
    for stage in stages:
        for name in stage.node_names:
            assert name in rendered
