"""Operator reshard_state: state drained from N shards, split across M."""

from repro.core.operators import (
    CorrelateEventsOperator,
    DetectEventOperator,
    PartitionOperator,
)
from repro.spe.operators.router import hash_route


def route_for(shards):
    return lambda key: hash_route(key, shards)


def count_events(t):
    return [t.derive(payload={**t.payload, "seen": True})]


def test_detect_event_counter_is_additive():
    op = DetectEventOperator("detect", count_events)
    states = [{"events_out": 3}, {"events_out": 5}, None]
    out = op.reshard_state(states, 2, route_for(2))
    assert [s["events_out"] for s in out] == [8, 0]


def test_partition_without_stateful_fn_reshards_to_none():
    op = PartitionOperator("part")
    out = op.reshard_state([None, None], 3, route_for(3))
    assert out == [None, None, None]


def test_correlate_windows_split_along_group_key():
    def agg(window, t):
        return []

    op = CorrelateEventsOperator("corr", 4, agg)
    keys = [("j", f"s{i}") for i in range(6)]
    states = [
        {
            "events": {keys[0]: {1: ["a"]}, keys[2]: {1: ["c"]}},
            "last_punct": {keys[0]: 1},
            "triggers": 2,
        },
        {
            "events": {keys[1]: {2: ["b"]}, keys[3]: {2: ["d"]}},
            "last_punct": {keys[1]: 2},
            "triggers": 1,
        },
    ]
    out = op.reshard_state(states, 3, route_for(3))
    assert len(out) == 3
    # every window lands on the shard its routing key hashes to
    for index, state in enumerate(out):
        for group in state["events"]:
            assert hash_route(group, 3) == index
    # nothing lost: the union of shards is the union of inputs
    merged = {}
    for state in out:
        assert not merged.keys() & state["events"].keys()  # disjoint shards
        merged.update(state["events"])
    assert merged == {
        keys[0]: {1: ["a"]}, keys[1]: {2: ["b"]},
        keys[2]: {1: ["c"]}, keys[3]: {2: ["d"]},
    }
    # the trigger counter is additive
    assert sum(s["triggers"] for s in out) == 3
