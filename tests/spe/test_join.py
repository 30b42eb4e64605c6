"""Join operator: matching, predicates, group-by, eviction."""

import pytest

from repro.core import Strata
from repro.spe import JoinOperator, StreamTuple
from repro.spe.source import ListSource


def make(tau, side, layer=None, job="j", **payload):
    return StreamTuple(
        tau=tau, job=job, layer=int(tau) if layer is None else layer, payload=payload
    )


def test_exact_tau_match():
    join = JoinOperator("j", ws=0.0)
    assert join.process(0, make(1.0, "L", a=1)) == []
    out = join.process(1, make(1.0, "R", b=2))
    assert len(out) == 1
    assert out[0].payload == {"a": 1, "b": 2}


def test_exact_tau_mismatch():
    join = JoinOperator("j", ws=0.0)
    join.process(0, make(1.0, "L", a=1))
    assert join.process(1, make(2.0, "R", b=2)) == []


def test_window_distance_match():
    join = JoinOperator("j", ws=5.0)
    join.process(0, make(0.0, "L", a=1))
    assert len(join.process(1, make(4.0, "R", b=1))) == 1
    assert join.process(1, make(6.0, "R", b=2)) == []  # |6-0| > 5


def test_predicate_filters_pairs():
    join = JoinOperator(
        "j", ws=10.0, predicate=lambda l, r: l.payload["a"] == r.payload["b"]
    )
    join.process(0, make(0.0, "L", a=1))
    join.process(0, make(1.0, "L", a=2))
    out = join.process(1, make(2.0, "R", b=2))
    assert len(out) == 1
    assert out[0].payload["a"] == 2


def test_group_by_restricts_candidates():
    join = JoinOperator("j", ws=10.0, group_by=lambda t: t.job)
    join.process(0, make(0.0, "L", job="A", a=1))
    assert join.process(1, make(0.0, "R", job="B", b=1)) == []
    assert len(join.process(1, make(0.0, "R", job="A", b=1))) == 1


def test_symmetric_one_to_many():
    join = JoinOperator("j", ws=10.0)
    for i in range(3):
        join.process(0, make(float(i), "L", a=i))
    out = join.process(1, make(1.0, "R", b=9))
    assert len(out) == 3  # matches all buffered left tuples


def test_left_right_roles_in_combiner():
    seen = []

    def combiner(left, right):
        seen.append((left.payload.get("a"), right.payload.get("b")))
        return StreamTuple.fused(left, right)

    join = JoinOperator("j", ws=10.0, combiner=combiner)
    join.process(1, make(0.0, "R", b=2))  # right arrives first
    join.process(0, make(0.0, "L", a=1))
    assert seen == [(1, 2)]


def test_eviction_by_watermark():
    join = JoinOperator("j", ws=1.0)
    join.process(0, make(0.0, "L", a=1))
    # advance both inputs far past 0 + ws
    join.process(0, make(10.0, "L", a=2))
    join.process(1, make(10.0, "R", b=1))
    assert join.buffered == 2  # the tau=0 left tuple was evicted
    # late right at tau=0 can no longer match
    assert join.process(1, make(0.2, "R", b=9)) == []


def test_slow_input_prevents_eviction():
    join = JoinOperator("j", ws=1.0)
    join.process(0, make(0.0, "L", a=1))
    join.process(0, make(100.0, "L", a=2))  # left races ahead
    # right has not advanced: watermark stays low, tau=0 left must survive
    out = join.process(1, make(0.5, "R", b=1))
    assert len(out) == 1


def test_matches_counter():
    join = JoinOperator("j", ws=0.0)
    join.process(0, make(1.0, "L", a=1))
    join.process(1, make(1.0, "R", b=1))
    assert join.matches == 1


def test_on_close_clears_state():
    join = JoinOperator("j", ws=5.0)
    join.process(0, make(0.0, "L", a=1))
    assert join.on_close() == []
    assert join.buffered == 0


# -- what a fuse declares ---------------------------------------------------


def fuse_join(**window):
    """The join operator ``Strata.fuse`` declares for two sources."""
    strata = Strata()
    strata.add_source(ListSource("a", []), "OT")
    strata.add_source(ListSource("b", []), "pp")
    strata.fuse("OT", "pp", "OT&pp", **window)
    return strata.query._declared["fuse:OT&pp"].operator


def held_layers(join):
    """Layers of every tuple a checkpoint of ``join`` would hold."""
    state = join.snapshot_state()
    return sorted(t.layer for side in state["buffers"] for buf in side.values() for t in buf)


def test_windowless_fuse_holds_nothing_of_a_fused_layer():
    join = fuse_join()
    for k in range(3):
        assert join.process(0, make(float(k), "L", ot=k)) == []
        out = join.process(1, make(float(k), "R", pp=k))
        assert [t.payload for t in out] == [{"ot": k, "pp": k}]
        assert held_layers(join) == []
    # a layer still waiting for its partner is held, and fuses after a restore
    join.process(1, make(3.0, "R", pp=3))
    assert held_layers(join) == [3]
    restored = fuse_join()
    restored.restore_state(join.snapshot_state())
    out = restored.process(0, make(3.0, "L", ot=3))
    assert [t.payload for t in out] == [{"ot": 3, "pp": 3}]
    assert held_layers(restored) == []
    assert restored.matches == 4


def test_windowless_fuse_does_not_fuse_a_replayed_duplicate():
    join = fuse_join()
    join.process(0, make(1.0, "L", ot=1))
    assert len(join.process(1, make(1.0, "R", pp=1))) == 1
    assert join.process(1, make(1.0, "R", pp=1)) == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: fuse_join(ws=2.0, wa=2.0),
        lambda: fuse_join(ws=2.0, wa=1.0),
        lambda: JoinOperator("j", ws=0.0, group_by=lambda t: (t.job, t.layer)),
    ],
    ids=["tumbling-fuse", "sliding-fuse", "join"],
)
def test_two_tuples_per_key_still_emit_every_pair(build):
    join = build()
    join.process(0, make(1.0, "L", a=1))
    join.process(0, make(1.0, "L", a=2))
    out = join.process(1, make(1.0, "R", b=1))
    assert sorted(t.payload["a"] for t in out) == [1, 2]
    out = join.process(1, make(1.0, "R", b=2))
    assert sorted(t.payload["a"] for t in out) == [1, 2]
    assert held_layers(join) == [1, 1, 1, 1]
