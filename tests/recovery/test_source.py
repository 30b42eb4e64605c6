"""Barrier-capable sources: a count position over a source yielding runs."""

import pytest

from repro.recovery import CheckpointableSource
from repro.spe.barrier import CheckpointBarrier, is_barrier
from repro.spe.source import Source
from repro.spe.stream import TupleBatch
from tests.conftest import rows

from .conftest import make_tuples


class RunsOfThree(Source):
    """Nine rows (layers 0-8), yielded as three runs of three."""

    def __iter__(self):
        data = make_tuples(9)
        for start in range(0, 9, 3):
            yield TupleBatch(data[start : start + 3])


def test_a_barrier_after_a_run_records_its_rows_and_restore_resumes_after_them():
    source = CheckpointableSource(RunsOfThree("src"))
    captured, before = {}, []
    for item in source:
        if is_barrier(item):
            break
        before.extend(t.layer for t in rows([item]))
        if len(before) == 3:  # the first run is out: cut here
            source.request_barrier(
                CheckpointBarrier(1),
                lambda name, epoch, position: captured.update(position),
            )
    assert before == [0, 1, 2]
    assert captured == {"kind": "count", "emitted": 3}

    restored = CheckpointableSource(RunsOfThree("src"))
    restored.restore_position(captured)
    assert [t.layer for t in rows(restored)] == list(range(3, 9))
    assert restored.emitted == 9


@pytest.mark.parametrize("emitted", [0, 2, 4, 6, 8, 9])
def test_a_count_position_skips_rows_whatever_the_runs(emitted):
    """A run wholly inside the skip is dropped; one straddling it yields its
    tail, so the rows after the position come out exactly once."""
    restored = CheckpointableSource(RunsOfThree("src"))
    restored.restore_position({"kind": "count", "emitted": emitted})
    assert [t.layer for t in rows(restored)] == list(range(emitted, 9))
    assert restored.emitted == 9
