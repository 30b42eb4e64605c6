"""ColumnarBlock: lossless tuple<->column conversion and row selection.

The columnar transport contract (ISSUE 7): ``from_tuples`` then
``to_tuples`` reproduces the original run field-for-field, with payload
value *types* preserved — the serde layer and checkpoint manifests must
never see a numpy scalar where a Python float used to be.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spe import ColumnarBlock, StreamTuple
from repro.spe.stream import TupleBatch, item_weight

# Payload values across the packable (float, int) and unpackable (str,
# bool, None, dict, mixed) cases. bool is an int subclass — the column
# packer must not let it coerce to int64.
_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**70), max_value=2**70),  # incl. beyond int64
    st.booleans(),
    st.text(max_size=8),
    st.none(),
)


def _tuples_strategy():
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda width: st.lists(
            st.lists(_values, min_size=width, max_size=width),
            min_size=1,
            max_size=12,
        ).map(
            lambda rows: [
                _make_tuple(i, {f"k{j}": v for j, v in enumerate(row)})
                for i, row in enumerate(rows)
            ]
        )
    )


def _make_tuple(i, payload):
    t = StreamTuple(
        tau=float(i),
        job=f"J{i % 2}",
        layer=i,
        payload=payload,
        specimen=f"S{i % 3}",
        portion="p0",
        ingest_time=100.0 + i,
    )
    t.trace_id = f"tr-{i}" if i % 2 else None
    return t


def _fields(t):
    return (
        t.tau,
        t.job,
        t.layer,
        t.specimen,
        t.portion,
        t.ingest_time,
        t.trace_id,
        t.payload,
    )


@given(tuples=_tuples_strategy())
@settings(max_examples=200, deadline=None)
def test_round_trip_is_lossless_including_value_types(tuples):
    back = ColumnarBlock.from_tuples(tuples).to_tuples()
    assert isinstance(back, TupleBatch)
    assert len(back) == len(tuples)
    for original, restored in zip(tuples, back):
        assert _fields(restored) == _fields(original)
        for key, value in original.payload.items():
            assert type(restored.payload[key]) is type(value), (
                f"{key}: {value!r} came back as {restored.payload[key]!r}"
            )


def test_uniform_float_and_int_columns_become_arrays():
    block = ColumnarBlock.from_tuples(
        [_make_tuple(i, {"f": float(i), "n": i, "s": str(i)}) for i in range(4)]
    )
    assert isinstance(block.columns["f"], np.ndarray)
    assert block.columns["f"].dtype == np.float64
    assert isinstance(block.columns["n"], np.ndarray)
    assert block.columns["n"].dtype == np.int64
    assert isinstance(block.columns["s"], list)  # strings never coerce


def test_mixed_type_and_oversized_int_columns_stay_lists():
    block = ColumnarBlock.from_tuples(
        [
            _make_tuple(0, {"m": 1, "big": 2**80, "b": True}),
            _make_tuple(1, {"m": 2.0, "big": 3, "b": False}),
        ]
    )
    assert isinstance(block.columns["m"], list)  # int then float: no coercion
    assert isinstance(block.columns["big"], list)  # beyond int64: no overflow
    assert isinstance(block.columns["b"], list)  # bool must stay bool
    restored = block.to_tuples()
    assert restored[0].payload == {"m": 1, "big": 2**80, "b": True}
    assert type(restored[0].payload["b"]) is bool


def test_mixed_payload_schema_is_rejected():
    tuples = [_make_tuple(0, {"a": 1.0}), _make_tuple(1, {"b": 1.0})]
    with pytest.raises(ValueError, match="uniform payload schema"):
        ColumnarBlock.from_tuples(tuples)


def test_empty_run_is_rejected():
    with pytest.raises(ValueError, match="zero tuples"):
        ColumnarBlock.from_tuples([])


@given(tuples=_tuples_strategy(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_take_and_select_pick_rows_in_order(tuples, data):
    block = ColumnarBlock.from_tuples(tuples)
    indices = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(tuples) - 1),
            max_size=2 * len(tuples),
        )
    )
    taken = block.take(indices).to_tuples()
    assert [_fields(t) for t in taken] == [_fields(tuples[i]) for i in indices]

    mask = data.draw(
        st.lists(st.booleans(), min_size=len(tuples), max_size=len(tuples))
    )
    selected = block.select(np.array(mask)).to_tuples()
    assert [_fields(t) for t in selected] == [
        _fields(t) for t, keep in zip(tuples, mask) if keep
    ]


def test_with_columns_adds_without_mutating_original():
    block = ColumnarBlock.from_tuples(
        [_make_tuple(i, {"x": float(i)}) for i in range(3)]
    )
    extended = block.with_columns(y=np.array([1.0, 2.0, 3.0]))
    assert "y" not in block.columns
    assert extended.to_tuples()[1].payload == {"x": 1.0, "y": 2.0}


def test_map_values_swaps_stored_values_in_a_shallow_copy():
    """``map_values`` passes every array and every list-column element
    through ``fn`` once (a transport swapping payload references for
    payloads) and leaves the original block and tuple untouched."""

    class Ref:
        def __init__(self, value):
            self.value = value

    def unref(v):
        return v.value if type(v) is Ref else v

    tuples = [_make_tuple(i, {"x": float(i), "img": [i, i]}) for i in range(3)]
    block = ColumnarBlock.from_tuples(tuples)
    stored = block.with_columns(
        x=Ref(block.columns["x"]), img=[Ref(v) for v in block.columns["img"]]
    )
    stored.tau = Ref(block.tau)
    resolved = stored.map_values(unref)
    assert type(stored.tau) is Ref and type(stored.columns["x"]) is Ref
    assert [_fields(t) for t in resolved.to_tuples()] == [_fields(t) for t in tuples]

    held = tuples[0].derive(payload={"x": Ref(7.0), "y": 1})
    assert held.map_values(unref).payload == {"x": 7.0, "y": 1}
    assert type(held.payload["x"]) is Ref


def test_blocks_weigh_their_row_count_in_stream_accounting():
    tuples = [_make_tuple(i, {"x": float(i)}) for i in range(5)]
    block = ColumnarBlock.from_tuples(tuples)
    assert item_weight(block) == 5 == item_weight(block.to_tuples())
    assert item_weight(tuples[0]) == 1
