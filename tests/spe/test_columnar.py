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
    stored = ColumnarBlock(
        tau=Ref(block.tau),
        job=block.job,
        layer=block.layer,
        specimen=block.specimen,
        portion=block.portion,
        ingest_time=block.ingest_time,
        trace_id=block.trace_id,
        columns={
            "x": Ref(block.columns["x"]),
            "img": [Ref(v) for v in block.columns["img"]],
        },
    )
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


# -- late-materialised row metadata (ISSUE 16) ---------------------------------
#
# A fan-out block stores inherited metadata once per parent row plus a row
# index. Everything observable about it must equal the eagerly expanded
# block — the form the fan-out used to build, rebuilt here from the raw
# inputs with the retired ``_repeat_list`` formulation as the oracle.


def _repeat_list(values, counts):
    out = []
    for value, count in zip(values, counts):
        out.extend([value] * count)
    return out


def _typed_fields(t):
    """A tuple's fields with their exact types (float vs np.float64 matters)."""
    values = _fields(t)[:-1] + tuple(t.payload.values())
    return [list(t.payload)] + [(v, type(v)) for v in values]


def _rows(block):
    return [_typed_fields(t) for t in block.to_tuples()]


@st.composite
def _fan_outs(draw):
    """(fan-out block, its eagerly expanded twin) over the same inputs."""
    parents = [
        _make_tuple(i, {"x": float(i)}) for i in range(draw(st.integers(1, 5)))
    ]
    counts = [draw(st.integers(0, 6)) for _ in parents]
    rows = sum(counts)
    table = [f"{r}:{c}" for r in range(3) for c in range(4)]
    index = np.array(
        [draw(st.integers(0, len(table) - 1)) for _ in range(rows)], dtype=np.intp
    )
    columns = {
        "mean": np.array([0.5 * i for i in range(rows)], dtype=np.float64),
        "n": np.arange(rows, dtype=np.int64),
        "tag": [f"t{i % 3}" for i in range(rows)],
    }
    source = ColumnarBlock.from_tuples(parents)
    fan = source.fan_out(counts, dict(columns), table, index)
    reps = np.asarray(counts, dtype=np.intp)
    eager = ColumnarBlock(
        tau=np.repeat(source.tau, reps),
        job=_repeat_list(source.job, counts),
        layer=np.repeat(source.layer, reps),
        specimen=_repeat_list(source.specimen, counts),
        portion=[table[i] for i in index.tolist()],
        ingest_time=np.repeat(source.ingest_time, reps),
        trace_id=_repeat_list(source.trace_id, counts),
        columns=dict(columns),
    )
    return fan, eager


@given(pair=_fan_outs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_fan_out_block_equals_its_eager_expansion(pair, data):
    fan, eager = pair
    rows = len(eager.job)
    assert len(fan) == len(eager) == rows
    assert item_weight(fan) == rows
    assert _rows(fan) == _rows(eager)
    # the per-row views, one by one, with list/array kinds and value types
    for name in ("job", "specimen", "portion", "trace_id"):
        assert getattr(fan, name) == getattr(eager, name)
    for name in ("tau", "layer", "ingest_time"):
        assert np.array_equal(getattr(fan, name), getattr(eager, name))
        assert getattr(fan, name).dtype == getattr(eager, name).dtype

    indices = data.draw(
        st.lists(st.integers(-rows, rows - 1), max_size=2 * rows) if rows else st.just([])
    )
    assert _rows(fan.take(indices)) == _rows(eager.take(indices))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    assert _rows(fan.select(mask)) == _rows(eager.select(mask))
    label = [f"L{i}" for i in range(rows)]
    assert _rows(fan.with_columns(label=label)) == _rows(eager.with_columns(label=label))
    assert "label" not in fan.columns
    only = {"label": label}
    assert _rows(fan.replace_columns(only)) == _rows(eager.replace_columns(only))
    assert _rows(fan.map_values(lambda v: v)) == _rows(eager)
    # a selection of a selection, and a fan-out of a fan-out, compose
    again = data.draw(st.lists(st.integers(0, max(len(indices) - 1, 0)), max_size=4))
    if indices:
        assert _rows(fan.take(indices).take(again)) == _rows(
            eager.take(indices).take(again)
        )
    twice = [data.draw(st.integers(0, 2)) for _ in range(rows)]
    sub = [f"s{i}" for i in range(sum(twice))]
    assert _rows(fan.fan_out(twice, {}, sub)) == _rows(eager.fan_out(twice, {}, sub))


@given(pair=_fan_outs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_fan_out_block_survives_the_wire_like_its_eager_expansion(pair, data):
    from repro.serde import decode_wire, encode_wire

    fan, eager = pair
    rows = len(fan)
    want = _rows(eager)
    decoded = decode_wire(encode_wire(fan))
    assert len(decoded) == rows and _rows(decoded) == want
    # a decoded record re-encodes to the same bytes (a broker relaying it)
    assert encode_wire(decoded) == encode_wire(fan)
    indices = data.draw(
        st.lists(st.integers(0, rows - 1), max_size=rows) if rows else st.just([])
    )
    taken = decode_wire(encode_wire(fan.take(indices)))
    assert _rows(taken) == _rows(eager.take(indices))


def test_fan_out_metadata_is_per_parent_in_memory_and_on_the_wire():
    """The guard ISSUE 16 asks for: nothing about ``job`` / ``specimen`` /
    ``trace_id`` scales with the cells a specimen fans out into."""
    from repro.serde import encode_wire

    def fan(job, cells):
        parents = [
            StreamTuple(1.0, job, 3, {"x": 0.0}, specimen=f"{job}-S{k:02d}", portion="*")
            for k in range(12)
        ]
        source = ColumnarBlock.from_tuples(parents)
        table = [str(i) for i in range(cells)]
        return source.fan_out(
            [cells] * 12,
            {"mean": np.zeros(12 * cells)},
            table,
            np.tile(np.arange(cells, dtype=np.intp), 12),
        )

    block = fan("J", 5000)
    assert len(block) == 60_000
    for name in ("job", "specimen", "trace_id", "tau", "layer", "ingest_time"):
        assert len(block.inherited(name)) == 12
    survivors = block.take(np.arange(0, 60_000, 2000))
    assert len(survivors.inherited("job")) == 12  # re-indexed, not expanded
    assert survivors.to_tuples()[-1].specimen == "J-S11"

    # on the wire: a longer job name costs its 12 parents (job once, inside
    # specimen once), never its 60 000 rows — at any fan-out width
    extra = len("J" * 40) - len("J")
    for cells in (50, 5000):
        short, long = encode_wire(fan("J", cells)), encode_wire(fan("J" * 40, cells))
        assert len(long) - len(short) == 12 * 2 * extra
