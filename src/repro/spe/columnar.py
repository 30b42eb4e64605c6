"""Columnar blocks: struct-of-arrays transport for array-at-a-time operators.

A :class:`ColumnarBlock` is the columnar twin of a
:class:`~repro.spe.stream.TupleBatch`: the same run of data tuples, stored
as one array per field instead of one object per tuple. Operators that
advertise a ``process_block`` method (see
:class:`~repro.spe.plan.VectorizedFusedOperator`) transform whole columns
with numpy kernels — the per-cell stages of the use case drop from one
Python call per cell to a handful of array operations per image.

The conversion contract is **lossless**: ``from_tuples`` followed by
``to_tuples`` reproduces the original tuples field-for-field, including
payload value types (floats stay Python floats, not ``np.float64`` — the
serde layer and checkpoint manifests must not see numpy scalars).
Columns whose values are uniformly ``float`` or uniformly ``int`` become
``float64`` / ``int64`` arrays; everything else (strings, dicts, arrays,
mixed types, out-of-range ints) stays a plain list, so no value is ever
coerced.

Blocks only ever form over *data* tuples with one shared payload schema;
``from_tuples`` rejects mixed key sets rather than inventing missing
values. Control items (punctuation, barriers, EOS) are never blocked.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .stream import TupleBatch, register_weighted_type
from .tuples import StreamTuple

__all__ = ["ColumnarBlock"]


def _as_column(values: list) -> "np.ndarray | list":
    """Pack a payload column, preserving exact value types on round-trip.

    ``bool`` is excluded from the int fast path (it is an ``int`` subclass
    but must round-trip as ``bool``); ints beyond int64 fall back to a
    plain list instead of overflowing.
    """
    first = values[0]
    if type(first) is float:
        for v in values:
            if type(v) is not float:
                return values
        return np.asarray(values, dtype=np.float64)
    if type(first) is int:
        for v in values:
            if type(v) is not int:
                return values
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            return values
    return values


def _take_list(values: list, indices: list[int]) -> list:
    return [values[i] for i in indices]


class ColumnarBlock:
    """A run of data tuples stored column-wise (struct-of-arrays)."""

    __slots__ = (
        "tau",
        "job",
        "layer",
        "specimen",
        "portion",
        "ingest_time",
        "trace_id",
        "columns",
    )

    #: streams account a block's weight as its row count (see item_weight)
    _is_columnar_block = True

    def __init__(
        self,
        tau: np.ndarray,
        job: list,
        layer: np.ndarray,
        specimen: list,
        portion: list,
        ingest_time: np.ndarray,
        trace_id: list,
        columns: dict[str, "np.ndarray | list"],
    ) -> None:
        self.tau = tau
        self.job = job
        self.layer = layer
        self.specimen = specimen
        self.portion = portion
        self.ingest_time = ingest_time
        self.trace_id = trace_id
        self.columns = columns

    @classmethod
    def from_tuples(cls, tuples: Sequence[StreamTuple]) -> "ColumnarBlock":
        """Build a block from a non-empty run of same-schema data tuples."""
        if not tuples:
            raise ValueError("cannot build a ColumnarBlock from zero tuples")
        keys = tuples[0].payload.keys()
        for t in tuples:
            if t.payload.keys() != keys:
                raise ValueError(
                    "ColumnarBlock requires a uniform payload schema; got "
                    f"{sorted(keys)} and {sorted(t.payload.keys())}"
                )
        columns: dict[str, np.ndarray | list] = {}
        for key in keys:
            columns[key] = _as_column([t.payload[key] for t in tuples])
        return cls(
            tau=np.array([t.tau for t in tuples], dtype=np.float64),
            job=[t.job for t in tuples],
            layer=np.array([t.layer for t in tuples], dtype=np.int64),
            specimen=[t.specimen for t in tuples],
            portion=[t.portion for t in tuples],
            ingest_time=np.array([t.ingest_time for t in tuples], dtype=np.float64),
            trace_id=[t.trace_id for t in tuples],
            columns=columns,
        )

    def to_tuples(self) -> TupleBatch:
        """Materialize the rows back into stream tuples (lossless).

        Array columns go through ``tolist()`` so payload values come back
        as plain Python floats/ints — bit-identical to the originals.
        """
        cols = [
            (key, col.tolist() if isinstance(col, np.ndarray) else col)
            for key, col in self.columns.items()
        ]
        taus = self.tau.tolist()
        layers = self.layer.tolist()
        ingests = self.ingest_time.tolist()
        jobs = self.job
        specimens = self.specimen
        portions = self.portion
        trace_ids = self.trace_id
        out = TupleBatch()
        append = out.append
        for i in range(len(taus)):
            t = StreamTuple.__new__(StreamTuple)
            t.tau = taus[i]
            t.job = jobs[i]
            t.layer = layers[i]
            t.specimen = specimens[i]
            t.portion = portions[i]
            t.payload = {key: col[i] for key, col in cols}
            t.ingest_time = ingests[i]
            t.trace_id = trace_ids[i]
            append(t)
        return out

    def take(self, indices: "np.ndarray | Iterable[int]") -> "ColumnarBlock":
        """New block with the rows at ``indices``, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        idx_list = idx.tolist()
        return ColumnarBlock(
            tau=self.tau[idx],
            job=_take_list(self.job, idx_list),
            layer=self.layer[idx],
            specimen=_take_list(self.specimen, idx_list),
            portion=_take_list(self.portion, idx_list),
            ingest_time=self.ingest_time[idx],
            trace_id=_take_list(self.trace_id, idx_list),
            columns={
                key: col[idx] if isinstance(col, np.ndarray) else _take_list(col, idx_list)
                for key, col in self.columns.items()
            },
        )

    def select(self, mask: np.ndarray) -> "ColumnarBlock":
        """New block with the rows where boolean ``mask`` is true."""
        return self.take(np.nonzero(np.asarray(mask, dtype=bool))[0])

    def with_columns(self, **extra: Any) -> "ColumnarBlock":
        """New block sharing this block's metadata with columns added."""
        columns = dict(self.columns)
        columns.update(extra)
        return ColumnarBlock(
            tau=self.tau,
            job=self.job,
            layer=self.layer,
            specimen=self.specimen,
            portion=self.portion,
            ingest_time=self.ingest_time,
            trace_id=self.trace_id,
            columns=columns,
        )

    def map_values(self, fn: Callable[[Any], Any]) -> "ColumnarBlock":
        """Shallow copy with ``fn`` applied to every array and list-column element.

        For code that swaps stored values for others without knowing the
        block's layout (a transport resolving payload references): the row
        metadata lists are shared, everything ``fn`` could replace is passed
        through it once.
        """
        return ColumnarBlock(
            tau=fn(self.tau),
            job=self.job,
            layer=fn(self.layer),
            specimen=self.specimen,
            portion=self.portion,
            ingest_time=fn(self.ingest_time),
            trace_id=self.trace_id,
            columns={
                key: [fn(v) for v in col] if type(col) is list else fn(col)
                for key, col in self.columns.items()
            },
        )

    def __len__(self) -> int:
        return len(self.tau)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ColumnarBlock(rows={len(self)}, "
            f"columns={sorted(self.columns)})"
        )


register_weighted_type(ColumnarBlock)
