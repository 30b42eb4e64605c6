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

**Row metadata is stored once per parent row, not once per row.** The
seven tuple fields (``tau``, ``job``, ``layer``, ``specimen``, ``portion``,
``ingest_time``, ``trace_id``) are held as short tables plus a row index
into them: ``parent`` maps each row to the metadata entry it inherits
(``None``: row *i* owns entry *i*), and ``portion_index`` does the same for
the portion table. A fan-out (one specimen row becoming its 5 000 cell
rows, :meth:`ColumnarBlock.fan_out`) therefore allocates two index arrays
and no per-cell Python object, and :meth:`~ColumnarBlock.take` /
:meth:`~ColumnarBlock.select` only re-index. The per-row view comes back
through the properties of those names and :meth:`~ColumnarBlock.to_tuples`;
code that can work per entry reads :meth:`~ColumnarBlock.inherited`, and a
codec ships :meth:`~ColumnarBlock.run_encoded`. Nothing outside this class
expands the encoding.

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


#: the row-metadata fields every row of a fan-out inherits from its parent
_INHERITED = ("tau", "job", "layer", "specimen", "ingest_time", "trace_id")


def _gather(values: Any, index: "np.ndarray | None") -> Any:
    """``values`` seen through a row index (``None``: as stored)."""
    if index is None:
        return values
    if isinstance(values, np.ndarray):
        return values[index]
    return [values[i] for i in index.tolist()]


class ColumnarBlock:
    """A run of data tuples stored column-wise (struct-of-arrays).

    The constructor takes row metadata per row; with ``parent`` the six
    inherited fields are tables instead and ``parent[i]`` is the entry row
    *i* reads (``portion`` stays per row; :meth:`fan_out` indexes it too).
    """

    __slots__ = (
        "_tau",
        "_job",
        "_layer",
        "_specimen",
        "_ingest_time",
        "_trace_id",
        "_parent",
        "_portion",
        "_portion_index",
        "_rows",
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
        parent: "np.ndarray | None" = None,
    ) -> None:
        self._tau = tau
        self._job = job
        self._layer = layer
        self._specimen = specimen
        self._ingest_time = ingest_time
        self._trace_id = trace_id
        self._parent = parent
        self._portion = portion
        self._portion_index = None
        self._rows = len(job) if parent is None else len(parent)
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

    # -- row metadata ----------------------------------------------------------

    def inherited(self, name: str) -> Any:
        """The stored table of one inherited field: one entry per parent
        row, every row reads one of them, and an entry no row reads may
        remain — enough to ask whether all rows share a value."""
        if name not in _INHERITED:
            raise KeyError(name)
        return getattr(self, "_" + name)

    # The per-row views. On a block with a parent index each read expands
    # (O(rows)): hoist it out of loops.

    @property
    def tau(self) -> np.ndarray:
        return _gather(self._tau, self._parent)

    @property
    def job(self) -> list:
        return _gather(self._job, self._parent)

    @property
    def layer(self) -> np.ndarray:
        return _gather(self._layer, self._parent)

    @property
    def specimen(self) -> list:
        return _gather(self._specimen, self._parent)

    @property
    def ingest_time(self) -> np.ndarray:
        return _gather(self._ingest_time, self._parent)

    @property
    def trace_id(self) -> list:
        return _gather(self._trace_id, self._parent)

    @property
    def portion(self) -> list:
        return _gather(self._portion, self._portion_index)

    def run_encoded(self) -> "tuple[dict[str, Any], list[int] | None]":
        """Inherited metadata with one entry per run of consecutive rows
        sharing a parent, and the run lengths (``None``: every row is its
        own run). The compact form a codec ships; ``parent`` for it is
        ``np.repeat(np.arange(len(runs)), runs)``.
        """
        parent = self._parent
        if parent is None:
            return {name: getattr(self, "_" + name) for name in _INHERITED}, None
        changes = np.ones(len(parent), dtype=bool)
        changes[1:] = parent[1:] != parent[:-1]
        starts = np.flatnonzero(changes)
        heads = parent[starts]
        runs = np.diff(starts, append=len(parent)).tolist()
        if np.array_equal(heads, np.arange(len(self._job))):
            # one run per entry, in order (a fan-out, a decoded record):
            # the tables ship as stored, whatever a transport left in them
            heads = None
        return {
            name: _gather(getattr(self, "_" + name), heads) for name in _INHERITED
        }, runs

    # -- derived blocks ----------------------------------------------------------

    def replace_columns(self, columns: dict[str, Any]) -> "ColumnarBlock":
        """New block over ``columns``: same rows, same metadata encoding
        (what a one-row-in, one-row-out operator returns)."""
        out = ColumnarBlock.__new__(ColumnarBlock)
        for slot in ColumnarBlock.__slots__:
            setattr(out, slot, getattr(self, slot))
        out.columns = columns
        return out

    def fan_out(
        self,
        counts: "np.ndarray | Sequence[int]",
        columns: dict[str, "np.ndarray | list"],
        portion: list,
        portion_index: "np.ndarray | None" = None,
    ) -> "ColumnarBlock":
        """New block in which row *i* of this one becomes ``counts[i]`` rows.

        The new rows inherit row *i*'s metadata through the parent index;
        only ``portion`` (a table, read through ``portion_index``) and the
        payload ``columns`` are theirs.
        """
        spread = np.repeat(np.arange(self._rows, dtype=np.intp), counts)
        out = self.replace_columns(columns)
        out._parent = spread if self._parent is None else self._parent[spread]
        out._portion = portion
        out._portion_index = portion_index
        out._rows = len(spread)
        return out

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
        """New block with the rows at ``indices``, in the given order.

        Columns are gathered; row metadata is only re-indexed (the tables
        are shared with this block).
        """
        idx = np.asarray(indices, dtype=np.intp)
        out = self.replace_columns(
            {key: _gather(col, idx) for key, col in self.columns.items()}
        )
        out._parent = idx if self._parent is None else self._parent[idx]
        out._portion_index = (
            idx if self._portion_index is None else self._portion_index[idx]
        )
        out._rows = len(idx)
        return out

    def select(self, mask: np.ndarray) -> "ColumnarBlock":
        """New block with the rows where boolean ``mask`` is true."""
        return self.take(np.nonzero(np.asarray(mask, dtype=bool))[0])

    def with_columns(self, **extra: Any) -> "ColumnarBlock":
        """New block sharing this block's metadata with columns added."""
        columns = dict(self.columns)
        columns.update(extra)
        return self.replace_columns(columns)

    def map_values(self, fn: Callable[[Any], Any]) -> "ColumnarBlock":
        """Shallow copy with ``fn`` applied to every array and list-column element.

        For code that swaps stored values for others without knowing the
        block's layout (a transport resolving payload references): the row
        metadata lists and index arrays are shared, everything ``fn`` could
        replace is passed through it once.
        """
        out = self.replace_columns(
            {
                key: [fn(v) for v in col] if type(col) is list else fn(col)
                for key, col in self.columns.items()
            }
        )
        out._tau = fn(self._tau)
        out._layer = fn(self._layer)
        out._ingest_time = fn(self._ingest_time)
        return out

    def __len__(self) -> int:
        return self._rows

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ColumnarBlock(rows={len(self)}, "
            f"columns={sorted(self.columns)})"
        )


register_weighted_type(ColumnarBlock)
