"""STRATA API methods compiled to native operators.

Each Table 1 method maps onto the §2 operator catalogue:

* ``fuse``            -> Join (exact-tau, or windowed)
* ``partition``       -> Map emitting specimen/portion-tagged tuples,
                         plus layer-completeness punctuation
* ``detectEvent``     -> Map applying the user's detection function
* ``correlateEvents`` -> a stateful aggregate over (job, specimen) groups
                         windowed by the last L layers, triggered by
                         punctuation

Keeping these as thin compositions over the SPE's native operators is the
paper's central design point: the pipeline inherits parallel execution and
portability from the underlying engine.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable

from ..spe.operators.base import (
    Operator,
    as_tuple_list,
    reshard_callable,
    restore_callable,
    snapshot_callable,
)
from ..spe.tuples import WHOLE_PORTION, WHOLE_SPECIMEN, StreamTuple
from .punctuation import PUNCTUATION_KEY, is_punctuation, make_punctuation

#: partition / detectEvent user function: one tuple in, any number out
UserFunction = Callable[[StreamTuple], StreamTuple | Iterable[StreamTuple] | None]
#: correlateEvents user function:
#:   (job, layer, specimen, window_events) -> payload dict(s);
#: it may also offer ``correlate_many(requests)``: one result per
#: (job, layer, specimen, window_events) request, for requests of
#: distinct groups
CorrelateFunction = Callable[
    [str, int, str, list[StreamTuple]], dict[str, Any] | list[dict[str, Any]] | None
]


def default_partition(t: StreamTuple) -> list[StreamTuple]:
    """Table 1 default: the whole tuple is one specimen/portion."""
    return [t.derive(specimen=WHOLE_SPECIMEN, portion=WHOLE_PORTION)]


class PartitionOperator(Operator):
    """Map wrapper for ``partition(s_in, s_out, F)``.

    If the inputs carry no specimen yet, this stage is the one assigning
    it, so it also emits the layer-completeness punctuation for every
    specimen derived from each input tuple. Punctuation arriving from an
    upstream partition is forwarded untouched.
    """

    num_inputs = 1

    def __init__(self, name: str, fn: UserFunction | None = None) -> None:
        super().__init__(name)
        self._fn = fn or default_partition
        # F is a plain callable; an array-at-a-time variant is optional
        self._fn_block = getattr(self._fn, "process_block", None)
        self.supports_block = self._fn_block is not None

    def process(self, input_index: int, t: StreamTuple) -> list[StreamTuple]:
        if is_punctuation(t):
            return [t]
        assigns_specimen = t.specimen is None
        outputs = as_tuple_list(self._fn(t))
        for out in outputs:
            if out.specimen is None:
                out.specimen = WHOLE_SPECIMEN
            if out.portion is None:
                out.portion = WHOLE_PORTION
        if not assigns_specimen:
            return outputs
        seen: list[str] = []
        for out in outputs:
            if out.specimen not in seen:
                seen.append(out.specimen)
        if not seen:
            seen.append(WHOLE_SPECIMEN)
        punctuation = [make_punctuation(t, specimen) for specimen in seen]
        return outputs + punctuation

    # -- columnar execution -------------------------------------------------

    def block_eligible(self, t: StreamTuple) -> bool:
        """True when ``t`` may join a columnar block through this stage.

        Punctuation and specimen-assigning tuples take the scalar path:
        that is where layer-completeness punctuation is minted, which no
        block kernel reproduces.
        """
        return t.specimen is not None and PUNCTUATION_KEY not in t.payload

    def process_block(self, block: "Any") -> "Any":
        """Array-at-a-time counterpart of :meth:`process` for eligible rows.

        The function's block variant must emit rows with specimen and
        portion assigned (both use-case kernels inherit/assign them), so
        the scalar path's defaulting never applies here.
        """
        return self._fn_block(block)

    def snapshot_state(self) -> dict[str, Any] | None:
        fn_state = snapshot_callable(self._fn)
        return None if fn_state is None else {"fn": fn_state}

    def restore_state(self, state: dict[str, Any]) -> None:
        restore_callable(self._fn, state.get("fn"))

    def reshard_state(self, states, shards, route):
        fn_states = [None if s is None else s.get("fn") for s in states]
        fns = reshard_callable(self._fn, fn_states, shards, route)
        return [None if f is None else {"fn": f} for f in fns]


class DetectEventOperator(Operator):
    """Map wrapper for ``detectEvent(s_in, s_out, F)``.

    When fed directly from a source or ``fuse`` (no specimen assigned),
    it adopts the partition defaults and emits punctuation itself, so
    pipelines without an explicit partition step still trigger the
    aggregator per layer.
    """

    num_inputs = 1

    def __init__(self, name: str, fn: UserFunction) -> None:
        super().__init__(name)
        self._fn = fn
        # F is a plain callable; bulk and array-at-a-time variants are
        # optional (``LabelCell`` offers both)
        self._fn_many = getattr(fn, "process_many", None)
        self._fn_block = getattr(fn, "process_block", None)
        self.supports_block = self._fn_block is not None
        self.events_out = 0

    def process(self, input_index: int, t: StreamTuple) -> list[StreamTuple]:
        if PUNCTUATION_KEY in t.payload:
            return [t]
        assigns_specimen = t.specimen is None
        if assigns_specimen:
            t = t.derive(specimen=WHOLE_SPECIMEN, portion=WHOLE_PORTION)
        outputs = as_tuple_list(self._fn(t))
        if not outputs and not assigns_specimen:
            return outputs
        for out in outputs:
            if out.specimen is None:
                out.specimen = t.specimen
            if out.portion is None:
                out.portion = t.portion
        self.events_out += len(outputs)
        if assigns_specimen:
            specimens: list[str] = []
            for out in outputs:
                if out.specimen not in specimens:
                    specimens.append(out.specimen)
            if t.specimen not in specimens:
                specimens.append(t.specimen)
            outputs = outputs + [make_punctuation(t, s) for s in specimens]
        return outputs

    def process_many(
        self, tuples: list[StreamTuple], input_index: int = 0
    ) -> list[StreamTuple]:
        """Bulk scalar path: one pass over a run of tuples.

        Runs of plain event-carrying tuples go through the function's own
        bulk method when it has one (``LabelCell.process_many`` hoists its
        threshold lookup out of the loop); punctuation and
        specimen-assigning tuples fall back to :meth:`process` at their
        exact stream position, so ordering and punctuation semantics are
        untouched.
        """
        fn_many = self._fn_many
        if fn_many is None:
            return super().process_many(tuples, input_index)
        out: list[StreamTuple] = []
        extend = out.extend
        run: list[StreamTuple] = []
        events = 0
        for t in tuples:
            if t.specimen is not None and PUNCTUATION_KEY not in t.payload:
                run.append(t)
                continue
            if run:
                got = fn_many(run)
                events += len(got)
                extend(got)
                run = []
            got = self.process(0, t)
            if got:
                extend(got)
        if run:
            got = fn_many(run)
            events += len(got)
            extend(got)
        self.events_out += events
        return out

    # -- columnar execution -------------------------------------------------

    def block_eligible(self, t: StreamTuple) -> bool:
        """True when ``t`` may join a columnar block through this stage."""
        return t.specimen is not None and PUNCTUATION_KEY not in t.payload

    def process_block(self, block: "Any") -> "Any":
        """Array-at-a-time counterpart of :meth:`process` for eligible rows.

        Eligible rows carry a specimen, so the scalar path's
        specimen-defaulting and punctuation minting never apply; the event
        counter advances exactly as it would tuple-by-tuple.
        """
        out = self._fn_block(block)
        self.events_out += len(out)
        return out

    def snapshot_state(self) -> dict[str, Any]:
        state: dict[str, Any] = {"events_out": self.events_out}
        fn_state = snapshot_callable(self._fn)
        if fn_state is not None:
            state["fn"] = fn_state
        return state

    def restore_state(self, state: dict[str, Any]) -> None:
        self.events_out = int(state["events_out"])
        restore_callable(self._fn, state.get("fn"))

    def reshard_state(self, states, shards, route):
        # The event counter is additive: the sum lands in shard 0 so the
        # group-wide total survives any number of merge/split cycles.
        total = sum(int(s["events_out"]) for s in states if s is not None)
        fn_states = [None if s is None else s.get("fn") for s in states]
        fns = reshard_callable(self._fn, fn_states, shards, route)
        out: list[dict[str, Any]] = []
        for i in range(shards):
            state: dict[str, Any] = {"events_out": total if i == 0 else 0}
            if fns[i] is not None:
                state["fn"] = fns[i]
            out.append(state)
        return out

    def stats_extra(self) -> dict[str, float]:
        return {"events_detected_total": self.events_out}


def _sort_by_layer(per_layer: dict[int, Any]) -> None:
    """Re-establish ascending layer order in place (dicts keep insertion order)."""
    ordered = sorted(per_layer.items())
    per_layer.clear()
    per_layer.update(ordered)


class CorrelateEventsOperator(Operator):
    """Stateful aggregate for ``correlateEvents(s_in, s_out, L, F)``.

    Groups events by (job, specimen) — "across layers, events are
    automatically grouped by STRATA based on the specimen they refer to"
    (§4) — and keeps the last ``L`` layers per group. A punctuation for
    (job, layer, specimen) triggers the user function over that group's
    current window; layers older than the window are evicted. The windows
    a run of tuples triggers are evaluated together (see
    :meth:`process_many`); a lone tuple is a run of one.
    """

    num_inputs = 1

    def __init__(self, name: str, window_layers: int, fn: CorrelateFunction) -> None:
        super().__init__(name)
        if window_layers < 1:
            raise ValueError("L must be >= 1 layer")
        self._window = window_layers
        self._fn = fn
        # F is a plain callable; a batch variant over several windows is
        # optional (``DBSCANCorrelator`` offers one)
        self._fn_many = getattr(fn, "correlate_many", None) or self._call_each
        # (job, specimen) -> {layer -> [events]}, layers in ascending order
        self._events: dict[tuple[str, str], dict[int, list[StreamTuple]]] = {}
        # (job, specimen) -> {layer -> latest ingest_time among its events}
        self._latest_ingest: dict[tuple[str, str], dict[int, float]] = {}
        # last punctuation tuple per group, reused as output template
        self._last_punct: dict[tuple[str, str], StreamTuple] = {}
        self.triggers = 0

    def process(self, input_index: int, t: StreamTuple) -> list[StreamTuple]:
        return self.process_many([t], input_index)

    def process_many(
        self, tuples: list[StreamTuple], input_index: int = 0
    ) -> list[StreamTuple]:
        """Insert a run's events and evaluate its punctuations' windows.

        Each punctuation fixes its window (and the result's ingest time)
        at its own stream position, so an event that arrives after it is
        not in it, exactly as tuple by tuple. The fixed windows are then
        evaluated in one call of the function's ``correlate_many`` when it
        has one (one call per window otherwise), in stream order. A second
        punctuation for a group already waiting evaluates the waiting ones
        first, so a group's windows are evaluated in order; nothing waits
        past the run, so a checkpoint barrier never finds a half-evaluated
        run.
        """
        out: list[StreamTuple] = []
        pending: list[tuple[StreamTuple, list[StreamTuple], float]] = []
        waiting: set[tuple[str, str]] = set()
        for t in tuples:
            group = (t.job, t.specimen)
            if not is_punctuation(t):
                self._insert(group, t)
                continue
            if group in waiting:
                self._evaluate(pending, out)
                pending = []
                waiting.clear()
            self._last_punct[group] = t
            pending.append(self._fix_window(group, t))
            waiting.add(group)
        if pending:
            self._evaluate(pending, out)
        return out

    def _insert(self, group: tuple[str, str], t: StreamTuple) -> None:
        per_layer = self._events.get(group)
        if per_layer is None:
            per_layer = self._events[group] = {}
            self._latest_ingest[group] = {}
        latest = self._latest_ingest[group]
        events = per_layer.get(t.layer)
        if events is None:
            out_of_order = bool(per_layer) and t.layer < next(reversed(per_layer))
            events = per_layer[t.layer] = []
            latest[t.layer] = t.ingest_time
            if out_of_order:
                _sort_by_layer(per_layer)
        elif t.ingest_time > latest[t.layer]:
            latest[t.layer] = t.ingest_time
        events.append(t)

    def _fix_window(
        self, group: tuple[str, str], punct: StreamTuple
    ) -> tuple[StreamTuple, list[StreamTuple], float]:
        """The punctuation's window events and result ingest time, as of now."""
        layer = punct.layer
        per_layer = self._events.get(group, {})
        latest = self._latest_ingest.get(group, {})
        low = layer - self._window + 1
        # Layers ascend: what can no longer appear in a future window sits
        # at the front, what this window holds comes next.
        expired: list[int] = []
        in_window: list[int] = []
        for event_layer in per_layer:
            if event_layer < low:
                expired.append(event_layer)
            elif event_layer <= layer:
                in_window.append(event_layer)
            else:
                break
        for event_layer in expired:
            del per_layer[event_layer]
            del latest[event_layer]
        window_events = list(
            chain.from_iterable(per_layer[event_layer] for event_layer in in_window)
        )
        self.triggers += 1
        ingest_time = max(
            [punct.ingest_time, *(latest[event_layer] for event_layer in in_window)]
        )
        return punct, window_events, ingest_time

    def _evaluate(
        self,
        pending: list[tuple[StreamTuple, list[StreamTuple], float]],
        out: list[StreamTuple],
    ) -> None:
        """Evaluate fixed windows in one function call; results onto ``out``."""
        results = self._fn_many(
            [(punct.job, punct.layer, punct.specimen, events) for punct, events, _ in pending]
        )
        for (punct, _, ingest_time), payloads in zip(pending, results):
            if payloads is None:
                continue
            if isinstance(payloads, dict):
                payloads = [payloads]
            for payload in payloads:
                result = punct.derive(payload=payload, portion=None)
                result.portion = None  # output schema of Table 1 has no portion
                result.ingest_time = ingest_time
                out.append(result)

    def _call_each(
        self, requests: list[tuple[str, int, str, list[StreamTuple]]]
    ) -> list[Any]:
        """``correlate_many`` for a plain function: one call per window."""
        fn = self._fn
        return [fn(*request) for request in requests]

    def snapshot_state(self) -> dict[str, Any]:
        """The full L-layer event window per (job, specimen) group.

        This is the state the 3 s recoat-gap QoS cannot afford to rebuild
        from scratch after a crash: up to L layers of events per specimen.
        """
        state: dict[str, Any] = {
            "events": {
                group: {layer: list(events) for layer, events in per_layer.items()}
                for group, per_layer in self._events.items()
            },
            "last_punct": dict(self._last_punct),
            "triggers": self.triggers,
        }
        fn_state = snapshot_callable(self._fn)
        if fn_state is not None:
            state["fn"] = fn_state
        return state

    def restore_state(self, state: dict[str, Any]) -> None:
        self._events = {}
        self._latest_ingest = {}
        for group, per_layer in state["events"].items():
            restored = {int(layer): list(events) for layer, events in per_layer.items()}
            _sort_by_layer(restored)
            self._events[group] = restored
            self._latest_ingest[group] = {
                layer: max(e.ingest_time for e in events)
                for layer, events in restored.items()
            }
        self._last_punct = dict(state["last_punct"])
        self.triggers = int(state["triggers"])
        restore_callable(self._fn, state.get("fn"))

    def reshard_state(self, states, shards, route):
        """Split the per-group windows along the routing key.

        Assumes the group key ``(job, specimen)`` *is* the routing key —
        true for every Strata pipeline (``correlate_events`` replicates by
        specimen). Shards built from a different key function cannot be
        resharded consistently and should not be marked replicable.
        """
        events: dict[tuple[str, str], dict[int, list]] = {}
        last_punct: dict[tuple[str, str], Any] = {}
        triggers = 0
        fn_states: list[dict[str, Any] | None] = []
        for s in states:
            if s is None:
                continue
            for group, per_layer in s["events"].items():
                dest = events.setdefault(group, {})
                for layer, evs in per_layer.items():
                    dest.setdefault(int(layer), []).extend(evs)
            last_punct.update(s["last_punct"])
            triggers += int(s["triggers"])
            fn_states.append(s.get("fn"))
        fns = reshard_callable(self._fn, fn_states or [None], shards, route)
        out: list[dict[str, Any]] = []
        for i in range(shards):
            state: dict[str, Any] = {
                "events": {
                    group: {layer: list(evs) for layer, evs in per_layer.items()}
                    for group, per_layer in events.items()
                    if route(group) == i
                },
                "last_punct": {
                    group: punct for group, punct in last_punct.items()
                    if route(group) == i
                },
                "triggers": triggers if i == 0 else 0,
            }
            if fns[i] is not None:
                state["fn"] = fns[i]
            out.append(state)
        return out

    def stats_extra(self) -> dict[str, float]:
        return {"correlation_triggers_total": self.triggers}

    def on_close(self) -> list[StreamTuple]:
        # Nothing to flush: results are punctuation-triggered, and every
        # layer's punctuation has already fired by the time inputs close.
        self._events.clear()
        self._latest_ingest.clear()
        return []
