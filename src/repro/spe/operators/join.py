"""Join: the two-input time-window join operator (§2).

Combines tuples ``t_L`` from the left stream and ``t_R`` from the right
stream whenever they satisfy a predicate ``P`` and lie within ``WS`` of
each other in event time (``|t_L.tau - t_R.tau| <= WS``). With a group-by,
the predicate is only checked for pairs sharing the same key. ``WS = 0``
degenerates to an exact event-time match, which is how STRATA's ``fuse``
without window parameters matches tuples with identical ``tau``.

Buffers are evicted by watermark: once both inputs have progressed past
``tau + WS``, a buffered tuple can no longer find partners and is dropped.
A join declared ``one_to_one`` (each key has at most one tuple per side,
as the paper's one OT image and one PP record per layer) drops a pair at
the match instead: the partner leaves its buffer and the arriving tuple
is never buffered, so a checkpoint holds only tuples still waiting.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable

from ..tuples import StreamTuple
from ..watermark import WatermarkTracker
from .base import Operator

JoinPredicate = Callable[[StreamTuple, StreamTuple], bool]
JoinCombiner = Callable[[StreamTuple, StreamTuple], StreamTuple]
GroupByFunction = Callable[[StreamTuple], Hashable]


class JoinOperator(Operator):
    """Symmetric hash join over bounded event-time windows.

    ``one_to_one=True`` declares at most one tuple per key on each side:
    a match consumes both tuples, so a replayed duplicate no longer fuses
    again with a partner that already matched. Without it every pair in
    the window is emitted and tuples leave only by watermark.
    """

    num_inputs = 2
    LEFT = 0
    RIGHT = 1

    def __init__(
        self,
        name: str,
        ws: float = 0.0,
        predicate: JoinPredicate | None = None,
        group_by: GroupByFunction | None = None,
        combiner: JoinCombiner | None = None,
        slack: float = 0.0,
        one_to_one: bool = False,
    ) -> None:
        super().__init__(name)
        if ws < 0:
            raise ValueError("WS must be non-negative")
        self._ws = ws
        self._predicate = predicate or (lambda left, right: True)
        self._group_by = group_by or (lambda t: None)
        self._combiner = combiner or StreamTuple.fused
        self._one_to_one = one_to_one
        # side -> key -> deque of buffered tuples (insertion = tau order)
        self._buffers: tuple[dict[Hashable, deque[StreamTuple]], ...] = ({}, {})
        self._tracker = WatermarkTracker(2, slack)
        self.matches = 0

    def process(self, input_index: int, t: StreamTuple) -> list[StreamTuple]:
        if input_index not in (self.LEFT, self.RIGHT):
            raise ValueError(f"join has inputs 0 and 1, got {input_index}")
        key = self._group_by(t)
        other_side = self._buffers[1 - input_index]
        partners = other_side.get(key, ())
        out: list[StreamTuple] = []
        for position, candidate in enumerate(partners):
            if abs(t.tau - candidate.tau) > self._ws:
                continue
            left, right = (t, candidate) if input_index == self.LEFT else (candidate, t)
            if self._predicate(left, right):
                out.append(self._combiner(left, right))
                self.matches += 1
                if self._one_to_one:
                    del partners[position]
                    if not partners:
                        del other_side[key]
                    break
        if not (out and self._one_to_one):
            self._buffers[input_index].setdefault(key, deque()).append(t)
        watermark = self._tracker.observe(input_index, t.tau)
        self._evict(watermark)
        return out

    def _evict(self, watermark: float) -> None:
        horizon = watermark - self._ws
        for side in self._buffers:
            empty_keys = []
            for key, buffer in side.items():
                while buffer and buffer[0].tau < horizon:
                    buffer.popleft()
                if not buffer:
                    empty_keys.append(key)
            for key in empty_keys:
                del side[key]

    def on_input_closed(self, input_index: int) -> list[StreamTuple]:
        """Advance the watermark past the closed input and evict."""
        watermark = self._tracker.close_input(input_index)
        self._evict(watermark)
        return []

    def on_close(self) -> list[StreamTuple]:
        """Release all buffered tuples (no more matches possible)."""
        for side in self._buffers:
            side.clear()
        return []

    def snapshot_state(self) -> dict[str, object]:
        """Both sides' buffers plus watermark progress (checkpoint protocol).

        Taken only once barriers aligned on both inputs, so the buffers
        reflect exactly the tuples preceding the epoch's cut on each side.
        """
        return {
            "buffers": [
                {key: list(buf) for key, buf in side.items()}
                for side in self._buffers
            ],
            "tracker": self._tracker.snapshot(),
            "matches": self.matches,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        left, right = state["buffers"]
        self._buffers = (
            {key: deque(buf) for key, buf in left.items()},
            {key: deque(buf) for key, buf in right.items()},
        )
        self._tracker.restore(state["tracker"])
        self.matches = int(state["matches"])

    @property
    def buffered(self) -> int:
        return sum(len(buf) for side in self._buffers for buf in side.values())

    def stats_extra(self) -> dict[str, float]:
        return {"join_matches_total": self.matches}
