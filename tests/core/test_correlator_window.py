"""``DBSCANCorrelator`` keeps a window per group between calls; the payload
must still be a function of the events handed in, nothing else.

Every call is checked three ways: the long-lived (warm) correlator, a
correlator built for that one call (cold), and the pre-change arithmetic —
sequential BFS labels plus the mask-per-cluster summaries — kept under
``tests/clustering`` as the oracle. All three must agree exactly, cluster
image included.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.functions import DBSCANCorrelator
from repro.core.operators import CorrelateEventsOperator
from repro.core.punctuation import make_punctuation
from repro.spe import StreamTuple
from tests.clustering.bfs_oracle import bfs_dbscan, loop_summaries

PX_PER_MM = 2.0
THICKNESS = 0.25
SETTINGS = dict(
    eps_mm=1.0, min_samples=3, px_per_mm=PX_PER_MM, layer_thickness_mm=THICKNESS,
    cell_volume_mm3=0.5, render_cluster_image=True, render_px_per_cell=1,
)


def event(layer, x, y, specimen="S"):
    return StreamTuple(
        tau=float(layer), job="J", layer=layer, specimen=specimen,
        payload={"center_x_px": x, "center_y_px": y},
    )


def oracle_payload(events, min_volume_mm3=0.0):
    """What the correlator computed before it kept anything between calls."""
    if not events:
        return {"num_events": 0, "num_clusters": 0, "clusters": []}
    points = np.array(
        [
            (
                e.payload["center_x_px"] / PX_PER_MM,
                e.payload["center_y_px"] / PX_PER_MM,
                e.layer * THICKNESS,
            )
            for e in events
        ]
    )
    layers = np.array([e.layer for e in events], dtype=np.int64)
    labels = bfs_dbscan(points, SETTINGS["eps_mm"], SETTINGS["min_samples"])
    summaries = loop_summaries(
        points, labels, layers, SETTINGS["cell_volume_mm3"], min_volume_mm3
    )
    cols = (points[:, 0] * PX_PER_MM).astype(int)
    rows = (points[:, 1] * PX_PER_MM).astype(int)
    image = np.zeros((rows.max() + 1, cols.max() + 1), dtype=np.uint8)
    for row, col, label in zip(rows, cols, labels):
        image[row, col] = 1 if label < 0 else min(int(label) + 2, 255)
    return {
        "num_events": len(events),
        "num_clusters": len(summaries),
        "clusters": summaries,
        "cluster_image": image,
    }


def comparable(payload):
    out = dict(payload)
    out["clusters"] = [
        tuple(c.values()) if isinstance(c, dict) else c for c in payload["clusters"]
    ]
    image = out.pop("cluster_image", None)
    out["image"] = None if image is None else (image.shape, image.dtype.str, image.tobytes())
    return out


def check(warm, layer, events):
    got = warm("J", layer, "S", events)
    cold = DBSCANCorrelator(**SETTINGS)("J", layer, "S", events)
    assert comparable(got) == comparable(cold) == comparable(oracle_payload(events))
    return got


def blob(layer, cx, cy, n=5):
    return [event(layer, cx + 2 * (i % 3), cy + 2 * (i // 3)) for i in range(n)]


def test_sliding_window_warm_equals_cold_equals_oracle():
    warm = DBSCANCorrelator(**SETTINGS)
    per_layer = {layer: blob(layer, 4 + layer, 6) for layer in range(8)}
    for layer in range(8):
        window = [e for l in range(max(0, layer - 2), layer + 1) for e in per_layer[l]]
        payload = check(warm, layer, window)
        assert payload["num_clusters"] >= 1


def test_late_event_inside_a_retained_layer():
    warm = DBSCANCorrelator(**SETTINGS)
    old, new = blob(0, 4, 4), blob(1, 4, 4)
    check(warm, 1, old + new)
    late = event(0, 30, 30)
    # the operator files a late event under its own layer: mid-list
    check(warm, 2, old + [late] + new + blob(2, 4, 4))


def test_late_event_at_the_end_of_the_newest_layer():
    warm = DBSCANCorrelator(**SETTINGS)
    first = blob(0, 4, 4)
    check(warm, 0, first)
    check(warm, 1, first + [event(0, 6, 6)] + blob(1, 4, 4))


def test_window_moving_backwards_and_replayed():
    warm = DBSCANCorrelator(**SETTINGS)
    per_layer = {layer: blob(layer, 4, 4 + layer) for layer in range(6)}
    check(warm, 5, per_layer[3] + per_layer[4] + per_layer[5])
    check(warm, 2, per_layer[0] + per_layer[1] + per_layer[2])  # restore to an older epoch
    check(warm, 3, per_layer[1] + per_layer[2] + per_layer[3])  # ...and replay forward
    check(warm, 3, per_layer[1] + per_layer[2] + per_layer[3])  # the same window again


def test_equal_events_that_are_other_objects_are_not_trusted():
    """After a restore the events are new objects: the window refills."""
    warm = DBSCANCorrelator(**SETTINGS)
    check(warm, 1, blob(0, 4, 4) + blob(1, 4, 4))
    moved = blob(0, 20, 4) + blob(1, 4, 4)  # same layers, same counts, other places
    check(warm, 1, moved)


def test_caller_mutating_its_list_between_calls():
    warm = DBSCANCorrelator(**SETTINGS)
    events = blob(0, 4, 4)
    check(warm, 0, events)
    events.extend(blob(1, 4, 4))
    check(warm, 1, events)
    del events[:2]
    check(warm, 1, events)


def test_empty_window_forgets_the_group():
    warm = DBSCANCorrelator(**SETTINGS)
    events = blob(0, 4, 4)
    check(warm, 0, events)
    assert warm("J", 9, "S", []) == {"num_events": 0, "num_clusters": 0, "clusters": []}
    assert warm._windows == {}
    check(warm, 10, blob(10, 4, 4))


def test_groups_do_not_share_a_window():
    warm = DBSCANCorrelator(**SETTINGS)
    a = [event(0, x, 4, specimen="A") for x in (2, 4, 6)]
    b = [event(0, x, 4, specimen="B") for x in (40, 42, 44, 46)]
    pa = warm("J", 0, "A", a)
    pb = warm("J", 0, "B", b)
    assert pa["clusters"][0]["size"] == 3 and pb["clusters"][0]["size"] == 4
    assert comparable(warm("J", 0, "A", a)) == comparable(pa)


def test_min_volume_filter_with_a_kept_window():
    settings = dict(SETTINGS, min_volume_mm3=3.0)  # six cells of 0.5 mm^3
    warm = DBSCANCorrelator(**settings)
    first = warm("J", 0, "S", blob(0, 4, 4, n=5))
    assert first["num_clusters"] == 0
    grown = warm("J", 1, "S", blob(0, 4, 4, n=5) + blob(1, 4, 4, n=5))
    assert grown["num_clusters"] == 1 and grown["clusters"][0]["size"] == 10


#: what happens next to one group: events for a layer near the newest one
#: (possibly an older, retained or already-evicted layer = late events), or
#: a punctuation for a layer near the newest one (possibly going backwards)
actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("events"),
            st.integers(-3, 1),
            st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=6),
        ),
        st.tuples(st.just("punctuation"), st.integers(-2, 1), st.booleans()),
    ),
    min_size=1,
    max_size=25,
)


class RecordingCorrelator(DBSCANCorrelator):
    """Notes every window it is asked to evaluate, batch path included."""

    def __init__(self, seen, **settings):
        super().__init__(**settings)
        self.seen = seen

    def correlate_many(self, requests):
        self.seen.extend(list(events) for _, _, _, events in requests)
        return super().correlate_many(requests)


@given(actions=actions, window_layers=st.integers(1, 4), data=st.data())
@settings(max_examples=120, deadline=None)
def test_any_arrival_order_through_the_operator(actions, window_layers, data):
    """Drive the real operator with one long-lived correlator: whatever
    window it assembles, the payload equals the oracle's for that window —
    across late events, backward punctuations, mid-stream restores, and
    however the stream is cut into runs."""
    seen = []
    warm = RecordingCorrelator(seen, **SETTINGS)
    # the stream, with a restore marker before a punctuation that asks for one
    items = []
    newest = 5
    for action in actions:
        if action[0] == "events":
            _, offset, cells = action
            layer = max(0, newest + offset)
            newest = max(newest, layer)
            items.extend(event(layer, 2 * x, 2 * y) for x, y in cells)
            continue
        _, offset, restore = action
        layer = max(0, newest + offset)
        newest = max(newest, layer)
        if restore:
            items.append("restore")
        items.append(make_punctuation(StreamTuple(tau=0.0, job="J", layer=layer), "S"))
    cuts = data.draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    op = CorrelateEventsOperator("c", window_layers, warm)
    outputs = []
    run = []
    for item, cut in zip(items + ["end"], cuts + [True]):
        if isinstance(item, str):
            outputs.extend(op.process_many(run))
            run = []
            if item == "restore":
                state = op.snapshot_state()
                op = CorrelateEventsOperator("c", window_layers, warm)
                op.restore_state(state)
            continue
        run.append(item)
        if cut:
            outputs.extend(op.process_many(run))
            run = []
    assert len(outputs) == len(seen) == sum(1 for a in actions if a[0] == "punctuation")
    for out, window in zip(outputs, seen):
        assert comparable(out.payload) == comparable(oracle_payload(window))
