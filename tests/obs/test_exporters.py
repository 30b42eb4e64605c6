"""Exporters: golden Prometheus text, escaping, bucket monotonicity, JSONL."""

import io
import math

import pytest

from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    Sample,
    escape_label_value,
    read_jsonl,
    snapshot_from_dict,
    snapshot_to_dict,
    to_json_line,
    to_prometheus,
    write_jsonl,
)
from repro.obs.exporters import render_families

GOLDEN = """\
# HELP spe_tuples_in_total tuples consumed per scheduler node
# TYPE spe_tuples_in_total counter
spe_tuples_in_total{kind="operator",operator="fuse:OT&pp"} 12
spe_tuples_in_total{kind="sink",operator="sink:expert:0"} 6
# TYPE spe_queue_depth gauge
spe_queue_depth{stream="source:OT->fuse:OT&pp"} 3
# TYPE spe_processing_seconds histogram
spe_processing_seconds_bucket{le="0.001"} 4
spe_processing_seconds_bucket{le="0.1"} 11
spe_processing_seconds_bucket{le="+Inf"} 12
spe_processing_seconds_sum 0.25
spe_processing_seconds_count 12
"""


def _golden_snapshot() -> MetricsSnapshot:
    return MetricsSnapshot(
        wall_time=1700000000.0,
        samples=[
            Sample(
                "spe_tuples_in_total",
                (("kind", "operator"), ("operator", "fuse:OT&pp")),
                12.0,
                "counter",
            ),
            Sample(
                "spe_tuples_in_total",
                (("kind", "sink"), ("operator", "sink:expert:0")),
                6.0,
                "counter",
            ),
            Sample(
                "spe_queue_depth", (("stream", "source:OT->fuse:OT&pp"),), 3.0
            ),
            Sample("spe_processing_seconds_bucket", (("le", "0.001"),), 4.0,
                   "histogram_bucket"),
            Sample("spe_processing_seconds_bucket", (("le", "0.1"),), 11.0,
                   "histogram_bucket"),
            Sample("spe_processing_seconds_bucket", (("le", "+Inf"),), 12.0,
                   "histogram_bucket"),
            Sample("spe_processing_seconds_sum", (), 0.25, "histogram_sum"),
            Sample("spe_processing_seconds_count", (), 12.0, "histogram_count"),
        ],
    )


def _parse_prometheus(text: str):
    """types per family + list of (name, labels dict, value) samples."""
    types: dict[str, str] = {}
    samples = []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ", 3)
            types[family] = kind
        elif line and not line.startswith("#"):
            metric, _, raw = line.rpartition(" ")
            labels = {}
            if "{" in metric:
                name, _, rest = metric.partition("{")
                for pair in rest.rstrip("}").split('","'):
                    key, _, value = pair.partition('="')
                    labels[key] = value.rstrip('"')
            else:
                name = metric
            samples.append((name, labels, float(raw)))
    return types, samples


class TestPrometheus:
    def test_golden_output(self):
        registry = MetricsRegistry()
        registry.set_help("spe_tuples_in_total", "tuples consumed per scheduler node")
        assert to_prometheus(_golden_snapshot(), registry) == GOLDEN

    def test_help_line_omitted_without_registry(self):
        text = to_prometheus(_golden_snapshot())
        assert "# HELP" not in text
        assert "# TYPE spe_tuples_in_total counter" in text

    def test_label_escaping_round_trips(self):
        nasty = 'q"uo\\te\nnewline'
        snap = MetricsSnapshot(
            wall_time=0.0, samples=[Sample("m", (("stream", nasty),), 1.0)]
        )
        text = to_prometheus(snap)
        assert '\\"' in text and "\\n" in text and "\\\\" in text
        # the rendered line must stay a single physical line
        [line] = [l for l in text.splitlines() if l.startswith("m{")]
        assert line == 'm{stream="q\\"uo\\\\te\\nnewline"} 1'

    def test_escape_label_value_order(self):
        # backslash first, else the escapes' own backslashes double-escape
        assert escape_label_value("\\n") == "\\\\n"
        assert escape_label_value("\n") == "\\n"

    def test_bucket_monotonicity_from_live_registry(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        types, samples = _parse_prometheus(to_prometheus(registry.snapshot()))
        assert types["lat"] == "histogram"
        buckets = [(labels["le"], value) for name, labels, value in samples
                   if name == "lat_bucket"]
        values = [value for _, value in buckets]
        assert values == sorted(values), "cumulative buckets must be monotone"
        assert buckets[-1][0] == "+Inf"
        count = next(v for n, _, v in samples if n == "lat_count")
        assert buckets[-1][1] == count

    def test_interleaved_families_render_as_one_group_each(self):
        """A merged snapshot interleaves families (one job's samples after
        another's); each family still renders as one group."""
        registry = MetricsRegistry()
        registry.set_help("spe_tuples_in_total", "tuples consumed per scheduler node")
        samples = _golden_snapshot().samples
        interleaved = [samples[0], samples[2], samples[3], samples[1], *samples[4:]]
        text = to_prometheus(MetricsSnapshot(0.0, interleaved), registry)
        assert text == GOLDEN

    def test_rendered_families_merge_as_their_samples_would(self):
        """Lines rendered once by render_families and merged at scrape time
        are the exposition their samples would render to, line for line."""
        registry = MetricsRegistry()
        registry.set_help("spe_tuples_in_total", "tuples consumed per scheduler node")
        live = _golden_snapshot().with_labels(job="running")
        finished = [
            _golden_snapshot().with_labels(job=f"done-{k}").samples for k in range(2)
        ]
        finished.append([Sample("only_finished", (("job", "done-2"),), 1.0, "counter")])
        merged = to_prometheus(
            live, registry, [render_families(samples) for samples in finished]
        )
        everything = MetricsSnapshot(
            0.0, live.samples + [s for samples in finished for s in samples]
        )
        assert merged == to_prometheus(everything, registry)
        assert "# TYPE only_finished counter" in merged

    def test_type_header_precedes_family_samples_once(self):
        text = to_prometheus(_golden_snapshot())
        assert text.count("# TYPE spe_processing_seconds histogram") == 1
        lines = text.splitlines()
        type_at = lines.index("# TYPE spe_processing_seconds histogram")
        first_sample = next(
            i for i, l in enumerate(lines)
            if l.startswith("spe_processing_seconds")
        )
        assert type_at < first_sample


class TestJsonLines:
    def test_round_trip_preserves_everything(self):
        snap = _golden_snapshot()
        back = snapshot_from_dict(snapshot_to_dict(snap))
        assert back.wall_time == snap.wall_time
        assert back.samples == snap.samples

    def test_round_trip_through_text(self):
        import json

        snap = _golden_snapshot()
        back = snapshot_from_dict(json.loads(to_json_line(snap)))
        assert back.samples == snap.samples

    def test_write_read_jsonl_appends(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_jsonl(path, _golden_snapshot())
        write_jsonl(path, _golden_snapshot())
        snapshots = read_jsonl(path)
        assert len(snapshots) == 2
        assert snapshots[0].value("spe_queue_depth",
                                  stream="source:OT->fuse:OT&pp") == 3.0

    def test_write_jsonl_to_filelike(self):
        buf = io.StringIO()
        write_jsonl(buf, _golden_snapshot())
        assert buf.getvalue().endswith("\n")
        assert snapshot_from_dict(
            __import__("json").loads(buf.getvalue())
        ).wall_time == 1700000000.0

    def test_non_finite_values_survive(self):
        snap = MetricsSnapshot(
            wall_time=0.0, samples=[Sample("g", (), float("inf"))]
        )
        back = snapshot_from_dict(snapshot_to_dict(snap))
        assert math.isinf(back.samples[0].value)
