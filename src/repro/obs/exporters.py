"""Snapshot exporters: Prometheus text format and JSON lines.

Both exporters render a :class:`~repro.obs.registry.MetricsSnapshot`, so
they can run anywhere a snapshot exists — at the end of a CLI run
(``--metrics-out``), periodically from ``strata-repro top``, or from user
code via ``Strata.metrics()``. The Prometheus renderer follows the text
exposition format (HELP/TYPE headers, escaped label values, cumulative
``_bucket`` series) so the output scrapes cleanly; the JSON-lines form is
one self-contained object per snapshot, append-friendly for long runs and
trivially round-trippable. :func:`write_http_response` is how both HTTP
endpoints that serve a scrape (the fleet API, the dist coordinator) put
a response on the wire.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Mapping

from .registry import MetricsRegistry, MetricsSnapshot, Sample

if TYPE_CHECKING:  # http.server is only imported by the servers themselves
    from http.server import BaseHTTPRequestHandler

_PROM_KIND = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram_bucket": "histogram",
    "histogram_sum": "histogram",
    "histogram_count": "histogram",
}


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _family_of(sample: Sample) -> str:
    name = sample.name
    if sample.kind in ("histogram_bucket", "histogram_sum", "histogram_count"):
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                return name[: -len(suffix)]
    return name


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _sample_line(sample: Sample) -> str:
    if sample.labels:
        rendered = ",".join(
            f'{key}="{escape_label_value(value)}"' for key, value in sample.labels
        )
        return f"{sample.name}{{{rendered}}} {_format_value(sample.value)}"
    return f"{sample.name} {_format_value(sample.value)}"


def render_families(samples: Iterable[Sample]) -> dict[str, tuple[str, str]]:
    """Samples rendered into exposition lines, per metric family.

    Maps each family (first-seen order) to its Prometheus type (its first
    sample's) and its sample lines joined by newlines — the form in which
    a series that no longer changes (a finished fleet job's) is kept and
    handed to :func:`to_prometheus` at every scrape, not rendered again.
    """
    families: dict[str, tuple[str, list[str]]] = {}
    for sample in samples:
        family = _family_of(sample)
        group = families.get(family)
        if group is None:
            group = families[family] = (_PROM_KIND.get(sample.kind, "untyped"), [])
        group[1].append(_sample_line(sample))
    return {family: (kind, "\n".join(lines)) for family, (kind, lines) in families.items()}


def to_prometheus(
    snapshot: MetricsSnapshot,
    registry: MetricsRegistry | None = None,
    rendered: Iterable[Mapping[str, tuple[str, str]]] = (),
) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    All lines of one metric family form one group under one ``# TYPE``
    line, as the format requires, however the snapshot interleaves them.
    ``rendered`` holds :func:`render_families` outputs; each family's
    lines follow the snapshot's own samples of that family.
    """
    groups: dict[str, tuple[str, list[str]]] = {}
    for families in (render_families(snapshot.samples), *rendered):
        for family, (kind, block) in families.items():
            group = groups.get(family)
            if group is None:
                group = groups[family] = (kind, [])
            group[1].append(block)
    lines: list[str] = []
    for family, (kind, chunks) in groups.items():
        help_text = registry.help_for(family) if registry is not None else ""
        if help_text:
            lines.append(f"# HELP {family} {escape_help(help_text)}")
        lines.append(f"# TYPE {family} {kind}")
        lines.extend(chunks)
    lines.append("")  # the trailing newline, without a second copy of the text
    return "\n".join(lines)


def write_http_response(
    handler: BaseHTTPRequestHandler, status: int, content_type: str, body: bytes
) -> None:
    """Send the status line, headers and ``body`` in one write.

    ``end_headers`` sends the headers on their own, and a body written
    after them is a second small segment that Nagle's algorithm holds
    until the client's delayed ACK (~40 ms on Linux) on a keep-alive
    connection. Appending the body to the handler's header buffer puts the
    whole response in the one ``flush_headers`` write.
    """
    handler.send_response(status)
    handler.send_header("Content-Type", content_type)
    handler.send_header("Content-Length", str(len(body)))
    if handler.request_version == "HTTP/0.9":  # no status line, no headers
        handler.wfile.write(body)
        return
    # two entries, not b"\r\n" + body: flush_headers' join is the one copy
    handler._headers_buffer.extend((b"\r\n", body))
    handler.flush_headers()


# -- JSON lines -------------------------------------------------------------


def snapshot_to_dict(snapshot: MetricsSnapshot) -> dict:
    """A JSON-serializable form of one snapshot."""
    return {
        "wall_time": snapshot.wall_time,
        "samples": [
            {
                "name": s.name,
                "labels": s.labels_dict(),
                "value": s.value,
                "kind": s.kind,
            }
            for s in snapshot.samples
        ],
    }


def snapshot_from_dict(payload: dict) -> MetricsSnapshot:
    """Inverse of :func:`snapshot_to_dict`."""
    return MetricsSnapshot(
        wall_time=float(payload["wall_time"]),
        samples=[
            Sample(
                name=item["name"],
                labels=tuple(sorted((k, v) for k, v in item["labels"].items())),
                value=float(item["value"]),
                kind=item.get("kind", "gauge"),
            )
            for item in payload["samples"]
        ],
    )


def to_json_line(snapshot: MetricsSnapshot) -> str:
    """One snapshot as a single JSON line (no trailing newline)."""
    return json.dumps(snapshot_to_dict(snapshot), separators=(",", ":"))


def write_jsonl(
    path: str | Path | IO[str], snapshot: MetricsSnapshot, append: bool = True
) -> None:
    """Append one snapshot line to a JSON-lines file (or writable)."""
    line = to_json_line(snapshot) + "\n"
    if hasattr(path, "write"):
        path.write(line)
        return
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as fh:
        fh.write(line)


def read_jsonl(path: str | Path) -> list[MetricsSnapshot]:
    """Parse every snapshot line of a JSON-lines metrics file."""
    snapshots: list[MetricsSnapshot] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                snapshots.append(snapshot_from_dict(json.loads(line)))
    return snapshots
