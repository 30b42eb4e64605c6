"""Retired names stay retired: one row per name set that must not come back.

Each row names what stayed retired and gives a regular expression, the
paths it is searched in (relative to the repository root) and how many
lines may match it. Most rows expect no line at all: the name was removed
together with the code path it belonged to. A row expecting one line pins
a construction to its single call site. Files under ``__pycache__`` and
this file itself are not searched. A change that retires a name adds its
row here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve()

#: (what stayed retired, regex, paths, files skipped, lines allowed)
ROWS = [
    ("one-producer-per-stream", r"num_producers|_producers_done|at_eos",
     ("src", "tests"), (), 0),
    ("one-source-emission-path",
     r"flatten_runs|def runs\(|_ship_run|_source_put|getattr\(node\.source",
     ("src",), (), 0),
    ("no-loopback-client", r"_local_client",
     ("src/repro/dist/coordinator.py",), (), 0),
    ("kept-neighbour-pairs", r"deque|def absorb",
     ("src/repro/clustering/dbscan.py",), (), 0),
    ("late-materialised-blocks", r"_repeat_list", ("src",), (), 0),
    ("no-block-capability-probing",
     r"(getattr|hasattr)\([^)]*(process_many|supports_block|process_block"
     r"|block_eligible)", ("src/repro/spe", "src/repro/elastic"), (), 0),
    ("no-scalar-thermal-kernels", r"_scalar\(",
     ("src/repro/thermal", "src/repro/analysis"), (), 0),
    ("one-fused-chain-builder", r"FusedOperator\(",
     ("src",), ("src/repro/spe/plan.py",), 0),
    ("one-consumer", r"RemoteConsumer|_InPlaceConsumer|_consumer_for|_producer_for",
     ("src",), (), 0),
    ("connectors-take-any-broker", r"isinstance\(broker|hasattr",
     ("src/repro/core/connectors.py",), (), 0),
    ("no-transport-registry",
     r"TransportSpec|register_transport|register_op|start_method", ("src",), (), 0),
    ("frames-are-meta-dicts",
     r"OpSpec|request_meta|response_meta|parse_response|def call", ("src",), (), 0),
    ("no-codec-registry", r"register_codec|ShmServerTransport|encode_options",
     ("src",), (), 0),
    ("one-launch-path-controller", r"ElasticController\(", ("src",), (), 1),
    ("one-launch-path-report", r"RunReport\(", ("src",), (), 1),
    ("runs-go-whole",
     r"edge_batch_size|set_batching|LINGER_S|maybe_flush|batches_out"
     r"|_adapt_batching|elastic_batch_size|spe_batch_fill_ratio|--batch-size",
     ("src",), (), 0),
    ("no-block-rows-peak", r"block_rows_peak", ("src", "tests"), (), 0),
    ("checkpoint-listing-reads-keys", r"_scan_prefix|\.scan\(",
     ("src/repro/recovery/storage.py",), (), 0),
    ("one-merge-loop", r"_merged_scan|heapq", ("src/repro/kvstore/lsm.py",), (), 0),
    ("one-merge-entry-point", r"merge_tables", ("src", "tests"), (), 0),
]


def _files(paths, skipped):
    skip = {ROOT / p for p in skipped} | {HERE}
    for rel in paths:
        path = ROOT / rel
        candidates = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in candidates:
            if f.is_file() and f not in skip and "__pycache__" not in f.parts:
                yield f


def _matches(pattern, paths, skipped):
    regex = re.compile(pattern)
    found = []
    for f in _files(paths, skipped):
        text = f.read_text(encoding="utf-8", errors="replace")
        for number, line in enumerate(text.splitlines(), 1):
            if regex.search(line):
                found.append(f"{f.relative_to(ROOT)}:{number}: {line.strip()}")
    return found


@pytest.mark.parametrize(
    "pattern, paths, skipped, allowed", [row[1:] for row in ROWS],
    ids=[row[0] for row in ROWS],
)
def test_retired_names_stay_retired(pattern, paths, skipped, allowed):
    for rel in paths:
        assert (ROOT / rel).exists(), f"{rel} moved: update this row"
    found = _matches(pattern, paths, skipped)
    assert len(found) == allowed, "\n".join(found)
