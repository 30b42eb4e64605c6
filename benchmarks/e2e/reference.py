"""Correctness oracles: what each workload must have delivered.

Alg. 1 workloads replay a short rendered build cyclically. The oracle runs
the head of that stream — ``base + window - 1`` layers or more — through the
single-threaded engine with the plan compiler off and the single-function
detect stage (``UseCaseConfig(vectorized=True)``), a path that shares no
fused-chain, columnar-block, thread or network code with the measured run.
(The paper-exact per-cell chain would be the purer reference; at 1000 px /
2 px cells it costs 6 s per run, which 110 driver runs cannot afford.)

Past the head, the input is periodic with the length of the rendered build,
and so are the verdicts: layer ``L`` sees the same images at the same
relative heights as layer ``L - base``. Every later layer is therefore
checked against the one a period before it, which makes the whole run —
whatever number of layers its seconds allowed — covered by the oracle.

Fleet jobs are checked against :func:`repro.fleet.run_standalone` of the
same spec (in ``workloads.fleet_soak``).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Iterable

from repro.core import (
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from repro.spe.tuples import StreamTuple

#: (job, layer, specimen, num_events, num_clusters)
VerdictKey = tuple


def verdict_key(t: StreamTuple) -> VerdictKey:
    """Order-insensitive identity of one Alg. 1 verdict."""
    return (t.job, t.layer, t.specimen, t.payload["num_events"], t.payload["num_clusters"])


def calibrate(strata: Strata, build: Any, config: UseCaseConfig) -> None:
    """Fit and store the job's thresholds, as every Alg. 1 deployment must.

    ``build`` is a :class:`loadgen.Build`.
    """
    calibrate_job(
        strata.kv,
        build.job.job_id,
        build.reference_images(),
        config.cell_edge_px,
        regions=specimen_regions_px(build.job.specimens, config.image_px),
    )


def alg1_head(build: Any, config: UseCaseConfig, layers: int) -> list[VerdictKey]:
    """Verdict keys of the first ``layers`` replayed layers, from the oracle."""
    records = list(itertools.islice(build.replay(), layers))
    strata = Strata(engine_mode="sync")
    oracle_config = UseCaseConfig(
        image_px=config.image_px,
        cell_edge_px=config.cell_edge_px,
        window_layers=config.window_layers,
        vectorized=True,
    )
    pipeline = build_use_case(iter(records), iter(records), oracle_config, strata=strata)
    calibrate(strata, build, oracle_config)
    strata.deploy()
    return [verdict_key(t) for t in pipeline.sink.results]


def _by_layer(keys: Iterable[VerdictKey]) -> dict[int, list[tuple]]:
    layers: dict[int, list[tuple]] = {}
    for _job, layer, specimen, events, clusters in keys:
        layers.setdefault(layer, []).append((specimen, events, clusters))
    for verdicts in layers.values():
        verdicts.sort()
    return layers


def failed_layers(
    delivered: Iterable[VerdictKey],
    head: Iterable[VerdictKey],
    layers_sent: int,
    base: int,
) -> int:
    """Layers whose verdict set is missing, duplicated or wrong.

    ``head`` covers layers ``0 .. H-1``; a layer at or past ``H`` must equal
    the delivered layer ``base`` before it.
    """
    got = _by_layer(delivered)
    want_head = _by_layer(head)
    failed = 0
    for layer in range(layers_sent):
        want = want_head[layer] if layer in want_head else got.get(layer - base)
        if got.get(layer) != want:
            failed += 1
    return failed + sum(1 for layer in got if layer >= layers_sent)


def digest(keys: Iterable[Any]) -> str:
    """SHA-256 over the sorted keys; equal inputs give equal digests."""
    h = hashlib.sha256()
    for key in sorted(keys):
        h.update(repr(key).encode())
    return h.hexdigest()
