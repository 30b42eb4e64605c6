"""End-to-end benchmark of the STRATA reproduction; see README.md beside this file.

Two ways to run it, from the repository root:

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this interpreter. The last line of standard
    output is one JSON object: ``correct``, ``attempted``, ``failed`` and
    ``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with
    ``--trace 0``, its per-layer metrics with ``--trace 1``.

``python3 benchmarks/e2e/run.py --seed 7 [--quick] [--repeat N]``
    The whole suite: every workload in a fresh child interpreter, a measured
    run and then a traced run, and a table of every metric by name and unit.
    ``--repeat N`` makes N sets and reports how well they agree.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: set-up trials per run; with the run's own set-up the median is over three
SETUP_TRIALS = 2
RATE_BLOCKS = 8
#: an open-loop run whose generator ran later than this share of the layer
#: period measured the generator, not the system
MAX_LATE_SHARE = 0.10

#: per-layer metric -> (span name, aggregate field); seconds become ms per
#: item, calls become calls per item
SPAN_METRICS = {
    "spe.chain_self_ms_per_item": ("spe.chain", "self_s"),
    "core.partition_ms_per_item": ("core.partition", "busy_s"),
    "core.detect_ms_per_item": ("core.detect", "busy_s"),
    "analysis.kernel_ms_per_item": ("analysis.kernel", "busy_s"),
    "clustering.correlate_ms_per_item": ("clustering.correlate", "busy_s"),
    "clustering.correlate_calls_per_item": ("clustering.correlate", "calls"),
    "kvstore.put_ms_per_item": ("kvstore.put", "busy_s"),
    "kvstore.puts_per_item": ("kvstore.put", "calls"),
    "kvstore.gets_per_item": ("kvstore.get", "calls"),
    "recovery.snapshot_ms_per_item": ("recovery.snapshot", "busy_s"),
    "pubsub.produce_ms_per_item": ("pubsub.produce", "busy_s"),
    "pubsub.poll_ms_per_item": ("pubsub.poll", "busy_s"),
    "pubsub.records_per_item": ("pubsub.produce", "calls"),
    "serde.encode_ms_per_item": ("serde.encode", "busy_s"),
    "serde.decode_ms_per_item": ("serde.decode", "busy_s"),
    "net.produce_ms_per_item": ("net.produce", "busy_s"),
    "fleet.submit_ms_per_item": ("fleet.submit", "busy_s"),
    "fleet.transition_ms_per_item": ("fleet.transition", "busy_s"),
    "fleet.build_ms_per_item": ("fleet.build", "busy_s"),
    "fleet.scrape_ms_per_call": ("fleet.scrape", "busy_s"),
    "thermal.estimate_ms_per_item": ("thermal.estimate", "busy_s"),
    "thermal.reconstruct_ms_per_item": ("thermal.reconstruct", "busy_s"),
    "am.render_ms_per_item": ("am.render", "busy_s"),
}


def _latency_ms(outcome: Any, q: float) -> float:
    """Latency percentile past the warm-up; over everything in a --quick run
    too short to outlast it."""
    import workloads

    samples = outcome.latency_s[outcome.warmup:] or outcome.latency_s
    return 1e3 * workloads.percentile(samples, q)


def _rate(outcome: Any) -> float:
    """Completed items per second: the median rate over equal-count blocks.

    One stall on a shared machine moves a whole-run average by its full
    length; it moves the median of eight blocks not at all. The first block
    holds the ramp-up and the last the drain, and the median drops both.
    """
    done = outcome.done_at
    if len(done) < 4 * RATE_BLOCKS:  # set-up trials, --quick
        return len(done) / (done[-1] - outcome.sent_at)
    rates = []
    start_index, start_time = 0, outcome.sent_at
    for k in range(1, RATE_BLOCKS + 1):
        end_index = k * len(done) // RATE_BLOCKS
        rates.append((end_index - start_index) / (done[end_index - 1] - start_time))
        start_index, start_time = end_index, done[end_index - 1]
    return statistics.median(rates)


def _peak_rss_mb() -> float:
    """Max RSS of this interpreter plus that of its largest reaped child."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def run_one(name: str, seed: int, seconds: float, trace: bool, trials: int) -> dict[str, Any]:
    """One run of one workload in this interpreter; returns the result object."""
    import workloads  # imports repro: fails (exit != 0) outside a checkout

    fn = workloads.WORKLOADS[name]
    if trace:
        values, outcome = _traced(name, fn, seed, seconds)
    else:
        setups = [fn(seed, 0).setup_s for _ in range(trials)]
        outcome = fn(seed, seconds)
        outcome.failed = outcome.check()
        setups.append(outcome.setup_s)
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": _rate(outcome),
            "latency_p50_ms": _latency_ms(outcome, 0.5),
            "peak_rss_mb": _peak_rss_mb(),
        }
    late_ms = outcome.layers.get("loadgen.late_p90_ms", 0.0)
    on_time = late_ms <= MAX_LATE_SHARE * 1e3 / workloads.LIVE_RATE
    declared = SPEC["per_layer" if trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result = {
        "correct": outcome.failed == 0 and on_time,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # a per-layer metric a workload never enters reads 0
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }
    detail = {**result, "workload": name, "seed": seed, "seconds": seconds,
              "latency_samples": len(outcome.latency_s[outcome.warmup:] or outcome.latency_s),
              "digest": outcome.digest}
    workloads.RESULTS.mkdir(parents=True, exist_ok=True)
    (workloads.RESULTS / f"run-{name}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1)
    )
    return result


def _traced(name: str, fn: Any, seed: int, seconds: float) -> tuple[dict[str, float], Any]:
    """An untraced slice, then a traced one as long, then the probes."""
    # isort files ``trace`` under the standard library; sys.path[0] makes it
    # the trace.py beside this file
    from trace import Tracer, merge_summaries

    import probes
    import workloads

    trace_path = workloads.RESULTS / f"trace-{name}.json"
    for stale in workloads.RESULTS.glob(f"trace-{name}.*json"):
        stale.unlink()
    values: dict[str, float] = {}
    # equal slices: throughput drifts with run length on some workloads
    # (the fleet slows as jobs accumulate), which must not read as overhead
    if name == "replay_observed":
        seconds /= 3
        # same loop, same inputs, observability off: what obs alone costs
        unobserved = fn(seed, seconds, obs=False)
        plain = fn(seed, seconds)
        values["obs.overhead_ratio"] = _rate(unobserved) / _rate(plain)
    else:
        seconds /= 2
        plain = fn(seed, seconds)
    tracer = Tracer(trace_path)
    tracer.install()
    outcome = fn(seed, seconds, trace_path)
    tracer.write()
    children = [
        json.loads(path.read_text())["summary"]
        for path in workloads.RESULTS.glob(f"trace-{name}.*.json")
    ]
    spans = merge_summaries([tracer.summary(), *children])
    for metric, (span, field) in SPAN_METRICS.items():
        if span in spans:
            scale = 1.0 if field == "calls" else 1e3
            per = spans[span]["calls"] if metric.endswith("_per_call") else outcome.attempted
            values[metric] = scale * spans[span][field] / per
    values.update(outcome.layers)
    values["loadgen.latency_p90_ms"] = _latency_ms(outcome, 0.9)
    values["loadgen.cpu_ms_per_item"] = 1e3 * outcome.cpu_s / outcome.attempted
    values["core.cells_per_item"] = values.pop("core.cells_evaluated", 0) / outcome.attempted
    if name == "live_paced_dense":
        # the open loop pins throughput; tracing shows in latency instead
        values["trace.overhead_ratio"] = _latency_ms(outcome, 0.5) / _latency_ms(plain, 0.5)
    else:
        values["trace.overhead_ratio"] = _rate(plain) / _rate(outcome)
    for probe in probes.PROBES.get(name, ()):
        values.update(probe(seed))
    outcome.failed = outcome.check()  # the untraced slice only sets the ratio
    return values, outcome


def _stop_children() -> None:
    """Stop every process this interpreter started and wait until each has ended.

    The workloads reap what they start (stage workers, the fleet server); what
    is left on a clean run is multiprocessing's resource tracker, started for
    the shm ring and the gate's shared values. Python never waits for it: it
    ends by itself once it notices this interpreter gone, so it outlives the
    run by a moment — long enough to be found running after it.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():  # only after a failed run
        child.kill()
        child.join()
    gc.collect()  # finalizers that still talk to the tracker run before it stops
    resource_tracker._resource_tracker._stop()  # closes its pipe, then waitpid


# -- the suite -----------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: int, trials: int) -> dict[str, Any]:
    """Run one workload in a fresh interpreter; returns its result object."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--setup-trials", str(trials)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace {trace}) exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_suite(seed: int, seconds: float, trials: int) -> dict[str, dict[str, Any]]:
    """Every workload, measured then traced; prints and returns the results."""
    results: dict[str, dict[str, Any]] = {}
    for workload in SPEC["workloads"]:
        name = workload["name"]
        measured = _child(name, seed, seconds, 0, trials)
        traced = _child(name, seed, seconds, 1, trials)
        results[name] = {"measured": measured, "traced": traced}
        attempted = measured["attempted"] + traced["attempted"]
        failed = measured["failed"] + traced["failed"]
        print(f"\n== {name}: {workload['why']}")
        print(f"   correct={measured['correct'] and traced['correct']} "
              f"attempted={attempted} failed={failed} "
              f"failed_share={failed / attempted:.4f}")
        for run in (measured, traced):
            for metric, got in run["metrics"].items():
                print(f"   {metric:<36} {got['value']:>14.4f} {got['unit']}")
        ours, traced_digest = (
            json.loads((HERE / "results" / f"run-{name}-trace{t}.json").read_text())
            ["digest"][:16] for t in (0, 1)
        )
        same = "==" if ours == traced_digest else "!="
        print(f"   result digest {ours} {same} traced run {traced_digest}")
    return results


def agreement(sets: list[dict[str, dict[str, Any]]]) -> bool:
    """Spread of each end-to-end metric over the sets, next to its bound."""
    ok = True
    print(f"\n== agreement over {len(sets)} sets: (max - min) / median against the bound")
    print(f"   {'workload':<18} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in sets[0]:
        for metric in SPEC["end_to_end"]:
            got = [s[name]["measured"]["metrics"][metric["name"]]["value"] for s in sets]
            median = statistics.median(got)
            q1, _, q3 = statistics.quantiles(got, n=4)
            spread = (max(got) - min(got)) / median
            # set-up time is held to its bound between medians of sets of
            # runs by the driver, not within one set; it is shown, not judged
            judged = metric["name"] != "setup_s"
            flag = "" if spread <= metric["bound"] or not judged else "  EXCEEDS"
            ok = ok and not flag
            print(f"   {name:<18} {metric['name']:<16} {median:>12.4f} {q1:>12.4f} "
                  f"{q3:>12.4f} {spread:>8.3f} {metric['bound']:>6.2f}{flag}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-trials", type=int, default=SETUP_TRIALS)
    parser.add_argument("--quick", action="store_true",
                        help="suite only: runs fifteen times shorter, no set-up trials; "
                             "the numbers are not comparable with full runs")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite only: run N sets and report their agreement")
    args = parser.parse_args()
    if args.workload:
        try:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.setup_trials)
        finally:
            _stop_children()
        print(json.dumps(result))
        return 0
    seconds, trials = args.seconds, args.setup_trials
    if args.quick:
        seconds, trials = seconds / 15, 0
        print("QUICK MODE: runs are fifteen times shorter; numbers are not comparable")
    sets = [run_suite(args.seed, seconds, trials) for _ in range(args.repeat)]
    all_correct = all(
        run["correct"] for s in sets for pair in s.values() for run in pair.values()
    )
    agreed = agreement(sets) if args.repeat > 1 else True
    return 0 if all_correct and agreed else 1


if __name__ == "__main__":
    sys.exit(main())
