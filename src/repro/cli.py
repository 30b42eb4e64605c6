"""Command-line interface.

``python -m repro <command>`` runs the library's main flows without
writing any code:

* ``quickstart`` — the thermal use case on a small simulated build;
* ``monitor``    — live build with automatic early termination;
* ``replay``     — as-fast-as-possible reprocessing of a historic build;
* ``streaks``    — the recoater-streak use case;
* ``forecast``   — streaming thermal state estimation with predictive QoS;
* ``reconstruct``— laser power/speed reconstruction from melt-pool frames;
* ``figures``    — compact re-runs of the paper's Figure 5/6/7 sweeps;
* ``recover``    — checkpointed run with crash simulation and recovery;
* ``top``        — live per-operator metrics table while a build runs;
* ``broker``     — serve an in-process broker over TCP for remote clients;
* ``worker``     — run pipeline stages against a remote broker;
* ``serve``      — resident multi-tenant fleet control plane (HTTP API).

The workload verbs (``quickstart``, ``replay``, ``streaks``, ``forecast``,
``reconstruct``) turn their flags into the workload spec and deploy dict
a fleet job is submitted with, and build through
:func:`repro.fleet.runner.build_pipeline`; ``monitor``, ``top`` and
``recover`` bring their own sources but take the job, renderer and
calibrated Alg. 1 config from the same code. A deploy config a verb
cannot run is one ``error:`` line and exit code 2.

Every verb accepts ``--metrics-out FILE`` to enable the observability
layer and append JSON-lines metric snapshots (one line per scrape; the
final scrape is always written). The resident verbs (``broker``,
``worker``, ``serve``) shut down cleanly on SIGINT/SIGTERM: drain, then
exit 0 — no traceback, so supervisors see an orderly stop.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .am import BuildDataset, ControlHandle, PBFLBMachine, synthesize_thermal_build
from .core import (
    DeployConfig,
    DeployConfigError,
    LiveLayerFeed,
    RecoveryConfig,
    UseCaseConfig,
    build_use_case,
)
from .fleet.runner import (
    alg1_config,
    build_pipeline,
    resolve_workload,
    strata_for,
    workload_job,
)
from .kvstore.memory import MemoryStore
from .obs import ObsContext, to_json_line
from .spe import CallbackSink


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--image-px", type=int, default=500,
                        help="OT sensor resolution (paper: 2000)")
    parser.add_argument("--layers", type=int, default=20,
                        help="layers to process")
    parser.add_argument("--cell-edge", type=int, default=5,
                        help="analysis cell edge, px")
    parser.add_argument("--window", type=int, default=10,
                        help="cross-layer window L")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument("--defect-rate", type=float, default=0.55,
                        help="seeded defects per stack per specimen")
    parser.add_argument("--explain", action="store_true",
                        help="print the compiled query plan before running")
    parser.add_argument("--no-optimize", action="store_true",
                        help="run the graph as declared: no plan compiler, "
                             "one thread per operator, tuple at a time")
    parser.add_argument("--parallelism", type=int, default=1,
                        help="replicate keyed stages N-ways behind a hash router")
    parser.add_argument("--elastic", action="store_true",
                        help="rescale keyed replica groups at runtime from "
                             "load and QoS signals")
    parser.add_argument("--min-parallelism", type=int, default=1,
                        help="elastic lower bound on replicas per group")
    parser.add_argument("--max-parallelism", type=int, default=4,
                        help="elastic upper bound on replicas per group")
    parser.add_argument("--replan", action="store_true",
                        help="let the elastic controller rewrite the running "
                             "plan (fuse/unfuse) from load signals; "
                             "implies --elastic")
    parser.add_argument("--no-replan", action="store_true",
                        help="force re-planning off even when --elastic is set "
                             "or the config file enables it")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="load the full DeployConfig from a TOML file "
                             "(overrides the individual plan/elastic flags)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="enable observability and append JSONL metric "
                             "snapshots to FILE")


def _obs_of(args: argparse.Namespace, force: bool = False) -> ObsContext | None:
    """An observability context when the verb asked for metrics."""
    if force or getattr(args, "metrics_out", None):
        return ObsContext()
    return None


def _dump_metrics(args: argparse.Namespace, obs: ObsContext | None) -> None:
    """Append one JSONL snapshot to ``--metrics-out`` (final scrape)."""
    if obs is None or not getattr(args, "metrics_out", None):
        return
    with open(args.metrics_out, "a", encoding="utf-8") as fh:
        fh.write(to_json_line(obs.snapshot()) + "\n")


def _read_toml(path: str) -> dict:
    import tomllib

    with open(path, "rb") as fh:
        return tomllib.load(fh)


def _deploy_of(args: argparse.Namespace) -> DeployConfig:
    """The verb's DeployConfig, parsed as a fleet job's ``deploy`` dict is.

    ``--config FILE`` is that dict as TOML (unknown keys are rejected);
    without one, the plan/elastic flags make it. ``--replan`` implies
    ``--elastic``; ``--no-replan`` wins over both and over the file.
    """
    if args.config:
        deploy = _read_toml(args.config)
        if args.no_replan and isinstance(deploy.get("elastic"), dict):
            deploy["elastic"].pop("replan", None)
        return DeployConfig.from_dict(deploy)
    replan = args.replan and not args.no_replan
    deploy = {"plan": not args.no_optimize and {"parallelism": args.parallelism}}
    if args.elastic or replan:
        deploy["elastic"] = {
            "min_parallelism": args.min_parallelism,
            "max_parallelism": args.max_parallelism,
            "replan": replan,
        }
    return DeployConfig.from_dict(deploy)


def _workload_of(args: argparse.Namespace, kind: str, **fields) -> dict:
    """The validated fleet workload spec the verb's flags describe."""
    try:
        return resolve_workload({
            "kind": kind, "name": "cli-job", "image_px": args.image_px,
            "layers": args.layers, "cell_edge": args.cell_edge,
            "window": args.window, "seed": args.seed,
            "defect_rate": args.defect_rate, **fields,
        })
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _maybe_explain(args: argparse.Namespace, strata, config) -> None:
    if args.explain:
        print(strata.explain(config))


def _run_workload(args: argparse.Namespace, workload: dict, obs: ObsContext | None):
    """Build ``workload`` as a fleet job is built and deploy it to the end.

    Returns the pipeline, the run report, the deploy's wall seconds and
    whether the pipeline ran in this process: under a ``[dist]`` config
    the operators run in forked workers, and their counters
    (``cells_evaluated``, ``frames_processed``, watchdog alerts) stay there.
    """
    deploy = _deploy_of(args)
    strata = strata_for(deploy, obs=obs)
    pipeline = build_pipeline(strata, workload, MemoryStore())
    _maybe_explain(args, strata, deploy)
    started = time.monotonic()
    report = strata.deploy(deploy)
    wall = time.monotonic() - started
    _dump_metrics(args, obs)
    return pipeline, report, wall, deploy.dist is None


def cmd_quickstart(args: argparse.Namespace) -> int:
    """Run the thermal use case over a batch replay and summarize."""
    pipeline, report, _, in_process = _run_workload(
        args, _workload_of(args, "thermal"), _obs_of(args)
    )
    results = pipeline.sink.results
    flagged = [t for t in results if t.payload["num_clusters"] > 0]
    cells = f" cells={pipeline.cells_evaluated}" if in_process else ""
    latency = report.latency_summary()
    print(f"layers={args.layers} reports={len(results)} "
          f"flagged={len(flagged)}{cells}")
    print(f"latency: median {latency.median * 1e3:.1f} ms, "
          f"max {latency.maximum * 1e3:.1f} ms")
    for t in flagged[-3:]:
        print(f"  layer {t.layer} specimen {t.specimen}: "
              f"{t.payload['num_clusters']} cluster(s), "
              f"{t.payload['num_events']} events")
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Run a live build with an automatic termination policy."""
    workload = _workload_of(args, "thermal")
    obs = _obs_of(args)
    deploy = _deploy_of(args)
    strata = strata_for(deploy, obs=obs)
    job, renderer = workload_job(workload)
    config = alg1_config(strata, workload, job, MemoryStore())
    control = ControlHandle()
    feed = LiveLayerFeed()

    def policy(t) -> None:
        for cluster in t.payload["clusters"]:
            if cluster["volume_mm3"] >= args.volume_budget:
                control.request_termination(
                    f"{cluster['volume_mm3']:.1f} mm^3 in {t.specimen} "
                    f"at layer {t.layer}"
                )

    build_use_case(
        feed.records(), feed.records(), config, strata=strata,
        sink=CallbackSink("policy", policy),
    )
    _maybe_explain(args, strata, deploy)
    strata.start(deploy)
    machine = PBFLBMachine(
        renderer=renderer, time_scale=max(args.time_scale, 1e-6)
    )
    outcome = machine.run(
        job, realtime=args.time_scale > 0, control=control,
        on_layer=feed.push, max_layers=args.layers,
    )
    feed.close()
    strata.wait(timeout=600)
    _dump_metrics(args, obs)
    if outcome.terminated_early:
        print(f"TERMINATED after layer {outcome.layers_completed - 1}: {control.reason}")
    else:
        print(f"completed {outcome.layers_completed}/{outcome.total_layers} layers "
              f"within the {args.volume_budget} mm^3 budget")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Reprocess a historic build as fast as possible."""
    pipeline, _, wall, in_process = _run_workload(
        args, _workload_of(args, "thermal"), _obs_of(args)
    )
    rate = f"{args.layers / wall:.1f} img/s"
    if in_process:
        rate += f", {pipeline.cells_evaluated / wall / 1e3:.1f} kcells/s"
    print(f"replayed {args.layers} layers in {wall:.2f}s ({rate})")
    return 0


def cmd_streaks(args: argparse.Namespace) -> int:
    """Run the recoater-streak use case and list found streaks."""
    workload = _workload_of(args, "streaks", streak_rate=args.streak_rate)
    pipeline, *_ = _run_workload(args, workload, _obs_of(args))
    reported: dict[int, dict] = {}
    for t in pipeline.sink.results:
        for streak in t.payload["streaks"]:
            reported.setdefault(round(streak["y_mm"]), streak)
    job, _ = workload_job(workload)
    seeded = [s for s in job.streaks if s.first_layer < args.layers]
    print(f"seeded {len(seeded)} streak(s); reported {len(reported)}")
    for streak in reported.values():
        print(f"  y={streak['y_mm']:.1f} mm layers "
              f"{streak['first_layer']}-{streak['last_layer']}")
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    """Stream thermal frames through the Kalman estimator; print alerts."""
    # observed, so the estimator has the Strata's watchdog to alert through
    obs = _obs_of(args, force=True)
    pipeline, _, _, in_process = _run_workload(args, _workload_of(args, "forecast"), obs)
    results = pipeline.sink.results
    realized = [t.payload["realized_rmse"] for t in results
                if t.payload["realized_rmse"] >= 0]
    mean_rmse = sum(realized) / len(realized) if realized else float("nan")
    frames = f" frames={pipeline.frames_processed}" if in_process else ""
    print(f"layers={args.layers} forecasts={len(results)}{frames} "
          f"overheat_threshold={pipeline.config.overheat_threshold:.1f}")
    print(f"realized forecast RMSE vs measurement: {mean_rmse:.2f}")
    if not in_process:
        return 0
    alerts = obs.watchdog.predictive_alerts()
    print(f"predictive alerts: {len(alerts)}")
    for alert in alerts:
        print(f"  layer {alert.layer} {alert.specimen}: forecast "
              f"{alert.predicted_value:.1f} > {alert.threshold:.1f} "
              f"({alert.lead_time_s:.1f}s lead)")
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    """Recover laser power/speed per layer from melt-pool frames."""
    pipeline, *_ = _run_workload(args, _workload_of(args, "reconstruct"), _obs_of(args))
    results = sorted(pipeline.sink.results, key=lambda t: t.layer)
    actual = {r.layer: (r.actual_power_w, r.actual_speed_mm_s)
              for r in synthesize_thermal_build(pipeline.build_config).records}
    print(f"layers={args.layers} reconstructions={len(results)}")
    print(f"{'layer':>5} {'P_hat':>8} {'P_true':>8} {'v_hat':>8} {'v_true':>8}")
    errors = []
    for t in results:
        power, speed = actual[t.layer]
        errors.append(abs(t.payload["power_w_hat"] - power) / power)
        if t.layer % max(1, args.layers // 10) == 0:
            print(f"{t.layer:>5} {t.payload['power_w_hat']:>8.1f} {power:>8.1f} "
                  f"{t.payload['speed_mm_s_hat']:>8.1f} {speed:>8.1f}")
    mean_err = sum(errors) / len(errors) if errors else float("nan")
    print(f"mean relative power error: {mean_err * 100:.2f}%")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Compact re-runs of the Figure 5/6/7 sweeps."""
    from .bench import (
        BOXPLOT_HEADERS,
        EvaluationWorkload,
        boxplot_row,
        format_table,
        run_latency_experiment,
        run_throughput_experiment,
    )

    deploy_cfg = _deploy_of(args)
    workload = EvaluationWorkload(image_px=args.image_px, layers=args.layers, seed=args.seed)
    print("Figure 5 (latency vs cell size):")
    rows = []
    for edge in (10, 5, 2):
        config = UseCaseConfig(
            image_px=args.image_px, cell_edge_px=edge, window_layers=args.window
        )
        run = run_latency_experiment(workload, config, optimize=deploy_cfg)
        rows.append(boxplot_row(f"{edge}px", run.summary))
    print(format_table(BOXPLOT_HEADERS, rows))

    print("\nFigure 6 (latency vs window L):")
    rows = []
    for window in (5, 20, 80):
        config = UseCaseConfig(
            image_px=args.image_px, cell_edge_px=5, window_layers=window
        )
        run = run_latency_experiment(workload, config, optimize=deploy_cfg)
        rows.append(boxplot_row(f"L={window}", run.summary))
    print(format_table(BOXPLOT_HEADERS, rows))

    print("\nFigure 7 (throughput vs offered rate):")
    rows = []
    for rate in (8, 32, 128):
        config = UseCaseConfig(image_px=args.image_px, cell_edge_px=5, window_layers=10)
        obs = _obs_of(args)
        run = run_throughput_experiment(
            workload, config, offered_images_s=float(rate),
            total_images=max(24, rate * 2), optimize=deploy_cfg, obs=obs,
        )
        _dump_metrics(args, obs)
        rows.append([rate, round(run.achieved_images_s, 1),
                     round(run.kcells_per_second, 1),
                     round(run.mean_latency_s * 1e3, 1)])
    print(format_table(["offered_img_s", "achieved", "kcells_s", "mean_lat_ms"], rows))
    return 0


def _paced_alg1_sources(args: argparse.Namespace, strata):
    """The thermal workload's OT and parameter records, ``--pace`` seconds
    apart, and its Alg. 1 config (thresholds stored on ``strata``)."""
    workload = _workload_of(args, "thermal")
    job, renderer = workload_job(workload)
    config = alg1_config(strata, workload, job, MemoryStore())
    records = list(BuildDataset(job, renderer).records(0, args.layers))

    def paced():
        for record in records:
            if args.pace > 0:
                time.sleep(args.pace)
            yield record

    return paced(), paced(), config


def cmd_recover(args: argparse.Namespace) -> int:
    """Checkpointed monitoring run that survives crashes across processes.

    State (checkpoints and thresholds) lives in an on-disk LSM store under
    ``--state-dir``. With ``--crash-after N`` the process hard-stops once N
    results were delivered after at least one committed checkpoint (exit
    code 3). Re-running without the flag recovers from the newest
    checkpoint, replays from the checkpointed source offsets, and
    completes the build; duplicate results are suppressed at the sink.
    """
    from dataclasses import replace

    from .kvstore.lsm import LSMStore
    from .recovery import CheckpointCoordinator, RecoveryCoordinator

    store = LSMStore(args.state_dir)
    obs = _obs_of(args)
    try:
        deploy = _deploy_of(args)
        strata = strata_for(deploy, store=store, obs=obs)
        pipeline = build_use_case(
            *_paced_alg1_sources(args, strata), strata=strata, checkpointable=True,
        )
        coordinator = CheckpointCoordinator(
            store, interval=args.checkpoint_interval, retain=args.retain
        )
        recovery = RecoveryCoordinator(store)
        deploy = replace(
            deploy,
            recovery=RecoveryConfig(checkpointer=coordinator, recover_from=recovery),
        )
        _maybe_explain(args, strata, deploy)
        crashed = False
        strata.start(deploy)
        if args.crash_after is None:
            coordinator.start_periodic()
            strata.wait(timeout=600)
        else:
            deadline = time.monotonic() + 600
            while time.monotonic() < deadline:
                try:
                    coordinator.trigger(timeout=10.0)
                except Exception:
                    break  # sources drained: the build finished first
                if (coordinator.completed_epochs
                        and len(pipeline.sink.results) >= args.crash_after):
                    strata.stop()
                    crashed = True
                    break
                time.sleep(0.01)
            if not crashed:
                strata.wait(timeout=600)
        coordinator.stop()
        _dump_metrics(args, obs)

        if recovery.report is not None:
            print(f"recovered from checkpoint epoch {recovery.report.epoch} "
                  f"({len(recovery.report.nodes_restored)} operators, "
                  f"{len(recovery.report.sources_restored)} sources)")
        else:
            print("cold start (no checkpoint found)")
        results = pipeline.sink.results
        duplicates = getattr(pipeline.sink, "duplicates", 0)
        epochs = list(coordinator.completed_epochs)
        if crashed:
            print(f"CRASHED (simulated) after {len(results)} results, "
                  f"checkpoints committed: {epochs}")
            print(f"re-run without --crash-after to recover from "
                  f"{args.state_dir}")
            return 3
        flagged = [t for t in results if t.payload["num_clusters"] > 0]
        print(f"completed: reports={len(results)} flagged={len(flagged)} "
              f"checkpoints={epochs} replay_duplicates_suppressed={duplicates}")
        return 0
    finally:
        store.close()


def _render_top(snap) -> str:
    """Render one metrics snapshot as a per-operator / per-queue table."""
    ops: dict[str, dict[str, float]] = {}
    for s in snap.samples:
        op = s.label("operator")
        if op is None:
            continue
        row = ops.setdefault(op, {})
        if s.name in ("spe_tuples_in_total", "spe_tuples_out_total",
                      "spe_busy_seconds_total", "spe_blocks_in_total",
                      "spe_block_rows_in_total"):
            row[s.name] = s.value
        if s.name == "spe_operator_mode":
            row["mode"] = s.label("mode") or "scalar"
        if s.name == "elastic_last_adaptation":
            row["adapt"] = s.label("action") or ""
        if s.label("fused_into") is not None:
            row["fused"] = 1.0
    lines = [
        f"{'OPERATOR':<34} {'IN':>9} {'OUT':>9} {'BUSY_S':>8} {'MODE':<12} "
        f"{'ADAPT':<12}"
    ]
    for op in sorted(ops):
        row = ops[op]
        name = ("  " + op) if row.get("fused") else op
        mode = row.get("mode", "") if not row.get("fused") else ""
        blocks = row.get("spe_blocks_in_total")
        if mode == "vectorized" and blocks:
            # rows per block: what one array-at-a-time call took on average
            mode = f"{mode} {row['spe_block_rows_in_total'] / blocks:.0f}/blk"
        adapt = str(row.get("adapt", "")) if not row.get("fused") else ""
        lines.append(
            f"{name:<34} {int(row.get('spe_tuples_in_total', 0)):>9} "
            f"{int(row.get('spe_tuples_out_total', 0)):>9} "
            f"{row.get('spe_busy_seconds_total', 0.0):>8.2f} {mode:<12} "
            f"{adapt:<12}"
        )
    queues: dict[str, dict[str, float]] = {}
    for s in snap.samples:
        stream = s.label("stream")
        if stream is not None:
            queues.setdefault(stream, {})[s.name] = s.value
    if queues:
        lines.append("")
        lines.append(f"{'QUEUE':<34} {'DEPTH':>7} {'HWM':>7} {'CAP':>7}")
        for stream in sorted(queues):
            row = queues[stream]
            lines.append(
                f"{stream:<34} {int(row.get('spe_queue_depth', 0)):>7} "
                f"{int(row.get('spe_queue_high_watermark', 0)):>7} "
                f"{int(row.get('spe_queue_capacity', 0)):>7}"
            )
    lag = snap.value("strata_watermark_lag")
    violations = snap.value("strata_qos_violations_total")
    tail = []
    if lag is not None:
        tail.append(f"watermark lag {lag:.2f}s")
    if violations is not None:
        tail.append(f"qos violations {int(violations)}")
    for s in snap.samples:
        if s.name == "elastic_parallelism":
            group = s.label("group") or "?"
            tail.append(f"elastic {group} x{int(s.value)}")
    if tail:
        lines.append("")
        lines.append("  ".join(tail))
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """Run the thermal use case and print a live per-operator table."""
    obs = _obs_of(args, force=True)
    deploy = _deploy_of(args)
    strata = strata_for(deploy, obs=obs)
    pipeline = build_use_case(*_paced_alg1_sources(args, strata), strata=strata)
    _maybe_explain(args, strata, deploy)
    strata.start(deploy)
    scrapes = 0
    while strata.running():
        time.sleep(args.refresh)
        snap = obs.snapshot()
        scrapes += 1
        print(f"-- scrape {scrapes} --")
        print(_render_top(snap))
        if args.metrics_out:
            with open(args.metrics_out, "a", encoding="utf-8") as fh:
                fh.write(to_json_line(snap) + "\n")
    strata.wait(timeout=600)
    snap = obs.snapshot()
    print("-- final --")
    print(_render_top(snap))
    if args.metrics_out:
        with open(args.metrics_out, "a", encoding="utf-8") as fh:
            fh.write(to_json_line(snap) + "\n")
    print(f"reports={len(pipeline.sink.results)}")
    return 0


def _install_signal_handlers(stop) -> None:
    """Route SIGINT/SIGTERM into ``stop`` (a ``threading.Event``).

    Resident verbs wait on the event instead of relying on
    ``KeyboardInterrupt`` — SIGTERM (the supervisor's stop signal) never
    raises one, and both signals should mean the same orderly drain.
    """
    import signal

    def handler(signum: int, frame) -> None:
        stop.set()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass


def _parse_address(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"broker address must be HOST:PORT, got {value!r}"
        )
    return (host or "127.0.0.1", int(port))


def cmd_broker(args: argparse.Namespace) -> int:
    """Serve a fresh broker over TCP until interrupted."""
    import threading

    from .net import BrokerServer
    from .pubsub import Broker

    server = BrokerServer(
        Broker(),
        host=args.host,
        port=args.port,
        allow_pickle=args.allow_pickle,
        transport=args.transport,
        transport_options={
            "slots": args.shm_slots,
            "slab_bytes": args.shm_slab_mb * 1024 * 1024,
        },
    )
    stop = threading.Event()
    _install_signal_handlers(stop)
    host, port = server.start()
    print(f"broker listening on {host}:{port} (SIGINT/SIGTERM to stop)")
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
        pass
    finally:
        server.stop()
    print("broker stopped")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Rebuild a pipeline from source and run chosen stages remotely."""
    import signal

    from .dist import run_worker_from_ref
    from .net import NetError
    from .serde import SerdeError

    if not args.list_stages and not args.stage:
        print("error: --stage is required (or use --list-stages)", file=sys.stderr)
        return 2

    # the worker blocks inside run_worker_from_ref; turn SIGTERM into the
    # same stack unwind SIGINT produces, so both drain through its
    # finally-blocks (sockets, engine) and exit 0
    def _graceful(signum: int, frame) -> None:
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _graceful)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        return run_worker_from_ref(
            args.pipeline,
            args.stage or [],
            args.broker,
            worker_name=args.name,
            allow_pickle=args.allow_pickle,
            list_stages=args.list_stages,
        )
    except KeyboardInterrupt:
        print("worker interrupted; shut down cleanly", file=sys.stderr)
        return 0
    except (NetError, SerdeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant fleet control plane until signalled."""
    import threading
    from dataclasses import replace

    from . import __version__
    from .fleet import FleetConfig, FleetHTTPServer, FleetService

    fleet_cfg = None
    if args.config:
        fleet_cfg = DeployConfig.from_dict(_read_toml(args.config)).fleet
    if fleet_cfg is None:
        fleet_cfg = FleetConfig()
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if overrides:
        fleet_cfg = replace(fleet_cfg, **overrides)
    store = None
    if args.state_dir:
        from .kvstore.lsm import LSMStore

        store = LSMStore(args.state_dir)
    try:
        service = FleetService(fleet_cfg, store=store, version=__version__)
        server = FleetHTTPServer(service)
        stop = threading.Event()
        _install_signal_handlers(stop)
        server.start()
        print(f"fleet control plane on {server.url} (SIGINT/SIGTERM to stop)",
              flush=True)
        try:
            stop.wait()
        except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
            pass
        print("draining fleet ...", flush=True)
        server.stop(drain_timeout=args.drain_timeout)
    finally:
        if store is not None:
            store.close()
    print("fleet stopped")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (one subcommand per flow)."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="STRATA reproduction: data-driven PBF-LB monitoring",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sp = subparsers.add_parser("quickstart", help="thermal use case, batch replay")
    _add_common(sp)
    sp.set_defaults(fn=cmd_quickstart)

    sp = subparsers.add_parser("monitor", help="live build with early termination")
    _add_common(sp)
    sp.add_argument("--volume-budget", type=float, default=2.0,
                    help="terminate when a cluster exceeds this volume, mm^3")
    sp.add_argument("--time-scale", type=float, default=0.01,
                    help="real-time compression factor (0 disables pacing)")
    sp.set_defaults(fn=cmd_monitor)

    sp = subparsers.add_parser("replay", help="reprocess a historic build")
    _add_common(sp)
    sp.set_defaults(fn=cmd_replay)

    sp = subparsers.add_parser("streaks", help="recoater-streak use case")
    _add_common(sp)
    sp.add_argument("--streak-rate", type=float, default=12.0,
                    help="seeded streaks per 100 layers")
    sp.set_defaults(fn=cmd_streaks)

    sp = subparsers.add_parser(
        "forecast", help="streaming thermal state estimation + predictive QoS"
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_forecast, image_px=120)

    sp = subparsers.add_parser(
        "reconstruct", help="laser power/speed reconstruction from melt pools"
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_reconstruct, image_px=120)

    sp = subparsers.add_parser("figures", help="compact Figure 5/6/7 sweeps")
    _add_common(sp)
    sp.set_defaults(fn=cmd_figures)

    sp = subparsers.add_parser(
        "recover", help="checkpointed run with crash simulation and recovery"
    )
    _add_common(sp)
    sp.add_argument("--state-dir", required=True,
                    help="directory for the persistent LSM state store")
    sp.add_argument("--crash-after", type=int, default=None,
                    help="simulate a crash after N results (needs >=1 checkpoint)")
    sp.add_argument("--retain", type=int, default=3,
                    help="checkpoints to keep")
    sp.add_argument("--checkpoint-interval", type=float, default=1.0,
                    help="seconds between automatic checkpoints")
    sp.add_argument("--pace", type=float, default=0.05,
                    help="seconds between layer arrivals (0 = flat out)")
    sp.set_defaults(fn=cmd_recover)

    sp = subparsers.add_parser(
        "top", help="live per-operator metrics table while a build runs"
    )
    _add_common(sp)
    sp.add_argument("--refresh", type=float, default=1.0,
                    help="seconds between table refreshes")
    sp.add_argument("--pace", type=float, default=0.05,
                    help="seconds between layer arrivals (0 = flat out)")
    sp.set_defaults(fn=cmd_top)

    sp = subparsers.add_parser(
        "broker", help="serve an in-process broker over TCP"
    )
    sp.add_argument("--host", default="127.0.0.1", help="bind address")
    sp.add_argument("--port", type=int, default=9400,
                    help="bind port (0 = ephemeral)")
    sp.add_argument("--allow-pickle", action="store_true",
                    help="accept pickle-coded values (trusted networks only)")
    sp.add_argument("--transport", choices=("tcp", "shm"), default="tcp",
                    help="payload transport (shm = shared-memory slab ring "
                         "for same-machine peers)")
    sp.add_argument("--shm-slots", type=int, default=64,
                    help="slab count of the shm ring")
    sp.add_argument("--shm-slab-mb", type=int, default=40,
                    help="size of each slab in MiB")
    sp.set_defaults(fn=cmd_broker)

    sp = subparsers.add_parser(
        "worker", help="run pipeline stages against a remote broker"
    )
    sp.add_argument("--broker", type=_parse_address, required=True,
                    metavar="HOST:PORT", help="broker server address")
    sp.add_argument("--pipeline", required=True, metavar="MODULE:CALLABLE",
                    help="factory returning an undeployed Strata (or Query)")
    sp.add_argument("--stage", type=int, action="append", metavar="N",
                    help="stage index to run (repeatable)")
    sp.add_argument("--name", default=None, help="worker name for heartbeats")
    sp.add_argument("--list-stages", action="store_true",
                    help="print the pipeline's stage cut and exit")
    sp.add_argument("--allow-pickle", action="store_true",
                    help="send/accept pickle-coded values (trusted networks only)")
    sp.set_defaults(fn=cmd_worker)

    sp = subparsers.add_parser(
        "serve", help="multi-tenant fleet control plane over HTTP"
    )
    sp.add_argument("--host", default=None,
                    help="bind address (default: fleet config, 127.0.0.1)")
    sp.add_argument("--port", type=int, default=None,
                    help="bind port (default: fleet config, 9500; 0 = ephemeral)")
    sp.add_argument("--config", default=None, metavar="FILE",
                    help="TOML DeployConfig whose [fleet] table configures "
                         "quotas, budget and bind address")
    sp.add_argument("--state-dir", default=None, metavar="DIR",
                    help="persist job records in an LSM store (jobs survive "
                         "restarts; in-flight ones come back FAILED)")
    sp.add_argument("--drain-timeout", type=float, default=30.0,
                    help="seconds to wait for running jobs on shutdown")
    sp.set_defaults(fn=cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DeployConfigError as exc:  # a config the verb cannot run
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
