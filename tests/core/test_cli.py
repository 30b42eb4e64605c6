"""CLI smoke tests: every subcommand runs and reports.

The golden cases pin each workload verb's printed summary on a small
seeded build, with timing figures masked: a change to how a verb builds
its pipeline must not change what it prints.
"""

import re

import pytest

from repro.cli import build_parser, main

SMALL = ["--image-px", "250", "--layers", "6", "--cell-edge", "5", "--window", "4"]

#: a timing figure: ``9.2 ms``, ``0.10s``, ``57.9 img/s``, ``34.7 kcells/s``
TIMING = re.compile(r"\d+(?:\.\d+)?(?=\s?(?:ms|s|img/s|kcells/s)\b)")

EXPLAIN_ALG1 = """\
== strata ==
   optimizer: parallelism=1
  source:pp  [source[PrintingParameterCollector]]
  source:OT  [source[OTImageCollector]]
  fuse:OT&pp  [JoinOperator]  <- source:OT->fuse:OT&pp, source:pp->fuse:OT&pp
  fused[partition:spec+partition:cell+detect:cellLabel+correlate:out+depunct:out:0]  \
[fused(partition:spec -> partition:cell -> detect:cellLabel -> correlate:out -> \
depunct:out:0)]  mode=vectorized (scalar members: partition:spec, correlate:out, \
depunct:out:0)  <- fuse:OT&pp->partition:spec
  sink:expert:0  [sink[CollectingSink]]  <- depunct:out:0->sink:expert:0
   5 nodes / 4 streams (1 fused chain, 1 vectorized)
"""

GOLDEN = {
    "quickstart": (["quickstart", *SMALL], """\
layers=6 reports=72 flagged=13 cells=3600
latency: median # ms, max # ms
  layer 5 specimen S02: 1 cluster(s), 4 events
  layer 5 specimen S04: 1 cluster(s), 4 events
  layer 5 specimen S09: 1 cluster(s), 4 events
"""),
    "replay": (["replay", *SMALL, "--explain"], EXPLAIN_ALG1 + """\
replayed 6 layers in #s (# img/s, # kcells/s)
"""),
    "streaks": (["streaks", *SMALL, "--layers", "12", "--streak-rate", "20"], """\
seeded 4 streak(s); reported 2
  y=227.5 mm layers 6-7
  y=136.5 mm layers 7-8
"""),
    "forecast": (["forecast", "--layers", "8"], """\
layers=8 forecasts=32 frames=32 overheat_threshold=135.4
realized forecast RMSE vs measurement: 2.01
predictive alerts: 5
  layer 3 region-1-0: forecast 139.0 > 135.4 (#s lead)
  layer 4 region-0-1: forecast 138.2 > 135.4 (#s lead)
  layer 5 region-0-0: forecast 138.0 > 135.4 (#s lead)
  layer 6 region-0-1: forecast 136.1 > 135.4 (#s lead)
  layer 7 region-0-0: forecast 135.6 > 135.4 (#s lead)
"""),
    "reconstruct": (["reconstruct", "--layers", "8"], """\
layers=8 reconstructions=8
layer    P_hat   P_true    v_hat   v_true
    0    272.0    272.3   1193.5   1174.7
    1    277.6    267.4   1261.8   1171.8
    2    271.6    259.1   1260.7   1172.4
    3    269.4    258.0   1264.7   1193.5
    4    272.6    265.5   1255.9   1220.9
    5    277.4    271.1   1248.2   1216.8
    6    270.2    276.2   1175.4   1242.8
    7    276.1    273.9   1250.2   1247.9
mean relative power error: 2.64%
"""),
    "recover": (["recover", *SMALL, "--pace", "0"], """\
cold start (no checkpoint found)
completed: reports=72 flagged=13 checkpoints=[] replay_duplicates_suppressed=0
"""),
    "monitor-clean": ([
        "monitor", *SMALL, "--layers", "4", "--defect-rate", "0",
        "--volume-budget", "1.0", "--time-scale", "0",
    ], """\
completed 4/4 layers within the 1.0 mm^3 budget
"""),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_summary(case, tmp_path, capsys):
    argv, expected = GOLDEN[case]
    if argv[0] == "recover":
        argv = [*argv, "--state-dir", str(tmp_path / "state")]
    assert main(argv) == 0
    assert TIMING.sub("#", capsys.readouterr().out) == expected


def test_forecast_image_px_sets_the_plate(capsys):
    # 120 px is the verbs' default plate (60 mm); 60 px snaps to a 30 mm one
    summaries = []
    for px in ("120", "60"):
        assert main(["forecast", "--layers", "4", "--image-px", px]) == 0
        summaries.append(capsys.readouterr().out.splitlines()[1])
    assert summaries[0] != summaries[1], summaries


#: the same verbs under ``[dist]``: the pipeline runs in forked workers,
#: so the summaries leave out the counters only the workers hold (cells
#: evaluated, frames processed, the estimator's alerts)
GOLDEN_DIST = {
    "quickstart": (["quickstart", *SMALL], """\
layers=6 reports=72 flagged=13
latency: median # ms, max # ms
  layer 5 specimen S02: 1 cluster(s), 4 events
  layer 5 specimen S04: 1 cluster(s), 4 events
  layer 5 specimen S09: 1 cluster(s), 4 events
"""),
    "replay": (["replay", *SMALL], """\
replayed 6 layers in #s (# img/s)
"""),
    "streaks": GOLDEN["streaks"],
    "forecast": (["forecast", "--layers", "8"], """\
layers=8 forecasts=32 overheat_threshold=135.4
realized forecast RMSE vs measurement: 2.01
"""),
    "reconstruct": GOLDEN["reconstruct"],
}


@pytest.fixture
def dist_config(tmp_path):
    path = tmp_path / "dist.toml"
    path.write_text("[dist]\nworkers = 2\n")
    return str(path)


@pytest.mark.parametrize("case", sorted(GOLDEN_DIST))
def test_golden_summary_under_dist(case, dist_config, capsys):
    argv, expected = GOLDEN_DIST[case]
    assert main([*argv, "--config", dist_config]) == 0
    assert TIMING.sub("#", capsys.readouterr().out) == expected


@pytest.mark.parametrize("verb,extra,reason", [
    ("monitor", ["--time-scale", "0"], "deploy()-only"),
    ("top", ["--pace", "0", "--refresh", "0.2"], "deploy()-only"),
    ("recover", ["--pace", "0"], "its own crash recovery"),
])
def test_in_process_verbs_refuse_dist_in_one_line(
    verb, extra, reason, dist_config, tmp_path, capsys
):
    if verb == "recover":
        extra = [*extra, "--state-dir", str(tmp_path / "state")]
    assert main([verb, *SMALL, *extra, "--config", dist_config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and reason in line


@pytest.mark.parametrize("setting", [
    'transport = "spm"', "shm_slots = 0", "produce_batch = 0", "workers = 0",
    "restart_limit = -1", "shm_slab_bytes = 0", "port = 70000",
])
def test_bad_dist_values_are_one_error_line(setting, tmp_path, capsys):
    path = tmp_path / "bad.toml"
    path.write_text(f"[dist]\n{setting}\n")
    assert main(["replay", *SMALL, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: invalid [dist] config: ")
    assert setting.split()[0] in line


def test_golden_monitor_termination_reason(capsys):
    # the layer the machine stops after depends on thread timing at
    # --time-scale 0; the reason the policy gave does not
    assert main([
        "monitor", *SMALL, "--layers", "12",
        "--volume-budget", "0.5", "--time-scale", "0",
    ]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(
        r"TERMINATED after layer \d+: 3\.0 mm\^3 in S00 at layer 2\n", out
    ), out


def test_golden_top_reports(capsys):
    assert main([
        "top", "--image-px", "120", "--layers", "4", "--cell-edge", "5",
        "--window", "4", "--refresh", "0.2", "--pace", "0",
    ]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "reports=48"


def test_golden_figures_layout(capsys):
    assert main(["figures", "--image-px", "120", "--layers", "4", "--window", "4"]) == 0
    # every figure is a timing table: pin its titles and row labels
    labels = [
        line if line.startswith("Figure") else line.split()[0]
        for line in capsys.readouterr().out.splitlines()
        if line.strip() and not line.startswith(("param", "offered", "-"))
    ]
    assert labels == [
        "Figure 5 (latency vs cell size):", "10px", "5px", "2px",
        "Figure 6 (latency vs window L):", "L=5", "L=20", "L=80",
        "Figure 7 (throughput vs offered rate):", "8", "32", "128",
    ]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_quickstart(capsys):
    assert main(["quickstart", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "reports=72" in out
    assert "latency" in out


def test_replay(capsys):
    assert main(["replay", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "replayed 6 layers" in out
    assert "kcells/s" in out


def test_streaks(capsys):
    assert main(["streaks", *SMALL, "--layers", "12", "--streak-rate", "20"]) == 0
    out = capsys.readouterr().out
    assert "seeded" in out


def test_monitor_terminates_on_defect(capsys):
    code = main([
        "monitor", *SMALL, "--layers", "12",
        "--volume-budget", "0.5", "--time-scale", "0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "TERMINATED" in out or "completed" in out


def test_monitor_clean_completes(capsys):
    code = main([
        "monitor", *SMALL, "--layers", "4", "--defect-rate", "0",
        "--volume-budget", "1.0", "--time-scale", "0",
    ])
    assert code == 0
    assert "completed 4/4" in capsys.readouterr().out


def test_explain_names_vectorized_chains(capsys):
    assert main(["replay", *SMALL, "--explain"]) == 0
    out = capsys.readouterr().out
    assert "optimizer: parallelism=1" in out
    assert "mode=vectorized" in out


def test_no_optimize_runs_the_graph_as_declared(capsys):
    assert main(["replay", *SMALL, "--explain", "--no-optimize"]) == 0
    out = capsys.readouterr().out
    assert "optimizer: off" in out
    assert "fused" not in out and "mode=" not in out


@pytest.mark.parametrize("flag", ["--no-fusion", "--no-vectorize"])
def test_retired_plan_switches_are_unknown_flags(flag, capsys):
    with pytest.raises(SystemExit):
        main(["replay", *SMALL, flag])
    assert flag in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_quickstart_metrics_out(tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    assert main(["quickstart", *SMALL, "--metrics-out", str(out)]) == 0
    from repro.obs import read_jsonl

    snapshots = read_jsonl(out)
    assert len(snapshots) == 1
    snap = snapshots[0]
    operators = {s.label("operator") for s in snap.filter("spe_tuples_in_total")}
    assert any(op and op.startswith("sink:") for op in operators)
    assert snap.filter("spe_queue_depth").samples


def test_top_prints_table_and_writes_metrics(tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    code = main([
        "top", "--image-px", "120", "--layers", "4", "--cell-edge", "5",
        "--window", "4", "--refresh", "0.2", "--pace", "0",
        "--metrics-out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "OPERATOR" in printed
    assert "QUEUE" in printed
    assert "MODE" in printed
    assert "vectorized" in printed  # the fused chain's live execution mode
    assert "-- final --" in printed
    assert "reports=" in printed
    from repro.obs import read_jsonl

    assert len(read_jsonl(out)) >= 1


def test_metrics_out_flag_on_every_verb():
    parser = build_parser()
    for verb in ("quickstart", "monitor", "replay", "streaks", "figures",
                 "recover", "top"):
        extra = ["--state-dir", "x"] if verb == "recover" else []
        args = parser.parse_args([verb, *extra, "--metrics-out", "m.jsonl"])
        assert args.metrics_out == "m.jsonl"
