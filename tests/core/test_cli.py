"""CLI smoke tests: every subcommand runs and reports."""

import pytest

from repro.cli import build_parser, main

SMALL = ["--image-px", "250", "--layers", "6", "--cell-edge", "5", "--window", "4"]


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
    assert "optimizer: batch=32, parallelism=1" in out
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
