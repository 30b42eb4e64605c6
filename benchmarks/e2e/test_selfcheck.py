"""Self-check: the quick suite runs, and emits exactly the declared names.

Not collected by the tier-1 run (``testpaths = ["tests"]``); run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_selfcheck.py -q``
(the path is for ``benchmarks/conftest.py``, not for this file).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_declared_names_and_counts_are_within_the_contract():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_quick_suite_emits_exactly_the_declared_names():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "7"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout
    for workload in SPEC["workloads"]:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            detail = json.loads(
                (HERE / "results" / f"run-{workload['name']}-trace{trace}.json").read_text()
            )
            assert detail["correct"] and detail["failed"] == 0
            assert set(detail["metrics"]) == {m["name"] for m in declared}
            units = {m["name"]: m["unit"] for m in declared}
            assert all(got["unit"] == units[name] for name, got in detail["metrics"].items())
