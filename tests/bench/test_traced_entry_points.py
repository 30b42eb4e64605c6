"""Guard: every name ``benchmarks/e2e/trace.py`` wraps still exists, once.

The traced benchmark run ``setattr``-wraps ``module:Class.method`` targets
from outside ``src/``. A refactor that renames a target breaks the run; one
that turns two targets into the same attribute of the same object (a class
alias such as ``VectorizedFusedOperator = FusedOperator``) wraps it twice and
counts every call double. Both should fail here, in tier 1, not in the
benchmark pipeline. The list is read with ``ast`` — the benchmark's files
are neither imported nor edited.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACE_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "trace.py"


def declared_entry_points(path: Path = TRACE_PY) -> list[tuple[str, str]]:
    """The literal ``ENTRY_POINTS`` list assigned in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "ENTRY_POINTS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no ENTRY_POINTS")


def resolve(target: str) -> tuple[object, str]:
    """``module:Owner.attr`` -> (the owner object, ``attr``), as
    ``Tracer.install`` resolves it; raises if any step is missing."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)
    return owner, attr


def check(entry_points: list[tuple[str, str]]) -> None:
    seen: dict[tuple[int, str], str] = {}
    for _span, target in entry_points:
        try:
            owner, attr = resolve(target)
        except (ImportError, AttributeError) as exc:
            raise AssertionError(f"{target} does not resolve: {exc}") from exc
        if isinstance(owner, type):
            # a method inherited from a base would be wrapped on the
            # subclass only and change what the span covers
            assert attr in vars(owner), f"{target} is inherited, not {owner.__name__}'s own"
        first = seen.setdefault((id(owner), attr), target)
        assert first == target, (
            f"{first} and {target} are the same attribute of the same object: "
            "every call would be traced twice"
        )


def test_every_traced_entry_point_resolves_to_its_own_attribute():
    entry_points = declared_entry_points()
    assert len(entry_points) >= 30  # the parser found the real list
    check(entry_points)
