"""Configuration for the elastic runtime controller."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .replan import ReplanConfig


@dataclass(frozen=True)
class ElasticConfig:
    """Knobs for :class:`~repro.elastic.controller.ElasticController`.

    ``min_parallelism``/``max_parallelism`` bound the replica count of
    every keyed-replicated group; a deployment starts at the plan's
    ``parallelism`` clamped into those bounds.
    ``tick_s`` is the signal sampling period, ``cooldown_s`` the minimum
    spacing between rescales of one group. What to rescale, and when, is
    :class:`~repro.elastic.replan.CostModelPolicy`'s call.
    ``replan`` enables runtime plan adaptation — ``True`` for defaults or a
    :class:`~repro.elastic.replan.ReplanConfig`; off, the controller
    only rescales replica groups.
    """

    min_parallelism: int = 1
    max_parallelism: int = 4
    tick_s: float = 0.25
    cooldown_s: float = 2.0
    replan: Any | None = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "replan", ReplanConfig.resolve(self.replan))
        except TypeError as exc:
            raise ValueError(str(exc)) from exc
        if self.min_parallelism < 1:
            raise ValueError("min_parallelism must be >= 1")
        if self.max_parallelism < self.min_parallelism:
            raise ValueError("max_parallelism must be >= min_parallelism")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")

    @classmethod
    def resolve(cls, elastic: "ElasticConfig | bool | None") -> "ElasticConfig | None":
        """Normalize the ``elastic=`` argument of user-facing APIs."""
        if elastic is None or elastic is False:
            return None
        if elastic is True:
            return cls()
        if isinstance(elastic, cls):
            return elastic
        raise TypeError(
            f"elastic must be bool, None or ElasticConfig, got {elastic!r}"
        )

    def describe(self) -> str:
        text = (
            f"parallelism {self.min_parallelism}..{self.max_parallelism}, "
            f"tick {self.tick_s}s, cooldown {self.cooldown_s}s"
        )
        if self.replan is not None:
            text += f", replan({self.replan.describe()})"
        return text


def elastic_plan(plan: Any, elastic: ElasticConfig | None) -> tuple[Any, bool]:
    """What an elastic deployment compiles: ``(plan, force_replication)``.

    The plan's ``parallelism`` is clamped into the elastic bounds, which is
    where every group starts, and replication is forced even at parallelism
    1, so every replicable keyed stage materializes behind its hash router
    and stays rescalable at runtime. Without ``elastic`` the plan is
    untouched.
    """
    if elastic is None:
        return plan, False
    start = min(max(plan.parallelism, elastic.min_parallelism), elastic.max_parallelism)
    return replace(plan, parallelism=start), True
