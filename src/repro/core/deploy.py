"""The unified deployment surface: one config object for every subsystem.

:class:`DeployConfig` is the one argument of ``Strata.deploy`` /
``Strata.start``: a validated dataclass grouping each subsystem's knobs::

    config = DeployConfig(
        plan=PlanConfig(parallelism=2),
        recovery=RecoveryConfig(interval_s=0.5, retain=3),
        elastic=ElasticConfig(max_parallelism=8),
    )
    report = strata.deploy(config)

Cross-field rules live in one place (``__post_init__``) and every
violation raises the same typed error,
:class:`~repro.core.errors.DeployConfigError`, so callers have exactly one
thing to catch.

``from_dict``/``to_dict`` round-trip the config through plain mappings
(minus live objects: coordinators and contexts are code, not
configuration), which is what the CLI's ``--config file.toml`` support
builds on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any

from ..elastic.config import ElasticConfig
from ..elastic.replan import ReplanConfig
from ..obs.context import ObsConfig, ObsContext
from ..spe.plan import PlanConfig
from .errors import DeployConfigError


@dataclass(frozen=True)
class RecoveryConfig:
    """Checkpointing and recovery knobs for one deployment.

    Either hand over a live coordinator (``checkpointer=``) or describe
    one declaratively (``interval_s``/``retain``) and let ``Strata``
    build it against its own KV store — not both. ``recover_from``
    restores the newest committed checkpoint before execution starts:
    ``True`` for the instance's own store, or a store/coordinator object.
    """

    checkpointer: Any = None
    recover_from: Any = None
    interval_s: float | None = None
    retain: int | None = None

    def __post_init__(self) -> None:
        if self.interval_s is not None and self.interval_s <= 0:
            raise DeployConfigError("recovery.interval_s must be positive")
        if self.retain is not None and self.retain < 1:
            raise DeployConfigError("recovery.retain must keep at least one epoch")
        if self.checkpointer is not None and (
            self.interval_s is not None or self.retain is not None
        ):
            raise DeployConfigError(
                "recovery: pass either a live checkpointer or declarative "
                "interval_s/retain knobs, not both — the knobs configure a "
                "coordinator Strata builds for you"
            )

    @property
    def active(self) -> bool:
        """True when any field asks for checkpointing or recovery."""
        return (
            self.checkpointer is not None
            or self.recover_from is not None
            or self.interval_s is not None
            or self.retain is not None
        )


#: DeployConfig fields backed by a dataclass, for dict round-tripping.
_SUB_CONFIGS: dict[str, type] = {
    "plan": PlanConfig,
    "recovery": RecoveryConfig,
    "elastic": ElasticConfig,
    "obs": ObsConfig,
}

#: sub-config fields that hold live objects, not serializable data.
_LIVE_FIELDS: dict[str, tuple[str, ...]] = {
    "recovery": ("checkpointer", "recover_from"),
}

#: sub-config fields that are themselves dataclass tables, one nesting
#: level down ([elastic.replan] in TOML).
_NESTED_CONFIGS: dict[str, dict[str, type]] = {
    "elastic": {"replan": ReplanConfig},
}


@dataclass(frozen=True)
class DeployConfig:
    """Everything a deployment needs, validated as a whole.

    ``plan``     plan-compiler knobs: ``True`` for defaults, a
                 :class:`~repro.spe.plan.PlanConfig` for explicit ones,
                 ``None``/``False`` to run the graph as declared.
    ``dist``     distributed execution: ``True``, a worker count, or a
                 :class:`~repro.dist.DistConfig`.
    ``recovery`` checkpointing/recovery, a :class:`RecoveryConfig`.
    ``obs``      observability: ``True``, an ``ObsConfig``/``ObsContext``;
                 ``None`` keeps whatever the ``Strata`` instance was
                 constructed with.
    ``elastic``  QoS-driven runtime rescaling: ``True`` for defaults or an
                 :class:`~repro.elastic.ElasticConfig`.
    ``fleet``    control-plane settings for ``strata-repro serve``:
                 ``True`` for defaults or a
                 :class:`~repro.fleet.FleetConfig`. Ignored by plain
                 ``deploy()``/``start()`` — it configures the service a
                 config file boots, not one pipeline.
    """

    plan: Any = None
    dist: Any = None
    recovery: RecoveryConfig | None = None
    obs: Any = None
    elastic: Any = None
    fleet: Any = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "plan", PlanConfig.resolve(self.plan))
            object.__setattr__(self, "elastic", ElasticConfig.resolve(self.elastic))
        except (TypeError, ValueError) as exc:
            raise DeployConfigError(str(exc)) from exc
        if self.fleet is not None:
            from ..fleet.config import FleetConfig

            try:
                object.__setattr__(self, "fleet", FleetConfig.resolve(self.fleet))
            except (TypeError, ValueError) as exc:
                raise DeployConfigError(str(exc)) from exc
        if self.dist is False:
            object.__setattr__(self, "dist", None)
        if self.recovery is not None and not isinstance(self.recovery, RecoveryConfig):
            raise DeployConfigError(
                f"recovery must be a RecoveryConfig, got {self.recovery!r}"
            )
        if self.dist is not None and self.recovery is not None and self.recovery.active:
            raise DeployConfigError(
                "distributed deployment has its own crash recovery (each "
                "worker resumes from its last committed epoch; the "
                "coordinator's terminal stage is not checkpointed); "
                "recovery= does not apply — drop one of the two"
            )
        if self.elastic is not None and self.plan is None:
            raise DeployConfigError(
                "elastic rescaling drains and re-splices plan-compiled replica "
                "groups; set plan=True (or a PlanConfig) alongside elastic="
            )

    def resolved_dist(self):
        """The ``dist`` field as a ``DistConfig | None`` (lazy import)."""
        from ..dist import DistConfig

        try:
            return DistConfig.resolve(self.dist)
        except (TypeError, ValueError) as exc:
            raise DeployConfigError(str(exc)) from exc

    def resolved_obs(self, default: ObsContext | None = None) -> ObsContext | None:
        """The ``obs`` field as an ``ObsContext``; ``None`` keeps ``default``."""
        if self.obs is None:
            return default
        try:
            return ObsContext.resolve(self.obs)
        except TypeError as exc:
            raise DeployConfigError(str(exc)) from exc

    # -- dict / TOML round-trip ---------------------------------------------

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DeployConfig":
        """Build a config from a plain mapping (e.g. a parsed TOML table).

        Sub-config tables become their dataclasses; booleans pass through
        (``elastic = true``). Unknown keys — top-level or nested — raise
        :class:`DeployConfigError` instead of being silently dropped, so a
        typo in a config file cannot masquerade as a default.
        """
        if not isinstance(data, dict):
            raise DeployConfigError(f"deploy config must be a mapping, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DeployConfigError(
                f"unknown deploy config key(s): {', '.join(sorted(unknown))}; "
                f"expected {', '.join(sorted(known))}"
            )
        kwargs: dict[str, Any] = {}
        for key, value in data.items():
            if isinstance(value, dict):
                kwargs[key] = _sub_from_dict(key, value)
            else:
                kwargs[key] = value
        return cls(**kwargs)

    def to_dict(self) -> dict[str, Any]:
        """The inverse of :meth:`from_dict`; omits unset (None) fields.

        Live objects (a handed-over checkpointer, an ``ObsContext``) are
        code, not configuration — attempting to serialize a config holding
        one raises :class:`DeployConfigError`.
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                out[f.name] = _sub_to_dict(f.name, value)
            elif isinstance(value, (bool, int, float, str)):
                out[f.name] = value
            else:
                raise DeployConfigError(
                    f"deploy config field {f.name!r} holds a live object "
                    f"({type(value).__name__}) and cannot be serialized"
                )
        return out

    def describe(self) -> str:
        """One line per configured subsystem, for logs and ``explain``."""
        parts = []
        if self.plan is not None:
            parts.append(f"plan({self.plan.describe()})")
        if self.dist is not None:
            parts.append("dist")
        if self.recovery is not None and self.recovery.active:
            parts.append("recovery")
        if self.obs is not None:
            parts.append("obs")
        if self.elastic is not None:
            parts.append(f"elastic({self.elastic.describe()})")
        if self.fleet is not None:
            parts.append(f"fleet({self.fleet.describe()})")
        return " + ".join(parts) if parts else "defaults"


def _sub_from_dict(key: str, table: dict[str, Any]) -> Any:
    if key == "dist":
        from ..dist import DistConfig

        sub_cls: type = DistConfig
    elif key == "fleet":
        from ..fleet.config import FleetConfig

        sub_cls = FleetConfig
    elif key in _SUB_CONFIGS:
        sub_cls = _SUB_CONFIGS[key]
    else:
        raise DeployConfigError(f"deploy config key {key!r} does not take a table")
    live = set(_LIVE_FIELDS.get(key, ()))
    names = {f.name for f in fields(sub_cls)}
    unknown = set(table) - names
    rejected = (set(table) & live) | unknown
    if rejected:
        # name offenders by their full dotted path (elastic.max_paralelism,
        # fleet.worker_budgt, ...) so a typo deep in a TOML file points at
        # the exact line to fix, not just the table it sits in
        paths = ", ".join(f"{key}.{name}" for name in sorted(rejected))
        raise DeployConfigError(
            f"unknown or non-serializable key(s) in [{key}]: {paths}"
        )
    nested = _NESTED_CONFIGS.get(key, {})
    coerced: dict[str, Any] = {}
    for name, value in table.items():
        if isinstance(value, dict):
            if name not in nested:
                raise DeployConfigError(
                    f"deploy config key {key}.{name} does not take a table"
                )
            coerced[name] = _nested_from_dict(key, name, nested[name], value)
        else:
            coerced[name] = value
    try:
        return sub_cls(**coerced)
    except (TypeError, ValueError) as exc:
        raise DeployConfigError(f"invalid [{key}] config: {exc}") from exc


def _nested_from_dict(
    key: str, name: str, nested_cls: type, table: dict[str, Any]
) -> Any:
    names = {f.name for f in fields(nested_cls)}
    unknown = set(table) - names
    if unknown:
        paths = ", ".join(f"{key}.{name}.{field}" for field in sorted(unknown))
        raise DeployConfigError(
            f"unknown key(s) in [{key}.{name}]: {paths}"
        )
    try:
        return nested_cls(**table)
    except (TypeError, ValueError) as exc:
        raise DeployConfigError(f"invalid [{key}.{name}] config: {exc}") from exc


def _sub_to_dict(key: str, value: Any) -> dict[str, Any]:
    live = set(_LIVE_FIELDS.get(key, ()))
    out: dict[str, Any] = {}
    for f in fields(value):
        item = getattr(value, f.name)
        if item is None:
            continue
        if f.name in live:
            raise DeployConfigError(
                f"deploy config field {key}.{f.name} holds a live object "
                f"({type(item).__name__}) and cannot be serialized"
            )
        if dataclasses.is_dataclass(item) and not isinstance(item, type):
            out[f.name] = _sub_to_dict(f"{key}.{f.name}", item)
        else:
            out[f.name] = item
    return out
