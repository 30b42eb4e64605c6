"""Typed stream handles: the fluent face of the Table 1 API.

Every Strata verb that produces a stream returns a :class:`StreamHandle`
instead of a bare name. The handle *is* a ``str`` (subclass), so it passes
unchanged anywhere a plain stream name is accepted — including older code,
dict keys, and the positional ``s_in`` arguments of every verb — while
adding:

* pipeline context: the producing node, the owning module (Figure 2), and
  a schema hint describing the tuples the stream carries;
* fluent chaining: ``handle.partition(...).detect_event(...).deliver()``
  reads top-to-bottom like the dataflow it builds, each step returning the
  next handle (plus a generic ``then(verb, ...)`` escape hatch);
* observability: ``handle.metrics()`` filters the pipeline-wide snapshot
  down to the operator producing this stream — including member-level
  samples when the plan compiler fused it into a chain.

This module also hosts the case-aliasing shims shared by
:class:`~repro.core.api.Strata` and :class:`StreamHandle`. snake_case is
the *canonical* surface (the methods are defined under their PEP 8
names); the paper's camelCase spellings remain available as deprecated
aliases — thin wrappers that forward to the canonical method and emit a
one-time :class:`DeprecationWarning` naming the spelling to migrate to.
``alias.__wrapped__`` exposes the canonical function for introspection.
"""

from __future__ import annotations

import functools
import warnings
from typing import TYPE_CHECKING, Any

from .errors import PipelineDefinitionError

#: aliases that already fired their one-time DeprecationWarning
#: (keyed "ClassName.aliasName"; shared across install calls).
_warned_aliases: set[str] = set()

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.registry import MetricsSnapshot
    from ..spe.sink import Sink
    from .api import Strata


def camel_name(snake: str) -> str:
    """``detect_event`` -> ``detectEvent``."""
    head, *rest = snake.split("_")
    return head + "".join(part.title() for part in rest)


def _deprecated_alias(cls: type, alias: str, canonical: str, fn: Any) -> Any:
    """A forwarding shim that warns once, then behaves as the original.

    ``functools.wraps`` keeps the docstring and sets ``__wrapped__`` to
    the canonical function; ``__name__``/``__qualname__`` are re-pointed
    at the alias so tracebacks name what was actually called.
    """
    key = f"{cls.__name__}.{alias}"

    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        if key not in _warned_aliases:
            _warned_aliases.add(key)
            warnings.warn(
                f"{key} is deprecated; use the canonical "
                f"{cls.__name__}.{canonical}",
                DeprecationWarning,
                stacklevel=2,
            )
        return fn(*args, **kwargs)

    shim.__name__ = alias
    shim.__qualname__ = f"{cls.__qualname__}.{alias}"
    return shim


def install_camelcase_aliases(cls: type, names: tuple[str, ...]) -> None:
    """Add the paper's camelCase spellings for canonical snake_case verbs.

    Each alias is a thin deprecation shim: the first call per alias emits
    a :class:`DeprecationWarning` naming the canonical snake_case method,
    then forwards — so Table 1 parity code keeps running while pointing
    migrators at the one spelling the docs show. The canonical function
    is reachable as ``alias.__wrapped__``.
    """
    for snake in names:
        alias = camel_name(snake)
        if alias != snake:
            setattr(
                cls, alias, _deprecated_alias(cls, alias, snake, cls.__dict__[snake])
            )


class StreamHandle(str):
    """A named stream bound to the pipeline that produces it.

    Being a ``str`` subclass keeps the whole API backward compatible:
    every verb still accepts plain strings, and a handle used as a plain
    string (printed, hashed, compared, passed to old code) behaves as the
    bare stream name.
    """

    __slots__ = ("_strata", "node", "module", "schema")

    def __new__(
        cls,
        name: str,
        strata: "Strata | None" = None,
        node: str | None = None,
        module: str | None = None,
        schema: str | None = None,
    ) -> "StreamHandle":
        self = super().__new__(cls, name)
        self._strata = strata
        self.node = node
        self.module = module
        self.schema = schema
        return self

    @property
    def name(self) -> str:
        """The plain stream name."""
        return str(self)

    @property
    def strata(self) -> "Strata | None":
        """The pipeline this handle belongs to (None for detached handles)."""
        return self._strata

    def _require_strata(self) -> "Strata":
        if self._strata is None:
            raise PipelineDefinitionError(
                f"stream handle {str(self)!r} is not bound to a Strata pipeline"
            )
        return self._strata

    # -- fluent verbs (each returns the downstream handle) ------------------

    def fuse(
        self,
        other: str,
        s_out: str,
        ws: float | None = None,
        wa: float | None = None,
        gb: list[str] | None = None,
    ) -> "StreamHandle":
        """``fuse(self, other, s_out)`` on the owning pipeline."""
        return self._require_strata().fuse(self, other, s_out, ws=ws, wa=wa, gb=gb)

    def partition(
        self,
        s_out: str,
        f: Any | None = None,
        parallelism: int = 1,
        replicable: bool | None = None,
    ) -> "StreamHandle":
        """``partition(self, s_out, f)`` on the owning pipeline."""
        return self._require_strata().partition(
            self, s_out, f, parallelism=parallelism, replicable=replicable
        )

    def detect_event(
        self,
        s_out: str,
        f: Any,
        parallelism: int = 1,
        replicable: bool | None = None,
    ) -> "StreamHandle":
        """``detect_event(self, s_out, f)`` on the owning pipeline."""
        return self._require_strata().detect_event(
            self, s_out, f, parallelism=parallelism, replicable=replicable
        )

    def correlate_events(
        self,
        s_out: str,
        l: int,
        f: Any,
        parallelism: int = 1,
        replicable: bool | None = None,
    ) -> "StreamHandle":
        """``correlate_events(self, s_out, l, f)`` on the owning pipeline."""
        return self._require_strata().correlate_events(
            self, s_out, l, f, parallelism=parallelism, replicable=replicable
        )

    def deliver(self, sink: "Sink | None" = None) -> "SinkHandle":
        """``deliver(self, sink)``: terminate the chain at the expert.

        Returns a :class:`SinkHandle` — still a stream handle (so the
        fluent chain type is closed under every verb) that also proxies
        the terminal sink's result surface (``.results``, ``.latency``).
        """
        strata = self._require_strata()
        sink_obj = strata.deliver(self, sink)
        return SinkHandle(
            str(self),
            strata=strata,
            node=self.node,
            module=self.module,
            schema=self.schema,
            sink=sink_obj,
        )

    def then(self, verb: str, *args: Any, **kwargs: Any) -> Any:
        """Apply any Strata verb with this stream as its input.

        ``handle.then("detect_event", "events", fn)`` is equivalent to
        ``strata.detect_event(handle, "events", fn)`` — useful for verbs
        chosen at runtime or added by subclasses.
        """
        strata = self._require_strata()
        method = getattr(strata, verb, None)
        if method is None:
            raise PipelineDefinitionError(f"Strata has no verb {verb!r}")
        return method(self, *args, **kwargs)

    # -- observability ------------------------------------------------------

    def metrics(self) -> "MetricsSnapshot":
        """This stream's slice of the pipeline metrics snapshot.

        Filters the full snapshot down to samples labelled with the
        producing operator. When the plan compiler fused the operator into
        a chain, member-level samples are exported under the original node
        name, so the filter still finds them.
        """
        snapshot = self._require_strata().metrics()
        if self.node is None:
            return snapshot
        return snapshot.filter(operator=self.node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{type(self).__name__}({str(self)!r}"]
        if self.node:
            parts.append(f", node={self.node!r}")
        if self.module:
            parts.append(f", module={self.module!r}")
        return "".join(parts) + ")"


class SinkHandle(StreamHandle):
    """A stream handle whose chain ended at the expert's sink.

    ``deliver`` used to be the one fluent verb that broke the chain type
    by returning a bare :class:`~repro.spe.sink.Sink`. A ``SinkHandle``
    keeps the stream-handle contract (name, node, module, ``metrics()``)
    and proxies the sink's delivery surface, so
    ``handle.deliver().results`` and ``strata.deploy()`` compose without
    reaching back into the pipeline for the sink object.
    """

    __slots__ = ("sink",)

    def __new__(
        cls,
        name: str,
        strata: "Strata | None" = None,
        node: str | None = None,
        module: str | None = None,
        schema: str | None = None,
        sink: "Sink | None" = None,
    ) -> "SinkHandle":
        self = super().__new__(cls, name, strata, node, module, schema)
        self.sink = sink
        return self

    def _require_sink(self) -> "Sink":
        if self.sink is None:
            raise PipelineDefinitionError(
                f"sink handle {str(self)!r} is not bound to a sink"
            )
        return self.sink

    @property
    def results(self) -> Any:
        """The delivered tuples (proxies the collecting sink)."""
        return self._require_sink().results

    @property
    def latency(self) -> Any:
        """The sink's latency recorder."""
        return self._require_sink().latency


install_camelcase_aliases(StreamHandle, ("detect_event", "correlate_events"))
