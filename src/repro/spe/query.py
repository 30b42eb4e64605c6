"""Continuous queries: directed acyclic graphs of sources, operators, sinks.

A :class:`Query` is assembled declaratively (``add_source`` /
``add_operator`` / ``add_sink`` naming upstream nodes), validated, and then
*built*: building materializes exactly the declared graph, one node per
declared vertex and one :class:`~repro.spe.stream.Stream` of the query's
capacity per (upstream node, downstream input) edge.

A query is logical. How many replicas a keyed stage runs with is the
physical plan's decision (:func:`repro.spe.plan.compile_plan`); a stage
declared with a factory, a ``key_fn`` and ``replicable=True`` is what that
pass may clone behind a hash router.
"""

from __future__ import annotations

from typing import Callable, Hashable

from .errors import QueryValidationError
from .operators.base import Operator
from .operators.router import HashRouter
from .sink import Sink
from .source import Source
from .stream import Stream
from .tuples import StreamTuple

KeyFunction = Callable[[StreamTuple], Hashable]
OperatorFactory = Callable[[], Operator]


class Node:
    """A materialized query-graph vertex with its connecting streams.

    ``base_name`` is the *logical* name a node snapshots/restores under:
    replicas of a replicated stage share the base name of the stage they
    clone, and fused nodes (see :mod:`repro.spe.plan`) keep each
    constituent's base name, so recovery manifests stay portable across
    plan shapes. ``factory``/``key_fn``/``replicable`` are plan-compiler
    metadata: a node the replication pass may clone behind a hash router.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        source: Source | None = None,
        operator: Operator | None = None,
        sink: Sink | None = None,
        router: HashRouter | None = None,
        base_name: str | None = None,
    ) -> None:
        self.name = name
        self.kind = kind  # "source" | "operator" | "sink"
        self.source = source
        self.operator = operator
        self.sink = sink
        self.router = router  # non-None => hash-route outputs instead of broadcast
        self.base_name = base_name if base_name is not None else name
        self.factory: OperatorFactory | None = None
        self.key_fn: KeyFunction | None = None
        self.replicable = False
        # Set on router nodes of keyed-replicated groups: the recipe the
        # elastic controller uses to rebuild the group at a new replica
        # count (see repro.spe.plan.ReplicaGroupMeta).
        self.rescale_meta = None
        self.inputs: list[Stream] = []
        self.outputs: list[Stream] = []

    def route(self, t: StreamTuple) -> list[Stream]:
        """Streams this tuple should be written to."""
        if self.router is None:
            return self.outputs
        return [self.outputs[self.router.route(t)]]

    def checkpoint_names(self) -> list[str]:
        """Names this node snapshots under (fused nodes: one per part)."""
        if self.kind == "operator" and hasattr(self.operator, "snapshot_parts"):
            return list(self.operator.part_names())
        return [self.name]

    def restore_state_for(self, name: str, state: dict) -> bool:
        """Restore manifest entry ``name`` into this node if it covers it.

        Matches the exact node name, the logical ``base_name`` (so a
        manifest from an unreplicated run restores into every replica),
        or any constituent of a fused node. Returns True on a match.
        """
        if self.kind == "source":
            return False
        if self.kind == "sink":
            if name not in (self.name, self.base_name):
                return False
            self.sink.restore_state(state)
            return True
        if hasattr(self.operator, "restore_part"):
            return self.operator.restore_part(name, state)
        if name not in (self.name, self.base_name):
            return False
        self.operator.restore_state(state)
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"Node({self.name!r}, {self.kind})"


class _Declared:
    """One user-declared vertex, before materialization."""

    def __init__(
        self,
        name: str,
        kind: str,
        upstreams: list[str],
        source: Source | None = None,
        operator: Operator | None = None,
        factory: OperatorFactory | None = None,
        sink: Sink | None = None,
        key_fn: KeyFunction | None = None,
        replicable: bool = False,
    ) -> None:
        self.name = name
        self.kind = kind
        self.upstreams = upstreams
        self.source = source
        self.operator = operator
        self.factory = factory
        self.sink = sink
        self.key_fn = key_fn
        self.replicable = replicable


class Query:
    """Declarative builder for one continuous query."""

    def __init__(self, name: str = "query", default_capacity: int = 10_000) -> None:
        self.name = name
        self._default_capacity = default_capacity
        self._declared: dict[str, _Declared] = {}
        self._order: list[str] = []

    # -- declaration -------------------------------------------------------

    def _declare(self, decl: _Declared) -> None:
        if decl.name in self._declared:
            raise QueryValidationError(f"duplicate node name {decl.name!r}")
        for upstream in decl.upstreams:
            if upstream not in self._declared:
                raise QueryValidationError(
                    f"node {decl.name!r} references unknown upstream {upstream!r}"
                )
        self._declared[decl.name] = decl
        self._order.append(decl.name)

    def add_source(self, name: str, source: Source) -> "Query":
        """Register a tuple producer."""
        self._declare(_Declared(name, "source", [], source=source))
        return self

    def add_operator(
        self,
        name: str,
        operator: Operator | OperatorFactory,
        upstreams: list[str] | str,
        key_fn: KeyFunction | None = None,
        replicable: bool = False,
    ) -> "Query":
        """Register an operator consuming from ``upstreams``.

        ``operator`` is an instance or a zero-argument factory.
        ``replicable=True`` (requires a factory, so each replica gets
        independent state) marks the stage as safe for the plan compiler's
        replication pass: its state is keyed by ``key_fn`` so disjoint key
        ranges can be processed by independent replicas behind a hash
        router.
        """
        if isinstance(upstreams, str):
            upstreams = [upstreams]
        if replicable and isinstance(operator, Operator):
            raise QueryValidationError(
                "replicable operators need a factory (each replica needs its own state)"
            )
        decl = _Declared(
            name,
            "operator",
            list(upstreams),
            operator=operator if isinstance(operator, Operator) else None,
            factory=None if isinstance(operator, Operator) else operator,
            key_fn=key_fn,
            replicable=replicable,
        )
        self._declare(decl)
        return self

    def add_sink(self, name: str, sink: Sink, upstreams: list[str] | str) -> "Query":
        """Register a result consumer."""
        if isinstance(upstreams, str):
            upstreams = [upstreams]
        self._declare(_Declared(name, "sink", list(upstreams), sink=sink))
        return self

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check the declared graph is a sensible DAG."""
        if not self._declared:
            raise QueryValidationError("query has no nodes")
        kinds = {d.kind for d in self._declared.values()}
        if "source" not in kinds:
            raise QueryValidationError("query has no sources")
        if "sink" not in kinds:
            raise QueryValidationError("query has no sinks")
        # Declaration order already forbids forward references, hence cycles;
        # still verify expected input arity for multi-input operators.
        for decl in self._declared.values():
            if decl.kind != "operator":
                continue
            op = decl.operator if decl.operator is not None else decl.factory()
            if op.num_inputs != len(decl.upstreams):
                raise QueryValidationError(
                    f"operator {decl.name!r} expects {op.num_inputs} inputs, "
                    f"got {len(decl.upstreams)} upstreams"
                )
        # every non-sink node must be consumed by someone
        consumed = {u for d in self._declared.values() for u in d.upstreams}
        for decl in self._declared.values():
            if decl.kind != "sink" and decl.name not in consumed:
                raise QueryValidationError(f"node {decl.name!r} has no consumer")

    # -- materialization -----------------------------------------------------

    def build(self) -> list[Node]:
        """Materialize nodes and streams; returns nodes in topological order."""
        self.validate()
        nodes: list[Node] = []
        by_name: dict[str, Node] = {}
        for name in self._order:
            decl = self._declared[name]
            if decl.kind == "source":
                node = Node(name, "source", source=decl.source)
            elif decl.kind == "operator":
                op = decl.operator if decl.operator is not None else decl.factory()
                node = Node(name, "operator", operator=op)
                if decl.factory is not None:
                    node.factory = decl.factory
                    node.key_fn = decl.key_fn
                    node.replicable = decl.replicable
            else:
                node = Node(name, "sink", sink=decl.sink)
            for upstream in decl.upstreams:
                stream = Stream(f"{upstream}->{name}", self._default_capacity)
                by_name[upstream].outputs.append(stream)
                node.inputs.append(stream)
            nodes.append(node)
            by_name[name] = node
        return nodes
