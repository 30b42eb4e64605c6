"""Continuous queries: directed acyclic graphs of sources, operators, sinks.

A :class:`Query` is assembled declaratively (``add_source`` /
``add_operator`` / ``add_sink`` naming upstream nodes), validated, and then
*built*: building materializes one :class:`~repro.spe.stream.Stream` per
(upstream node, downstream input) edge and resolves operator parallelism.

Parallelism follows the paper's disjoint-analysis design (§4): an operator
declared with ``parallelism=N`` becomes a hash router plus N independent
replicas keyed by ``key_fn`` (default: ``(job, specimen, portion)``), whose
outputs merge into each downstream input stream.
"""

from __future__ import annotations

from typing import Callable, Hashable

from .errors import QueryValidationError
from .operators.base import Operator
from .operators.router import HashRouter, partition_key
from .sink import Sink
from .source import Source
from .stream import Stream
from .tuples import StreamTuple

KeyFunction = Callable[[StreamTuple], Hashable]
OperatorFactory = Callable[[], Operator]


class _RouterOperator(Operator):
    """Identity operator whose node routes outputs by key hash."""

    num_inputs = 1

    def __init__(self, name: str) -> None:
        super().__init__(name)

    def process(self, input_index: int, t: StreamTuple) -> list[StreamTuple]:
        return [t]


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
        parallelism: int = 1,
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
        self.parallelism = parallelism
        self.key_fn = key_fn
        self.replicable = replicable


class Query:
    """Declarative builder for one continuous query."""

    def __init__(self, name: str = "query", default_capacity: int | None = 10_000) -> None:
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
        parallelism: int = 1,
        key_fn: KeyFunction | None = None,
        replicable: bool = False,
    ) -> "Query":
        """Register an operator consuming from ``upstreams``.

        With ``parallelism > 1`` pass a zero-argument *factory* so each
        replica gets independent state; a bare instance is accepted only
        for ``parallelism == 1``. ``replicable=True`` (requires a factory)
        marks the stage as safe for the plan compiler's replication pass:
        its state is keyed by ``key_fn`` so disjoint key ranges can be
        processed by independent replicas behind a hash router.
        """
        if isinstance(upstreams, str):
            upstreams = [upstreams]
        if parallelism < 1:
            raise QueryValidationError("parallelism must be >= 1")
        if parallelism > 1 and isinstance(operator, Operator):
            raise QueryValidationError(
                "parallel operators need a factory (each replica needs its own state)"
            )
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
            parallelism=parallelism,
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

    def build(self, capacity: int | None = None) -> list[Node]:
        """Materialize nodes and streams; returns nodes in topological order."""
        self.validate()
        if capacity is None:
            capacity = self._default_capacity
        nodes: list[Node] = []
        # declared name -> list of terminal nodes whose outputs carry its stream
        producers: dict[str, list[Node]] = {}
        for name in self._order:
            decl = self._declared[name]
            if decl.kind == "source":
                node = Node(name, "source", source=decl.source)
                nodes.append(node)
                producers[name] = [node]
            elif decl.kind == "operator":
                built = self._build_operator(decl, producers, nodes, capacity)
                producers[name] = built
            else:
                node = Node(name, "sink", sink=decl.sink)
                nodes.append(node)
                self._connect(decl.upstreams, node, producers, capacity)
        return nodes

    def _build_operator(
        self,
        decl: _Declared,
        producers: dict[str, list[Node]],
        nodes: list[Node],
        capacity: int | None,
    ) -> list[Node]:
        if decl.parallelism == 1:
            op = decl.operator if decl.operator is not None else decl.factory()
            node = Node(decl.name, "operator", operator=op)
            if decl.factory is not None:
                node.factory = decl.factory
                node.key_fn = decl.key_fn
                node.replicable = decl.replicable
            nodes.append(node)
            self._connect(decl.upstreams, node, producers, capacity)
            return [node]
        # parallel: router -> N replicas -> union merge, from the same
        # recipe the plan compiler's replication pass records, so
        # declaration-parallel groups are rescalable too. The explicit Union
        # keeps every replica edge single-producer, so checkpoint barriers
        # align exactly downstream of the replicated stage.
        from .plan import ReplicaGroupMeta, build_replicated_group  # plan imports query

        if len(decl.upstreams) != 1:
            raise QueryValidationError(
                f"parallel operator {decl.name!r} must be single-input "
                f"(got {len(decl.upstreams)} upstreams)"
            )
        meta = ReplicaGroupMeta(
            members=[decl.name],
            factories=[decl.factory],
            key_fn=decl.key_fn or partition_key,
            router_name=f"{decl.name}::router",
            merge_name=f"{decl.name}::merge",
            member_capacities=[_cap(capacity)],
            out_capacity=_cap(capacity),
        )
        built, _ = build_replicated_group(meta, decl.parallelism, [], [])
        self._connect(decl.upstreams, built[0], producers, capacity)
        nodes.extend(built)
        return [built[-1]]

    @staticmethod
    def _connect(
        upstreams: list[str],
        node: Node,
        producers: dict[str, list[Node]],
        capacity: int | None,
    ) -> None:
        for upstream_name in upstreams:
            ups = producers[upstream_name]
            stream = Stream(f"{upstream_name}->{node.name}", _cap(capacity))
            stream.set_num_producers(len(ups))
            for up in ups:
                up.outputs.append(stream)
            node.inputs.append(stream)


def _cap(capacity: int | None) -> int:
    # "Unbounded" capacity for the synchronous scheduler: a single-threaded
    # drain can never block on put, so use a huge bound instead of a real
    # infinity to keep the Stream invariants simple.
    return capacity if capacity is not None else 2**31
