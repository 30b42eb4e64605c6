"""Query-plan compiler: rewrite a materialized node graph before scheduling.

The declarative :class:`~repro.spe.query.Query` builds a graph where every
operator owns a thread and every edge is a bounded queue with per-tuple
lock/condvar traffic. That is faithful to Liebre's execution model but
dominates end-to-end latency long before the analytics do. Native SPEs
close this gap with plan-level optimization — Flink's operator chaining,
Strider's runtime plan adaptation — and this module reproduces the same
idea with two passes over the *materialized* node list:

* **replication** — clone maximal runs of keyed, factory-built stages
  (``partition`` / ``detectEvent`` / ``correlateEvents``) N ways behind a
  hash router, merging through an explicit Union so every replica edge
  stays single-producer and checkpoint barriers align exactly;
* **fusion** — collapse linear chains of single-input/single-output
  operators into one :class:`FusedOperator` that executes by direct
  function composition: no intermediate stream, queue, or thread hop.

A compiled graph also moves whole runs through the remaining queues
(:mod:`repro.spe.scheduler`): an operator's output for one run leaves as
one :class:`~repro.spe.stream.TupleBatch` entry per destination, and a
consumer takes what is queued as one run. There is no batch size to set.

Fusion is checkpoint-transparent. A fused node aligns and forwards
barriers exactly like the chain head did, and snapshots composite state
*keyed by each constituent operator's original node name* (via
``snapshot_parts``), so the recovery manifest written by a fused run is
byte-compatible with one written by an unfused run — a checkpoint taken
under either plan shape restores into the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .errors import PlanError
from .operators.base import Operator
from .operators.router import HashRouter
from .operators.union import UnionOperator
from .query import KeyFunction, Node
from .stream import Stream
from .tuples import StreamTuple


@dataclass(frozen=True)
class PlanConfig:
    """Knobs for the plan compiler.

    A plan always fuses linear chains, and a fused chain with a
    block-capable member always runs it array-at-a-time
    (:func:`build_fused_node`); what a deployment sets is how wide the
    compiled plan runs.

    ``parallelism``  replica count for the keyed-replication pass
                     (1 = pass disabled).
    """

    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")

    @classmethod
    def resolve(cls, plan: "PlanConfig | bool | None") -> "PlanConfig | None":
        """Normalize the ``plan`` shorthand of user-facing APIs."""
        if plan is None or plan is False:
            return None
        if plan is True:
            return cls()
        if isinstance(plan, cls):
            return plan
        raise TypeError(f"plan must be bool, None or PlanConfig, got {plan!r}")

    def describe(self) -> str:
        return f"parallelism={self.parallelism}"


class _FusedPart:
    """One constituent operator of a fused chain, with its logical names."""

    __slots__ = ("name", "base_name", "operator")

    def __init__(self, name: str, base_name: str, operator: Operator) -> None:
        self.name = name
        self.base_name = base_name
        self.operator = operator


class FusedOperator(Operator):
    """A linear operator chain executed by direct function composition.

    ``process`` cascades each tuple through every constituent in order —
    the work four threads and three queues used to do happens as plain
    nested function calls. End-of-stream is cascaded stage by stage so
    flush ordering is identical to the unfused plan: when stage *i*
    closes, its ``on_input_closed``/``on_close`` output flows through
    stages *i+1..n* before stage *i+1* itself is closed.
    """

    num_inputs = 1

    #: how this chain executes tuples; read by explain()/obs/top
    execution_mode = "scalar"

    def __init__(self, name: str, parts: Iterable[_FusedPart]) -> None:
        super().__init__(name)
        self._parts = list(parts)
        if len(self._parts) < 2:
            raise ValueError("fusing fewer than two operators is pointless")
        for part in self._parts:
            if part.operator.num_inputs != 1:
                raise ValueError(
                    f"fused constituent {part.name!r} must be single-input"
                )
        # bound member methods, resolved once: _apply runs per stage per
        # run and attribute lookups there are measurable
        self._processes = [part.operator.process for part in self._parts]
        self._manys = [part.operator.process_many for part in self._parts]
        # per-constituent (tuples_in, tuples_out), populated only when
        # observability asks for member-level stats
        self._member_counts: list[list[int]] | None = None

    @property
    def parts(self) -> list[_FusedPart]:
        return list(self._parts)

    def part_names(self) -> list[str]:
        """Original node names, the keys fused state snapshots under."""
        return [part.name for part in self._parts]

    def _apply(self, tuples: list[StreamTuple], i: int) -> list[StreamTuple]:
        """Constituent ``i`` over one run of tuples.

        The one place a member meets a run, whichever class or path the
        run came through. A lone tuple skips the run method: every
        punctuation crosses a block group as a run of one, two dozen per
        Alg. 1 layer, and ``spe.chain_self_ms_per_item`` reads 8 % higher
        without the shortcut (EXPERIMENTS.md E19). Member stats are
        checked once per stage per run, never per tuple.
        """
        if len(tuples) == 1:
            out = self._processes[i](0, tuples[0])
        else:
            out = self._manys[i](tuples)
        if self._member_counts is not None:
            counts = self._member_counts[i]
            counts[0] += len(tuples)
            counts[1] += len(out)
        return out

    def _cascade(self, tuples: list[StreamTuple], start: int) -> list[StreamTuple]:
        """Push tuples through constituents ``start..n-1``."""
        for i in range(start, len(self._parts)):
            if not tuples:
                return tuples
            tuples = self._apply(tuples, i)
        return tuples

    def process(self, input_index: int, t: StreamTuple) -> list[StreamTuple]:
        return self._cascade([t], 0)

    def process_many(
        self, tuples: list[StreamTuple], input_index: int = 0
    ) -> list[StreamTuple]:
        """Cascade a whole run: each member handles it in one call.

        Equivalent to processing the run tuple by tuple and concatenating
        (each stage preserves its input order).
        """
        return self._cascade(tuples, 0)

    # -- member-level observability ---------------------------------------

    def enable_member_stats(self) -> None:
        """Count tuples in/out per constituent (repro.obs; idempotent).

        Takes effect from the next run; un-observed pipelines pay one
        ``None`` check per stage per run.
        """
        if self._member_counts is None:
            self._member_counts = [[0, 0] for _ in self._parts]

    def member_stats(self) -> dict[str, tuple[int, int]] | None:
        """Per-constituent (tuples_in, tuples_out), keyed by original name."""
        if self._member_counts is None:
            return None
        return {
            part.name: (counts[0], counts[1])
            for part, counts in zip(self._parts, self._member_counts)
        }

    def on_input_closed(self, input_index: int) -> list[StreamTuple]:
        # Only the chain head observes the node's real input closing; what
        # it releases still flows through the rest of the chain.
        return self._cascade(self._parts[0].operator.on_input_closed(0), 1)

    def on_close(self) -> list[StreamTuple]:
        out: list[StreamTuple] = []
        for i, part in enumerate(self._parts):
            if i > 0:
                # the upstream constituent just emitted its last tuple, so
                # this constituent's (single) input is now closed
                out.extend(self._cascade(part.operator.on_input_closed(0), i + 1))
            out.extend(self._cascade(part.operator.on_close(), i + 1))
        return out

    # -- checkpointing ----------------------------------------------------

    def snapshot_parts(self) -> dict[str, Any]:
        """Per-constituent snapshots keyed by original node name."""
        return {part.name: part.operator.snapshot_state() for part in self._parts}

    def restore_part(self, name: str, state: dict[str, Any]) -> bool:
        """Restore one manifest entry into the matching constituent(s)."""
        hit = False
        for part in self._parts:
            if name in (part.name, part.base_name):
                part.operator.restore_state(state)
                hit = True
        return hit

    def snapshot_state(self) -> dict[str, Any] | None:
        # Fused nodes checkpoint through snapshot_parts (one manifest entry
        # per constituent); the whole-node form exists for completeness.
        parts = {k: v for k, v in self.snapshot_parts().items() if v is not None}
        return parts or None

    def restore_state(self, state: dict[str, Any]) -> None:
        for name, part_state in state.items():
            if not self.restore_part(name, part_state):
                raise KeyError(f"no fused constituent named {name!r}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"FusedOperator({' + '.join(self.part_names())})"


#: Expected rows at a block group's widest point below which a run takes
#: the scalar cascade. A lone row that stays a lone row only pays the
#: tuple<->column conversion; anything wider takes the block path. Rows
#: are not a uniform unit of work, so no larger constant is right for
#: every chain (EXPERIMENTS.md E15): two cheap columnar members break
#: even near 16 rows, but one fan-out row is a specimen's whole cell
#: grid. Blocking a cheap narrow run wastes microseconds; sending a
#: fan-out run down the scalar cascade wastes milliseconds, so the
#: constant sits at the low end.
_BLOCK_MIN_ROWS = 2


class VectorizedFusedOperator(FusedOperator):
    """A fused chain whose kernel-compatible stages run array-at-a-time.

    Maximal groups of consecutive *block-capable* members execute
    block-to-block: a run of rows converts to a
    :class:`~repro.spe.columnar.ColumnarBlock` once at the group's entry,
    each member's ``process_block`` transforms it column-wise, and rows
    convert back to tuples only at the group's exit. Members without a
    block variant (and rows a member declares ineligible: punctuation,
    specimen-less tuples) run the scalar path at their exact stream
    position, so ordering, punctuation semantics, and every counter are
    identical to the scalar chain.

    How the input was framed never matters: a single tuple walks the same
    groups as a :class:`~repro.spe.stream.TupleBatch`, because what
    reaches a group is whatever the members before it emitted (one layer
    tuple is a dozen specimen rows by the time it leaves
    ``partition:spec``). Scalar-vs-block is decided **per run at each
    group's entry** from what the operator observes there: the run length
    times the group's measured row expansion (rows at its widest point per
    entry row — a fan-out member such as ``partition:cell`` turns one row
    into thousands). A run expected to stay below
    :data:`_BLOCK_MIN_ROWS` — one row through a non-expanding group —
    takes the scalar cascade, which also keeps measuring the expansion.

    Eligibility is decided at group entry; block kernels must preserve the
    eligibility invariants downstream stages rely on (they may filter or
    fan out rows but never clear a specimen or mint punctuation — both
    use-case kernels satisfy this by construction). Blocks additionally
    split on payload-schema changes, since a block holds one column set.

    Checkpointing, end-of-stream cascades, and member naming are inherited
    unchanged, so snapshots and recovery manifests written under this
    operator are byte-compatible with scalar fused and unfused plans.
    """

    execution_mode = "vectorized"

    def __init__(self, name: str, parts: Iterable[_FusedPart]) -> None:
        super().__init__(name, parts)
        self._block_capable = [part.operator.supports_block for part in self._parts]
        self._block_processes = [part.operator.process_block for part in self._parts]
        self._eligibles = [part.operator.block_eligible for part in self._parts]
        # the walk, resolved once: (i, j, is_block_group) over members i..j-1
        self._segments: list[tuple[int, int, bool]] = []
        i, n = 0, len(self._parts)
        while i < n:
            j = i + 1
            if self._block_capable[i]:
                while j < n and self._block_capable[j]:
                    j += 1
            self._segments.append((i, j, self._block_capable[i]))
            i = j
        # group start -> widest rows per entry row: the largest recent
        # observation, halved per run that stays below it. Mistaking a
        # fan-out run for a narrow one costs a scalar pass over thousands
        # of rows, the opposite mistake one block conversion, so the
        # estimate jumps up at once and only decays.
        self._expansion = {i: 1.0 for i, _j, is_block in self._segments if is_block}
        # columnar transport counters (repro.obs exports both): blocks
        # formed and the rows in them at entry
        self.blocks_in = 0
        self.block_rows_in = 0

    def member_modes(self) -> dict[str, str]:
        """Execution mode per constituent, keyed by original node name."""
        return {
            part.name: "block" if capable else "scalar"
            for part, capable in zip(self._parts, self._block_capable)
        }

    def process(self, input_index: int, t: StreamTuple) -> list[StreamTuple]:
        return self.process_many([t])

    def process_many(
        self, tuples: list[StreamTuple], input_index: int = 0
    ) -> list[StreamTuple]:
        items = list(tuples)
        for i, j, is_block in self._segments:
            if not items:
                return items
            if is_block:
                items = self._run_block_group(items, i, j)
            else:
                items = self._apply(items, i)
        return items

    def _run_block_group(
        self, items: list[StreamTuple], i: int, j: int
    ) -> list[StreamTuple]:
        """Stages ``i..j-1`` (all block-capable) over one run of tuples."""
        eligibles = self._eligibles[i:j]
        out: list[StreamTuple] = []
        extend = out.extend
        run: list[StreamTuple] = []
        run_keys = None
        for t in items:
            eligible = True
            for is_eligible in eligibles:
                if not is_eligible(t):
                    eligible = False
                    break
            if eligible:
                keys = t.payload.keys()
                if run and keys != run_keys:
                    self._flush_run(run, i, j, extend)
                    run = []
                run_keys = keys
                run.append(t)
                continue
            if run:
                self._flush_run(run, i, j, extend)
                run = []
            # ineligible row: scalar through these stages, in stream order
            self._scalar_run([t], i, j, extend)
        if run:
            self._flush_run(run, i, j, extend)
        return out

    def _flush_run(self, run: list[StreamTuple], i: int, j: int, extend) -> None:
        """One eligible same-schema run through group ``i..j-1``: pick the
        path, then fold what the run showed into the expansion estimate."""
        n = len(run)
        expansion = self._expansion[i]
        if n * expansion < _BLOCK_MIN_ROWS:
            widest = self._scalar_run(run, i, j, extend)
        else:
            widest = self._block_run(run, i, j, extend)
        self._expansion[i] = max(widest / n, expansion / 2.0)

    def _scalar_run(self, seq: list[StreamTuple], i: int, j: int, extend) -> int:
        """Scalar cascade through ``i..j-1``; returns the widest row count."""
        widest = len(seq)
        for k in range(i, j):
            seq = self._apply(seq, k)
            if not seq:
                return widest
            if len(seq) > widest:
                widest = len(seq)
        extend(seq)
        return widest

    def _block_run(self, run: list[StreamTuple], i: int, j: int, extend) -> int:
        """Block-to-block through ``i..j-1``; returns the widest row count."""
        from .columnar import ColumnarBlock

        block = ColumnarBlock.from_tuples(run)
        widest = len(run)
        member_counts = self._member_counts
        for k in range(i, j):
            if member_counts is not None:
                member_counts[k][0] += len(block)
            block = self._block_processes[k](block)
            rows = len(block)
            if member_counts is not None:
                member_counts[k][1] += rows
            if rows > widest:
                widest = rows
            if not rows:
                break
        else:
            extend(block.to_tuples())
        self.blocks_in += 1
        self.block_rows_in += len(run)
        return widest

    def __repr__(self) -> str:  # pragma: no cover
        return f"VectorizedFusedOperator({' + '.join(self.part_names())})"


# -- fusion pass -----------------------------------------------------------


def _consumer_map(nodes: list[Node]) -> dict[int, Node]:
    return {id(s): n for n in nodes for s in n.inputs}


def build_fused_node(name: str, chain: list[Node]) -> Node:
    """Wrap a linear run of operator nodes into one fused node.

    The one place a fused chain is built — by the fusion pass at compile
    time and by the elastic controller when it re-fuses a chain at
    runtime — and therefore the one place that decides which execution
    path its runs take: a chain with at least one block-capable member
    (``Operator.supports_block``) is a :class:`VectorizedFusedOperator`,
    a chain of scalar-only members a plain :class:`FusedOperator`. The
    members' *live* operator instances move into the fused node; the
    decision's reason is recorded on it (``mode_reason``) for ``explain()``.
    """
    parts = [_FusedPart(m.name, m.base_name, m.operator) for m in chain]
    scalar_members = [m.name for m in chain if not m.operator.supports_block]
    if len(scalar_members) < len(chain):
        operator: FusedOperator = VectorizedFusedOperator(name, parts)
        reason = (
            "scalar members: " + ", ".join(scalar_members) if scalar_members else None
        )
    else:
        operator = FusedOperator(name, parts)
        reason = "no member provides a block variant"
    fused = Node(name, "operator", operator=operator, router=chain[-1].router)
    fused.mode_reason = reason
    fused.inputs = list(chain[0].inputs)
    fused.outputs = list(chain[-1].outputs)
    return fused


def fuse_linear_chains(nodes: list[Node]) -> list[Node]:
    """Collapse linear operator chains into fused nodes.

    A chain grows from a single-input operator node across edges that are
    single-producer *and* single-consumer; it extends past a member only
    while that member broadcasts to exactly one output stream and does not
    hash-route (a router node may only terminate a chain, so the fused
    node keeps its routing table). Sources and sinks never fuse — they are
    the measurement boundaries for ingest/latency accounting. The router
    and merge of a rescalable replica group never fuse either: the elastic
    controller must be able to retire and resplice them by name. Each
    chain found is built by :func:`build_fused_node`.
    """
    protected: set[str] = set()
    for node in nodes:
        meta = getattr(node, "rescale_meta", None)
        if meta is not None:
            protected.add(node.name)
            protected.add(meta.merge_name)
    consumer_of = _consumer_map(nodes)
    absorbed: set[int] = set()
    fused_for_head: dict[int, Node] = {}
    for node in nodes:
        if id(node) in absorbed:
            continue
        if node.kind != "operator" or len(node.inputs) != 1:
            continue
        if node.name in protected:
            continue
        chain = [node]
        while True:
            last = chain[-1]
            if last.router is not None or len(last.outputs) != 1:
                break
            nxt = consumer_of.get(id(last.outputs[0]))
            if nxt is None or nxt.kind != "operator" or len(nxt.inputs) != 1:
                break
            if id(nxt) in absorbed or nxt.name in protected:
                break
            chain.append(nxt)
        if len(chain) < 2:
            continue
        for member in chain:
            absorbed.add(id(member))
        name = "fused[" + "+".join(m.name for m in chain) + "]"
        fused_for_head[id(chain[0])] = build_fused_node(name, chain)
    out: list[Node] = []
    for node in nodes:
        if id(node) in fused_for_head:
            out.append(fused_for_head[id(node)])
        elif id(node) not in absorbed:
            out.append(node)
    return out


# -- replication pass ------------------------------------------------------


class _RouterOperator(Operator):
    """Identity operator whose node routes outputs by key hash."""

    num_inputs = 1

    def process(self, input_index: int, t: StreamTuple) -> list[StreamTuple]:
        return [t]


@dataclass
class ReplicaGroupMeta:
    """Recipe for (re)building one keyed-replicated operator group.

    Captured when the replication pass first rewrites a group and attached
    to the router node (``node.rescale_meta``); the elastic controller
    replays the recipe at a different replica count mid-run. Capacities are
    remembered per member so respliced edges keep the original bounds.
    """

    members: list[str]
    factories: list[Callable[[], Operator]]
    key_fn: KeyFunction
    router_name: str
    merge_name: str
    member_capacities: list[int]
    out_capacity: int


def build_replicated_group(
    meta: ReplicaGroupMeta,
    parallelism: int,
    inputs: list[Stream],
    outputs: list[Stream],
) -> tuple[list[Node], dict[str, Operator]]:
    """Materialize one replica group at ``parallelism`` from its recipe.

    Returns the new nodes (router, clone chains, merge) plus the fresh
    clone operators keyed by shard name (``member::i``) so callers can
    restore re-sharded state into them *before* the chains are fused.
    """
    if parallelism < 1:
        raise PlanError("replica group parallelism must be >= 1")
    router = Node(
        meta.router_name,
        "operator",
        operator=_RouterOperator(meta.router_name),
        router=HashRouter(parallelism, meta.key_fn),
    )
    router.rescale_meta = meta
    router.inputs = list(inputs)
    merge = Node(
        meta.merge_name,
        "operator",
        operator=UnionOperator(meta.merge_name, num_inputs=parallelism),
    )
    merge.outputs = list(outputs)
    built: list[Node] = [router]
    clone_ops: dict[str, Operator] = {}
    for i in range(parallelism):
        prev = router
        for member_name, factory, capacity in zip(
            meta.members, meta.factories, meta.member_capacities
        ):
            operator = factory()
            clone = Node(
                f"{member_name}::{i}", "operator", operator=operator,
                base_name=member_name,
            )
            clone_ops[clone.name] = operator
            stream = Stream(f"{prev.name}->{clone.name}", capacity)
            prev.outputs.append(stream)
            clone.inputs.append(stream)
            built.append(clone)
            prev = clone
        stream = Stream(f"{prev.name}->{merge.name}", meta.out_capacity)
        prev.outputs.append(stream)
        merge.inputs.append(stream)
    built.append(merge)
    return built, clone_ops


def replicate_keyed_stages(
    nodes: list[Node], parallelism: int, wrap_single: bool = False
) -> list[Node]:
    """Replicate runs of keyed stages N ways behind a hash router.

    Finds maximal consecutive runs of ``replicable`` nodes (factory-built,
    keyed state) sharing one key function, connected by single-producer /
    single-consumer edges, and rewrites each run to::

        router --> run-clone 0 --> \\
               --> run-clone 1 -->  union --> (original downstream)
               --> run-clone N -->

    Each clone chain is built from fresh operators (every replica owns its
    own state) and keeps the original node names as ``base_name`` so
    recovery manifests keep restoring across plan shapes. The fusion pass
    then collapses every clone chain into a single node, so replication
    costs two extra hops (router, union) regardless of run length.

    With ``wrap_single`` the rewrite also runs at ``parallelism == 1``,
    wrapping each group in a one-way router/merge pair — the scaffolding
    the elastic controller needs to rescale the group later.
    """
    if parallelism <= 1 and not wrap_single:
        return nodes
    parallelism = max(1, parallelism)
    consumer_of = _consumer_map(nodes)
    grouped: set[int] = set()
    groups_by_head: dict[int, list[Node]] = {}
    for node in nodes:
        if id(node) in grouped:
            continue
        if not node.replicable or node.factory is None or len(node.inputs) != 1:
            continue
        group = [node]
        grouped.add(id(node))
        while True:
            last = group[-1]
            if last.router is not None or len(last.outputs) != 1:
                break
            nxt = consumer_of.get(id(last.outputs[0]))
            if (
                nxt is None
                or id(nxt) in grouped
                or not nxt.replicable
                or nxt.factory is None
                or len(nxt.inputs) != 1
                or nxt.key_fn is not group[0].key_fn
            ):
                break
            group.append(nxt)
            grouped.add(id(nxt))
        groups_by_head[id(node)] = group
    if not groups_by_head:
        return nodes

    member_ids = {id(m) for g in groups_by_head.values() for m in g}
    out: list[Node] = []
    for node in nodes:
        if id(node) in groups_by_head:
            out.extend(_replicate_group(groups_by_head[id(node)], parallelism))
        elif id(node) not in member_ids:
            out.append(node)
    return out


def _replicate_group(group: list[Node], parallelism: int) -> list[Node]:
    head, tail = group[0], group[-1]
    if head.key_fn is None:
        raise PlanError(
            f"cannot replicate keyed stage group headed by {head.name!r}: "
            f"the operator is marked replicable but declares no key "
            f"function; pass key_fn= when adding it to the query"
        )
    meta = ReplicaGroupMeta(
        members=[m.name for m in group],
        factories=[m.factory for m in group],
        key_fn=head.key_fn,
        router_name=f"{head.name}::router",
        merge_name=f"{tail.name}::merge",
        member_capacities=[m.inputs[0].capacity for m in group],
        out_capacity=tail.outputs[0].capacity,
    )
    built, _ = build_replicated_group(
        meta, parallelism, inputs=head.inputs, outputs=tail.outputs
    )
    return built


# -- driver ----------------------------------------------------------------


def compile_plan(
    nodes: list[Node], config: PlanConfig | None, force_replication: bool = False
) -> list[Node]:
    """Replicate, then fuse; ``None`` config returns the graph as-is.

    ``force_replication`` runs the replication pass even at
    ``parallelism == 1`` (wrapping groups in a one-way router/merge) so an
    elastic deployment can rescale them later.
    """
    if config is None:
        return nodes
    if config.parallelism > 1 or force_replication:
        nodes = replicate_keyed_stages(
            nodes, config.parallelism, wrap_single=force_replication
        )
    return fuse_linear_chains(nodes)


def render_plan(
    nodes: list[Node], title: str = "plan", config: PlanConfig | None = None
) -> str:
    """Human-readable plan listing, the output of ``explain()``."""
    lines = [f"== {title} =="]
    if config is not None:
        lines.append(f"   optimizer: {config.describe()}")
    else:
        lines.append("   optimizer: off")
    n_streams = 0
    for node in nodes:
        n_streams += len(node.outputs)
        if node.kind == "source":
            desc = f"source[{type(node.source).__name__}]"
        elif node.kind == "sink":
            desc = f"sink[{type(node.sink).__name__}]"
        elif isinstance(node.operator, FusedOperator):
            desc = "fused(" + " -> ".join(node.operator.part_names()) + ")"
        else:
            desc = type(node.operator).__name__
        if node.router is not None:
            desc += f" x{node.router.num_shards} by key-hash"
        line = f"  {node.name}  [{desc}]"
        if node.kind == "operator" and isinstance(node.operator, FusedOperator):
            line += f"  mode={node.operator.execution_mode}"
            reason = getattr(node, "mode_reason", None)
            if reason:
                line += f" ({reason})"
        if node.inputs:
            line += "  <- " + ", ".join(s.name for s in node.inputs)
        lines.append(line)
    fused_nodes = [
        n for n in nodes if n.kind == "operator" and isinstance(n.operator, FusedOperator)
    ]
    fused = len(fused_nodes)
    vectorized = sum(
        1 for n in fused_nodes if isinstance(n.operator, VectorizedFusedOperator)
    )
    summary = f"   {len(nodes)} nodes / {n_streams} streams"
    if fused:
        summary += f" ({fused} fused chain{'s' if fused != 1 else ''}"
        if vectorized:
            summary += f", {vectorized} vectorized"
        summary += ")"
    lines.append(summary)
    return "\n".join(lines)
