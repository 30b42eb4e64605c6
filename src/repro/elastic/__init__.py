"""repro.elastic — QoS-driven runtime rescaling and re-planning.

Adapts a live query without restarting it: a scoped aligned barrier
drains the target nodes, then replacements are spliced into the running
threaded scheduler — no lost or duplicated tuples. Two families of
mutation share that protocol:

* **rescaling** keyed-replicated operator groups (state re-sharded
  across the new replica count);
* **re-planning** fused linear chains — unfuse/fuse, and dist-worker
  stage migration — driven by the typed
  :data:`~repro.elastic.actions.AdaptationAction` algebra returned by an
  :class:`~repro.elastic.actions.AdaptationPolicy` (default:
  :class:`~repro.elastic.replan.CostModelPolicy`, which takes a
  3-argument :class:`~repro.elastic.policy.ScalePolicy` for the replica
  counts: ``CostModelPolicy(scale=...)``).
"""

from .actions import (
    AdaptationAction,
    AdaptationPolicy,
    ChainSignals,
    Fuse,
    Migrate,
    NoOp,
    Rescale,
    Unfuse,
    WorkloadView,
)
from .config import ElasticConfig, elastic_plan
from .controller import (
    ElasticController,
    ElasticError,
    ElasticGroup,
    discover_groups,
    elastic_supervisor,
)
from .policy import GroupSignals, HysteresisPolicy, ScalePolicy
from .replan import (
    AdaptiveChain,
    CostModelPolicy,
    ReplanConfig,
    discover_chains,
    plan_migration,
)
from .reshard import merge_keyed, split_keyed, split_scalar

__all__ = [
    "AdaptationAction",
    "AdaptationPolicy",
    "AdaptiveChain",
    "ChainSignals",
    "CostModelPolicy",
    "ElasticConfig",
    "ElasticController",
    "ElasticError",
    "ElasticGroup",
    "Fuse",
    "GroupSignals",
    "HysteresisPolicy",
    "Migrate",
    "NoOp",
    "ReplanConfig",
    "Rescale",
    "ScalePolicy",
    "Unfuse",
    "WorkloadView",
    "discover_chains",
    "discover_groups",
    "elastic_plan",
    "elastic_supervisor",
    "merge_keyed",
    "plan_migration",
    "split_keyed",
    "split_scalar",
]
