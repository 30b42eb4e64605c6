"""repro.elastic — QoS-driven runtime rescaling and re-planning.

Adapts a live query without restarting it: a scoped aligned barrier
drains the target nodes, then replacements are spliced into the running
threaded scheduler — no lost or duplicated tuples. Two families of
mutation share that protocol:

* **rescaling** keyed-replicated operator groups (state re-sharded
  across the new replica count);
* **re-planning** fused linear chains — unfuse and fuse.

One policy, :class:`~repro.elastic.replan.CostModelPolicy`, decides both:
it returns the typed :data:`~repro.elastic.actions.AdaptationAction`
algebra the controller applies.
"""

from .actions import (
    AdaptationAction,
    ChainSignals,
    Fuse,
    GroupSignals,
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
from .replan import (
    AdaptiveChain,
    CostModelPolicy,
    ReplanConfig,
    discover_chains,
)

__all__ = [
    "AdaptationAction",
    "AdaptiveChain",
    "ChainSignals",
    "CostModelPolicy",
    "ElasticConfig",
    "ElasticController",
    "ElasticError",
    "ElasticGroup",
    "Fuse",
    "GroupSignals",
    "ReplanConfig",
    "Rescale",
    "Unfuse",
    "WorkloadView",
    "discover_chains",
    "discover_groups",
    "elastic_plan",
    "elastic_supervisor",
]
