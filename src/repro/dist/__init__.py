"""repro.dist — multi-process distributed runtime.

Cuts a built query DAG at its pub/sub connector edges into stages, runs
each stage in a forked worker process wired through a networked broker
(:mod:`repro.net`), and supervises the fleet: heartbeats, liveness,
bounded restarts that resume from each worker's last committed epoch
(:mod:`repro.dist.commits`), logs trimmed to those commits, and
aggregated per-worker metrics.
"""

from .coordinator import DistConfig, DistCoordinator, DistError
from .stages import StageSpec, assign_stages, cut_stages, render_stages
from .worker import WorkerProcess, load_pipeline, run_stage, run_worker_from_ref

__all__ = [
    "DistConfig",
    "DistCoordinator",
    "DistError",
    "StageSpec",
    "WorkerProcess",
    "assign_stages",
    "cut_stages",
    "load_pipeline",
    "render_stages",
    "run_stage",
    "run_worker_from_ref",
]
