"""Multi-host cluster: switched fabric, workload engine, metrics.

The paper stops at two workstations back-to-back; this package scales
the same building blocks out: N complete hosts on a VCI-routed
switched fabric (:mod:`repro.cluster.fabric`), driven by open- and
closed-loop client fleets (:mod:`repro.cluster.workloads`), observed
through one aggregated report with a cell-conservation invariant
(:mod:`repro.cluster.metrics`).  :mod:`repro.cluster.config` states a
whole run -- every ``repro cluster`` option -- as one value.
"""

from ..atm.switch import BACKPRESSURE_MODES
from .backpressure import CreditGate
from .config import ClusterConfig, ConfigError
from .fabric import FIRST_FLOW_VCI, Fabric, Flow, VciAllocator
from .metrics import ClusterReport, collect, merge_partials
from .sharded import ShardFabric, run_cluster_sharded
from .workloads import (
    PATTERNS, ClientResult, WorkloadResult, WorkloadSpec, client_rng,
    pattern_flows, run_workload, setup_workload, sweep_offered_load,
)

__all__ = [
    "Fabric", "Flow", "VciAllocator", "FIRST_FLOW_VCI",
    "CreditGate", "BACKPRESSURE_MODES",
    "ClusterReport", "collect",
    "ShardFabric", "run_cluster_sharded", "merge_partials",
    "PATTERNS", "WorkloadSpec", "WorkloadResult", "ClientResult",
    "pattern_flows", "client_rng", "run_workload", "setup_workload",
    "sweep_offered_load", "ClusterConfig", "ConfigError",
]
