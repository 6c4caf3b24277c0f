"""The paper's contribution: the virtual frequency controller.

Six-stage feedback loop (paper Fig. 2), triggered every ``p`` seconds:

1. :mod:`repro.core.backend`   — read vCPU consumption + estimate vfreq
2. :mod:`repro.core.estimator` — predict upcoming utilisation (Eq. 3)
3. :mod:`repro.core.credits`   — credits (Eq. 4) + base capping (Eq. 5)
4. :mod:`repro.core.auction`   — market (Eq. 6) + cycle auction (Alg. 1)
5. :mod:`repro.core.distribute`— free distribution of leftovers
6. ``core/enforcer.py``       — the ``cpu.max`` quota rule

The controller only touches kernel surfaces (cgroupfs, /proc, sysfs), so
it runs unchanged against any host exposing those files.
"""

from repro.core.api import Controller
from repro.core.backend import BackendStats, HostBackend, SampleBatch, VCpuSample
from repro.core.config import ControllerConfig
from repro.core.units import cycles_per_period, guaranteed_cycles, cycles_to_mhz, mhz_to_cycles
from repro.core.estimator import TrendEstimator, EstimatorDecision
from repro.core.credits import CreditLedger, apply_base_capping
from repro.core.auction import run_auction, AuctionOutcome
from repro.core.distribute import distribute_leftovers
from repro.core.controller import VirtualFrequencyController, ControllerReport
from repro.core.frame import DecisionFrame
from repro.core.resilience import DegradedVcpu, ResiliencePolicy, ResilienceStats
from repro.core.snapshot import snapshot, restore, to_json, from_json
from repro.core.soa import VcpuTable, TickView
from repro.core.metrics_export import (
    MetricsBuffer,
    render_backend_stats,
    render_billing,
    render_cluster,
    render_controller,
    render_fault_stats,
    render_node_manager,
    render_rebalance,
    render_report,
    render_resilience,
    render_span_seconds,
    render_stage_seconds,
)

__all__ = [
    "Controller",
    "HostBackend",
    "BackendStats",
    "SampleBatch",
    "ControllerConfig",
    "cycles_per_period",
    "guaranteed_cycles",
    "cycles_to_mhz",
    "mhz_to_cycles",
    "VCpuSample",
    "TrendEstimator",
    "EstimatorDecision",
    "CreditLedger",
    "apply_base_capping",
    "run_auction",
    "AuctionOutcome",
    "distribute_leftovers",
    "VirtualFrequencyController",
    "ControllerReport",
    "DecisionFrame",
    "ResiliencePolicy",
    "ResilienceStats",
    "DegradedVcpu",
    "snapshot",
    "restore",
    "to_json",
    "from_json",
    "VcpuTable",
    "TickView",
    "render_stage_seconds",
    "render_span_seconds",
    "render_cluster",
    "MetricsBuffer",
    "render_backend_stats",
    "render_billing",
    "render_controller",
    "render_fault_stats",
    "render_node_manager",
    "render_rebalance",
    "render_report",
    "render_resilience",
]
