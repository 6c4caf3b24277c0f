"""CFS-like hierarchical fair-share scheduler with bandwidth control.

At the one-second granularity the paper's controller operates on, the
Linux Completely Fair Scheduler behaves as hierarchical *weighted max-min
fair sharing* of CPU time among cgroups, bounded by each cgroup's CFS
bandwidth quota.  The paper's own experiments (§IV-A2, experiments a/b)
demonstrate exactly this hierarchical property: CPU time is split fairly
between *VM cgroups*, not between vCPUs, which is what makes
configuration A favour the numerous small VMs.
"""

from repro.sched.fairshare import weighted_fair_share
from repro.sched.entity import SchedEntity
from repro.sched.cfs import CfsScheduler
from repro.sched.affinity import AffinityModel

__all__ = [
    "weighted_fair_share",
    "SchedEntity",
    "CfsScheduler",
    "AffinityModel",
]
