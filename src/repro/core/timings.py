"""Per-stage wall time of one controller iteration.

A leaf module (no ``repro`` imports), so the observability planes can
import the stage names at module load without an import cycle through
the controller.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Paper stage order (Fig. 2), matching ``StageTimings`` attributes.
STAGES = ("monitor", "estimate", "credits", "auction", "distribute", "enforce")


@dataclass
class StageTimings:
    """Wall-clock seconds spent per stage in one iteration (§IV-A2
    reports 5 ms total, 4 ms of it monitoring, for the C++ original).

    When a node manager runs a group of hosts through one
    :class:`~repro.core.bulk.BulkExecutor`, a stage is partly one array
    pass over the whole group.  Each host is then charged its own
    per-host work plus a share of the batched passes in proportion to
    its vCPU rows, so the hosts' timings of a stage still sum to that
    stage's wall time (the per-shard sums, the TSDB per-node deadline
    count and the benchmark's layer split all rely on this).  Such a
    split is the host's share of a simulated cluster's period, not what
    the host's own controller would spend alone.
    """

    monitor: float = 0.0
    estimate: float = 0.0
    credits: float = 0.0
    auction: float = 0.0
    distribute: float = 0.0
    enforce: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.monitor
            + self.estimate
            + self.credits
            + self.auction
            + self.distribute
            + self.enforce
        )
