"""Workload generators standing in for the Phoronix test suite.

The evaluation's two benchmarks are modelled by the work/demand
properties the paper's figures depend on, not by doing real compression:

* :class:`~repro.workloads.compress7zip.Compress7Zip` — full CPU demand
  with periodic synchronisation dips, 15 scored iterations (Figs 6-14);
* :class:`~repro.workloads.openssl_.OpenSSLSpeed` — steady saturating
  demand with a throughput score (Table V medium instances).

Synthetic generators and trace replay support the wider test/bench
surface.
"""

from repro.workloads.base import Workload, WorkloadScore, attach
from repro.workloads.compress7zip import Compress7Zip
from repro.workloads.openssl_ import OpenSSLSpeed
from repro.workloads.synthetic import (
    BurstyWorkload,
    ConstantWorkload,
    IdleWorkload,
    SineWorkload,
    StepWorkload,
)
from repro.workloads.trace import TraceWorkload
from repro.workloads.webserver import WebServerWorkload

__all__ = [
    "Workload",
    "WorkloadScore",
    "attach",
    "Compress7Zip",
    "OpenSSLSpeed",
    "ConstantWorkload",
    "StepWorkload",
    "SineWorkload",
    "BurstyWorkload",
    "IdleWorkload",
    "TraceWorkload",
    "WebServerWorkload",
]
