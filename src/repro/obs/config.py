"""Observability configuration.

:class:`ObsConfig` is the frozen knob block a controller reads at
construction (``ControllerConfig.observability``).  It lives here — not
in :mod:`repro.core.config` — so the obs package stays importable
without the core package (mirroring how ``ResiliencePolicy`` is its own
leaf module): ``repro.core.config`` imports *this* module, never the
other way around.

Everything is off unless a config is attached: a controller built
without one carries ``obs = None`` and its tick path pays exactly one
``is None`` check, keeping report streams bit-identical to an
uninstrumented build (proved by ``tests/obs/test_transparency.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ObsConfig:
    """All knobs of the controller observability layer."""

    #: Emit the per-tick span tree (the tick root and its six stage
    #: spans; per-vCPU facts live in the ledger) into the in-memory
    #: ring (and ``out_dir/spans.jsonl`` when set).
    tracing: bool = True
    #: Record the per-``cpu.max``-write decision ledger (the causal
    #: chain behind every allocation; ``repro explain`` reads it).
    ledger: bool = True
    #: Flight recorder depth: how many fully-serialized ticks the
    #: black-box ring retains for crash dumps.  0 disables the recorder.
    flight_recorder_ticks: int = 64
    #: Directory for on-disk artefacts (``spans.jsonl``,
    #: ``ledger.jsonl``, flight dumps, Chrome trace export).  ``None``
    #: keeps everything in memory — crash dumps then land in the
    #: current working directory.
    out_dir: Optional[str] = None
    #: Spans retained by the in-memory ring sink.
    span_ring_size: int = 4096
    #: Ticks of ledger records retained in memory (the JSONL file, when
    #: ``out_dir`` is set, keeps everything).
    ledger_ring_ticks: int = 1024

    def __post_init__(self) -> None:
        if self.flight_recorder_ticks < 0:
            raise ValueError("flight_recorder_ticks must be >= 0")
        if self.span_ring_size < 1:
            raise ValueError("span_ring_size must be >= 1")
        if self.ledger_ring_ticks < 1:
            raise ValueError("ledger_ring_ticks must be >= 1")

    @property
    def enabled(self) -> bool:
        """True when any obs feature is on (the hub is worth building)."""
        return bool(self.tracing or self.ledger or self.flight_recorder_ticks)
