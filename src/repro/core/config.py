"""Controller configuration.

The evaluation settings (paper §IV-A1): increase trigger 95 %, increase
factor 100 %, decrease trigger 50 %, decrease factor 5 %, period 1 s.

The paper spells factors two ways — Fig. 3 uses a multiplier ("increase
factor is 1.3") while §IV-A1 uses a percent delta ("increase factor ...
100 %").  :class:`ControllerConfig` stores *multipliers*; the
``from_percent`` constructor accepts the percent-delta spelling and the
defaults equal the evaluation configuration (2.0x up, 0.95x down).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.core.resilience import ResiliencePolicy
from repro.obs.config import ObsConfig


@dataclass(frozen=True)
class ControllerConfig:
    """All knobs of the virtual frequency controller."""

    #: Loop period ``p`` in seconds.
    period_s: float = 1.0
    #: History length ``n`` for the trend computation (iterations).
    history_len: int = 5
    #: Stage 2 — consumption above ``increase_trigger * capping`` arms an increase.
    increase_trigger: float = 0.95
    #: Stage 2 — capping multiplier when increasing (eval: +100 % => 2.0).
    increase_mult: float = 2.0
    #: Stage 2 — consumption below ``decrease_trigger * capping`` arms a decrease.
    decrease_trigger: float = 0.50
    #: Stage 2 — capping multiplier when decreasing (eval: -5 % => 0.95).
    decrease_mult: float = 0.95
    #: Stage 2 — |trend| below this fraction of a core counts as stable.
    trend_epsilon: float = 0.005
    #: Stage 4 — auction window: max cycles one VM buys per round, as a
    #: fraction of one core's period (prevents a rich VM draining the market).
    auction_window_frac: float = 0.01
    #: Stage 3 — optional cap on a VM's credit wallet (cycles); inf = unbounded.
    credit_cap: float = float("inf")
    #: Never cap a vCPU below this fraction of a core (kernel quota floor
    #: and a wake-up ramp for fully idle vCPUs).
    min_cap_frac: float = 0.01
    #: Stage 6 — cgroup enforcement period written to ``cpu.max``.
    enforcement_period_us: int = 100_000
    #: Disable stages 3-6 (configuration "A" runs monitoring only).
    control_enabled: bool = True
    #: Controller hot-path implementation: ``"bulk"`` runs stages 2-5
    #: on the structure-of-arrays fast path (:mod:`repro.core.soa`) with
    #: dirty-set incremental recompute and drives stages 1 and 6 through
    #: the backend's array interface (:meth:`~repro.core.backend.
    #: HostBackend.sample_all` / ``apply_caps``); ``"scalar"`` keeps the
    #: per-vCPU dict/object loops as the bit-identical oracle.  Same
    #: reports both ways, different speed.
    engine: str = "bulk"
    #: Use the paper-literal Eq. 3 (with S_n = n(n+1)/2) instead of the
    #: standard least-squares slope; kept for comparison, same sign.
    literal_trend: bool = False
    #: Auction shopping order: "credits" (Algorithm 1) or "frequency"
    #: (the paper's §V cache-aware extension — faster vCPUs first, so
    #: burst cycles concentrate on fewer, faster VMs).
    auction_priority: str = "credits"
    #: Always reserve each vCPU's full guarantee ``C_i`` instead of the
    #: paper's demand-gated Eq. 5 (``min(e, C_i)``).  Trades resource
    #: waste (idle guarantees never reach the market) for zero ramp-up
    #: SLA misses on bursty workloads — the trade-off the paper's design
    #: implicitly declined; quantified in bench_operator_study.py.
    reserve_guarantee: bool = False
    #: Degraded-mode defenses (retry, stale tolerance, guarantee
    #: fallback); ``None`` keeps the seed fail-fast behaviour.
    resilience: Optional[ResiliencePolicy] = None
    #: JSON fault plan to inject at the backend seam (``--fault-plan``);
    #: consumed by the scenario builder, not by the controller itself.
    fault_plan_path: Optional[str] = None
    #: Run the paper-equation invariant oracles (:mod:`repro.checking`)
    #: inline after every tick and raise on any violation.  Off by
    #: default: the oracles re-walk every sample in pure Python, which
    #: is fine for tests and fuzzing but not for the perf benchmarks.
    check_invariants: bool = False
    #: Observability: span tracing, decision ledger and flight recorder
    #: (:mod:`repro.obs`).  ``None`` attaches nothing — the tick path
    #: then pays exactly one ``is None`` check and the report stream is
    #: bit-identical either way (the hub works post hoc from reports).
    observability: Optional[ObsConfig] = None
    #: Where to persist periodic state snapshots (``--snapshot-path``).
    #: A fresh controller auto-restores from this file when it exists.
    snapshot_path: Optional[str] = None
    #: Snapshot cadence in controller ticks (used with snapshot_path).
    snapshot_every_ticks: int = 10

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.history_len < 2:
            raise ValueError("history_len must be >= 2 to define a trend")
        if not 0 < self.increase_trigger <= 1:
            raise ValueError("increase_trigger must be in (0, 1]")
        if self.increase_mult <= 1:
            raise ValueError("increase_mult must be > 1")
        if not 0 <= self.decrease_trigger < 1:
            raise ValueError("decrease_trigger must be in [0, 1)")
        if not 0 < self.decrease_mult < 1:
            raise ValueError("decrease_mult must be in (0, 1)")
        if self.decrease_trigger >= self.increase_trigger:
            raise ValueError("decrease_trigger must be below increase_trigger")
        if self.trend_epsilon < 0:
            raise ValueError("trend_epsilon must be >= 0")
        if not 0 < self.auction_window_frac <= 1:
            raise ValueError("auction_window_frac must be in (0, 1]")
        if self.credit_cap < 0:
            raise ValueError("credit_cap must be >= 0")
        if not 0 < self.min_cap_frac <= 1:
            raise ValueError("min_cap_frac must be in (0, 1]")
        if self.enforcement_period_us <= 0:
            raise ValueError("enforcement_period_us must be positive")
        if self.engine not in ("scalar", "bulk"):
            raise ValueError(
                f"engine must be 'scalar' or 'bulk', got {self.engine!r}"
            )
        if self.auction_priority not in ("credits", "frequency"):
            raise ValueError(
                f"auction_priority must be 'credits' or 'frequency', "
                f"got {self.auction_priority!r}"
            )
        if self.snapshot_every_ticks < 1:
            raise ValueError("snapshot_every_ticks must be >= 1")

    @classmethod
    def from_percent(
        cls,
        *,
        increase_trigger_pct: float = 95.0,
        increase_factor_pct: float = 100.0,
        decrease_trigger_pct: float = 50.0,
        decrease_factor_pct: float = 5.0,
        **kwargs,
    ) -> "ControllerConfig":
        """Build from the paper's percent spelling (§IV-A1 defaults)."""
        return cls(
            increase_trigger=increase_trigger_pct / 100.0,
            increase_mult=1.0 + increase_factor_pct / 100.0,
            decrease_trigger=decrease_trigger_pct / 100.0,
            decrease_mult=1.0 - decrease_factor_pct / 100.0,
            **kwargs,
        )

    @classmethod
    def paper_evaluation(cls, **overrides) -> "ControllerConfig":
        """The exact configuration used in the paper's evaluation."""
        return cls.from_percent(**overrides)

    def with_overrides(self, **overrides) -> "ControllerConfig":
        """A validated copy with the given knobs replaced.

        The canonical way to derive a configuration from flags or an
        API request: the original is never mutated (the dataclass is
        frozen anyway) and the copy passes through ``__post_init__``
        validation, so an inconsistent override set fails loudly.

        >>> cfg = ControllerConfig.paper_evaluation()
        >>> cfg.with_overrides(period_s=2.0).period_s
        2.0
        """
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(
                f"unknown config field(s): {', '.join(sorted(unknown))}"
            )
        return replace(self, **overrides)

    def monitoring_only(self) -> "ControllerConfig":
        """Configuration A: same settings, capping disabled."""
        return self.with_overrides(control_enabled=False)
