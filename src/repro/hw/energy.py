"""Node power/energy model.

Standard linear-in-utilisation server model with a cubic frequency term
for the dynamic part (P_dyn ~ C V^2 f, V ~ f):

    P = P_idle + (P_max - P_idle) * util * (f / f_max)^2

Only used for the placement study's energy projection (§IV-C: 7 of 22
nodes can be shut down) and the energy-perspective benches; the
controller itself never reads power.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.nodespecs import NodeSpec


@dataclass(frozen=True)
class PowerModel:
    """Static power curve of one node."""

    idle_w: float
    max_w: float
    fmax_mhz: float

    def __post_init__(self) -> None:
        if not 0 <= self.idle_w <= self.max_w:
            raise ValueError("need 0 <= idle_w <= max_w")
        if self.fmax_mhz <= 0:
            raise ValueError("fmax must be positive")

    @classmethod
    def for_spec(cls, spec: NodeSpec) -> "PowerModel":
        return cls(idle_w=spec.idle_power_w, max_w=spec.max_power_w, fmax_mhz=spec.fmax_mhz)

    def power_w(self, utilisation: float, freq_mhz: float) -> float:
        """Instantaneous draw for a node-average utilisation and frequency."""
        if not 0.0 <= utilisation <= 1.0 + 1e-9:
            raise ValueError(f"utilisation out of [0, 1]: {utilisation}")
        if freq_mhz < 0:
            raise ValueError("negative frequency")
        rel_f = min(freq_mhz / self.fmax_mhz, 1.0)
        return self.idle_w + (self.max_w - self.idle_w) * min(utilisation, 1.0) * rel_f**2


class EnergyMeter:
    """Integrates a power model over simulation time."""

    def __init__(self, model: PowerModel) -> None:
        self.model = model
        self.energy_j: float = 0.0
        self.elapsed_s: float = 0.0

    def step(self, utilisation: float, freq_mhz: float, dt: float) -> float:
        """Accumulate ``dt`` seconds at the given operating point."""
        if dt < 0:
            raise ValueError("negative dt")
        p = self.model.power_w(utilisation, freq_mhz)
        self.energy_j += p * dt
        self.elapsed_s += dt
        return p

    @property
    def energy_wh(self) -> float:
        return self.energy_j / 3600.0
