"""Per-core DVFS frequency model.

A schedutil-like governor: each core's target frequency grows with its
utilisation (with the kernel's 1.25x headroom factor) and is clamped to
``[fmin, fmax]``; the actual frequency tracks the target with first-order
inertia plus a small gaussian jitter whose magnitude is a property of the
CPU (paper: 16-37 MHz variance on the Xeon node, 88-150 MHz on the EPYC).

The property the paper's frequency-estimation shortcut relies on —
*"under load, all cores run at approximately the same speed"* — emerges
naturally: saturated cores all sit at ``fmax +- jitter``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

#: schedutil: next_freq = 1.25 * max_freq * util.
GOVERNOR_HEADROOM: float = 1.25

#: Fraction of the gap to the target closed per second (governor latency).
TRACKING_RATE: float = 8.0


class DvfsModel:
    """Frequency dynamics for all cores of one node.

    Per-core frequencies are a list of floats and :meth:`step` makes one
    pass per frequency domain: a host has 4-64 cores, where a NumPy
    call's fixed cost outweighs its arithmetic.  Every core of a domain
    starts at ``fmin`` and receives the same updates, so one value per
    domain is computed and copied to its cores.  Cross-core reductions
    (:meth:`mean_mhz`, :meth:`std_mhz`) stay NumPy reductions: NumPy
    sums eight or more values pairwise, and a sequential sum would
    differ in the last bits.
    """

    def __init__(
        self,
        num_cpus: int,
        fmax_mhz: float,
        fmin_mhz: float,
        jitter_mhz: float = 0.0,
        seed: int = 0,
        domain_size: int = 1,
    ) -> None:
        if num_cpus <= 0:
            raise ValueError("num_cpus must be positive")
        if not 0 < fmin_mhz <= fmax_mhz:
            raise ValueError("need 0 < fmin <= fmax")
        if jitter_mhz < 0:
            raise ValueError("jitter must be >= 0")
        if domain_size <= 0 or num_cpus % domain_size != 0:
            raise ValueError(
                f"domain_size must divide num_cpus ({num_cpus}), got {domain_size}"
            )
        self.num_cpus = num_cpus
        self.fmax_mhz = fmax_mhz
        self.fmin_mhz = fmin_mhz
        self.jitter_mhz = jitter_mhz
        self.domain_size = domain_size
        self._rng = np.random.default_rng(seed)
        self._freqs: List[float] = [float(fmin_mhz)] * num_cpus
        # alpha = 1 - exp(-TRACKING_RATE * dt), cached for the last dt.
        self._alpha_dt: Optional[float] = None
        self._alpha = 0.0

    @property
    def freqs_mhz(self) -> np.ndarray:
        """Current per-core frequencies (a read-only array)."""
        freqs = np.array(self._freqs)
        freqs.flags.writeable = False
        return freqs

    def freqs_khz(self) -> List[float]:
        return [f * 1000.0 for f in self._freqs]

    def step(self, core_utilisation: Sequence[float], dt: float) -> None:
        """Advance one tick given per-core utilisation in [0, 1]."""
        util = core_utilisation
        n, ds = self.num_cpus, self.domain_size
        if len(util) != n:
            raise ValueError(f"expected {n} utilisations, got {len(util)}")
        if min(util) < -1e-9 or max(util) > 1.0 + 1e-9:
            raise ValueError("core utilisation must be within [0, 1]")
        if dt != self._alpha_dt:
            self._alpha = float(1.0 - np.exp(-TRACKING_RATE * dt))
            self._alpha_dt = dt
        alpha = self._alpha
        lo, hi = float(self.fmin_mhz), float(self.fmax_mhz)
        headroom_mhz = GOVERNOR_HEADROOM * hi
        # Cores in one DVFS domain share a clock; the governor picks the
        # domain frequency for its *hottest* core (as Zen does per CCX),
        # so a single busy core drags its siblings up.
        peaks = util if ds == 1 else [max(util[i : i + ds]) for i in range(0, n, ds)]
        jitter = self.jitter_mhz > 0
        if jitter:
            noise = self._rng.normal(0.0, self.jitter_mhz, n // ds).tolist()
            spread = math.sqrt(min(dt, 1.0))
        else:
            noise = [0.0] * (n // ds)
        out: List[float] = []
        for u, f, e in zip(peaks, self._freqs[::ds], noise):
            # Clipping u to [0, 1] first would change nothing: the
            # target is clipped to [fmin, fmax] and fmin > 0.
            target = headroom_mhz * u
            target = lo if target < lo else (hi if target > hi else target)
            f += alpha * (target - f)
            if jitter:
                f += e * spread
                f = lo if f < lo else (hi if f > hi else f)
            out.append(f)
        if ds > 1:
            freqs = [0.0] * n
            for j in range(ds):
                freqs[j::ds] = out
            out = freqs
        self._freqs = out

    def mean_mhz(self) -> float:
        # np.mean's own reduction and division, without its wrapper.
        return float(np.add.reduce(self._freqs)) / self.num_cpus

    def std_mhz(self) -> float:
        """Cross-core frequency spread (the paper's 'average variance')."""
        return float(np.std(self._freqs))
