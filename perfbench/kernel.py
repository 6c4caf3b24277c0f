"""Host-speed reference kernel and the normalisation it drives.

The benchmark runs on small shared hosts whose speed drifts in phases:
the same pure-Python loop timed back to back can take anywhere from
1x to 2x its fastest time.  Every timed interval is therefore bracketed
by a fixed reference kernel — a walk over a shuffled Python object
graph, string-keyed dict lookups, a sort and a NumPy pass, the same
instruction and memory mix as a control period — and reported as

    normalised = wall * R0 / R

where ``R`` is the mean kernel time measured just before and just after
the interval and ``R0`` is a nominal kernel duration frozen with the
benchmark.  On a host running at its nominal speed the normalised time
equals the wall time; when the host is twice as slow, both ``wall`` and
``R`` double and the ratio stays put.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Nominal kernel duration in seconds, frozen with the benchmark.  It
#: only scales the reported numbers; changing it rescales every
#: normalised time and must never happen in a change that claims a gain.
R0_S = 3.0e-3


class _Cell:
    __slots__ = ("value", "key", "next")


def _object_graph():
    """50k shuffled, linked slotted objects plus a path-keyed index."""
    rng = np.random.default_rng(12345)
    order = rng.permutation(50_000)
    cells = [_Cell() for _ in range(50_000)]
    for i, cell in enumerate(cells):
        cell.value = float(i)
        cell.key = i
        cell.next = cells[int(order[i])]
    by_path = {
        f"/machine.slice/vm{i}/vcpu{i % 4}": cells[i] for i in range(0, 50_000, 3)
    }
    return cells, by_path, list(by_path)[::2], rng.random(100_000)


_CELLS, _BY_PATH, _PATHS, _WIDE = _object_graph()


def reference_kernel() -> float:
    """The fixed unit of work (2-4 ms on a shared 2-core x86 cloud VM).

    What a control period does most, without any of the program's
    code: attribute reads along a shuffled object graph, string-keyed
    dict lookups, a sort and a NumPy pass over 100k floats.  Measured
    against the ``dense`` period over host phases that changed its
    speed 1.6x, period time scaled as ``R ** 1.08`` with this kernel
    and as ``R ** 1.26`` with a Python integer loop plus NumPy passes
    over 20k floats, which is why the kernel is not that simpler loop.
    """
    total = 0.0
    cell = _CELLS[0]
    for _ in range(12_000):
        total += cell.value
        cell = cell.next
    by_path = _BY_PATH
    for path in _PATHS:
        total += by_path[path].key
    total += float(np.sort(_WIDE[:20_000])[0])
    total += float(np.sqrt(_WIDE * 1.5 + 0.1).sum())
    return total


def kernel_seconds(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` back-to-back kernel runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def normalise(wall_s: float, r_before_s: float, r_after_s: float) -> float:
    """``wall * R0 / R`` with ``R`` the mean of the bracketing kernels."""
    r = 0.5 * (r_before_s + r_after_s)
    if r <= 0.0:
        raise ValueError("kernel time must be positive")
    return wall_s * R0_S / r


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), exclusive method."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100)
    return cuts[int(round(q)) - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 when constant)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def _kernel_helper(conn) -> None:
    """(helper process) Run one kernel per request; ``None`` stops it."""
    while True:
        repeats = conn.recv()
        if repeats is None:
            break
        conn.send(kernel_seconds(repeats))
    conn.close()


class HostClock:
    """Times intervals and keeps the kernel readings that normalise them.

    ``cores=2`` measures ``R`` for work spread over two processes (the
    ``fleet`` shards): a helper process runs the kernel at the same time
    as this one and the slower of the two readings counts, so losing a
    core to a neighbour shows up in ``R`` exactly as it does in the
    barrier tick.  Call :meth:`close` to stop the helper.
    """

    def __init__(self, cores: int = 1) -> None:
        self.r_samples: List[float] = []
        self._conn = None
        self._helper: Optional[multiprocessing.Process] = None
        if cores == 2:
            ctx = multiprocessing.get_context("fork")
            self._conn, child = ctx.Pipe()
            self._helper = ctx.Process(target=_kernel_helper, args=(child,), daemon=True)
            self._helper.start()
            child.close()
        elif cores != 1:
            raise ValueError("cores must be 1 or 2")

    def kernel(self, repeats: int = 1) -> float:
        if self._conn is None:
            r = kernel_seconds(repeats)
        else:
            self._conn.send(repeats)
            mine = kernel_seconds(repeats)
            r = max(mine, self._conn.recv())
        self.r_samples.append(r)
        return r

    def close(self) -> None:
        if self._helper is not None:
            self._conn.send(None)
            self._helper.join()
            self._conn.close()
            self._helper = None
            self._conn = None

    def summary(self) -> dict:
        """R median and IQR share over every kernel reading so far."""
        if not self.r_samples:
            return {"r_median_s": None, "r_iqr_ratio": None, "r_samples": 0}
        _, med, _ = quartiles(self.r_samples)
        return {
            "r_median_s": med,
            "r_iqr_ratio": spread(self.r_samples),
            "r_samples": len(self.r_samples),
        }
