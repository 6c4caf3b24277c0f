"""``/proc/<tid>/stat`` emulation.

The controller reads field 39 (``processor``, 1-indexed per proc(5)) of
``/proc/<tid>/stat`` to learn which CPU core last ran a vCPU thread
(paper §III-B1), from which it looks up that core's current frequency.
The renderer below emits all 52 fields of the real format so a parser
written against proc(5) works unchanged — including the infamous comm
field, which is parenthesised and may itself contain spaces and
parentheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class ThreadStat:
    """The subset of per-thread state the simulation tracks."""

    tid: int
    comm: str = "CPU 0/KVM"
    state: str = "R"
    utime_ticks: int = 0
    stime_ticks: int = 0
    processor: int = 0

    def render(self) -> str:
        """Render the 52-field proc(5) stat line."""
        f = ["0"] * 52
        f[0] = str(self.tid)
        f[1] = f"({self.comm})"
        f[2] = self.state
        f[13] = str(self.utime_ticks)  # field 14: utime
        f[14] = str(self.stime_ticks)  # field 15: stime
        f[38] = str(self.processor)  # field 39: processor
        return " ".join(f) + "\n"


#: Kernel USER_HZ: CPU time in /proc is reported in 10 ms ticks.
USER_HZ: int = 100


class ProcFS:
    """Registry of simulated threads with a /proc-style read API."""

    def __init__(self) -> None:
        self._stats: Dict[int, ThreadStat] = {}
        self._next_tid = 1000

    def spawn(self, comm: str, processor: int = 0) -> int:
        """Create a thread and return its tid."""
        tid = self._next_tid
        self._next_tid += 1
        self._stats[tid] = ThreadStat(tid=tid, comm=comm, processor=processor)
        return tid

    def kill(self, tid: int) -> None:
        if tid not in self._stats:
            raise ProcessLookupError(f"no such thread: {tid}")
        del self._stats[tid]

    def exists(self, tid: int) -> bool:
        return tid in self._stats

    def stat(self, tid: int) -> ThreadStat:
        st = self._stats.get(tid)
        if st is None:
            raise ProcessLookupError(f"no such thread: {tid}")
        return st

    def read_stat(self, tid: int) -> str:
        """Read ``/proc/<tid>/stat`` content."""
        return self.stat(tid).render()

    def account(self, tid: int, cpu_seconds: float, processor: int) -> None:
        """Record one tick of a thread: CPU time and the core it last ran on.

        ``cpu_seconds`` is added to utime (in USER_HZ ticks) and
        ``processor`` becomes field 39, with one lookup of the thread.
        """
        st = self._stats.get(tid)
        if st is None:
            raise ProcessLookupError(f"no such thread: {tid}")
        if cpu_seconds < 0:
            raise ValueError("negative CPU time")
        st.utime_ticks += int(round(cpu_seconds * USER_HZ))
        st.processor = processor


def parse_stat_line(line: str) -> ThreadStat:
    """Parse a proc(5) stat line (handles parentheses in comm).

    This is the parsing a real userspace monitor must do: ``comm`` is
    delimited by the *last* ``)`` in the line, not the first whitespace.
    """
    open_idx = line.index("(")
    close_idx = line.rindex(")")
    tid = int(line[:open_idx].strip())
    comm = line[open_idx + 1 : close_idx]
    rest = line[close_idx + 1 :].split()
    # rest[0] is field 3 (state); field 39 (processor) is rest[36].
    if len(rest) < 37:
        raise ValueError(f"stat line too short: {line!r}")
    return ThreadStat(
        tid=tid,
        comm=comm,
        state=rest[0],
        utime_ticks=int(rest[11]),
        stime_ticks=int(rest[12]),
        processor=int(rest[36]),
    )
