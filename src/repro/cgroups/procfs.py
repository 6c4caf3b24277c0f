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
from typing import Dict, Sequence

import numpy as np

from repro.cgroups.columns import USER_HZ, ThreadColumns


@dataclass
class ThreadStat:
    """One thread's stat fields, as rendered or parsed.

    :meth:`ProcFS.stat` reads one from the thread columns; changing it
    changes nothing in ``/proc``.
    """

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


class ProcFS:
    """Registry of simulated threads with a /proc-style read API.

    Per-thread counters live in :attr:`threads`, one row per live
    thread.  Every ``spawn`` and ``kill`` bumps :attr:`generation`, so
    a cache of :meth:`rows` knows when a row may have been reused.
    """

    def __init__(self) -> None:
        self.threads = ThreadColumns()
        self.generation = 0
        self._row: Dict[int, int] = {}
        self._comm: Dict[int, str] = {}
        self._next_tid = 1000

    def spawn(self, comm: str, processor: int = 0) -> int:
        """Create a thread and return its tid."""
        tid = self._next_tid
        self._next_tid += 1
        row = self.threads.alloc()
        self.threads.processor[row] = processor
        self._row[tid] = row
        self._comm[tid] = comm
        self.generation += 1
        return tid

    def kill(self, tid: int) -> None:
        row = self._row.pop(tid, None)
        if row is None:
            raise ProcessLookupError(f"no such thread: {tid}")
        del self._comm[tid]
        self.threads.release(row)
        self.generation += 1

    def exists(self, tid: int) -> bool:
        return tid in self._row

    def row(self, tid: int) -> int:
        """``tid``'s row in :attr:`threads`."""
        row = self._row.get(tid)
        if row is None:
            raise ProcessLookupError(f"no such thread: {tid}")
        return row

    def rows(self, tids: Sequence[int]) -> np.ndarray:
        """The rows of ``tids``; valid until :attr:`generation` moves."""
        row_of = self._row
        try:
            return np.array([row_of[t] for t in tids], dtype=np.intp)
        except KeyError as exc:
            raise ProcessLookupError(f"no such thread: {exc.args[0]}") from None

    def stat(self, tid: int) -> ThreadStat:
        row = self.row(tid)
        t = self.threads
        return ThreadStat(
            tid=tid,
            comm=self._comm[tid],
            utime_ticks=int(t.utime[row]),
            processor=int(t.processor[row]),
        )

    def read_stat(self, tid: int) -> str:
        """Read ``/proc/<tid>/stat`` content."""
        return self.stat(tid).render()

    def account(self, tid: int, cpu_seconds: float, processor: int) -> None:
        """Record one tick of one thread (:meth:`ThreadColumns.account`
        on its row): CPU time and the core it last ran on."""
        self.threads.account(
            np.array([self.row(tid)]), np.array([float(cpu_seconds)]),
            np.array([processor]),
        )


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
