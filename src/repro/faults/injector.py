"""Fault injection at the kernel-surface seam.

:class:`FaultInjector` *is* a :class:`~repro.core.backend.HostBackend`
— it subclasses the backend and overrides its counted primitives, so
the controller runs against it completely unmodified
(every ``isinstance`` check and batching optimisation is inherited).
Each primitive consults the :class:`~repro.faults.plan.
FaultPlan` for the current tick and either perturbs the operation or
falls straight through to the real implementation.

**Empty-plan guarantee:** with no specs, every override short-circuits
to ``super()`` before touching the plan, so a wrapped controller
produces a bit-identical report stream and identical ``BackendStats``
(asserted in ``tests/faults/test_injector.py``).

Crash injection (``stage:monitor`` / ``stage:enforce``) raises
:class:`ControllerCrash`, which is deliberately *not* an ``OSError`` —
no tolerant backend path may absorb it.  It escapes ``tick()`` so the
node-manager isolation and the snapshot-restore recovery path get
exercised for real.
"""

from __future__ import annotations

import errno
from typing import Dict, List, Optional

from repro.cgroups.fs import CgroupFS
from repro.cgroups.procfs import ProcFS, parse_stat_line
from repro.cgroups.sysfs import CpuFreqSysFS
from repro.core.backend import DEFAULT_MACHINE_SLICE, HostBackend
from repro.faults.plan import FaultPlan
from repro.obs.logging import get_logger

log = get_logger("repro.faults")


class ControllerCrash(RuntimeError):
    """Injected controller death at a stage boundary.

    Not an ``OSError`` on purpose: resilience policies absorb kernel
    I/O errors, but a crash must propagate out of ``tick()`` so crash
    *recovery* (snapshot restore + node replacement) is what gets
    tested, not error swallowing.
    """


class FaultInjector(HostBackend):
    """A :class:`HostBackend` that injects faults from a seeded plan."""

    def __init__(
        self,
        plan: FaultPlan,
        fs: CgroupFS,
        procfs: Optional[ProcFS] = None,
        sysfs: Optional[CpuFreqSysFS] = None,
        *,
        machine_slice: str = DEFAULT_MACHINE_SLICE,
    ) -> None:
        super().__init__(fs, procfs, sysfs, machine_slice=machine_slice)
        self.plan = plan
        #: Count of fired faults by kind (exported to Prometheus).
        self.injected: Dict[str, int] = {}
        #: Last-served content per frozen-counter path.
        self._frozen: Dict[str, str] = {}
        #: Current controller iteration; advanced at each monitoring
        #: pass so spec tick windows line up with controller ticks.
        self.tick_index = -1

    def _fire(self, kind: str, target: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        log.debug(
            "fault fired: %s", kind,
            extra={"target": target, "tick": self.tick_index},
        )

    # -- counted primitives, perturbed -----------------------------------------

    def read_file(self, path: str) -> str:
        if not self.plan.specs:
            return super().read_file(path)
        spec = self.plan.draw("read_error", path, self.tick_index)
        if spec is not None:
            self._fire("read_error", path)
            raise spec.make_error(path)
        if any(s.kind == "freeze" and s.matches(path) for s in self.plan.specs):
            spec = self.plan.draw("freeze", path, self.tick_index)
            if spec is not None and path in self._frozen:
                self._fire("freeze", path)
                return self._frozen[path]
            content = super().read_file(path)
            self._frozen[path] = content
            return content
        return super().read_file(path)

    def listdir(self, path: str) -> List[str]:
        if not self.plan.specs:
            return super().listdir(path)
        spec = self.plan.draw("read_error", path, self.tick_index)
        if spec is not None:
            self._fire("read_error", path)
            raise spec.make_error(path)
        return super().listdir(path)

    def read_thread_stat(self, tid: int) -> str:
        if not self.plan.specs:
            return super().read_thread_stat(tid)
        target = f"tid:{tid}"
        spec = self.plan.draw("tid_vanish", target, self.tick_index)
        if spec is not None:
            self._fire("tid_vanish", target)
            raise ProcessLookupError(
                errno.ESRCH, f"injected thread churn on {target}"
            )
        spec = self.plan.draw("tid_reuse", target, self.tick_index)
        if spec is not None:
            # The tid now belongs to a different thread: same number,
            # foreign comm, parked on core 0.
            self._fire("tid_reuse", target)
            stat = parse_stat_line(super().read_thread_stat(tid))
            stat.comm = "not-a-vcpu"
            stat.processor = 0
            return stat.render()
        return super().read_thread_stat(tid)

    def core_freq_khz(self, core: int) -> int:
        if not self.plan.specs:
            return super().core_freq_khz(core)
        target = f"core:{core}"
        spec = self.plan.draw("freq_error", target, self.tick_index)
        if spec is not None:
            self._fire("freq_error", target)
            raise spec.make_error(target)
        return super().core_freq_khz(core)

    def write_file(self, path: str, content: str) -> None:
        if not self.plan.specs:
            return super().write_file(path, content)
        spec = self.plan.draw("write_error", path, self.tick_index)
        if spec is not None:
            # v1 quota/period pairs are two writes; failing either one
            # leaves the pair half-applied, exactly the hazard
            # write_cap_one's cache-drop defends against.
            self._fire("write_error", path)
            raise spec.make_error(path)
        return super().write_file(path, content)

    # -- batch entry points: crash boundaries and clock jitter -----------------
    #
    # The sample hook fires exactly once per ``sample_all`` batch, so
    # the tick clock never double-advances when the batch falls back to
    # the per-file scan internally.  The write hook fires once per
    # ``write_caps`` batch.

    def _begin_sample_batch(self, period_s: float) -> float:
        if not self.plan.specs:
            return period_s
        self.tick_index += 1
        spec = self.plan.draw("crash", "stage:monitor", self.tick_index)
        if spec is not None:
            self._fire("crash", "stage:monitor")
            raise ControllerCrash(
                f"injected crash at stage:monitor, tick {self.tick_index}"
            )
        spec = self.plan.draw("clock_jitter", "tick", self.tick_index)
        if spec is not None:
            self._fire("clock_jitter", "tick")
            period_s = period_s * (1.0 + spec.jitter_frac * self.plan.jitter_draw())
        return period_s

    def _begin_write_batch(self) -> None:
        if not self.plan.specs:
            return
        spec = self.plan.draw("crash", "stage:enforce", self.tick_index)
        if spec is not None:
            self._fire("crash", "stage:enforce")
            raise ControllerCrash(
                f"injected crash at stage:enforce, tick {self.tick_index}"
            )

    def _direct_io_ok(self) -> bool:
        # Faults inject at the per-file primitives; an armed plan must
        # force every batch through them.
        return not self.plan.specs
