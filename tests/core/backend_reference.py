"""The seed port's kernel-surface access pattern, as a test reference.

:class:`SeedBackend` is a :class:`~repro.core.backend.HostBackend`
that batches nothing: every monitoring pass walks the machine slice
afresh (one ``readdir`` per VM), reads ``cgroup.threads`` (v1:
``tasks``) for every vCPU, reads ``scaling_cur_freq`` once per vCPU
with no per-core dedup, and every cap write is issued even when the
quota is already in place.  Its counters are those of the seed, so the
backend tests and ``benchmarks/bench_backend_batching.py`` measure
what the batched backend saves against it, on the same values.
"""

from __future__ import annotations

from typing import List

from repro.core.backend import HostBackend, SampleBatch, VCpuSample


class SeedBackend(HostBackend):
    """A :class:`HostBackend` with the seed's per-file access pattern."""

    def read_vcpu_samples(self, period_s: float = 1.0) -> List[VCpuSample]:
        """One monitoring pass as a list, through a fresh walk."""
        period_s = self._begin_sample_batch(period_s)
        try:
            return self._seed_walk(period_s)
        except OSError:
            if not self.tolerate_errors:
                raise
            self.stats.read_errors += 1
            return []

    def sample_all(self, period_s: float = 1.0) -> SampleBatch:
        return SampleBatch.from_samples(
            self.read_vcpu_samples(period_s), period_s
        )

    def _seed_walk(self, period_s: float) -> List[VCpuSample]:
        samples: List[VCpuSample] = []
        if not self.fs.exists(self.machine_slice):
            return samples
        for vm_name in self.listdir(self.machine_slice):
            vm_path = f"{self.machine_slice}/{vm_name}"
            try:
                children = self.listdir(vm_path)
            except FileNotFoundError:
                self.stats.vm_skips += 1
                continue  # VM destroyed mid-walk
            for child in children:
                if not child.startswith("vcpu"):
                    continue
                vcpu_path = f"{vm_path}/{child}"
                try:
                    usage = self._read_usage_usec(vcpu_path)
                    prev = self._prev_usage.get(vcpu_path, usage)
                    self._prev_usage[vcpu_path] = usage
                    slot = self._read_slot(vm_name, child, vcpu_path)
                    if slot is None:
                        continue
                    # A fresh frequency cache per vCPU: no per-core dedup.
                    samples.append(self._finish_sample(
                        slot, max(0.0, usage - prev), period_s, {}
                    ))
                except OSError as exc:
                    if isinstance(exc, (FileNotFoundError, ProcessLookupError)):
                        self.stats.vcpu_skips += 1
                        self.forget_usage(vcpu_path)
                    elif self.tolerate_errors:
                        self.stats.read_errors += 1
                        self.stats.vcpu_skips += 1
                    else:
                        raise
        return samples

    def _direct_io_ok(self) -> bool:
        # The seed wrote every cap through the file seam.
        return False

    def write_cap_one(
        self, vcpu_path: str, quota_us: int, enforcement_period_us: int
    ) -> None:
        # Forget the quota in force first, so every write is issued.
        self._last_cap.pop(vcpu_path, None)
        super().write_cap_one(vcpu_path, quota_us, enforcement_period_us)
