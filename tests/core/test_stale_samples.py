"""Differential test: columnar stale-sample carry-forward vs the reference.

:class:`~repro.core.resilience.StaleSamples` carries missing vCPUs
forward over :class:`~repro.core.backend.SampleBatch` columns.  The
per-sample :class:`~tests.core.monitor_reference.ReferenceMonitor` is
the former list-based carry-forward.  Fed the same fresh samples tick
by tick, with vCPUs appearing, vanishing, returning and being
forgotten, both must give the same samples in the same order (fresh
rows first, then carried rows in first-seen order), the same carried
count and the same missing ages in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import SampleBatch, VCpuSample
from repro.core.resilience import StaleSamples
from tests.core.monitor_reference import ReferenceMonitor

PATHS = [f"/machine.slice/vm-{v}/vcpu{j}" for v in range(3) for j in range(2)]


def _sample(k, tid, consumed):
    path = PATHS[k]
    return VCpuSample(
        vm_name=path.split("/")[2],
        vcpu_index=k % 2,
        cgroup_path=path,
        tid=tid,
        consumed_cycles=consumed,
        core=k % 4,
        core_freq_mhz=2400.0,
        vfreq_mhz=consumed / 1e6 * 2400.0,
    )


ticks = st.lists(
    st.tuples(
        st.integers(0, len(PATHS) - 1),
        st.integers(100, 103),
        st.floats(0.0, 1e6, allow_nan=False),
    ),
    max_size=len(PATHS),
    unique_by=lambda row: row[0],
).map(lambda rows: ("tick", rows))
forgets = st.integers(0, len(PATHS) - 1).map(lambda k: ("forget", k))


@given(
    max_age=st.integers(1, 3),
    events=st.lists(ticks | forgets, max_size=25),
)
@settings(max_examples=200, deadline=None)
def test_columnar_carry_matches_reference(max_age, events):
    ref = ReferenceMonitor(max_age)
    col = StaleSamples(max_age)
    for kind, arg in events:
        if kind == "forget":
            ref.forget(PATHS[arg])
            col.forget(PATHS[arg])
            continue
        fresh = [_sample(*row) for row in arg]
        want = ref.sample(fresh)
        got = col.carry(SampleBatch.from_samples(fresh, 1.0))
        assert got.to_samples() == want
        assert col.last_carried == ref.last_carried
        assert list(col.missing_ages().items()) == list(
            ref.missing_ages().items()
        )


def test_unchanged_slot_order_returns_the_batch():
    """The steady state adds nothing and keeps the batch's identity,
    so the bulk engine's view cache still hits."""
    col = StaleSamples(2)
    batch = SampleBatch.from_samples([_sample(0, 100, 5.0)], 1.0)
    assert col.carry(batch) is batch
    assert col.carry(batch) is batch
    assert col.missing_ages() == {} and col.last_carried == 0


def test_ages_count_without_carry_forward():
    col = StaleSamples(0)
    col.carry(SampleBatch.from_samples([_sample(0, 100, 5.0)], 1.0))
    empty = SampleBatch.from_samples([], 1.0)
    for age in (1, 2, 3):
        assert len(col.carry(empty)) == 0
        assert col.missing_ages() == {PATHS[0]: age}
    assert col.last_carried == 0
