"""Shared Hypothesis strategies for the property-test suites.

The earlier property tests drew one demand level and one vfreq and
stamped them across every VM; these composites generate genuinely
heterogeneous fleets (per-VM level *and* guarantee) while keeping every
drawn scenario admissible under the paper's Eq. 7 — the committed
budget Σᵢ vcpusᵢ · vfreqᵢ never exceeds host capacity, which is the
precondition for the Eq. 2 guarantee the assertions check.

CI pins ``--hypothesis-seed=0`` (see .github/workflows/ci.yml) so a red
run reproduces locally with the same flag; the ``ci`` profile lives in
``tests/conftest.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from hypothesis import strategies as st

from tests.conftest import TINY

#: Engine axis: every whole-loop property must hold on both hot paths.
engines = st.sampled_from(("scalar", "bulk"))

#: One vCPU's demand as a fraction of a core.
levels = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def vm_fleets(
    draw,
    *,
    max_vms: int = 4,
    capacity_mhz: float = TINY.capacity_mhz,
    min_vfreq: float = 100.0,
    max_vfreq: float = 2300.0,
    tenants: Optional[Sequence[str]] = None,
):
    """A heterogeneous, Eq. 7-admissible fleet of single-vCPU VMs.

    Returns a non-empty list of ``(level, vfreq_mhz)`` pairs whose
    committed vfreqs sum to at most ``capacity_mhz``.  With ``tenants``
    given, returns ``(level, vfreq_mhz, tenant)`` triples instead, each
    tenant drawn independently — the earlier suites implicitly billed
    every VM to one tenant, which a per-tenant accounting bug can hide
    behind.  ``tenants=None`` draws are byte-identical to before.
    """
    n = draw(st.integers(min_value=1, max_value=max_vms))
    fleet = []
    committed = 0.0
    for _ in range(n):
        headroom = capacity_mhz - committed
        if headroom < min_vfreq:
            break
        vfreq = draw(
            st.floats(min_vfreq, min(max_vfreq, headroom), allow_nan=False)
        )
        level = draw(levels)
        committed += vfreq
        if tenants is None:
            fleet.append((level, vfreq))
        else:
            fleet.append((level, vfreq, draw(st.sampled_from(list(tenants)))))
    return fleet


@st.composite
def demand_schedules(
    draw,
    *,
    max_segments: int = 3,
    segment_len: int = 40,
    low: float = 20_000.0,
    high: float = 950_000.0,
):
    """Piecewise-constant single-vCPU demand, in cycles per period.

    Returns a list of ``(demand_cycles, iterations)`` segments — the
    generalisation of the old hand-rolled "low then step up" loop to an
    arbitrary step sequence.
    """
    n = draw(st.integers(min_value=1, max_value=max_segments))
    return [
        (draw(st.floats(low, high, allow_nan=False)), segment_len)
        for _ in range(n)
    ]
