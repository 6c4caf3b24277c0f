"""Differential test: ``run_auction`` against the literal Algorithm 1.

:func:`repro.core.auction.run_auction` replaces the per-round re-sort
with a heap and batches runs of full rounds; both are claimed to leave
every outcome bit-identical to the round-by-round original in
``tests/core/auction_reference.py``.  These tests hold it to that claim:
every float is compared by ``float.hex()``, dict key order included, as
are ``rounds`` and the final wallets.  The last test swaps the
reference into a whole controller: both engines call the same
``run_auction``, so engine-equivalence tests cannot see an auction
change.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.core.controller
from repro.core.auction import run_auction
from repro.core.config import ControllerConfig
from repro.core.credits import CreditLedger
from repro.sim.scenario import eval1_chiclet
from tests.core.auction_reference import reference_auction

#: 2**52: from here on a float's unit in the last place is at least 1
BIG = 2.0 ** 52


def _ledger(wallets):
    ledger = CreditLedger(ControllerConfig.paper_evaluation())
    for vm, balance in wallets.items():
        ledger.set_balance(vm, balance)
    return ledger


def _hex_items(mapping):
    return [(key, float(value).hex()) for key, value in mapping.items()]


def _fingerprint(outcome, wallets):
    """Everything an auction decides, floats as exact hex strings."""
    return {
        "purchased": _hex_items(outcome.purchased),
        "spent_per_vm": _hex_items(outcome.spent_per_vm),
        "market_left": float(outcome.market_left).hex(),
        "rounds": outcome.rounds,
        "wallets": _hex_items(wallets),
    }


def _decide(auction, market, demands, vm_of, wallets, window, priorities):
    """One auction on fresh wallets and its fingerprint.  A purchase whose
    cycles find no vCPU trips the auction's invariant check; that error
    and the wallets as it left them are the fingerprint then."""
    ledger = _ledger(wallets)
    try:
        outcome = auction(market, demands, vm_of, ledger, window,
                          priorities=priorities)
    except AssertionError as exc:
        return None, {"error": str(exc), "wallets": _hex_items(ledger.wallets())}
    return outcome, _fingerprint(outcome, ledger.wallets())


def assert_matches_reference(market, demands, vm_of, wallets, window,
                             priorities=None):
    """Run both auctions; they must decide (or fail) bit-identically."""
    case = (market, demands, vm_of, wallets, window, priorities)
    fast, fast_print = _decide(run_auction, *case)
    _, ref_print = _decide(reference_auction, *case)
    assert fast_print == ref_print
    return fast


# -- named cases -----------------------------------------------------------------


def test_full_rounds_then_boundary():
    """Paper-like auction: many full 1 % slices, then boundary purchases."""
    out = assert_matches_reference(
        market=2.29e7,
        demands={"/a/0": 480_000.5, "/a/1": 250_000.0, "/b/0": 305_000.25,
                 "/c/0": 90_000.0, "/c/1": 1_000_000.0},
        vm_of={"/a/0": "a", "/a/1": "a", "/b/0": "b", "/c/0": "c", "/c/1": "c"},
        wallets={"a": 5e6, "b": 2_000_123.0, "c": 640_000.0},
        window=10_000.0,
    )
    assert out.rounds > 50


def test_tiny_residual_ahead_of_large_path():
    """A ~1e-13 residual left on the first vCPU must be bought before
    the slice moves to the large path behind it."""
    demands = {"/v/0": 1.0000000000001, "/v/1": 40.0}
    out = assert_matches_reference(
        market=1e3, demands=demands, vm_of={"/v/0": "v", "/v/1": "v"},
        wallets={"v": 1e3}, window=1.0,
    )
    assert 0 < out.purchased["/v/0"] - 1.0 < 1e-12


@pytest.mark.parametrize("market", [95_000.0, 100_000.0, 104_999.5])
def test_wallets_and_market_run_out_mid_round(market):
    assert_matches_reference(
        market=market,
        demands={"/a/0": 1e6, "/b/0": 1e6, "/c/0": 1e6},
        vm_of={"/a/0": "a", "/b/0": "b", "/c/0": "c"},
        wallets={"a": 45_000.0, "b": 33_333.25, "c": 1e6},
        window=10_000.0,
    )


def test_priorities_with_ties():
    assert_matches_reference(
        market=3e5,
        demands={"/a/0": 1e5, "/b/0": 1e5, "/c/0": 1e5, "/d/0": 1e5},
        vm_of={"/a/0": "a", "/b/0": "b", "/c/0": "c", "/d/0": "d"},
        wallets={"a": 5e4, "b": 9e4, "c": 9e4, "d": 2e5},
        window=10_000.0,
        priorities={"a": 2.0, "b": 1.0, "c": 1.0},
    )


def test_non_integer_window():
    assert_matches_reference(
        market=1e5,
        demands={"/a/0": 3e4, "/a/1": 2e4, "/b/0": 5e4},
        vm_of={"/a/0": "a", "/a/1": "a", "/b/0": "b"},
        wallets={"a": 1e5, "b": 1e5},
        window=0.1 * 1e4 + 0.3,
    )


@pytest.mark.parametrize("window", [7.0, 2.0 ** 46])
@pytest.mark.parametrize("where", ["market", "wallet", "demand"])
def test_operands_at_or_above_2_pow_52(where, window):
    """Past 2**53 the unit in the last place is 2, so an odd window can
    no longer come off an operand exactly: no batching there."""
    big = 2 * BIG + 16
    market = big if where == "market" else 40 * window + 0.5
    wallet = big if where == "wallet" else 20 * window + 0.25
    demand = big if where == "demand" else 30 * window + 0.75
    assert_matches_reference(
        market=market,
        demands={"/a/0": demand, "/b/0": 12 * window},
        vm_of={"/a/0": "a", "/b/0": "b"},
        wallets={"a": wallet, "b": 7 * window},
        window=window,
    )


def test_totals_that_round_on_a_binade_crossing():
    """A fractional total growing by whole windows rounds when it crosses
    a binade; the batched adds must round exactly as one-by-one adds."""
    window = 10_000.0
    first = window - 1 / 3  # the slice left after the 1/3-cycle vCPU
    out = assert_matches_reference(
        market=1e7,
        demands={"/v/0": 1 / 3, "/v/1": 5e5},
        vm_of={"/v/0": "v", "/v/1": "v"},
        wallets={"v": 7 * window},  # one boundary round, then six full
        window=window,
    )
    one_by_one = first
    for _ in range(6):
        one_by_one += window
    assert one_by_one != first + 6 * window
    assert out.purchased["/v/1"] == one_by_one


# -- property --------------------------------------------------------------------

#: fractional parts that put an operand on, just past, or between
#: whole windows (1e-13: a residual too small to fill a slice)
_EPS = [0.0, 1e-13, 1e-10, 0.25, 0.5, 0.999]


@st.composite
def auctions(draw):
    window = draw(st.one_of(
        st.sampled_from([1.0, 2.0, 7.0, 10_000.0, 2.0 ** 46]),
        st.floats(0.5, 20_000.0, allow_nan=False),
    ))

    def amount(max_windows):
        whole = draw(st.integers(0, max_windows))
        return whole * window + draw(st.sampled_from(_EPS)) * window

    # At most one operand family is lifted to >= 2**52 so that the
    # other two still bound the number of rounds.
    huge = draw(st.sampled_from([None, None, "market", "wallets", "demands"]))

    def lifted(value, family):
        if huge != family:
            return value
        return value + draw(st.sampled_from([BIG, BIG + 1.0, 3 * BIG]))

    n_vms = draw(st.integers(1, 5))
    demands, vm_of, wallets = {}, {}, {}
    for v in range(n_vms):
        vm = f"vm{v}"
        wallets[vm] = lifted(amount(40), "wallets")
        for c in range(draw(st.integers(1, 3))):
            path = f"/m/{vm}/vcpu{c}"
            demands[path] = lifted(amount(25), "demands")
            vm_of[path] = vm
    market = lifted(amount(120), "market")
    priorities = None
    if draw(st.booleans()):
        priorities = {vm: float(draw(st.integers(0, 2))) for vm in wallets}
    return market, demands, vm_of, wallets, window, priorities


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(auctions())
# Pinned: a market below the 1e-9 sale threshold and no funded buyer
# enters no round.
@example(case=(1e-13, {"/m/vm0/vcpu0": 1.0}, {"/m/vm0/vcpu0": "vm0"},
               {"vm0": 0.0}, 1.0, None))
def test_run_auction_matches_literal_algorithm_1(case):
    assert_matches_reference(*case)


# -- whole controller ------------------------------------------------------------


def _eval1_chiclet_reports():
    """60 ticks of the paper's eval1 mix on chiclet, bulk engine."""
    scenario = eval1_chiclet(time_scale=0.1, dt=1.0)
    scenario.controller_config = ControllerConfig.paper_evaluation(engine="bulk")
    sim = scenario.build(controlled=True)
    sim.run(60.0)
    reports = sim.controller.reports
    assert len(reports) == 60
    return [
        {"allocations": _hex_items(r.allocations),
         **_fingerprint(r.auction, r.wallets)}
        for r in reports
    ]


def test_controller_decides_as_with_the_literal_auction(monkeypatch):
    shipped = _eval1_chiclet_reports()
    monkeypatch.setattr(repro.core.controller, "run_auction", reference_auction)
    literal = _eval1_chiclet_reports()
    # the host really runs multi-round auctions that batching can shorten
    assert max(tick["rounds"] for tick in literal) > 30
    for t, (fast, ref) in enumerate(zip(shipped, literal)):
        assert fast == ref, f"tick {t} differs"
