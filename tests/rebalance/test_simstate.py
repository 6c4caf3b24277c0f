"""SimulatedArrays what-if bookkeeping: admission, moves, clones."""

import pytest

from repro.rebalance.arrays import SimulatedArrays
from repro.rebalance.view import InFlightView
from tests.rebalance.conftest import make_view, vm


class TestConstruction:
    def test_invalid_allocation_ratio(self):
        view = make_view({"n0": []})
        with pytest.raises(ValueError):
            SimulatedArrays(view, allocation_ratio=0.0)

    def test_allocation_ratio_scales_capacity(self):
        view = make_view({"n0": []})
        state = SimulatedArrays(view, allocation_ratio=1.5)
        assert state.capacity_mhz[state.node_index["n0"]] == pytest.approx(
            9600.0 * 1.5
        )

    def test_in_flight_pins_nodes_and_vms(self):
        view = make_view(
            {"n0": [vm("a")], "n1": [], "n2": []},
            in_flight=[InFlightView("a", "n0", "n1", arrives_at=1.0)],
        )
        state = SimulatedArrays(view)
        assert {"n0", "n1"} <= state.pinned
        assert "a" in state.immovable


class TestCanAccept:
    def test_fits_by_frequency_and_memory(self):
        view = make_view({"n0": [vm("a")], "n1": []})
        assert SimulatedArrays(view).can_accept("a", "n1")

    def test_rejects_eq7_overcommit(self):
        view = make_view(
            {"n0": [vm("a", 2, 1800.0)], "n1": [vm("b", 4, 2400.0)]},
            capacity_mhz=9600.0,
        )
        # n1 committed 9600, a needs 3600 more
        assert not SimulatedArrays(view).can_accept("a", "n1")

    def test_rejects_memory_overcommit(self):
        view = make_view(
            {"n0": [vm("a", 1, 1200.0, 20000)], "n1": [vm("b", 1, 1200.0, 20000)]},
            memory_mb=32768,
        )
        assert not SimulatedArrays(view).can_accept("a", "n1")

    def test_rejects_vfreq_above_fmax(self):
        view = make_view({"n0": [vm("a", 1, 3000.0)], "n1": []}, fmax_mhz=2400.0)
        assert not SimulatedArrays(view).can_accept("a", "n1")

    def test_rejects_current_host_powered_off_and_pinned(self):
        view = make_view(
            {"n0": [vm("a")], "n1": [], "n2": []},
            powered_off=["n1"],
        )
        state = SimulatedArrays(view, pinned=["n2"])
        assert not state.can_accept("a", "n0")  # already there
        assert not state.can_accept("a", "n1")  # powered off
        assert not state.can_accept("a", "n2")  # pinned

    def test_unknown_vm_or_node(self):
        state = SimulatedArrays(make_view({"n0": [vm("a")], "n1": []}))
        assert not state.can_accept("ghost", "n1")
        assert not state.can_accept("a", "ghost")


class TestApplyMove:
    def test_accounting_moves_with_the_vm(self):
        view = make_view({"n0": [vm("a", 2, 1800.0, 4096)], "n1": []})
        state = SimulatedArrays(view)
        state.apply_move("a", "n1")
        n0, n1 = state.node_index["n0"], state.node_index["n1"]
        assert state.host_of("a") == "n1"
        assert state.committed_mhz[n0] == pytest.approx(0.0)
        assert state.committed_memory_mb[n0] == 0
        assert state.committed_mhz[n1] == pytest.approx(3600.0)
        assert state.committed_memory_mb[n1] == 4096
        assert (state.vm_count[n0], state.vm_count[n1]) == (0, 1)

    def test_inadmissible_move_raises(self):
        view = make_view({"n0": [vm("a", 1, 3000.0)], "n1": []}, fmax_mhz=2400.0)
        with pytest.raises(ValueError, match="does not fit"):
            SimulatedArrays(view).apply_move("a", "n1")

    def test_immovable_vm_raises(self):
        view = make_view(
            {"n0": [vm("a")], "n1": [], "n2": []},
            in_flight=[InFlightView("a", "n0", "n1", arrives_at=1.0)],
        )
        with pytest.raises(ValueError, match="pinned"):
            SimulatedArrays(view).apply_move("a", "n2")

    def test_second_hop_uses_updated_host(self):
        view = make_view({"n0": [vm("a")], "n1": [], "n2": []})
        state = SimulatedArrays(view)
        state.apply_move("a", "n1")
        state.apply_move("a", "n2")
        assert state.host_of("a") == "n2"
        assert state.committed_mhz[state.node_index["n1"]] == pytest.approx(0.0)


class TestMovableAndClone:
    def test_movable_sorted_largest_first(self):
        view = make_view(
            {"n0": [vm("small", 1, 1200.0), vm("big", 4, 1800.0),
                    vm("mid", 2, 1200.0)]},
            capacity_mhz=96000.0,
        )
        names = [v.name for v in SimulatedArrays(view).movable_vms_on("n0")]
        assert names == ["big", "mid", "small"]

    def test_movable_excludes_in_flight(self):
        view = make_view(
            {"n0": [vm("a"), vm("b")], "n1": []},
            in_flight=[InFlightView("a", "n0", "n1", arrives_at=1.0)],
        )
        names = [v.name for v in SimulatedArrays(view).movable_vms_on("n0")]
        assert names == ["b"]

    def test_clone_is_independent(self):
        view = make_view({"n0": [vm("a")], "n1": []})
        state = SimulatedArrays(view)
        trial = state.clone()
        trial.apply_move("a", "n1")
        assert state.host_of("a") == "n0"
        assert state.committed_mhz[state.node_index["n1"]] == pytest.approx(0.0)
        assert trial.host_of("a") == "n1"
