"""Unit tests for repro.cgroups.procfs — /proc/<tid>/stat emulation."""

import pytest

from repro.cgroups.procfs import ProcFS, ThreadStat, USER_HZ, parse_stat_line


@pytest.fixture
def procfs():
    return ProcFS()


class TestLifecycle:
    def test_spawn_assigns_unique_tids(self, procfs):
        tids = {procfs.spawn("CPU 0/KVM") for _ in range(10)}
        assert len(tids) == 10

    def test_kill_removes(self, procfs):
        tid = procfs.spawn("x")
        procfs.kill(tid)
        assert not procfs.exists(tid)
        with pytest.raises(ProcessLookupError):
            procfs.stat(tid)

    def test_kill_missing(self, procfs):
        with pytest.raises(ProcessLookupError):
            procfs.kill(1)


class TestStatFormat:
    def test_line_has_52_fields_with_comm_joined(self, procfs):
        tid = procfs.spawn("simple")
        line = procfs.read_stat(tid)
        # comm has no spaces here, so a plain split sees all 52 fields
        assert len(line.split()) == 52

    def test_processor_is_field_39(self, procfs):
        tid = procfs.spawn("x", processor=7)
        fields = procfs.read_stat(tid).split()
        assert fields[38] == "7"

    def test_comm_is_parenthesised(self, procfs):
        tid = procfs.spawn("CPU 0/KVM")
        assert "(CPU 0/KVM)" in procfs.read_stat(tid)

    def test_charge_accumulates_user_hz_ticks(self, procfs):
        tid = procfs.spawn("x")
        procfs.account(tid, 1.5, 0)
        procfs.account(tid, 1.5, 0)
        assert procfs.stat(tid).utime_ticks == 2 * int(1.5 * USER_HZ)

    def test_charge_negative_rejected(self, procfs):
        tid = procfs.spawn("x")
        with pytest.raises(ValueError):
            procfs.account(tid, -0.1, 0)
        assert procfs.stat(tid).utime_ticks == 0

    def test_account_unknown_thread(self, procfs):
        with pytest.raises(ProcessLookupError):
            procfs.account(1, 0.5, 0)

    def test_set_processor(self, procfs):
        tid = procfs.spawn("x")
        procfs.account(tid, 0.0, 3)
        assert procfs.stat(tid).processor == 3
        assert procfs.stat(tid).utime_ticks == 0


class TestParseStatLine:
    def test_roundtrip(self):
        st = ThreadStat(tid=1234, comm="CPU 1/KVM", utime_ticks=10, stime_ticks=2, processor=5)
        parsed = parse_stat_line(st.render())
        assert parsed.tid == 1234
        assert parsed.comm == "CPU 1/KVM"
        assert parsed.utime_ticks == 10
        assert parsed.stime_ticks == 2
        assert parsed.processor == 5

    def test_comm_with_spaces_and_parens(self):
        # The classic proc(5) trap: comm may contain ') ' sequences.
        st = ThreadStat(tid=1, comm="evil) R 0 (name", processor=2)
        parsed = parse_stat_line(st.render())
        assert parsed.comm == "evil) R 0 (name"
        assert parsed.processor == 2

    def test_short_line_rejected(self):
        with pytest.raises(ValueError):
            parse_stat_line("1 (x) R 0 0")
