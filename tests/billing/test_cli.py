"""CLI coverage for the ``repro bill`` subcommand family."""

import json

import pytest

from repro.cli import main
from repro.checking import generate_trace, replay_with_billing


class TestBillDemo:
    def test_table_metrics_and_oracle_verdict(self, capsys):
        rc = main(["bill", "demo", "--ticks", "6", "--vms", "3",
                   "--metrics"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "billing summary" in out
        assert "vfreq_revenue_total" in out
        assert "oracle audit 0 violation(s) [ok]" in out

    def test_json_output(self, capsys):
        rc = main(["bill", "demo", "--ticks", "4", "--vms", "2",
                   "--json", "--per-vcpu"])
        out = capsys.readouterr().out
        assert rc == 0
        invoices = json.loads(out.splitlines()[0])
        assert invoices
        assert {inv["tenant"] for inv in invoices} <= {
            "tenant-0", "tenant-1"
        }
        for inv in invoices:
            assert inv["total"] == pytest.approx(
                inv["revenue"] - inv["sla_credits"]
            )

    @pytest.mark.parametrize("engine", ["scalar", "bulk"])
    def test_engine_flag_reaches_the_controller(self, engine, monkeypatch,
                                                capsys):
        from repro.core.controller import VirtualFrequencyController

        built = []
        init = VirtualFrequencyController.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(VirtualFrequencyController, "__init__",
                            recording_init)
        rc = main(["bill", "demo", "--ticks", "3", "--engine", engine])
        assert rc == 0
        assert [c.config.engine for c in built] == [engine]
        # The scalar oracle path keeps no structure-of-arrays table.
        assert (built[0]._table is None) == (engine == "scalar")


class TestBillDerive:
    def test_rederives_invoices_from_ledger_file(self, tmp_path, capsys):
        trace = generate_trace(7, ticks=15, tenants=2)
        result = replay_with_billing(trace, engines=("scalar",))
        path = tmp_path / "ledger.jsonl"
        with open(path, "w") as fh:
            for entry in result.ledgers["scalar"]:
                fh.write(json.dumps(entry) + "\n")
        rc = main(["bill", "derive", str(path), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        derived = json.loads(out.splitlines()[0])
        # offline derivation matches the live engine's invoices
        live = [inv.as_dict() for inv in result.billing["scalar"].invoices()]
        for inv in live:
            inv["node"] = "node-0"  # derive's default node label
        assert derived == json.loads(json.dumps(live, sort_keys=True))

    def test_missing_ledger_is_usage_error(self, tmp_path, capsys):
        rc = main(["bill", "derive", str(tmp_path / "nope.jsonl")])
        capsys.readouterr()
        assert rc == 2


class TestBillFuzz:
    def test_green_run_reports_metered_engine_ticks(self, capsys):
        rc = main(["bill", "fuzz", "--seeds", "1", "--ticks", "12",
                   "--engine", "scalar"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "metered engine-ticks" in out
        assert "[ok]" in out

    def test_red_run_shrinks_into_repro_dir(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.billing.pricing import PriceBook

        monkeypatch.setattr(
            PriceBook, "spot_rate",
            lambda self, fraction_sold: self.spot_base_rate,
        )
        repro_dir = tmp_path / "billing-repros"
        rc = main(["bill", "fuzz", "--seeds", "1", "--ticks", "10",
                   "--engine", "scalar", "--repro-dir", str(repro_dir)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        (repro,) = list(repro_dir.glob("*.jsonl"))
        assert repro.read_text().strip()
