"""Byte-identity pins for the deterministic CLI commands.

Every command below is fully seeded, so its stdout is a pure function
of the source tree.  The digests were recorded before the CLI was
reduced to parsing and dispatch; a refactor of the command bodies must
leave every one of them unchanged.  The two single-host
``serve-metrics`` digests pin a page that renders each billing sample
once.  Each command runs in-process
through :func:`repro.cli.main`.  The working directory's path is
replaced by ``DIR`` before hashing (``rebalance run --ledger`` echoes
it), and the ``serving <address>`` line of ``serve-metrics`` is dropped
(the self-test binds an ephemeral port).
"""

import contextlib
import hashlib
import io
import os

import pytest

from repro.cli import main


GOLDEN = {
    "bill-demo": (
        "21273de5bc4e67daa41136c5d7973442"
        "eef933144d6c768c4f9da757c05e2638"
    ),
    "bill-demo-json": (
        "d62cb6fb6c527221c1bec68c3e0d91ad"
        "7fcc14c4b9e459dc8dea8b1201f49b42"
    ),
    "bill-demo-metrics-per-vcpu": (
        "7dde7fce4545e4742dd2838e302954f8"
        "be20bd70caf171526b012dc436ea4c4f"
    ),
    "bill-fuzz": (
        "3314cdd3069745beb955d55bd0e8ee5a"
        "3be59f6be49f322d88ee3bdeca6198b5"
    ),
    "check-fuzz": (
        "10a15e852d9606cbf2b8daa615e0b634"
        "83a9b5bf923985d88271d0f14f63da83"
    ),
    "slo-eval": (
        "4a29c04a7010fba92d4ad847742d2d84"
        "043f690e4e58171e59a9f27cd243901a"
    ),
    "slo-eval/alerts_seed0.jsonl": (
        "13f79ff652757389b280199e1a5c56ce"
        "d95009b914bdf4ea4c19cf4243439f1c"
    ),
    "slo-eval/alerts_seed1.jsonl": (
        "e3b0c44298fc1c149afbf4c8996fb924"
        "27ae41e4649b934ca495991b7852b855"
    ),
    "slo-eval/summary.json": (
        "973675f050b549bfb42c8f3f063eef35"
        "5a036f22c2d7e79437319ea8a4d09d9e"
    ),
    "rebalance-plan": (
        "3b8396596dc05fe4b317cfa43905c101"
        "f1beb6ea3445bf146f8aa6abb98262c8"
    ),
    "rebalance-run-baseline": (
        "6c6d9e85b999d936bd4592a6cc370c24"
        "b88c3996b26d31159bf1527ccc43c8f6"
    ),
    "operator": (
        "18fa048b16d654d6cd1fdd6055586a9c"
        "ef4745219aa962883da92b77faf54d4c"
    ),
    "serve-metrics": (
        "439708c2cf057b0bcbf277c8ef073d55"
        "6c80460c411cbb298877ec2c9edcd9af"
    ),
    "serve-metrics-obs": (
        "439708c2cf057b0bcbf277c8ef073d55"
        "6c80460c411cbb298877ec2c9edcd9af"
    ),
    "serve-metrics-cluster": (
        "eb383e7dad1ef8f3e582de8e871c271b"
        "b5d28ae9572f4ccab7403237837e9d5f"
    ),
    "explain-cap": (
        "48aa5b3f409234ce76a4f23f793702b2"
        "bc3e7ae10e2f5c097531d93e8546653a"
    ),
    "explain-move": (
        "c30a7ac2f91fd13cb6cb50b3c9f60301"
        "cb55db083b3c14842167305039a767ee"
    ),
    "explain-alert": (
        "4edec779626e3a2d16b3be5ee16c1acf"
        "797aa5f7671b5a0943f4a43af189feae"
    ),
}

COMMANDS = {
    "bill-demo": "bill demo",
    "bill-demo-json": "bill demo --json",
    "bill-demo-metrics-per-vcpu": "bill demo --metrics --per-vcpu",
    "bill-fuzz": "bill fuzz --seeds 2 --ticks 60",
    "check-fuzz": "check fuzz --seeds 2 --ticks 60",
    "slo-eval": "slo eval --seeds 2 --ticks 80 --out DIR/slo",
    "rebalance-plan": "rebalance plan --at 60 --max-moves 4 --drain node-1",
    "rebalance-run-baseline": (
        "rebalance run --nodes 6 --vms 200 --duration 60 "
        "--degrade-rate 0.3 --baseline --ledger DIR/rebalance.jsonl"
    ),
    "operator": "operator --horizon 60",
    "serve-metrics": "serve-metrics --self-test",
    "serve-metrics-obs": "serve-metrics --self-test --obs-dir DIR/obs",
    "serve-metrics-cluster": "serve-metrics --self-test --cluster 2",
}

#: Run on the ledgers the commands above write.
EXPLAIN = {
    "explain-cap": "explain --obs-dir DIR/obs --vm demo-1 --vcpu 0 --tick 5",
    "explain-move": "explain --move vm-25 --ledger DIR/rebalance.jsonl",
    "explain-alert": (
        "explain --alert anomaly:backend_errors_total "
        "--ledger DIR/slo/alerts_seed0.jsonl"
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(command: str, workdir: str) -> str:
    argv = command.replace("DIR", workdir).split()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, command
    return "".join(
        line for line in buf.getvalue().splitlines(True)
        if not line.startswith("serving ")
    ).replace(workdir, "DIR")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def digests(workdir):
    out = {}
    for name, command in {**COMMANDS, **EXPLAIN}.items():
        out[name] = _sha(_run(command, workdir).encode())
    for name in ("alerts_seed0.jsonl", "alerts_seed1.jsonl", "summary.json"):
        with open(os.path.join(workdir, "slo", name), "rb") as fh:
            out[f"slo-eval/{name}"] = _sha(fh.read())
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_recorded_digest(digests, name):
    assert digests[name] == GOLDEN[name]


@pytest.mark.parametrize("argv, code, message", [
    (["explain", "--vm", "v", "--vcpu", "0", "--tick", "0"], 2,
     "explain: need --ledger FILE or --obs-dir DIR\n"),
    (["explain", "--move", "v"], 2,
     "explain: need --ledger FILE or --obs-dir DIR\n"),
    (["explain", "--alert", "guarantee"], 2,
     "explain: need --ledger FILE or --obs-dir DIR\n"),
    (["explain", "--vm", "v"], 2,
     "explain: need --vm/--vcpu/--tick (cap derivation) or --move VM "
     "(migration derivation)\n"),
    (["explain", "--vm", "v", "--vcpu", "0", "--tick", "0",
      "--obs-dir", "TMP"], 2, "explain: no ledger at TMP/ledger.jsonl\n"),
    (["explain", "--move", "v", "--obs-dir", "TMP"], 2,
     "explain: no rebalance ledger at TMP/rebalance.jsonl\n"),
    (["explain", "--alert", "guarantee", "--obs-dir", "TMP"], 2,
     "explain: no alert ledger at TMP/alerts.jsonl\n"),
    (["explain", "--alert", "g", "--ledger", "TMP/a.jsonl"], 2,
     "explain: no alert ledger at TMP/a.jsonl\n"),
])
def test_explain_usage_errors(tmp_path, capsys, argv, code, message):
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.replace("TMP", str(tmp_path))


@pytest.mark.parametrize("command, message", [
    ("explain --obs-dir DIR/obs --vm demo-1 --vcpu 0 --tick 99",
     "explain: no ledger record for vm='demo-1' vcpu=0 tick=99 "
     "(recorded ticks: 0..9)\n"),
    ("explain --move ghost --ledger DIR/rebalance.jsonl",
     "explain: no rebalance record for vm='ghost' (recorded rounds: "
     "0..11; moved VMs: vm-0, vm-10, vm-101, vm-105, vm-111, vm-114, "
     "vm-130, vm-137)\n"),
    ("explain --alert ghost --ledger DIR/slo/alerts_seed0.jsonl",
     "explain: no alert transitions for slo='ghost' "
     "(recorded: anomaly:backend_errors_total)\n"),
])
def test_explain_not_found(digests, workdir, capsys, command, message):
    capsys.readouterr()
    assert main(command.replace("DIR", workdir).split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
