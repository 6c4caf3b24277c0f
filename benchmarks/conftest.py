"""Shared helpers for the reproduction benches.

Each bench regenerates one of the paper's tables or figures and prints
it (captured by ``pytest -s`` or the tee'd bench log).  Figure benches
run the underlying scenario exactly once inside ``benchmark.pedantic``;
micro-benches (controller overhead) use normal benchmark rounds.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

#: All bench artefacts are also appended here for EXPERIMENTS.md.
ARTEFACT_LOG = pathlib.Path(__file__).parent / "artefacts.log"

#: CSV exports of every figure's underlying data land here.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Smoke runs (``BENCH_SMOKE=1``) write here instead: a gitignored
#: directory, so a CI smoke target never rewrites the curated exports
#: above.  ``check_perf_regression.py`` reads the same place.
SMOKE_RESULTS_DIR = pathlib.Path(__file__).parent / "smoke-results"


def results_path(name: str) -> pathlib.Path:
    base = SMOKE_RESULTS_DIR if os.environ.get("BENCH_SMOKE") else RESULTS_DIR
    base.mkdir(parents=True, exist_ok=True)
    return base / name


def bench_env(ticks: int) -> dict:
    """The conditions a recorded section was measured under.

    Cores, interpreter and NumPy versions, the commit (``-dirty`` when
    ``src/`` differs from it) and the number of measured ticks.
    ``check_perf_regression.py`` prints both blocks when a fresh
    section's conditions differ from its baseline's.
    """
    root = pathlib.Path(__file__).resolve().parent.parent

    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True,
                check=False,
            )
        except OSError:
            return None

    head = git("rev-parse", "--short", "HEAD")
    sha = head.stdout.strip() if head is not None and head.returncode == 0 else ""
    if sha:
        dirty = git("diff", "--quiet", "HEAD", "--", "src")
        if dirty is not None and dirty.returncode != 0:
            sha += "-dirty"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha or "unknown",
        "ticks": ticks,
    }


def spread(values) -> dict:
    """Median and quartiles of per-tick seconds (not gated leaves)."""
    p25, p50, p75 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"p25_seconds": float(p25), "p50_seconds": float(p50),
            "p75_seconds": float(p75)}


def emit(text: str) -> None:
    """Print a bench artefact so it survives pytest's capture.

    Written to the process's real stderr (bypassing pytest's capsys) and
    appended to ``benchmarks/artefacts.log``.
    """
    out = "\n" + text + "\n"
    sys.__stderr__.write(out)
    with ARTEFACT_LOG.open("a") as fh:
        fh.write(out)


@pytest.fixture
def once(benchmark):
    """Run an expensive scenario exactly once under pytest-benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
