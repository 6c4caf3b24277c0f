# Convenience targets for the reproduction package.

PYTHON ?= python

# Smoke-bench output (BENCH_SMOKE=1).  Every bench-*-smoke target empties
# it first, so check_perf_regression.py gates only what that target wrote.
SMOKE_RESULTS = benchmarks/smoke-results

.PHONY: install test coverage fuzz-smoke fuzz-long billing-smoke slo-smoke bench bench-smoke figures-check perfbench-digests backend-counters bench-faults-smoke bench-bulk-smoke bench-obs-smoke bench-rebalance-smoke bench-cluster-smoke bench-slo-smoke obs-smoke examples figures clean

install:
	pip install -e '.[dev]'

test:
	$(PYTHON) -m pytest tests/

# tests with line coverage and the CI fail-under gate (needs pytest-cov,
# installed by `make install`)
coverage:
	$(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing --cov-fail-under=73

# seeded scenario fuzz with every paper-equation oracle armed: 25 seeds
# x 200 ticks x 2 engines (scalar + bulk) = 10k engine-ticks,
# cross-engine bit-identity checked each tick (CI gate: zero invariant
# violations)
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro check fuzz --seeds 25 --ticks 200 --repro-dir fuzz-repros

# the nightly long-run variant: 50 seeds x 1000 ticks x 2 engines =
# 100k engine-ticks; failing seeds are shrunk into fuzz-repros/
fuzz-long:
	PYTHONPATH=src $(PYTHON) -m repro check fuzz --seeds 50 --ticks 1000 --repro-dir fuzz-repros

# fuzzed multi-tenant metering: 17 seeds x 200 ticks x 2 engines =
# 6.8k metered engine-ticks, every invoice line re-derived from the
# decision ledger by the billing oracle with exact equality (CI gate:
# zero billing violations; failing seeds shrink into billing-repros/)
billing-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bill fuzz --seeds 17 --ticks 200 --tenants 3 --engine both --repro-dir billing-repros

# fuzzed SLO-plane audit: 3 seeds x 150 ticks x 2 engines with the
# plane + billing attached, three gates armed per seed — cross-engine
# alert-stream equality, byte-identical ledgers across replays, and
# report-stream transparency against a detached run (CI gate: zero
# failing seeds; alert ledgers + summary land in slo-artefacts/)
slo-smoke:
	PYTHONPATH=src $(PYTHON) -m repro slo eval --seeds 3 --ticks 150 --tenants 3 --engine both --out slo-artefacts

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# quick backend-batching A/B with tiny parameters (CI gate: the batched
# backend must issue strictly fewer fs ops/tick than the seed walk, with
# a bit-identical report stream)
bench-smoke:
	rm -rf $(SMOKE_RESULTS)
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_backend_batching.py --benchmark-only -q

# paper-figure gate: regenerate every fig*.csv with the four bench_fig*
# benches (plus bench_cfs_fairness and its §IV-A2 asserts) and require
# each byte-identical to the committed export in benchmarks/results/
# (CI gate: any changed byte, or a figure not regenerated, fails)
figures-check:
	rm -rf $(SMOKE_RESULTS)
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest $(wildcard benchmarks/bench_fig*.py) benchmarks/bench_cfs_fairness.py --benchmark-only -q
	for f in benchmarks/results/fig*.csv; do cmp "$$f" "$(SMOKE_RESULTS)/$$(basename "$$f")" || exit 1; done

# bit-identity lines for the perfbench workloads: runs perfbench/run.py
# --seed 5 --seconds 1 --trace 1 for dense, fleet and churn and prints
# each timed run's allocation digest and guarantee_miss_ratio plus the
# traced run's exact kernel-I/O counters (~1.5 min); a change claiming
# identical behaviour must print the same lines as its parent commit
perfbench-digests:
	$(PYTHON) benchmarks/perfbench_digests.py

# per-tick allocation digests and BackendStats totals of the three
# kernel-I/O routes perfbench does not run (v2 column route, v2 under
# an armed fault plan, v1) through fixed churn, same-name recreate and
# thread-exit schedules (~1 s); CI diffs the output against
# benchmarks/results/backend_counters.txt
backend-counters:
	PYTHONPATH=src $(PYTHON) benchmarks/backend_counters.py

# quick chaos drill (CI gate: under the standard fault mix + one crash
# the control plane never dies unrecovered, healthy nodes tick every
# period, and occluded vCPUs hold their Eq. 2 guarantee)
bench-faults-smoke:
	rm -rf $(SMOKE_RESULTS)
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_fault_resilience.py --benchmark-only -q

# quick scalar-vs-bulk engine bench (CI gates: the report streams stay
# bit-identical, the bulk full tick and per-stage costs — stages 1 and 6
# included — and the auction-heavy host's stage 4 may not regress >25%
# against the committed BENCH_controller.json baseline, and the
# dense-host single-process tick fits inside one 1 s control period;
# override the tolerance with PERF_TOLERANCE=0.40 etc.)
bench-bulk-smoke:
	rm -rf $(SMOKE_RESULTS)
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_bulk.py --benchmark-only -q
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) benchmarks/check_perf_regression.py

# quick observability-overhead A/B (CI gate: a disabled hub stays
# within noise of the bare controller and full-fidelity recording —
# spans + ledger + flight frames — fits inside 5% of one control
# period per tick)
bench-obs-smoke:
	rm -rf $(SMOKE_RESULTS)
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_obs_overhead.py --benchmark-only -q

# quick chaos+churn rebalancer A/B on 8 nodes (CI gates: the rebalancer
# must beat static placement on total guarantee-violation VM-seconds and
# the planner round cost may not regress against the committed
# BENCH_rebalance.json baseline)
bench-rebalance-smoke:
	rm -rf $(SMOKE_RESULTS)
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_rebalance.py --benchmark-only -q
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) benchmarks/check_perf_regression.py

# quick cluster-plane scale pass: 64-node chaos control loop on the
# array snapshot + 64-node in-process vs shared-memory sharded tick parity
# (CI gates: snapshot+plan p50 and the sharded shm tick fit one control
# period; no gated leaf regresses against the committed baselines)
bench-cluster-smoke:
	rm -rf $(SMOKE_RESULTS)
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_cluster_scale.py --benchmark-only -q
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) benchmarks/check_perf_regression.py

# quick SLO-plane scrape cost at 64 nodes (CI gates: the ingest+evaluate
# p50 fits one control period outright and no gated leaf regresses
# against the committed BENCH_slo.json baseline)
bench-slo-smoke:
	rm -rf $(SMOKE_RESULTS)
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_slo_overhead.py --benchmark-only -q
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) benchmarks/check_perf_regression.py

# boot the /metrics endpoint on a live observed host and scrape it once,
# then again on a 2-node in-process cluster with the SLO plane scraping
# it, then once more on a host under the standard fault mix (CI gate:
# exposition format parses, every family appears exactly once, and the
# faulted scrape carries vfreq_faults_injected_total)
obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve-metrics --self-test --ticks 5
	PYTHONPATH=src $(PYTHON) -m repro serve-metrics --self-test --ticks 5 --cluster 2
	PYTHONPATH=src $(PYTHON) -m repro serve-metrics --self-test --ticks 5 --fault-plan examples/fault_plan.json

# the printed tables + CSVs for every paper figure/table
figures: bench
	@echo "tables  -> benchmarks/artefacts.log"
	@echo "csv     -> benchmarks/results/"

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/cluster_placement.py
	$(PYTHON) examples/dynamic_qos.py
	$(PYTHON) examples/datacenter.py
	$(PYTHON) examples/multi_tenant_node.py --fast
	$(PYTHON) examples/burst_vs_vfreq.py

clean:
	rm -rf benchmarks/artefacts.log $(SMOKE_RESULTS) .pytest_cache fuzz-repros billing-repros slo-artefacts .coverage
	find . -name __pycache__ -type d -exec rm -rf {} +
