# Convenience targets for the reproduction repo.  The package is run
# from the source tree (no install needed): every target exports
# PYTHONPATH=src.

PYTHON  ?= python
PYTEST   = PYTHONPATH=src $(PYTHON) -m pytest
REPRO    = PYTHONPATH=src $(PYTHON) -m repro.cli

# The files `ruff format --check` gates (formatting is adopted
# incrementally, starting with the golden subsystem); keep in sync
# with .github/workflows/ci.yml.
FORMATTED = src/repro/golden \
            tests/test_golden_store.py \
            tests/test_golden_policy.py tests/test_golden_harness.py \
            tests/test_golden_drift.py tests/test_cli_smoke.py \
            tests/test_mpi_requests.py \
            tests/test_mpi_batches.py \
            tests/test_dv_fanout.py tests/test_fft_memory.py \
            tests/test_fifo_deferral.py tests/test_gc_pause.py \
            tests/test_dv_memory_chunks.py tests/test_fft_host_path.py \
            tests/test_dv_exchange_pin.py

.PHONY: test test-all test-exec test-faults test-traffic test-agg \
        test-tenancy bench obs help lint verify claims \
        golden-record ci scaleout skew agg interference

help:
	@echo "make ci            - what CI runs: lint -> tier-1 tests -> golden gate -> paper claims"
	@echo "make lint          - ruff check + format --check (skips if ruff missing)"
	@echo "make test          - fast test suite (excludes tests marked 'slow')"
	@echo "make test-all      - full test suite, slow overhead guards included"
	@echo "make test-exec     - executor/cache test suite only"
	@echo "make test-faults   - fault-injection + reliable-transport suite only"
	@echo "make test-traffic  - traffic models + statistical validation suite only"
	@echo "make test-agg      - aggregation runtime suite only (docs/aggregation.md)"
	@echo "make test-tenancy  - multi-tenant co-scheduling + api 2.0 suites (docs/tenancy.md)"
	@echo "make skew          - fig_skew: GUPS vs destination skew (docs/traffic.md)"
	@echo "make agg           - fig_agg: aggregated IB vs DV crossover sweep"
	@echo "make interference  - fig_interference: co-tenant slowdown matrix (docs/tenancy.md)"
	@echo "make verify        - golden compare + 6-axis determinism harness"
	@echo "make claims        - the non-slow paper-claim benchmarks (EXPERIMENTS.md asserts)"
	@echo "make golden-record - refresh goldens/ after an intentional figure change"
	@echo "make bench         - perf regression benchmarks; updates BENCH_exec.json"
	@echo "make scaleout      - 64-1024-node cluster projection (docs/scaling.md)"
	@echo "make obs           - example unified observability report (JSON)"

# Mirrors .github/workflows/ci.yml step for step (lint job, test job,
# golden-gate job, paper-claims job) so local runs and CI cannot
# diverge.
ci: lint test verify claims

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check . && ruff format --check $(FORMATTED); \
	else \
		echo "lint: ruff not installed; skipping (CI runs it)"; \
	fi
	$(PYTHON) tools/check_api_signatures.py

verify:
	$(REPRO) verify --compare

golden-record:
	$(REPRO) verify --record

claims:
	$(PYTEST) benchmarks -m "not slow" -q

test:
	$(PYTEST) -x -q -m "not slow"

test-all:
	$(PYTEST) -x -q

test-exec:
	$(PYTEST) -x -q tests/test_exec_pool.py tests/test_exec_cache.py

test-faults:
	$(PYTEST) -x -q tests/test_faults.py tests/test_dv_transport.py

test-traffic:
	$(PYTEST) -x -q tests/test_traffic_distributions.py \
		tests/test_traffic_arrivals.py \
		tests/test_traffic_integration.py

test-agg:
	$(PYTEST) -x -q tests/test_agg.py tests/test_fabric_symmetry.py

test-tenancy:
	$(PYTEST) -x -q tests/test_tenancy.py tests/test_api_v2.py

skew:
	$(REPRO) run fig_skew

agg:
	$(REPRO) run fig_agg

interference:
	$(REPRO) run fig_interference

bench:
	$(PYTEST) -q -m slow benchmarks/test_perf_regression.py

scaleout:
	$(REPRO) run fig_scaleout --workers 4 --cache .repro-cache

obs:
	PYTHONPATH=src $(PYTHON) -m repro.cli obs --nodes 4
