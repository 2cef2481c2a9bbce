PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-check bench-compare queries store crash-smoke scenarios serve fuzz fuzz-smoke coverage report report-check docs-check hygiene-check all

# Tier-1 suite: unit/integration tests plus the benchmark reproductions
# at tiny scale (same command CI runs).
test:
	$(PYTHON) -m pytest -x -q

# Paper table/figure reproductions only, with their printed reports.
bench:
	$(PYTHON) -m pytest benchmarks -q -s

# Query-engine smoke: the example tour plus the machine-readable
# indexed-vs-scan suite -> BENCH_queries.json.
queries:
	$(PYTHON) examples/query_tour.py
	$(PYTHON) -m repro.bench --tiny --queries --out BENCH_queries.json

# Sharded-store smoke: the durability/sharding example tour plus the
# machine-readable store suite -> BENCH_store.json.
store:
	$(PYTHON) examples/shard_tour.py
	$(PYTHON) -m repro.bench --store --tiny --out BENCH_store.json

# SIGKILL a real publishing process mid-stream, recover from the WALs,
# diff against the acknowledged publishes (the CI durability smoke).
crash-smoke:
	$(PYTHON) tools/crash_recovery_smoke.py

# Validate BENCH_*.json against the bench schema.
bench-check:
	$(PYTHON) tools/check_bench.py

# The component regression gate CI runs: regenerate the tiny query + store
# reports and compare them against the committed baselines (agreement
# stays zero-tolerance).
bench-compare:
	$(PYTHON) -m repro.bench --tiny --queries --out BENCH_queries.json
	$(PYTHON) -m repro.bench --store --tiny --out BENCH_store.json
	$(PYTHON) tools/check_bench.py BENCH_queries.json --compare benchmarks/baselines --tolerance 0.5
	$(PYTHON) tools/check_bench.py BENCH_store.json --compare benchmarks/baselines --suite-tolerance store=0.6

# List the scenario catalogue, then materialise the smallest scenario
# end-to-end (simulate -> corrupt -> preprocess -> fit -> annotate).
scenarios:
	$(PYTHON) -m repro.scenarios --list
	$(PYTHON) -m repro.scenarios --smoke

# Serve a fast-fitted model over HTTP until Ctrl-C (drains open sessions).
SCENARIO ?= mall-tiny
PORT ?= 8073
serve:
	$(PYTHON) -m repro.net --serve --scenario $(SCENARIO) --port $(PORT)

# Pinned-seed fuzz smoke: the deterministic check CI runs on every PR.
fuzz-smoke:
	$(PYTHON) -m repro.scenarios --fuzz 8 --seed 20260807

# Open-ended fuzz sweep (override SEED / COUNT / BUDGET as needed); the
# failing-seed artifact lands in FUZZ_report.json.
SEED ?= 1
COUNT ?= 100
BUDGET ?= 300
fuzz:
	$(PYTHON) -m repro.scenarios --fuzz $(COUNT) --seed $(SEED) \
		--fuzz-budget $(BUDGET) --fuzz-artifact FUZZ_report.json

# Tier-1 coverage. Uses pytest-cov when installed (the CI gate); otherwise
# falls back to the dependency-free settrace approximation in tools/.
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -x -q --cov=repro --cov-report=term --cov-fail-under=85; \
	else \
		echo "pytest-cov not installed; running tools/measure_coverage.py instead"; \
		$(PYTHON) tools/measure_coverage.py --fail-under 85 -x -q; \
	fi

# Regenerate the committed report from the committed baselines (byte-stable:
# rerunning over the same corpus reproduces docs/report/ exactly).
report:
	$(PYTHON) -m repro.report --bench-dir benchmarks/baselines --out docs/report

# Validate the committed report's spec/data/markdown cross-references.
report-check:
	$(PYTHON) tools/check_report.py docs/report

# Execute the python code blocks of README.md and docs/ARCHITECTURE.md, and
# cross-check docs/BENCHMARKS.md against the committed baselines.
docs-check:
	$(PYTHON) tools/check_docs.py README.md docs/ARCHITECTURE.md --handbook

# Fail if bytecode / cache artifacts are committed.
hygiene-check:
	$(PYTHON) tools/check_hygiene.py

all: test docs-check hygiene-check
