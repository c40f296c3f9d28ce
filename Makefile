# Convenience targets for the reproduction repository.

PYTHON ?= python3

.PHONY: install test verify lint telemetry-demo bench bench-quick bench-sweep bench-replay bench-fleet bench-serve perfbench perfbench-test serve-soak serve-shard-soak experiments examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Tier-1 gate: the full unit/integration suite against the in-tree
# sources (no install needed), plus a sweep-scheduler smoke bench.
verify:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/
	REPRO_SCALE=quick PYTHONPATH=src $(PYTHON) -m pytest -q --benchmark-disable \
		benchmarks/test_perf_caches.py::test_sweep_throughput

# Static checks (same commands the CI lint job runs; needs ruff).
lint:
	ruff check src tests benchmarks
	ruff format --check src/repro/obs tests/obs src/repro/cdn src/repro/trace \
		src/repro/core/policy

# End-to-end telemetry walkthrough: generate a small trace, replay it
# twice with cache probes on, then validate and compare the JSONL
# artifacts with repro-report.
telemetry-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli gen --server europe --days 4 \
		--scale 0.05 /tmp/repro-demo-trace.csv.gz
	PYTHONPATH=src $(PYTHON) -m repro.cli sim /tmp/repro-demo-trace.csv.gz \
		--algorithm Cafe --disk-chunks 500 \
		--telemetry /tmp/repro-demo-small.jsonl --snapshot-every 250
	PYTHONPATH=src $(PYTHON) -m repro.cli sim /tmp/repro-demo-trace.csv.gz \
		--algorithm Cafe --disk-chunks 6000 \
		--telemetry /tmp/repro-demo-big.jsonl --snapshot-every 250
	PYTHONPATH=src $(PYTHON) -m repro.cli report --check \
		/tmp/repro-demo-small.jsonl /tmp/repro-demo-big.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli report /tmp/repro-demo-small.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli report \
		/tmp/repro-demo-small.jsonl /tmp/repro-demo-big.jsonl

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_SCALE=quick $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Sweep-throughput comparison (seed vs single-pass vs parallel); writes
# BENCH_sweep.json at the repo root.
bench-sweep:
	PYTHONPATH=src $(PYTHON) -m pytest -q --benchmark-disable \
		benchmarks/test_perf_caches.py::test_sweep_throughput

# Replay-throughput comparison (seed loop vs object path vs packed
# columnar lane vs parallel sweep); writes BENCH_replay.json.
bench-replay:
	PYTHONPATH=src $(PYTHON) -m pytest -q --benchmark-disable \
		benchmarks/test_replay_throughput.py

# Fleet-replay comparison (object lane vs packed FleetTrace lane over
# the 6-edge hierarchy) plus the streamed-generation RSS measurement;
# updates this scale's section of BENCH_fleet.json.
bench-fleet:
	PYTHONPATH=src $(PYTHON) -m pytest -q --benchmark-disable \
		benchmarks/test_fleet_throughput.py

# Serve-daemon SLO bench (decision latency quantiles + sustained QPS
# over a unix socket); updates this scale's section of BENCH_serve.json.
bench-serve:
	PYTHONPATH=src $(PYTHON) -m pytest -q --benchmark-disable \
		benchmarks/test_serve_latency.py

# The repository benchmark (perfbench/README.md): one workload, one
# seed, end-to-end metrics as the last output line.  Override W and
# SEED, e.g. `make perfbench W=fleet SEED=3`.
W ?= sweep
SEED ?= 1
perfbench:
	$(PYTHON) perfbench/run.py --workload $(W) --seed $(SEED) --seconds 30

# The benchmark's own tests, including a quick-scale run of each
# workload with its correctness gates (about a minute).
perfbench-test:
	PYTHONPATH=src $(PYTHON) -m pytest -q perfbench/tests

# Fault soak: SIGKILL a live repro-serve daemon mid-trace (twice),
# inject malformed lines, resume from snapshots, and exit non-zero
# unless final totals are byte-identical to the batch replay.
serve-soak:
	PYTHONPATH=src $(PYTHON) -m repro.serve.soak \
		--scale 1.0 --days 4 --requests 20000 \
		--restarts 2 --malformed-every 500 \
		--telemetry /tmp/repro-serve-soak.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli report --check \
		/tmp/repro-serve-soak.jsonl

# Sharded-fleet fault soak: 4 workers behind the video-hash router,
# SIGKILL one worker AND the router mid-trace; exit non-zero unless the
# merged totals are byte-identical to the sharded batch replay and the
# merged telemetry passes repro-report --check.
serve-shard-soak:
	PYTHONPATH=src $(PYTHON) -m repro.serve.soak \
		--workers 4 --scale 1.0 --days 2 --requests 8000 \
		--restarts 2 --malformed-every 500 --snapshot-every 500 \
		--telemetry /tmp/repro-serve-shard-soak.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli report --check \
		/tmp/repro-serve-shard-soak.jsonl

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

experiments:
	$(PYTHON) -m repro.cli experiment all --scale full --markdown report.md

examples:
	@for f in examples/*.py; do echo "=== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
