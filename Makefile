# Convenience targets; everything is plain pytest underneath.

PYTHON ?= python

.PHONY: install test test-pipeline test-comm test-faults test-store test-batch test-resilience check check-programs lint bench perf-smoke profile examples artifacts clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The stage-sequence slice: every caller of the pipeline's one stage
# sequence (compile, checkpointed resume, batch jobs, fault repair) in
# minutes rather than the full tier-1 run.
test-pipeline:
	$(PYTHON) -m pytest tests/test_pipeline*.py tests/test_store_resume.py \
		tests/test_batch*.py tests/test_faults_e2e.py \
		tests/test_obs_pipeline.py tests/test_resilience_engine.py

# The program slice: the one program-document parser, the comm check
# family, and the simulator loop that both the simulator and the COMM005
# deadlock rule run on -- parser or interpreter drift fails here in
# minutes rather than in the full tier-1 run.
test-comm:
	$(PYTHON) -m pytest tests/test_check_comm*.py tests/test_codegen_program.py \
		tests/test_codegen.py tests/test_sim_engine.py tests/test_faults.py

# The robustness slice: fault models, schedule repair, solver degradation.
test-faults:
	$(PYTHON) -m pytest tests/test_faults.py tests/test_faults_e2e.py

# The crash-safety slice: artifact store, ingestion, resume, CLI errors.
test-store:
	$(PYTHON) -m pytest tests/test_store.py tests/test_ingest.py \
		tests/test_store_resume.py tests/test_cli_errors.py

# The batch slice: worker pools, structural cache, warm starts, manifests.
test-batch:
	$(PYTHON) -m pytest tests/test_batch.py tests/test_batch_cache.py \
		tests/test_check_manifest.py

# The crash-tolerance slice: leases, deadlines, circuit breaker, chaos
# engine. Per-test wall caps come from pytest-timeout (pyproject.toml);
# without it installed the caps are simply not enforced.
test-resilience:
	$(PYTHON) -m pytest tests/test_resilience_deadline.py \
		tests/test_resilience_lease.py tests/test_resilience_engine.py \
		tests/test_check_resilience.py

# Static analysis: lint the shipped example graphs and the built-in
# program suite with the repro.check analyzer (exit 1 on error findings).
check:
	$(PYTHON) -m repro check examples/graphs -p 16
	$(PYTHON) -m repro check --all-programs --no-compile

# Program verification: emit MPMD program artifacts for the corpus and
# run the comm pass family over them (send/recv matching, deadlock
# freedom, byte consistency), failing on warnings too.
check-programs:
	@mkdir -p build/programs
	@for prog in complex strassen fft2d jacobi; do \
		PYTHONPATH=src $(PYTHON) -m repro compile --program $$prog -p 16 \
			--emit-program build/programs/$$prog.prog.json \
			--verify-program >/dev/null || exit 1; \
		echo "emitted build/programs/$$prog.prog.json"; \
	done
	PYTHONPATH=src $(PYTHON) -m repro check build/programs --fail-on warning

# Config lives in pyproject.toml ([tool.ruff]); CI runs the same check.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed (pip install ruff); skipping lint"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Perf smoke: run the scaling + throughput benchmarks and fail on a >2x
# median regression vs benchmarks/perf_baseline.json (CI runs the same;
# refresh an intentional change with `check_perf_regression.py --update`).
perf-smoke:
	$(PYTHON) -m pytest benchmarks/bench_perf_scaling.py \
		benchmarks/bench_throughput.py --benchmark-only \
		--benchmark-json BENCH_perf.json
	$(PYTHON) benchmarks/check_perf_regression.py BENCH_perf.json --max-ratio 2.0

# Profile one end-to-end run: compile+simulate with telemetry on, then
# rank the hottest stages from the run log (`repro obs report PROFILE_run.jsonl`
# for the full span tree / convergence view).
profile:
	PYTHONPATH=src $(PYTHON) -m repro simulate --program complex --n 16 -p 8 \
		--fidelity ideal --log-json PROFILE_run.jsonl
	PYTHONPATH=src $(PYTHON) -m repro obs top PROFILE_run.jsonl -n 10

# Regenerate every paper artifact into benchmarks/results/.
artifacts: bench
	@ls benchmarks/results/

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
