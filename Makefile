# Developer entry points. CI runs `make check`; see .github/workflows/ci.yml.
#
# PYTHONPATH=src keeps everything runnable from a bare checkout without
# an editable install.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: lint lint-changed test check list-rules bench-smoke bench-baseline golden-regen soak

# Two lint gates: every rule on the library, then the whole-program
# rules (engine parity, cache purity, unit flow, dead exports) across
# the full tree — they need tests/examples/benchmarks in the semantic
# model to judge reachability and liveness.
lint:
	$(PYTHON) -m repro.devtools src/repro
	$(PYTHON) -m repro.devtools src/repro tests examples benchmarks \
		--select REPRO110,REPRO111,REPRO112,REPRO113

# Same gates, but report only files changed vs the merge base with
# origin/main (the whole tree is still analyzed for cross-module rules).
lint-changed:
	$(PYTHON) -m repro.devtools src/repro --changed
	$(PYTHON) -m repro.devtools src/repro tests examples benchmarks \
		--select REPRO110,REPRO111,REPRO112,REPRO113 --changed

test:
	$(PYTHON) -m pytest -x -q

check: lint test

# Exercises the parallel runner end-to-end (serial vs parallel vs
# cache-warm over the four-datacenter sweep) without pytest-benchmark,
# plus tiny kernel- and planner-benchmark passes that check the
# vectorized engines still agree with their scalar references and a
# 2-shard sharded plan (chunked store, 2 pool workers) checked against
# the unsharded array engine.  The two perfbench runs plan the paper's
# four datacenters and the sharded fleet at full scale and fail on any
# planner decision that moves an answer pinned in perfbench/expected.json.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_runner_sweep.py -q -s
	$(PYTHON) benchmarks/bench_kernels.py --smoke
	$(PYTHON) benchmarks/bench_generation.py --smoke
	$(PYTHON) benchmarks/bench_planners.py --smoke
	$(PYTHON) perfbench/run.py --workload paper-grid --seconds 1
	$(PYTHON) perfbench/run.py --workload sharded-fleet --seconds 1

# Re-pin the committed benchmark numbers (paper-scale instances, see
# docs/PERFORMANCE.md); review the JSON diffs like any other change.
bench-baseline:
	$(PYTHON) benchmarks/bench_kernels.py --out BENCH_kernels.json
	$(PYTHON) benchmarks/bench_generation.py --out BENCH_kernels.json
	$(PYTHON) benchmarks/bench_planners.py --out BENCH_planners.json

# Full soak of the online consolidation controller: 10k streamed
# updates through ingest → replan with fault injection, asserting
# bounded memory and bounded replan scope.  A scaled smoke variant of
# the same invariants runs in tier-1 on every `make test`.
soak:
	REPRO_SOAK=1 $(PYTHON) -m pytest tests/service/test_soak.py -q

# Re-pin the golden regression fixtures after an intentional change;
# review the JSON diff like any other code change.
golden-regen:
	REPRO_REGEN_GOLDEN=1 $(PYTHON) -m pytest tests/golden -q

list-rules:
	$(PYTHON) -m repro.devtools --list-rules
