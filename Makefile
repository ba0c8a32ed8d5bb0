# Developer entry points.  `make check` is the tier-1 gate: the full
# unit suite plus a bytecode compile of every source file.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: check test compile smoke bench bench-gate fleet

check: test compile smoke

test:
	$(PYTHON) -m pytest -x -q

compile:
	$(PYTHON) -m compileall -q src

# runs the quickstart end to end and asserts a non-empty metrics dump
smoke:
	$(PYTHON) scripts/smoke_quickstart.py

# paper-figure benches; emit_metrics archives a bench's run as
# benchmarks/out/obs_<name>.jsonl (override with BENCH_METRICS_DIR)
bench:
	$(PYTHON) -m pytest benchmarks -q

# perf-regression gate: scenarios vs tracked BENCH_*.json baselines;
# each scenario's archive goes to benchmarks/out/obs_gate_<name>.jsonl.
# Refresh baselines with `make bench-gate BENCH_GATE_FLAGS=--update`;
# CI passes --no-wall to skip hardware-dependent wall-clock metrics.
bench-gate:
	$(PYTHON) scripts/bench_gate.py $(BENCH_GATE_FLAGS)

# fleet run: N scenario shards across a multiprocessing pool, merged
# into one fleet archive (benchmarks/out/fleet/fleet_<name>.jsonl, the
# same record grammar as every obs_*.jsonl) with per-shard
# wall/RSS/overhead attribution; exits 1 on merged audit violations,
# 2 on an incomplete shard archive.
# `make fleet FLEET_FLAGS="--shards 8 --seed 2024"`.
fleet:
	$(PYTHON) scripts/fleet.py $(FLEET_FLAGS)
