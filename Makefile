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

# regression gate: each scenario's deterministic metrics (events run,
# sim time, peaks, events/sim-sec floor) vs the tracked BENCH_*.json
# baselines, plus the conservation audit and the obs-on vs obs-off
# overhead ceiling; each scenario's archive goes to
# benchmarks/out/obs_gate_<name>.jsonl.  Refresh baselines with
# `make bench-gate BENCH_GATE_FLAGS=--update`.  Wall time is measured
# by perfbench (`python3 perfbench/run.py`), not here.
bench-gate:
	$(PYTHON) scripts/bench_gate.py $(BENCH_GATE_FLAGS)

# fleet run: N scenario shards, one process each, each writing its own
# benchmarks/out/fleet/obs_<scenario>_s<i>.jsonl; prints one row per
# shard and exits 3 on a failed/killed/timed-out shard, 2 on an
# incomplete archive, 1 on audit violations.
# `make fleet FLEET_FLAGS="--shards 8 --seed 2024"`.
fleet:
	$(PYTHON) scripts/fleet.py $(FLEET_FLAGS)
