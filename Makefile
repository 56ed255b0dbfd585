# Developer entry points.  Everything runs from the repo root with the
# in-tree sources on PYTHONPATH — no install step required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint verify test bench bench-smoke bench-scale bench-flow \
    bench-dispatch bench-naming bench-e2e bench-ab chaos all

all: lint test

# Architecture gate: layering (Fig. 2-1), type-id reservations
# (Sec. 5.2), determinism, exception hygiene, and protocol model
# checks over the whole tree (fixture trees excluded — they violate on
# purpose).  Waivers are ratcheted against the committed baseline, and
# results are cached on file content hashes so an unchanged tree
# re-lints in well under a second.  See ANALYSIS.md for the catalogue.
lint:
	$(PYTHON) -m repro.analysis src/repro tests benchmarks \
	    --exclude tests/fixtures \
	    --cache .ntcslint-cache.json \
	    --max-waivers $$(cat .ntcslint-baseline)

# Model stage alone: extract the protocol state machines and wire
# handshake, run the MDL deadlock/livelock checks.  Add
# `--trace FILE.jsonl` to replay recorded netsim wire traces.
verify:
	$(PYTHON) -m repro.analysis verify src/repro

# Tier-1 suite (includes tests/test_static_analysis.py, which re-runs
# the lint gate and the seeded-violation fixtures).
test:
	$(PYTHON) -m pytest -x -q

# Chaos suite (PROTOCOL.md §10): deterministic fault schedules,
# gateway/Name-Server crash recovery, FaultPlan edge cases, and
# property-based random schedules.  NTCS_CHAOS_SEED offsets the
# scripted scenarios' chaos seeds so CI sweeps several seeds; a failing
# random schedule writes its replay JSON into chaos-failures/.
chaos:
	$(PYTHON) -m pytest tests/test_chaos.py tests/test_property_chaos.py \
	    tests/test_faults_unit.py -q

# Experiment benches; tables land in benchmarks/results/.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Fast-path microbench subset (<60 s): regenerates BENCH_pipeline.json
# and BENCH_naming.json at the repo root, enforces the speedup floors
# (header codec, forwarding, hot resolution, URSA cold start) and the
# pinned E5-internet invariants, then re-validates the row schemas.
# CI runs this as the bench-smoke job.
bench-smoke:
	$(PYTHON) benchmarks/microbench.py
	$(PYTHON) benchmarks/microbench.py --check

# Event-core scale sweep (PROTOCOL.md §11): regenerates
# BENCH_scale.json at the repo root — timer wheel vs the pre-change
# binary heap at 10/100/1k/10k modules — and enforces the drain
# throughput floors (>=10x at 10k modules, >=3x at 1k).
# CI runs this as the bench-scale job.
bench-scale:
	$(PYTHON) benchmarks/microbench.py --scale
	$(PYTHON) benchmarks/microbench.py --check --scale

# Flow-control overload bench (PROTOCOL.md §12): regenerates
# BENCH_flow.json at the repo root — fast producer vs slow consumer
# through a gateway, flow control on vs off — and enforces the
# bounded-queue ceiling (<= the credit window), the depth ratio
# (uncontrolled >=4x deeper) and the goodput floor.
# CI runs this as the bench-flow job.
bench-flow:
	$(PYTHON) benchmarks/microbench.py --flow
	$(PYTHON) benchmarks/microbench.py --check --flow

# Sharded-naming sweep (PROTOCOL.md §14): regenerates
# BENCH_naming.json at the repo root — the control-plane benches plus
# the 1/2/4-shard bulk-load of 10^5 modules and the million-name ring
# placement sweep — and enforces the scale floors (full record count
# per configuration, resolve cost within 1.5x of single-shard, ring
# balance inside the §14 bound) and the pinned E5 establishment
# counts.  CI runs this as the bench-naming job.
bench-naming:
	$(PYTHON) benchmarks/microbench.py --naming
	$(PYTHON) benchmarks/microbench.py --check --naming

# Frame-train dispatch sweep (PROTOCOL.md §13): regenerates
# BENCH_dispatch.json at the repo root — batched delivery off vs on
# over the 10/1k/10k fan-in topologies plus the real-stack gateway
# burst — and enforces the dispatch floors (>=3x fewer scheduler
# events per delivered message and >=2x faster drain at 10k modules)
# and the pinned E5 establishment counts with trains on.
# CI runs this as the bench-dispatch job.
bench-dispatch:
	$(PYTHON) benchmarks/microbench.py --dispatch
	$(PYTHON) benchmarks/microbench.py --check --dispatch

# End-to-end benchmark smoke (perfbench/README.md): the benchmark's own
# tests, then a short traced run of every workload.  A traced run wraps
# each Fig. 2-1 boundary by name, so a renamed or deleted entry point
# fails here; a result that is not "correct" (a failed check, or traced
# counts that differ from untraced ones) fails too.  CI runs this as
# the bench-e2e job.
BENCH_E2E_WORKLOADS := echo_chain3 stream_2net churn_2net

bench-e2e:
	$(PYTHON) -m pytest perfbench/tests -q
	mkdir -p .perfbench
	for w in $(BENCH_E2E_WORKLOADS); do \
	    $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 3 \
	        --trace 1 > .perfbench/$$w.smoke.txt \
	    && tail -n 1 .perfbench/$$w.smoke.txt | $(PYTHON) -c \
	        'import json, sys; sys.exit(not json.load(sys.stdin)["correct"])' \
	    || { cat .perfbench/$$w.smoke.txt; exit 1; }; \
	done

# A/B run of the end-to-end benchmark (benchmarks/ab.py): revision BASE,
# checked out in a temporary git worktree, against this working tree —
# PAIRS pairs of SECONDS-long runs of WORKLOAD at SEED, alternating
# which side runs first.  Prints each metric's median and quartiles per
# side, the pairs the change won and whether the gain rule holds.  Takes
# 2 x PAIRS x SECONDS plus set-up, so no CI job runs it.
BASE ?= HEAD
WORKLOAD ?= echo_chain3
PAIRS ?= 10
SECONDS ?= 30
SEED ?= 1

bench-ab:
	$(PYTHON) benchmarks/ab.py --base $(BASE) --workload $(WORKLOAD) \
	    --pairs $(PAIRS) --seconds $(SECONDS) --seed $(SEED)
