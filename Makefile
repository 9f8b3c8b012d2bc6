PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-nocc gate fuzz-quick chaos-quick suite-smoke digests \
	verify bench

test:
	$(PYTHON) -m pytest -q

# Tier-1 and the quick gate on a host without a C compiler: PATH holds
# only the interpreter's own directory (not a pyenv shim) and CC is
# unset, so the C tier does not build and every path runs on numpy
# (~4 min; the gate's eight C-tier cases skip).
NOCC_PYTHON = $(shell $(PYTHON) -c 'import sys; print(sys.executable)')
NOCC = env -u CC PATH=$(dir $(NOCC_PYTHON)) $(NOCC_PYTHON)

test-nocc:
	$(NOCC) -m pytest -q
	$(NOCC) benchmarks/bench.py --quick

# The benchmark gate at CI sizes: every case of benchmarks/bench.py,
# judged by its quick floor (the blocked scale run must also fit its
# budget).  The eight C-tier cases skip with a notice when the C library
# cannot be built (no C compiler), so a bare install stays green.
gate:
	$(PYTHON) benchmarks/bench.py --quick

# Seeded, bounded fuzzing sweep (~3 s): 12 deterministic scenarios
# through the full differential/theorem oracle catalogue.  Runs
# alongside `gate` in the tier-1 flow; a failing scenario prints its
# ScenarioSpec JSON for reproduction.
fuzz-quick:
	$(PYTHON) -m repro fuzz --seed 7 --count 12 --shrink

# Quick chaos sweep (~8 s): the structural-fault demo, the Theorem 5
# robustness-floor monitor (Fair Share holds / FIFO violates), and the
# kill-anywhere harness at 2 rounds, one per sweep crashpoint: each
# round SIGKILLs a checkpointed process-pool sweep and fails unless the
# kill happened and the resumed results are bit-identical.
chaos-quick:
	$(PYTHON) -m repro chaos --quick

# The repository benchmark at tiny sizes (~10 s): every workload once,
# with its correctness checks (the Theorem 2/3 fair point, the RCP
# allocation, the scalar and async replays, compiled == fast).  Exits
# non-zero when a check fails; the timings mean nothing at this size.
suite-smoke:
	$(PYTHON) benchmarks/suite/run.py --smoke

# Result digests of every benchmark unit, seeds 1 and 2, of 16 fixed
# trajectory-engine cases (the last five: Fair Share individual feedback
# at N = 96 from equal and perturbed rates, weighted Fair Share with
# unequal weights at N = 4 and 70, Fair Share on a parking lot with
# delay-reading rules, a zero-rate start and a capacity degradation,
# scalar runs under a mix of all six built-in rules, and asynchronous
# ensembles under uniform, bursty and drifting clocks, the blocks the
# compiled ensemble loop serves or hands back), of 3 trajectory-engine
# cases run with the C tier live and again with it masked
# (PowerSaturating, ExponentialSignal and an adversary mix),
# and of 31 seeded packet-simulator cases on engine="auto" (the C
# event loop) and engine="fast" (its Python loop) (~1.5 min; the two
# lines of a tier or packet case must agree, or the script exits 1,
# naming the case).  A change that must not move any
# result prints the same lines as its parent: `make digests > after.txt`
# on both, then `diff`.
digests:
	$(PYTHON) benchmarks/digests.py

# The tier-1 flow: full test suite, the benchmark gate at CI sizes,
# the bounded fuzzing sweep, the chaos sweep, and the repository
# benchmark's correctness checks.
verify: test gate fuzz-quick chaos-quick suite-smoke

# Every gate case at full size, once: judged against the committed
# BENCH.json, which is then rewritten unless a C-tier case skipped
# (~2.5 min; the memory case traces a ~0.8 GB one-shot run).
bench:
	$(PYTHON) benchmarks/bench.py
