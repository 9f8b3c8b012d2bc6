PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test selftest gate fuzz-quick scale-quick chaos-quick \
	async-quick compiled-quick suite-smoke digests verify bench

test:
	$(PYTHON) -m pytest -q

selftest:
	$(PYTHON) -m repro selftest --quick

gate:
	$(PYTHON) benchmarks/regression_gate.py --quick

# Seeded, bounded fuzzing sweep (~15 s): 12 deterministic scenarios
# through the full differential/theorem oracle catalogue.  Runs
# alongside `gate` in the tier-1 flow; a failing scenario prints its
# ScenarioSpec JSON for reproduction.
fuzz-quick:
	$(PYTHON) -m repro fuzz --seed 7 --count 12 --shrink

# Quick blocked-vs-one-shot scale check: small workloads judged
# against the committed BENCH_scale.json quick floors (no rewrite).
scale-quick:
	$(PYTHON) benchmarks/bench_scale.py --quick --check

# Quick chaos sweep (~8 s): the structural-fault demo, the Theorem 5
# robustness-floor monitor (Fair Share holds / FIFO violates), and the
# kill-anywhere harness at 2 rounds, one per sweep crashpoint: each
# round SIGKILLs a checkpointed process-pool sweep and fails unless the
# kill happened and the resumed results are bit-identical.
chaos-quick:
	$(PYTHON) -m repro chaos --quick

# Quick asynchronous-engine check: batched run_async_ensemble vs the
# scalar per-member loop (bit-identity verified before timing) and the
# delay-ring overhead, judged against the BENCH_async.json quick
# floors (no rewrite).
async-quick:
	$(PYTHON) benchmarks/bench_async.py --quick --check

# Quick compiled-tier check: small workloads judged against the
# BENCH_compiled.json quick floors (no rewrite).  Exits 0 with a
# notice when the C library cannot be built (no C compiler) so a bare
# install stays green.
compiled-quick:
	$(PYTHON) benchmarks/bench_compiled.py --quick

# The repository benchmark at tiny sizes (~10 s): every workload once,
# with its correctness checks (the Theorem 2/3 fair point, the RCP
# allocation, the scalar and async replays, compiled == fast).  Exits
# non-zero when a check fails; the timings mean nothing at this size.
suite-smoke:
	$(PYTHON) benchmarks/suite/run.py --smoke

# Result digests of every benchmark unit, seeds 1 and 2, of 14 fixed
# trajectory-engine cases (the last three: Fair Share individual feedback
# at N = 96 from equal and perturbed rates, weighted Fair Share with
# unequal weights at N = 4 and 70, and Fair Share on a parking lot with
# delay-reading rules, a zero-rate start and a capacity degradation),
# and of 23 seeded
# packet-simulator cases on engine="auto" and engine="legacy" (~1 min;
# the two lines of a packet case must agree).  A change that must not move any result prints the
# same lines as its parent: `make digests > after.txt` on both, then
# `diff`.
digests:
	$(PYTHON) benchmarks/digests.py

# The tier-1 flow: full test suite, the engine smoke check, the
# benchmark regression gate (quick CI workload), the bounded fuzzing
# sweep, the blocked-ensemble scale check, the chaos sweep, the
# asynchronous-engine check, the compiled-tier check, and the
# repository benchmark's correctness checks.
verify: test selftest gate fuzz-quick scale-quick chaos-quick \
	async-quick compiled-quick suite-smoke

# Full-scale benchmarks + gate; refreshes BENCH_core.json,
# BENCH_sim.json, BENCH_scale.json, BENCH_controllers.json,
# BENCH_chaos.json, BENCH_async.json, and BENCH_compiled.json.
bench:
	$(PYTHON) benchmarks/bench_core_engine.py
	$(PYTHON) benchmarks/bench_sim_kernel.py
	$(PYTHON) benchmarks/bench_scale.py
	$(PYTHON) benchmarks/bench_controllers.py
	$(PYTHON) benchmarks/bench_chaos.py
	$(PYTHON) benchmarks/bench_async.py
	$(PYTHON) benchmarks/bench_compiled.py
	$(PYTHON) benchmarks/regression_gate.py
