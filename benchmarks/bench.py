"""The repository's speed claims: one registry of gated cases, one gate
and one ``BENCH.json``.

Each case times a fast path against the path it replaces (or a costly
option against its clean baseline), checks bit-identity first, and
reduces to one gated ratio, ``speedup``, recorded beside the absolute
numbers it measured (seconds, events/s, member-steps/s, MB) and
stamped with the git revision and UTC time that measured it:

* the batched trajectory engine: ``ensemble`` (``run_ensemble`` vs
  member-by-member ``run``) and ``quadratic_sweep`` (the vectorised
  quadratic-map sweep vs the generic per-point path);
* ``warm_start``: fixed-point iterations of an F7-style scan, cold vs
  through :class:`~repro.core.steadystate.FixedPointCache` (a count,
  not a time);
* the blocked ensemble at scale: ``memory`` (one-shot / blocked peak
  traced allocation at ``N = 100,000``, ``M = 64``; the blocked run
  must also fit :data:`BUDGET_MB`) and ``throughput`` (one-shot /
  blocked wall time at moderate ``N``, where blocking must cost almost
  nothing);
* the controller zoo: ``controlled_ensemble`` (a batched RCP ensemble
  vs scalar ``run`` calls) and ``tcp_delta_batch`` (the vectorised
  ``TcpLikeRule.delta_batch`` vs the scalar-loop fallback);
* the structural chaos layer, as clean / chaos overhead ratios (1.0
  means free): ``empty_plan`` (an empty plan must take the clean path)
  and ``active_ensemble`` (a periodic degradation plus a blackhole);
* the asynchronous engine: ``async_ensemble`` (a clocked ensemble vs
  the per-member :func:`~repro.scenarios.oracles.reference_run` loop)
  and ``delay_ring`` (tau = 0 / tau = 8 throughput);
* the compiled (C) tier, skipped with a notice when it has not built:
  four closed packet loops (``engine="auto"``, the C event loop, vs
  ``engine="fast"``, the Python loops), F12 end to end on the same two
  engines, ``fs_queue_law`` (the C Fair Share queue law vs the numpy
  sorted pipeline), ``nonlinear_signal`` (``PowerSaturating`` and
  ``ExponentialSignal`` ensembles on the compiled loop vs the numpy
  tier, the whole C tier masked) and ``observe_dispatch`` (the bare
  C observe call vs the one-row ``compiled.observe_batch`` around it,
  a ratio below 1 that rises as the wrapper's dispatch falls).

The controller and chaos cases mask the compiled ensemble loop on both
sides, so they compare the two Python loops their floors were recorded
on, and record the C loop's throughput beside; the ensemble case masks
it on the serial side only.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench.py [--quick]

Full mode runs every case at its recorded size and judges each ratio
against ``max(floor, committed * (1 - THRESHOLD))``: within 25% of the
committed number, but never stricter than the case's floor.  Then it
rewrites ``BENCH.json`` with the fresh numbers (unless a case was
skipped), so a failing case fails once, against the numbers it
regressed from.  ``--quick``
runs the small CI sizes and judges by the quick floors alone (smaller
workloads shrink the ratios for reasons unrelated to regressions); it
rewrites nothing.  The exit status is 0 only when the gate passes.
"""

import argparse
import contextlib
import functools
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.analysis.bifurcation import (bifurcation_diagram,
                                        quadratic_map_sweep)
from repro.analysis.maps import QuadraticRateMap
from repro.backends import _cext, compiled
from repro.chaos import (CapacityDegradation, GatewayBlackhole,
                         StructuralFaultPlan)
from repro.core.asynchronous import (ClockSchedule, RateMixClock,
                                     run_async_ensemble)
from repro.core.dynamics import FlowControlSystem, ensemble_buffer_bytes
from repro.core.fairshare import FairShare, _sorted_queues
from repro.core.fifo import Fifo
from repro.core.math_utils import as_rate_vector
from repro.core.ratecontrol import (RateAdjustment, RcpSourceRule,
                                    TargetRule, TcpLikeRule)
from repro.core.rcp import RcpController
from repro.core.signals import (ExponentialSignal, FeedbackScheme,
                                FeedbackStyle, LinearSaturating,
                                PowerSaturating)
from repro.core.steadystate import (FixedPointCache, _damped_solve,
                                    continuation_scan)
from repro.core.topology import parking_lot, single_gateway
from repro.experiments.exp_f12_sim_validation import run_f12_sim_validation
from repro.observability.provenance import git_revision, provenance
from repro.scenarios.oracles import reference_run
from repro.simulation.network_sim import NetworkSimulation

#: The committed numbers the full-mode gate judges against.
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH.json"

#: How far a full-mode ratio may fall below its committed value.
THRESHOLD = 0.25

#: The memory the blocked scale run must fit inside (MB).
BUDGET_MB = 512

SKIP_NOTICE = ("no compiled tier in this environment (no C compiler) — "
               "pure-python fallback in force")


# ------------------------------------------------------------------
# Shared timing
# ------------------------------------------------------------------
def timed(fn):
    """``(fn(), wall seconds)``."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class Paired(NamedTuple):
    """What :func:`paired` measured: the median ratio, the sorted
    per-pair ratios, and the last pair's seconds and results."""
    speedup: float
    pair_ratios: list
    base_s: float
    new_s: float
    base_out: object
    new_out: object


def paired(base, new, pairs=1):
    """Time ``pairs`` interleaved calls of ``base()`` then ``new()``.

    The ratio is ``base`` time over ``new`` time.  Single timings swing
    with host noise; each ratio compares two adjacent calls, so a slow
    spell hits both sides alike, and the median of the ratios is the
    case's number.
    """
    ratios = []
    for _ in range(pairs):
        base_out, base_s = timed(base)
        new_out, new_s = timed(new)
        ratios.append(base_s / new_s)
    return Paired(round(statistics.median(ratios), 2),
                  [round(r, 2) for r in sorted(ratios)],
                  base_s, new_s, base_out, new_out)


@contextlib.contextmanager
def python_loop():
    """Make the compiled ensemble loop unavailable, as a test masks a
    kernel, so runs take the Python loop."""
    loop = compiled.ensemble_loop
    compiled.ensemble_loop = lambda *args, **kwargs: None
    try:
        yield
    finally:
        compiled.ensemble_loop = loop


@contextlib.contextmanager
def numpy_tier():
    """Mask the whole C tier, as a test masks ``_cext.load``, so every
    stage runs on numpy: the observe stage too, which masking
    :func:`python_loop` alone leaves in C."""
    load = _cext.load
    _cext.load = lambda: None
    try:
        yield
    finally:
        _cext.load = load


def _fair_share_system(n, mu=1.0, eta=0.6, beta=0.5, per_connection=False):
    """Single-gateway Fair Share under individual feedback."""
    rule = ([TargetRule(eta=eta, beta=beta) for _ in range(n)]
            if per_connection else TargetRule(eta=eta, beta=beta))
    return FlowControlSystem(single_gateway(n, mu=mu), FairShare(),
                             LinearSaturating(), rule,
                             style=FeedbackStyle.INDIVIDUAL)


# ------------------------------------------------------------------
# The batched trajectory engine
# ------------------------------------------------------------------
def bench_ensemble(members=256, n=8, steps=2000, seed=11):
    """Batched ``run_ensemble`` vs member-by-member ``run`` on the
    Python loop (``run`` is that loop's one-member call).

    The floor was recorded against ``run``'s former private Python
    loop, which was faster per step than the shared loop at ``M = 1``,
    so the ratio reads high: compare ``serial_s`` itself to see the
    serial side's speed.  With the C tier built, the serial side's time
    on the compiled loop is recorded beside it, ungated.
    """
    system = _fair_share_system(n)
    starts = np.random.default_rng(seed).uniform(0.0, 0.6,
                                                 size=(members, n))

    def serial():
        return [system.run(starts[m], max_steps=steps, tol=1e-13)
                for m in range(members)]

    def masked_serial():
        with python_loop():
            return serial()

    result = {"members": members, "connections": n, "max_steps": steps}
    tier = compiled.tier()
    if tier == "cext":
        result[f"serial_{tier}_s"] = round(timed(serial)[1], 4)
    timing = paired(masked_serial, lambda: system.run_ensemble(
        starts, max_steps=steps, tol=1e-13))
    batched = timing.new_out
    for m, traj in enumerate(timing.base_out):
        if batched.outcomes[m] is not traj.outcome or \
                not np.allclose(batched.finals[m], traj.final, atol=1e-12):
            raise AssertionError(f"ensemble member {m} disagrees with run()")
    result.update(serial_s=round(timing.base_s, 4),
                  batched_s=round(timing.new_s, 4),
                  speedup=timing.speedup)
    return result


def bench_quadratic_sweep(points=400, transient=2000, keep=256):
    """The vectorised quadratic-map sweep vs the generic per-point
    bifurcation path."""
    gains = np.linspace(0.5, 2.62, points)
    timing = paired(
        lambda: bifurcation_diagram(
            lambda a: QuadraticRateMap(a=a, beta=0.25),
            gains, x0=0.1, transient=transient, keep=keep,
            derivative_family=lambda a: QuadraticRateMap(
                a=a, beta=0.25).derivative),
        lambda: quadratic_map_sweep(gains, beta=0.25, x0=0.1,
                                    transient=transient, keep=keep))
    # The generic path takes math.log of each slope and the sweep
    # np.log, so exponents agree to 1e-12, not bit for bit.
    for pt, gpt in zip(timing.new_out, timing.base_out):
        if not np.array_equal(pt.attractor, gpt.attractor):
            raise AssertionError(
                f"sweep attractor at a={pt.parameter} disagrees")
        if pt.classification.regime is not gpt.classification.regime:
            raise AssertionError(
                f"sweep regime at a={pt.parameter} disagrees")
        if not abs(pt.lyapunov - gpt.lyapunov) <= 1e-12:
            raise AssertionError(
                f"sweep Lyapunov exponent at a={pt.parameter} disagrees")
    return {"points": points, "transient": transient, "keep": keep,
            "generic_s": round(timing.base_s, 4),
            "vectorised_s": round(timing.new_s, 4),
            "speedup": timing.speedup}


def bench_warm_start(points=24, passes=2, n=6, eta=0.05, tol=1e-10):
    """Iteration counts of an F7-style fixed-point scan, cold vs warm.

    The workload solves the fair point of a TSI Fair Share system over
    a ``beta`` grid, ``passes`` times (figures re-run their scans).
    Cold starts every solve from the same rough guess; warm goes
    through :class:`~repro.core.steadystate.FixedPointCache`, so each
    point continues from its neighbour's fixed point and the second
    pass is pure memo hits.  The fixed points are verified identical.
    """
    systems = [_fair_share_system(n, eta=eta, beta=float(b))
               for b in np.linspace(0.35, 0.65, points)]
    x0 = np.full(n, 0.02)

    cold_total = 0
    cold_rates = []
    for _ in range(passes):
        cold_rates = []
        for system in systems:
            rates, iters = _damped_solve(
                system, as_rate_vector(x0, n=n), 5000, tol, 1.0)
            cold_total += iters
            cold_rates.append(rates)

    cache = FixedPointCache()
    warm_results = []
    for _ in range(passes):
        warm_results = continuation_scan(systems, x0, tol=tol,
                                         max_steps=5000, cache=cache)
    warm_total = cache.iterations
    for cold, warm in zip(cold_rates, warm_results):
        if not np.allclose(cold, warm.rates, atol=1e-8):
            raise AssertionError("warm-started fixed point differs")
    return {"points": points, "passes": passes,
            "cold_iterations": cold_total,
            "warm_iterations": warm_total,
            "cache_hits": cache.hits, "cache_misses": cache.misses,
            "speedup": round(cold_total / max(1, warm_total), 2)}


# ------------------------------------------------------------------
# Blocked ensembles at scale
# ------------------------------------------------------------------
def _scale_initials(m, n, seed=7):
    # Per-member spread around a moderate operating point, scaled so the
    # gateway load starts below saturation.
    return np.random.default_rng(seed).uniform(0.2, 0.8, size=(m, n))


def _scale_run(system, initials, block_size, max_steps, history):
    # tol=0 makes every member consume the full step budget: identical
    # work on both sides, no convergence races.
    return system.run_ensemble(initials, max_steps=max_steps, tol=0.0,
                               max_period=8, history=history,
                               block_size=block_size)


def _traced_peak(fn):
    """(result, peak traced bytes) of calling fn with tracemalloc on."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def bench_memory(n=100_000, members=64, block_size=8, max_steps=12,
                 budget_mb=BUDGET_MB):
    """Peak traced allocation, blocked vs one-shot, at paper scale.

    Both runs keep the default rolling tail (``history="tail"``) — the
    mode period detection needs — so the one-shot side pays the full
    ``(M, tail, N)`` buffer while the blocked side only ever holds one
    ``(block, tail, N)`` slice.  The blocked run must fit the budget
    (the gate checks ``blocked_within_budget``); the one-shot run is
    expected not to, which is the point of blocking.  The analytic
    buffer projections are recorded beside, ungated.
    """
    system = _fair_share_system(n, mu=float(n), eta=0.05, beta=0.4)
    r0 = _scale_initials(members, n)
    # Warm-up outside the traced region: first-touch page faults and
    # lazily built CSR arrays belong to neither side.
    _scale_run(system, r0[:2], None, 2, "none")

    blocked, blocked_peak = _traced_peak(
        lambda: _scale_run(system, r0, block_size, max_steps, "tail"))
    oneshot, oneshot_peak = _traced_peak(
        lambda: _scale_run(system, r0, None, max_steps, "tail"))
    if not np.array_equal(blocked.finals, oneshot.finals):
        raise AssertionError("blocked finals differ from one-shot finals")
    if not np.array_equal(blocked.steps, oneshot.steps):
        raise AssertionError("blocked steps differ from one-shot steps")

    budget = budget_mb * 1024 * 1024
    projection = {
        policy: ensemble_buffer_bytes(members, n, max_steps=max_steps,
                                      max_period=8, history=policy)
        for policy in ("full", "tail", "none")}
    return {"n": n, "members": members, "block_size": block_size,
            "max_steps": max_steps, "budget_mb": budget_mb,
            "blocked_peak_mb": round(blocked_peak / 2**20, 1),
            "oneshot_peak_mb": round(oneshot_peak / 2**20, 1),
            "blocked_within_budget": bool(blocked_peak <= budget),
            "oneshot_within_budget": bool(oneshot_peak <= budget),
            "projected_buffer_mb": {k: round(v / 2**20, 1)
                                    for k, v in projection.items()},
            "speedup": round(oneshot_peak / blocked_peak, 2)}


def bench_throughput(n=4096, members=64, block_size=32, max_steps=30,
                     pairs=5):
    """Member-steps per second, one-shot vs blocked, at moderate N.

    ``history="none"`` on both sides: the comparison is about stepping
    cost, not buffer writes.
    """
    system = _fair_share_system(n, mu=float(n), eta=0.05, beta=0.4)
    r0 = _scale_initials(members, n)
    _scale_run(system, r0, None, 2, "none")  # warm-up
    timing = paired(
        lambda: _scale_run(system, r0, None, max_steps, "none"),
        lambda: _scale_run(system, r0, block_size, max_steps, "none"),
        pairs)
    member_steps = members * max_steps
    return {"n": n, "members": members, "block_size": block_size,
            "max_steps": max_steps, "pairs": pairs,
            "blocked_msteps_per_s": round(member_steps / timing.new_s),
            "oneshot_msteps_per_s": round(member_steps / timing.base_s),
            "pair_ratios": timing.pair_ratios,
            "speedup": timing.speedup}


# ------------------------------------------------------------------
# The controller zoo
# ------------------------------------------------------------------
def bench_controlled_ensemble(n=256, members=64, max_steps=60, pairs=5):
    """Batched controlled (RCP) ensemble vs a scalar loop over members.

    Both sides use ``tol=0.0`` so every member consumes the full step
    budget, and the batched finals are verified bit-identical to the
    scalar finals before timing.  With the C tier built, the compiled
    loop's throughput is recorded beside, ungated.
    """
    system = FlowControlSystem(
        single_gateway(n, mu=float(n)), Fifo(), LinearSaturating(),
        RcpSourceRule(), style=FeedbackStyle.INDIVIDUAL,
        controller=RcpController(alpha=0.5, beta=0.05))
    r0 = np.random.default_rng(7).uniform(0.05, 0.5, size=(members, n))
    kwargs = dict(max_steps=max_steps, tol=0.0, max_period=8,
                  history="none")
    system.run_ensemble(r0[:2], **kwargs)  # warm-up

    ens = system.run_ensemble(r0, **kwargs)
    for m in range(members):
        traj = system.run(r0[m], max_steps=max_steps, tol=0.0,
                          max_period=8)
        if not np.array_equal(ens.finals[m], traj.final):
            raise AssertionError(
                f"batched controlled member {m} differs from scalar run")

    def scalar():
        for m in range(members):
            system.run(r0[m], max_steps=max_steps, tol=0.0, max_period=8)

    with python_loop():
        timing = paired(scalar, lambda: system.run_ensemble(r0, **kwargs),
                        pairs)
    member_steps = members * max_steps
    result = {"n": n, "members": members, "max_steps": max_steps,
              "pairs": pairs,
              "batched_msteps_per_s": round(member_steps / timing.new_s),
              "scalar_msteps_per_s": round(member_steps / timing.base_s),
              "pair_ratios": timing.pair_ratios,
              "speedup": timing.speedup}
    if compiled.tier() == "cext":
        _, t_kernel = timed(lambda: system.run_ensemble(r0, **kwargs))
        result["kernel_msteps_per_s"] = round(member_steps / t_kernel)
    return result


def bench_tcp_delta_batch(members=64, n=4096, pairs=5):
    """Vectorised TcpLikeRule.delta_batch vs the scalar-loop fallback."""
    rule = TcpLikeRule(increase=0.05, decrease=0.125, threshold=0.5)
    rng = np.random.default_rng(11)
    rates = rng.uniform(0.01, 2.0, size=(members, n))
    signals = rng.uniform(0.0, 1.0, size=(members, n))
    delays = rng.uniform(0.5, 5.0, size=(members, n))

    def fallback():
        return RateAdjustment.delta_batch(rule, rates, signals, delays)

    def vectorised():
        return rule.delta_batch(rates, signals, delays)

    if not np.array_equal(fallback(), vectorised()):
        raise AssertionError(
            "vectorised tcp delta_batch differs from the scalar loop")
    timing = paired(fallback, vectorised, pairs)
    return {"members": members, "n": n, "pairs": pairs,
            "elements": members * n,
            "pair_ratios": timing.pair_ratios,
            "speedup": timing.speedup}


# ------------------------------------------------------------------
# The structural chaos layer
# ------------------------------------------------------------------
def _active_plan(max_steps):
    """A periodic, jittered degradation + one blackhole window, sized so
    several transitions land inside the step budget."""
    period = max(40, max_steps // 4)
    return StructuralFaultPlan(
        injectors=(
            CapacityDegradation("g0", factor=0.6, start=10,
                                duration=period // 2, period=period,
                                jitter=3),
            GatewayBlackhole("g0", start=max_steps // 2,
                             duration=max(5, max_steps // 20)),
        ),
        seed=13)


def bench_empty_plan(n=64, max_steps=2000, pairs=5):
    """Scalar run with the empty structural plan vs the clean run; the
    empty plan must take the clean code path, so the ratio is ~1.0."""
    system = _fair_share_system(n, mu=float(n), eta=0.1,
                                per_connection=True)
    r0 = np.random.default_rng(5).uniform(0.05, 0.5, size=n)
    kwargs = dict(max_steps=max_steps, tol=0.0, max_period=8)
    empty = StructuralFaultPlan()
    system.run(r0, **kwargs)  # warm-up

    clean = system.run(r0, **kwargs)
    chaos = system.run(r0, structural=empty, **kwargs)
    if not np.array_equal(clean.final, chaos.final) \
            or chaos.structural_events is not None:
        raise AssertionError(
            "empty structural plan is not bit-identical to the clean run")
    timing = paired(lambda: system.run(r0, **kwargs),
                    lambda: system.run(r0, structural=empty, **kwargs),
                    pairs)
    return {"n": n, "max_steps": max_steps, "pairs": pairs,
            "clean_steps_per_s": round(max_steps / timing.base_s),
            "chaos_steps_per_s": round(max_steps / timing.new_s),
            "pair_ratios": timing.pair_ratios,
            "speedup": timing.speedup}


def bench_active_ensemble(n=32, members=48, max_steps=400, pairs=5,
                          verify_members=4):
    """Batched ensemble under an active structural plan vs clean.

    A sample of members is first verified bit-identical to scalar
    ``run(..., structural=plan, fault_member=m)`` replays, the contract
    the fault-determinism oracle asserts per scenario.  With the C tier
    built, the compiled loop's clean and structural throughputs are
    recorded beside, ungated.
    """
    system = _fair_share_system(n, mu=float(n), eta=0.1,
                                per_connection=True)
    plan = _active_plan(max_steps)
    r0 = np.random.default_rng(9).uniform(0.05, 0.5, size=(members, n))
    kwargs = dict(max_steps=max_steps, tol=0.0, max_period=8,
                  history="none")
    system.run_ensemble(r0[:2], structural=plan, **kwargs)  # warm-up

    ens = system.run_ensemble(r0, structural=plan, **kwargs)
    for m in range(0, members, max(1, members // verify_members)):
        traj = system.run(r0[m], max_steps=max_steps, tol=0.0,
                          max_period=8, structural=plan, fault_member=m)
        if not np.array_equal(ens.finals[m], traj.final):
            raise AssertionError(
                f"structural ensemble member {m} differs from its "
                f"scalar replay")

    def clean():
        return system.run_ensemble(r0, **kwargs)

    def chaos():
        return system.run_ensemble(r0, structural=plan, **kwargs)

    with python_loop():
        timing = paired(clean, chaos, pairs)
    member_steps = members * max_steps
    n_events = len(ens.structural_events) if ens.structural_events else 0
    result = {"n": n, "members": members, "max_steps": max_steps,
              "pairs": pairs, "structural_events": n_events,
              "clean_msteps_per_s": round(member_steps / timing.base_s),
              "chaos_msteps_per_s": round(member_steps / timing.new_s),
              "pair_ratios": timing.pair_ratios,
              "speedup": timing.speedup}
    if compiled.tier() == "cext":
        for side, fn in (("clean", clean), ("chaos", chaos)):
            result[f"{side}_kernel_msteps_per_s"] = round(
                member_steps / timed(fn)[1])
    return result


# ------------------------------------------------------------------
# The asynchronous engine
# ------------------------------------------------------------------
def _async_setup(members, n, seed):
    system = _fair_share_system(n, eta=0.1)
    schedule = ClockSchedule(RateMixClock(0.25, 1.0, 0.5, seed=3))
    starts = np.random.default_rng(seed).uniform(0.01, 0.9 / n,
                                                 size=(members, n))
    return system, schedule, starts


def bench_async_ensemble(members=256, n=16, steps=400, tau=2,
                         verify_members=4, seed=7):
    """Batched clocked ensemble vs the per-member, per-connection
    Python loop, under a slow/fast ``RateMixClock`` schedule.

    ``tol=0`` keeps every member running the full step budget so both
    sides do identical amounts of dynamics work.
    """
    system, sched, starts = _async_setup(members, n, seed)
    kwargs = dict(schedule=sched, signal_delay=tau, max_steps=steps,
                  tol=0.0)
    run_async_ensemble(system, starts[:2], **kwargs)  # warm-up

    ens = run_async_ensemble(system, starts, **kwargs)
    for m in range(0, members, max(1, members // verify_members)):
        traj = reference_run(system, starts[m], sched, tau,
                             max_steps=steps, tol=0.0)
        if ens.outcomes[m] is not traj.outcome \
                or int(ens.steps[m]) != traj.steps \
                or not np.array_equal(ens.finals[m], traj.final):
            raise AssertionError(
                f"async ensemble member {m} differs from "
                f"reference_run")

    def serial():
        for m in range(members):
            reference_run(system, starts[m], sched, tau, max_steps=steps,
                          tol=0.0)

    timing = paired(serial,
                    lambda: run_async_ensemble(system, starts, **kwargs))
    member_steps = members * steps
    return {"members": members, "connections": n, "max_steps": steps,
            "signal_delay": tau,
            "serial_s": round(timing.base_s, 4),
            "batched_s": round(timing.new_s, 4),
            "serial_msteps_per_s": round(member_steps / timing.base_s),
            "batched_msteps_per_s": round(member_steps / timing.new_s),
            "speedup": timing.speedup}


def bench_delay_ring(members=256, n=16, steps=400, tau=8,
                     verify_members=2, seed=7):
    """Batched ensemble with a deep delay line vs no delay at all: the
    ring buffer is a slot write plus a slot read per step, so the
    delayed run must keep most of the undelayed throughput."""
    system, sched, starts = _async_setup(members, n, seed)

    def batched(delay):
        return run_async_ensemble(system, starts, schedule=sched,
                                  signal_delay=delay, max_steps=steps,
                                  tol=0.0)

    batched(tau)  # warm-up
    ens = batched(tau)
    for m in range(0, members, max(1, members // verify_members)):
        traj = reference_run(system, starts[m], sched, tau,
                             max_steps=steps, tol=0.0)
        if not np.array_equal(ens.finals[m], traj.final):
            raise AssertionError(
                f"delayed ensemble member {m} differs from "
                f"reference_run")
    timing = paired(lambda: batched(0), lambda: batched(tau))
    return {"members": members, "connections": n, "max_steps": steps,
            "signal_delay": tau,
            "undelayed_s": round(timing.base_s, 4),
            "delayed_s": round(timing.new_s, 4),
            "speedup": timing.speedup}


# ------------------------------------------------------------------
# The compiled tier
# ------------------------------------------------------------------
_RATES = np.array([0.2, 0.2, 0.25, 0.15])


def _simulation(engine, disc, **options):
    """Four sources through one gateway with latency 0.5 (``options``:
    buffer sizes and drop policy)."""
    net = single_gateway(4, mu=1.0).with_latencies({"g0": 0.5})
    return NetworkSimulation(net, discipline_kind=disc, seed=11,
                             initial_rates=_RATES, engine=engine,
                             **options)


def _closed_loop(sim, horizon, intervals):
    """Simulate ``intervals`` control windows with a rate update
    between each (what the closed loop does)."""
    window = horizon / intervals
    for k in range(intervals):
        sim.run_for(window)
        sim.set_rates(_RATES * (1.0 + 0.1 * ((k % 3) - 1)))
    return sim


def _call_cost_us(engine, disc, calls, options):
    """µs per ``run_for(1.0)`` after a 10-unit warm-up: what one call
    costs beyond its ~2.4 events."""
    sim = _simulation(engine, disc, **options)
    sim.run_for(10.0)
    t0 = time.perf_counter()
    for _ in range(calls):
        sim.run_for(1.0)
    return (time.perf_counter() - t0) / calls * 1e6


def bench_packet_loop(disc, options, pairs=7, horizon=20000.0,
                      intervals=20, calls=2000):
    """Fast/compiled events per second on the closed-loop workload of
    ``disc``, and each side's cost per 1-unit call.

    The simulations are built before timing, so the ratio compares the
    event loops alone.
    """
    sims = {engine: iter([_simulation(engine, disc, **options)
                          for _ in range(pairs)])
            for engine in ("fast", "auto")}
    timing = paired(
        lambda: _closed_loop(next(sims["fast"]), horizon, intervals),
        lambda: _closed_loop(next(sims["auto"]), horizon, intervals),
        pairs)
    fast, comp = timing.base_out, timing.new_out
    assert comp.engine == "compiled"
    assert fast.events_processed == comp.events_processed, \
        "engines processed different event counts"
    assert np.array_equal(fast.mean_queue_lengths()["g0"],
                          comp.mean_queue_lengths()["g0"]), \
        "mean queues differ between engines"
    assert np.array_equal(fast.throughput(), comp.throughput()), \
        "throughput differs between engines"
    drops = comp.drop_fractions()["g0"]
    assert np.array_equal(fast.drop_fractions()["g0"], drops), \
        "drop fractions differ between engines"
    if "buffer_sizes" in options:
        assert drops.sum() > 0, "the buffer never overflowed"
    fast_us = [_call_cost_us("fast", disc, calls, options)
               for _ in range(pairs)]
    compiled_us = [_call_cost_us("auto", disc, calls, options)
                   for _ in range(pairs)]
    return {"pairs": pairs, "horizon": horizon, "intervals": intervals,
            "fast_events_per_s": round(fast.events_processed
                                       / timing.base_s),
            "compiled_events_per_s": round(comp.events_processed
                                           / timing.new_s),
            "pair_ratios": timing.pair_ratios,
            "speedup": timing.speedup,
            "fast_us_per_call": round(statistics.median(fast_us), 2),
            "compiled_us_per_call": round(statistics.median(compiled_us),
                                          2)}


def _rows_equal(rows_a, rows_b):
    """Cell-wise equality that treats nan == nan (silent connections
    report nan delays on both engines)."""
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        for cell_a, cell_b in zip(row_a, row_b):
            if cell_a != cell_b and not (
                    isinstance(cell_a, float) and isinstance(cell_b, float)
                    and np.isnan(cell_a) and np.isnan(cell_b)):
                return False
    return True


def bench_f12(pairs=5, horizon=30000.0, warmup=3000.0, loop_steps=50,
              loop_interval=400.0):
    """F12 end to end (three open-loop queue-law validations and a
    closed loop) on the fast and compiled engines; their rows are
    checked equal before any timing."""
    kwargs = dict(horizon=horizon, warmup=warmup, loop_steps=loop_steps,
                  loop_interval=loop_interval)
    if not _rows_equal(run_f12_sim_validation(engine="fast", **kwargs).rows,
                       run_f12_sim_validation(engine="auto", **kwargs).rows):
        raise AssertionError("F12 rows differ between engines")
    timing = paired(lambda: run_f12_sim_validation(engine="fast", **kwargs),
                    lambda: run_f12_sim_validation(engine="auto", **kwargs),
                    pairs)
    return {"pairs": pairs, "horizon": horizon, "loop_steps": loop_steps,
            "fast_s": round(timing.base_s, 4),
            "compiled_s": round(timing.new_s, 4),
            "pair_ratios": timing.pair_ratios,
            "speedup": timing.speedup}


def bench_fs_queue_law(pairs=7, members=64, n=512, reps=30, seed=5):
    """The numpy sorted Fair Share queue law vs the compiled kernel on
    a ``(members, n)`` batch, ``reps`` evaluations per timing."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 2.0 / n, size=(members, n))
    rates[0, :8] = 0.0                      # idle sources
    rates[1] = 2.0 / n                      # overloaded row

    def reps_of(kernel):
        def run():
            for _ in range(reps):
                out = kernel(rates, 1.0)
            return out
        return run

    timing = paired(reps_of(_sorted_queues), reps_of(compiled.fs_queue_batch),
                    pairs)
    assert np.array_equal(timing.base_out, timing.new_out), \
        "compiled queue law differs from the sorted pipeline"
    return {"pairs": pairs, "members": members, "n": n, "reps": reps,
            "sorted_s": round(timing.base_s, 4),
            "compiled_s": round(timing.new_s, 4),
            "pair_ratios": timing.pair_ratios,
            "speedup": timing.speedup}


def bench_nonlinear_signal(members=64, steps=400, pairs=3, seed=13):
    """Ensembles under the non-linear signals on the compiled loop vs
    the numpy tier (:func:`numpy_tier`): ``PowerSaturating(2)`` on
    FIFO with aggregate feedback and ``ExponentialSignal(1.3)`` on Fair
    Share with individual feedback, ``parking_lot(3)``, ``tol = 0`` so
    every member runs every step.  Both sides' member-steps/s and their
    ratio; the finals are checked equal first."""
    net = parking_lot(3)
    systems = [FlowControlSystem(net, disc, signal,
                                 TargetRule(eta=0.05, beta=0.5), style=style)
               for signal, disc, style in (
                   (PowerSaturating(2.0), Fifo(), FeedbackStyle.AGGREGATE),
                   (ExponentialSignal(1.3), FairShare(),
                    FeedbackStyle.INDIVIDUAL))]
    starts = np.random.default_rng(seed).uniform(
        0.02, 0.3, size=(members, net.num_connections))

    def run():
        return [system.run_ensemble(starts, max_steps=steps, tol=0.0,
                                    history="none") for system in systems]

    def masked():
        with numpy_tier():
            return run()

    timing = paired(masked, run, pairs)
    for numpy_res, kernel_res in zip(timing.base_out, timing.new_out):
        if numpy_res.finals.tobytes() != kernel_res.finals.tobytes():
            raise AssertionError("the compiled loop's finals differ from "
                                 "the numpy tier's")
    member_steps = sum(int(res.steps.sum()) for res in timing.new_out)
    return {"members": members, "connections": net.num_connections,
            "max_steps": steps, "pairs": pairs,
            "member_steps": member_steps,
            "numpy_s": round(timing.base_s, 4),
            "compiled_s": round(timing.new_s, 4),
            "numpy_member_steps_per_s": round(member_steps / timing.base_s),
            "compiled_member_steps_per_s": round(member_steps
                                                 / timing.new_s),
            "pair_ratios": timing.pair_ratios,
            "speedup": timing.speedup}


def bench_observe_dispatch(calls=2000, pairs=21, seed=17):
    """What a crossing into C costs beside the C work: microseconds
    per one-row ``compiled.observe_batch`` call with delays (Fair Share,
    individual feedback, ``parking_lot(3)``), the call
    :func:`~repro.scenarios.oracles.reference_run` makes every step,
    against the same ``lib.observe_batch`` call with every address
    taken once.  The ratio, bare over wrapped, is the share of the
    wrapped call that the C call itself takes; the outputs are checked
    equal first."""
    net = parking_lot(3)
    plan = FeedbackScheme(net, FairShare(), LinearSaturating(),
                          FeedbackStyle.INDIVIDUAL)._plan
    r = np.random.default_rng(seed).uniform(
        0.02, 0.3, size=(1, net.num_connections))
    b, d = np.empty_like(r), np.empty_like(r)
    lib = _cext.load()
    args = (r.ctypes.data, 1, r.shape[1], *plan.args, plan.latency,
            b.ctypes.data, d.ctypes.data)

    def bare():
        for _ in range(calls):
            lib.observe_batch(*args)
        return b, d

    def wrapped():
        for _ in range(calls):
            out = compiled.observe_batch(r, plan, True)
        return out

    timing = paired(bare, wrapped, pairs)
    for got, want in zip(timing.new_out, timing.base_out):
        if got.tobytes() != want.tobytes():
            raise AssertionError("observe_batch differs from the bare call")
    return {"calls": calls, "pairs": pairs,
            "connections": net.num_connections,
            "bare_s": round(timing.base_s, 6),
            "wrapped_s": round(timing.new_s, 6),
            "bare_us_per_call": round(timing.base_s / calls * 1e6, 3),
            "wrapped_us_per_call": round(timing.new_s / calls * 1e6, 3),
            "pair_ratios": timing.pair_ratios,
            "speedup": timing.speedup}


# ------------------------------------------------------------------
# The registry and the gate
# ------------------------------------------------------------------
class Case(NamedTuple):
    """One gated case.  ``run(**sizes)`` returns the case's numbers,
    ratio under ``speedup``; its defaults are the full sizes and
    ``quick`` the CI sizes.  ``check`` is what the case must satisfy
    beyond its ratio."""
    name: str
    run: Callable
    quick: dict
    floor: float
    quick_floor: float
    needs_c: bool = False
    check: Callable = lambda result: True


def _packet_case(name, disc, options, floor, quick_floor):
    return Case(name, functools.partial(bench_packet_loop, disc, options),
                dict(pairs=3, horizon=4000.0, intervals=8, calls=300),
                floor, quick_floor, needs_c=True)


CASES = (
    Case("ensemble", bench_ensemble,
         dict(members=64, n=8, steps=500), 5.0, 5.0),
    Case("quadratic_sweep", bench_quadratic_sweep,
         dict(points=100, transient=1000, keep=256), 3.0, 3.0),
    Case("warm_start", bench_warm_start,
         dict(points=12, passes=2), 1.5, 1.2),
    Case("memory", bench_memory,
         dict(n=4096, members=32, block_size=8, max_steps=10,
              budget_mb=64), 3.0, 2.0,
         check=lambda result: result["blocked_within_budget"]),
    Case("throughput", bench_throughput,
         dict(n=2048, members=64, block_size=16, max_steps=20, pairs=3),
         0.9, 0.85),
    Case("controlled_ensemble", bench_controlled_ensemble,
         dict(n=64, members=32, max_steps=30, pairs=3), 8.0, 4.0),
    Case("tcp_delta_batch", bench_tcp_delta_batch,
         dict(members=16, n=1024, pairs=3), 10.0, 8.0),
    Case("empty_plan", bench_empty_plan,
         dict(n=16, max_steps=500, pairs=3), 0.7, 0.5),
    Case("active_ensemble", bench_active_ensemble,
         dict(n=8, members=16, max_steps=150, pairs=3), 0.4, 0.2),
    Case("async_ensemble", bench_async_ensemble,
         dict(members=32, n=8, steps=150), 10.0, 3.0),
    Case("delay_ring", bench_delay_ring,
         dict(members=32, n=8, steps=150, tau=4), 0.5, 0.3),
    _packet_case("compiled_fifo", "fifo", {}, 6.0, 4.0),
    _packet_case("compiled_fair_share", "fair-share", {}, 8.0, 5.0),
    _packet_case("compiled_fair_queueing", "fair-queueing", {}, 8.0, 5.0),
    _packet_case("compiled_longest_drop", "fifo",
                 dict(buffer_sizes=4, drop_policy="longest"), 6.0, 4.0),
    Case("f12_end_to_end", bench_f12,
         dict(pairs=3, horizon=4000.0, warmup=400.0, loop_steps=10,
              loop_interval=200.0), 6.0, 3.0, needs_c=True),
    # The full (64, 512) shape with fewer pairs and reps: a smaller
    # batch mostly times the numpy pipeline's fixed per-call cost, not
    # the queue law the compiled kernel replaces.
    Case("fs_queue_law", bench_fs_queue_law,
         dict(pairs=3, members=64, n=512, reps=5), 2.0, 1.5, needs_c=True),
    Case("nonlinear_signal", bench_nonlinear_signal,
         dict(members=32, steps=200, pairs=3), 25.0, 15.0, needs_c=True),
    Case("observe_dispatch", bench_observe_dispatch,
         dict(calls=1000, pairs=9), 0.4, 0.4, needs_c=True),
)


def measure(quick=False, cases=CASES):
    """Run each case at its full or quick sizes: name -> numbers, or
    None for a C-tier case when the tier has not built.  Each case's
    numbers carry what measured them: the checkout's ``git_revision``
    and the UTC time, ``measured_at``, its run finished."""
    compiled.warmup()  # the C build stays out of every case's timing
    revision = git_revision()
    fresh = {}
    for case in cases:
        if case.needs_c and compiled.tier() != "cext":
            fresh[case.name] = None
            continue
        result = fresh[case.name] = case.run(**(case.quick if quick
                                                  else {}))
        result.update(git_revision=revision, measured_at=datetime.now(
            timezone.utc).isoformat(timespec="seconds"))
        absolutes = ", ".join(
            f"{key} {value}" for key, value in result.items()
            if key.endswith(("_s", "_mb", "_iterations", "_budget"))
            and not isinstance(value, dict))
        print(f"{case.name}: {result['speedup']}x; {absolutes}",
              flush=True)
    return fresh


def compare(committed, fresh, quick=False):
    """Judge fresh ratios against the registry's floors.

    Args:
        committed: the parsed ``BENCH.json``.
        fresh: case name -> numbers (``speedup`` is the ratio), or None
            for a skipped case.  The stamps :func:`measure` adds are
            not read.
        quick: judge by the quick floors alone; otherwise a ratio must
            stay within :data:`THRESHOLD` of its committed value, but is
            never judged more strictly than its floor.

    Returns:
        ``(ok, report)``: ``report`` holds one dict per case with keys
        ``name``, ``committed``, ``fresh``, ``floor``, ``ok`` and
        ``skipped``.
    """
    report = []
    for case in CASES:
        result = fresh[case.name]
        entry = committed["cases"].get(case.name)
        base = None if entry is None else float(entry["speedup"])
        if result is None:
            report.append({"name": case.name, "committed": base,
                           "fresh": None, "floor": None, "ok": True,
                           "skipped": True})
            continue
        if quick:
            floor = case.quick_floor
        else:  # a new case has no committed number yet
            floor = max(case.floor, 0.0 if base is None
                        else base * (1.0 - THRESHOLD))
        ratio = float(result["speedup"])
        report.append({"name": case.name, "committed": base,
                       "fresh": ratio, "floor": round(floor, 2),
                       "ok": ratio >= floor and bool(case.check(result)),
                       "skipped": False})
    return all(entry["ok"] for entry in report), report


def format_report(report) -> str:
    lines = []
    for entry in report:
        if entry["skipped"]:
            lines.append(f"[SKIP] {entry['name']:>22}: {SKIP_NOTICE}")
            continue
        status = "OK  " if entry["ok"] else "FAIL"
        lines.append(
            f"[{status}] {entry['name']:>22}: fresh {entry['fresh']}x "
            f"(committed {entry['committed']}x, floor {entry['floor']}x)")
    return "\n".join(lines)


def machine():
    """Where the numbers were measured: the provenance stamp, the CPU,
    the kernel tier and the C build's ``compile.cext`` span (absent
    when the library came from the cache)."""
    stamp = provenance()
    for key in ("seed", "config", "config_hash"):
        del stamp[key]
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    timers = compiled.metrics().snapshot()["timers"]
    stamp.update(cpu_model=cpu, cores=os.cpu_count(),
                 kernel_tier=compiled.tier(),
                 timers={name: {"total_seconds": round(t["total_seconds"],
                                                       4),
                                "count": t["count"]}
                         for name, t in timers.items()})
    return stamp


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--quick", action="store_true",
                        help="CI sizes, judged by the quick floors; "
                             "BENCH.json is not rewritten")
    args = parser.parse_args(argv)

    committed = json.loads(BENCH_FILE.read_text())
    fresh = measure(args.quick)
    ok, report = compare(committed, fresh, quick=args.quick)
    print(format_report(report))
    print(f"\nbench gate {'PASSED' if ok else 'FAILED'} "
          f"({'quick' if args.quick else 'full'} mode)")
    if not args.quick:
        if None in fresh.values():
            print(f"{BENCH_FILE.name} not rewritten: a case was skipped")
        else:
            payload = {"machine": machine(), "cases": fresh}
            BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")
            print(f"wrote {BENCH_FILE.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
