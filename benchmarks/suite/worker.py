"""One measured run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last line.  The
set-up time runs from the moment the parent spawned this process
(``--spawned``, a ``time.monotonic()`` reading, which is system-wide on
Linux) to the end of the workload's construction and the C-tier load.

The timed phase calls the workload's units in passes.  Every pass runs
every unit once, so each unit has as many samples as there are passes.
There are at least two passes, and more while another one brings the
phase closer to ``--seconds``.  A unit's time is the median of its
samples, which keeps a short slow spell of the machine out of the
result.  Between unit
calls the worker times a :class:`SpeedProbe`; the mean of the probes
before and after a call gives the machine's speed during it (see
``metrics.py``).

With ``--trace 1`` passes alternate untraced and traced, starting
untraced.  Untraced samples give every timing; traced passes give the
per-layer spans, reported per pass, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np

from metrics import median


class SpeedProbe:
    """Times a fixed computation that runs none of the program's code,
    so no change to the program can move it.

    Four parts of ~3 ms each on the quiet reference machine, each slowed
    by another kind of contention from neighbours on the host: small
    numpy arrays (like an engine step), a 2 MB sort, random reads from
    an 8 MB array, and Python dict and list work.  The 8 MB array is
    part of every worker's peak RSS.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = np.linspace(0.0, 1.0, 8 * 256).reshape(8, 256)
        self.medium = rng.random((256, 1024))
        self.big = rng.random(1 << 20)
        self.index = rng.integers(0, 1 << 20, 100_000)
        self()  # fault the arrays in before the first timing

    def __call__(self) -> float:
        t0 = time.perf_counter()
        a = self.small
        for _ in range(200):
            a = np.minimum(np.sort(a, axis=1) * 1.0001, 2.0)
            a.sum(axis=1)
        for _ in range(3):
            np.sort(self.medium, axis=1)
        for _ in range(5):
            self.big[self.index].sum()
        table = {i: i * 0.5 for i in range(20_000)}
        sum(table[k] for k in range(0, 20_000, 3))
        [v * 1.5 for v in table.values()]
        return time.perf_counter() - t0


def timed_phase(workload, seconds: float, trace: bool, checks, probe):
    """Run passes of the workload's units; returns per-unit samples,
    pass times, probe times and the tracer."""
    import tracing

    units = workload.units
    samples = {u.name: {"work": None, "digest": None, "seconds": [],
                        "probe_s": [], "traced_seconds": []}
               for u in units}
    pass_times = {False: [], True: []}
    probes = []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        traced = trace and len(pass_times[False]) > len(pass_times[True])
        uninstall = tracing.install(tracer) if traced else None
        pass_start = time.perf_counter()
        try:
            before = probe()
            probes.append(before)
            for unit in units:
                t0 = time.perf_counter()
                if traced:
                    with tracer.span(unit.name):
                        out = unit.call()
                else:
                    out = unit.call()
                dt = time.perf_counter() - t0
                after = probe()
                probes.append(after)
                s = samples[unit.name]
                if traced:
                    s["traced_seconds"].append(dt)
                else:
                    s["seconds"].append(dt)
                    s["probe_s"].append((before + after) / 2)
                before = after
                if s["digest"] is None:
                    s["work"], s["digest"] = out.work, out.digest
                else:
                    checks.expect(out.digest == s["digest"]
                                  and out.work == s["work"],
                                  f"{unit.name}: a repeated call gave a "
                                  f"different result")
                checks.attempted += out.attempted
                checks.failures.extend(out.failures)
        finally:
            if uninstall is not None:
                uninstall()
        pass_times[traced].append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        estimate = median(pass_times[False] + pass_times[True])
        if (sum(map(len, pass_times.values())) >= 2
                and elapsed + 0.5 * estimate >= seconds):
            break
    return samples, pass_times, probes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    import workloads
    from repro import backends
    from repro.backends import compiled

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    compiled.warmup()  # load the C tier outside the timed phase
    setup_s = time.monotonic() - args.spawned
    probe = SpeedProbe()
    setup_probe_s = median([probe() for _ in range(5)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "setup_probe_s": setup_probe_s}))
        return 0

    checks = workloads.Checks()
    samples, pass_times, probes, tracer = timed_phase(
        workload, args.seconds, bool(args.trace), checks, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.check(checks)

    result = {
        "workload": args.workload, "seed": args.seed, "setup_s": setup_s,
        "setup_probe_s": setup_probe_s, "probe_s": median(probes),
        "item": workload.item, "peak_rss_mb": peak_rss_mb,
        "passes": len(pass_times[False]),
        "traced_passes": len(pass_times[True]),
        "pass_seconds": pass_times[False],
        "traced_pass_seconds": pass_times[True],
        "units": [{"name": name, **s} for name, s in samples.items()],
        "engines": getattr(workload, "engines", {}),
        "checks": {"attempted": checks.attempted,
                   "failed": len(checks.failures),
                   "failures": checks.failures},
        "backend": backends.active().name,
        "kernel_tier": compiled.tier(),
        "trace": tracer.table() if tracer is not None else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
