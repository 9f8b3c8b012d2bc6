"""The benchmark's metrics: names, units, directions, bounds, and how
each is computed from one worker result (see ``worker.py``).

The names here are the benchmark's contract with ``BENCHMARK.json``;
``test_suite.py`` checks that the two agree.

Every time and rate is scaled to the reference machine's speed.  On a
shared host, neighbours slow this 2-core machine by up to 2x for
minutes at a time, which moved raw throughput by 20-30% between runs of
the same code.  The worker times a fixed computation (``SpeedProbe``)
between unit calls.  The *slowdown* during a call is the mean of the
probes before and after it over :data:`REF_PROBE_S`, the probe's time
on the reference machine.  A unit's scaled time is the median of its
samples, each divided by its slowdown; rates are work over scaled time.
Per-layer times use the run's median probe instead.  Scaled values
equal the raw ones whenever the machine runs at its reference speed.
The probe uses no code of the program, so a change to the program moves
the scaled numbers as it moves the raw ones.  Results files keep the
raw values too.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

#: The 15 paper artifacts, in registry order.
ARTIFACTS = ("T1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
             "F10", "F11", "F12", "F13", "F14")

#: The fuzz oracle catalogue.
ORACLES = ("batch-equivalence", "ensemble-equivalence",
           "blocked-equivalence", "kernel-equivalence",
           "compiled-equivalence", "fixed-point", "tsi",
           "fairness-manifold", "fs-floor", "stability", "steady-signal",
           "fault-determinism", "rcp-stability", "tcp-oscillation",
           "adversarial-floor", "async-fixed-point",
           "async-batch-equivalence")

#: Median probe time over one minute on the reference machine, a
#: 2-core "Intel(R) Xeon(R) Processor" (fingerprint in baseline.json).
REF_PROBE_S = 0.0140

#: Packet engines and ensemble sub-runs with their own throughput.
ENGINES = ("fast", "compiled", "legacy")
SUBRUNS = ("a", "b", "c", "d")

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which a change may worsen the metric before it counts as a
#: regression.  Over ten runs of one commit, scaled throughput's
#: quartile spread reached 8% while the host was quiet and 13% in a slow
#: spell: its bound is three times the former.  Set-up time, a second of
#: imports sensitive to the file cache, gets the widest bound allowed.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("work_per_s", "items/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: Spans reported with self time and call count, per traced pass.
SPANS = (
    "core.fairshare.queue_lengths_batch", "core.fifo.queue_lengths_batch",
    "core.signals.signals_batch", "core.signals.apply_batch",
    "core.delays.round_trip_delays_batch", "core.ratecontrol.apply_batch",
    "core.math_utils.clip_nonnegative", "core.dynamics.step_batch",
    "core.dynamics.run_ensemble", "faults.FaultState.apply",
    "chaos.StructuralFaultState.resolve", "core.asynchronous.participants",
    "core.asynchronous.run_async_ensemble", "core.rcp.update_batch",
    "core.rcp.advertised_batch", "core.dynamics.run", "core.dynamics.step",
    "core.signals.signals", "core.fairshare.queue_lengths",
    "core.delays.round_trip_delays", "core.stability.jacobian",
    "parallel.sweep", *(f"simulation.run_for.{e}" for e in ENGINES),
    "simulation.set_rates", "simulation.refresh_measured_rates",
    "simulation.stats", "simulation.closed_loop", "scenarios.generate_spec",
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in SPANS:
        out += [(f"{span}.self_s", "s", "lower"),
                (f"{span}.calls", "count", "lower")]
    # Oracles and artifacts run once per scenario or pass: only their
    # self time says something.
    out += [(f"scenarios.oracle.{o}.self_s", "s", "lower") for o in ORACLES]
    out += [(f"experiments.{a}.self_s", "s", "lower") for a in ARTIFACTS]
    out += [(f"simulation.run_for.{e}.events_per_s", "1/s", "higher")
            for e in ENGINES]
    out += [(f"ensemble.{k}.member_steps_per_s", "1/s", "higher")
            for k in SUBRUNS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def slowdown(probe_s: float) -> float:
    """How much slower than the reference the machine ran."""
    return probe_s / REF_PROBE_S


def rate(units, scaled: bool = True) -> float:
    """Work items per second over units, each at its median time."""
    seconds = sum(median([t / slowdown(p) if scaled else t
                          for t, p in zip(u["seconds"], u["probe_s"])])
                  for u in units)
    return sum(u["work"] for u in units) / seconds if seconds else 0.0


def end_to_end(result: dict) -> Dict[str, float]:
    """``setup_s`` is already scaled, sample by sample (``run.py``)."""
    return {"work_per_s": rate(result["units"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": result["setup_s"]}


def per_layer(result: dict) -> Dict[str, float]:
    """Per-layer metrics of a traced run; layers the workload never
    reaches read 0."""
    passes = max(result["traced_passes"], 1)
    slow = slowdown(result["probe_s"])
    spans = result["trace"] or {}
    units = {u["name"]: u for u in result["units"]}
    values: Dict[str, float] = {}
    for name, _, _ in per_layer_metrics():
        span, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = spans.get(span, {}).get(field, 0) / passes / slow
        elif field == "calls":
            values[name] = spans.get(span, {}).get(field, 0) / passes
    for engine in ENGINES:
        values[f"simulation.run_for.{engine}.events_per_s"] = rate(
            [units[f"packet.{config}"]
             for config, e in result["engines"].items() if e == engine])
    for key in SUBRUNS:
        unit = units.get(f"ensemble.{key}")
        values[f"ensemble.{key}.member_steps_per_s"] = (
            rate([unit]) if unit else 0.0)
    values["trace.overhead_s"] = (median(result["traced_pass_seconds"])
                                  - median(result["pass_seconds"])) / slow
    return values
