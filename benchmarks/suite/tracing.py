"""Per-layer spans for the benchmark's traced passes.

A traced pass wraps the public entry point of every layer in
:data:`LAYERS`, runs the workload, and removes the wrappers again.  The
wrappers time each call from outside the program: nothing under
``src/`` changes.  Methods are replaced on the class that defines them;
functions are replaced in every ``repro`` module that binds them by
name, so ``from .delays import round_trip_delays`` call sites are
covered too.  Code that calls a wrapped function must therefore reach it
through a ``repro`` module, not through a name it imported itself.

Each wrapper pushes a frame on the tracer's stack.  A span's *self*
time is its duration minus the time of the wrapped calls made inside it
(its children); its *total* time is counted once per outermost frame,
so recursion through the same span is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: (span name, target).  A target is ``"module:Class.method"``,
#: ``"module:*.method"`` (every class defined in the module that defines
#: the method itself), or ``"module:function"``.  Several targets may
#: share one span name.
LAYERS: List[Tuple[str, str]] = [
    # batched fluid engine (ensemble workload)
    ("core.fairshare.queue_lengths_batch",
     "repro.core.fairshare:FairShare.queue_lengths_batch"),
    ("core.fifo.queue_lengths_batch",
     "repro.core.fifo:Fifo.queue_lengths_batch"),
    ("core.signals.signals_batch",
     "repro.core.signals:FeedbackScheme.signals_batch"),
    ("core.signals.apply_batch", "repro.core.signals:*.apply_batch"),
    ("core.delays.round_trip_delays_batch",
     "repro.core.delays:round_trip_delays_batch"),
    ("core.ratecontrol.apply_batch", "repro.core.ratecontrol:*.apply_batch"),
    ("core.math_utils.clip_nonnegative",
     "repro.core.math_utils:clip_nonnegative"),
    ("core.dynamics.step_batch",
     "repro.core.dynamics:FlowControlSystem.step_batch"),
    ("core.dynamics.run_ensemble",
     "repro.core.dynamics:FlowControlSystem.run_ensemble"),
    # fault and structural perturbation
    ("faults.FaultState.apply", "repro.faults.plan:FaultState.apply"),
    ("chaos.StructuralFaultState.resolve",
     "repro.chaos.structural:StructuralFaultState.resolve"),
    # asynchronous engine
    ("core.asynchronous.participants",
     "repro.core.asynchronous:*.participants"),
    ("core.asynchronous.run_async_ensemble",
     "repro.core.asynchronous:run_async_ensemble"),
    # router-side control
    ("core.rcp.update_batch", "repro.core.rcp:RcpBank.update_batch"),
    ("core.rcp.advertised_batch", "repro.core.rcp:RcpBank.advertised_batch"),
    # scalar path (paper and fuzz workloads)
    ("core.dynamics.run", "repro.core.dynamics:FlowControlSystem.run"),
    ("core.dynamics.step", "repro.core.dynamics:FlowControlSystem.step"),
    ("core.signals.signals", "repro.core.signals:FeedbackScheme.signals"),
    ("core.fairshare.queue_lengths",
     "repro.core.fairshare:FairShare.queue_lengths"),
    ("core.delays.round_trip_delays", "repro.core.delays:round_trip_delays"),
    ("core.stability.jacobian", "repro.core.stability:jacobian"),
    ("parallel.sweep", "repro.parallel:sweep"),
    # packet simulator (packet workload)
    ("simulation.run_for",
     "repro.simulation.network_sim:NetworkSimulation.run_for"),
    ("simulation.set_rates",
     "repro.simulation.network_sim:NetworkSimulation.set_rates"),
    ("simulation.refresh_measured_rates",
     "repro.simulation.network_sim:NetworkSimulation.refresh_measured_rates"),
    ("simulation.stats",
     "repro.simulation.network_sim:NetworkSimulation.mean_queue_lengths"),
    ("simulation.stats",
     "repro.simulation.network_sim:NetworkSimulation.mean_delays"),
    ("simulation.stats",
     "repro.simulation.network_sim:NetworkSimulation.throughput"),
    ("simulation.stats",
     "repro.simulation.network_sim:NetworkSimulation.drop_fractions"),
    ("simulation.closed_loop",
     "repro.simulation.closed_loop:run_closed_loop"),
    # fuzz harness
    ("scenarios.oracle", "repro.scenarios.oracles:run_oracle"),
    ("scenarios.generate_spec", "repro.scenarios.generator:generate_spec"),
]

#: Spans whose name depends on the call: the packet engine a simulation
#: runs on, and the oracle ``run_oracle`` is asked for.
_NAMERS: Dict[str, Callable[..., str]] = {
    "simulation.run_for":
        lambda sim, *a, **k: f"simulation.run_for.{sim.engine}",
    "scenarios.oracle": lambda name, *a, **k: f"scenarios.oracle.{name}",
}


class Tracer:
    """Accumulates count, total time and self time per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: span name -> [calls, total_s, self_s]
        self.spans: Dict[str, list] = {}
        self._stack: List[list] = []  # [name, start, child_s]
        self._depth: Dict[str, int] = {}

    def _push(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def _pop(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = self.clock() - start
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[2] += elapsed - child
        self._depth[name] -= 1
        if not self._depth[name]:
            stat[1] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    @contextmanager
    def span(self, name: str):
        """Time a block as one span (the benchmark's own unit calls)."""
        self._push(name)
        try:
            yield
        finally:
            self._pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` timed as span ``name`` (or the name its namer gives)."""
        namer = _NAMERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._push(namer(*args, **kwargs) if namer else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop()
        return traced

    def table(self) -> Dict[str, dict]:
        """``{span: {"calls", "total_s", "self_s"}}``, sorted by name."""
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.spans.items())}


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]


def _targets(target: str):
    """``(owner, attribute)`` pairs a LAYERS target names."""
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." not in qualname:
        fn = getattr(module, qualname)
        return [(m, attr) for m in _repro_modules()
                for attr, value in list(vars(m).items()) if value is fn]
    cls_name, attr = qualname.split(".")
    if cls_name != "*":
        return [(getattr(module, cls_name), attr)]
    return [(cls, attr) for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module_name
            and attr in vars(cls)
            and not getattr(vars(cls)[attr], "__isabstractmethod__", False)]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point in :data:`LAYERS`; returns the undo."""
    patched = []  # (owner, attr, original)
    for name, target in LAYERS:
        for owner, attr in _targets(target):
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(original, name))
            patched.append((owner, attr, original))
    wrappers = {id(getattr(owner, attr)): original
                for owner, attr, original in patched}

    def uninstall() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        # A module first imported during the pass bound a wrapper.
        for m in _repro_modules():
            for attr, value in list(vars(m).items()):
                if id(value) in wrappers:
                    setattr(m, attr, wrappers[id(value)])
    return uninstall
