"""Differential and theorem oracles for fuzzing scenarios.

Each oracle cross-checks two *redundant* ways of computing the same
physics, or checks a theorem of the paper that predicts the outcome for
a whole scenario family:

================== ====================================================
``batch-equivalence``    ``step_batch`` rows vs :func:`reference_step`,
                         plain scalar laws (the Fair Share recursion,
                         the weighted class loop, a min-broadcast
                         congestion measure) with a
                         per-connection ``rule.apply``, or
                         ``step_controlled_batch`` rows vs
                         :func:`reference_controlled_step`, RCP's
                         update law in scalar arithmetic (contract:
                         equal to <= 1e-12)
``loop-equivalence``     the scenario's runner (``run_async_ensemble``
                         and ``AsynchronousRunner`` under its clock,
                         ``run_ensemble`` and ``run`` without one) in
                         blocks of two and at ``M = 1`` vs
                         :func:`reference_run`, the plain
                         per-connection loop on the Python perturb
                         stages and controller (bit-identical)
``kernel-equivalence``   legacy vs fast packet kernels (bit-identical)
``compiled-equivalence`` fast vs compiled (runtime-built C) FIFO
                         kernels (bit-identical; not-applicable when
                         no C tier could be built)
``fixed-point``          converged trajectory is a fixed point of the
                         map, and agrees with the damped refiner
``tsi``                  Theorem 1: scaling every ``mu`` by ``c``
                         scales the steady state by ``c``
``fairness-manifold``    Theorem 2: aggregate-feedback steady states
                         lie on the steady-state manifold
``fs-floor``             Theorem 5: Fair Share guarantees each TSI
                         connection its reservation floor
``stability``            Section 3.3: an *observed* attractor has
                         Jacobian spectral radius <= 1 (+ slack)
``steady-signal``        Theorems 1/3: at a steady state every active
                         TSI connection sees exactly its target signal
``fault-determinism``    seeded fault *and structural* plans replay
                         bit-identically, and as
                         :func:`reference_run`; the empty plans are
                         bit-identical no-ops
``rcp-stability``        Voice et al.: RCP with stability factor
                         ``s < 2`` converges globally to the max-min
                         allocation of the effective capacities;
                         ``s > 2`` at a single gateway cannot converge
``tcp-oscillation``      Andrews–Slivkins: TCP-like AIMD never
                         converges nor diverges, and every
                         connection's sawtooth straddles the threshold
``adversarial-floor``    Theorem 5 under live fire: honest TSI
                         connections keep their reservation floors
                         whatever the adversary zoo does (green under
                         Fair Share; FIFO is the counterexample)
``async-fixed-point``    a synchronous fixed point is invariant under
                         every update schedule and signal delay — the
                         async engine started *at* it must stay on it
================== ====================================================

Oracles *never* raise on a violation — a violation is data (an
:class:`OracleResult` with ``passed=False``).  :class:`~repro.errors.
OracleError` is reserved for harness misuse (an unknown oracle name).

Applicability is explicit: an oracle that does not apply to a scenario
(e.g. the TSI oracle on a heterogeneous rule mix) reports
``applicable=False`` and never counts as a violation.  The tolerances
encode the engine contracts (1e-12 for vectorisation, bit-identity for
the kernels) and the numerical realities of the theorem checks
(finite-tolerance convergence, finite-difference Jacobians).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..chaos.monitor import check_robustness_floor
from ..chaos.structural import StructuralFaultPlan
from ..core.asynchronous import (AsynchronousRunner, BernoulliSchedule,
                                 RoundRobinSchedule, run_async_ensemble)
from ..core.dynamics import (FlowControlSystem, Outcome, Trajectory,
                             _detect_period)
from ..core.fairshare import FairShare, fair_share_queues_recursive
from ..core.math_utils import as_rate_vector, sup_norm
from ..core.robustness import reservation_floor_heterogeneous
from ..core.signals import FeedbackStyle, weighted_individual_congestion
from ..core.stability import jacobian, spectral_radius
from ..core.steadystate import is_aggregate_steady_state, refine
from ..core.weighted import (WeightedFairShare,
                             weighted_fair_share_queues_recursive)
from ..errors import ConvergenceError, OracleError, SweepError
from ..faults import FaultPlan
from .spec import ScenarioSpec

__all__ = [
    "OracleResult",
    "ScenarioContext",
    "ORACLES",
    "reference_observe",
    "reference_step",
    "reference_controlled_step",
    "reference_run",
    "oracle_names",
    "run_oracle",
    "run_all_oracles",
]

#: Vectorisation contract: batch rows match the plain reference to 1e-12.
BATCH_TOL = 1e-12
#: Fixed-point residual / refiner agreement, relative to the rate scale.
FIXED_POINT_TOL = 1e-6
#: Relative steady-state deviation allowed by the TSI oracle.
TSI_TOL = 1e-4
#: Manifold membership tolerance (Theorem 2).
MANIFOLD_TOL = 1e-5
#: Relative slack on the robustness floor (Theorem 5).
FLOOR_TOL = 1e-5
#: Slack on the spectral radius of an observed attractor: covers the
#: manifold's neutral eigenvalue (exactly 1) and differencing noise.
STABILITY_SLACK = 1e-2
#: Signal-vs-target tolerance for active TSI connections.
SIGNAL_TOL = 1e-4
#: Rates below this fraction of the scale count as pinned at zero.
ACTIVE_FRACTION = 1e-3
#: Margin around the RCP stability boundary ``s = 2``: scenarios inside
#: the band are inapplicable (the discrete boundary is soft).
RCP_MARGIN = 0.05
#: Relative deviation allowed between a converged RCP trajectory and
#: the analytic max-min allocation of the effective capacities.
RCP_ALLOC_TOL = 1e-4


@dataclass(frozen=True)
class OracleResult:
    """One oracle's verdict on one scenario.

    ``passed`` is meaningful only when ``applicable``; inapplicable
    results always carry ``passed=True`` so violation counting is
    simply ``not passed``.
    """

    name: str
    applicable: bool
    passed: bool
    detail: str = ""

    @property
    def violated(self) -> bool:
        return self.applicable and not self.passed

    def to_row(self):
        return (self.name, self.applicable, self.passed, self.detail)


class ScenarioContext:
    """Lazily built shared state for one scenario's oracle evaluations.

    Building the system, the probe states, and especially the
    fault-free reference trajectory is the expensive part; the context
    computes each once and shares it across the oracle catalogue (and
    across shrinker re-evaluations of the same candidate).
    """

    def __init__(self, spec: ScenarioSpec,
                 system: Optional[FlowControlSystem] = None):
        self.spec = spec
        self._system = system
        self._trajectory: Optional[Trajectory] = None
        self._probes: Optional[np.ndarray] = None

    @property
    def system(self) -> FlowControlSystem:
        if self._system is None:
            self._system = self.spec.build()
        return self._system

    @property
    def trajectory(self) -> Trajectory:
        """The fault-free reference run at the spec's budget."""
        if self._trajectory is None:
            self._trajectory = self.system.run(
                self.spec.initial(), max_steps=self.spec.max_steps,
                tol=self.spec.tol)
        return self._trajectory

    @property
    def converged(self) -> bool:
        return self.trajectory.outcome is Outcome.CONVERGED

    @property
    def probes(self) -> np.ndarray:
        """``(4, N)`` probe states: the initial condition, a scaled
        copy, a seeded random perturbation, and an overload point."""
        if self._probes is None:
            initial = self.spec.initial()
            rng = np.random.default_rng(self.spec.seed)
            perturbed = initial * rng.uniform(0.5, 1.5, size=initial.shape)
            mu_max = max(g.mu for g in self.spec.gateways)
            overload = np.full_like(
                initial, 2.0 * mu_max / len(initial))
            self._probes = np.stack(
                [initial, 0.5 * initial, perturbed, overload])
        return self._probes

    def scale(self) -> float:
        return max(1.0, float(np.max(self.trajectory.final)))


# ----------------------------------------------------------------------
# differential oracles
# ----------------------------------------------------------------------
def _reference_queues(discipline, rates: np.ndarray,
                      mu: float) -> np.ndarray:
    """The plain queue law of one gateway: the paper's recursion for
    Fair Share, the class-by-class loop for weighted Fair Share, the
    discipline's own scalar law otherwise."""
    if isinstance(discipline, FairShare):
        return fair_share_queues_recursive(rates, mu)
    if isinstance(discipline, WeightedFairShare):
        return weighted_fair_share_queues_recursive(
            rates, discipline.weights, mu)
    return discipline.queue_lengths(rates, mu)


def reference_observe(scheme, rates) -> tuple:
    """The observe stage of one rate vector along plain scalar laws:
    the bottleneck signals and round-trip delays ``(b, d)``.

    One loop over the gateways evaluates each gateway's queue law once
    (:func:`_reference_queues`) and derives from it the congestion
    measure — the total, the weighted law, or the O(n^2) min-broadcast
    ``C_i = sum_k min(Q_k, Q_i)`` — the signals ``B(C)``, their MAX
    over the route, and the Little's-law sojourns ``Q_i / r_i``, with
    the tiny-probe-rate limit for zero-rate connections.  The engine
    shares none of this code, so its observe stage against this is a
    true differential.
    """
    r = np.asarray(rates, dtype=float)
    net = scheme.network
    csr = net.csr
    b = np.zeros_like(r)
    d = np.array(csr.path_latency, dtype=float)
    for a, gname in enumerate(csr.gateway_names):
        cols = csr.members(a)
        if cols.size == 0:
            continue
        local, mu = r[cols], net.mu(gname)
        q = _reference_queues(scheme.discipline, local, mu)
        if scheme.style is FeedbackStyle.AGGREGATE:
            c = np.full(q.shape, float(np.sum(q)))
        elif scheme.weights is not None:
            c = weighted_individual_congestion(q, scheme.weights[cols])
        else:
            c = np.minimum(q[None, :], q[:, None]).sum(axis=1)
        signal = np.array([1.0 if math.isinf(ci) else scheme.signal_fn(ci)
                           for ci in c])
        b[cols] = np.maximum(b[cols], signal)
        idle = local == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            sojourn = q / local
        if idle.any():
            eps = mu * 1e-9
            probe = _reference_queues(scheme.discipline,
                                      np.where(idle, eps, local), mu)
            sojourn[idle] = probe[idle] / eps
        d[cols] += sojourn
    return b, d


def reference_step(system: FlowControlSystem, rates) -> np.ndarray:
    """One clean step of the map along plain scalar laws:
    :func:`reference_observe`, then every connection's own
    ``rule.apply`` and the clip at zero."""
    r = np.asarray(rates, dtype=float)
    b, d = reference_observe(system.scheme, r)
    new = np.array([rule.apply(float(r[i]), float(b[i]), float(d[i]))
                    for i, rule in enumerate(system.rules)])
    return np.maximum(new, 0.0)


def reference_controlled_step(system: FlowControlSystem, rates,
                              state) -> tuple:
    """One controlled step along Voice et al.'s RCP update law, in plain
    scalar arithmetic: ``(rates_next, state_next)``.

    Per gateway, the member loads summed left to right give the
    utilisation ``x = y / mu``, and the advertised rate becomes
    ``clip(R * clip(1 + alpha (1 - x) - beta x / (1 - x), 1/2, 2),
    1e-6 mu, mu)``, the queue term read as ``1e12`` once
    ``1 - x <= 1e-12``; every source then adopts the smallest
    advertised rate on its path.  It shares no code with
    :class:`~repro.core.rcp.RcpBank`.
    """
    ctl, net = system.controller, system.network
    csr = net.csr
    r = [float(v) for v in rates]
    state_next = []
    for a, gname in enumerate(csr.gateway_names):
        mu = net.mu(gname)
        load = 0.0
        for i in csr.members(a):
            load += r[i]
        x = load / mu
        queue = 1e12 if 1.0 - x <= 1e-12 else x / (1.0 - x)
        factor = min(max(1.0 + ctl.alpha * (1.0 - x) - ctl.beta * queue,
                         0.5), 2.0)
        state_next.append(min(max(float(state[a]) * factor, 1e-6 * mu),
                              mu))
    rates_next = [max(min(state_next[a] for a in csr.route(i)), 0.0)
                  for i in range(net.num_connections)]
    return np.array(rates_next), np.array(state_next)


def check_batch_equivalence(ctx: ScenarioContext) -> OracleResult:
    """``step_batch(R)[m]`` equals :func:`reference_step` on ``R[m]``
    to :data:`BATCH_TOL`.

    Controller-driven systems check the controlled pair instead —
    ``step_controlled_batch`` rows against
    :func:`reference_controlled_step` from the bank's initial state —
    covering both the advertised rates and the per-gateway controller
    state."""
    m_probes = ctx.probes.shape[0]
    if ctx.system.controlled:
        state0 = ctx.system.bank.initial_state()
        batch, states = ctx.system.step_controlled_batch(
            ctx.probes, ctx.system.bank.initial_state_batch(m_probes))
        worst = 0.0
        for m in range(m_probes):
            rates, state = reference_controlled_step(
                ctx.system, ctx.probes[m], state0)
            worst = max(worst, float(np.max(np.abs(batch[m] - rates))),
                        float(np.max(np.abs(states[m] - state))))
        return OracleResult(
            "batch-equivalence", True, worst <= BATCH_TOL,
            f"max |step_controlled_batch - reference| = {worst:.3e} over "
            f"{m_probes} probes, rates and controller state "
            f"(tol {BATCH_TOL:.0e})")
    batch = ctx.system.step_batch(ctx.probes)
    worst = 0.0
    for m in range(m_probes):
        scalar = reference_step(ctx.system, ctx.probes[m])
        worst = max(worst, float(np.max(np.abs(batch[m] - scalar))))
    return OracleResult(
        "batch-equivalence", True, worst <= BATCH_TOL,
        f"max |step_batch - reference_step| = {worst:.3e} over "
        f"{m_probes} probes (tol {BATCH_TOL:.0e})")


def reference_run(system: FlowControlSystem, initial, schedule=None,
                  signal_delay: int = 0, max_steps: int = 20000,
                  tol: float = 1e-10, settle: Optional[int] = None,
                  max_period: int = 64,
                  faults: Optional[FaultPlan] = None,
                  structural: Optional[StructuralFaultPlan] = None
                  ) -> Trajectory:
    """One run of the ensemble loop, the plain per-connection way: the
    reference that ``run``, ``run_ensemble``, ``run_async_ensemble``
    and :class:`~repro.core.asynchronous.AsynchronousRunner` answer to
    bit for bit, with their parameters.

    Each step observes the rate vector of ``signal_delay`` steps before
    with ``scheme.observe_batch`` (on the resolved structural view,
    ``b = 1`` behind a blackhole), perturbs the signals with the
    Python ``FaultState.apply``, lets each connection the schedule
    picks apply its own ``rule.apply``, and clips at zero; a
    controller-driven system steps its Python bank through
    ``step_controlled`` instead.  The rates are plain floats between
    the stages.  A non-finite rate or one above ``DIVERGENCE_FACTOR *
    max(mu)`` ends the run DIVERGED, ``settle`` quiet steps end it
    CONVERGED (``None`` is ``2 * steps_per_sweep + signal_delay + 3``,
    ``run``'s 5 for the synchronous map), and a spent budget is
    OSCILLATING or UNDECIDED by the period search.  The trajectory
    carries the plans' events.
    """
    n = system.network.num_connections
    r = as_rate_vector(initial, n=n).tolist()
    if system.controlled and (schedule is not None or signal_delay):
        raise SweepError("controller-driven systems have no source clock "
                         "or signal delay")
    if settle is None:
        sweep = 1 if schedule is None else schedule.steps_per_sweep(n)
        settle = 2 * sweep + signal_delay + 3
    fstate = None if faults is None else faults.start(network=system.network)
    sstate = None if structural is None else structural.start(system)
    ctrl = system.bank.initial_state() if system.controlled else None
    stale = deque([r] * (signal_delay + 1), maxlen=signal_delay + 1)
    history = [r]
    rules, everyone = system.rules, range(n)
    limit = FlowControlSystem.DIVERGENCE_FACTOR * max(
        system.network.mu(g) for g in system.network.gateway_names)
    quiet, outcome, period = 0, None, None
    for step in range(1, max_steps + 1):
        if ctrl is not None:
            r_next, ctrl = system.step_controlled(np.array(r), ctrl)
            r_next = r_next.tolist()
        else:
            view = None if sstate is None else sstate.resolve(step)
            scheme = system.scheme if view is None else view.scheme
            b, d = scheme.observe_batch(np.array([stale[0]]))
            b = b[0]
            if view is not None:
                b[view.blackholed] = 1.0
            if fstate is not None:
                b = fstate.apply(step, b)
            who = everyone if schedule is None else np.flatnonzero(
                schedule.participants(step - 1, n)).tolist()
            signals, delays = b.tolist(), d[0].tolist()
            r_next = r.copy()
            for i in who:
                r_next[i] = rules[i].apply(r[i], signals[i], delays[i])
            # np.maximum(x, 0.0): NaN stays, -0.0 and below become 0.0.
            r_next = [x if x > 0.0 or x != x else 0.0 for x in r_next]
        history.append(r_next)
        stale.append(r_next)
        if not all(x <= limit for x in r_next):  # NaN fails it too
            outcome = Outcome.DIVERGED
            break
        if max(abs(x - y) for x, y in zip(r_next, r)) \
                <= tol * max(1.0, max(r_next)):
            quiet += 1
            if quiet >= settle:
                outcome, period = Outcome.CONVERGED, 1
                break
        else:
            quiet = 0
        r = r_next
    history = np.array(history)
    if outcome is None:
        period = _detect_period(history, max_period, tol)
        outcome = Outcome.UNDECIDED if period is None else Outcome.OSCILLATING
    return Trajectory(history, outcome, period, history.shape[0] - 1,
                      fault_events=None if fstate is None else fstate.events,
                      structural_events=(None if sstate is None
                                         else sstate.events))


def _bits(a) -> tuple:
    """An array's shape and bytes: equal exactly when bit-identical."""
    return a.shape, a.tobytes()


def check_loop_equivalence(ctx: ScenarioContext) -> OracleResult:
    """The ensemble loop answers to :func:`reference_run`, bit for bit.

    The scenario's runner — ``run_async_ensemble`` and
    :class:`~repro.core.asynchronous.AsynchronousRunner` under its clock
    and delay (400-step budget), ``run_ensemble`` and ``run`` without
    one (600 steps) — runs the four probes in blocks of two with full
    histories, and probe 0 as its ``M = 1`` call.  That call and
    blocked members 0 and 3 must equal :func:`reference_run` of probes
    0 and 3 in history (bytes and shape), final, outcome, steps and
    period.  Member 3 sits at row 1 of the second block, so a leak of
    the row position or a slip in a later block's member offset shows;
    and since one kernel serves both engine calls, only the reference
    sees a mutant in it.  No theorem hypothesis applies, so neither
    does a skip.
    """
    spec, system, probes = ctx.spec, ctx.system, ctx.probes
    budget = min(spec.max_steps, 600 if spec.clock is None else 400)
    kwargs = dict(max_steps=budget, tol=spec.tol)
    if spec.clock is None:
        schedule, tau, label = None, 0, "synchronous"
        blocked = system.run_ensemble(probes, block_size=2,
                                      history="full", **kwargs)
        single = system.run(probes[0], **kwargs)
    else:
        schedule, tau = spec.clock.schedule(), spec.clock.signal_delay
        label = f"{spec.clock.kind} clock, delay {tau}"
        blocked = run_async_ensemble(system, probes, schedule, tau,
                                     block_size=2, history="full", **kwargs)
        single = AsynchronousRunner(system, schedule, tau).run(probes[0],
                                                               **kwargs)
    refs = {m: reference_run(system, probes[m], schedule, tau, **kwargs)
            for m in (0, 3)}
    runs = [("the M = 1 call", single, single.final, refs[0])]
    runs += [(f"blocked member {m}", blocked.trajectory(m),
              blocked.finals[m], refs[m]) for m in (0, 3)]
    for name, traj, final, ref in runs:
        for field, got, want in (
                ("history", _bits(traj.history), _bits(ref.history)),
                ("final", _bits(final), _bits(ref.final)),
                ("outcome", traj.outcome.value, ref.outcome.value),
                ("steps", traj.steps, ref.steps),
                ("period", traj.period, ref.period)):
            if got != want:
                shown = "" if field in ("history", "final") \
                    else f": {got} != {want}"
                return OracleResult(
                    "loop-equivalence", True, False,
                    f"{name}: {field} differs from reference_run{shown}")
    return OracleResult(
        "loop-equivalence", True, True,
        f"the M = 1 call and blocked members 0 and 3 bit-identical to "
        f"reference_run ({label}, {budget}-step budget)")


def check_kernel_equivalence(ctx: ScenarioContext) -> OracleResult:
    """Legacy vs fast packet kernel: bit-identical statistics.

    Applies to the disciplines both engines implement (unweighted fifo
    and fair-share).  The run is short — equivalence is exact, so a
    modest event count already has full discriminating power.
    """
    spec = ctx.spec
    if spec.discipline not in ("fifo", "fair-share"):
        return OracleResult(
            "kernel-equivalence", False, True,
            f"discipline {spec.discipline!r} has no fast kernel")
    # Local import: keeps the scenarios package usable without pulling
    # the simulation stack until this oracle actually runs.
    from ..simulation.network_sim import NetworkSimulation

    def run(engine: str) -> dict:
        sim = NetworkSimulation(
            spec.network(), discipline_kind=spec.discipline,
            seed=spec.seed, initial_rates=spec.initial(), engine=engine)
        sim.run_for(30.0)
        sim.reset_statistics()
        sim.run_for(120.0)
        return {"mql": sim.mean_queue_lengths(),
                "arr": sim.measured_arrival_rates(),
                "drop": sim.drop_fractions(),
                "thr": sim.throughput(),
                "delay": sim.mean_delays(),
                "events": sim.events_processed}

    legacy, fast = run("legacy"), run("fast")
    for key in ("mql", "arr", "drop"):
        for g in legacy[key]:
            if not np.array_equal(legacy[key][g], fast[key][g]):
                return OracleResult(
                    "kernel-equivalence", True, False,
                    f"{key}[{g}] differs between engines")
    if not np.array_equal(legacy["thr"], fast["thr"]):
        return OracleResult("kernel-equivalence", True, False,
                            "throughput differs between engines")
    if not np.array_equal(legacy["delay"], fast["delay"], equal_nan=True):
        return OracleResult("kernel-equivalence", True, False,
                            "mean delays differ between engines")
    if legacy["events"] != fast["events"]:
        return OracleResult(
            "kernel-equivalence", True, False,
            f"event counts differ: legacy {legacy['events']} vs fast "
            f"{fast['events']}")
    return OracleResult(
        "kernel-equivalence", True, True,
        f"bit-identical over {legacy['events']} events")


def check_compiled_equivalence(ctx: ScenarioContext) -> OracleResult:
    """Compiled vs fast FIFO kernel: bit-identical statistics.

    The compiled engine runs ``_run_fifo`` inside the runtime-built C
    library (:mod:`repro.backends._cext`); its contract is the same
    bit-identity the fast/legacy pair guarantees — same RNG bitstream,
    same event order, same float arithmetic.  Applies to FIFO
    scenarios (the only discipline with a compiled event loop); when
    no C tier could be built the compiled engine falls back to the
    Python loop per call, which keeps the check trivially green, so
    the oracle reports not-applicable instead of a hollow pass.
    """
    spec = ctx.spec
    if spec.discipline != "fifo":
        return OracleResult(
            "compiled-equivalence", False, True,
            f"discipline {spec.discipline!r} has no compiled kernel")
    from ..backends import compiled
    if compiled.fifo_lib() is None:
        return OracleResult(
            "compiled-equivalence", False, True,
            "no C tier available (no compiler / failed build); the "
            "compiled engine would just re-run the Python loop")
    # Local import, as in check_kernel_equivalence.
    from ..simulation.network_sim import NetworkSimulation

    def run(engine: str) -> dict:
        sim = NetworkSimulation(
            spec.network(), discipline_kind=spec.discipline,
            seed=spec.seed, initial_rates=spec.initial(), engine=engine)
        sim.run_for(30.0)
        sim.reset_statistics()
        sim.run_for(120.0)
        fallbacks = getattr(sim._engine, "fifo_fallbacks", None)
        return {"mql": sim.mean_queue_lengths(),
                "arr": sim.measured_arrival_rates(),
                "drop": sim.drop_fractions(),
                "thr": sim.throughput(),
                "delay": sim.mean_delays(),
                "events": sim.events_processed,
                "fallbacks": fallbacks}

    fast, comp = run("fast"), run("compiled")
    for key in ("mql", "arr", "drop"):
        for g in fast[key]:
            if not np.array_equal(fast[key][g], comp[key][g]):
                return OracleResult(
                    "compiled-equivalence", True, False,
                    f"{key}[{g}] differs between fast and compiled")
    if not np.array_equal(fast["thr"], comp["thr"]):
        return OracleResult("compiled-equivalence", True, False,
                            "throughput differs between fast and compiled")
    if not np.array_equal(fast["delay"], comp["delay"], equal_nan=True):
        return OracleResult("compiled-equivalence", True, False,
                            "mean delays differ between fast and compiled")
    if fast["events"] != comp["events"]:
        return OracleResult(
            "compiled-equivalence", True, False,
            f"event counts differ: fast {fast['events']} vs compiled "
            f"{comp['events']}")
    return OracleResult(
        "compiled-equivalence", True, True,
        f"bit-identical over {fast['events']} events "
        f"({comp['fallbacks']} fallbacks)")


def check_fixed_point(ctx: ScenarioContext) -> OracleResult:
    """A converged trajectory really sits on a fixed point of ``F``,
    and the damped refiner lands on the same point."""
    if ctx.spec.controller is not None:
        return OracleResult(
            "fixed-point", False, True,
            "controller state is part of the fixed point; the "
            "rcp-stability oracle checks the controlled equilibrium")
    why = _chaotic(ctx.spec)
    if why and ctx.spec.structural_plan is not None:
        # Adversaries are legal rules — their fixed point is still a
        # fixed point — but the reference run ignores structural plans.
        return OracleResult("fixed-point", False, True, why)
    if not ctx.converged:
        return OracleResult(
            "fixed-point", False, True,
            f"trajectory outcome {ctx.trajectory.outcome.value}")
    final = ctx.trajectory.final
    scale = ctx.scale()
    residual = sup_norm(ctx.system.step(final), final)
    if residual > FIXED_POINT_TOL * scale:
        return OracleResult(
            "fixed-point", True, False,
            f"residual |F(r*) - r*| = {residual:.3e} exceeds "
            f"{FIXED_POINT_TOL:.0e} * scale {scale:.3g}")
    try:
        refined = refine(ctx.system, final, tol=1e-12)
    except ConvergenceError as exc:
        # A marginally contracting map can defeat the refiner without
        # the trajectory being wrong; the residual check above is the
        # binding assertion.
        return OracleResult(
            "fixed-point", True, True,
            f"residual {residual:.3e}; refiner did not converge "
            f"({exc}) — residual check only")
    agreement = sup_norm(refined, final)
    return OracleResult(
        "fixed-point", True, agreement <= FIXED_POINT_TOL * scale,
        f"residual {residual:.3e}, refiner agreement {agreement:.3e} "
        f"(tol {FIXED_POINT_TOL:.0e} * scale {scale:.3g})")


# ----------------------------------------------------------------------
# theorem oracles
# ----------------------------------------------------------------------
def _chaotic(spec: ScenarioSpec) -> str:
    """Why the scenario sits outside a theorem oracle's hypotheses
    (adversaries / structural damage), or ``""`` when it doesn't.
    The adversarial-floor oracle owns the chaotic regime."""
    if spec.adversaries:
        return ("scenario carries adversaries; only the "
                "adversarial-floor oracle applies")
    if spec.structural_plan is not None:
        return ("scenario carries structural faults; the theorem "
                "hypotheses assume an intact network")
    return ""


def _rho_vec(ctx: ScenarioContext) -> np.ndarray:
    """Per-connection steady utilisations implied by each TSI target."""
    signal_fn = ctx.system.signal_fn
    return np.array([
        signal_fn.steady_state_utilisation(rule.target_signal())
        for rule in ctx.spec.rules])


def check_tsi(ctx: ScenarioContext) -> OracleResult:
    """Theorem 1: scaling all service rates by ``c`` scales the unique
    steady state by ``c``.

    Restricted to homogeneous TSI rules under *individual* feedback,
    where the steady state is unique (Theorem 3) — under aggregate
    feedback the scaled run may legitimately converge to a different
    point of the scaled manifold.
    """
    spec = ctx.spec
    why = _chaotic(spec)
    if why:
        return OracleResult("tsi", False, True, why)
    if not (spec.homogeneous and spec.all_tsi):
        return OracleResult("tsi", False, True,
                            "needs a homogeneous TSI rule")
    if spec.style != "individual":
        return OracleResult(
            "tsi", False, True,
            "aggregate steady states form a manifold; scaling is only "
            "point-to-point under individual feedback")
    if not ctx.converged:
        return OracleResult(
            "tsi", False, True,
            f"reference outcome {ctx.trajectory.outcome.value}")
    c = 2.0
    scaled_spec = ScenarioSpec.from_dict({
        **spec.to_dict(),
        "gateways": [{**g.to_dict(), "mu": g.mu * c}
                     for g in spec.gateways],
        "initial_rates": [c * r for r in spec.initial_rates],
    })
    # Convergence *speed* is not scale-invariant (only the steady state
    # is), so the scaled run gets a larger step budget.
    scaled = scaled_spec.build().run(
        scaled_spec.initial(),
        max_steps=min(4 * spec.max_steps, 20000), tol=spec.tol)
    if scaled.outcome is not Outcome.CONVERGED:
        return OracleResult(
            "tsi", False, True,
            f"scaled run outcome {scaled.outcome.value} within 4x "
            f"budget")
    reference = ctx.trajectory.final
    deviation = sup_norm(scaled.final / c, reference) \
        / max(1e-12, float(np.max(reference)))
    return OracleResult(
        "tsi", True, deviation <= TSI_TOL,
        f"relative deviation of r*(c mu)/c from r*(mu): "
        f"{deviation:.3e} (tol {TSI_TOL:.0e}, c={c})")


def check_fairness_manifold(ctx: ScenarioContext) -> OracleResult:
    """Theorem 2: an aggregate-feedback steady state lies on the
    manifold — no gateway above ``rho_ss``, every connection
    bottlenecked at ``rho_ss``."""
    spec = ctx.spec
    why = _chaotic(spec)
    if why:
        return OracleResult("fairness-manifold", False, True, why)
    if spec.style != "aggregate":
        return OracleResult("fairness-manifold", False, True,
                            "individual-feedback scenario")
    if not (spec.homogeneous and spec.all_tsi):
        return OracleResult("fairness-manifold", False, True,
                            "needs a homogeneous TSI rule")
    if not ctx.converged:
        return OracleResult(
            "fairness-manifold", False, True,
            f"trajectory outcome {ctx.trajectory.outcome.value}")
    rho_ss = float(_rho_vec(ctx)[0])
    member = is_aggregate_steady_state(
        ctx.system.network, rho_ss, ctx.trajectory.final,
        tol=MANIFOLD_TOL)
    return OracleResult(
        "fairness-manifold", True, member,
        f"manifold membership at rho_ss={rho_ss:.6g} "
        f"(tol {MANIFOLD_TOL:.0e})")


def check_fs_floor(ctx: ScenarioContext) -> OracleResult:
    """Theorem 5: under Fair Share with individual feedback, every TSI
    connection reaches at least its reservation floor
    ``min_a rho_ss_i mu^a / N^a``."""
    spec = ctx.spec
    why = _chaotic(spec)
    if why:
        return OracleResult("fs-floor", False, True, why)
    if spec.discipline != "fair-share" or spec.style != "individual":
        return OracleResult(
            "fs-floor", False, True,
            "needs unweighted fair-share + individual feedback")
    if not spec.all_tsi:
        return OracleResult("fs-floor", False, True,
                            "needs every rule TSI")
    if not ctx.converged:
        return OracleResult(
            "fs-floor", False, True,
            f"trajectory outcome {ctx.trajectory.outcome.value}")
    floors = reservation_floor_heterogeneous(ctx.system.network,
                                             _rho_vec(ctx))
    ratios = ctx.trajectory.final / floors
    worst = float(np.min(ratios))
    return OracleResult(
        "fs-floor", True, worst >= 1.0 - FLOOR_TOL,
        f"min r_i / floor_i = {worst:.6f} "
        f"(robust iff >= 1 - {FLOOR_TOL:.0e})")


def check_stability(ctx: ScenarioContext) -> OracleResult:
    """Section 3.3: the Jacobian at an *observed* attractor cannot be
    expanding — spectral radius at most 1 (plus slack for the neutral
    manifold eigenvalue and finite differencing)."""
    if ctx.spec.controller is not None:
        return OracleResult(
            "stability", False, True,
            "the rule-map Jacobian does not describe controlled "
            "dynamics; the rcp-stability oracle owns this check")
    why = _chaotic(ctx.spec)
    if why:
        return OracleResult("stability", False, True, why)
    if not ctx.converged:
        return OracleResult(
            "stability", False, True,
            f"trajectory outcome {ctx.trajectory.outcome.value}")
    final = ctx.trajectory.final
    scale = ctx.scale()
    if np.min(final) < ACTIVE_FRACTION * scale:
        # Central differencing across the max(0, .) kink at a pinned
        # rate produces arbitrary one-sided slopes.
        return OracleResult(
            "stability", False, True,
            "a rate is pinned at ~0; the Jacobian is one-sided there")
    # The bottleneck MAX is non-smooth where two gateways tie for a
    # connection's largest signal (common at symmetric attractors, e.g.
    # parking lots under aggregate feedback); differencing across the
    # tie mixes branches and fabricates spurious eigenvalues.
    local = ctx.system.scheme.local_signals(final)
    network = ctx.system.network
    for i in range(network.num_connections):
        per_gateway = [
            float(local[g][network.connections_at(g).index(i)])
            for g in network.gamma(i)]
        peak = max(per_gateway)
        ties = sum(1 for b in per_gateway if b >= peak - 1e-6)
        if len(per_gateway) > 1 and ties > 1:
            return OracleResult(
                "stability", False, True,
                f"connection {i} has {ties} tied bottlenecks; the "
                f"Jacobian is not defined across the MAX kink")
    sr = spectral_radius(jacobian(ctx.system, final))
    return OracleResult(
        "stability", True, sr <= 1.0 + STABILITY_SLACK,
        f"spectral radius at the attractor: {sr:.6f} "
        f"(must be <= 1 + {STABILITY_SLACK})")


def check_steady_signal(ctx: ScenarioContext) -> OracleResult:
    """Theorems 1/3: at a steady state every TSI connection that is not
    pinned at zero sees exactly its target signal ``b_ss``."""
    spec = ctx.spec
    why = _chaotic(spec)
    if why:
        return OracleResult("steady-signal", False, True, why)
    if not any(rule.tsi for rule in spec.rules):
        return OracleResult("steady-signal", False, True,
                            "no TSI rules in the mix")
    if not ctx.converged:
        return OracleResult(
            "steady-signal", False, True,
            f"trajectory outcome {ctx.trajectory.outcome.value}")
    final = ctx.trajectory.final
    scale = max(1.0, float(np.max(final)))
    signals = ctx.system.scheme.signals(final)
    worst = 0.0
    checked = 0
    for i, rule in enumerate(spec.rules):
        if not rule.tsi or final[i] < ACTIVE_FRACTION * scale:
            continue
        checked += 1
        worst = max(worst, abs(float(signals[i]) - rule.target_signal()))
    if checked == 0:
        return OracleResult("steady-signal", False, True,
                            "every TSI connection is pinned at ~0")
    return OracleResult(
        "steady-signal", True, worst <= SIGNAL_TOL,
        f"max |b_i - b_ss_i| = {worst:.3e} over {checked} active TSI "
        f"connections (tol {SIGNAL_TOL:.0e})")


def check_fault_determinism(ctx: ScenarioContext) -> OracleResult:
    """Seeded fault *and structural* plans are deterministic and the
    empty plans are bit-identical no-ops; ensemble members replay the
    scalar faulted runs exactly, for both plan families, and
    :func:`reference_run`, on the Python perturb stages, gives the
    faulted and the damaged run's history and events (``run`` and
    ``run_ensemble`` share one kernel, so only the reference checks its
    perturb stages off it)."""
    spec = ctx.spec
    if spec.fault_plan is None and spec.structural_plan is None:
        return OracleResult("fault-determinism", False, True,
                            "scenario carries no fault or structural "
                            "plan")
    budget = min(spec.max_steps, 400)
    initial = spec.initial()
    system = ctx.system
    initials = np.stack([initial, 0.9 * initial])
    n_signal = n_struct = 0

    if spec.fault_plan is not None:
        def faulted():
            return system.run(initial, max_steps=budget, tol=spec.tol,
                              faults=spec.build_fault_plan())

        first, second = faulted(), faulted()
        if not np.array_equal(first.history, second.history):
            return OracleResult(
                "fault-determinism", True, False,
                "two runs of the same seeded plan diverge")
        if (first.fault_events or []) != (second.fault_events or []):
            return OracleResult(
                "fault-determinism", True, False,
                "two runs of the same seeded plan inject different "
                "events")
        ref = reference_run(system, initial, max_steps=budget,
                            tol=spec.tol, faults=spec.build_fault_plan())
        if not np.array_equal(first.history, ref.history) \
                or first.fault_events != ref.fault_events:
            return OracleResult(
                "fault-determinism", True, False,
                "the faulted run differs from reference_run")
        plain = system.run(initial, max_steps=budget, tol=spec.tol)
        empty = system.run(initial, max_steps=budget, tol=spec.tol,
                           faults=FaultPlan())
        if not np.array_equal(plain.history, empty.history):
            return OracleResult(
                "fault-determinism", True, False,
                "the empty fault plan is not a bit-identical no-op")
        ens = system.run_ensemble(initials, max_steps=budget,
                                  tol=spec.tol,
                                  faults=spec.build_fault_plan())
        for m in range(len(ens)):
            scalar = system.run(initials[m], max_steps=budget,
                                tol=spec.tol,
                                faults=spec.build_fault_plan(),
                                fault_member=m)
            if not np.array_equal(ens.finals[m], scalar.final):
                return OracleResult(
                    "fault-determinism", True, False,
                    f"ensemble member {m} differs from the scalar "
                    f"fault run")
        n_signal = len(first.fault_events or [])

    if spec.structural_plan is not None:
        def damaged():
            return system.run(initial, max_steps=budget, tol=spec.tol,
                              structural=spec.build_structural_plan())

        first, second = damaged(), damaged()
        if not np.array_equal(first.history, second.history):
            return OracleResult(
                "fault-determinism", True, False,
                "two runs of the same structural plan diverge")
        if (first.structural_events or []) \
                != (second.structural_events or []):
            return OracleResult(
                "fault-determinism", True, False,
                "two runs of the same structural plan record "
                "different transitions")
        ref = reference_run(system, initial, max_steps=budget,
                            tol=spec.tol,
                            structural=spec.build_structural_plan())
        if not np.array_equal(first.history, ref.history) \
                or first.structural_events != ref.structural_events:
            return OracleResult(
                "fault-determinism", True, False,
                "the damaged run differs from reference_run")
        plain = system.run(initial, max_steps=budget, tol=spec.tol)
        empty = system.run(initial, max_steps=budget, tol=spec.tol,
                           structural=StructuralFaultPlan())
        if not np.array_equal(plain.history, empty.history):
            return OracleResult(
                "fault-determinism", True, False,
                "the empty structural plan is not a bit-identical "
                "no-op")
        ens = system.run_ensemble(initials, max_steps=budget,
                                  tol=spec.tol,
                                  structural=spec.build_structural_plan())
        for m in range(len(ens)):
            scalar = system.run(initials[m], max_steps=budget,
                                tol=spec.tol,
                                structural=spec.build_structural_plan(),
                                fault_member=m)
            if not np.array_equal(ens.finals[m], scalar.final):
                return OracleResult(
                    "fault-determinism", True, False,
                    f"ensemble member {m} differs from the scalar "
                    f"structural run")
        n_struct = len(first.structural_events or [])

    return OracleResult(
        "fault-determinism", True, True,
        f"plans replay identically; {n_signal} signal events, "
        f"{n_struct} structural transitions over {budget} steps")


def check_rcp_stability(ctx: ScenarioContext) -> OracleResult:
    """Voice et al.: the discrete RCP update contracts toward its fixed
    point with multiplier ``1 - s``, so a stability factor ``s`` safely
    below 2 must converge globally — and onto the max-min allocation of
    the effective capacities ``x* mu^a`` — while ``s`` safely above 2
    at a single gateway makes the fixed point repelling, so the run
    cannot converge (the beta=0 map is conjugate to the logistic map).
    Scenarios inside the ``(2(1-margin), 2(1+margin))`` band, or
    unstable multi-gateway ones (where coupling can re-stabilise),
    are inapplicable.
    """
    spec = ctx.spec
    if spec.controller is None or spec.controller.kind != "rcp":
        return OracleResult("rcp-stability", False, True,
                            "no RCP controller in this scenario")
    bank = ctx.system.bank
    s = bank.controller.stability_factor()
    if s <= 2.0 * (1.0 - RCP_MARGIN):
        if not ctx.converged:
            return OracleResult(
                "rcp-stability", True, False,
                f"stability factor s={s:.4f} < 2 but outcome is "
                f"{ctx.trajectory.outcome.value}")
        predicted = bank.predicted_allocation()
        deviation = sup_norm(ctx.trajectory.final, predicted) \
            / max(1e-12, float(np.max(predicted)))
        return OracleResult(
            "rcp-stability", True, deviation <= RCP_ALLOC_TOL,
            f"s={s:.4f}: converged; relative deviation from the "
            f"max-min allocation of x*mu: {deviation:.3e} "
            f"(tol {RCP_ALLOC_TOL:.0e})")
    if s >= 2.0 * (1.0 + RCP_MARGIN):
        if ctx.system.network.num_gateways > 1:
            return OracleResult(
                "rcp-stability", False, True,
                f"s={s:.4f} > 2 but multiple gateways; min-over-path "
                f"coupling can re-stabilise the loop")
        if ctx.converged:
            # One escape hatch: the clipped update can land *exactly*
            # on the repelling fixed point (e.g. fill * FACTOR_MAX hits
            # the fair share dead-on), and a deterministic map stays
            # there.  Exact equality is the artifact's signature; any
            # float-close-but-not-equal convergence is a real bug.
            predicted = bank.predicted_allocation()
            if np.array_equal(ctx.trajectory.final, predicted):
                return OracleResult(
                    "rcp-stability", False, True,
                    f"s={s:.4f} > 2 but the clipped update landed "
                    f"bit-exactly on the repelling fixed point")
            return OracleResult(
                "rcp-stability", True, False,
                f"stability factor s={s:.4f} > 2 at a single gateway "
                f"yet the run converged; the fixed point is repelling")
        return OracleResult(
            "rcp-stability", True, True,
            f"s={s:.4f} > 2: outcome "
            f"{ctx.trajectory.outcome.value} as predicted")
    return OracleResult(
        "rcp-stability", False, True,
        f"s={s:.4f} inside the soft boundary band around 2")


def check_tcp_oscillation(ctx: ScenarioContext) -> OracleResult:
    """Andrews-Slivkins: TCP-like AIMD has no fixed point — the
    adjustment never vanishes — so a homogeneous tcp-like scenario can
    neither converge (the increase term is bounded away from zero at
    any finite rate vector with bounded delays) nor diverge (the
    multiplicative decrease caps the sawtooth below ``mu`` plus one
    additive step).  Moreover every connection's sawtooth must straddle
    the threshold: its signal dips below (additive-increase phase) and
    reaches it (decrease phase) somewhere along the trajectory.
    """
    spec = ctx.spec
    if spec.controller is not None or spec.fault_plan is not None \
            or spec.chaotic:
        return OracleResult("tcp-oscillation", False, True,
                            "needs plain tcp-like dynamics")
    if not (spec.homogeneous and spec.rules[0].kind == "tcp-like"):
        return OracleResult("tcp-oscillation", False, True,
                            "needs a homogeneous tcp-like rule mix")
    outcome = ctx.trajectory.outcome
    if outcome is Outcome.CONVERGED:
        return OracleResult(
            "tcp-oscillation", True, False,
            "run converged, but the AIMD adjustment never vanishes — "
            "tcp-like has no fixed point")
    if outcome is Outcome.DIVERGED:
        return OracleResult(
            "tcp-oscillation", True, False,
            "run diverged, but multiplicative decrease bounds the "
            "sawtooth")
    history = ctx.trajectory.history
    signals = ctx.system.scheme.signals_batch(history)
    threshold = float(dict(spec.rules[0].params)["threshold"])
    lows = np.min(signals, axis=0)
    highs = np.max(signals, axis=0)
    for i in range(signals.shape[1]):
        if not (lows[i] < threshold <= highs[i]):
            return OracleResult(
                "tcp-oscillation", True, False,
                f"connection {i}: signal range [{lows[i]:.4f}, "
                f"{highs[i]:.4f}] never straddles the threshold "
                f"{threshold}")
    return OracleResult(
        "tcp-oscillation", True, True,
        f"{outcome.value}; every sawtooth straddles the threshold "
        f"{threshold} over {history.shape[0]} recorded steps")


def check_adversarial_floor(ctx: ScenarioContext) -> OracleResult:
    """Theorem 5 under live fire: honest TSI connections keep their
    reservation floors ``min_a rho_ss_i mu^a / N^a`` whatever the
    adversaries at the other connections do — *provided* the discipline
    satisfies the theorem's condition, which unweighted Fair Share does
    and FIFO does not.  The oracle asserts the floors regardless of the
    discipline: green on Fair Share is Theorem 5, and a violation on a
    hand-built FIFO scenario is the paper's own counterexample (the
    generator only draws adversaries behind fair-share gateways, so
    fuzzing stays green)."""
    spec = ctx.spec
    if not spec.adversaries:
        return OracleResult("adversarial-floor", False, True,
                            "no adversaries in this scenario")
    if spec.style != "individual":
        return OracleResult(
            "adversarial-floor", False, True,
            "the robustness floor is an individual-feedback statement")
    if spec.discipline not in ("fifo", "fair-share"):
        return OracleResult(
            "adversarial-floor", False, True,
            f"no floor prediction for discipline {spec.discipline!r}")
    honest = spec.honest_indices()
    if not honest:
        return OracleResult("adversarial-floor", False, True,
                            "every connection is adversarial")
    if not all(spec.rules[i].tsi for i in honest):
        return OracleResult(
            "adversarial-floor", False, True,
            "an honest connection runs a non-TSI rule; Theorem 5 "
            "protects TSI sources")
    if not ctx.converged:
        return OracleResult(
            "adversarial-floor", False, True,
            f"trajectory outcome {ctx.trajectory.outcome.value}")
    check = check_robustness_floor(
        ctx.system.network, ctx.system.signal_fn, ctx.system.rules,
        ctx.trajectory.final)
    return OracleResult(
        "adversarial-floor", True, check.holds,
        f"{spec.discipline}: {check.describe()}")


def check_async_fixed_point(ctx: ScenarioContext) -> OracleResult:
    """Schedule/delay invariance of fixed points (Section 3 of the
    asynchronous analysis): a fixed point of the synchronous map is a
    fixed point of *every* asynchronous iteration — whichever subset of
    connections updates, and however stale the signals they act on, a
    source already at ``r*`` recomputes ``r*``.  The oracle starts the
    async engine exactly on the converged synchronous state and asserts
    it stays there under the scenario's clock schedule and two
    contrasting schedules, each with the scenario's signal delay."""
    spec = ctx.spec
    if spec.clock is None:
        return OracleResult("async-fixed-point", False, True,
                            "scenario carries no clock")
    why = _chaotic(spec)
    if why:
        return OracleResult("async-fixed-point", False, True, why)
    if not ctx.converged:
        return OracleResult(
            "async-fixed-point", False, True,
            f"trajectory outcome {ctx.trajectory.outcome.value}")
    fixed = ctx.trajectory.final
    scale = ctx.scale()
    tau = spec.clock.signal_delay
    combos = [
        ("clock", spec.clock.schedule(), tau),
        ("round-robin", RoundRobinSchedule(), tau),
        ("bernoulli", BernoulliSchedule(0.5, seed=spec.seed), tau + 2),
    ]
    worst = 0.0
    for label, sched, delay in combos:
        ens = run_async_ensemble(
            ctx.system, fixed[np.newaxis], schedule=sched,
            signal_delay=delay, max_steps=min(spec.max_steps, 400),
            tol=spec.tol)
        deviation = sup_norm(ens.finals[0], fixed)
        if ens.outcomes[0] is not Outcome.CONVERGED:
            return OracleResult(
                "async-fixed-point", True, False,
                f"{label} schedule (delay {delay}): started at the "
                f"synchronous fixed point but finished "
                f"{ens.outcomes[0].value}")
        if deviation > FIXED_POINT_TOL * scale:
            return OracleResult(
                "async-fixed-point", True, False,
                f"{label} schedule (delay {delay}): drifted "
                f"{deviation:.3e} off the synchronous fixed point "
                f"(tol {FIXED_POINT_TOL:.0e} * scale {scale:.3g})")
        worst = max(worst, deviation)
    return OracleResult(
        "async-fixed-point", True, True,
        f"fixed point held under {len(combos)} schedule/delay combos "
        f"(max drift {worst:.3e})")


#: The oracle catalogue, in evaluation order.
ORACLES: Dict[str, Callable[[ScenarioContext], OracleResult]] = {
    "batch-equivalence": check_batch_equivalence,
    "loop-equivalence": check_loop_equivalence,
    "kernel-equivalence": check_kernel_equivalence,
    "compiled-equivalence": check_compiled_equivalence,
    "fixed-point": check_fixed_point,
    "tsi": check_tsi,
    "fairness-manifold": check_fairness_manifold,
    "fs-floor": check_fs_floor,
    "stability": check_stability,
    "steady-signal": check_steady_signal,
    "fault-determinism": check_fault_determinism,
    "rcp-stability": check_rcp_stability,
    "tcp-oscillation": check_tcp_oscillation,
    "adversarial-floor": check_adversarial_floor,
    "async-fixed-point": check_async_fixed_point,
}


def oracle_names() -> List[str]:
    return list(ORACLES)


def run_oracle(name: str, ctx: ScenarioContext) -> OracleResult:
    """Evaluate one oracle by name.  Raises
    :class:`~repro.errors.OracleError` for unknown names."""
    try:
        oracle = ORACLES[name]
    except KeyError:
        raise OracleError(
            f"unknown oracle {name!r} (known: {oracle_names()})") \
            from None
    return oracle(ctx)


def run_all_oracles(spec: ScenarioSpec,
                    oracles: Optional[Sequence[str]] = None,
                    system: Optional[FlowControlSystem] = None
                    ) -> List[OracleResult]:
    """Evaluate a scenario against (a subset of) the catalogue.

    ``system`` lets callers inject a pre-built (possibly instrumented)
    system — the mutation tests use this to plant a discrepancy between
    redundant paths and watch an oracle catch it.
    """
    names = oracle_names() if oracles is None else list(oracles)
    ctx = ScenarioContext(spec, system=system)
    return [run_oracle(name, ctx) for name in names]
