"""Asynchronous, delayed, and heterogeneously-clocked rate adjustment.

The model's synchronous, delay-free iteration is the assumption the
paper itself flags as most suspect: *"the lack of asynchrony in our
model certainly affects the stability results, and we are currently
investigating the extent of this effect."*  This module carries out
that investigation executably:

* **update schedules** — instead of every source updating at every
  step, a schedule picks which subset updates: round-robin (one source
  per step), independent coin flips, or the synchronous all-at-once
  baseline;
* **clock models** — a :class:`ClockModel` assigns each source its own
  update rate (uniform, slow/fast mixes, drifting, bursty), turning
  "who updates when" into a measurable heterogeneity dial;
* **feedback delay** — sources may react to congestion signals
  computed from the rate vector ``tau`` steps in the past, modelling
  the round-trip that real signals ride on.

All three knobs preserve the *steady states* (a fixed point of the
synchronous map is fixed under any schedule and any delay — connections
that update confirm the fixed point, connections that hold trivially
keep it), but change the *stability* story, and in opposite directions:

* round-robin (Gauss–Seidel-like) updating relaxes the synchronous
  overshoot: the aggregate example ``DF = I - eta 11^T`` that diverges
  synchronously for ``eta N > 2`` converges sequentially for any
  ``eta < 2`` (each update sees the others' corrections immediately);
* feedback delay destabilises: with signals ``tau`` steps stale, the
  scalar loop gain that keeps ``|1 - eta N|`` stable must shrink
  roughly like ``1 / tau``.

The X1/X2 ablation benchmarks quantify both effects; experiment F14
sweeps the clock-heterogeneity dial.

Determinism contract: every built-in schedule's participation mask is
a **pure function of (seed, step)** — no schedule object carries
mutable stream state — so scalar runs, batched ensembles, and blocked
ensembles all see identical masks regardless of call history.  The
engine, :func:`run_async_ensemble`, evolves an ``(M, N)`` ensemble
under one schedule (or one schedule per member) through the
synchronous ensemble loop of :mod:`repro.core.dynamics`, with a clock
gate and a delayed-signal ring buffer switched on;
:meth:`AsynchronousRunner.run` is its one-member call.  A shared
schedule the gate table (``_GATES``) serves runs that loop in one C
call per member block, coins and all.  The plain per-connection
reference the tests and the ``loop-equivalence`` oracle hold both to,
bit for bit, is :func:`repro.scenarios.oracles.reference_run`.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence, Union

import numpy as np

from ..backends import _cext, compiled
from ..errors import RateVectorError, SweepError
from .dynamics import EnsembleResult, FlowControlSystem, Trajectory, \
    _one_trajectory
from .math_utils import as_rate_matrix, as_rate_vector

__all__ = [
    "UpdateSchedule",
    "SynchronousSchedule",
    "RoundRobinSchedule",
    "BernoulliSchedule",
    "ClockModel",
    "UniformClock",
    "RateMixClock",
    "DriftingClock",
    "BurstyClock",
    "ClockSchedule",
    "CLOCK_KINDS",
    "clock_model",
    "AsynchronousRunner",
    "run_async_ensemble",
]


class UpdateSchedule(abc.ABC):
    """Chooses which connections update at each asynchronous step.

    Implementations must keep :meth:`participants` a pure function of
    ``(step, n)`` (randomness via counter-based seeding, never a shared
    advancing generator): the batched engine re-evaluates masks per
    member block, and blocked execution is bit-identical to one-shot
    execution only because masks do not depend on call history.
    """

    @abc.abstractmethod
    def participants(self, step: int, n: int) -> np.ndarray:
        """Boolean mask (length ``n``) of connections updating now."""

    def steps_per_sweep(self, n: int) -> int:
        """How many schedule steps give every connection one update on
        average — used to compare budgets fairly across schedules."""
        return 1


class SynchronousSchedule(UpdateSchedule):
    """Everyone updates every step: the paper's baseline."""

    def participants(self, step, n):
        return np.ones(n, dtype=bool)


class RoundRobinSchedule(UpdateSchedule):
    """One connection per step, cyclically (Gauss–Seidel)."""

    def participants(self, step, n):
        mask = np.zeros(n, dtype=bool)
        mask[step % n] = True
        return mask

    def steps_per_sweep(self, n):
        return n


class BernoulliSchedule(UpdateSchedule):
    """Each connection updates independently with probability ``p``.

    Masks are a pure function of ``(seed, step)``: a shared generator
    advancing across calls would make the schedule stateful — reusing
    one schedule object for two runs (or probing a mask out of band)
    would silently change every later trajectory.  Counter-based
    seeding keeps runs bit-identical per seed regardless of call
    history.
    """

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 < p <= 1.0:
            raise RateVectorError(
                f"update probability must lie in (0, 1], got {p!r}")
        self.p = float(p)
        self.seed = _check_seed(seed)

    def participants(self, step, n):
        rng = np.random.default_rng([self.seed, int(step)])
        return rng.random(n) < self.p

    def steps_per_sweep(self, n):
        return max(1, int(round(1.0 / self.p)))


def _check_seed(seed) -> int:
    """``seed`` as an int; :class:`~repro.errors.RateVectorError` unless
    it is an integer >= 0 (``default_rng`` takes no other seed)."""
    if isinstance(seed, (bool, np.bool_)) or \
            not isinstance(seed, (int, np.integer)) or seed < 0:
        raise RateVectorError(f"seed must be an int >= 0, got {seed!r}")
    return int(seed)


# ----------------------------------------------------------------------
# clock models
# ----------------------------------------------------------------------
def _check_rate(name: str, value: float, minimum: float = 0.0) -> float:
    value = float(value)
    if not (math.isfinite(value) and minimum < value <= 1.0):
        bound = "(0, 1]" if minimum == 0.0 else f"({minimum}, 1]"
        raise RateVectorError(
            f"{name} must lie in {bound}, got {value!r}")
    return value


class ClockModel(abc.ABC):
    """Per-source update-clock rates for heterogeneous asynchrony.

    A clock model maps ``(step, n)`` to the per-source probability that
    each connection's clock ticks — i.e. that the source applies its
    rate-adjustment rule — at that step.  All per-source randomness
    (phase offsets, slow/fast assignment, burst offsets) is drawn from
    ``default_rng([seed, i])`` so source ``i``'s clock is a pure
    function of ``(seed, i)``: adding or removing other sources never
    reshuffles an existing source's clock, and scalar/batched/blocked
    runs all agree bit-exactly.

    Wrap a model in :class:`ClockSchedule` to drive
    :class:`AsynchronousRunner` or :func:`run_async_ensemble`.
    """

    kind: str = "clock"

    def __init__(self, seed: int = 0):
        self.seed = _check_seed(seed)
        self._source_draws: dict = {}

    @abc.abstractmethod
    def tick_rates(self, step: int, n: int) -> np.ndarray:
        """Per-source tick probabilities at ``step`` (each in (0, 1])."""

    def nominal_rates(self, n: int) -> np.ndarray:
        """Long-run per-source tick rates (defaults to the step-0 rates)."""
        return self.tick_rates(0, n)

    @property
    @abc.abstractmethod
    def heterogeneity(self) -> float:
        """Ratio of the fastest to the slowest instantaneous tick rate
        the model can express; 1.0 means homogeneous clocks."""

    def fairness_index(self, n: int) -> float:
        """Jain's fairness index of the nominal tick rates — the scalar
        tracked as clock heterogeneity grows (1.0 = uniform clocks)."""
        rates = self.nominal_rates(n)
        total = float(np.sum(rates))
        if total == 0.0:
            return 1.0
        return total * total / (n * float(np.sum(rates * rates)))

    def _source_uniform(self, n: int) -> np.ndarray:
        """``u_i = default_rng([seed, i]).random()`` — cached per
        ``(seed, n)``, so a changed ``seed`` draws afresh."""
        key = (self.seed, n)
        got = self._source_draws.get(key)
        if got is None:
            got = np.array([
                np.random.default_rng([self.seed, i]).random()
                for i in range(n)
            ])
            self._source_draws[key] = got
        return got


class UniformClock(ClockModel):
    """Every source ticks at the same ``rate`` — the homogeneous
    baseline (``rate=1.0`` reduces to the synchronous schedule)."""

    kind = "uniform"

    def __init__(self, rate: float = 1.0, seed: int = 0):
        super().__init__(seed)
        self.rate = _check_rate("clock rate", rate)

    def tick_rates(self, step, n):
        return np.full(n, self.rate)

    @property
    def heterogeneity(self):
        return 1.0


class RateMixClock(ClockModel):
    """A slow/fast population mix (the CS262 slow/fast VM experiment):
    each source is independently assigned the slow clock with
    probability ``slow_fraction`` (via ``default_rng([seed, i])``) and
    ticks at its assigned rate forever after."""

    kind = "mix"

    def __init__(self, slow_rate: float = 0.25, fast_rate: float = 1.0,
                 slow_fraction: float = 0.5, seed: int = 0):
        super().__init__(seed)
        self.slow_rate = _check_rate("slow clock rate", slow_rate)
        self.fast_rate = _check_rate("fast clock rate", fast_rate)
        if self.slow_rate > self.fast_rate:
            raise RateVectorError(
                f"slow clock rate {slow_rate!r} exceeds fast clock "
                f"rate {fast_rate!r}")
        frac = float(slow_fraction)
        if not (math.isfinite(frac) and 0.0 <= frac <= 1.0):
            raise RateVectorError(
                f"slow fraction must lie in [0, 1], got {slow_fraction!r}")
        self.slow_fraction = frac

    def tick_rates(self, step, n):
        slow = self._source_uniform(n) < self.slow_fraction
        return np.where(slow, self.slow_rate, self.fast_rate)

    @property
    def heterogeneity(self):
        return self.fast_rate / self.slow_rate


class DriftingClock(ClockModel):
    """Each source's rate drifts sinusoidally around ``base_rate`` with
    its own phase (``default_rng([seed, i])``): slow and fast episodes
    wander across the population instead of being fixed per source.
    ``amplitude`` must keep every instantaneous rate inside (0, 1]."""

    kind = "drifting"

    def __init__(self, base_rate: float = 0.5, amplitude: float = 0.25,
                 period: int = 64, seed: int = 0):
        super().__init__(seed)
        self.base_rate = _check_rate("base clock rate", base_rate)
        amp = float(amplitude)
        if not (math.isfinite(amp) and 0.0 <= amp < self.base_rate):
            raise RateVectorError(
                f"drift amplitude must lie in [0, base_rate), "
                f"got {amplitude!r}")
        if self.base_rate + amp > 1.0:
            raise RateVectorError(
                f"base_rate + amplitude must stay <= 1, got "
                f"{self.base_rate + amp!r}")
        if not (isinstance(period, (int, np.integer)) and period >= 1):
            raise RateVectorError(
                f"drift period must be an int >= 1, got {period!r}")
        self.amplitude = amp
        self.period = int(period)

    def tick_rates(self, step, n):
        phase = self._source_uniform(n)
        angle = 2.0 * np.pi * (step / self.period + phase)
        return self.base_rate + self.amplitude * np.sin(angle)

    def nominal_rates(self, n):
        # The sinusoid averages out over a period.
        return np.full(n, self.base_rate)

    @property
    def heterogeneity(self):
        if self.amplitude == 0.0:
            return 1.0
        return ((self.base_rate + self.amplitude)
                / (self.base_rate - self.amplitude))


class BurstyClock(ClockModel):
    """Sources alternate between on-bursts (ticking at ``on_rate``) and
    off-bursts (``off_rate``) of ``burst_len`` steps, with per-source
    burst offsets (``default_rng([seed, i])``) so the population
    desynchronises instead of breathing in lockstep."""

    kind = "bursty"

    def __init__(self, on_rate: float = 1.0, off_rate: float = 0.1,
                 burst_len: int = 16, seed: int = 0):
        super().__init__(seed)
        self.on_rate = _check_rate("burst on rate", on_rate)
        self.off_rate = _check_rate("burst off rate", off_rate)
        if self.off_rate > self.on_rate:
            raise RateVectorError(
                f"burst off rate {off_rate!r} exceeds on rate "
                f"{on_rate!r}")
        if not (isinstance(burst_len, (int, np.integer))
                and burst_len >= 1):
            raise RateVectorError(
                f"burst length must be an int >= 1, got {burst_len!r}")
        self.burst_len = int(burst_len)

    def _offsets(self, n: int) -> np.ndarray:
        return np.floor(self._source_uniform(n)
                        * 2 * self.burst_len).astype(np.intp)

    def tick_rates(self, step, n):
        phase = ((step + self._offsets(n)) // self.burst_len) % 2
        return np.where(phase == 0, self.on_rate, self.off_rate)

    def nominal_rates(self, n):
        # Each source spends half its time in each phase.
        return np.full(n, 0.5 * (self.on_rate + self.off_rate))

    @property
    def heterogeneity(self):
        return self.on_rate / self.off_rate


#: Clock-model kinds :func:`clock_model` can build, in the order the
#: scenario grammar enumerates them.
CLOCK_KINDS = ("uniform", "mix", "drifting", "bursty")

_CLOCK_BUILDERS = {
    "uniform": UniformClock,
    "mix": RateMixClock,
    "drifting": DriftingClock,
    "bursty": BurstyClock,
}


def clock_model(kind: str, **params) -> ClockModel:
    """Build a :class:`ClockModel` by kind name (scenario grammar entry
    point).  Unknown kinds raise :class:`~repro.errors.RateVectorError`."""
    builder = _CLOCK_BUILDERS.get(kind)
    if builder is None:
        raise RateVectorError(
            f"unknown clock kind {kind!r}; known: {CLOCK_KINDS}")
    return builder(**params)


class ClockSchedule(UpdateSchedule):
    """Drive an :class:`UpdateSchedule` from a :class:`ClockModel`.

    At step ``t`` source ``i`` ticks iff ``u_i < rate_i(t)`` where the
    coin vector ``u`` is drawn from ``default_rng([seed, step])`` —
    the same counter-based contract as :class:`BernoulliSchedule`, so
    masks are a pure function of ``(seed, step)`` and scalar, batched,
    and blocked runs all see identical schedules.
    """

    def __init__(self, clock: ClockModel):
        if not isinstance(clock, ClockModel):
            raise RateVectorError(
                f"ClockSchedule needs a ClockModel, got {clock!r}")
        self.clock = clock

    def participants(self, step, n):
        rng = np.random.default_rng([self.clock.seed, int(step)])
        return rng.random(n) < self.clock.tick_rates(int(step), n)

    def steps_per_sweep(self, n):
        mean = float(np.mean(self.clock.nominal_rates(n)))
        return max(1, int(round(1.0 / mean)))


class AsynchronousRunner:
    """Run a :class:`FlowControlSystem` under a schedule and delay.

    At step ``t`` the scheduled connections apply their rule to the
    signals and delays computed from the rate vector of step
    ``t - signal_delay`` (0 = the current model); unscheduled
    connections hold their rates.  A run is the one-member call of
    :func:`run_async_ensemble`, as :meth:`FlowControlSystem.run` is of
    :meth:`FlowControlSystem.run_ensemble`.  ``schedule`` and
    ``signal_delay`` are checked here, as the ensemble checks them.
    """

    def __init__(self, system: FlowControlSystem,
                 schedule: Optional[UpdateSchedule] = None,
                 signal_delay: int = 0):
        self.system = system
        self.schedule = (SynchronousSchedule() if schedule is None
                         else _check_schedule((schedule,))[0])
        self.signal_delay = _check_delay(signal_delay)

    def run(self, initial: Sequence[float], max_steps: int = 20000,
            tol: float = 1e-10, settle: Optional[int] = None,
            max_period: int = 64) -> Trajectory:
        """Iterate; convergence requires a full quiet *sweep*.

        ``settle`` defaults to ``2 * steps_per_sweep + signal_delay + 3``
        quiet steps: a round-robin run must stay quiet for whole
        sweeps, and a delayed run must stay quiet longer than the
        delay pipeline (otherwise a stale congestion spike still in
        the buffer could pin the rates just long enough to fake a
        fixed point).  The trajectory is member 0 of
        ``run_async_ensemble(system, [initial], ..., history="full")``,
        with its record when telemetry is collected; a controller-driven
        system raises :class:`~repro.errors.SweepError`, as there.
        """
        r = as_rate_vector(initial, n=self.system.network.num_connections)
        return _one_trajectory(run_async_ensemble(
            self.system, r[None], self.schedule, self.signal_delay,
            max_steps, tol, settle, max_period, history="full"), max_steps)

    def is_steady_state(self, rates: Sequence[float],
                        tol: float = 1e-9) -> bool:
        """Fixed points coincide with the synchronous system's."""
        return self.system.is_steady_state(rates, tol=tol)


# ----------------------------------------------------------------------
# the batched asynchronous engine
# ----------------------------------------------------------------------
def _coin_gate(seed, on, off=None, offsets=None,
               burst_len: int = 1) -> Optional[compiled.Gate]:
    """A coin gate drawing ``default_rng([seed, step]).random(n)``, or
    None for a seed outside the kernel's domain (``default_rng`` raises
    on it, or it has more than eight 32-bit words)."""
    try:
        seed = _check_seed(seed)
    except RateVectorError:
        return None
    words = []
    while True:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
        if not seed:
            break
    if len(words) > 8:
        return None

    def vector(a, dtype):
        return None if a is None else np.ascontiguousarray(a, dtype=dtype)

    return compiled.Gate(_cext.GATE_COINS, np.array(words, dtype=np.uint32),
                         vector(on, np.float64), vector(off, np.float64),
                         vector(offsets, np.int64), burst_len)


def _bursty_gate(clock: BurstyClock, n: int) -> Optional[compiled.Gate]:
    burst_len = clock.burst_len
    if isinstance(burst_len, bool) or \
            not isinstance(burst_len, (int, np.integer)) or burst_len < 1:
        return None
    return _coin_gate(clock.seed, np.full(n, clock.on_rate),
                      np.full(n, clock.off_rate), clock._offsets(n),
                      int(burst_len))


#: The clocks the ensemble kernel's coin gate transcribes: clock type ->
#: its gate for n sources.  Keyed by exact type, so a subclass keeps its
#: overrides.  DriftingClock is absent: its rates come from numpy's
#: ``sin``, whose bits depend on how numpy dispatches the ufunc.  The
#: route the non-linear signal functions took would serve it:
#: ``math.sin`` in ``tick_rates`` and libm's ``sin`` in the gate, one
#: definition in both tiers.
_CLOCK_GATES = {
    UniformClock: lambda clock, n: _coin_gate(clock.seed,
                                              clock.tick_rates(0, n)),
    RateMixClock: lambda clock, n: _coin_gate(clock.seed,
                                              clock.tick_rates(0, n)),
    BurstyClock: _bursty_gate,
}

#: The shared schedules the ensemble kernel gates with: schedule type ->
#: its gate for n sources (see :class:`repro.backends.compiled.Gate`),
#: None when the kernel does not serve the instance.  Keyed by exact
#: type, like the rule table of :mod:`repro.core.ratecontrol`.
_GATES = {
    SynchronousSchedule: lambda schedule, n: compiled.NO_GATE,
    RoundRobinSchedule: lambda schedule, n: compiled.Gate(
        _cext.GATE_ROUND_ROBIN),
    BernoulliSchedule: lambda schedule, n: _coin_gate(
        schedule.seed, np.full(n, schedule.p)),
    ClockSchedule: lambda schedule, n: (
        _CLOCK_GATES[type(schedule.clock)](schedule.clock, n)
        if type(schedule.clock) in _CLOCK_GATES else None),
}


def _loop_gate(schedule: UpdateSchedule, n: int) -> Optional[compiled.Gate]:
    """The ensemble kernel's gate for a shared ``schedule`` of ``n``
    sources, or None when the kernel does not serve it.  Its parameters
    are read here, at every call, because schedules are mutable."""
    build = _GATES.get(type(schedule))
    return None if build is None else build(schedule, n)


def run_async_ensemble(system: FlowControlSystem, initials,
                       schedule: Union[UpdateSchedule,
                                       Sequence[UpdateSchedule],
                                       None] = None,
                       signal_delay: int = 0,
                       max_steps: int = 20000, tol: float = 1e-10,
                       settle: Optional[int] = None,
                       max_period: int = 64,
                       telemetry: Optional[bool] = None,
                       block_size: Optional[int] = None,
                       history: Optional[str] = None) -> EnsembleResult:
    """Evolve an ``(M, N)`` ensemble under asynchronous updates.

    The ensemble loop of :meth:`FlowControlSystem.run_ensemble` with
    two more stages switched on: the observe stage reads the rate
    vectors ``signal_delay`` steps in the past (a ``(tau + 1, M, N)``
    ring buffer), and a clock gate keeps the rates of the sources whose
    clock does not tick, after the rule groups' ``apply_batch`` has
    decided every column.  Signals, and delays when a rule reads them
    (:attr:`~repro.core.ratecontrol.RateAdjustment.reads_delay`), come
    from the same kernels as the synchronous map.
    :meth:`AsynchronousRunner.run` is its one-member call, and member
    ``m`` equals :func:`repro.scenarios.oracles.reference_run` of
    ``initials[m]`` under the same schedule and delay, the plain
    per-connection loop, bit for bit in history, final, outcome, steps
    and period.

    ``schedule`` is one :class:`UpdateSchedule` shared by every member
    (default: synchronous), or a length-M list or tuple giving each
    member its own schedule — per-member masks are stacked into an
    ``(M, N)`` participation matrix each step; anything else raises
    :class:`~repro.errors.SweepError`.  Schedules must keep
    ``participants`` a pure function of ``(step, n)`` (all built-ins
    do); stateful schedules would break blocked bit-identity.

    ``settle=None`` resolves per member to
    ``2 * steps_per_sweep + signal_delay + 3`` quiet steps: a full
    quiet sweep (see :meth:`AsynchronousRunner.run`).

    ``history`` / ``block_size`` / ``telemetry`` follow
    :meth:`FlowControlSystem.run_ensemble` exactly: the same retention
    policies, the same blocked bit-identity, the same
    ``(step, member)``-ordered mask events, and a
    :class:`~repro.observability.RunRecord` of kind
    ``"async_ensemble"`` when telemetry is collected.

    Controller-driven systems own the update clock at the gateways and
    raise :class:`~repro.errors.SweepError` — source-side schedules
    have nothing to schedule there.
    """
    tau = _check_delay(signal_delay)
    schedule = _check_schedule(schedule)
    if system.controlled:
        raise SweepError(
            "run_async_ensemble drives source-side update schedules; "
            "controller-driven systems update at the gateways and have "
            "no per-source clock to schedule")
    n = system.network.num_connections
    r0 = as_rate_matrix(initials, n=n)
    m_total = r0.shape[0]
    if schedule is None or isinstance(schedule, UpdateSchedule):
        shared = SynchronousSchedule() if schedule is None else schedule

        def gate(step, members):
            return shared.participants(step - 1, n)

        if settle is None:
            settle = 2 * shared.steps_per_sweep(n) + tau + 3
        loop_gate = _loop_gate(shared, n)
    else:
        schedules = list(schedule)
        if len(schedules) != m_total:
            raise SweepError(
                f"need one schedule per member: got {len(schedules)} "
                f"schedules for M={m_total}")

        def gate(step, members):
            return np.stack([schedules[m].participants(step - 1, n)
                             for m in members])

        if settle is None:
            settle = np.array([2 * s.steps_per_sweep(n) + tau + 3
                               for s in schedules], dtype=int)
        loop_gate = None
    return system._run_batch("async_ensemble", r0, max_steps, tol, settle,
                             max_period, telemetry, block_size, history,
                             gate=gate, tau=tau, loop_gate=loop_gate)


def _check_schedule(schedule):
    """``schedule`` if it is None, an :class:`UpdateSchedule` or a list
    or tuple of them; :class:`~repro.errors.SweepError` naming the type
    of anything else (a :class:`ClockModel` is pointed to
    :class:`ClockSchedule`)."""
    if schedule is None or isinstance(schedule, UpdateSchedule):
        return schedule
    items = schedule if isinstance(schedule, (list, tuple)) else [schedule]
    for item in items:
        if not isinstance(item, UpdateSchedule):
            hint = (f"; wrap it as ClockSchedule({type(item).__name__}"
                    f"(...))" if isinstance(item, ClockModel) else "")
            raise SweepError(
                f"schedule must be an UpdateSchedule, a list or tuple of "
                f"them, or None; got {type(item).__name__}{hint}")
    return schedule


def _check_delay(signal_delay) -> int:
    """``signal_delay`` as an int; :class:`~repro.errors.RateVectorError`
    unless it is an integer >= 0."""
    if isinstance(signal_delay, bool) or \
            not isinstance(signal_delay, (int, np.integer)) or \
            signal_delay < 0:
        raise RateVectorError(
            f"signal delay must be an int >= 0, got {signal_delay!r}")
    return int(signal_delay)
