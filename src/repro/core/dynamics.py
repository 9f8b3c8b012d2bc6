"""Synchronous rate-adjustment dynamics ``r <- F(r)`` (Section 2.3.2).

:class:`FlowControlSystem` bundles a network, a gateway service
discipline, a congestion-signal function, a feedback style, and one
rate-adjustment rule per connection (heterogeneity is first-class — it
is the subject of the robustness results).  One synchronous step is

    ``r_i <- max(0, r_i + f_i(r_i, b_i(r), d_i(r)))``

with queue lengths assumed instantly equilibrated to the current rates,
as in the model.  :meth:`FlowControlSystem.run` iterates the map,
records the trajectory, and classifies the outcome as converged,
oscillating (a small-period limit cycle), diverged, or undecided.

A step runs in stages over an ``(M, N)`` batch of rate vectors:

1. *observe* — :meth:`FeedbackScheme.observe_batch
   <repro.core.signals.FeedbackScheme.observe_batch>` evaluates each
   gateway's queue law once and derives both the bottleneck signals
   ``b`` and the round-trip delays ``d`` from it (on the degraded view
   when a structural plan is active); ``d`` is computed only when some
   rule reads it (:attr:`RateAdjustment.reads_delay
   <repro.core.ratecontrol.RateAdjustment.reads_delay>`);
2. *perturb* — the fault plan rewrites each row's observed signals;
3. *decide* — every rule group's ``apply_batch`` over its columns (the
   whole batch when one rule covers them all), or the router-side
   controller's gateway update;
4. *gate* — the asynchronous clock mask: a source whose clock does not
   tick keeps its rate;
5. *clip* — the truncation at zero.

The scalar :meth:`FlowControlSystem.step` is the ``M = 1`` case of
:meth:`FlowControlSystem.step_batch`, so a scalar run and a member of
a batched run share every kernel and agree bit for bit.  For the
schemes the C observe kernel serves, the six built-in rules, the
built-in clock gates and built-in fault and structural injectors, and
for a router-side :class:`~repro.core.rcp.RcpController` (whose bank
then replaces observe, perturb and decide, on any scheme), each block
of the ensemble loop runs in one C call
(:func:`repro.backends.compiled.ensemble_loop`) that transcribes these
stages, the structural view, the fault perturbation and the controller
included, and the loop's tests member by member, and
:meth:`FlowControlSystem.run` is its ``M = 1`` call; the Python loops
are the fallback and the reference the tests hold it to, byte for
byte.  The public
steps validate their input; the runners validate the initial state
once and then step validated arrays, because the divergence check and
the clip already keep every next state finite and nonnegative.
:meth:`FlowControlSystem.run_ensemble` iterates the batch and masks out
members that converge or diverge, so finished trajectories stop costing
work; row ``m`` reproduces ``run(initials[m])`` exactly.  Both
ensemble runners share one blocked loop: the synchronous map is its
case with no clock gate and no feedback delay, and
:func:`repro.core.asynchronous.run_async_ensemble` passes a gate and a
delay.  The independent per-connection reference map, which the fuzz
oracles check the engine against, is
:func:`repro.scenarios.oracles.reference_step`.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import numbers
import time
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..backends import _cext, compiled
from ..errors import ConvergenceError, RateVectorError, SweepError
from ..faults import FaultEvent, FaultPlan
from ..faults.plan import LOOP_KINDS, _loop_faults
from ..observability import RunRecord, emit_run_record, is_collecting
from .delays import round_trip_delays
from .math_utils import (as_rate_matrix, as_rate_vector, clip_nonnegative,
                         sup_norm)
from .ratecontrol import RateAdjustment, RcpSourceRule, _loop_rule
from .rcp import RcpController, _loop_control
from .service import ServiceDiscipline
from .signals import FeedbackScheme, FeedbackStyle, SignalFunction
from .topology import Network

__all__ = ["Outcome", "Trajectory", "EnsembleResult", "FlowControlSystem",
           "HISTORY_POLICIES", "ensemble_buffer_bytes"]

#: Valid ``history`` policies for :meth:`FlowControlSystem.run_ensemble`.
#: ``"full"`` keeps every state of every member, ``"tail"`` keeps only
#: the rolling window period detection needs, ``"none"`` keeps no
#: history at all (cheapest; members that exhaust the step budget
#: classify UNDECIDED because there is no tail to search for a limit
#: cycle).
HISTORY_POLICIES = ("full", "tail", "none")


def ensemble_buffer_bytes(n_members: int, n_connections: int,
                          max_steps: int = 20000, max_period: int = 64,
                          history: str = "tail") -> int:
    """Bytes of trajectory buffers ``run_ensemble`` preallocates.

    Covers the dominant allocations — the ``(M, tcap, N)`` rolling tail
    (``tcap = min(4 * max_period, max_steps + 1)``), the
    ``(M, max_steps + 1, N)`` full-history buffer under
    ``history="full"``, and the ``(M, N)`` finals / initial copies —
    not the transient per-step working set, which scales with
    ``block_size * N`` rather than M.  Use it to choose a ``block_size``
    before committing to a million-member run: the tail and full
    buffers are allocated *per block*, so blocking divides those terms
    by ``M / block_size``.
    """
    if history not in HISTORY_POLICIES:
        raise SweepError(
            f"history must be one of {HISTORY_POLICIES}, got {history!r}")
    itemsize = np.dtype(float).itemsize
    base = 2 * n_members * n_connections * itemsize  # finals + initials
    tcap = min(4 * max_period, max_steps + 1)
    if history == "none":
        return base
    tail = n_members * tcap * n_connections * itemsize
    if history == "tail":
        return base + tail
    full = n_members * (max_steps + 1) * n_connections * itemsize
    return base + tail + full


class _Events:
    """An event-list field of :class:`Trajectory` and
    :class:`EnsembleResult` (a dataclass field with a descriptor
    default, whose own default is None).  It holds a list, None, or the
    pending list a kernel call left, a function that builds it, which
    the first read calls and keeps the list of, so the tuples of events
    no caller reads are never made."""

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None
        value = obj.__dict__[self._name] = _built(obj.__dict__[self._name])
        return value

    def __set__(self, obj, value):
        obj.__dict__[self._name] = value


def _built(events):
    """``events`` as a list (or None): a pending list is built."""
    return events() if callable(events) else events


class Outcome(enum.Enum):
    """How a trajectory of the iterated map ended."""

    CONVERGED = "converged"
    OSCILLATING = "oscillating"
    DIVERGED = "diverged"
    UNDECIDED = "undecided"


@dataclass
class Trajectory:
    """A recorded run of the synchronous dynamics.

    Attributes:
        history: array of shape ``(steps + 1, N)``; row 0 is the initial
            condition and the last row the final state.
        outcome: the classification of the run.
        period: detected cycle length when ``outcome`` is OSCILLATING,
            1 when CONVERGED, otherwise ``None``.
        steps: number of map applications performed.
        telemetry: the :class:`~repro.observability.RunRecord` of the
            run when telemetry was collected, otherwise ``None``.
        fault_events: the :class:`~repro.faults.FaultEvent` s a
            non-empty :class:`~repro.faults.FaultPlan` injected, in
            step order; ``None`` for fault-free runs.  A run on the
            ensemble kernel builds the list at its first read.
        structural_events: the
            :class:`~repro.chaos.structural.StructuralEvent` window
            transitions a non-empty
            :class:`~repro.chaos.structural.StructuralFaultPlan`
            produced, in step order; ``None`` for structurally clean
            runs.  Built at the first read, as ``fault_events``.
    """

    history: np.ndarray
    outcome: Outcome
    period: Optional[int]
    steps: int
    telemetry: Optional[RunRecord] = None
    fault_events: Optional[List[FaultEvent]] = _Events()
    structural_events: Optional[list] = _Events()

    @property
    def initial(self) -> np.ndarray:
        return self.history[0]

    @property
    def final(self) -> np.ndarray:
        return self.history[-1]

    def tail(self, k: int) -> np.ndarray:
        """The last ``k`` states (for time-average / attractor summaries)."""
        if k < 1:
            raise RateVectorError(f"tail length must be >= 1, got {k!r}")
        return self.history[-k:]


@dataclass
class EnsembleResult:
    """The outcome of a batched :meth:`FlowControlSystem.run_ensemble`.

    Attributes:
        finals: array of shape ``(M, N)`` — the last state of each
            ensemble member (row ``m`` equals ``run(initials[m]).final``).
        outcomes: per-member :class:`Outcome`, length M.
        periods: per-member detected period (1 when converged, the cycle
            length when oscillating, ``None`` otherwise).
        steps: per-member number of map applications performed.
        initials: the ``(M, N)`` initial conditions.
        histories: when the ensemble was run with ``history="full"``,
            the per-member trajectories (each
            ``(steps_m + 1, N)``).  These are *views* into the block
            history buffer, not copies — zero-copy for the common
            "wrap in a Trajectory and read" pattern; call ``.copy()``
            on one before mutating it in place.  ``None`` otherwise.
        telemetry: the :class:`~repro.observability.RunRecord` of the
            ensemble when telemetry was collected, otherwise ``None``.
        fault_events: the :class:`~repro.faults.FaultEvent` s a
            non-empty :class:`~repro.faults.FaultPlan` injected across
            all members, ordered by (step, member); ``None`` for
            fault-free runs.  Blocks the ensemble kernel ran keep their
            event logs as arrays until the first read builds the list.
        structural_events: the
            :class:`~repro.chaos.structural.StructuralEvent` window
            transitions across all members, ordered by (step, member);
            ``None`` for structurally clean runs.  Built at the first
            read, as ``fault_events``.
        history_policy: the history retention policy the run used
            (``"full"``, ``"tail"``, or ``"none"``).
        block_size: the member block size when the ensemble was run
            blocked, ``None`` when it ran as a single block.
    """

    finals: np.ndarray
    outcomes: List[Outcome]
    periods: List[Optional[int]]
    steps: np.ndarray
    initials: np.ndarray
    histories: Optional[List[np.ndarray]] = None
    telemetry: Optional[RunRecord] = None
    fault_events: Optional[List[FaultEvent]] = _Events()
    structural_events: Optional[list] = _Events()
    history_policy: str = "tail"
    block_size: Optional[int] = None

    def __len__(self) -> int:
        return self.finals.shape[0]

    def outcome_mask(self, outcome: Outcome) -> np.ndarray:
        """Boolean member mask for one outcome class."""
        return np.array([o is outcome for o in self.outcomes])

    def outcome_counts(self) -> dict:
        """``{outcome: member count}`` over the ensemble."""
        counts = {o: 0 for o in Outcome}
        for o in self.outcomes:
            counts[o] += 1
        return counts

    def trajectory(self, m: int) -> Trajectory:
        """Member ``m`` as a scalar-path :class:`Trajectory`.

        Requires the ensemble to have been run with ``history="full"``.
        """
        if self.histories is None:
            raise RateVectorError(
                "run_ensemble(..., history='full') is required to "
                "extract per-member trajectories")
        return Trajectory(self.histories[m], self.outcomes[m],
                          self.periods[m], int(self.steps[m]))


class FlowControlSystem:
    """A complete feedback flow control configuration and its dynamics."""

    #: Rates larger than ``DIVERGENCE_FACTOR * max(mu)`` mark divergence.
    DIVERGENCE_FACTOR = 1e6

    def __init__(self, network: Network, discipline: ServiceDiscipline,
                 signal_fn: SignalFunction,
                 rules: Union[RateAdjustment, Sequence[RateAdjustment]],
                 style: FeedbackStyle = FeedbackStyle.INDIVIDUAL,
                 weights=None,
                 controller: Optional[RcpController] = None):
        self.network = network
        self.discipline = discipline
        self.scheme = FeedbackScheme(network, discipline, signal_fn, style,
                                     weights=weights)
        n = network.num_connections
        if isinstance(rules, RateAdjustment):
            self.rules: List[RateAdjustment] = [rules] * n
        else:
            self.rules = list(rules)
            if len(self.rules) != n:
                raise RateVectorError(
                    f"need one rule per connection: got {len(self.rules)} "
                    f"rules for {n} connections")
        self._mu_max = max(network.mu(g) for g in network.gateway_names)
        # Batch path: group connection columns by rule object so each
        # distinct rule is applied once per step over all its columns
        # (heterogeneous configurations stay fully vectorised).
        groups: List[tuple] = []
        seen: dict = {}
        for i, rule in enumerate(self.rules):
            key = id(rule)
            if key not in seen:
                seen[key] = len(groups)
                groups.append((rule, [i]))
            else:
                groups[seen[key]][1].append(i)
        self._rule_groups = [(rule, np.asarray(cols, dtype=np.intp))
                             for rule, cols in groups]
        # A rule covering every column is applied to the whole batch,
        # without gathering and scattering its columns.
        self._sole_rule = groups[0][0] if len(groups) == 1 else None
        # The observe stage computes delays only when a rule reads them.
        self._reads_delay = any(rule.reads_delay for rule, _ in groups)
        # Router-side control (RCP): per-gateway advertised-rate state
        # replaces the per-source rule map entirely.  Sources must run
        # the degenerate RcpSourceRule so the configuration is explicit
        # about who owns the control law.
        self.controller = controller
        self._bank = None
        has_rcp_sources = any(isinstance(rule, RcpSourceRule)
                              for rule in self.rules)
        if controller is not None:
            if not all(isinstance(rule, RcpSourceRule)
                       for rule in self.rules):
                raise RateVectorError(
                    "a controller-driven system requires every "
                    "connection to run RcpSourceRule (sources adopt "
                    "advertised rates; they do not self-adjust)")
            self._bank = controller.bind(network)
        elif has_rcp_sources:
            raise RateVectorError(
                "RcpSourceRule needs a controller: without one the "
                "dynamics would be the identity map")

    @property
    def controlled(self) -> bool:
        """True when a router-side controller owns the control law."""
        return self._bank is not None

    @property
    def bank(self):
        """The bound per-gateway controller state factory, or ``None``."""
        return self._bank

    @property
    def style(self) -> FeedbackStyle:
        return self.scheme.style

    @property
    def signal_fn(self) -> SignalFunction:
        return self.scheme.signal_fn

    @property
    def homogeneous(self) -> bool:
        """True when every connection runs the same rule object."""
        return all(rule is self.rules[0] for rule in self.rules)

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    def signals(self, rates: np.ndarray) -> np.ndarray:
        """Bottleneck congestion signals ``b_i(r)``."""
        return self.scheme.signals(rates)

    def delays(self, rates: np.ndarray) -> np.ndarray:
        """Round-trip delays ``d_i(r)``."""
        return round_trip_delays(self.network, self.discipline, rates)

    # ------------------------------------------------------------------
    # the map
    # ------------------------------------------------------------------
    def step(self, rates: np.ndarray, faults=None,
             step_index: int = 1, structural=None) -> np.ndarray:
        """One synchronous application of ``F``.

        The scalar step is the ``M = 1`` case of :meth:`step_batch`: the
        vector is validated once and runs as a one-row batch through the
        same stages — observe (signals and delays from one queue-law
        evaluation per gateway), the fault perturbation, the rule
        groups' ``apply_batch``, and the clip — so it is bit-identical
        to the matching row of any ``step_batch`` call.  The
        per-gateway, per-connection reference path lives in
        :func:`repro.scenarios.oracles.reference_step`.

        ``faults`` (a :class:`~repro.faults.FaultState`, obtained from
        :meth:`FaultPlan.start <repro.faults.FaultPlan.start>`)
        perturbs the signal vector the rules observe at this step;
        ``step_index`` is the 1-based step number the injectors see.
        With ``faults=None`` the computation is exactly the fault-free
        map — no extra work, bit-identical results.

        ``structural`` (a
        :class:`~repro.chaos.structural.StructuralFaultState`, obtained
        from :meth:`StructuralFaultPlan.start
        <repro.chaos.structural.StructuralFaultPlan.start>`) resolves
        this step against a possibly damaged topology: signals and
        delays are computed on the degraded network, and connections
        through a blackholed gateway observe the saturated signal
        ``b = 1`` *before* any signal-path faults apply.  While no
        window is active the resolved view is the base network and
        scheme, so the step is bit-identical to the clean map.

        Controller-driven systems carry per-gateway state the rule map
        knows nothing about; use :meth:`step_controlled` (``run`` /
        ``run_ensemble`` dispatch automatically).
        """
        if self._bank is not None:
            raise RateVectorError(
                "system is controller-driven; use step_controlled")
        return self._step_row(
            as_rate_vector(rates, n=self.network.num_connections),
            faults, step_index, structural)

    def _step_row(self, r, faults=None, step_index: int = 1,
                  structural=None) -> np.ndarray:
        """:meth:`step` on a validated ``(N,)`` rate vector (what
        :meth:`run` iterates)."""
        rows = r[None, :]
        views = (None if structural is None
                 else [structural.resolve(step_index)])
        b, d = self._observe(rows, views)
        if faults is not None:
            b[0] = faults.apply(step_index, b[0])
        return clip_nonnegative(self._decide(rows, b, d))[0]

    def step_batch(self, rates: np.ndarray, faults=None, members=None,
                   step_index: int = 1, structural=None) -> np.ndarray:
        """One synchronous application of ``F`` to a batch of states.

        ``rates`` is an ``(M, N)`` array of M independent rate vectors
        (a single vector is promoted to a one-row batch); the result has
        the same shape and satisfies
        ``step_batch(R)[m] == step(R[m])`` for every row.

        ``faults`` is a sequence of per-member
        :class:`~repro.faults.FaultState` s indexed by *absolute*
        member number; ``members`` maps each row of ``rates`` to its
        member number (defaults to row order).  Each row's signal
        vector is perturbed by its own member state, so fault streams
        stay aligned with the scalar path even when finished members
        have been masked out of the batch.

        ``structural`` is likewise a sequence of per-member
        :class:`~repro.chaos.structural.StructuralFaultState` s indexed
        by absolute member number.  Rows are grouped by their resolved
        damage signature and each group's signals and delays are
        computed on that group's degraded network in one vectorised
        pass — equal signatures build bit-identical schemes, and every
        per-row stage is row-independent, so grouping preserves
        ``step_batch(R)[m] == step(R[m], structural=state_m)`` exactly.
        """
        if self._bank is not None:
            raise RateVectorError(
                "system is controller-driven; use step_controlled_batch")
        return self._step_rows(
            as_rate_matrix(rates, n=self.network.num_connections),
            faults, members, step_index, structural)

    def _step_rows(self, r, faults=None, members=None,
                   step_index: int = 1, structural=None, stale=None,
                   mask=None) -> np.ndarray:
        """:meth:`step_batch` on a validated ``(M, N)`` batch: the five
        stages the ensemble loop iterates.

        ``stale`` is the batch the observe stage reads instead of ``r``
        (the asynchronous engine's ``tau``-step-old states), and
        ``mask`` the clock gate, a boolean ``(N,)`` or ``(M, N)`` mask
        of the sources that update; the others keep their rates.  Both
        ``None`` is the synchronous map.
        """
        rows = members if members is not None else range(r.shape[0])
        views = (None if structural is None
                 else [structural[m].resolve(step_index) for m in rows])
        b, d = self._observe(r if stale is None else stale, views)
        if faults is not None:
            for row, m in enumerate(rows):
                b[row] = faults[m].apply(step_index, b[row])
        new = self._decide(r, b, d)
        if mask is not None:
            new = np.where(mask, new, r)
        return clip_nonnegative(new)

    def _observe(self, r, views) -> tuple:
        """The observe stage: signals and delays ``(b, d)`` of a
        validated ``(M, N)`` batch; ``d`` is ``None`` when no rule
        reads it (:attr:`RateAdjustment.reads_delay
        <repro.core.ratecontrol.RateAdjustment.reads_delay>`).

        ``views`` is ``None`` on the intact network, or one resolved
        structural view per row: rows sharing a damage signature are
        observed together on that view's degraded scheme, and
        connections through a blackholed gateway see ``b = 1``.
        """
        if views is None:
            return self._observe_on(self.scheme, r)
        groups: dict = {}
        for row, view in enumerate(views):
            groups.setdefault(view.key, (view, []))[1].append(row)
        b = np.empty_like(r)
        d = np.empty_like(r) if self._reads_delay else None
        for view, row_list in groups.values():
            sel = np.asarray(row_list, dtype=np.intp)
            bs, ds = self._observe_on(view.scheme, r[sel])
            if view.blackholed.size:
                bs[:, view.blackholed] = 1.0
            b[sel] = bs
            if d is not None:
                d[sel] = ds
        return b, d

    def _observe_on(self, scheme, r) -> tuple:
        """``(b, d)`` of ``r`` on one scheme; ``d`` only if it is read."""
        if self._reads_delay:
            return scheme.observe_batch(r)
        return scheme.signals_batch(r), None

    def _decide(self, r, b, d) -> np.ndarray:
        """The decide stage, before the clip: every rule group applied
        once over its columns, or the sole rule over the whole batch.
        ``d`` is ``None`` when no rule reads delays."""
        if self._sole_rule is not None:
            return self._sole_rule.apply_batch(r, b, d)
        new = np.empty_like(r)
        for rule, cols in self._rule_groups:
            new[:, cols] = rule.apply_batch(
                r[:, cols], b[:, cols], None if d is None else d[:, cols])
        return new

    def step_controlled(self, rates: np.ndarray,
                        state: np.ndarray) -> tuple:
        """One controlled step: gateways update, sources adopt.

        ``state`` is the ``(G,)`` advertised-rate vector (start from
        ``self.bank.initial_state()``).  Returns ``(r_next,
        state_next)`` — gateways observe the offered rates, advance
        their advertised rates, and every source adopts the path
        minimum.  A state that is not a finite ``(G,)`` vector raises
        :class:`~repro.errors.RateVectorError`.
        """
        if self._bank is None:
            raise RateVectorError(
                "system has no controller; use step")
        return self._controlled_row(
            as_rate_vector(rates, n=self.network.num_connections),
            _controller_state(state, (self._bank.num_gateways,)))

    def _controlled_row(self, r, state) -> tuple:
        """:meth:`step_controlled` on a validated rate vector."""
        state_next = self._bank.update(r, state)
        return clip_nonnegative(self._bank.advertised(state_next)), \
            state_next

    def step_controlled_batch(self, rates: np.ndarray,
                              state: np.ndarray) -> tuple:
        """Batched :meth:`step_controlled` over ``(M, N)`` rates and
        ``(M, G)`` controller state; row ``m`` is bit-identical to the
        scalar path.  A state that is not a finite ``(M, G)`` array
        with one row per rate row raises
        :class:`~repro.errors.RateVectorError`."""
        if self._bank is None:
            raise RateVectorError(
                "system has no controller; use step_batch")
        r = as_rate_matrix(rates, n=self.network.num_connections)
        return self._controlled_rows(
            r, _controller_state(state,
                                 (r.shape[0], self._bank.num_gateways)))

    def _controlled_rows(self, r, state) -> tuple:
        """:meth:`step_controlled_batch` on a validated batch."""
        state_next = self._bank.update_batch(r, state)
        return clip_nonnegative(self._bank.advertised_batch(state_next)), \
            state_next

    def residual(self, rates: np.ndarray) -> np.ndarray:
        """``F(r) - r``: zero exactly at (truncated) steady states."""
        r = as_rate_vector(rates, n=self.network.num_connections)
        return self.step(r) - r

    def is_steady_state(self, rates: np.ndarray, tol: float = 1e-9) -> bool:
        """True when ``r`` is a fixed point of the truncated map."""
        r = as_rate_vector(rates, n=self.network.num_connections)
        return sup_norm(self.step(r), r) <= tol * max(1.0, float(np.max(r)))

    # ------------------------------------------------------------------
    # trajectories
    # ------------------------------------------------------------------
    def run(self, initial: Sequence[float], max_steps: int = 20000,
            tol: float = 1e-10, settle: int = 5,
            max_period: int = 64,
            telemetry: Optional[bool] = None,
            faults: Optional[FaultPlan] = None,
            fault_member: int = 0,
            structural=None) -> Trajectory:
        """Iterate the map from ``initial`` and classify the outcome.

        Convergence requires ``settle`` consecutive steps with sup-norm
        change below ``tol * max(1, |r|_inf)``.  After the step budget,
        a limit cycle of period ``<= max_period`` is searched for in the
        trajectory tail; finding one yields OSCILLATING, otherwise
        UNDECIDED.  Any non-finite or absurdly large rate yields
        DIVERGED immediately.  ``max_steps`` must be an int >= 0,
        ``settle`` and ``max_period`` ints >= 1 and ``tol`` a finite
        real >= 0, or :class:`~repro.errors.SweepError` is raised;
        every runner checks the same way.

        ``telemetry=None`` (the default) records a
        :class:`~repro.observability.RunRecord` — per-iteration
        residuals, mask events, wall time per phase — exactly when an
        :func:`~repro.observability.collect` session is active; pass
        ``True``/``False`` to force it on or off.  The record is
        attached to the returned trajectory and emitted to any active
        sessions.

        ``faults`` injects a :class:`~repro.faults.FaultPlan` into the
        feedback path: each step's signal vector is perturbed before
        the rules see it, and every injected event is recorded on the
        trajectory (and in the run record when telemetry is on).  The
        empty plan (and ``None``) leaves the run bit-identical to the
        fault-free path.  ``fault_member`` selects the plan's RNG
        stream — member ``m`` of a faulted :meth:`run_ensemble`
        reproduces ``run(initials[m], faults=plan, fault_member=m)``.

        ``structural`` injects a
        :class:`~repro.chaos.structural.StructuralFaultPlan`: scheduled
        gateway capacity degradations and blackholes damage the
        topology the dynamics run on (see :meth:`step`), every window
        transition is recorded on the trajectory, and the empty plan
        (and ``None``) keeps the run bit-identical to the clean path.
        ``fault_member`` selects the structural jitter stream too.
        Structural plans compose with signal-path ``faults``; neither
        composes with a router-side controller.
        """
        r = as_rate_vector(initial, n=self.network.num_connections)
        _check_loop(max_steps, settle, max_period, tol)
        self._check_plans(faults, structural)
        ctrl = (self._bank.initial_state()
                if self._bank is not None else None)
        fault_state = (faults.start(network=self.network,
                                    member=fault_member)
                       if faults is not None else None)
        structural_state = (structural.start(self, member=fault_member)
                            if structural is not None else None)
        if telemetry is None:
            telemetry = is_collecting()
        rec = RunRecord.begin("run", 1, r.shape[0], max_steps, tol,
                              settle) if telemetry else None
        step_seconds = 0.0
        # Preallocate the whole history buffer.  When the step budget
        # was fully used the buffer is returned as-is (no duplicate);
        # an early exit trims with a copy so the trajectory does not
        # pin max_steps worth of memory through a view.
        history = np.empty((max_steps + 1, r.shape[0]), dtype=float)
        history[0] = r
        quiet = 0
        limit = self.DIVERGENCE_FACTOR * self._mu_max

        def trimmed(steps: int) -> np.ndarray:
            if steps == max_steps:
                return history
            return history[:steps + 1].copy()

        # The events so far: the states record them on the Python loop.
        events = [None if state is None else state.events
                  for state in (fault_state, structural_state)]

        def finish(outcome: Outcome, steps: int) -> Optional[RunRecord]:
            if rec is None:
                return None
            # The record reads every event: build the list once, for
            # the trajectory too.
            events[0] = _built(events[0])
            for event in events[0] or ():
                rec.observe_fault_event(*event)
            rec.add_phase("step", step_seconds)
            rec.finish(steps, {outcome.value: 1})
            emit_run_record(rec)
            return rec

        def fault_events() -> Optional[List[FaultEvent]]:
            return events[0]

        def structural_events() -> Optional[list]:
            return events[1]

        # The whole loop is the ensemble kernel's M = 1 call for the
        # runs it serves, with history as the member's full history; the
        # Python loop below is the fallback and the reference.
        first = 1
        agg = np.empty(max_steps) if rec is not None else None
        t0 = time.perf_counter()
        done = self._run_kernel(
            r[None], max_steps, tol, settle, full=history[None], agg=agg,
            faults=_listed(fault_state),
            structural=_listed(structural_state))
        if done is not None:
            step_seconds = time.perf_counter() - t0
            steps, status = int(done[1][0]), done[2]
            events[:] = done[3:]
            outcome = _KERNEL_OUTCOMES.get(int(status[0]))
            if rec is not None:
                series = _kernel_series(agg, done[1], status)
                if outcome is Outcome.CONVERGED:
                    # agg reads inf where no member runs on; run
                    # records the converging step's own change.
                    series[0][-1] = abs(history[steps]
                                        - history[steps - 1]).max()
                rec.observe_iterations(*series)
                if outcome is not None:
                    rec.observe_mask_event(steps, 0, outcome.value)
            if outcome is not None:
                return Trajectory(trimmed(steps), outcome,
                                  1 if outcome is Outcome.CONVERGED
                                  else None, steps,
                                  telemetry=finish(outcome, steps),
                                  fault_events=fault_events(),
                                  structural_events=structural_events())
            first = max_steps + 1  # the budget is spent
        for step_count in range(first, max_steps + 1):
            if rec is not None:
                t0 = time.perf_counter()
            if ctrl is not None:
                r_next, ctrl = self._controlled_row(r, ctrl)
            else:
                r_next = self._step_row(r, fault_state, step_count,
                                        structural_state)
            if rec is not None:
                step_seconds += time.perf_counter() - t0
            history[step_count] = r_next
            # r_next is clipped, so its largest entry is NaN, +inf or
            # above the limit exactly when the state diverged; the same
            # peak is the convergence scale.  The ndarray methods skip
            # np.max's dispatch, which costs more than a small reduction.
            peak = float(r_next.max())
            if not peak <= limit:
                if rec is not None:
                    rec.observe_iteration(math.inf, 0, 0, 1)
                    rec.observe_mask_event(step_count, 0, "diverged")
                return Trajectory(trimmed(step_count), Outcome.DIVERGED,
                                  None, step_count,
                                  telemetry=finish(Outcome.DIVERGED,
                                                   step_count),
                                  fault_events=fault_events(),
                                  structural_events=structural_events())
            change = float(abs(r_next - r).max())
            settled = False
            if change <= tol * max(1.0, peak):
                quiet += 1
                settled = quiet >= settle
            else:
                quiet = 0
            if rec is not None:
                rec.observe_iteration(change, 0 if settled else 1,
                                      1 if settled else 0, 0)
            if settled:
                if rec is not None:
                    rec.observe_mask_event(step_count, 0, "converged")
                return Trajectory(trimmed(step_count),
                                  Outcome.CONVERGED, 1, step_count,
                                  telemetry=finish(Outcome.CONVERGED,
                                                   step_count),
                                  fault_events=fault_events(),
                                  structural_events=structural_events())
            r = r_next
        if rec is not None:
            t0 = time.perf_counter()
        period = _detect_period(history, max_period, tol)
        if rec is not None:
            rec.add_phase("period_detection", time.perf_counter() - t0)
        if period is not None:
            return Trajectory(history, Outcome.OSCILLATING, period,
                              max_steps,
                              telemetry=finish(Outcome.OSCILLATING,
                                               max_steps),
                              fault_events=fault_events(),
                              structural_events=structural_events())
        return Trajectory(history, Outcome.UNDECIDED, None, max_steps,
                          telemetry=finish(Outcome.UNDECIDED, max_steps),
                          fault_events=fault_events(),
                          structural_events=structural_events())

    def _run_kernel(self, initials, max_steps, tol, settle, tau=0,
                    gate=compiled.NO_GATE, tail=None, full=None, agg=None,
                    faults=None, structural=None):
        """The ensemble loop on the member block ``initials`` in one C
        call (:func:`repro.backends.compiled.ensemble_loop`): ``(finals,
        steps, status, fault_events, structural_events)``, the events
        being what the block's fault and structural states (None
        without a plan) would have recorded, each in (step, member)
        order and built at its first read (see :class:`_Events`), or
        None.  None when the kernel does not serve this system or its
        plans (no observe plan, a rule outside the rule table, an
        injector it does not transcribe, a controller, bank or source
        rule of a subclass) or handed the block back; the states are
        untouched either way.  A controlled system needs no observe
        plan: the kernel runs its bank
        (:func:`repro.core.rcp._loop_control`) in place of the observe,
        perturb and decide stages.  The rule parameters and the
        controller's gains and initial state are read here, at every
        call, because rules and controllers are mutable."""
        plan = codes = params = perturb = control = None
        if self._bank is not None:
            control = _loop_control(self._bank, self.rules)
            if control is None:
                return None
        else:
            plan = self.scheme._plan
            if plan is None:
                return None
            n = self.network.num_connections
            codes = np.empty(n, dtype=np.int64)
            params = np.zeros((n, 3))
            for rule, cols in self._rule_groups:
                entry = _loop_rule(rule)
                if entry is None:
                    return None
                code, values = entry
                codes[cols] = code
                params[cols, :len(values)] = values
            if faults is not None or structural is not None:
                perturb = _perturbation(faults, structural, max_steps)
                if perturb is None:
                    return None
        done = compiled.ensemble_loop(
            initials, max_steps, tol, settle,
            self.DIVERGENCE_FACTOR * self._mu_max, plan, self._reads_delay,
            codes, params, tau=tau, gate=gate, tail=tail, full=full,
            agg=agg, perturb=perturb, control=control)
        if done is None:
            return None
        return (*done, *_kernel_events(perturb, faults, structural))

    def run_ensemble(self, initials, max_steps: int = 20000,
                     tol: float = 1e-10, settle: int = 5,
                     max_period: int = 64,
                     telemetry: Optional[bool] = None,
                     faults: Optional[FaultPlan] = None,
                     block_size: Optional[int] = None,
                     history: Optional[str] = None,
                     structural=None) -> EnsembleResult:
        """Iterate the map from a whole batch of initial conditions.

        ``initials`` is an ``(M, N)`` array — M starting rate vectors —
        and every member is evolved under the *same* per-step semantics
        as :meth:`run`: member ``m`` of the result matches
        ``run(initials[m], ...)`` in final state, outcome, step count,
        and period.  All M trajectories advance through one vectorised
        :meth:`step_batch` per step (validated once, up front), and
        members that converge or diverge are masked out of the batch so
        finished trajectories stop costing work.  An empty batch
        (``M = 0``) takes no step and returns well-shaped empty results.

        ``block_size`` chunks the M axis: members are evolved in
        consecutive blocks of at most ``block_size`` members, so the
        trajectory buffers (and the per-step working set) scale with
        the block, not with M — this is what makes M ~ 10^6 ensembles
        runnable out of core.  Members are independent, so blocked
        execution is *bit-identical* to the one-shot path in finals,
        outcomes, steps, periods, and mask events.  ``None`` (default)
        runs a single block.  ``block_size <= 0`` raises
        :class:`~repro.errors.SweepError`; a block size larger than M
        warns and runs as a single block.

        ``history`` selects how much trajectory state is retained:

        - ``"full"`` — every state of every member.  Memory:
          ``block * (max_steps + 1) * N`` floats per block, and the
          returned ``histories`` views keep each block's buffer alive.
        - ``"tail"`` (default) — only the rolling
          ``min(4 * max_period, max_steps + 1)``-state tail that
          limit-cycle detection needs.
        - ``"none"`` — no history at all.  Cheapest; the one semantic
          change is that members exhausting the step budget classify
          UNDECIDED (never OSCILLATING) because there is no tail to
          search for a cycle.

        Invalid policies raise :class:`~repro.errors.SweepError`.
        :func:`ensemble_buffer_bytes` predicts the buffer cost of a
        given (M, N, history, block) combination.

        ``telemetry`` works as in :meth:`run`: ``None`` records a
        :class:`~repro.observability.RunRecord` exactly when a
        :func:`~repro.observability.collect` session is active.  A
        blocked run streams each block's per-iteration reductions into
        the single record (series are concatenated in block order; the
        record's ``n_blocks``/``block_size`` fields say how to cut
        them), and mask events are merged across blocks into the same
        (step, member) order the one-shot path produces.

        ``faults`` works as in :meth:`run`; each member gets its own
        independent fault stream (seeded by the *absolute* member
        index, blocked or not), so member ``m`` reproduces
        ``run(initials[m], faults=plan, fault_member=m)``.  The empty
        plan keeps the fault-free path bit-identical.

        ``structural`` injects a
        :class:`~repro.chaos.structural.StructuralFaultPlan` into every
        member, each with its own jitter stream seeded by the absolute
        member index — member ``m`` reproduces ``run(initials[m],
        structural=plan, fault_member=m)``, blocked or not.  Window
        transitions across all members are collected on the result in
        (step, member) order.  The empty plan keeps the clean path
        bit-identical.
        """
        r0 = as_rate_matrix(initials, n=self.network.num_connections)
        self._check_plans(faults, structural)
        members = range(r0.shape[0])
        fault_states = None
        if faults is not None and not faults.empty:
            fault_states = [faults.start(network=self.network, member=m)
                            for m in members]
        structural_states = None
        if structural is not None and not structural.empty:
            structural_states = [structural.start(self, member=m)
                                 for m in members]
        return self._run_batch("ensemble", r0, max_steps, tol, settle,
                               max_period, telemetry, block_size, history,
                               fault_states, structural_states)

    def _check_plans(self, faults, structural) -> None:
        """Refuse non-empty fault and structural plans on a
        controller-driven system: both act on the per-source signal
        path that router-side control replaces."""
        if self._bank is None:
            return
        if faults is not None and not faults.empty:
            raise SweepError(
                "fault plans perturb the per-source signal path, which "
                "controller-driven systems do not read; faults with a "
                "controller are not supported")
        if structural is not None and not structural.empty:
            raise SweepError(
                "structural fault plans damage the per-source "
                "signal/delay path, which controller-driven systems "
                "replace with router-side state; structural faults "
                "with a controller are not supported")

    def _run_batch(self, kind, r0, max_steps, tol, settle, max_period,
                   telemetry, block_size, history, fault_states=None,
                   structural_states=None, gate=None, tau: int = 0,
                   loop_gate=compiled.NO_GATE) -> EnsembleResult:
        """The ensemble loop both ensemble runners share.

        Evolves the validated ``(M, N)`` batch ``r0`` block by block and
        assembles the :class:`EnsembleResult` and, when telemetry is
        on, its :class:`~repro.observability.RunRecord` of ``kind``.
        ``settle`` is one quiet-step count or an ``(M,)`` array of them.
        Fault and structural states are indexed by absolute member.
        ``gate`` (``gate(step, members) -> mask``, an ``(N,)`` mask
        shared by the rows or an ``(M_active, N)`` stack) and ``tau``
        are the asynchronous engine's clock gate and feedback delay:
        ``None`` and 0 are the synchronous map.  ``loop_gate`` is the
        same gate as the ensemble kernel runs it
        (:class:`repro.backends.compiled.Gate`), or None when the kernel
        does not serve it.
        """
        _check_loop(max_steps, settle, max_period, tol)
        if history is None:
            history = "tail"
        elif history not in HISTORY_POLICIES:
            raise SweepError(
                f"history must be one of {HISTORY_POLICIES}, "
                f"got {history!r}")
        m_total, n = r0.shape
        block = _resolve_block_size(block_size, m_total)
        blocked = block if block_size is not None else None
        if telemetry is None:
            telemetry = is_collecting()
        rec = RunRecord.begin(kind, m_total, n, max_steps, tol,
                              int(np.max(settle, initial=0))) \
            if telemetry else None
        if rec is not None:
            rec.n_blocks = max(-(-m_total // block), 1)
            rec.block_size = blocked
        res = EnsembleResult(
            finals=r0.copy(), outcomes=[Outcome.UNDECIDED] * m_total,
            periods=[None] * m_total, steps=np.zeros(m_total, dtype=int),
            initials=r0,
            histories=[None] * m_total if history == "full" else None,
            telemetry=rec, history_policy=history, block_size=blocked)
        settle = np.broadcast_to(settle, (m_total,))
        mask_events: List[tuple] = []
        # Each block's fault and structural events, None without states.
        event_blocks = tuple(None if states is None else []
                             for states in (fault_states, structural_states))
        timings = {"step": 0.0, "classify": 0.0, "period": 0.0}
        totals = {"converged": 0, "diverged": 0, "period_ran": 0}
        for base in range(0, m_total, block):
            self._run_block(res, base, min(base + block, m_total),
                            max_steps, tol, settle, max_period,
                            fault_states, structural_states, gate, tau,
                            loop_gate, mask_events, event_blocks, timings,
                            totals)

        # Members finish in (step, member) order on the one-shot path;
        # blocked execution discovers the same events block by block,
        # so a (stable) sort restores the identical ordering.
        mask_events.sort(key=lambda e: (e[0], e[1]))
        res.fault_events, res.structural_events = map(_merged_events,
                                                      event_blocks)
        if rec is not None:
            for step_count, member, outcome in mask_events:
                rec.observe_mask_event(step_count, member, outcome)
            for event in res.fault_events or ():
                rec.observe_fault_event(*event)
            if totals["period_ran"]:
                rec.add_phase("period_detection", timings["period"])
            rec.add_phase("step_batch", timings["step"])
            rec.add_phase("classify", timings["classify"])
            counts = {}
            for o in res.outcomes:
                counts[o.value] = counts.get(o.value, 0) + 1
            rec.finish(int(np.max(res.steps, initial=0)), counts)
            emit_run_record(rec)
        return res

    def _run_block(self, res, base, end, max_steps, tol, settle,
                   max_period, fault_states, structural_states, gate, tau,
                   loop_gate, mask_events, event_blocks, timings, totals):
        """Evolve members ``base:end`` of ``res.initials``; write ``res``
        in place.

        One block of :meth:`_run_batch`: the per-step loop, masking,
        and period detection over a contiguous member slice, writing
        into ``res`` at absolute member indices, appending ``(step,
        member, kind)`` mask events and the block's fault and
        structural events, each block's in (step, member) order, to
        ``event_blocks``.  Fault and structural states, the settle
        counts and the gate's ``members`` argument are indexed by
        absolute member, so blocked streams match the one-shot path
        exactly.

        The whole block is one call of the ensemble kernel when it
        serves the system, its plans and ``loop_gate`` (see
        :meth:`_run_kernel`); the Python loop below is the fallback,
        run from step 1 on fresh buffers and untouched states when the
        kernel hands the block back, and the reference.
        """
        rec = res.telemetry
        r0 = res.initials[base:end]
        settle = settle[base:end]
        block_states = (fault_states[base:end]
                        if fault_states is not None else None)
        block_structural = (structural_states[base:end]
                            if structural_states is not None else None)
        # Rolling tail for period detection: _detect_period probes lags
        # up to max_period over a window of 3 * max_period, so the last
        # 4 * max_period states suffice.
        tcap = min(4 * max_period, max_steps + 1)
        if loop_gate is not None:
            tail, full = _block_buffers(res.history_policy, r0, max_steps,
                                        tcap)
            agg = np.empty(max_steps) if rec is not None else None
            t0 = time.perf_counter()
            done = self._run_kernel(r0, max_steps, tol, settle, tau,
                                    loop_gate, tail, full, agg,
                                    block_states, block_structural)
            if done is not None:
                finals, steps, status = done[:3]
                _add_events(event_blocks, done[3:])
                if rec is not None:
                    timings["step"] += time.perf_counter() - t0
                    t0 = time.perf_counter()
                    residuals, active, conv, div = _kernel_series(
                        agg, steps, status)
                    rec.observe_iterations(residuals, active,
                                           conv + totals["converged"],
                                           div + totals["diverged"])
                res.finals[base:end] = finals
                res.steps[base:end] = steps
                for k in np.flatnonzero(status != _cext.ST_DONE).tolist():
                    outcome = _KERNEL_OUTCOMES[int(status[k])]
                    self._mark(res, base + k, outcome, totals)
                    mask_events.append((int(steps[k]), base + k,
                                        outcome.value))
                if rec is not None:
                    timings["classify"] += time.perf_counter() - t0
                spent = np.flatnonzero(status == _cext.ST_DONE)
                if spent.size:
                    _classify_spent(res, base, spent, tail, max_steps,
                                    max_period, tol, rec, timings, totals)
                _keep_histories(res, base, full)
                return
        mb = end - base
        n = r0.shape[1]
        limit = self.DIVERGENCE_FACTOR * self._mu_max
        tail, full = _block_buffers(res.history_policy, r0, max_steps, tcap)
        quiet = np.zeros(mb, dtype=int)

        idx = np.arange(mb)           # block members still iterating
        r = r0.copy()                 # their current states, compressed
        # Controller state rides alongside r and is masked with it, so
        # finished members stop paying for gateway updates too.
        ctrl = (self._bank.initial_state_batch(mb)
                if self._bank is not None else None)
        # Delayed-feedback ring, tau > 0 only: slot s % (tau + 1) holds
        # the state of time s and every slot starts at the initial
        # condition (the scalar runner's pre-filled deque), so the slot
        # step t is about to overwrite holds the tau-stale state the
        # observe stage reads.  Rows are compressed alongside r.  At
        # tau = 0 that slot would always equal r.
        ring = np.tile(r[np.newaxis], (tau + 1, 1, 1)) if tau else None
        stale = mask = None
        for step_count in range(1, max_steps + 1):
            if rec is not None:
                t0 = time.perf_counter()
            if ring is not None:
                slot = step_count % (tau + 1)
                stale = ring[slot]
            if gate is not None:
                mask = gate(step_count, base + idx)
            if ctrl is not None:
                r_next, ctrl = self._controlled_rows(r, ctrl)
            else:
                r_next = self._step_rows(r, block_states, idx, step_count,
                                         block_structural, stale, mask)
            if ring is not None:
                ring[slot] = r_next
            if rec is not None:
                timings["step"] += time.perf_counter() - t0
                t0 = time.perf_counter()
            if tail is not None:
                tail[idx, step_count % tcap] = r_next
            if full is not None:
                full[idx, step_count] = r_next

            with np.errstate(invalid="ignore"):
                # One reduction for the divergence test and the scale,
                # as in run: the rows are clipped.
                peak = np.max(r_next, axis=1)
                diverged = ~(peak <= limit)
                change = np.max(np.abs(r_next - r), axis=1)
                within = change <= tol * np.maximum(1.0, peak)
            quiet_next = np.where(within, quiet[idx] + 1, 0)
            quiet[idx] = quiet_next
            converged = (quiet_next >= settle[idx]) & ~diverged
            done = diverged | converged

            if np.any(done):
                done_members = idx[done]
                res.finals[base + done_members] = r_next[done]
                res.steps[base + done_members] = step_count
                for m, is_div in zip(done_members, diverged[done]):
                    member = base + int(m)
                    outcome = (Outcome.DIVERGED if is_div
                               else Outcome.CONVERGED)
                    self._mark(res, member, outcome, totals)
                    mask_events.append((step_count, member, outcome.value))
                keep = ~done
                idx = idx[keep]
                r = r_next[keep]
                if ctrl is not None:
                    ctrl = ctrl[keep]
                if ring is not None:
                    ring = ring[:, keep]
                if rec is not None:
                    finite_changes = change[keep][np.isfinite(change[keep])]
                    rec.observe_iteration(
                        float(np.max(finite_changes))
                        if finite_changes.size else math.inf,
                        int(idx.size), totals["converged"],
                        totals["diverged"])
                    timings["classify"] += time.perf_counter() - t0
                if idx.size == 0:
                    break
            else:
                r = r_next
                if rec is not None:
                    rec.observe_iteration(float(np.max(change)),
                                          int(idx.size),
                                          totals["converged"],
                                          totals["diverged"])
                    timings["classify"] += time.perf_counter() - t0
        else:
            res.finals[base + idx] = r
            res.steps[base + idx] = max_steps
            _classify_spent(res, base, idx, tail, max_steps, max_period,
                            tol, rec, timings, totals)
        _add_events(event_blocks, (_recorded_events(block_states),
                                   _recorded_events(block_structural)))
        _keep_histories(res, base, full)

    @staticmethod
    def _mark(res, member, outcome, totals) -> None:
        """Record that ``member`` converged or diverged."""
        res.outcomes[member] = outcome
        if outcome is Outcome.CONVERGED:
            res.periods[member] = 1
        totals[outcome.value] += 1

    def solve(self, initial: Sequence[float], **kwargs) -> np.ndarray:
        """Run to convergence and return the steady state; raise otherwise."""
        traj = self.run(initial, **kwargs)
        if traj.outcome is not Outcome.CONVERGED:
            raise ConvergenceError(
                f"dynamics did not converge (outcome: {traj.outcome.value})")
        return traj.final


def _check_loop(max_steps, settle, max_period, tol) -> None:
    """Raise :class:`~repro.errors.SweepError` unless ``max_steps`` is
    an int >= 0, ``settle`` and ``max_period`` are ints >= 1
    (``settle`` may also be an int array, one count per member) and
    ``tol`` is a finite real >= 0."""
    for name, value, low in (("max_steps", max_steps, 0),
                             ("settle", settle, 1),
                             ("max_period", max_period, 1)):
        arr = np.asarray(value)
        if arr.dtype.kind not in "iu" or np.any(arr < low):
            raise SweepError(
                f"{name} must be an int >= {low}, got {value!r}")
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol)
            and tol >= 0):
        raise SweepError(f"tol must be a finite real >= 0, got {tol!r}")


def _controller_state(state, shape: tuple) -> np.ndarray:
    """``state`` as a float array; raise
    :class:`~repro.errors.RateVectorError` unless it is finite and of
    ``shape``."""
    try:
        s = np.asarray(state, dtype=float)
    except (TypeError, ValueError):
        s = None
    if s is None or s.shape != shape:
        got = "not numeric" if s is None else f"shape {s.shape}"
        raise RateVectorError(
            f"controller state must be a finite array of shape {shape}, "
            f"got {got}")
    if not np.isfinite(s).all():
        raise RateVectorError(
            f"controller state must be a finite array of shape {shape}, "
            f"got a non-finite entry")
    return s


def _listed(state) -> Optional[list]:
    """A run's one state as a block's list of states; None stays."""
    return None if state is None else [state]


def _recorded_events(states) -> Optional[list]:
    """Every per-member state's events in (step, member) order, or
    ``None`` when there are no states."""
    if states is None:
        return None
    events = [event for state in states for event in state.events]
    events.sort(key=lambda e: (e.step, e.member))
    return events


def _perturbation(faults, structural, max_steps: int):
    """A block's fault and structural states (either may be None) as
    the kernel's :class:`repro.backends.compiled.Perturbation`, or None
    when it does not serve them."""
    from ..chaos.structural import _loop_structural
    arrays = []
    for states, translate in ((faults, _loop_faults),
                              (structural, _loop_structural)):
        got = None if states is None else translate(states, max_steps)
        if states is not None and got is None:
            return None
        arrays.append(got)
    return compiled.Perturbation(*arrays)


def _kernel_events(perturb, faults, structural) -> tuple:
    """The fault and structural events a kernel call logged, pending
    until read (see :class:`_Events`), as the states would have
    recorded them (None for a state list that is None)."""
    if perturb is None:
        return None, None
    from ..chaos.structural import LOOP_KINDS as STRUCTURAL_KINDS
    from ..chaos.structural import StructuralEvent
    members = np.array([state.member for state in faults or structural])
    return (None if faults is None else functools.partial(
                _logged_events, FaultEvent, perturb.fault_log, members,
                None, LOOP_KINDS),
            None if structural is None else functools.partial(
                _logged_events, StructuralEvent, perturb.structural_log,
                members,
                [inj.gateway for inj in structural[0].plan.injectors],
                STRUCTURAL_KINDS))


def _logged_events(cls, log, members, indices, kinds) -> list:
    """A kernel event log (see :class:`repro.backends.compiled.
    Perturbation`) as ``cls`` tuples ``(step, member, index, kind,
    detail)`` in (step, member) order, as the states would have
    recorded them: ``members`` maps block positions to member numbers,
    ``kinds`` kind codes to names and ``indices``, when not None, index
    codes to labels.  The log holds each member's events in step order,
    member after member, so a stable sort on (step, member) keeps each
    step's events in the order the stages logged them."""
    ints, detail = log
    if members.size > 1:
        order = np.lexsort((ints[:, 1], ints[:, 0]))
        ints, detail = ints[order], detail[order]
    index = ints[:, 2].tolist()
    if indices is not None:
        index = [indices[k] for k in index]
    kinds = [kinds[k] for k in ints[:, 3].tolist()]
    return list(map(tuple.__new__, itertools.repeat(cls), zip(
        ints[:, 0].tolist(), members[ints[:, 1]].tolist(), index, kinds,
        detail.tolist())))


def _add_events(blocks, events) -> None:
    """Append a block's fault and structural events to ``blocks``."""
    for block, got in zip(blocks, events):
        if block is not None:
            block.append(got)


def _merged_events(blocks):
    """The blocks' events, each block's in (step, member) order, as one
    list in that order, pending until read (see :class:`_Events`), or
    ``None`` when there are no states.  Blocks hold consecutive
    members, so a stable sort of their concatenation is the one-shot
    order."""
    if blocks is None:
        return None
    if len(blocks) == 1:
        return blocks[0]
    return functools.partial(_merge_blocks, blocks)


def _merge_blocks(blocks) -> list:
    """:func:`_merged_events`'s list, built."""
    events = [event for block in blocks for event in _built(block)]
    events.sort(key=lambda e: (e.step, e.member))
    return events


#: The ensemble kernel's member statuses that end a run early.
_KERNEL_OUTCOMES = {_cext.ST_CONVERGED: Outcome.CONVERGED,
                    _cext.ST_DIVERGED: Outcome.DIVERGED}


def _kernel_series(agg, steps, status) -> tuple:
    """A kernel block's per-step record series, steps 1 to the last
    one any member took: the residuals ``agg``, the members still
    running after each step, and the block's cumulative converged and
    diverged counts."""
    last = int(steps.max(initial=0))
    conv, div = (np.cumsum(np.bincount(steps[status == code],
                                       minlength=last + 1))[1:]
                 for code in (_cext.ST_CONVERGED, _cext.ST_DIVERGED))
    return agg[:last], steps.size - conv - div, conv, div


def _block_buffers(policy: str, r0, max_steps: int, tcap: int) -> tuple:
    """A block's rolling tail and full history buffers under the
    history ``policy`` (None where it keeps none), row 0 the initial
    states."""
    mb, n = r0.shape
    tail = full = None
    if policy != "none":
        tail = np.zeros((mb, tcap, n), dtype=float)
        tail[:, 0] = r0
    if policy == "full":
        full = np.empty((mb, max_steps + 1, n))
        full[:, 0] = r0
    return tail, full


def _classify_spent(res, base, idx, tail, max_steps, max_period, tol, rec,
                    timings, totals) -> None:
    """Block members ``idx`` spent the step budget: reconstruct each
    ordered tail from the ring buffer and look for a cycle (skipped —
    UNDECIDED — under history="none")."""
    if tail is None:
        return
    if rec is not None:
        t0 = time.perf_counter()
    _, tcap, n = tail.shape
    start = (max_steps + 1) % tcap if max_steps + 1 > tcap else 0
    # Up to 256 kB of tails at a time (a view of one member's when it
    # is larger) keeps the temporaries small.
    chunk = max(1, (1 << 15) // (tcap * n))
    for lo in range(0, len(idx), chunk):
        members = idx[lo:lo + chunk]
        tails = tail[members] if chunk > 1 else tail[members[0]][None]
        periods = _detect_periods(tails, max_period, tol,
                                  total_len=max_steps + 1, start=start)
        for m, period in zip(members, periods):
            if period is not None:
                res.outcomes[base + m] = Outcome.OSCILLATING
                res.periods[base + m] = period
    if rec is not None:
        timings["period"] += time.perf_counter() - t0
        totals["period_ran"] += 1


def _keep_histories(res, base, full) -> None:
    """Views, not copies: each member's trajectory window into the
    block buffer (see EnsembleResult.histories)."""
    if full is None:
        return
    for m in range(full.shape[0]):
        res.histories[base + m] = full[m, :res.steps[base + m] + 1]


def _resolve_block_size(block_size, m_total: int) -> int:
    """Validate ``block_size`` and clamp it to the ensemble size."""
    if block_size is None:
        return max(m_total, 1)
    if isinstance(block_size, bool) or \
            not isinstance(block_size, (int, np.integer)):
        raise SweepError(
            f"block_size must be a positive integer, got {block_size!r}")
    if block_size <= 0:
        raise SweepError(f"block_size must be >= 1, got {block_size}")
    if m_total and block_size > m_total:
        warnings.warn(
            f"block_size={block_size} exceeds the ensemble size "
            f"M={m_total}; running as a single block",
            RuntimeWarning, stacklevel=4)
        return m_total
    return int(block_size)


def _detect_period(history: np.ndarray, max_period: int, tol: float,
                   total_len: int = None) -> Optional[int]:
    """Smallest period ``p >= 2`` such that the tail repeats with lag p.

    Lag ``p`` is tested over a window of the last ``3 p`` states
    against the ``3 p`` before them, within ``1e3 * tol`` times the
    window's scale ``max(1, |state|_inf)``; lags run up to
    ``max_period`` while ``4 p`` states exist.  ``history`` may be just
    the trajectory tail (at least the last ``4 * max_period`` states);
    pass ``total_len`` as the true number of recorded states so the
    window-length guard matches the full-history behaviour.
    """
    return _detect_periods(history[None], max_period, tol, total_len)[0]


def _detect_periods(histories: np.ndarray, max_period: int, tol: float,
                    total_len: int = None,
                    start: int = 0) -> List[Optional[int]]:
    """:func:`_detect_period` of each ``(T, N)`` history in a ``(K, T,
    N)`` stack, whose rows are in time order from row ``start`` on,
    wrapping around (a rolling tail's ring)."""
    steps = histories.shape[1] if total_len is None else total_len
    last = min(max_period, steps // 4)
    if last < 2:
        return [None] * histories.shape[0]
    if start == 0:
        histories = histories[:, -4 * last:]
    rows = histories.shape[1]
    # The physical rows of the last 4 * last states, oldest first.
    order = (np.arange(rows - 4 * last, rows) + start) % rows
    lags = np.arange(2, last + 1)
    # Each window's scale from a suffix maximum of the row norms, and
    # its last row's lag difference, which alone rejects most lags:
    # maxima are exact, so every verdict is the one a lag-by-lag scan
    # of whole windows reaches.
    norms = np.maximum(histories.max(axis=2),
                       -histories.min(axis=2))[:, order]
    suffix = np.maximum.accumulate(norms[:, ::-1], axis=1)[:, ::-1]
    bounds = 1e3 * tol * np.fmax(1.0, suffix[:, 4 * last - 3 * lags])
    newest = histories[:, order[-1]]
    ends = np.abs(newest[:, None] - histories[:, order[-1 - lags]]).max(axis=2)
    periods = []
    for history, bound, candidates in zip(histories, bounds, ends <= bounds):
        period = None
        for p in lags[candidates].tolist():
            diff = np.abs(history[order[-3 * p:]]
                          - history[order[-4 * p:-p]]).max()
            if diff <= bound[p - 2]:
                period = p
                break
        periods.append(period)
    return periods
