"""Structural fault plans: scheduled topology damage.

Where :mod:`repro.faults` perturbs the *signal path* (what sources
observe), a :class:`StructuralFaultPlan` perturbs the *network itself*:
gateways lose capacity or stop forwarding entirely for scheduled
windows of steps, then restore.  Two injector families with defined
degradation semantics:

* :class:`CapacityDegradation` — gateway ``a``'s service rate becomes
  ``factor * mu^a`` while the window is active (proportional ``mu``
  scaling).  Queue laws, congestion signals, and round-trip delays are
  all recomputed on the degraded network, so the whole analytic
  pipeline — scalar, batch, and CSR sparse paths alike — sees the
  damage through the one quantity it reads, ``network.mu(a)``.
* :class:`GatewayBlackhole` — gateway ``a`` stops forwarding: every
  connection routed through it observes the saturated congestion
  signal ``b = 1`` while the window is active (*rerouting-free*
  semantics — the model has static routes, so a dead gateway is
  maximal congestion, not a detour).  Honest rules back off toward
  zero; the window ending is the restore event.

Determinism contract (the :class:`~repro.faults.FaultPlan` precedent):

* an *empty* plan starts to ``None`` — callers keep the clean code
  path, which is therefore bit-identical by construction;
* windows are deterministic in the step index; the plan ``seed`` and
  the member index drive only the optional per-member start ``jitter``
  (one draw per injector per member from
  ``default_rng([seed, member])``), so ensemble member ``m``
  reproduces ``run(initials[m], structural=plan, fault_member=m)``
  exactly, blocked or not;
* while no window is active the resolved view *is* the base network
  and scheme — the pre-fault prefix of a faulted run is bit-identical
  to a clean run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..backends import _cext
from ..errors import ChaosError

__all__ = ["StructuralEvent", "StructuralInjector", "CapacityDegradation",
           "GatewayBlackhole", "StructuralFaultPlan", "StructuralFaultState"]


class StructuralEvent(NamedTuple):
    """One structural transition, as recorded.

    ``kind`` is ``"degrade"`` / ``"blackhole"`` when a window opens and
    ``"restore"`` when it closes; ``detail`` is the degradation factor
    (``0.0`` for a blackhole, ``1.0`` for a restore).
    """

    step: int
    member: int
    gateway: str
    kind: str
    detail: float

    def as_list(self) -> list:
        """JSON-safe view (observability artifacts, X7 tables)."""
        return [int(self.step), int(self.member), str(self.gateway),
                str(self.kind), float(self.detail)]


class StructuralInjector:
    """Base class; subclasses set ``kind`` and a scheduled window."""

    kind: str = "abstract"

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key, value in self.__dict__.items():
            out[key] = value
        return out


def _check_window(start, duration, period, jitter):
    if not (isinstance(start, int) and start >= 0):
        raise ChaosError(f"window start must be an int >= 0, got {start!r}")
    if not (isinstance(duration, int) and duration >= 1):
        raise ChaosError(
            f"window duration must be an int >= 1, got {duration!r}")
    if period is not None and not (
            isinstance(period, int) and period >= duration):
        raise ChaosError(
            f"window period must be an int >= duration ({duration}), "
            f"got {period!r}")
    if not (isinstance(jitter, int) and jitter >= 0):
        raise ChaosError(f"start jitter must be an int >= 0, got {jitter!r}")


def _window_active(step: int, start: int, duration: int,
                   period: Optional[int]) -> bool:
    offset = step - start
    if offset < 0:
        return False
    if period is None:
        return offset < duration
    return (offset % period) < duration


@dataclass(frozen=True)
class CapacityDegradation(StructuralInjector):
    """Gateway ``gateway`` runs at ``factor * mu`` while active.

    ``factor`` must lie strictly in ``(0, 1)`` — a full capacity loss
    is a :class:`GatewayBlackhole`, because the queue laws require
    ``mu > 0``.  With ``period=None`` the window
    ``[start, start + duration)`` happens once; otherwise it repeats
    every ``period`` steps.  ``jitter`` shifts the start by a seeded
    per-member offset in ``{0, ..., jitter}``.
    """

    gateway: str = ""
    factor: float = 0.5
    start: int = 0
    duration: int = 1
    period: Optional[int] = None
    jitter: int = 0

    kind = "degrade"

    def __post_init__(self):
        if not (isinstance(self.gateway, str) and self.gateway):
            raise ChaosError(
                f"degradation gateway must be a nonempty string, "
                f"got {self.gateway!r}")
        f = float(self.factor)
        if not (math.isfinite(f) and 0.0 < f < 1.0):
            raise ChaosError(
                f"degradation factor must lie strictly in (0, 1), got "
                f"{self.factor!r} (use GatewayBlackhole for a dead line)")
        _check_window(self.start, self.duration, self.period, self.jitter)


@dataclass(frozen=True)
class GatewayBlackhole(StructuralInjector):
    """Gateway ``gateway`` stops forwarding while active.

    Rerouting-free semantics: routes are static, so every connection
    through the gateway observes the saturated signal ``b = 1`` for
    the whole window (maximal congestion, never a silent detour).
    Window parameters as in :class:`CapacityDegradation`.
    """

    gateway: str = ""
    start: int = 0
    duration: int = 1
    period: Optional[int] = None
    jitter: int = 0

    kind = "blackhole"

    def __post_init__(self):
        if not (isinstance(self.gateway, str) and self.gateway):
            raise ChaosError(
                f"blackhole gateway must be a nonempty string, "
                f"got {self.gateway!r}")
        _check_window(self.start, self.duration, self.period, self.jitter)


@dataclass(frozen=True)
class StructuralFaultPlan:
    """A seeded, immutable set of structural injectors.

    ``StructuralFaultPlan()`` is the empty plan — a guaranteed no-op
    (:meth:`start` returns ``None`` so callers keep the clean path).
    Plans are picklable and travel into sweep workers.
    """

    injectors: Tuple[StructuralInjector, ...] = ()
    seed: int = 0

    def __post_init__(self):
        injectors = tuple(self.injectors)
        for inj in injectors:
            if not isinstance(inj, StructuralInjector):
                raise ChaosError(
                    f"plan entries must be structural injectors, "
                    f"got {inj!r}")
        object.__setattr__(self, "injectors", injectors)
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ChaosError(
                f"plan seed must be an int >= 0, got {self.seed!r}")

    @property
    def empty(self) -> bool:
        return not self.injectors

    def start(self, system, member: int = 0
              ) -> Optional["StructuralFaultState"]:
        """Create the per-run state, or ``None`` for the empty plan.

        ``system`` is the :class:`~repro.core.dynamics.FlowControlSystem`
        being run — the state needs its network *and* its signalling
        configuration (discipline, signal function, style, weights) to
        build degraded feedback schemes.
        """
        if self.empty:
            return None
        network = system.network
        for inj in self.injectors:
            if inj.gateway not in network.gateway_names:
                raise ChaosError(
                    f"{inj.kind} names unknown gateway {inj.gateway!r}; "
                    f"known: {sorted(network.gateway_names)}")
        return StructuralFaultState(self, system, int(member))

    def describe(self) -> str:
        """One-line human-readable summary (CLI, provenance notes)."""
        if self.empty:
            return "no structural faults"
        parts = [repr(inj) for inj in self.injectors]
        return f"seed={self.seed}; " + ", ".join(parts)

    def to_dict(self) -> dict:
        """JSON-safe description (artifact provenance)."""
        return {"seed": self.seed,
                "injectors": [inj.to_dict() for inj in self.injectors]}


#: The kinds of the events the ensemble kernel logs, by ``SI_*`` kind.
LOOP_KINDS = ("degrade", "blackhole", "restore")


class _ResolvedView(NamedTuple):
    """The world one step sees: a (possibly degraded) network and
    scheme, plus the blackholed connection index array.  ``key`` is a
    hashable damage signature — rows of a batch sharing a key may be
    evolved through any one member's view bit-identically (equal
    signatures build equal schemes from the same base system)."""

    key: tuple
    network: object
    scheme: object
    blackholed: np.ndarray


class StructuralFaultState:
    """Mutable per-trajectory structural machinery.

    Resolves each step to a :class:`_ResolvedView` (cached per damage
    signature — a long outage builds its degraded network and scheme
    once) and records :class:`StructuralEvent` transitions.

    Attributes:
        events: every window transition so far, in step order.
    """

    def __init__(self, plan: StructuralFaultPlan, system, member: int):
        # Imported here, not at module top: chaos sits above core in
        # the layering, and the deferred import keeps accidental
        # core -> chaos cycles impossible.
        from ..core.signals import FeedbackScheme
        self._scheme_cls = FeedbackScheme
        self.plan = plan
        self.member = int(member)
        self.events: List[StructuralEvent] = []
        self._network = system.network
        self._scheme = system.scheme
        self._discipline = system.discipline
        self._signal_fn = system.scheme.signal_fn
        self._style = system.scheme.style
        self._weights = system.scheme.weights
        rng = np.random.default_rng([plan.seed, self.member])
        # One jitter draw per injector, in plan order, drawn
        # unconditionally so the stream shape never depends on which
        # injectors happen to carry jitter.
        draws = rng.integers(0, [inj.jitter + 1
                                 for inj in plan.injectors])
        self._starts = tuple(inj.start + int(draws[k])
                             for k, inj in enumerate(plan.injectors))
        self._empty_idx = np.empty(0, dtype=np.intp)
        self._clean = _ResolvedView((), self._network, self._scheme,
                                    self._empty_idx)
        self._cache: Dict[tuple, _ResolvedView] = {(): self._clean}
        self._active_prev: Tuple[bool, ...] = (False,) * len(plan.injectors)
        self._last_step: Optional[int] = None

    def _active(self, step: int) -> Tuple[bool, ...]:
        return tuple(
            _window_active(step, self._starts[k], inj.duration, inj.period)
            for k, inj in enumerate(self.plan.injectors))

    def _build(self, active: Tuple[bool, ...]) -> _ResolvedView:
        factors: Dict[str, float] = {}
        blackholed: List[str] = []
        key_parts = []
        for k, inj in enumerate(self.plan.injectors):
            if not active[k]:
                continue
            if isinstance(inj, CapacityDegradation):
                factors[inj.gateway] = (factors.get(inj.gateway, 1.0)
                                        * inj.factor)
                key_parts.append(("degrade", inj.gateway, inj.factor))
            else:
                blackholed.append(inj.gateway)
                key_parts.append(("blackhole", inj.gateway))
        key = tuple(sorted(key_parts))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        network = self._network.with_mu_factors(factors)
        scheme = (self._scheme if network is self._network else
                  self._scheme_cls(network, self._discipline,
                                   self._signal_fn, self._style,
                                   weights=self._weights))
        if blackholed:
            idx = np.unique(np.concatenate([
                np.asarray(self._network.connections_at(g), dtype=np.intp)
                for g in sorted(set(blackholed))]))
        else:
            idx = self._empty_idx
        view = _ResolvedView(key, network, scheme, idx)
        self._cache[key] = view
        return view

    def resolve(self, step: int) -> _ResolvedView:
        """The network/scheme/blackhole view for one step.

        Records activation and restore events the first time a step is
        resolved (re-resolving the same step is idempotent, so scalar
        probes like ``system.step`` may be replayed).
        """
        active = self._active(step)
        if self._last_step is None or step > self._last_step:
            for k, inj in enumerate(self.plan.injectors):
                if active[k] and not self._active_prev[k]:
                    detail = (inj.factor
                              if isinstance(inj, CapacityDegradation)
                              else 0.0)
                    self.events.append(StructuralEvent(
                        int(step), self.member, inj.gateway, inj.kind,
                        float(detail)))
                elif self._active_prev[k] and not active[k]:
                    self.events.append(StructuralEvent(
                        int(step), self.member, inj.gateway, "restore",
                        1.0))
            self._active_prev = active
            self._last_step = step
        return self._build(active)


def _loop_structural(states: List[StructuralFaultState], max_steps: int):
    """A block's structural states as the ensemble kernel's
    ``structural`` arrays (see
    :class:`repro.backends.compiled.Perturbation`), or None when the
    kernel does not serve them: an injector that is not one of the two
    built-in types, a gateway whose degradations multiply its service
    rate down to zero (the degraded network raises), or three or more
    degradations of one gateway two of which share a factor (the view
    cache keys on the sorted factors, so which order their product is
    taken in would depend on which windows opened first).

    The states are one plan's, started for one system; each member's
    window starts are copied, clamped to ``max_steps + 1`` like the
    window bounds, past which they act alike."""
    first = states[0]
    network, clamp = first._network, max_steps + 1
    names = network.csr.gateway_names
    si, factors, degraded = [], [], {}
    for inj in first.plan.injectors:
        if type(inj) is CapacityDegradation:
            kind, factor = _cext.SI_DEGRADE, float(inj.factor)
            degraded.setdefault(inj.gateway, []).append(factor)
        elif type(inj) is GatewayBlackhole:
            kind, factor = _cext.SI_BLACKHOLE, 0.0
        else:
            return None
        si.append((names.index(inj.gateway), kind,
                   min(inj.duration, clamp), min(inj.period or 0, clamp)))
        factors.append(factor)
    for gateway, fs in degraded.items():
        product = 1.0
        for f in fs:
            product *= f
        if not network.mu(gateway) * product > 0.0 or \
                (len(fs) >= 3 and len(set(fs)) < len(fs)):
            return None
    starts = [[min(start, clamp) for start in state._starts]
              for state in states]
    return si, factors, starts
