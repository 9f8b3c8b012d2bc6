"""Fault plans and their per-run state.

A :class:`FaultPlan` is an immutable description — a tuple of injectors
plus one seed.  Starting a plan yields a :class:`FaultState`: the
mutable per-trajectory machinery (RNG stream, last-delivered signals,
bounded history of true signals, recorded events).  Determinism
contract:

* the same plan started for the same member always produces the same
  perturbations and the same recorded events for the same inputs;
* distinct ensemble members get statistically independent streams
  (member index is folded into the RNG seed), so ensemble member ``m``
  under a plan reproduces ``run(initials[m], faults=plan,
  fault_member=m)`` exactly;
* an *empty* plan starts to ``None`` — callers keep the fault-free
  code path, which is therefore bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..backends.compiled import stream_words
from ..errors import FaultError
from .injectors import (ClockSkew, ExtraDelay, FaultInjector,
                        GatewayOutage, SignalLoss, SignalNoise,
                        SignalQuantisation)

__all__ = ["FaultEvent", "FaultPlan", "FaultState"]

#: The injectors the ensemble kernel transcribes, by ``FI_*`` code (each
#: one's stage), and the kinds of the events it logs, by the same code.
_LOOP_TYPES = (ClockSkew, ExtraDelay, GatewayOutage, SignalLoss,
               SignalNoise, SignalQuantisation)
LOOP_KINDS = tuple(cls.kind for cls in _LOOP_TYPES)


class FaultEvent(NamedTuple):
    """One injected perturbation, as recorded.

    ``detail`` is injector-specific: the stale value delivered (loss,
    outage), the effective lag (delay), or the signed signal error
    (corruption, quantisation).
    """

    step: int
    member: int
    connection: int
    kind: str
    detail: float

    def as_list(self) -> list:
        """JSON-safe view used by the observability layer."""
        return [int(self.step), int(self.member), int(self.connection),
                str(self.kind), float(self.detail)]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable set of fault injectors.

    ``FaultPlan()`` is the empty plan — a guaranteed no-op.  Plans are
    picklable (they travel into sweep workers) and hashable on their
    description.
    """

    injectors: Tuple[FaultInjector, ...] = ()
    seed: int = 0

    def __post_init__(self):
        injectors = tuple(self.injectors)
        for inj in injectors:
            if not isinstance(inj, FaultInjector):
                raise FaultError(
                    f"plan entries must be fault injectors, "
                    f"got {inj!r}")
        object.__setattr__(self, "injectors", injectors)
        if not isinstance(self.seed, int) or self.seed < 0:
            raise FaultError(
                f"plan seed must be an int >= 0, got {self.seed!r}")

    @property
    def empty(self) -> bool:
        return not self.injectors

    def start(self, network=None, n_connections: Optional[int] = None,
              member: int = 0) -> Optional["FaultState"]:
        """Create the per-run state, or ``None`` for the empty plan.

        Pass the :class:`~repro.core.topology.Network` when available —
        it resolves :class:`GatewayOutage` gateway names to connection
        sets (and validates them).  ``n_connections`` alone suffices
        for plans without named-gateway outages.
        """
        if self.empty:
            return None
        if network is not None:
            n = network.num_connections
        elif n_connections is not None:
            n = int(n_connections)
        else:
            raise FaultError(
                "FaultPlan.start needs a network or n_connections")
        if n < 1:
            raise FaultError(f"need at least one connection, got {n}")
        outage_masks = {}
        for inj in self.injectors:
            if isinstance(inj, GatewayOutage) and inj.gateway is not None:
                if network is None:
                    raise FaultError(
                        f"outage names gateway {inj.gateway!r} but no "
                        f"network was passed to FaultPlan.start")
                if inj.gateway not in network.gateway_names:
                    raise FaultError(
                        f"outage names unknown gateway {inj.gateway!r}; "
                        f"known: {sorted(network.gateway_names)}")
                outage_masks[inj] = np.asarray(
                    network.connections_at(inj.gateway), dtype=np.intp)
        return FaultState(self, n, int(member), outage_masks)

    def describe(self) -> str:
        """One-line human-readable summary (CLI, provenance notes)."""
        if self.empty:
            return "no faults"
        parts = [repr(inj) for inj in self.injectors]
        return f"seed={self.seed}; " + ", ".join(parts)

    def to_dict(self) -> dict:
        """JSON-safe description (artifact provenance)."""
        return {"seed": self.seed,
                "injectors": [inj.to_dict() for inj in self.injectors]}


class FaultState:
    """Mutable per-trajectory fault machinery.  See :class:`FaultPlan`.

    Attributes:
        events: every :class:`FaultEvent` injected so far, in
            (step, stage, connection) order.
    """

    def __init__(self, plan: FaultPlan, n_connections: int, member: int,
                 outage_masks: dict):
        self.plan = plan
        self.n = int(n_connections)
        self.member = int(member)
        self.events: List[FaultEvent] = []
        self.rng = np.random.default_rng([plan.seed, self.member])
        # Stable stage sort: skew -> delay -> outage -> loss -> noise
        # -> quantise.
        self._stages = sorted(plan.injectors, key=lambda inj: inj.stage)
        self._outage_masks = outage_masks
        self._delivered = np.zeros(self.n, dtype=float)
        max_lag = max((inj.max_lag for inj in self._stages
                       if isinstance(inj, (ClockSkew, ExtraDelay))),
                      default=0)
        self._history: List[np.ndarray] = []  # true signals, bounded
        self._history_cap = max_lag + 1
        # Per-source skew lags are a fixed property of the run: drawn
        # once from the member stream, before any per-step draws.
        self._skew_lags = {
            inj: self.rng.integers(inj.min_lag, inj.max_lag + 1,
                                   size=self.n)
            for inj in self._stages if isinstance(inj, ClockSkew)
        }

    def _event(self, step: int, connection: int, kind: str,
               detail: float) -> None:
        self.events.append(FaultEvent(int(step), self.member,
                                      int(connection), kind,
                                      float(detail)))

    def apply(self, step: int, true_signals: np.ndarray) -> np.ndarray:
        """Perturb one step's true signal vector; returns the observed
        vector (a fresh array — the input is never mutated)."""
        b = np.asarray(true_signals, dtype=float)
        if b.shape != (self.n,):
            raise FaultError(
                f"signal vector has shape {b.shape}, plan was started "
                f"for {self.n} connections")
        self._history.append(b.copy())
        if len(self._history) > self._history_cap:
            del self._history[0]
        observed = b.copy()
        for inj in self._stages:
            if isinstance(inj, ClockSkew):
                observed = self._apply_clock_skew(inj, step, observed)
            elif isinstance(inj, ExtraDelay):
                observed = self._apply_delay(inj, step, observed)
            elif isinstance(inj, GatewayOutage):
                observed = self._apply_outage(inj, step, observed)
            elif isinstance(inj, SignalLoss):
                observed = self._apply_loss(inj, step, observed)
            elif isinstance(inj, SignalNoise):
                observed = self._apply_noise(inj, step, observed)
            elif isinstance(inj, SignalQuantisation):
                observed = self._apply_quantisation(inj, step, observed)
            else:  # pragma: no cover — FaultPlan validated entries
                raise FaultError(f"unknown injector {inj!r}")
        self._delivered = observed.copy()
        return observed

    # -- stages --------------------------------------------------------
    def _apply_clock_skew(self, inj: ClockSkew, step: int,
                          observed: np.ndarray) -> np.ndarray:
        lags = self._skew_lags[inj]
        # history[-1] is the current step's true signal (lag 0); the
        # oldest retained entry bounds the achievable lag early on.
        max_avail = len(self._history) - 1
        for i in range(self.n):
            lag = min(int(lags[i]), max_avail)
            if lag <= 0:
                continue
            observed[i] = self._history[-1 - lag][i]
            self._event(step, i, inj.kind, float(lag))
        return observed

    def _apply_delay(self, inj: ExtraDelay, step: int,
                     observed: np.ndarray) -> np.ndarray:
        lags = np.full(self.n, inj.delay, dtype=np.intp)
        if inj.jitter:
            lags = lags + self.rng.integers(0, inj.jitter + 1,
                                            size=self.n)
        # history[-1] is the current step's true signal (lag 0); the
        # oldest retained entry bounds the achievable lag early on.
        max_avail = len(self._history) - 1
        for i in range(self.n):
            lag = min(int(lags[i]), max_avail)
            if lag <= 0:
                continue
            observed[i] = self._history[-1 - lag][i]
            self._event(step, i, inj.kind, float(lag))
        return observed

    def _apply_outage(self, inj: GatewayOutage, step: int,
                      observed: np.ndarray) -> np.ndarray:
        if not inj.active(step):
            return observed
        affected = self._outage_masks.get(inj)
        if affected is None:
            affected = range(self.n)
        for i in affected:
            observed[i] = self._delivered[i]
            self._event(step, i, inj.kind, float(observed[i]))
        return observed

    def _apply_loss(self, inj: SignalLoss, step: int,
                    observed: np.ndarray) -> np.ndarray:
        draws = self.rng.random(self.n)
        eligible = (range(self.n) if inj.connections is None
                    else inj.connections)
        for i in eligible:
            if i >= self.n:
                raise FaultError(
                    f"loss targets connection {i} but the system has "
                    f"only {self.n}")
            if draws[i] < inj.rate:
                observed[i] = self._delivered[i]
                self._event(step, i, inj.kind, float(observed[i]))
        return observed

    def _apply_noise(self, inj: SignalNoise, step: int,
                     observed: np.ndarray) -> np.ndarray:
        # Draw both streams unconditionally so the RNG stream shape
        # does not depend on which connections happen to be hit.
        draws = self.rng.random(self.n)
        noise = self.rng.uniform(-inj.amplitude, inj.amplitude,
                                 size=self.n)
        for i in range(self.n):
            if draws[i] < inj.rate:
                old = observed[i]
                observed[i] = min(1.0, max(0.0, old + noise[i]))
                self._event(step, i, inj.kind,
                            float(observed[i] - old))
        return observed

    def _apply_quantisation(self, inj: SignalQuantisation, step: int,
                            observed: np.ndarray) -> np.ndarray:
        grid = inj.levels - 1
        for i in range(self.n):
            q = round(observed[i] * grid) / grid
            if q != observed[i]:
                self._event(step, i, inj.kind, float(q - observed[i]))
                observed[i] = q
        return observed


def _loop_faults(states: List[FaultState], max_steps: int):
    """A block's fault states as the ensemble kernel's ``faults``
    arrays (see :class:`repro.backends.compiled.Perturbation`), or None
    when the kernel does not serve them: an injector that is not one of
    the six built-in types, a loss connection out of range (``apply``
    raises), a jitter of ``2**32 - 1`` or more (numpy draws those
    otherwise) or more than ``2**53 + 1`` quantisation levels.

    The states are one plan's, started for one network; each member's
    skew lags and stream state are copied, not advanced.  A lag, delay
    or window bound past ``max_steps + 1`` acts as ``max_steps + 1``,
    so it is clamped there, and so is the history."""
    first = states[0]
    n, clamp = first.n, max_steps + 1
    fi, reals, sets, skews = [], [], [], []
    for inj in first._stages:
        if type(inj) not in _LOOP_TYPES:
            return None
        code = inj.stage
        row, real, members = [code, 0, 0, 0], [0.0, 0.0], None
        if code == ClockSkew.stage:
            row[1] = len(skews)
            skews.append(inj)
        elif code == ExtraDelay.stage:
            if inj.jitter >= 2**32 - 1:
                return None
            row[1:3] = min(inj.delay, clamp), inj.jitter
        elif code == GatewayOutage.stage:
            row[1:] = (min(inj.start, clamp), min(inj.duration, clamp),
                       min(inj.period or 0, clamp))
            members = first._outage_masks.get(inj)
        elif code == SignalLoss.stage:
            members = inj.connections
            if members is not None and any(i >= n for i in members):
                return None
            real[0] = float(inj.rate)
        elif code == SignalNoise.stage:
            real = [float(inj.rate), float(inj.amplitude)]
        else:
            if inj.levels - 1 > 2**53:
                return None
            row[1] = inj.levels - 1
        offset = sum(len(s) for s in sets)
        if members is None:
            row += [offset, -1]
        else:
            sets.append(np.asarray(members, dtype=np.int64))
            row += [offset, len(sets[-1])]
        fi.append(row)
        reals.append(real)
    skew = np.zeros((len(states), len(skews), n), dtype=np.int64)
    streams = np.empty((len(states), 6), dtype=np.uint64)
    for m, state in enumerate(states):
        for row, inj in enumerate(skews):
            np.minimum(state._skew_lags[inj], clamp, out=skew[m, row])
        streams[m] = stream_words(state.rng.bit_generator.state)
    return (fi, reals, np.concatenate(sets) if sets else [],
            min(first._history_cap, clamp), skew, streams)
