"""Serialisable scenario specifications for the fuzzing subsystem.

A :class:`ScenarioSpec` is a *complete, standalone* description of one
flow-control configuration: the resolved topology (gateways and
connections, not a family name), the service discipline, the signal
function, the feedback style, one rate-adjustment rule per connection,
optional fair-share weights, the initial condition, the run budget, and
an optional fault plan.  It is the unit of currency of the fuzzing
harness:

* the generator emits specs;
* the differential/oracle harness consumes specs (via :meth:`build`);
* the shrinker transforms specs;
* a failing spec serialises to a single JSON document
  (:meth:`to_json`) that reproduces the failure exactly —
  ``ScenarioSpec.from_json(text)`` round-trips *equal*, field for
  field, so a bug report is one copy-pasteable blob.

All spec classes are frozen dataclasses built from tuples, so equality
is structural and specs are hashable and safe to share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from ..chaos.adversaries import (AdversaryRule, BlasterRule,
                                 PinnedRateRule, SawtoothRule)
from ..chaos.structural import (CapacityDegradation, GatewayBlackhole,
                                StructuralFaultPlan)
from ..core.asynchronous import (BurstyClock, ClockModel, ClockSchedule,
                                 DriftingClock, RateMixClock,
                                 UniformClock)
from ..core.dynamics import FlowControlSystem
from ..core.fairshare import FairShare
from ..core.fifo import Fifo
from ..core.ratecontrol import (BinaryAimdRule, DecbitRateRule,
                                DecbitWindowRule, ProportionalTargetRule,
                                RateAdjustment, RcpSourceRule, TargetRule,
                                TcpLikeRule)
from ..core.rcp import RcpController
from ..core.signals import (ExponentialSignal, FeedbackStyle,
                            LinearSaturating, PowerSaturating)
from ..core.topology import Connection, Gateway, Network
from ..core.weighted import WeightedFairShare
from ..errors import ReproError, ScenarioError
from ..faults import (ClockSkew, ExtraDelay, FaultPlan, GatewayOutage,
                      SignalLoss, SignalNoise, SignalQuantisation)

__all__ = [
    "SCENARIO_SCHEMA",
    "GatewaySpec",
    "ConnectionSpec",
    "SignalSpec",
    "RuleSpec",
    "ControllerSpec",
    "ClockSpec",
    "InjectorSpec",
    "FaultPlanSpec",
    "AdversarySpec",
    "StructuralInjectorSpec",
    "StructuralPlanSpec",
    "ScenarioSpec",
]

#: Schema identifier embedded in every serialised scenario.
SCENARIO_SCHEMA = "repro.scenario-spec/v1"

#: Rule kinds the spec layer knows how to build, with their parameter
#: names.  TSI kinds declare a target signal (Theorem 1) — the oracle
#: layer uses this to decide which theorem oracles apply.
RULE_KINDS = {
    "target": ("eta", "beta"),
    "proportional-target": ("eta", "beta"),
    "decbit-window": ("eta", "beta"),
    "decbit-rate": ("eta", "beta"),
    "binary-aimd": ("increase", "decrease", "threshold"),
    "tcp-like": ("increase", "decrease", "threshold"),
    "rcp-source": (),
}

_RULE_BUILDERS = {
    "target": TargetRule,
    "proportional-target": ProportionalTargetRule,
    "decbit-window": DecbitWindowRule,
    "decbit-rate": DecbitRateRule,
    "binary-aimd": BinaryAimdRule,
    "tcp-like": TcpLikeRule,
    "rcp-source": RcpSourceRule,
}

#: Router-side controller kinds and their parameter names.
CONTROLLER_KINDS = {
    "rcp": ("alpha", "beta", "fill"),
}

_CONTROLLER_BUILDERS = {
    "rcp": RcpController,
}

SIGNAL_KINDS = ("linear-saturating", "power-saturating", "exponential")

DISCIPLINE_KINDS = ("fifo", "fair-share", "weighted-fair-share")

INJECTOR_KINDS = {
    "delay": ("delay", "jitter"),
    "clock_skew": ("min_lag", "max_lag"),
    "outage": ("start", "duration", "period", "gateway"),
    "loss": ("rate", "connections"),
    "corrupt": ("rate", "amplitude"),
    "quantise": ("levels",),
}

_INJECTOR_BUILDERS = {
    "delay": ExtraDelay,
    "clock_skew": ClockSkew,
    "outage": GatewayOutage,
    "loss": SignalLoss,
    "corrupt": SignalNoise,
    "quantise": SignalQuantisation,
}

#: Adversary-zoo kinds (see :mod:`repro.chaos.adversaries`) and their
#: parameter names.
ADVERSARY_KINDS = {
    "blaster": ("increment", "cap"),
    "pinned": ("rate",),
    "sawtooth": ("low", "high", "increase"),
}

_ADVERSARY_BUILDERS = {
    "blaster": BlasterRule,
    "pinned": PinnedRateRule,
    "sawtooth": SawtoothRule,
}

#: Heterogeneous update-clock kinds (see
#: :mod:`repro.core.asynchronous`) and their parameter names.
CLOCK_KINDS = {
    "uniform": ("rate", "seed"),
    "mix": ("slow_rate", "fast_rate", "slow_fraction", "seed"),
    "drifting": ("base_rate", "amplitude", "period", "seed"),
    "bursty": ("on_rate", "off_rate", "burst_len", "seed"),
}

_CLOCK_BUILDERS = {
    "uniform": UniformClock,
    "mix": RateMixClock,
    "drifting": DriftingClock,
    "bursty": BurstyClock,
}

#: Structural injector kinds (see :mod:`repro.chaos.structural`) and
#: their parameter names.
STRUCTURAL_KINDS = {
    "degrade": ("gateway", "factor", "start", "duration", "period",
                "jitter"),
    "blackhole": ("gateway", "start", "duration", "period", "jitter"),
}

_STRUCTURAL_BUILDERS = {
    "degrade": CapacityDegradation,
    "blackhole": GatewayBlackhole,
}


def _params_tuple(kind: str, params, known) -> Tuple[Tuple[str, object], ...]:
    """Normalise a params mapping/pair-sequence into a sorted tuple."""
    if isinstance(params, dict):
        items = params.items()
    else:
        items = list(params)
    out = []
    for key, value in sorted(items):
        key = str(key)
        if key not in known:
            raise ScenarioError(
                f"{kind!r}: unknown parameter {key!r} "
                f"(known: {sorted(known)})")
        if isinstance(value, list):
            value = tuple(value)
        out.append((key, value))
    return tuple(out)


@dataclass(frozen=True)
class GatewaySpec:
    """One gateway of a scenario: ``(name, mu, latency)``."""

    name: str
    mu: float
    latency: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise ScenarioError(
                f"gateway name must be a nonempty string, got "
                f"{self.name!r}")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ScenarioError(
                f"gateway {self.name!r}: mu must be finite and positive, "
                f"got {self.mu!r}")
        if not (math.isfinite(self.latency) and self.latency >= 0):
            raise ScenarioError(
                f"gateway {self.name!r}: latency must be finite and "
                f"nonnegative, got {self.latency!r}")

    def to_dict(self) -> dict:
        return {"name": self.name, "mu": self.mu, "latency": self.latency}

    @classmethod
    def from_dict(cls, data: dict) -> "GatewaySpec":
        return cls(name=data["name"], mu=data["mu"],
                   latency=data.get("latency", 0.0))


@dataclass(frozen=True)
class ConnectionSpec:
    """One connection of a scenario: ``(name, path)``."""

    name: str
    path: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(self.path))
        if not (isinstance(self.name, str) and self.name):
            raise ScenarioError(
                f"connection name must be a nonempty string, got "
                f"{self.name!r}")
        if not self.path:
            raise ScenarioError(
                f"connection {self.name!r}: path must not be empty")

    def to_dict(self) -> dict:
        return {"name": self.name, "path": list(self.path)}

    @classmethod
    def from_dict(cls, data: dict) -> "ConnectionSpec":
        return cls(name=data["name"], path=tuple(data["path"]))


@dataclass(frozen=True)
class SignalSpec:
    """The signal function ``B``: a kind plus its single parameter.

    ``param`` is the exponent for ``power-saturating``, the rate
    constant for ``exponential``, and must be 0 for
    ``linear-saturating`` (which has no parameter).
    """

    kind: str = "linear-saturating"
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ScenarioError(
                f"unknown signal kind {self.kind!r} "
                f"(known: {SIGNAL_KINDS})")
        if self.kind == "linear-saturating":
            if self.param != 0.0:
                raise ScenarioError(
                    "linear-saturating takes no parameter; param must "
                    f"be 0, got {self.param!r}")
        elif not (math.isfinite(self.param) and self.param > 0):
            raise ScenarioError(
                f"signal {self.kind!r}: param must be finite and "
                f"positive, got {self.param!r}")

    def build(self):
        if self.kind == "linear-saturating":
            return LinearSaturating()
        if self.kind == "power-saturating":
            return PowerSaturating(p=self.param)
        return ExponentialSignal(k=self.param)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "param": self.param}

    @classmethod
    def from_dict(cls, data: dict) -> "SignalSpec":
        return cls(kind=data["kind"], param=data.get("param", 0.0))


@dataclass(frozen=True)
class RuleSpec:
    """One rate-adjustment rule: a kind plus its parameters.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs
    so equality and hashing are structural; construct with either a
    mapping or a pair sequence.
    """

    kind: str
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ScenarioError(
                f"unknown rule kind {self.kind!r} "
                f"(known: {sorted(RULE_KINDS)})")
        object.__setattr__(
            self, "params",
            _params_tuple(self.kind, self.params, RULE_KINDS[self.kind]))

    @property
    def tsi(self) -> bool:
        """Theorem 1: does this rule declare a steady-state signal?"""
        return self.kind in ("target", "proportional-target")

    def target_signal(self) -> float:
        """The declared ``b_ss`` of a TSI rule."""
        if not self.tsi:
            raise ScenarioError(
                f"rule kind {self.kind!r} is not TSI; it has no target "
                f"signal")
        return float(dict(self.params)["beta"])

    def build(self) -> RateAdjustment:
        try:
            return _RULE_BUILDERS[self.kind](**dict(self.params))
        except ReproError as exc:
            raise ScenarioError(
                f"rule {self.kind!r} with params "
                f"{dict(self.params)!r}: {exc}") from exc

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "RuleSpec":
        return cls(kind=data["kind"], params=data.get("params", {}))


@dataclass(frozen=True)
class ControllerSpec:
    """A router-side controller: a kind plus its parameters.

    Currently the only kind is ``"rcp"`` (see
    :class:`repro.core.rcp.RcpController`).  Scenarios carrying a
    controller must run ``rcp-source`` rules on every connection — the
    control law lives in the gateways, not the sources.
    """

    kind: str = "rcp"
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise ScenarioError(
                f"unknown controller kind {self.kind!r} "
                f"(known: {sorted(CONTROLLER_KINDS)})")
        object.__setattr__(
            self, "params",
            _params_tuple(self.kind, self.params,
                          CONTROLLER_KINDS[self.kind]))

    def build(self) -> RcpController:
        try:
            return _CONTROLLER_BUILDERS[self.kind](**dict(self.params))
        except ReproError as exc:
            raise ScenarioError(
                f"controller {self.kind!r} with params "
                f"{dict(self.params)!r}: {exc}") from exc

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "ControllerSpec":
        return cls(kind=data["kind"], params=data.get("params", {}))


@dataclass(frozen=True)
class ClockSpec:
    """A heterogeneous update clock: a :class:`~repro.core.asynchronous
    .ClockModel` kind plus its parameters, and the feedback staleness
    ``signal_delay``.

    The oracles build it into a
    :class:`~repro.core.asynchronous.ClockSchedule` (via
    :meth:`schedule`) and run the scenario's system through
    :func:`~repro.core.asynchronous.run_async_ensemble`, its ``M = 1``
    call :class:`~repro.core.asynchronous.AsynchronousRunner` and the
    plain reference :func:`~repro.scenarios.oracles.reference_run`.
    """

    kind: str = "uniform"
    params: Tuple[Tuple[str, object], ...] = ()
    signal_delay: int = 0

    def __post_init__(self):
        if self.kind not in CLOCK_KINDS:
            raise ScenarioError(
                f"unknown clock kind {self.kind!r} "
                f"(known: {sorted(CLOCK_KINDS)})")
        object.__setattr__(
            self, "params",
            _params_tuple(self.kind, self.params,
                          CLOCK_KINDS[self.kind]))
        if not isinstance(self.signal_delay, int) \
                or isinstance(self.signal_delay, bool) \
                or self.signal_delay < 0:
            raise ScenarioError(
                f"clock signal_delay must be an int >= 0, got "
                f"{self.signal_delay!r}")

    def build(self) -> ClockModel:
        try:
            return _CLOCK_BUILDERS[self.kind](**dict(self.params))
        except ReproError as exc:
            raise ScenarioError(
                f"clock {self.kind!r} with params "
                f"{dict(self.params)!r}: {exc}") from exc

    def schedule(self) -> ClockSchedule:
        """The spec's clock as an update schedule."""
        return ClockSchedule(self.build())

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params),
                "signal_delay": self.signal_delay}

    @classmethod
    def from_dict(cls, data: dict) -> "ClockSpec":
        return cls(kind=data["kind"], params=data.get("params", {}),
                   signal_delay=data.get("signal_delay", 0))


@dataclass(frozen=True)
class InjectorSpec:
    """One fault injector: a kind plus its parameters (see
    :mod:`repro.faults.injectors` for the semantics)."""

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.kind not in INJECTOR_KINDS:
            raise ScenarioError(
                f"unknown injector kind {self.kind!r} "
                f"(known: {sorted(INJECTOR_KINDS)})")
        object.__setattr__(
            self, "params",
            _params_tuple(self.kind, self.params,
                          INJECTOR_KINDS[self.kind]))

    def build(self):
        try:
            return _INJECTOR_BUILDERS[self.kind](**dict(self.params))
        except ReproError as exc:
            raise ScenarioError(
                f"injector {self.kind!r} with params "
                f"{dict(self.params)!r}: {exc}") from exc

    def to_dict(self) -> dict:
        params = {}
        for key, value in self.params:
            params[key] = list(value) if isinstance(value, tuple) else value
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_dict(cls, data: dict) -> "InjectorSpec":
        return cls(kind=data["kind"], params=data.get("params", {}))


@dataclass(frozen=True)
class FaultPlanSpec:
    """A serialisable :class:`~repro.faults.FaultPlan` description."""

    seed: int = 0
    injectors: Tuple[InjectorSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "injectors", tuple(self.injectors))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ScenarioError(
                f"fault-plan seed must be an int >= 0, got {self.seed!r}")
        for inj in self.injectors:
            if not isinstance(inj, InjectorSpec):
                raise ScenarioError(
                    f"fault-plan entries must be InjectorSpec, got "
                    f"{inj!r}")

    def build(self) -> FaultPlan:
        return FaultPlan(
            injectors=tuple(inj.build() for inj in self.injectors),
            seed=self.seed)

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "injectors": [inj.to_dict() for inj in self.injectors]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlanSpec":
        return cls(seed=data.get("seed", 0),
                   injectors=tuple(InjectorSpec.from_dict(d)
                                   for d in data.get("injectors", ())))


@dataclass(frozen=True)
class AdversarySpec:
    """One misbehaving connection: which index runs which zoo member.

    An adversary *overrides* the rule at ``connections[index]`` when
    the scenario is built — the honest ``rules`` tuple stays intact,
    so the oracle layer can reason about the honest remainder (and the
    adversarial-floor oracle knows exactly who Theorem 5 protects).
    """

    index: int
    kind: str = "blaster"
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if not isinstance(self.index, int) or isinstance(self.index, bool) \
                or self.index < 0:
            raise ScenarioError(
                f"adversary index must be an int >= 0, got {self.index!r}")
        if self.kind not in ADVERSARY_KINDS:
            raise ScenarioError(
                f"unknown adversary kind {self.kind!r} "
                f"(known: {sorted(ADVERSARY_KINDS)})")
        object.__setattr__(
            self, "params",
            _params_tuple(self.kind, self.params,
                          ADVERSARY_KINDS[self.kind]))

    def build(self) -> AdversaryRule:
        try:
            return _ADVERSARY_BUILDERS[self.kind](**dict(self.params))
        except ReproError as exc:
            raise ScenarioError(
                f"adversary {self.kind!r} with params "
                f"{dict(self.params)!r}: {exc}") from exc

    def to_dict(self) -> dict:
        return {"index": self.index, "kind": self.kind,
                "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "AdversarySpec":
        return cls(index=data["index"], kind=data["kind"],
                   params=data.get("params", {}))


@dataclass(frozen=True)
class StructuralInjectorSpec:
    """One structural injector: scheduled topology damage (see
    :mod:`repro.chaos.structural` for the degradation semantics)."""

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.kind not in STRUCTURAL_KINDS:
            raise ScenarioError(
                f"unknown structural injector kind {self.kind!r} "
                f"(known: {sorted(STRUCTURAL_KINDS)})")
        object.__setattr__(
            self, "params",
            _params_tuple(self.kind, self.params,
                          STRUCTURAL_KINDS[self.kind]))

    def gateway(self) -> Optional[str]:
        """The gateway this injector damages (``None`` when unset —
        caught at build time)."""
        return dict(self.params).get("gateway")

    def build(self):
        try:
            return _STRUCTURAL_BUILDERS[self.kind](**dict(self.params))
        except ReproError as exc:
            raise ScenarioError(
                f"structural injector {self.kind!r} with params "
                f"{dict(self.params)!r}: {exc}") from exc

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "StructuralInjectorSpec":
        return cls(kind=data["kind"], params=data.get("params", {}))


@dataclass(frozen=True)
class StructuralPlanSpec:
    """A serialisable :class:`~repro.chaos.StructuralFaultPlan`."""

    seed: int = 0
    injectors: Tuple[StructuralInjectorSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "injectors", tuple(self.injectors))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ScenarioError(
                f"structural-plan seed must be an int >= 0, got "
                f"{self.seed!r}")
        for inj in self.injectors:
            if not isinstance(inj, StructuralInjectorSpec):
                raise ScenarioError(
                    f"structural-plan entries must be "
                    f"StructuralInjectorSpec, got {inj!r}")

    def build(self) -> StructuralFaultPlan:
        try:
            return StructuralFaultPlan(
                injectors=tuple(inj.build() for inj in self.injectors),
                seed=self.seed)
        except ReproError as exc:
            raise ScenarioError(f"structural plan does not build: "
                                f"{exc}") from exc

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "injectors": [inj.to_dict() for inj in self.injectors]}

    @classmethod
    def from_dict(cls, data: dict) -> "StructuralPlanSpec":
        return cls(seed=data.get("seed", 0),
                   injectors=tuple(StructuralInjectorSpec.from_dict(d)
                                   for d in data.get("injectors", ())))


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, reproducible fuzzing scenario.

    Attributes:
        name: human-readable identifier (``fuzz-<seed>-<index>`` for
            generated scenarios).
        gateways / connections: the resolved topology.
        discipline: one of :data:`DISCIPLINE_KINDS`;
            ``weighted-fair-share`` requires ``weights``.
        signal: the signal function ``B``.
        style: ``"aggregate"`` or ``"individual"``.
        rules: one :class:`RuleSpec` per connection.  Equal specs are
            built as one shared rule *object*, so homogeneity is
            preserved and the batch engine's rule grouping stays
            effective.
        weights: optional per-connection fair-share weights.
        initial_rates: the starting rate vector, strictly positive.
        max_steps / tol: the trajectory budget used by the oracle
            harness.
        seed: the scenario's own RNG seed (packet-kernel runs, probe
            states).
        fault_plan: optional fault plan exercised by the
            fault-determinism oracle.
        controller: optional router-side controller
            (:class:`ControllerSpec`).  Requires every rule to be
            ``rcp-source`` and excludes ``fault_plan`` (controllers do
            not read the per-source signal path faults perturb).
        adversaries: optional misbehaving connections
            (:class:`AdversarySpec`).  Each overrides the rule at its
            index when the system is built; excluded by ``controller``.
        structural_plan: optional scheduled topology damage
            (:class:`StructuralPlanSpec`), exercised by the
            fault-determinism oracle; excluded by ``controller``.
        clock: optional heterogeneous update clock
            (:class:`ClockSpec`), exercised by the async fixed-point
            and loop-equivalence oracles; excluded by ``controller``
            (gateway-driven systems have no per-source clock).
    """

    name: str
    gateways: Tuple[GatewaySpec, ...]
    connections: Tuple[ConnectionSpec, ...]
    discipline: str
    signal: SignalSpec
    style: str
    rules: Tuple[RuleSpec, ...]
    initial_rates: Tuple[float, ...]
    weights: Optional[Tuple[float, ...]] = None
    max_steps: int = 2000
    tol: float = 1e-10
    seed: int = 0
    fault_plan: Optional[FaultPlanSpec] = None
    controller: Optional[ControllerSpec] = None
    adversaries: Tuple[AdversarySpec, ...] = ()
    structural_plan: Optional[StructuralPlanSpec] = None
    clock: Optional[ClockSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "gateways", tuple(self.gateways))
        object.__setattr__(self, "connections", tuple(self.connections))
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "adversaries", tuple(self.adversaries))
        object.__setattr__(self, "initial_rates",
                           tuple(float(r) for r in self.initial_rates))
        if self.weights is not None:
            object.__setattr__(self, "weights",
                               tuple(float(w) for w in self.weights))
        if not self.gateways:
            raise ScenarioError("a scenario needs at least one gateway")
        if not self.connections:
            raise ScenarioError("a scenario needs at least one connection")
        gw_names = set()
        for gw in self.gateways:
            if gw.name in gw_names:
                raise ScenarioError(f"duplicate gateway {gw.name!r}")
            gw_names.add(gw.name)
        conn_names = set()
        for conn in self.connections:
            if conn.name in conn_names:
                raise ScenarioError(f"duplicate connection {conn.name!r}")
            conn_names.add(conn.name)
            unknown = set(conn.path) - gw_names
            if unknown:
                raise ScenarioError(
                    f"connection {conn.name!r} routed through unknown "
                    f"gateways {sorted(unknown)!r}")
            if len(set(conn.path)) != len(conn.path):
                raise ScenarioError(
                    f"connection {conn.name!r}: path visits a gateway "
                    f"twice")
        n = len(self.connections)
        if self.discipline not in DISCIPLINE_KINDS:
            raise ScenarioError(
                f"unknown discipline {self.discipline!r} "
                f"(known: {DISCIPLINE_KINDS})")
        if self.style not in ("aggregate", "individual"):
            raise ScenarioError(
                f"style must be 'aggregate' or 'individual', got "
                f"{self.style!r}")
        if len(self.rules) != n:
            raise ScenarioError(
                f"need one rule per connection ({n}), got "
                f"{len(self.rules)}")
        if len(self.initial_rates) != n:
            raise ScenarioError(
                f"need one initial rate per connection ({n}), got "
                f"{len(self.initial_rates)}")
        for r in self.initial_rates:
            if not (math.isfinite(r) and r > 0):
                raise ScenarioError(
                    f"initial rates must be finite and strictly "
                    f"positive, got {r!r}")
        if self.weights is not None:
            if len(self.weights) != n:
                raise ScenarioError(
                    f"need one weight per connection ({n}), got "
                    f"{len(self.weights)}")
            for w in self.weights:
                if not (math.isfinite(w) and w > 0):
                    raise ScenarioError(
                        f"weights must be finite and positive, got {w!r}")
        if self.discipline == "weighted-fair-share":
            if self.weights is None:
                raise ScenarioError(
                    "discipline 'weighted-fair-share' requires weights")
            # WeightedFairShare's weight vector is indexed like the
            # *local* rate vector at each gateway, so one global weight
            # vector is only coherent when every gateway carries every
            # connection.
            for gw in self.gateways:
                carried = sum(gw.name in c.path for c in self.connections)
                if carried != n:
                    raise ScenarioError(
                        f"discipline 'weighted-fair-share' requires "
                        f"every connection to cross every gateway, but "
                        f"{gw.name!r} carries {carried} of {n}")
        if not isinstance(self.max_steps, int) \
                or isinstance(self.max_steps, bool) or self.max_steps < 1:
            raise ScenarioError(
                f"max_steps must be an int >= 1, got {self.max_steps!r}")
        if not (isinstance(self.tol, float) and math.isfinite(self.tol)
                and self.tol > 0):
            raise ScenarioError(
                f"tol must be a finite positive float, got {self.tol!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ScenarioError(
                f"seed must be an int >= 0, got {self.seed!r}")
        if self.fault_plan is not None \
                and not isinstance(self.fault_plan, FaultPlanSpec):
            raise ScenarioError(
                f"fault_plan must be a FaultPlanSpec or None, got "
                f"{self.fault_plan!r}")
        seen_adv = set()
        for adv in self.adversaries:
            if not isinstance(adv, AdversarySpec):
                raise ScenarioError(
                    f"adversaries entries must be AdversarySpec, got "
                    f"{adv!r}")
            if adv.index >= n:
                raise ScenarioError(
                    f"adversary index {adv.index} out of range "
                    f"0..{n - 1}")
            if adv.index in seen_adv:
                raise ScenarioError(
                    f"duplicate adversary at connection {adv.index}")
            seen_adv.add(adv.index)
        if self.structural_plan is not None:
            if not isinstance(self.structural_plan, StructuralPlanSpec):
                raise ScenarioError(
                    f"structural_plan must be a StructuralPlanSpec or "
                    f"None, got {self.structural_plan!r}")
            for inj in self.structural_plan.injectors:
                gw = inj.gateway()
                if gw not in gw_names:
                    raise ScenarioError(
                        f"structural injector {inj.kind!r} names "
                        f"unknown gateway {gw!r} "
                        f"(known: {sorted(gw_names)})")
        if self.clock is not None \
                and not isinstance(self.clock, ClockSpec):
            raise ScenarioError(
                f"clock must be a ClockSpec or None, got "
                f"{self.clock!r}")
        if self.controller is not None:
            if not isinstance(self.controller, ControllerSpec):
                raise ScenarioError(
                    f"controller must be a ControllerSpec or None, got "
                    f"{self.controller!r}")
            if self.fault_plan is not None:
                raise ScenarioError(
                    "a controller-driven scenario cannot carry a fault "
                    "plan: faults perturb the per-source signal path, "
                    "which the controller does not read")
            if self.structural_plan is not None:
                raise ScenarioError(
                    "a controller-driven scenario cannot carry a "
                    "structural plan: structural faults damage the "
                    "per-source signal/delay path, which "
                    "controller-driven systems replace with router-side "
                    "state")
            if self.adversaries:
                raise ScenarioError(
                    "a controller-driven scenario cannot carry "
                    "adversaries: every rule must be 'rcp-source'")
            if self.clock is not None:
                raise ScenarioError(
                    "a controller-driven scenario cannot carry a "
                    "clock: the control law updates at the gateways, "
                    "so there is no per-source clock to skew")
            bad = [r.kind for r in self.rules if r.kind != "rcp-source"]
            if bad:
                raise ScenarioError(
                    f"controller-driven scenarios require every rule to "
                    f"be 'rcp-source', got {sorted(set(bad))!r}")
        elif any(r.kind == "rcp-source" for r in self.rules):
            raise ScenarioError(
                "'rcp-source' rules need a controller: without one the "
                "dynamics would be the identity map")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def num_connections(self) -> int:
        return len(self.connections)

    @property
    def homogeneous(self) -> bool:
        """Do all connections run the same (structurally equal) rule?"""
        return all(rule == self.rules[0] for rule in self.rules)

    @property
    def all_tsi(self) -> bool:
        """Is every rule time-scale invariant (declares a target)?"""
        return all(rule.tsi for rule in self.rules)

    @property
    def chaotic(self) -> bool:
        """Does the scenario carry adversaries or structural damage?
        Theorem oracles gate on this — their hypotheses assume honest
        sources on an intact network."""
        return bool(self.adversaries) or self.structural_plan is not None

    def adversary_indices(self) -> Tuple[int, ...]:
        """The misbehaving connection indices, sorted."""
        return tuple(sorted(adv.index for adv in self.adversaries))

    def honest_indices(self) -> Tuple[int, ...]:
        """The connection indices Theorem 5 actually protects."""
        bad = {adv.index for adv in self.adversaries}
        return tuple(i for i in range(self.num_connections)
                     if i not in bad)

    def network(self) -> Network:
        return Network(
            gateways=[Gateway(g.name, g.mu, g.latency)
                      for g in self.gateways],
            connections=[Connection(c.name, c.path)
                         for c in self.connections])

    def build(self) -> FlowControlSystem:
        """Materialise the scenario into a live system.

        Structurally equal :class:`RuleSpec` s share one rule object so
        the batch engine's per-rule column grouping (and the
        ``homogeneous`` fast paths) behave exactly as for hand-built
        systems.
        """
        network = self.network()
        if self.discipline == "fifo":
            discipline = Fifo()
        elif self.discipline == "fair-share":
            discipline = FairShare()
        else:
            discipline = WeightedFairShare(self.weights)
        built: dict = {}
        rules = []
        for rule_spec in self.rules:
            if rule_spec not in built:
                built[rule_spec] = rule_spec.build()
            rules.append(built[rule_spec])
        for adv in self.adversaries:
            if adv not in built:
                built[adv] = adv.build()
            rules[adv.index] = built[adv]
        try:
            return FlowControlSystem(
                network, discipline, self.signal.build(), rules,
                style=FeedbackStyle(self.style), weights=self.weights,
                controller=(None if self.controller is None
                            else self.controller.build()))
        except ReproError as exc:
            raise ScenarioError(f"scenario {self.name!r} does not "
                                f"build: {exc}") from exc

    def build_fault_plan(self) -> FaultPlan:
        """The scenario's fault plan (the empty plan when unset)."""
        if self.fault_plan is None:
            return FaultPlan()
        return self.fault_plan.build()

    def build_structural_plan(self) -> StructuralFaultPlan:
        """The scenario's structural plan (the empty plan when unset)."""
        if self.structural_plan is None:
            return StructuralFaultPlan()
        return self.structural_plan.build()

    def initial(self) -> np.ndarray:
        return np.asarray(self.initial_rates, dtype=float)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "gateways": [g.to_dict() for g in self.gateways],
            "connections": [c.to_dict() for c in self.connections],
            "discipline": self.discipline,
            "signal": self.signal.to_dict(),
            "style": self.style,
            "rules": [r.to_dict() for r in self.rules],
            "weights": None if self.weights is None else list(self.weights),
            "initial_rates": list(self.initial_rates),
            "max_steps": self.max_steps,
            "tol": self.tol,
            "seed": self.seed,
            "fault_plan": (None if self.fault_plan is None
                           else self.fault_plan.to_dict()),
            "controller": (None if self.controller is None
                           else self.controller.to_dict()),
            "adversaries": [a.to_dict() for a in self.adversaries],
            "structural_plan": (None if self.structural_plan is None
                                else self.structural_plan.to_dict()),
            "clock": (None if self.clock is None
                      else self.clock.to_dict()),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Strict-JSON serialisation; exact round-trip via
        :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise ScenarioError(
                f"scenario spec must be a dict, got "
                f"{type(data).__name__}")
        schema = data.get("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ScenarioError(
                f"unsupported scenario schema {schema!r} "
                f"(expected {SCENARIO_SCHEMA!r})")
        try:
            return cls(
                name=data["name"],
                gateways=tuple(GatewaySpec.from_dict(g)
                               for g in data["gateways"]),
                connections=tuple(ConnectionSpec.from_dict(c)
                                  for c in data["connections"]),
                discipline=data["discipline"],
                signal=SignalSpec.from_dict(data["signal"]),
                style=data["style"],
                rules=tuple(RuleSpec.from_dict(r) for r in data["rules"]),
                weights=(None if data.get("weights") is None
                         else tuple(data["weights"])),
                initial_rates=tuple(data["initial_rates"]),
                max_steps=data.get("max_steps", 2000),
                tol=data.get("tol", 1e-10),
                seed=data.get("seed", 0),
                fault_plan=(None if data.get("fault_plan") is None
                            else FaultPlanSpec.from_dict(
                                data["fault_plan"])),
                controller=(None if data.get("controller") is None
                            else ControllerSpec.from_dict(
                                data["controller"])),
                adversaries=tuple(AdversarySpec.from_dict(a)
                                  for a in data.get("adversaries", ())),
                structural_plan=(
                    None if data.get("structural_plan") is None
                    else StructuralPlanSpec.from_dict(
                        data["structural_plan"])),
                clock=(None if data.get("clock") is None
                       else ClockSpec.from_dict(data["clock"])),
            )
        except KeyError as exc:
            raise ScenarioError(
                f"scenario spec is missing field {exc.args[0]!r}") \
                from None
        except (TypeError, ValueError, AttributeError) as exc:
            raise ScenarioError(
                f"scenario spec is malformed: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"scenario spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # structural edits (used by the shrinker)
    # ------------------------------------------------------------------
    def drop_connection(self, index: int) -> "ScenarioSpec":
        """A copy without connection ``index`` (and without gateways
        that no longer carry any connection).  Raises
        :class:`~repro.errors.ScenarioError` when it is the last one.
        """
        n = self.num_connections
        if not (0 <= index < n):
            raise ScenarioError(
                f"connection index {index!r} out of range 0..{n - 1}")
        if n == 1:
            raise ScenarioError("cannot drop the last connection")
        keep = [i for i in range(n) if i != index]
        connections = tuple(self.connections[i] for i in keep)
        used = {g for c in connections for g in c.path}
        gateways = tuple(g for g in self.gateways if g.name in used)
        # Adversaries on the dropped connection disappear; the rest
        # shift down with their connections.  Structural injectors on
        # pruned gateways disappear with the gateway.
        adversaries = tuple(
            replace(a, index=a.index - (1 if a.index > index else 0))
            for a in self.adversaries if a.index != index)
        structural_plan = self.structural_plan
        if structural_plan is not None:
            kept = tuple(inj for inj in structural_plan.injectors
                         if inj.gateway() in used)
            structural_plan = (None if not kept else
                               replace(structural_plan, injectors=kept))
        return replace(
            self,
            gateways=gateways,
            connections=connections,
            rules=tuple(self.rules[i] for i in keep),
            initial_rates=tuple(self.initial_rates[i] for i in keep),
            weights=(None if self.weights is None
                     else tuple(self.weights[i] for i in keep)),
            adversaries=adversaries,
            structural_plan=structural_plan,
        )

    def with_rounded_values(self, decimals: int) -> "ScenarioSpec":
        """A copy with service rates and initial rates rounded to
        ``decimals`` places (guarding against rounding to zero)."""

        def rounded(value: float, lo: float) -> float:
            return max(lo, round(float(value), decimals))

        lo = 10.0 ** (-decimals)
        return replace(
            self,
            gateways=tuple(
                GatewaySpec(g.name, rounded(g.mu, lo),
                            max(0.0, round(g.latency, decimals)))
                for g in self.gateways),
            initial_rates=tuple(rounded(r, lo)
                                for r in self.initial_rates),
        )
