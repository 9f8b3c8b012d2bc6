"""Seeded random generation of :class:`~repro.scenarios.ScenarioSpec` s.

The generator draws from the configuration families the paper actually
analyses — not arbitrary noise:

* **topologies** — single shared gateway, the two-gateway shared
  example, tandems, parking lots, and random connected multi-gateway
  networks (via :func:`~repro.core.topology.random_network`);
* **rules** — the paper's rate-adjustment families
  (:data:`~repro.scenarios.spec.RULE_KINDS`), mostly homogeneous so
  the theorem oracles apply, occasionally heterogeneous to exercise
  the robustness path;
* **signals, disciplines, styles** — every combination the engines
  support, including weighted Fair Share;
* **fault plans** — a minority of scenarios carry a small seeded
  fault plan so the fault-determinism contracts are fuzzed too;
* **chaos** — a minority of non-controller scenarios carry adversaries
  (only behind fair-share gateways, where Theorem 5 predicts the
  honest floors the adversarial-floor oracle asserts) or a structural
  plan (scheduled capacity degradations / blackholes, exercised by the
  fault-determinism oracle's structural branch);
* **clocks** — a minority of non-controller scenarios carry a
  heterogeneous update clock (:class:`~repro.scenarios.spec.ClockSpec`
  — slow/fast mixes, drifting, bursty, plus a small signal delay),
  exercised by the async fixed-point and loop-equivalence oracles.

Determinism contract: ``generate_spec(seed, i)`` depends only on
``(seed, i)`` — it seeds a fresh ``np.random.default_rng([seed, i])``
per scenario, so generation order, batching, and process boundaries
cannot change the specs.  ``generate(seed, count)`` is therefore
reproducible spec-for-spec, and any single scenario from a large sweep
can be regenerated alone.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.topology import random_network
from ..errors import SweepError
from .spec import (AdversarySpec, ClockSpec, ConnectionSpec,
                   ControllerSpec, FaultPlanSpec, GatewaySpec,
                   InjectorSpec, RuleSpec, ScenarioSpec, SignalSpec,
                   StructuralInjectorSpec, StructuralPlanSpec)

__all__ = ["validate_budget", "generate_spec", "generate"]

#: Hard cap on shrink-search evaluations; :func:`validate_budget` clamps
#: requests above it (see ISSUE: clamp, don't reject).
MAX_SHRINK_ITERS = 400


def validate_budget(seed: int, count: int,
                    max_shrink_iters: Optional[int] = None
                    ) -> Tuple[int, int, int]:
    """Validate a fuzzing budget, ``chunk_indices``-style.

    Rejects non-integer or boolean seeds/counts and ``count <= 0`` with
    :class:`~repro.errors.SweepError` (the orchestration-error class —
    never a bare ``ValueError``).  ``max_shrink_iters`` defaults to
    :data:`MAX_SHRINK_ITERS` and is *clamped* into
    ``[1, MAX_SHRINK_ITERS]`` rather than rejected.
    Returns the validated ``(seed, count, max_shrink_iters)``.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise SweepError(
            f"fuzz seed must be an integer, got {seed!r} "
            f"({type(seed).__name__})")
    if seed < 0:
        raise SweepError(f"fuzz seed must be >= 0, got {seed!r}")
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
        raise SweepError(
            f"fuzz count must be an integer, got {count!r} "
            f"({type(count).__name__})")
    if count <= 0:
        raise SweepError(
            f"fuzz count must be positive, got {count!r}")
    if max_shrink_iters is None:
        max_shrink_iters = MAX_SHRINK_ITERS
    if not isinstance(max_shrink_iters, (int, np.integer)) \
            or isinstance(max_shrink_iters, bool):
        raise SweepError(
            f"max_shrink_iters must be an integer, got "
            f"{max_shrink_iters!r} ({type(max_shrink_iters).__name__})")
    max_shrink_iters = int(min(max(1, max_shrink_iters), MAX_SHRINK_ITERS))
    return int(seed), int(count), max_shrink_iters


def _round3(value: float) -> float:
    return round(float(value), 3)


def _draw_topology(rng: np.random.Generator):
    """One topology draw: gateway specs, connection specs."""
    family = rng.choice(
        ["single", "two-shared", "tandem", "parking-lot", "random"],
        p=[0.3, 0.15, 0.15, 0.15, 0.25])
    if family == "single":
        n = int(rng.integers(2, 7))
        mu = _round3(rng.uniform(0.5, 3.0))
        gws = (GatewaySpec("g0", mu),)
        conns = tuple(ConnectionSpec(f"c{i}", ("g0",)) for i in range(n))
    elif family == "two-shared":
        mu_a = _round3(rng.uniform(0.5, 2.0))
        mu_b = _round3(rng.uniform(0.5, 2.0))
        gws = (GatewaySpec("ga", mu_a), GatewaySpec("gb", mu_b))
        conns = (ConnectionSpec("long", ("ga", "gb")),
                 ConnectionSpec("a_only", ("ga",)),
                 ConnectionSpec("b_only", ("gb",)))
    elif family == "tandem":
        n_gw = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        mu = _round3(rng.uniform(0.8, 2.5))
        gws = tuple(GatewaySpec(f"g{k}", mu) for k in range(n_gw))
        path = tuple(g.name for g in gws)
        conns = tuple(ConnectionSpec(f"c{i}", path) for i in range(n))
    elif family == "parking-lot":
        n_hops = int(rng.integers(2, 5))
        mu = _round3(rng.uniform(0.8, 2.5))
        gws = tuple(GatewaySpec(f"g{k}", mu) for k in range(n_hops))
        long_path = tuple(g.name for g in gws)
        conns = [ConnectionSpec("long", long_path)]
        for k in range(n_hops):
            conns.append(ConnectionSpec(f"x{k}", (f"g{k}",)))
        conns = tuple(conns)
    else:
        # Resolve a random connected network into explicit specs; the
        # spec is the source of truth, the builder only a sampler.
        net = random_network(
            n_gateways=int(rng.integers(2, 6)),
            n_connections=int(rng.integers(2, 7)),
            seed=int(rng.integers(0, 2**31 - 1)),
            mu_range=(0.5, 2.5),
            latency_range=(0.0, 0.0),
            max_path_len=3)
        gws = tuple(GatewaySpec(g, _round3(net.mu(g)))
                    for g in net.gateway_names)
        conns = tuple(
            ConnectionSpec(f"c{i}", tuple(net.gamma(i)))
            for i in range(net.num_connections))
    return gws, conns


def _draw_rule(rng: np.random.Generator) -> RuleSpec:
    """One tame rule draw from the paper's families."""
    kind = rng.choice(
        ["proportional-target", "target", "decbit-rate", "binary-aimd"],
        p=[0.45, 0.25, 0.2, 0.1])
    if kind == "proportional-target":
        params = {"eta": _round3(rng.uniform(0.2, 0.8)),
                  "beta": _round3(rng.uniform(0.3, 0.6))}
    elif kind == "target":
        params = {"eta": _round3(rng.uniform(0.05, 0.3)),
                  "beta": _round3(rng.uniform(0.3, 0.6))}
    elif kind == "decbit-rate":
        params = {"eta": _round3(rng.uniform(0.02, 0.1)),
                  "beta": _round3(rng.uniform(0.3, 0.7))}
    else:
        params = {"increase": _round3(rng.uniform(0.005, 0.02)),
                  "decrease": _round3(rng.uniform(0.05, 0.2)),
                  "threshold": _round3(rng.uniform(0.4, 0.6))}
    return RuleSpec(str(kind), params)


def _draw_fault_plan(rng: np.random.Generator,
                     n_connections: int) -> FaultPlanSpec:
    """A small seeded fault plan (1-2 mild injectors)."""
    choices = ["loss", "quantise", "delay", "corrupt"]
    n_inj = int(rng.integers(1, 3))
    injectors = []
    for kind in rng.choice(choices, size=n_inj, replace=False):
        if kind == "loss":
            injectors.append(InjectorSpec("loss", {
                "rate": _round3(rng.uniform(0.05, 0.3))}))
        elif kind == "quantise":
            injectors.append(InjectorSpec("quantise", {
                "levels": int(rng.integers(4, 33))}))
        elif kind == "delay":
            injectors.append(InjectorSpec("delay", {
                "delay": int(rng.integers(1, 4)),
                "jitter": int(rng.integers(0, 3))}))
        else:
            injectors.append(InjectorSpec("corrupt", {
                "rate": _round3(rng.uniform(0.05, 0.2)),
                "amplitude": _round3(rng.uniform(0.01, 0.1))}))
    return FaultPlanSpec(seed=int(rng.integers(0, 2**31 - 1)),
                         injectors=tuple(injectors))


def _draw_adversaries(rng: np.random.Generator, n: int,
                      mu_min: float) -> Tuple[AdversarySpec, ...]:
    """1-2 misbehaving connections, parameters scaled to the topology."""
    n_adv = 1 if n < 4 else int(rng.integers(1, 3))
    indices = sorted(int(i) for i in
                     rng.choice(n, size=n_adv, replace=False))
    out = []
    for i in indices:
        kind = str(rng.choice(["blaster", "pinned", "sawtooth"]))
        if kind == "blaster":
            params = {"increment": _round3(rng.uniform(0.02, 0.1)),
                      "cap": _round3(rng.uniform(1.0, 3.0) * mu_min)}
        elif kind == "pinned":
            params = {"rate": _round3(rng.uniform(0.5, 1.5) * mu_min)}
        else:
            params = {"low": _round3(rng.uniform(0.05, 0.2)),
                      "high": _round3(rng.uniform(0.8, 2.0) * mu_min),
                      "increase": _round3(rng.uniform(0.05, 0.15))}
        out.append(AdversarySpec(i, kind, params))
    return tuple(out)


def _draw_structural_plan(rng: np.random.Generator,
                          gateway_names) -> StructuralPlanSpec:
    """1-2 scheduled topology faults over the scenario's gateways."""
    n_inj = int(rng.integers(1, 3))
    injectors = []
    for _ in range(n_inj):
        gw = str(rng.choice(gateway_names))
        start = int(rng.integers(10, 120))
        duration = int(rng.integers(5, 60))
        params = {"gateway": gw, "start": start, "duration": duration}
        if rng.random() < 0.3:
            params["period"] = duration + int(rng.integers(20, 80))
        if rng.random() < 0.3:
            params["jitter"] = int(rng.integers(1, 4))
        if rng.random() < 0.7:
            params["factor"] = _round3(rng.uniform(0.3, 0.9))
            injectors.append(StructuralInjectorSpec("degrade", params))
        else:
            injectors.append(StructuralInjectorSpec("blackhole", params))
    return StructuralPlanSpec(seed=int(rng.integers(0, 2**31 - 1)),
                              injectors=tuple(injectors))


def _draw_clock(rng: np.random.Generator) -> ClockSpec:
    """One heterogeneous update clock with tame tick rates."""
    kind = str(rng.choice(["mix", "drifting", "bursty", "uniform"],
                          p=[0.35, 0.25, 0.25, 0.15]))
    if kind == "mix":
        params = {"slow_rate": _round3(rng.uniform(0.1, 0.5)),
                  "fast_rate": _round3(rng.uniform(0.7, 1.0)),
                  "slow_fraction": _round3(rng.uniform(0.2, 0.8))}
    elif kind == "drifting":
        # Amplitude must keep every instantaneous rate inside (0, 1]:
        # bounded away from both base_rate and 1 - base_rate.
        base = _round3(rng.uniform(0.4, 0.7))
        amp_max = min(base, 1.0 - base) - 0.05
        params = {"base_rate": base,
                  "amplitude": _round3(rng.uniform(0.05, amp_max)),
                  "period": int(rng.integers(16, 129))}
    elif kind == "bursty":
        params = {"on_rate": _round3(rng.uniform(0.7, 1.0)),
                  "off_rate": _round3(rng.uniform(0.05, 0.4)),
                  "burst_len": int(rng.integers(4, 33))}
    else:
        params = {"rate": _round3(rng.uniform(0.3, 1.0))}
    params["seed"] = int(rng.integers(0, 2**31 - 1))
    return ClockSpec(kind, params,
                     signal_delay=int(rng.integers(0, 3)))


def generate_spec(seed: int, index: int) -> ScenarioSpec:
    """The ``index``-th scenario of the stream seeded by ``seed``.

    Deterministic in ``(seed, index)`` alone — uses
    ``np.random.default_rng([seed, index])``, so scenarios can be
    regenerated individually in any order.
    """
    seed, _, _ = validate_budget(seed, 1)
    if not isinstance(index, (int, np.integer)) or isinstance(index, bool) \
            or index < 0:
        raise SweepError(
            f"scenario index must be an integer >= 0, got {index!r}")
    rng = np.random.default_rng([int(seed), int(index)])

    gateways, connections = _draw_topology(rng)
    n = len(connections)

    homogeneous = rng.random() < 0.7
    if homogeneous:
        rules = (_draw_rule(rng),) * n
    else:
        rules = tuple(_draw_rule(rng) for _ in range(n))

    style = "individual" if rng.random() < 0.6 else "aggregate"

    signal_draw = rng.random()
    if signal_draw < 0.6:
        signal = SignalSpec("linear-saturating")
    elif signal_draw < 0.85:
        signal = SignalSpec("power-saturating",
                            _round3(rng.uniform(1.5, 3.0)))
    else:
        signal = SignalSpec("exponential", _round3(rng.uniform(0.5, 2.0)))

    disc_draw = rng.random()
    # Weighted Fair Share needs one global weight vector to be coherent
    # at every gateway, i.e. every connection crossing every gateway.
    full_crossing = all(
        sum(g.name in c.path for c in connections) == n for g in gateways)
    weights = None
    if disc_draw < 0.45:
        discipline = "fifo"
    elif disc_draw < 0.8 or not full_crossing:
        discipline = "fair-share"
    else:
        discipline = "weighted-fair-share"
        weights = tuple(_round3(rng.uniform(0.5, 2.0)) for _ in range(n))

    mu_min = min(g.mu for g in gateways)
    initial_rates = tuple(
        max(0.001, _round3(rng.uniform(0.05, 1.2) * mu_min / n))
        for _ in range(n))

    fault_plan = None
    if rng.random() < 0.3:
        fault_plan = _draw_fault_plan(rng, n)

    max_steps = int(rng.choice([800, 1500, 2500]))
    scenario_seed = int(rng.integers(0, 2**31 - 1))

    # Modern-controller zoo: a *final* draw occasionally converts the
    # scenario into a controller-driven (RCP) or TCP-like one.  The zoo
    # draws come after every classic draw, so for a given (seed, index)
    # the classic fields above are exactly what they were before the
    # zoo existed — pinned-seed tests and repro specs stay valid.
    controller = None
    zoo = rng.random()
    if zoo < 0.15:
        beta = (0.0 if rng.random() < 0.3
                else _round3(rng.uniform(0.02, 0.12)))
        controller = ControllerSpec("rcp", {
            "alpha": _round3(rng.uniform(0.3, 0.8)),
            "beta": beta,
            "fill": _round3(rng.uniform(0.3, 0.9))})
        rules = (RuleSpec("rcp-source"),) * n
        fault_plan = None
    elif zoo < 0.3:
        # Homogeneous TCP-like AIMD: gains chosen so the sawtooth
        # period stays well under the limit-cycle detector's window.
        rules = (RuleSpec("tcp-like", {
            "increase": _round3(rng.uniform(0.02, 0.08)),
            "decrease": _round3(rng.uniform(0.05, 0.2)),
            "threshold": _round3(rng.uniform(0.4, 0.6))}),) * n

    # Chaos draws come after *every* earlier draw (the zoo included),
    # so pre-chaos fields of a given (seed, index) are exactly what
    # they were before the chaos layer existed — pinned-seed tests and
    # archived repro specs stay valid.  Controllers exclude both chaos
    # dimensions; adversaries are drawn only behind fair-share
    # gateways, where Theorem 5 predicts the floors the
    # adversarial-floor oracle asserts.
    adversaries = ()
    structural_plan = None
    if controller is None:
        adv_draw = rng.random()
        struct_draw = rng.random()
        if adv_draw < 0.12 and discipline == "fair-share" and n >= 2:
            adversaries = _draw_adversaries(rng, n, mu_min)
        if struct_draw < 0.12:
            structural_plan = _draw_structural_plan(
                rng, [g.name for g in gateways])

    # Clock draws come after every earlier draw (zoo and chaos
    # included), so pre-clock fields of a given (seed, index) are
    # exactly what they were before the heterogeneous-clock engine
    # existed — pinned-seed tests and archived repro specs stay valid.
    # Controllers update at the gateways, so they exclude clocks.
    clock = None
    if controller is None and rng.random() < 0.25:
        clock = _draw_clock(rng)

    return ScenarioSpec(
        name=f"fuzz-{int(seed)}-{int(index)}",
        gateways=gateways,
        connections=connections,
        discipline=discipline,
        signal=signal,
        style=style,
        rules=rules,
        weights=weights,
        initial_rates=initial_rates,
        max_steps=max_steps,
        tol=1e-10,
        seed=scenario_seed,
        fault_plan=fault_plan,
        controller=controller,
        adversaries=adversaries,
        structural_plan=structural_plan,
        clock=clock,
    )


def generate(seed: int, count: int) -> List[ScenarioSpec]:
    """``count`` deterministic scenarios for ``seed``:
    ``[generate_spec(seed, 0), ..., generate_spec(seed, count - 1)]``."""
    seed, count, _ = validate_budget(seed, count)
    return [generate_spec(seed, i) for i in range(count)]
