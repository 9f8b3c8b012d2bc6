"""Result digests of every benchmark unit, for checking bit-identity.

For seeds 1 and 2 this builds each workload of the repository
benchmark (``benchmarks/suite/workloads.py``), calls every unit once,
untimed, and prints one line per unit::

    <seed> <unit> <digest>

The digest is the unit's own ``Outcome.digest`` (a hash of the
artifact rows, ensemble finals and steps, oracle verdicts or packet
rate histories).

The units leave paths of the trajectory engine unexercised, so an
``engine`` section follows: sixteen fixed, seeded cases, one line
each::

    engine <case> <digest>

They cover the synchronous ensemble one-shot, blocked and with full
histories of converging, oscillating and diverging members; fault and
structural plans; RCP in blocks; the asynchronous ensemble under a
shared and under per-member schedules at signal delays 0 and 3,
one-shot and blocked; the scalar ``run`` and
``AsynchronousRunner.run`` on the same systems; and Fair Share
individual feedback at ``N = 96`` started from equal rates and from a
perturbation of them (ensemble and scalar runs); and weighted
individual feedback over weighted Fair Share with unequal weights at
``N = 4`` and ``N = 70`` (ensemble and scalar runs); and Fair Share
individual feedback on a parking lot whose delay-reading DECbit window
rules see the zero-rate probe and a capacity-degraded view (one-shot
and blocked ensembles and scalar runs); and scalar runs on a parking
lot under a per-connection mix of all six built-in rules (FIFO and
Fair Share, both feedback styles, a zero-rate start, a diverging run,
a zero-step budget and a run whose record is hashed), the runs ``run``
hands to the compiled ensemble loop; and asynchronous ensembles under
uniform and bursty clocks (delays 0 and 2, full and no history,
per-member settle counts, blocks of 2), beside one under a drifting
clock, which the Python loop runs, and one-member runs, the blocks the
compiled ensemble loop serves.  Each digest hashes finals,
steps, outcomes, periods, the retained histories and the run record's
mask events and per-iteration series.

Three more engine cases run twice, two lines each::

    engine <case> cext <digest>
    engine <case> python <digest>

``power-signal`` (``PowerSaturating(2.202)``), ``exponential-signal``
(``ExponentialSignal(1.3)``) and ``adversary-mix`` (the blaster, pinned
and sawtooth adversaries among honest rules) each run ensembles on FIFO
with aggregate and Fair Share with individual feedback, one-shot and in
blocks, under a fault plan and a structural plan, and asynchronously
under a bursty clock at delay 2, and scalar runs; the ``cext`` line
with the C tier live, the ``python`` line with ``_cext.load`` masked,
so every stage runs on numpy.  The two lines of a case must carry the
same digest, or the script exits 1, naming the case.

A ``packet`` section follows: seeded open-loop runs of the packet
simulator, two lines per case::

    packet <case> auto <digest>
    packet <case> fast <digest>

The cases cover FIFO, Fair Share, fixed-priority and Fair Queueing,
each with tail and longest drop where valid (Fair Queueing cannot
evict), on a single gateway, a tandem and a parking lot, with buffers
of 4 that overflow; then each discipline with infinite buffers on the
tandem and the parking lot, offered at most 0.89 of any gateway's
capacity.  Every run changes its rates once (``set_rates``), and two
Fair Share cases run in measured mode with one refresh.  Each digest
hashes the event count, mean queues, arrival rates, drop fractions,
throughput and delays.  ``engine="auto"`` runs the C event loop
wherever the C tier has built, and it is bit-identical to the Python
loop of ``engine="fast"``, so the two lines of a case must carry the
same digest: the script exits 1, naming the cases, when they do not.

A change that must not move any result prints the same lines as its
parent, so ``diff`` of the two outputs is the check.  The script uses
only long-standing public APIs, so one copy runs on both commits.
Takes about a minute on two cores.

Run from the repository root::

    PYTHONPATH=src python benchmarks/digests.py > digests.txt
"""

import hashlib
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "suite"))

import workloads  # noqa: E402
from repro.backends import _cext  # noqa: E402
from repro.chaos import (  # noqa: E402
    BlasterRule, CapacityDegradation, PinnedRateRule, SawtoothRule,
    StructuralFaultPlan)
from repro.core.asynchronous import (  # noqa: E402
    AsynchronousRunner, BernoulliSchedule, BurstyClock, ClockSchedule,
    DriftingClock, RateMixClock, RoundRobinSchedule, UniformClock,
    run_async_ensemble)
from repro.core.dynamics import FlowControlSystem  # noqa: E402
from repro.core.fairshare import FairShare  # noqa: E402
from repro.core.fifo import Fifo  # noqa: E402
from repro.core.ratecontrol import (  # noqa: E402
    BinaryAimdRule, DecbitRateRule, DecbitWindowRule, ProportionalTargetRule,
    RateAdjustment, RcpSourceRule, TargetRule, TcpLikeRule)
from repro.core.rcp import RcpController  # noqa: E402
from repro.core.signals import (  # noqa: E402
    ExponentialSignal, FeedbackStyle, LinearSaturating, PowerSaturating)
from repro.core.steadystate import fair_steady_state  # noqa: E402
from repro.core.topology import (  # noqa: E402
    parking_lot, single_gateway, tandem)
from repro.core.weighted import WeightedFairShare  # noqa: E402
from repro.faults import FaultPlan, SignalLoss  # noqa: E402
from repro.observability import collect  # noqa: E402
from repro.simulation.network_sim import NetworkSimulation  # noqa: E402

SEEDS = (1, 2)
SIGNAL = LinearSaturating()
IND = FeedbackStyle.INDIVIDUAL


class _Runaway(RateAdjustment):
    """The rate doubles until it exceeds 8, then turns NaN."""

    reads_delay = False

    def delta(self, rate, signal, delay):
        return math.nan if rate > 8.0 else rate


def _rng(k):
    return np.random.default_rng([7, k])


def _fair_share():
    system = FlowControlSystem(single_gateway(6, mu=1.0), FairShare(),
                               SIGNAL,
                               ProportionalTargetRule(eta=0.5, beta=0.5),
                               style=IND)
    return system, _rng(0).uniform(0.02, 0.3, size=(7, 6))


def _mixed():
    """Aggregate FIFO with eta * N = 3.6 > 2 (perturbed starts
    oscillate, the fair point holds) beside a runaway member."""
    system = FlowControlSystem(single_gateway(12, mu=1.0), Fifo(), SIGNAL,
                               TargetRule(eta=0.3, beta=0.5),
                               style=FeedbackStyle.AGGREGATE)
    fair = fair_steady_state(single_gateway(12), 0.5)
    kicked = fair * (1 + 1e-3 * _rng(1).standard_normal((3, 12)))
    runaway = FlowControlSystem(single_gateway(2, mu=1.0), Fifo(), SIGNAL,
                                _Runaway(), style=IND)
    return ((system, np.vstack([fair, np.clip(kicked, 0.0, None)])),
            (runaway, np.array([[1.0, 0.5], [0.0, 0.0], [0.5, 2.0]])))


def _tcp_mixed():
    net = parking_lot(3, cross_per_hop=2)
    rules = (TargetRule(eta=0.05, beta=0.5), TcpLikeRule())
    system = FlowControlSystem(
        net, Fifo(), SIGNAL,
        [rules[i % 2] for i in range(net.num_connections)], style=IND)
    return system, _rng(2).uniform(0.02, 0.2,
                                   size=(5, net.num_connections))


def _schedules(m):
    kinds = (RoundRobinSchedule(), BernoulliSchedule(0.5, seed=3),
             ClockSchedule(RateMixClock(0.25, 1.0, 0.5, seed=3)))
    return [kinds[i % len(kinds)] for i in range(m)]


def _hash(*results) -> str:
    """Digest of ensemble results and trajectories."""
    h = hashlib.sha256()
    for res in results:
        if hasattr(res, "finals"):
            parts = [res.finals, res.steps, [o.value for o in res.outcomes],
                     res.periods]
            parts += list(res.histories or ())
        else:
            parts = [res.history, res.outcome.value, res.period, res.steps]
        rec = res.telemetry
        if rec is not None:
            parts += [rec.mask_events, rec.residuals, rec.active_members,
                      rec.converged_counts, rec.diverged_counts,
                      rec.fault_events]
        for events in (res.fault_events, res.structural_events):
            parts.append(None if events is None else [tuple(e)
                                                      for e in events])
        for part in parts:
            h.update(part.tobytes() if isinstance(part, np.ndarray)
                     else repr(part).encode())
    return h.hexdigest()[:16]


def _sync_oneshot():
    system, initials = _fair_share()
    return _hash(system.run_ensemble(initials, max_steps=2000,
                                     telemetry=True))


def _sync_blocked():
    system, initials = _fair_share()
    return _hash(system.run_ensemble(initials, max_steps=2000,
                                     block_size=3, telemetry=True))


def _sync_full():
    out = []
    for system, initials in _mixed():
        for block in (None, 2):
            out.append(system.run_ensemble(
                initials, max_steps=400, history="full", block_size=block,
                telemetry=True))
    return _hash(*out)


def _faults_structural():
    system, initials = _tcp_mixed()
    names = system.network.gateway_names
    faults = FaultPlan((SignalLoss(rate=0.2),), seed=5)
    structural = StructuralFaultPlan(
        (CapacityDegradation(names[0], factor=0.6, start=40, duration=60,
                             period=150, jitter=5),), seed=5)
    return _hash(*(system.run_ensemble(
        initials, max_steps=300, tol=0.0, faults=faults,
        structural=structural, block_size=block, telemetry=True)
        for block in (None, 2)))


def _rcp_blocked():
    net = parking_lot(3, cross_per_hop=2)
    system = FlowControlSystem(net, Fifo(), SIGNAL, RcpSourceRule(),
                               style=IND,
                               controller=RcpController(alpha=0.5,
                                                        beta=0.05))
    initials = _rng(3).uniform(0.01, 0.1, size=(5, net.num_connections))
    return _hash(system.run_ensemble(initials, max_steps=600, tol=1e-12,
                                     block_size=2, telemetry=True))


def _async(per_member, tau):
    def case():
        out = []
        for system, initials in (_fair_share(), _tcp_mixed()):
            schedule = (_schedules(len(initials)) if per_member
                        else ClockSchedule(RateMixClock(0.25, 1.0, 0.5,
                                                        seed=4)))
            for block in (None, 2):
                out.append(run_async_ensemble(
                    system, initials, schedule=schedule, signal_delay=tau,
                    max_steps=800, tol=1e-8, history="full",
                    block_size=block, telemetry=True))
        return _hash(*out)
    return case


def _fair_share_96():
    """Fair Share individual feedback at N = 96, from equal rates and
    from a perturbation of them: ensemble and scalar runs."""
    system = FlowControlSystem(single_gateway(96, mu=1.0), FairShare(),
                               SIGNAL,
                               ProportionalTargetRule(eta=0.5, beta=0.5),
                               style=IND)
    equal = np.full(96, 0.9 / 96)
    perturbed = equal * _rng(4).uniform(0.8, 1.2, size=96)
    initials = np.vstack([equal, perturbed])
    return _hash(system.run_ensemble(initials, max_steps=400,
                                     telemetry=True),
                 *(system.run(x0, max_steps=400) for x0 in initials))


def _weighted_systems():
    """Weighted individual feedback over weighted Fair Share, unequal
    weights, at N = 4 and N = 70, each with three seeded starts."""
    out = []
    for n in (4, 70):
        phi = np.array([1.0, 2.0, 3.0, 0.5] * (n // 4 + 1))[:n]
        system = FlowControlSystem(single_gateway(n, mu=1.0),
                                   WeightedFairShare(phi), SIGNAL,
                                   ProportionalTargetRule(eta=0.5, beta=0.5),
                                   style=IND, weights=phi)
        out.append((system, _rng(5 + n).uniform(0.1, 1.5, size=(3, n)) / n))
    return out


def _weighted_fair_share():
    """Ensemble and scalar runs of :func:`_weighted_systems`."""
    return _hash(*(res for system, initials in _weighted_systems()
                   for res in (system.run_ensemble(initials, max_steps=400,
                                                   telemetry=True),
                               *(system.run(x0, max_steps=400)
                                 for x0 in initials))))


def _fair_share_delays():
    """Fair Share individual feedback on ``parking_lot(3)`` with target
    rules beside delay-reading DECbit window rules, one member starting
    with a window connection at zero rate (the Fair Share zero-rate
    probe), under a periodic capacity degradation (a degraded Fair
    Share view): one-shot and blocked ensembles and scalar runs."""
    net = parking_lot(3, cross_per_hop=2)
    n = net.num_connections
    rules = (TargetRule(eta=0.05, beta=0.5), DecbitWindowRule())
    system = FlowControlSystem(net, FairShare(), SIGNAL,
                               [rules[i % 2] for i in range(n)], style=IND)
    initials = _rng(6).uniform(0.02, 0.2, size=(4, n))
    initials[1, 1] = 0.0
    structural = StructuralFaultPlan(
        (CapacityDegradation(net.gateway_names[1], factor=0.5, start=20,
                             duration=60, period=150, jitter=5),), seed=6)
    return _hash(*(system.run_ensemble(
        initials, max_steps=400, structural=structural, block_size=block,
        telemetry=True) for block in (None, 2)),
        *(system.run(x0, max_steps=400, structural=structural,
                     fault_member=m) for m, x0 in enumerate(initials)))


def _scalar_run():
    out = []
    for system, initials in (_fair_share(), _tcp_mixed(), *_mixed()):
        out += [system.run(x0, max_steps=400) for x0 in initials[:3]]
    return _hash(*out)


def _run_loop():
    """Scalar runs on ``parking_lot(3, cross_per_hop=2)`` under a
    per-connection mix of all six built-in rules: FIFO and Fair Share,
    individual and aggregate feedback, from three seeded starts (one
    with a zero rate); a run that diverges at step 2; a zero-step
    budget; and a run under ``collect()``, whose record is hashed."""
    net = parking_lot(3, cross_per_hop=2)
    n = net.num_connections
    rules = (TargetRule(eta=0.05, beta=0.5),
             ProportionalTargetRule(eta=0.5, beta=0.5), DecbitRateRule(),
             DecbitWindowRule(), BinaryAimdRule(), TcpLikeRule())
    mix = [rules[i % len(rules)] for i in range(n)]
    initials = _rng(8).uniform(0.02, 0.2, size=(3, n))
    initials[1, 0] = 0.0
    out = []
    for discipline in (Fifo(), FairShare()):
        for style in (IND, FeedbackStyle.AGGREGATE):
            system = FlowControlSystem(net, discipline, SIGNAL, mix,
                                       style=style)
            out += [system.run(x0, max_steps=400) for x0 in initials]
    diverging = FlowControlSystem(net, Fifo(), SIGNAL,
                                  TargetRule(eta=1e7, beta=0.5), style=IND)
    out.append(diverging.run(np.full(n, 3.0)))
    out.append(system.run(initials[0], max_steps=0))
    with collect():
        out.append(system.run(initials[2], max_steps=400))
    return _hash(*out)


def _ensemble_loop():
    """Asynchronous ensembles the compiled ensemble loop serves, under
    uniform and bursty clocks at delays 0 and 2 with full and no
    history, per-member settle counts and blocks of 2; one under a
    drifting clock, which the Python loop runs; and one-member runs,
    one under ``collect()``."""
    out = []
    system, initials = _tcp_mixed()
    settle = np.array([4, 9, 6, 12, 5])
    clocks = (UniformClock(0.7, seed=8), BurstyClock(0.9, 0.2, 8, seed=8))
    for clock in clocks:
        for tau, history in ((0, "full"), (2, "none")):
            out.append(run_async_ensemble(
                system, initials, schedule=ClockSchedule(clock),
                signal_delay=tau, max_steps=500, tol=1e-9, settle=settle,
                history=history, block_size=2, telemetry=True))
    drifting = ClockSchedule(DriftingClock(0.5, 0.25, 32, seed=8))
    out.append(run_async_ensemble(system, initials, schedule=drifting,
                                  signal_delay=1, max_steps=500,
                                  history="full", telemetry=True))
    fs, fs_initials = _fair_share()
    for clock in clocks:
        out.append(run_async_ensemble(fs, fs_initials[:1],
                                      schedule=ClockSchedule(clock),
                                      signal_delay=3, max_steps=800))
    with collect():
        out.append(run_async_ensemble(fs, fs_initials[1:2],
                                      schedule=ClockSchedule(clocks[1]),
                                      max_steps=800, history="full"))
    return _hash(*out)


def _async_runner():
    out = []
    for system, initials in (_fair_share(), _tcp_mixed()):
        for tau, schedule in zip((0, 3), _schedules(2)):
            runner = AsynchronousRunner(system, schedule, signal_delay=tau)
            out += [runner.run(x0, max_steps=500) for x0 in initials[:2]]
    return _hash(*out)


def _tier_case(signal, adversaries=False):
    """Ensembles and runs of a ``TIER_CASES`` case on a parking lot:
    FIFO with aggregate and Fair Share with individual feedback under
    ``signal`` and a per-connection rule mix (with the three
    adversaries when ``adversaries``), from five starts (a zero rate,
    a blaster at its cap and a sawtooth above its high, an overloaded
    row): one-shot and blocked ensembles, ensembles under a fault plan
    and a structural plan, an asynchronous ensemble under a bursty
    clock at delay 2, and scalar runs."""
    def case():
        net = parking_lot(3, cross_per_hop=2)
        n = net.num_connections
        honest = (TargetRule(eta=0.05, beta=0.5),
                  ProportionalTargetRule(eta=0.5, beta=0.5),
                  DecbitRateRule(), DecbitWindowRule(), BinaryAimdRule(),
                  TcpLikeRule())
        rules = honest
        if adversaries:
            rules = (honest[0], BlasterRule(increment=0.03, cap=0.1),
                     honest[3], PinnedRateRule(rate=0.07), honest[5],
                     SawtoothRule(low=0.03, high=0.1, increase=0.02),
                     honest[1])
        mix = [rules[i % len(rules)] for i in range(n)]
        initials = _rng(9).uniform(0.02, 0.2, size=(5, n))
        initials[1, 0] = 0.0
        initials[2, [1, 5]] = (0.1, 0.25)
        initials[4] = 3.0
        faults = FaultPlan((SignalLoss(rate=0.3),), seed=4)
        structural = StructuralFaultPlan((CapacityDegradation(
            net.gateway_names[1], factor=0.5, start=20, duration=60),),
            seed=4)
        out = []
        for discipline, style in ((Fifo(), FeedbackStyle.AGGREGATE),
                                  (FairShare(), IND)):
            system = FlowControlSystem(net, discipline, signal, mix,
                                       style=style)
            for block in (None, 2):
                out.append(system.run_ensemble(
                    initials, max_steps=400, block_size=block,
                    history="full", telemetry=True))
            out.append(system.run_ensemble(initials, max_steps=400,
                                           faults=faults))
            out.append(system.run_ensemble(initials, max_steps=400,
                                           structural=structural))
            out.append(run_async_ensemble(
                system, initials,
                schedule=ClockSchedule(BurstyClock(0.9, 0.2, 8, seed=9)),
                signal_delay=2, max_steps=400, history="full"))
            out += [system.run(x0, max_steps=400) for x0 in initials[:3]]
        return _hash(*out)
    return case


#: case name -> digest function of the cases run on both tiers.
TIER_CASES = {
    "power-signal": _tier_case(PowerSaturating(2.202)),
    "exponential-signal": _tier_case(ExponentialSignal(1.3)),
    "adversary-mix": _tier_case(SIGNAL, adversaries=True),
}


def _on_both_tiers(case) -> tuple:
    """``case()`` with the C tier live, then with ``_cext.load``
    masked."""
    live = case()
    load = _cext.load
    _cext.load = lambda: None
    try:
        return live, case()
    finally:
        _cext.load = load


#: case name -> digest function, in print order.
ENGINE_CASES = {
    "sync-oneshot": _sync_oneshot,
    "sync-blocked": _sync_blocked,
    "sync-full-histories": _sync_full,
    "faults-structural": _faults_structural,
    "rcp-blocked": _rcp_blocked,
    "async-shared-tau0": _async(False, 0),
    "async-shared-tau3": _async(False, 3),
    "async-members-tau0": _async(True, 0),
    "async-members-tau3": _async(True, 3),
    "run": _scalar_run,
    "async-runner": _async_runner,
    "fair-share-96": _fair_share_96,
    "weighted-fair-share": _weighted_fair_share,
    "fair-share-delays": _fair_share_delays,
    "run-loop": _run_loop,
    "ensemble-loop": _ensemble_loop,
}


#: name -> network of the packet cases; every gateway has mu = 1.
PACKET_TOPOLOGIES = {
    "single": lambda: single_gateway(4, mu=1.0, latency=0.5),
    "tandem": lambda: tandem(2, 4, mu=1.0, latency=0.5),
    "parking-lot": lambda: parking_lot(3, latency=0.5, cross_per_hop=2),
}


PACKET_DISCIPLINES = ("fifo", "fair-share", "fixed-priority",
                      "fair-queueing")


def _packet_cases():
    """case name -> _packet_run keywords (bar engine)."""
    cases = {}
    for topo, build in PACKET_TOPOLOGIES.items():
        for disc in PACKET_DISCIPLINES:
            for policy in ("tail", "longest"):
                if disc == "fair-queueing" and policy == "longest":
                    continue
                cases[f"{disc}-{policy}-{topo}"] = dict(
                    network=build(), discipline_kind=disc,
                    drop_policy=policy)
    for policy in ("tail", "longest"):
        cases[f"fair-share-measured-{policy}-tandem"] = dict(
            network=tandem(2, 4, mu=1.0, latency=0.5),
            discipline_kind="fair-share", drop_policy=policy,
            rate_mode="measured")
    # Infinite buffers: a load of 0.7 offers the tandem's gateways 0.7
    # and the parking lot's at most 0.89, in either rate order.
    for topo in ("tandem", "parking-lot"):
        for disc in PACKET_DISCIPLINES:
            cases[f"{disc}-infinite-{topo}"] = dict(
                network=PACKET_TOPOLOGIES[topo](), discipline_kind=disc,
                buffer_sizes=None, load=0.7)
    return cases


def _packet_run(engine, network, load=1.3, buffer_sizes=4, **kwargs):
    """Rates ``load / busiest * linspace(0.6, 1.4)``, ``busiest`` the
    most connections at one gateway (so 1.3 overflows the buffers of 4),
    one rate change (and one measured refresh before it); digest of
    every public statistic and the event count."""
    n = network.num_connections
    busiest = max(len(network.connections_at(g))
                  for g in network.gateway_names)
    rates = load / busiest * np.linspace(0.6, 1.4, n)
    sim = NetworkSimulation(network, seed=11, initial_rates=rates,
                            buffer_sizes=buffer_sizes, engine=engine,
                            **kwargs)
    sim.run_for(100.0)
    sim.reset_statistics()
    sim.run_for(1500.0)
    if kwargs.get("rate_mode") == "measured":
        sim.refresh_measured_rates()
    sim.set_rates(rates[::-1])
    sim.run_for(1500.0)
    h = hashlib.sha256(repr(sim.events_processed).encode())
    for stats in (sim.mean_queue_lengths(), sim.measured_arrival_rates(),
                  sim.drop_fractions()):
        for g in network.gateway_names:
            h.update(stats[g].tobytes())
    h.update(sim.throughput().tobytes())
    h.update(sim.mean_delays().tobytes())
    return h.hexdigest()[:16]


def main() -> int:
    for seed in SEEDS:
        for name, workload_cls in workloads.WORKLOADS.items():
            workload = workload_cls(seed)
            for unit in workload.units:
                print(f"{seed} {unit.name} {unit.call().digest}",
                      flush=True)
    for name, case in ENGINE_CASES.items():
        print(f"engine {name} {case()}", flush=True)
    differ = []
    for name, case in TIER_CASES.items():
        digests = _on_both_tiers(case)
        for tier, digest in zip(("cext", "python"), digests):
            print(f"engine {name} {tier} {digest}", flush=True)
        if digests[0] != digests[1]:
            differ.append(name)
    for name, kwargs in _packet_cases().items():
        digests = [_packet_run(engine, **kwargs)
                   for engine in ("auto", "fast")]
        for engine, digest in zip(("auto", "fast"), digests):
            print(f"packet {name} {engine} {digest}", flush=True)
        if digests[0] != digests[1]:
            differ.append(name)
    if differ:
        print(f"the two digests of a case differ: {', '.join(differ)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
