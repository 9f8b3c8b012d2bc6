"""Acceptance sweep for the batched asynchronous engine: across 100+
generated scenarios, every ``run_async_ensemble`` member reproduces the
per-connection ``reference_run`` bit-identically — finals, outcomes,
and step counts — over the full schedule family and a range of delays."""

import numpy as np

from repro.core.asynchronous import (BernoulliSchedule,
                                     BurstyClock, ClockSchedule,
                                     DriftingClock, RateMixClock,
                                     RoundRobinSchedule,
                                     SynchronousSchedule,
                                     run_async_ensemble)
from repro.scenarios import generate
from repro.scenarios.oracles import reference_run


def _schedule_for(index, spec):
    """The scenario's own clock when it carries one, otherwise a
    deterministic rotation through the schedule family."""
    if spec.clock is not None:
        return spec.clock.schedule(), spec.clock.signal_delay
    rotation = [
        SynchronousSchedule(),
        RoundRobinSchedule(),
        BernoulliSchedule(0.3 + 0.2 * (index % 3), seed=index),
        ClockSchedule(RateMixClock(0.25, 1.0, 0.5, seed=index)),
        ClockSchedule(DriftingClock(0.5, 0.3, 16, seed=index)),
        ClockSchedule(BurstyClock(0.9, 0.2, 8, seed=index)),
    ]
    return rotation[index % len(rotation)], index % 4


class TestAsyncScalarVsBatchSweep:
    def test_bit_identity_over_100_scenarios(self):
        budget = 150
        checked = 0
        for index, spec in enumerate(generate(13, 150)):
            if spec.controller is not None:
                continue  # run_async_ensemble rejects controlled systems
            system = spec.build()
            sched, tau = _schedule_for(index, spec)
            initials = np.stack([spec.initial(), 0.7 * spec.initial()])
            ens = run_async_ensemble(system, initials, schedule=sched,
                                     signal_delay=tau, max_steps=budget,
                                     tol=spec.tol)
            for m in range(len(ens)):
                traj = reference_run(system, initials[m], sched, tau,
                                     max_steps=budget, tol=spec.tol)
                assert ens.outcomes[m] is traj.outcome, (
                    f"{spec.name}: member {m} outcome "
                    f"{ens.outcomes[m].value} != {traj.outcome.value}")
                assert int(ens.steps[m]) == traj.steps, (
                    f"{spec.name}: member {m} steps")
                assert np.array_equal(ens.finals[m], traj.final), (
                    f"{spec.name}: member {m} finals differ")
            checked += 1
        assert checked >= 100, f"only {checked} scenarios exercised"
