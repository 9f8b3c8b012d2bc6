"""The packet simulator against queueing theory at one gateway.

On a single gateway the input is exactly Poisson and the service
exponential, so the paper's closed forms hold exactly: FIFO's
``Q_i = rho_i / (1 - rho)``, the Fair Share recursion (Table 1) and
preemptive priority for the mean queues, and, with a buffer of ``K``
packets, M/M/1/K blocking for the gateway's total drop fraction under
FIFO, Fair Share and fixed priority alike: the count of packets in the
gateway is a birth-death process whichever of them is served, and an
eviction swaps a waiting packet for the newcomer, so drop-from-longest
changes who loses a packet, never how many.  These laws check what the
kernel's Python and C loops share, where comparing the two loops sees
nothing.  So does work conservation, which holds path by path rather
than on average (``test_the_disciplines_do_the_same_work``).

Each test runs the default engine over the first ``len(SEEDS)`` seeds
and counts the seeds whose 99.9% batch-means interval misses the law.
Over seeds 0-399 at most 2 of 400 missed in any configuration below
(``FALSE_ALARM``), so a test fails only when more seeds miss than that
rate's binomial tail allows at 1e-3 (``ALLOWED``).  A kernel bug that
moves a queue or a drop fraction past its interval misses on nearly
every seed.
"""

import numpy as np
import pytest
from scipy.stats import binom

from repro.core.topology import single_gateway
from repro.simulation.network_sim import NetworkSimulation
from repro.simulation.stats import batch_means, measure_queue_ci
from repro.simulation.validation import (analytic_counterpart,
                                         mm1k_blocking_probability)

MU = 1.0
CONFIDENCE = 0.999
N_BATCHES = 10
SEEDS = range(20)
#: The largest share of seeds 0-399 whose interval missed the law in
#: any configuration of this module (2 of 400).
FALSE_ALARM = 0.005
#: Misses allowed among ``SEEDS``: more have probability below 1e-3.
ALLOWED = int(binom.ppf(1.0 - 1e-3, len(SEEDS), FALSE_ALARM))

#: F12's rates, rho = 0.7: every class of the three laws is busy.
RATES = (0.1, 0.2, 0.25, 0.15)
#: Offered load 1.3 into a buffer of 4: about 32% of arrivals dropped.
DROP_RATES = (0.3, 1.0)
BUFFER = 4

DISCIPLINES = ["fifo", "fair-share", "fixed-priority"]
#: Offered load 0.85 into infinite buffers, for work conservation.
WORK_RATES = (0.1, 0.2, 0.25, 0.3)


def _queue_ci(disc, rates, seed):
    """Per-connection mean queues: 10 batches of 3,000 after a 3,000
    warm-up (~70k events)."""
    return measure_queue_ci(single_gateway(len(rates), mu=MU), rates, disc,
                            n_batches=N_BATCHES, batch_length=3000.0,
                            warmup=3000.0, seed=seed, confidence=CONFIDENCE)


def _drop_fraction_ci(disc, policy, seed):
    """The gateway's drops over offered packets: 10 batches of 1,000
    after a 1,000 warm-up (~25k events)."""
    sim = NetworkSimulation(single_gateway(len(DROP_RATES), mu=MU), disc,
                            seed=seed, initial_rates=DROP_RATES,
                            buffer_sizes=BUFFER, drop_policy=policy)
    sim.run_for(1000.0)
    batches = []
    for _ in range(N_BATCHES):
        sim.reset_statistics()
        sim.run_for(1000.0)
        batches.append(sim.monitors["g0"].aggregate_drop_fraction())
    return batch_means(batches, confidence=CONFIDENCE)


@pytest.mark.parametrize("disc", DISCIPLINES)
def test_mean_queues_meet_the_queue_law(disc):
    law = analytic_counterpart(disc, len(RATES)).queue_lengths(
        np.array(RATES), MU)
    missed = [seed for seed in SEEDS
              if not _queue_ci(disc, RATES, seed).contains(law).all()]
    assert len(missed) <= ALLOWED, \
        f"{disc}: the interval misses {law} on seeds {missed}"


@pytest.mark.parametrize("policy", ["tail", "longest"])
@pytest.mark.parametrize("disc", DISCIPLINES)
def test_drop_fraction_meets_mm1k_blocking(disc, policy):
    law = mm1k_blocking_probability(sum(DROP_RATES) / MU, BUFFER)
    missed = [seed for seed in SEEDS
              if not _drop_fraction_ci(disc, policy, seed).contains(
                  [law]).all()]
    assert len(missed) <= ALLOWED, \
        f"{disc}, {policy} drop: the interval misses {law:.4f} on " \
        f"seeds {missed}"


class TestTheorem5Bound:
    """Fair Share holds its smallest connection's queue to
    ``r / (mu - N r)`` (Theorem 5's bound, met with equality), and
    non-preemptive Fair Queueing with exponential packet sizes does
    not: a small flow's packet waits out the residual service of a
    large flow's packet.  Over seeds 0-399 the smallest connection's
    interval lay wholly above the bound on 0 seeds under Fair Share and
    on all 400 under Fair Queueing (mean queue 0.142 against 0.0625)."""

    RATES = (0.05, 0.1, 0.2, 0.6)

    def _above(self, disc):
        r = self.RATES[0]
        bound = r / (MU - len(self.RATES) * r)
        return [seed for seed in SEEDS
                if _queue_ci(disc, self.RATES, seed).lower[0] > bound]

    def test_fair_share_meets_the_bound(self):
        above = self._above("fair-share")
        assert len(above) <= ALLOWED, f"above the bound on seeds {above}"

    def test_fair_queueing_exceeds_the_bound(self):
        above = self._above("fair-queueing")
        assert len(above) >= len(SEEDS) - ALLOWED, \
            f"above the bound on {len(above)} of {len(SEEDS)} seeds only"


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("engine", ["fast", "auto"])
def test_the_disciplines_do_the_same_work(engine, seed):
    """Arrivals are exogenous, and each admitted packet draws its
    service time from ``service:g0`` on admission, in arrival order.
    All four disciplines are work-conserving, so with the same seed the
    work in the gateway follows the same path under each, up to
    rounding: the server is busy at the same instants, and whenever it
    is idle the same packets have been served and delivered.  This
    catches work lost or made up on preemption, and a server that idles
    with packets waiting.  Each seed meets 500-700 idle steps."""
    sims = [NetworkSimulation(single_gateway(4, mu=MU), disc, seed=seed,
                              initial_rates=WORK_RATES, engine=engine)
            for disc in DISCIPLINES + ["fair-queueing"]]
    idle = 0
    for step in range(4000):
        for sim in sims:
            sim.run_for(0.37)
        busy = [sim.servers["g0"].busy for sim in sims]
        assert len(set(busy)) == 1, f"step {step}: busy {busy}"
        if not busy[0]:
            idle += 1
            done = [(sim.events_processed, sim.e2e.delivered.tolist())
                    for sim in sims]
            assert all(d == done[0] for d in done), f"step {step}: {done}"
    assert idle >= 100
