"""F9 — Theorem 5: robustness under heterogeneous rate adjustment.

Four connections share a gateway, each running a TSI target rule with a
*different* greed level (target signal).  We compare three designs:

* aggregate feedback + FIFO — the meek connections are shut out
  entirely (floor ratio -> 0);
* individual feedback + FIFO — everybody keeps some throughput, but the
  meekest falls below its reservation floor (FIFO violates Theorem 5's
  condition ``Q_i <= r_i / (mu - N r_i)``);
* individual feedback + Fair Share — every connection reaches at least
  its floor (FS satisfies the condition; the smallest connection meets
  it with equality).

The floor is per-connection: ``rho_ss_i * mu / N`` with each
connection's own steady utilisation (the reservation baseline of
Section 2.4.4).  We also spot-check Theorem 5's queue-law condition
directly on random rate vectors.
"""

from __future__ import annotations

import numpy as np

from ..core.dynamics import FlowControlSystem, Outcome
from ..core.fairshare import FairShare
from ..core.fifo import Fifo
from ..core.ratecontrol import TargetRule
from ..core.robustness import (reservation_floor_heterogeneous,
                               theorem5_condition_batch)
from ..core.signals import FeedbackStyle, LinearSaturating
from ..core.topology import single_gateway
from ..parallel import sweep
from .base import ExperimentResult

__all__ = ["run_f9_robustness"]

_DISCIPLINES = {"fifo": Fifo, "fair-share": FairShare}


def _f9_design(args):
    """Run one (discipline, feedback style) design to its attractor.

    Module-level so :func:`repro.parallel.sweep` can hand the three
    designs to a process pool when the caller asks for workers; the
    discipline and style travel as names and are rebuilt here, keeping
    the payload trivially picklable.
    """
    name, disc_name, style_name, betas, eta, steps = args
    n = len(betas)
    network = single_gateway(n, mu=1.0)
    rules = [TargetRule(eta=eta, beta=b) for b in betas]
    system = FlowControlSystem(network, _DISCIPLINES[disc_name](),
                               LinearSaturating(), rules,
                               style=FeedbackStyle[style_name])
    traj = system.run(np.full(n, 0.1), max_steps=steps, tol=1e-11)
    final = (traj.final if traj.outcome is Outcome.CONVERGED
             else traj.tail(200).mean(axis=0))
    return name, final, traj.outcome.value


def run_f9_robustness(betas=(0.7, 0.6, 0.5, 0.4), eta: float = 0.04,
                      steps: int = 60000,
                      condition_trials: int = 200,
                      seed: int = 13,
                      workers: int = 1) -> ExperimentResult:
    """Heterogeneous greed mix across the three designs.

    The three designs are independent runs and go through
    :func:`repro.parallel.sweep`, serially by default: each is one
    kernel-served ``run`` of under a millisecond, so a process pool
    costs more than it saves (2-core host, median of 7 calls, pool ->
    serial: 29 -> 1.2 ms at ``steps=20000``, 30 -> 1.9 ms at the
    defaults).  Pass ``workers`` (``None`` for one per core) to fan
    them out.  The Theorem 5 spot-check evaluates all random rate
    vectors with the batched queue laws.
    """
    n = len(betas)
    network = single_gateway(n, mu=1.0)
    signal = LinearSaturating()
    rho_vec = np.array([signal.steady_state_utilisation(b) for b in betas])
    floors = reservation_floor_heterogeneous(network, rho_vec)

    configs = (
        ("aggregate+fifo", "fifo", "AGGREGATE"),
        ("individual+fifo", "fifo", "INDIVIDUAL"),
        ("individual+fair-share", "fair-share", "INDIVIDUAL"),
    )
    grid = [(name, disc, style, tuple(betas), eta, steps)
            for name, disc, style in configs]
    rows = []
    min_ratio = {}
    for name, final, outcome_value in sweep(_f9_design, grid,
                                            workers=workers):
        ratios = final / floors
        min_ratio[name] = float(np.min(ratios))
        for i in range(n):
            rows.append((name, i, betas[i], float(final[i]),
                         float(floors[i]), float(ratios[i]),
                         outcome_value))

    rng = np.random.default_rng(seed)
    trial_rates = rng.uniform(0.0, 0.35, size=(condition_trials, n))
    fifo_violations = int(np.sum(
        ~theorem5_condition_batch(Fifo(), trial_rates, 1.0)))
    fs_violations = int(np.sum(
        ~theorem5_condition_batch(FairShare(), trial_rates, 1.0)))

    return ExperimentResult(
        experiment_id="F9",
        title="Theorem 5: robustness — floor ratios under heterogeneous "
              "greed (aggregate vs FIFO vs Fair Share)",
        columns=("design", "connection", "beta_target", "final_rate",
                 "reservation_floor", "floor_ratio", "outcome"),
        rows=rows,
        checks={
            "fair_share_meets_every_floor":
                min_ratio["individual+fair-share"] >= 1.0 - 1e-3,
            "fifo_individual_misses_a_floor":
                0.0 < min_ratio["individual+fifo"] < 1.0 - 1e-3,
            "aggregate_shuts_someone_out":
                min_ratio["aggregate+fifo"] < 1e-3,
            "fifo_queue_law_violates_theorem5_condition":
                fifo_violations > 0,
            "fair_share_queue_law_satisfies_theorem5_condition":
                fs_violations == 0,
        },
        notes=[
            f"min floor ratios: {min_ratio}",
            f"Theorem 5 condition violations over {condition_trials} "
            f"random rate vectors: fifo={fifo_violations}, "
            f"fair-share={fs_violations}",
        ],
    )
