"""F12 — substrate validation: the packet simulator vs the analytic
model, open- and closed-loop.

The analytic queue laws (FIFO's ``rho_i/(1-rho)``, Fair Share's
substream recursion, preemptive priority's ``g(sigma_k)`` differences)
must match time-averaged occupancies of the event-driven M/M/1
simulation; and the closed feedback loop — rate rules fed *measured*,
windowed, delayed signals — must still settle near the model's fair
point, supporting the paper's "instant equilibration" idealisation.
"""

from __future__ import annotations

import numpy as np

from ..core.signals import FeedbackStyle, LinearSaturating
from ..core.ratecontrol import TargetRule
from ..core.steadystate import fair_steady_state
from ..core.topology import single_gateway
from ..simulation.closed_loop import run_closed_loop
from ..simulation.validation import validate_single_gateway
from .base import ExperimentResult

__all__ = ["run_f12_sim_validation"]


def run_f12_sim_validation(rates=(0.1, 0.2, 0.25, 0.15), mu: float = 1.0,
                           horizon: float = 30000.0,
                           warmup: float = 3000.0,
                           loop_steps: int = 50,
                           loop_interval: float = 400.0,
                           seed: int = 29,
                           tolerance: float = 0.12,
                           loop_tolerance: float = 0.15,
                           engine: str = "auto") -> ExperimentResult:
    """Open-loop queue-law validation + closed-loop convergence.

    ``tolerance`` bounds the worst per-connection relative error of the
    open-loop queue-law comparison and should be widened when running
    with a reduced ``horizon`` (the estimator error shrinks like
    ``1/sqrt(horizon)``).

    ``engine`` selects the simulation engine for both the open-loop
    validations and the closed loop (``"auto"``, the C event loop
    wherever the C tier has built, or ``"fast"``, the kernel's Python
    loops — trajectories are bit-identical either way, only the wall
    time differs; ``benchmarks/bench.py``'s ``f12_end_to_end`` case
    times this experiment end to end on both).
    """
    rows = []
    worst = {}
    for kind in ("fifo", "fair-share", "fixed-priority"):
        result = validate_single_gateway(rates, mu, kind, horizon=horizon,
                                         warmup=warmup, seed=seed,
                                         engine=engine)
        worst[kind] = result.worst_relative_error
        for i in range(len(rates)):
            rows.append((kind, i, float(result.rates[i]),
                         float(result.expected[i]),
                         float(result.measured[i]),
                         float(result.relative_errors[i])))

    # Closed loop: 3 connections, individual feedback, Fair Share.
    beta, eta = 0.5, 0.05
    signal = LinearSaturating()
    network = single_gateway(3, mu=mu)
    fair = fair_steady_state(network, signal.steady_state_utilisation(beta))
    loop = run_closed_loop(network, TargetRule(eta=eta, beta=beta), signal,
                           style=FeedbackStyle.INDIVIDUAL,
                           discipline_kind="fair-share",
                           initial_rates=[0.05, 0.2, 0.4],
                           control_interval=loop_interval,
                           n_steps=loop_steps, seed=seed, engine=engine)
    settled = loop.tail_mean_rates(max(5, loop_steps // 5))
    loop_gap = float(np.max(np.abs(settled - fair))) / float(np.max(fair))
    rows.append(("closed-loop", -1, float("nan"), float(fair[0]),
                 float(np.mean(settled)), loop_gap))

    return ExperimentResult(
        experiment_id="F12",
        title="Substrate validation: packet DES vs analytic queue laws; "
              "closed loop reaches the fair point",
        columns=("discipline", "connection", "rate", "expected_Q",
                 "measured_Q", "relative_error"),
        rows=rows,
        checks={
            "fifo_law_within_tolerance": worst["fifo"] < tolerance,
            "fair_share_law_within_tolerance":
                worst["fair-share"] < tolerance,
            "priority_law_within_tolerance":
                worst["fixed-priority"] < tolerance,
            "closed_loop_settles_near_fair_point":
                loop_gap < loop_tolerance,
        },
        notes=[
            f"worst open-loop relative errors: { {k: round(v, 4) for k, v in worst.items()} }",
            "closed-loop row: expected_Q column holds the fair rate, "
            "measured_Q the mean settled rate",
        ],
    )
