"""F8 — Section 3.4: aggregate feedback shuts out less greedy sources.

Two connections share one gateway under TSI aggregate feedback, but run
rules with different target signals ``b1_ss > b2_ss`` (connection 1 is
"greedier": it tolerates more congestion before backing off).  The
iteration drives ``r2 -> 0`` and ``r1 -> r_ss`` where the gateway sits
at connection 1's target — the truncated state is steady because
``f2 < 0`` is pinned by the nonnegativity clamp.  "Appallingly bad":
the meek connection gets *nothing*, which is what makes aggregate
feedback non-robust.
"""

from __future__ import annotations

import numpy as np

from ..core.dynamics import FlowControlSystem
from ..core.fifo import Fifo
from ..core.ratecontrol import TargetRule
from ..core.signals import FeedbackStyle, LinearSaturating
from ..core.topology import single_gateway
from .base import ExperimentResult

__all__ = ["run_f8_heterogeneity"]


def run_f8_heterogeneity(beta_greedy: float = 0.6,
                         beta_meek: float = 0.4,
                         eta: float = 0.05,
                         steps: int = 6000,
                         sample_every: int = 500) -> ExperimentResult:
    """Two heterogeneous targets at one gateway; see module doc."""
    if not beta_greedy > beta_meek:
        raise ValueError("the greedy target must exceed the meek target")
    network = single_gateway(2, mu=1.0)
    signal = LinearSaturating()
    system = FlowControlSystem(
        network, Fifo(), signal,
        rules=[TargetRule(eta=eta, beta=beta_greedy),
               TargetRule(eta=eta, beta=beta_meek)],
        style=FeedbackStyle.AGGREGATE)

    # One run at tol = 0 stops only on an exact fixed point, which the
    # map then keeps forever, so the final state pads the history out
    # to the full step count.
    traj = system.run(np.array([0.2, 0.2]), max_steps=steps, tol=0.0)
    sampled = np.minimum(np.arange(0, steps + 1, sample_every), traj.steps)
    rows = [(int(step), float(r[0]), float(r[1]))
            for step, r in zip(range(0, steps + 1, sample_every),
                               traj.history[sampled])]
    r = traj.final

    # The greedy connection alone should sit at its own target load.
    expected_greedy = signal.steady_state_utilisation(beta_greedy)
    meek_shut_out = float(r[1]) < 1e-6
    greedy_takes_all = abs(float(r[0]) - expected_greedy) < 1e-4
    pinned_steady = system.is_steady_state(r, tol=1e-8)

    return ExperimentResult(
        experiment_id="F8",
        title="Section 3.4: heterogeneous aggregate feedback drives the "
              "less greedy connection to zero",
        columns=("step", "rate_greedy(b_ss=%.2f)" % beta_greedy,
                 "rate_meek(b_ss=%.2f)" % beta_meek),
        rows=rows,
        checks={
            "meek_connection_shut_out": meek_shut_out,
            "greedy_connection_reaches_own_target": greedy_takes_all,
            "truncated_state_is_steady": pinned_steady,
        },
        notes=[
            f"greedy steady rate = rho_ss(beta={beta_greedy}) * mu = "
            f"{expected_greedy:.4f}; the meek rule still wants to "
            f"decrease (f2 < 0) but is pinned at zero",
        ],
    )
