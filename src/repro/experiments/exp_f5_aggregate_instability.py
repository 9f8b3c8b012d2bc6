"""F5 — Section 3.3: unilateral stability does not imply systemic
stability under aggregate feedback.

The paper's example: one unit-rate gateway, ``B(C) = C/(C+1)`` (so the
aggregate signal equals the utilisation), ``f = eta (beta - b)``.  Each
connection measures ``DF_ii = 1 - eta`` (unilaterally stable for
``eta < 2``), but the stability matrix is ``I - eta 11^T/mu`` whose
eigenvalue transverse to the steady-state manifold is ``1 - eta N``:
for ``N > 2/eta`` the steady states are systemically unstable and the
dynamics leave the manifold (ending in a truncation-bounded limit
cycle).  The remaining ``N - 1`` eigenvalues are exactly 1 — neutral
motion *along* the manifold, which Section 2.4.3 explicitly exempts —
so the meaningful measure is the transverse spectral radius.
"""

from __future__ import annotations

import numpy as np

from ..core.dynamics import FlowControlSystem, Outcome
from ..core.fifo import Fifo
from ..core.ratecontrol import TargetRule
from ..core.signals import FeedbackStyle, LinearSaturating
from ..core.stability import (jacobian, transverse_spectral_radius,
                              unilateral_margins, zero_sum_tangent_basis)
from ..core.steadystate import fair_steady_state
from ..core.topology import single_gateway
from .base import ExperimentResult

__all__ = ["run_f5_aggregate_instability"]


def _f5_point(args):
    """One grid point: stability analysis + perturbed run at one N,
    from the perturbation noise the caller drew."""
    n, eta, beta, rho_ss, noise, perturbation, threshold = args
    signal = LinearSaturating()
    rule = TargetRule(eta=eta, beta=beta)
    network = single_gateway(n, mu=1.0)
    system = FlowControlSystem(network, Fifo(), signal, rule,
                               style=FeedbackStyle.AGGREGATE)
    fair = fair_steady_state(network, rho_ss)
    df = jacobian(system, fair)
    margins = unilateral_margins(df)
    transverse = transverse_spectral_radius(df, zero_sum_tangent_basis(n))
    predicted = abs(1.0 - eta * n)

    start = np.clip(fair * (1.0 + perturbation * noise), 0.0, None)
    traj = system.run(start, max_steps=8000, tol=1e-10)
    # Instability manifests as leaving the manifold: either a
    # non-converged outcome or a final total rate away from
    # rho_ss * mu.  Motion *along* the manifold is neutral and fine.
    total_ok = abs(float(np.sum(traj.final)) - rho_ss) < 1e-4
    stayed = traj.outcome is Outcome.CONVERGED and total_ok
    theory_stable = n < threshold
    return {
        "row": (n, float(margins[0]), transverse, predicted,
                theory_stable, traj.outcome.value, stayed),
        "radius_ok": abs(transverse - predicted) < 1e-3,
        "unilateral_ok": bool(np.all(margins < 1.0)),
        "verdict_ok": stayed == theory_stable,
    }


def run_f5_aggregate_instability(eta: float = 0.3, beta: float = 0.5,
                                 n_values=(2, 4, 6, 8, 12, 20),
                                 perturbation: float = 1e-3,
                                 seed: int = 3) -> ExperimentResult:
    """Sweep the number of connections at a shared gateway.

    The per-N points run in turn: each is one Jacobian and one
    kernel-served ``run``, a few ms, so a process pool costs more than
    it saves at every size the registry and the benchmark run (2-core
    host, median of 7 calls, pool -> serial: 52 -> 8 ms at
    ``n_values=(2, 4, 8, 12)``, 54 -> 14 ms at the defaults).
    """
    signal = LinearSaturating()
    rho_ss = signal.steady_state_utilisation(beta)
    threshold = 2.0 / eta
    rng = np.random.default_rng(seed)
    grid = [(n, eta, beta, rho_ss, rng.standard_normal(n),
             perturbation, threshold) for n in n_values]
    points = [_f5_point(args) for args in grid]

    rows = [p["row"] for p in points]
    radius_matches = all(p["radius_ok"] for p in points)
    unilateral_all_stable = all(p["unilateral_ok"] for p in points)
    verdict_matches_theory = all(p["verdict_ok"] for p in points)

    return ExperimentResult(
        experiment_id="F5",
        title="Section 3.3: aggregate feedback — unilateral stability "
              "without systemic stability (eigenvalue 1 - eta N)",
        columns=("N", "unilateral_margin", "transverse_radius",
                 "predicted_|1-etaN|", "theory_stable", "outcome",
                 "stayed_on_manifold"),
        rows=rows,
        checks={
            "transverse_radius_matches_1_minus_etaN": radius_matches,
            "every_N_is_unilaterally_stable": unilateral_all_stable,
            "instability_onsets_at_N_equals_2_over_eta":
                verdict_matches_theory,
        },
        notes=[f"eta = {eta}: theory predicts loss of stability for "
               f"N > {threshold:.1f}; the N-1 on-manifold eigenvalues "
               f"are exactly 1 (neutral) by design"],
    )
