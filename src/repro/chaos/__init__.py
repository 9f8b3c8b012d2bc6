"""Structural chaos layer: topology faults, adversaries, crashpoints.

Three kinds of trouble, one package:

* :mod:`repro.chaos.structural` — scheduled *topology* damage
  (capacity degradations, gateway blackholes) threaded through the
  analytic dynamics, scalar and batch alike, with the same empty-plan
  bit-identity contract as :mod:`repro.faults`;
* :mod:`repro.chaos.adversaries` — misbehaving sources (blasters,
  pinners, sawtooths) that compose per-connection with honest TSI
  rules, plus :mod:`repro.chaos.monitor`'s runtime Theorem 5
  robustness-floor assertion over the honest connections;
* :mod:`repro.chaos.crashpoints` — env-armed SIGKILL sites along the
  checkpoint write path of :func:`repro.parallel.sweep`, driven by the
  kill-anywhere harness in :mod:`repro.chaos.harness` (imported lazily
  by its users, not here — it sits above :mod:`repro.parallel` in the
  layering).

Entry point: ``python -m repro chaos`` runs the structural demo, the
floor monitor on FS vs FIFO, and a small kill-anywhere check.
"""

from .adversaries import (AdversaryRule, BlasterRule, PinnedRateRule,
                          SawtoothRule, honest_indices, is_adversary)
from .crashpoints import (CRASHPOINT_ENV, KNOWN_CRASHPOINTS, crashpoint,
                          parse_crashpoint, reset_crashpoints)
from .monitor import FLOOR_TOL, FloorCheck, check_robustness_floor
from .structural import (CapacityDegradation, GatewayBlackhole,
                         StructuralEvent, StructuralFaultPlan,
                         StructuralFaultState, StructuralInjector)

__all__ = [
    "AdversaryRule", "BlasterRule", "PinnedRateRule", "SawtoothRule",
    "honest_indices", "is_adversary",
    "CRASHPOINT_ENV", "KNOWN_CRASHPOINTS", "crashpoint",
    "parse_crashpoint", "reset_crashpoints",
    "FLOOR_TOL", "FloorCheck", "check_robustness_floor",
    "CapacityDegradation", "GatewayBlackhole", "StructuralEvent",
    "StructuralFaultPlan", "StructuralFaultState", "StructuralInjector",
]
