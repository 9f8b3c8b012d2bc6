"""The paper's analytic model: networks, disciplines, signals, dynamics.

This subpackage is the primary contribution of the reproduction — a
faithful, executable rendering of every definition in Sections 2 and 3
of Shenker (SIGCOMM 1990).  See :mod:`repro.core.topology` for the
network model, :mod:`repro.core.fifo` / :mod:`repro.core.fairshare` for
the service disciplines, :mod:`repro.core.signals` for congestion
signalling, :mod:`repro.core.ratecontrol` for source update rules,
:mod:`repro.core.dynamics` for the iterated map, and
:mod:`repro.core.steadystate` / :mod:`repro.core.stability` /
:mod:`repro.core.fairness` / :mod:`repro.core.robustness` for the four
performance goals.
"""

from .delays import (per_gateway_delays, round_trip_delays,
                     round_trip_delays_batch)
from .dynamics import EnsembleResult, FlowControlSystem, Outcome, Trajectory
from .fairness import is_fair, jain_index, max_min_allocation, unfairness
from .fairshare import (FairShare, cumulative_loads, cumulative_loads_batch,
                        fair_share_queues_recursive, priority_decomposition)
from .feasibility import FeasibilityReport, check_feasibility
from .fifo import Fifo
from .math_utils import as_rate_matrix, g, g_inverse
from .ratecontrol import (BinaryAimdRule, DecbitRateRule, DecbitWindowRule,
                          ProportionalTargetRule, RateAdjustment,
                          RcpSourceRule, TargetRule, TcpLikeRule,
                          tsi_target, verify_tsi)
from .rcp import RcpBank, RcpController
from .robustness import (is_robust_outcome, reservation_delay,
                         reservation_floor, satisfies_theorem5_condition,
                         theorem5_bound, theorem5_condition_batch,
                         worst_floor_ratio)
from .service import PreemptivePriority, ServiceDiscipline
from .signals import (ExponentialSignal, FeedbackScheme, FeedbackStyle,
                      LinearSaturating, PowerSaturating, SignalFunction,
                      aggregate_congestion, individual_congestion,
                      weighted_individual_congestion)
from .stability import (StabilityReport, analyze, eigenvalues,
                        is_systemically_stable, is_triangular_in_rate_order,
                        is_unilaterally_stable, jacobian, spectral_radius,
                        transverse_eigenvalues, transverse_spectral_radius,
                        triangularity_defect, unilateral_margins,
                        zero_sum_tangent_basis)
from .steadystate import (fair_steady_state, is_aggregate_steady_state,
                          predicted_steady_state, refine,
                          single_connection_rate, steady_utilisation)
from .topology import (Connection, Gateway, Network, parking_lot,
                       random_network, single_gateway, tandem,
                       two_gateway_shared)
from .weighted import (WeightedFairShare,
                       weighted_fair_share_queues_recursive,
                       weighted_max_min_allocation,
                       weighted_reservation_floor)
from .asynchronous import (CLOCK_KINDS, AsynchronousRunner,
                           BernoulliSchedule, BurstyClock, ClockModel,
                           ClockSchedule, DriftingClock, RateMixClock,
                           RoundRobinSchedule, SynchronousSchedule,
                           UniformClock, UpdateSchedule, clock_model,
                           run_async_ensemble)

__all__ = [
    # topology
    "Gateway", "Connection", "Network", "single_gateway",
    "two_gateway_shared", "tandem", "parking_lot", "random_network",
    # disciplines
    "ServiceDiscipline", "Fifo", "FairShare", "PreemptivePriority",
    "priority_decomposition", "cumulative_loads", "cumulative_loads_batch",
    "fair_share_queues_recursive",
    # feasibility
    "FeasibilityReport", "check_feasibility",
    # signals
    "SignalFunction", "LinearSaturating", "PowerSaturating",
    "ExponentialSignal", "FeedbackStyle", "FeedbackScheme",
    "aggregate_congestion", "individual_congestion",
    "weighted_individual_congestion",
    # rate control
    "RateAdjustment", "TargetRule", "ProportionalTargetRule",
    "DecbitWindowRule", "DecbitRateRule", "BinaryAimdRule",
    "TcpLikeRule", "RcpSourceRule",
    "verify_tsi", "tsi_target",
    # router-side control (RCP)
    "RcpController", "RcpBank",
    # dynamics
    "FlowControlSystem", "Outcome", "Trajectory", "EnsembleResult",
    # delays
    "round_trip_delays", "per_gateway_delays", "round_trip_delays_batch",
    # steady state
    "steady_utilisation", "fair_steady_state", "predicted_steady_state",
    "is_aggregate_steady_state", "single_connection_rate", "refine",
    # stability
    "jacobian", "eigenvalues", "spectral_radius", "unilateral_margins",
    "transverse_eigenvalues", "transverse_spectral_radius",
    "zero_sum_tangent_basis",
    "is_unilaterally_stable", "is_systemically_stable",
    "triangularity_defect", "is_triangular_in_rate_order",
    "StabilityReport", "analyze",
    # fairness / robustness
    "is_fair", "unfairness", "jain_index", "max_min_allocation",
    "reservation_floor", "theorem5_bound",
    "satisfies_theorem5_condition", "theorem5_condition_batch",
    "is_robust_outcome", "worst_floor_ratio", "reservation_delay",
    # weighted extension
    "WeightedFairShare", "weighted_fair_share_queues_recursive",
    "weighted_max_min_allocation", "weighted_reservation_floor",
    # asynchronous extension
    "UpdateSchedule", "SynchronousSchedule", "RoundRobinSchedule",
    "BernoulliSchedule", "AsynchronousRunner", "run_async_ensemble",
    "ClockModel", "UniformClock", "RateMixClock", "DriftingClock",
    "BurstyClock", "ClockSchedule", "CLOCK_KINDS", "clock_model",
    # math
    "g", "g_inverse", "as_rate_matrix",
]
