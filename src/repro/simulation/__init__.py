"""Packet-level discrete-event simulation substrate.

The paper's model treats queues as instantly-equilibrated closed forms;
this subpackage provides the physical system underneath: Poisson
sources, exponential-server gateways with FIFO / Fair Share (substream
thinning) / fixed-priority / Fair Queueing disciplines, line latencies,
and a closed-loop driver that runs the rate-adjustment rules on
*measured*, delayed congestion signals.
"""

from .closed_loop import ClosedLoopResult, run_closed_loop
from .network_sim import NetworkSimulation
from .rng import RandomStreams
from .stats import BatchMeansEstimate, batch_means, measure_queue_ci
from .validation import (QueueValidation, analytic_counterpart,
                         validate_single_gateway)

__all__ = [
    "RandomStreams",
    "NetworkSimulation",
    "ClosedLoopResult", "run_closed_loop",
    "QueueValidation", "analytic_counterpart", "validate_single_gateway",
    "BatchMeansEstimate", "batch_means", "measure_queue_ci",
]
