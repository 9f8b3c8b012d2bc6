"""Cross-validation of the analytic queue laws against the simulator.

The analytic layer asserts closed forms for ``Q_i(r)`` under FIFO, Fair
Share, and fixed preemptive priority.  These helpers run the packet
simulator at fixed rates and compare the time-averaged per-connection
occupancy to the formulas — the F12 experiment and the statistical
integration tests build on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.fairshare import FairShare
from ..core.fifo import Fifo
from ..core.service import PreemptivePriority, ServiceDiscipline
from ..core.topology import single_gateway
from ..errors import InfeasibleLoadError, SimulationError
from .network_sim import NetworkSimulation

__all__ = ["QueueValidation", "analytic_counterpart",
           "validate_single_gateway", "mm1k_blocking_probability",
           "mm1k_mean_queue", "FiniteBufferValidation",
           "validate_finite_buffer"]


@dataclass
class QueueValidation:
    """Measured vs expected mean queues at one gateway."""

    discipline_kind: str
    rates: np.ndarray
    mu: float
    horizon: float
    measured: np.ndarray
    expected: np.ndarray

    @property
    def absolute_errors(self) -> np.ndarray:
        return np.abs(self.measured - self.expected)

    @property
    def relative_errors(self) -> np.ndarray:
        """Per-connection relative error, guarded against tiny queues."""
        scale = np.maximum(np.abs(self.expected), 0.05)
        return self.absolute_errors / scale

    @property
    def worst_relative_error(self) -> float:
        return float(np.max(self.relative_errors))


def mm1k_blocking_probability(rho: float, k: int) -> float:
    """M/M/1/K blocking (drop) probability.

    ``p_K = rho^K (1 - rho) / (1 - rho^{K+1})`` for ``rho != 1`` and
    ``1 / (K + 1)`` at ``rho = 1``.  ``K`` counts the whole system
    (queue + server).
    """
    if k < 1:
        raise SimulationError(f"buffer size must be >= 1, got {k!r}")
    if rho < 0:
        raise SimulationError(f"utilisation must be >= 0, got {rho!r}")
    if abs(rho - 1.0) < 1e-12:
        return 1.0 / (k + 1)
    return (rho ** k) * (1.0 - rho) / (1.0 - rho ** (k + 1))


def mm1k_mean_queue(rho: float, k: int) -> float:
    """Mean number in system of an M/M/1/K queue.

    ``E[N] = rho/(1-rho) - (K+1) rho^{K+1} / (1 - rho^{K+1})`` for
    ``rho != 1`` and ``K/2`` at ``rho = 1``.
    """
    if k < 1:
        raise SimulationError(f"buffer size must be >= 1, got {k!r}")
    if rho < 0:
        raise SimulationError(f"utilisation must be >= 0, got {rho!r}")
    if abs(rho - 1.0) < 1e-12:
        return k / 2.0
    return (rho / (1.0 - rho)
            - (k + 1) * rho ** (k + 1) / (1.0 - rho ** (k + 1)))


@dataclass
class FiniteBufferValidation:
    """Measured vs M/M/1/K drop fraction and occupancy."""

    rho: float
    buffer_size: int
    measured_drop_fraction: float
    expected_drop_fraction: float
    measured_mean_queue: float
    expected_mean_queue: float

    @property
    def drop_error(self) -> float:
        return abs(self.measured_drop_fraction
                   - self.expected_drop_fraction)

    @property
    def queue_relative_error(self) -> float:
        scale = max(self.expected_mean_queue, 0.05)
        return abs(self.measured_mean_queue
                   - self.expected_mean_queue) / scale


def validate_finite_buffer(rate: float, mu: float, buffer_size: int,
                           horizon: float = 20000.0,
                           warmup: float = 2000.0,
                           seed: int = 0) -> FiniteBufferValidation:
    """Single connection at a drop-tail gateway vs the M/M/1/K formulas.

    Unlike the infinite-buffer validation, overload is allowed: a full
    buffer simply drops, and the analytic blocking formula covers
    ``rho >= 1``.
    """
    network = single_gateway(1, mu=mu)
    sim = NetworkSimulation(network, discipline_kind="fifo", seed=seed,
                            initial_rates=np.array([rate]),
                            buffer_sizes=buffer_size)
    sim.run_for(warmup)
    sim.reset_statistics()
    sim.run_for(horizon)
    rho = rate / mu
    return FiniteBufferValidation(
        rho=rho,
        buffer_size=buffer_size,
        measured_drop_fraction=float(
            sim.drop_fractions()["g0"][0]),
        expected_drop_fraction=mm1k_blocking_probability(rho,
                                                         buffer_size),
        measured_mean_queue=float(sim.mean_queue_lengths()["g0"][0]),
        expected_mean_queue=mm1k_mean_queue(rho, buffer_size),
    )


def analytic_counterpart(discipline_kind: str,
                         n_connections: int) -> ServiceDiscipline:
    """The analytic queue law matching a simulator discipline name."""
    if discipline_kind == "fifo":
        return Fifo()
    if discipline_kind == "fair-share":
        return FairShare()
    if discipline_kind == "fixed-priority":
        return PreemptivePriority(list(range(n_connections)))
    raise SimulationError(
        f"no analytic counterpart for discipline {discipline_kind!r} "
        f"(fair-queueing is approximated by fair-share, compare manually)")


def validate_single_gateway(rates: Sequence[float], mu: float,
                            discipline_kind: str = "fifo",
                            horizon: float = 20000.0,
                            warmup: float = 2000.0,
                            seed: int = 0,
                            engine: str = "auto") -> QueueValidation:
    """Simulate one gateway at fixed rates; compare mean queues.

    Raises :class:`~repro.errors.InfeasibleLoadError` when the offered
    load is at or above capacity — time averages would not converge.
    """
    r = np.asarray(rates, dtype=float)
    if float(np.sum(r)) >= mu:
        raise InfeasibleLoadError(
            f"offered load {float(np.sum(r))} >= mu {mu}; the validation "
            f"needs a stable queue")
    network = single_gateway(r.shape[0], mu=mu)
    sim = NetworkSimulation(network, discipline_kind=discipline_kind,
                            seed=seed, initial_rates=r, engine=engine)
    sim.run_for(warmup)
    sim.reset_statistics()
    sim.run_for(horizon)
    measured = sim.mean_queue_lengths()["g0"]
    analytic = analytic_counterpart(discipline_kind, r.shape[0])
    expected = analytic.queue_lengths(r, mu)
    if not np.all(np.isfinite(expected)):
        raise InfeasibleLoadError("analytic law is infinite at these rates")
    return QueueValidation(
        discipline_kind=discipline_kind,
        rates=r,
        mu=mu,
        horizon=horizon,
        measured=np.asarray(measured, dtype=float),
        expected=np.asarray(expected, dtype=float),
    )
