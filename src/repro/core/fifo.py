"""The FIFO service discipline (paper Section 2.2).

Packets are served in order of arrival, with no distinction between
connections.  For Poisson arrivals and exponential service the gateway is
an M/M/1 queue and the per-connection mean queue lengths are the classic

    ``Q_i(r) = rho_i / (1 - rho_total)``

with ``rho_i = r_i / mu`` and ``rho_total = sum_i rho_i``.  When
``rho_total >= 1`` there is no steady state and every connection with a
positive rate has an infinite queue — FIFO offers no protection: one
overloading connection destroys everyone's service.  That lack of
isolation is exactly what Theorem 5 formalises (FIFO violates the
robustness condition ``Q_i <= r_i / (mu - N r_i)``).
"""

from __future__ import annotations

import math

import numpy as np

from .math_utils import as_rate_vector, row_sums
from .service import ServiceDiscipline, _check_mu

__all__ = ["Fifo"]


def _fifo_queues(rates, mu: float) -> np.ndarray:
    """The FIFO law over an ``(M, n)`` batch of rate rows, which the
    scalar law runs as a one-row batch."""
    r = np.asarray(rates, dtype=float)
    _check_mu(mu)
    rho = r / mu
    # A strict per-row fold, so each row's bits do not depend on the
    # batch it rides in (see row_sums).
    rho_total = row_sums(rho)[:, None]
    overloaded = rho_total >= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = rho / (1.0 - rho_total)
    return np.where(overloaded, np.where(rho > 0, math.inf, 0.0), q)


class Fifo(ServiceDiscipline):
    """First-in first-out service: ``Q_i = rho_i / (1 - rho_total)``."""

    name = "fifo"

    def queue_lengths(self, rates, mu):
        """A one-row call of the batch law, so the scalar and batch
        laws sum the load in the same order."""
        return _fifo_queues(as_rate_vector(rates)[None, :], mu)[0]

    def queue_lengths_batch(self, rates, mu):
        return _fifo_queues(rates, mu)
