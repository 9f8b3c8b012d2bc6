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


class Fifo(ServiceDiscipline):
    """First-in first-out service: ``Q_i = rho_i / (1 - rho_total)``."""

    name = "fifo"

    def queue_lengths(self, rates, mu):
        r = as_rate_vector(rates)
        _check_mu(mu)
        rho = r / mu
        rho_total = float(np.sum(rho))
        if rho_total >= 1.0:
            q = np.where(rho > 0, math.inf, 0.0)
            return q.astype(float)
        return rho / (1.0 - rho_total)

    def queue_lengths_batch(self, rates, mu, xp=None):
        xp = np if xp is None else xp
        r = xp.asarray(rates, dtype=float)
        _check_mu(mu)
        rho = r / mu
        # A strict per-row fold, so each row's bits do not depend on the
        # batch it rides in (see row_sums).
        rho_total = row_sums(rho, xp=xp)[:, None]
        overloaded = rho_total >= 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            q = rho / (1.0 - rho_total)
        return xp.where(overloaded, xp.where(rho > 0, math.inf, 0.0), q)
