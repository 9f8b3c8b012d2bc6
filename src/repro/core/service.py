"""Service-discipline abstraction (paper Section 2.2).

A service discipline is represented, exactly as in the paper, by its
steady-state mean queue-length function ``Q(r)``: given the vector of
Poisson sending rates ``r`` of the connections sharing a gateway with
exponential service rate ``mu``, ``Q(r)`` returns the vector of mean
per-connection queue lengths (number of packets in the system, including
the one in service).

The paper requires every discipline to be

* **symmetric** — permuting ``r`` permutes ``Q`` the same way;
* **time-scale invariant** — ``Q`` depends only on ``r / mu``;
* **monotone** — ``dQ_i/dr_i >= 0`` and ``Q_i > Q_j  <=>  r_i > r_j``;

and every *nonstalling* discipline to conserve the total queue:
``sum_i Q_i = g(sum_i r_i / mu)`` with ``g(x) = x / (1 - x)``.

Overload is representable: when the relevant cumulative utilisation
reaches 1 the affected queues are ``inf`` (no steady state), and the
congestion-signal layer maps ``inf`` to the maximal signal 1.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

from ..errors import RateVectorError
from .math_utils import as_rate_vector, g

__all__ = ["ServiceDiscipline", "PreemptivePriority"]


class ServiceDiscipline(abc.ABC):
    """Abstract queue-length law ``Q(r)`` of a gateway service discipline."""

    #: Short human-readable identifier (e.g. ``"fifo"``, ``"fair-share"``).
    name: str = "abstract"

    @abc.abstractmethod
    def queue_lengths(self, rates: Sequence[float],
                      mu: float) -> np.ndarray:
        """Mean per-connection queue lengths ``Q_i(r)`` at service rate ``mu``.

        Args:
            rates: nonnegative finite sending rates, one per connection.
            mu: gateway service rate, strictly positive.

        Returns:
            Array of the same length as ``rates``.  Entries are ``inf``
            where the discipline admits no steady state for that
            connection (overload), and exactly ``0.0`` where the rate
            is ``0``.
        """

    def queue_lengths_batch(self, rates: np.ndarray,
                            mu: float, xp=None) -> np.ndarray:
        """Queue lengths for a batch of rate vectors at once.

        ``rates`` has shape ``(M, n)`` — M independent rate vectors over
        the same ``n`` connections — and the result matches it row for
        row: ``queue_lengths_batch(R, mu)[m] == queue_lengths(R[m], mu)``.
        The base implementation loops over the batch; disciplines with a
        vectorisable queue law override it (see :class:`~repro.core.fifo.
        Fifo` and :class:`~repro.core.fairshare.FairShare`).

        ``xp`` selects the array namespace (numpy when ``None``).
        Callers forward it only for non-numpy backends, so overrides
        without the parameter keep working on the default path.
        """
        xp = np if xp is None else xp
        mat = xp.asarray(rates, dtype=float)
        if mat.ndim != 2:
            raise RateVectorError(
                f"rate batch must be 2-D, got shape {mat.shape}")
        out = xp.empty_like(mat)
        for m in range(mat.shape[0]):
            out[m] = self.queue_lengths(mat[m], mu)
        return out

    def total_queue(self, rates: Sequence[float], mu: float) -> float:
        """Total mean queue ``sum_i Q_i``.

        For any nonstalling discipline this equals ``g(rho_total)``; the
        default implementation sums :meth:`queue_lengths` so subclasses
        stay honest.
        """
        return float(np.sum(self.queue_lengths(rates, mu)))

    def delays(self, rates: Sequence[float], mu: float) -> np.ndarray:
        """Mean per-packet sojourn times at this gateway, by Little's law.

        ``delay_i = Q_i / r_i``; a connection with zero rate experiences
        the delay it *would* see on its next packet, which we approximate
        by the limit ``r_i -> 0`` computed with a tiny probe rate.
        """
        r = as_rate_vector(rates)
        _check_mu(mu)
        q = self.queue_lengths(r, mu)
        out = np.empty_like(q)
        positive = r > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            out[positive] = q[positive] / r[positive]
        if np.any(~positive):
            probe = r.copy()
            eps = mu * 1e-9
            probe[~positive] = eps
            q_probe = self.queue_lengths(probe, mu)
            out[~positive] = q_probe[~positive] / eps
        return out

    def delays_batch(self, rates: np.ndarray, mu: float,
                     xp=None) -> np.ndarray:
        """Batched per-packet sojourn times: row ``m`` equals
        ``delays(rates[m], mu)``.

        Mirrors :meth:`delays` exactly, including the tiny-probe-rate
        treatment of zero-rate connections.  ``xp`` works as in
        :meth:`queue_lengths_batch` (forwarded to it only when it is
        not numpy, protecting overrides without the parameter).
        """
        xp = np if xp is None else xp
        kw = {} if xp is np else {"xp": xp}
        r = xp.asarray(rates, dtype=float)
        if r.ndim != 2:
            raise RateVectorError(
                f"rate batch must be 2-D, got shape {r.shape}")
        _check_mu(mu)
        return self.sojourns_batch(r, self.queue_lengths_batch(r, mu, **kw),
                                   mu, **kw)

    def sojourns_batch(self, rates: np.ndarray, queues: np.ndarray,
                       mu: float, xp=None) -> np.ndarray:
        """Little's-law sojourns ``Q_i / r_i`` of an ``(M, n)`` batch
        whose queue lengths ``queues`` are already known.

        The observe stage evaluates the queue law once per gateway and
        derives both the signals and these sojourns from it.  Zero-rate
        connections get the tiny-probe-rate limit of :meth:`delays`,
        which costs one more queue-law evaluation only when such a
        connection is present.
        """
        xp = np if xp is None else xp
        kw = {} if xp is np else {"xp": xp}
        positive = rates > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = queues / rates
        if not positive.all():
            probe = rates.copy()
            eps = mu * 1e-9
            probe[~positive] = eps
            q_probe = self.queue_lengths_batch(probe, mu, **kw)
            out[~positive] = q_probe[~positive] / eps
        return out

    def __repr__(self):
        return f"{type(self).__name__}()"


def _check_mu(mu: float) -> None:
    if not (math.isfinite(mu) and mu > 0):
        raise RateVectorError(f"service rate must be finite and positive, "
                              f"got {mu!r}")


class PreemptivePriority(ServiceDiscipline):
    """Preemptive-resume priority service with a *fixed* class order.

    Connection ``priority_order[0]`` has the highest priority, and so on.
    With identical exponential service times, classes ``1..k`` jointly
    behave as an M/M/1 at their cumulative load (lower classes are
    invisible to them), so the mean number in system of class ``k`` is
    ``L_k = g(sigma_k) - g(sigma_{k-1})`` with
    ``sigma_k = sum_{j<=k} rho_j``.

    This is both a useful baseline discipline in its own right (it is
    maximally *unfair* to low-priority connections) and the building
    block from which Fair Share is assembled via substreams.
    """

    name = "preemptive-priority"

    def __init__(self, priority_order: Sequence[int]):
        order = list(priority_order)
        if sorted(order) != list(range(len(order))):
            raise RateVectorError(
                f"priority_order must be a permutation of 0..N-1, "
                f"got {priority_order!r}")
        self._order = tuple(order)

    @property
    def priority_order(self):
        return self._order

    def queue_lengths(self, rates, mu):
        r = as_rate_vector(rates, n=len(self._order))
        _check_mu(mu)
        rho = r / mu
        q = np.zeros_like(r)
        sigma_prev = 0.0
        g_prev = 0.0
        for idx in self._order:
            sigma = sigma_prev + rho[idx]
            g_now = g(sigma)
            q[idx] = g_now - g_prev if rho[idx] > 0 else 0.0
            if math.isinf(g_now) and math.isinf(g_prev) and rho[idx] > 0:
                q[idx] = math.inf
            sigma_prev, g_prev = sigma, g_now
        return q
