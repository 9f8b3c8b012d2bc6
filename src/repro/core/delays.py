"""Round-trip delay model (paper Sections 2.3.2 and 3.1).

A source's only timing observable is the average round-trip delay of its
packets,

    ``d_i = L_i + sum_{a in gamma(i)} Q^a_i(r) / r_i``,

the sum of the path's line latencies ``L_i`` and, by Little's law, the
per-packet sojourn ``Q^a_i / r_i`` at each gateway.  For a single
connection at one gateway this reduces to the familiar
``d = l + 1 / (mu - r)`` used in the proof of Theorem 1.
"""

from __future__ import annotations

import numpy as np

from ..errors import RateVectorError
from .math_utils import as_rate_vector
from .service import ServiceDiscipline
from .topology import Network

__all__ = ["round_trip_delays", "round_trip_delays_batch",
           "per_gateway_delays"]


def per_gateway_delays(network: Network, discipline: ServiceDiscipline,
                       rates: np.ndarray) -> dict:
    """Mean sojourn time of each connection at each gateway it crosses.

    Returns a mapping ``gateway name -> array`` in ``Gamma(a)`` order.
    """
    r = as_rate_vector(rates, n=network.num_connections)
    out = {}
    for gname in network.gateway_names:
        local = network.local_rates(gname, r)
        out[gname] = discipline.delays(local, network.mu(gname))
    return out


def round_trip_delays(network: Network, discipline: ServiceDiscipline,
                      rates: np.ndarray) -> np.ndarray:
    """``d_i = L_i + sum over the path of the gateway sojourn times``.

    Entries are ``inf`` where any gateway on the path is overloaded for
    that connection.  A one-row call of :func:`round_trip_delays_batch`,
    so a connection's sojourns are added in gateway order.
    """
    r = as_rate_vector(rates, n=network.num_connections)
    return round_trip_delays_batch(network, discipline, r[None, :])[0]


def round_trip_delays_batch(network: Network,
                            discipline: ServiceDiscipline,
                            rates: np.ndarray) -> np.ndarray:
    """Batched :func:`round_trip_delays`: row ``m`` of the ``(M, N)``
    result equals ``round_trip_delays(network, discipline, rates[m])``.

    Gateway sojourns are computed once per gateway for the whole batch
    and scattered back onto connection columns through the network's
    CSR member arrays.
    """
    r = np.asarray(rates, dtype=float)
    n = network.num_connections
    if r.ndim != 2 or r.shape[1] != n:
        raise RateVectorError(
            f"need an (M, {n}) rate batch, got shape {r.shape}")
    csr = network.csr
    d = np.empty_like(r)
    d[:] = csr.path_latency
    for a, gname in enumerate(csr.gateway_names):
        cols = csr.members(a)
        if cols.size == 0:
            continue
        sojourn = discipline.delays_batch(r[:, cols], network.mu(gname))
        d[:, cols] += sojourn
    return d
