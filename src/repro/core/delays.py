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
from .math_utils import as_rate_vector, pick_kernel
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
                      rates: np.ndarray,
                      method: str = "auto") -> np.ndarray:
    """``d_i = L_i + sum over the path of the gateway sojourn times``.

    Entries are ``inf`` where any gateway on the path is overloaded for
    that connection.

    ``method``: ``"dense"`` walks each connection's route through the
    per-gateway sojourn vectors (the reference path, CSR-addressed so
    it never rescans ``Gamma(a)``); ``"sparse"`` runs the vector as a
    one-row batch through :func:`round_trip_delays_batch`; ``"auto"``
    (default) switches to sparse at ``N >= SPARSE_MIN_N``.
    """
    r = as_rate_vector(rates, n=network.num_connections)
    if pick_kernel(method, r.shape[0]) == "sparse":
        return round_trip_delays_batch(network, discipline, r[None, :])[0]
    sojourns = per_gateway_delays(network, discipline, r)
    csr = network.csr
    d = np.zeros(network.num_connections, dtype=float)
    for i in range(network.num_connections):
        total = network.path_latency(i)
        for a, pos in zip(csr.route(i), csr.positions(i)):
            total += float(sojourns[csr.gateway_names[a]][pos])
        d[i] = total
    return d


def round_trip_delays_batch(network: Network,
                            discipline: ServiceDiscipline,
                            rates: np.ndarray,
                            xp=None) -> np.ndarray:
    """Batched :func:`round_trip_delays`: row ``m`` of the ``(M, N)``
    result equals ``round_trip_delays(network, discipline, rates[m])``.

    Gateway sojourns are computed once per gateway for the whole batch
    and scattered back onto connection columns through the network's
    CSR member arrays.

    ``xp`` selects the array namespace (numpy when ``None``); it is
    forwarded to the discipline only when it is not numpy, so custom
    disciplines without the parameter keep working on the default
    backend.
    """
    xp = np if xp is None else xp
    kw = {} if xp is np else {"xp": xp}
    r = xp.asarray(rates, dtype=float)
    n = network.num_connections
    if r.ndim != 2 or r.shape[1] != n:
        raise RateVectorError(
            f"need an (M, {n}) rate batch, got shape {r.shape}")
    csr = network.csr
    d = xp.empty_like(r)
    d[:] = csr.path_latency
    for a, gname in enumerate(csr.gateway_names):
        cols = csr.members(a)
        if cols.size == 0:
            continue
        sojourn = discipline.delays_batch(r[:, cols], network.mu(gname),
                                          **kw)
        d[:, cols] += sojourn
    return d
