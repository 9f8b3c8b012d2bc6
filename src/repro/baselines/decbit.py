"""The DECbit window algorithm as a baseline (paper Section 4).

The original DECbit scheme [Jai88, Ram88, Chi89] is a *window*
algorithm: each round trip, a source increases its window by one packet
if fewer than half of the returning congestion bits were set, and
multiplies it by a decrease factor (0.875) otherwise; the gateway sets
the bit when its average queue is at least one packet.

We model it on the analytic substrate: rates are windows divided by
round-trip delays, ``r_i = w_i / d_i(r)``, queue averages come from the
FIFO law, and the bit is the thresholded aggregate queue.  The paper's
point, reproduced by the F11 experiment: the ``1/d`` factor makes the
allocation latency-sensitive (long-latency connections lose), and the
scheme is not TSI — scaling every ``mu`` does not scale the sawtooth's
operating point linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.fifo import Fifo
from ..core.math_utils import as_rate_vector
from ..core.service import ServiceDiscipline
from ..core.topology import Network
from ..errors import RateVectorError

__all__ = ["DecbitWindowResult", "run_decbit_windows"]


@dataclass
class DecbitWindowResult:
    """Window/rate trajectories of a synchronous DECbit run."""

    windows: np.ndarray          #: (steps + 1, N)
    rates: np.ndarray            #: (steps + 1, N)
    bits: np.ndarray             #: (steps, N) congestion bit per source

    def mean_rates(self, tail: int) -> np.ndarray:
        """Average rates over the last ``tail`` steps (the sawtooth mean)."""
        if tail < 1:
            raise RateVectorError(f"tail must be >= 1, got {tail!r}")
        return self.rates[-tail:].mean(axis=0)


def run_decbit_windows(network: Network,
                       initial_windows: Sequence[float],
                       steps: int = 400,
                       queue_threshold: float = 1.0,
                       decrease: float = 0.875,
                       increase: float = 1.0,
                       discipline: ServiceDiscipline = None,
                       min_window: float = 0.1) -> DecbitWindowResult:
    """Synchronous DECbit window dynamics on the analytic model.

    Each step: rates are ``w_i / d_i`` at the previous rates' delays;
    the congestion bit of source ``i`` is set when the aggregate queue
    at any gateway on its path reaches ``queue_threshold``; windows then
    move by ``+increase`` or ``* decrease``.

    Each gateway's queue law is evaluated once per step, at the step's
    rates: its total gives the step's congestion bits, and its
    Little's-law sojourns ``Q_i / r_i`` plus the path latencies give
    the next step's round-trip delays, as
    :func:`~repro.core.delays.round_trip_delays` adds them.
    """
    if discipline is None:
        discipline = Fifo()
    w = as_rate_vector(initial_windows, n=network.num_connections)
    if np.any(w <= 0):
        raise RateVectorError("initial windows must be positive")
    if not (math.isfinite(queue_threshold) and queue_threshold >= 0):
        raise RateVectorError(f"queue_threshold must be finite and "
                              f"nonnegative, got {queue_threshold!r}")
    if not 0.0 < decrease < 1.0:
        raise RateVectorError(
            f"decrease must lie in (0, 1), got {decrease!r}")
    if not (math.isfinite(increase) and increase > 0):
        raise RateVectorError(
            f"increase must be finite and positive, got {increase!r}")
    if not (math.isfinite(min_window) and min_window > 0):
        raise RateVectorError(
            f"min_window must be finite and positive, got {min_window!r}")
    n = network.num_connections
    csr = network.csr
    gateways = [(csr.members(a), network.mu(gname))
                for a, gname in enumerate(csr.gateway_names)
                if csr.members(a).size]

    def queue_laws(rates):
        """Each gateway's local rates (a one-row batch) and queues."""
        laws = []
        for cols, mu in gateways:
            local = rates[None, cols]
            laws.append((local, discipline.queue_lengths_batch(local, mu)))
        return laws

    # Bootstrap delays from the empty network (latency + 1/mu).
    rates = np.array([
        min(network.mu(g) for g in network.gamma(i)) * 0.01
        for i in range(n)])
    windows_hist = [w]
    rates_hist = [rates]
    bits_hist = []
    laws = queue_laws(rates)
    for _ in range(steps):
        d = csr.path_latency.copy()
        for (cols, mu), (local, queues) in zip(gateways, laws):
            d[cols] += discipline.sojourns_batch(local, queues, mu)[0]
        finite = np.isfinite(d)
        if not finite.all():
            d = np.where(finite, d, np.max(d[finite]) if finite.any()
                         else 1.0)
        d = np.maximum(d, 1e-9)
        rates = w / d
        # Keep the substrate in its stable regime: cap utilisation just
        # below 1 so the FIFO law stays finite (a real gateway would be
        # dropping packets here, which the window model cannot see).
        for cols, mu in gateways:
            load = float(rates[cols].sum())
            cap = 0.98 * mu
            if load > cap:
                rates[cols] *= cap / load
        laws = queue_laws(rates)
        bits = np.zeros(n)
        for (cols, _), (_, queues) in zip(gateways, laws):
            if float(queues[0].sum()) >= queue_threshold:
                bits[cols] = 1.0
        w = np.where(bits > 0.5, np.maximum(w * decrease, min_window),
                     w + increase)
        windows_hist.append(w)
        rates_hist.append(rates)
        bits_hist.append(bits)
    return DecbitWindowResult(
        windows=np.asarray(windows_hist),
        rates=np.asarray(rates_hist),
        bits=np.asarray(bits_hist),
    )
