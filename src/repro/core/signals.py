"""Congestion signalling (paper Section 2.3.1).

Each gateway ``a`` sends every connection ``i`` a real-valued congestion
signal ``b^a_i in [0, 1]`` computed from its local mean queue lengths,
and the source reacts only to its *bottleneck* signal
``b_i = max_a b^a_i`` (bottleneck flow control, after Jaffe).

Two feedback styles:

* **aggregate** — ``b^a_i = B(C^a)`` with ``C^a = sum_k Q^a_k``; every
  connection gets the same signal, independent of who causes the
  congestion (and independent of the service discipline, because the
  total queue is conserved).
* **individual** — ``b^a_i = B(C^a_i)`` with
  ``C^a_i = sum_k min(Q^a_k, Q^a_i)``: the signal never reflects queues
  larger than the connection's own, and for the largest connection it
  coincides with the aggregate measure.

``B`` must be strictly increasing with ``B(0) = 0`` and ``B(inf) = 1``.
Three concrete families are provided; :class:`LinearSaturating`
(``B(C) = C / (C + 1)``) is the paper's running example — at a single
gateway it makes the aggregate signal equal the utilisation ``rho``.
"""

from __future__ import annotations

import abc
import enum
import math
from typing import Dict, Sequence

import numpy as np

from ..backends import compiled
from ..errors import RateVectorError
from .math_utils import as_rate_vector, pick_kernel, row_sums, run_ends
from .service import ServiceDiscipline
from .topology import Network
from .weighted import _check_weights

__all__ = [
    "SignalFunction",
    "LinearSaturating",
    "PowerSaturating",
    "ExponentialSignal",
    "FeedbackStyle",
    "aggregate_congestion",
    "individual_congestion",
    "individual_congestion_batch",
    "weighted_individual_congestion",
    "weighted_individual_congestion_batch",
    "FeedbackScheme",
]


class SignalFunction(abc.ABC):
    """A monotone map ``B`` from congestion measures to signals in [0, 1]."""

    name: str = "abstract"

    @abc.abstractmethod
    def __call__(self, congestion: float) -> float:
        """Signal for a congestion measure ``C >= 0`` (``C = inf`` -> 1)."""

    @abc.abstractmethod
    def congestion_for(self, signal: float) -> float:
        """Inverse map: the congestion ``C`` with ``B(C) = signal``.

        Defined for ``signal in [0, 1)``; ``signal -> 1`` gives ``inf``.
        """

    def apply_batch(self, congestion: np.ndarray,
                    xp=None) -> np.ndarray:
        """Elementwise signals for an array of congestion measures.

        Equals ``B`` applied entry by entry; the base implementation
        loops, and the concrete families override it with vectorised
        arithmetic.  Custom subclasses only need the scalar ``__call__``
        — infinite measures are mapped straight to 1 here (the
        ``B(inf) = 1`` contract), so a subclass whose scalar map divides
        by the measure never sees ``inf`` and cannot leak ``inf - inf``
        NaNs into the overloaded-gateway signals.

        ``xp`` selects the array namespace (numpy when ``None``);
        callers only pass it for non-numpy backends, so subclasses
        that predate the parameter keep working on the default path.
        """
        xp = np if xp is None else xp
        arr = xp.asarray(congestion, dtype=float)
        out = xp.empty(arr.size, dtype=float)
        flat = arr.ravel()
        for k in range(flat.size):
            c = flat[k]
            out[k] = 1.0 if math.isinf(c) else self(c)
        return out.reshape(arr.shape)

    def steady_state_utilisation(self, b_ss: float) -> float:
        """Utilisation ``rho_ss`` a bottleneck settles at under aggregate
        feedback when the TSI target signal is ``b_ss``.

        At the bottleneck the total queue is ``C_ss = B^{-1}(b_ss)`` and,
        by conservation, ``C_ss = g(rho_ss)``, so
        ``rho_ss = C_ss / (1 + C_ss)``.
        """
        c_ss = self.congestion_for(b_ss)
        if math.isinf(c_ss):
            return 1.0
        return c_ss / (1.0 + c_ss)

    def __repr__(self):
        return f"{type(self).__name__}()"


def _check_congestion(congestion: float) -> float:
    value = float(congestion)
    if math.isnan(value) or value < 0:
        raise RateVectorError(
            f"congestion measure must be >= 0, got {congestion!r}")
    return value


def _check_congestion_batch(congestion, xp=np) -> np.ndarray:
    arr = xp.asarray(congestion, dtype=float)
    # One comparison catches both: NaN is not >= 0 either.
    if not (arr >= 0).all():
        raise RateVectorError(
            "congestion measures must be >= 0 (and not NaN)")
    return arr


def _check_signal(signal: float) -> float:
    value = float(signal)
    if not (0.0 <= value <= 1.0):
        raise RateVectorError(f"signal must lie in [0, 1], got {signal!r}")
    return value


class LinearSaturating(SignalFunction):
    """``B(C) = C / (C + 1)`` — the paper's canonical signal function."""

    name = "linear-saturating"

    def __call__(self, congestion):
        c = _check_congestion(congestion)
        if math.isinf(c):
            return 1.0
        return c / (c + 1.0)

    def apply_batch(self, congestion, xp=None):
        xp = np if xp is None else xp
        c = _check_congestion_batch(congestion, xp=xp)
        with np.errstate(invalid="ignore"):
            return xp.where(xp.isinf(c), 1.0, c / (c + 1.0))

    def congestion_for(self, signal):
        b = _check_signal(signal)
        if b >= 1.0:
            return math.inf
        return b / (1.0 - b)


class PowerSaturating(SignalFunction):
    """``B(C) = (C / (C + 1))**p`` for ``p > 0``.

    With ``p = 2`` at a single unit-rate gateway the aggregate signal is
    ``rho**2``, which (with the target rule ``f = eta (beta - b)``)
    reduces the symmetric dynamics to the paper's quadratic map
    ``x <- x + eta N (beta - x**2)`` — the Section 3.3 route to chaos.
    """

    name = "power-saturating"

    def __init__(self, p: float = 2.0):
        if not (math.isfinite(p) and p > 0):
            raise RateVectorError(f"exponent must be positive, got {p!r}")
        self.p = float(p)

    def __call__(self, congestion):
        c = _check_congestion(congestion)
        if math.isinf(c):
            return 1.0
        # np.power, not the builtin ** (libm pow): the two differ in the
        # last ulp for fractional p, and the scalar path must stay
        # bit-identical to apply_batch for the step/step_batch contract.
        return float(np.power(c / (c + 1.0), self.p))

    def apply_batch(self, congestion, xp=None):
        xp = np if xp is None else xp
        c = _check_congestion_batch(congestion, xp=xp)
        with np.errstate(invalid="ignore"):
            return xp.where(xp.isinf(c), 1.0, (c / (c + 1.0)) ** self.p)

    def congestion_for(self, signal):
        b = _check_signal(signal)
        if b >= 1.0:
            return math.inf
        root = b ** (1.0 / self.p)
        return root / (1.0 - root)

    def __repr__(self):
        return f"PowerSaturating(p={self.p})"


class ExponentialSignal(SignalFunction):
    """``B(C) = 1 - exp(-k C)`` for ``k > 0``."""

    name = "exponential"

    def __init__(self, k: float = 1.0):
        if not (math.isfinite(k) and k > 0):
            raise RateVectorError(f"rate constant must be positive, got {k!r}")
        self.k = float(k)

    def __call__(self, congestion):
        c = _check_congestion(congestion)
        if math.isinf(c):
            return 1.0
        # np.exp, not math.exp: keeps the scalar path bit-identical to
        # apply_batch (libm and the numpy ufunc differ in the last ulp).
        return 1.0 - float(np.exp(-self.k * c))

    def apply_batch(self, congestion, xp=None):
        xp = np if xp is None else xp
        c = _check_congestion_batch(congestion, xp=xp)
        return 1.0 - xp.exp(-self.k * c)

    def congestion_for(self, signal):
        b = _check_signal(signal)
        if b >= 1.0:
            return math.inf
        return -math.log(1.0 - b) / self.k

    def __repr__(self):
        return f"ExponentialSignal(k={self.k})"


class FeedbackStyle(enum.Enum):
    """Which congestion measure feeds the signal function."""

    AGGREGATE = "aggregate"
    INDIVIDUAL = "individual"


def aggregate_congestion(queues: Sequence[float]) -> float:
    """``C = sum_k Q_k`` (``inf`` propagates)."""
    return float(np.sum(np.asarray(queues, dtype=float)))


def _individual_sorted(queues: np.ndarray, xp=np) -> np.ndarray:
    """O(n log n) individual congestion for a row batch of queues: the
    numpy sorted pipeline, the C kernel's reference and the path
    without it.

    Sort each row; in sorted order
    ``C_(k) = prefix_k + Q_(k) * (n - 1 - k)`` — every queue at or
    below rank ``k`` contributes itself (prefix sum inclusive of
    ``Q_(k)``), every larger one is capped at ``Q_(k)`` by the MIN.
    Infinite queues (overloaded classes) sort last: a finite ``Q_(k)``
    caps them like any larger queue, while ``Q_(k) = inf`` itself gets
    ``C = inf`` directly (its tail count can be zero, and ``inf * 0``
    is NaN, so the mask is applied explicitly).  A run of tied queues
    takes the measure at its last rank
    (:func:`~repro.core.math_utils.run_ends`), so tied connections get
    one measure.  Scattered back to the caller's order.  Agrees with
    the O(n^2) min-broadcast up to floating-point summation order.
    """
    n = queues.shape[-1]
    order = xp.argsort(queues, axis=-1, kind="stable")
    qs = xp.take_along_axis(queues, order, axis=-1)
    prefix = xp.cumsum(qs, axis=-1)
    counts = (n - 1 - xp.arange(n)).astype(float)
    with np.errstate(invalid="ignore"):
        c_sorted = xp.where(xp.isinf(qs), math.inf, prefix + qs * counts)
    c_sorted = xp.take_along_axis(c_sorted, run_ends(qs, xp), axis=-1)
    out = xp.empty_like(queues)
    xp.put_along_axis(out, order, c_sorted, axis=-1)
    return out


def individual_congestion(queues: Sequence[float]) -> np.ndarray:
    """``C_i = sum_k min(Q_k, Q_i)`` for every connection at a gateway.

    For the smallest queue this is ``N * Q_min``; for the largest it is
    the aggregate measure.  ``inf`` queues participate through the MIN.
    A one-row call of :func:`individual_congestion_batch`, so scalar
    and batch are the same kernel at every gateway size.
    """
    q = np.asarray(queues, dtype=float)
    if q.ndim != 1:
        raise RateVectorError(f"queue vector must be 1-D, got {q.shape}")
    return individual_congestion_batch(q[None, :])[0]


def individual_congestion_batch(queues: np.ndarray,
                                xp=None) -> np.ndarray:
    """Row-wise :func:`individual_congestion` for an ``(M, n)`` batch.

    The O(M n log n) sorted prefix-sum kernel runs in the C tier
    whenever it has built, whatever the active backend; otherwise (no
    compiler, or a non-numpy ``xp``) the numpy sorted pipeline runs
    and gives the same bits.  A NaN or negative queue takes the numpy
    pipeline.  ``xp`` selects the array namespace (numpy when
    ``None``).
    """
    xp = np if xp is None else xp
    q = xp.asarray(queues, dtype=float)
    if q.ndim != 2:
        raise RateVectorError(f"queue batch must be 2-D, got {q.shape}")
    if xp is np:
        out = compiled.ind_congestion_batch(q)
        if out is not None:
            return out
    return _individual_sorted(q, xp=xp)


def weighted_individual_congestion_batch(
        queues: np.ndarray, weights: Sequence[float],
        xp=None) -> np.ndarray:
    """Row-wise :func:`weighted_individual_congestion` for a batch."""
    xp = np if xp is None else xp
    q = xp.asarray(queues, dtype=float)
    phi = xp.asarray(weights, dtype=float)
    if q.ndim != 2 or phi.ndim != 1 or q.shape[1] != phi.shape[0]:
        raise RateVectorError(
            f"queue batch {q.shape} and weights {phi.shape} do not match")
    if xp.any(phi <= 0) or not xp.all(xp.isfinite(phi)):
        raise RateVectorError("weights must be finite and positive")
    scaled_own = (phi[None, None, :] / phi[None, :, None]) * q[:, :, None]
    with np.errstate(invalid="ignore"):
        capped = xp.minimum(q[:, None, :], scaled_own)
    return row_sums(capped, xp=xp)


def weighted_individual_congestion(queues: Sequence[float],
                                   weights: Sequence[float]) -> np.ndarray:
    """``C_i = sum_k min(Q_k, (phi_k / phi_i) Q_i)`` — the weighted
    individual measure.

    Derived from the same two consistency requirements as the paper's
    unweighted measure: (1) for the largest *normalised* queue the
    measure equals the aggregate, and (2) a connection's signal never
    reflects congestion in excess of "everyone at my per-weight level"
    (``C_i = Phi Q_i / phi_i`` for the smallest).  Equal weights reduce
    to :func:`individual_congestion`, and with
    :class:`~repro.core.weighted.WeightedFairShare` gateways the
    Theorem 5 robustness argument carries over to weighted floors.
    """
    q = np.asarray(queues, dtype=float)
    phi = np.asarray(weights, dtype=float)
    if q.ndim != 1 or q.shape != phi.shape:
        raise RateVectorError(
            f"queues {q.shape} and weights {phi.shape} must be matching "
            f"1-D vectors")
    if np.any(phi <= 0) or not np.all(np.isfinite(phi)):
        raise RateVectorError("weights must be finite and positive")
    scaled_own = (phi[None, :] / phi[:, None]) * q[:, None]
    with np.errstate(invalid="ignore"):
        capped = np.minimum(q[None, :], scaled_own)
    # inf * finite ratios stay inf; min handles them.
    return capped.sum(axis=1)


def _column_index(cols: np.ndarray):
    """``cols`` as a ``slice`` when it is one increasing run of
    consecutive columns, otherwise unchanged."""
    if np.all(np.diff(cols) == 1):
        return slice(int(cols[0]), int(cols[-1]) + 1)
    return cols


class FeedbackScheme:
    """The full signalling pipeline of one network configuration.

    Combines a :class:`~repro.core.topology.Network`, a
    :class:`~repro.core.service.ServiceDiscipline`, a
    :class:`SignalFunction`, and a :class:`FeedbackStyle` into the map
    from a sending-rate vector ``r`` to the bottleneck signals ``b_i``.

    ``weights`` (optional, one per connection) switches the individual
    congestion measure to its weighted form — pair it with
    :class:`~repro.core.weighted.WeightedFairShare` gateways.
    """

    def __init__(self, network: Network, discipline: ServiceDiscipline,
                 signal_fn: SignalFunction,
                 style: FeedbackStyle = FeedbackStyle.INDIVIDUAL,
                 weights=None):
        self.network = network
        self.discipline = discipline
        self.signal_fn = signal_fn
        self.style = FeedbackStyle(style)
        self.weights = (None if weights is None else
                        _check_weights(weights, n=network.num_connections))
        # Gather indices for the batch path: per non-empty gateway, the
        # connection columns in Gamma(a) order (views into the network's
        # CSR member arrays, or a slice when they are one contiguous
        # run, so indexing gives a view instead of a copy) and the
        # service rate.  Static because routing is static.
        csr = network.csr
        self._gateways = [
            (_column_index(csr.members(a)), network.mu(gname))
            for a, gname in enumerate(csr.gateway_names)
            if csr.members(a).size]

    # -- per-gateway quantities ---------------------------------------
    def local_queues(self, rates: np.ndarray) -> Dict[str, np.ndarray]:
        """Mean queue vectors ``Q^a`` per gateway (in ``Gamma(a)`` order)."""
        r = as_rate_vector(rates, n=self.network.num_connections)
        out = {}
        for gname in self.network.gateway_names:
            local = self.network.local_rates(gname, r)
            out[gname] = self.discipline.queue_lengths(
                local, self.network.mu(gname))
        return out

    def local_congestion(self, rates: np.ndarray) -> Dict[str, np.ndarray]:
        """Congestion measures ``C^a_i`` per gateway (style-dependent)."""
        out = {}
        for gname, q in self.local_queues(rates).items():
            if self.style is FeedbackStyle.AGGREGATE:
                out[gname] = np.full(q.shape[0], aggregate_congestion(q))
            elif self.weights is not None:
                local = list(self.network.connections_at(gname))
                out[gname] = weighted_individual_congestion(
                    q, self.weights[local])
            else:
                out[gname] = individual_congestion(q)
        return out

    def local_signals(self, rates: np.ndarray) -> Dict[str, np.ndarray]:
        """Signals ``b^a_i`` per gateway (in ``Gamma(a)`` order).

        Overloaded gateways have infinite congestion measures; those map
        to 1 here (``B(inf) = 1``) before the signal function sees them,
        matching :meth:`SignalFunction.apply_batch`.
        """
        out = {}
        for gname, c in self.local_congestion(rates).items():
            out[gname] = np.array(
                [1.0 if math.isinf(ci) else self.signal_fn(ci)
                 for ci in c], dtype=float)
        return out

    # -- per-connection quantities ------------------------------------
    def signals(self, rates: np.ndarray,
                method: str = "auto") -> np.ndarray:
        """Bottleneck signals ``b_i = max_{a in gamma(i)} b^a_i``.

        ``method``: ``"dense"`` walks each connection's route through
        the per-gateway signal vectors (the reference path, now
        CSR-addressed so it never rescans ``Gamma(a)``); ``"sparse"``
        runs the vector as a one-row batch through
        :meth:`signals_batch` — same gather/scatter kernels the
        ensemble engine uses; ``"auto"`` (default) switches to sparse
        at ``N >= SPARSE_MIN_N``.
        """
        r = as_rate_vector(rates, n=self.network.num_connections)
        if pick_kernel(method, r.shape[0]) == "sparse":
            return self.signals_batch(r[None, :])[0]
        local = self.local_signals(r)
        csr = self.network.csr
        b = np.zeros(self.network.num_connections, dtype=float)
        for i in range(b.shape[0]):
            best = 0.0
            for a, pos in zip(csr.route(i), csr.positions(i)):
                best = max(best, float(local[csr.gateway_names[a]][pos]))
            b[i] = best
        return b

    def signals_batch(self, rates: np.ndarray, xp=None) -> np.ndarray:
        """Bottleneck signals for an ``(M, N)`` batch of rate vectors.

        Row ``m`` of the result equals ``signals(rates[m])`` up to
        summation order; every stage — queue laws, congestion measures,
        signal function, the MAX over gateways — is evaluated once per
        gateway for the whole batch instead of once per ensemble member.

        ``xp`` selects the array namespace (numpy when ``None``).  The
        namespace is only forwarded to the discipline and signal
        function when it is not numpy, so custom subclasses written
        before the parameter existed keep working on the default
        backend.
        """
        return self._observe(rates, xp, with_delays=False)[0]

    def observe_batch(self, rates: np.ndarray, xp=None) -> tuple:
        """The observe stage of one step: ``(b, d)`` for an ``(M, N)``
        batch.

        ``b`` is :meth:`signals_batch` and ``d`` the round-trip delays
        ``L_i + sum_a Q^a_i / r_i`` of
        :func:`~repro.core.delays.round_trip_delays_batch`, both bit for
        bit; each gateway's queue law is evaluated once and feeds both
        (the paper's single steady-state queue vector ``Q^a(r)``).
        ``rates`` is taken as already validated (finite, nonnegative);
        only its shape is checked.  ``xp`` works as in
        :meth:`signals_batch`.
        """
        return self._observe(rates, xp, with_delays=True)

    def _observe(self, rates, xp, with_delays: bool) -> tuple:
        """One pass over the non-empty gateways: queue law, congestion
        measure, signal, MAX scatter into ``b`` and, ``with_delays``,
        Little's-law sojourns added onto the path latencies in ``d``."""
        xp = np if xp is None else xp
        kw = {} if xp is np else {"xp": xp}
        r = xp.asarray(rates, dtype=float)
        if r.ndim != 2 or r.shape[1] != self.network.num_connections:
            raise RateVectorError(
                f"need an (M, {self.network.num_connections}) rate "
                f"batch, got shape {r.shape}")
        b = xp.zeros_like(r)
        d = None
        if with_delays:
            d = xp.empty_like(r)
            d[:] = self.network.csr.path_latency
        for cols, mu in self._gateways:
            local = r[:, cols]
            q = self.discipline.queue_lengths_batch(local, mu, **kw)
            if self.style is FeedbackStyle.AGGREGATE:
                # One measure per row, shared by every connection: the
                # MAX below broadcasts its signal across the columns.
                c = row_sums(q, xp=xp)[:, None]
            elif self.weights is not None:
                c = weighted_individual_congestion_batch(
                    q, self.weights[cols], xp=xp)
            else:
                c = individual_congestion_batch(q, xp=xp)
            b[:, cols] = xp.maximum(b[:, cols],
                                    self.signal_fn.apply_batch(c, **kw))
            if d is not None:
                d[:, cols] += self.discipline.sojourns_batch(local, q, mu,
                                                             **kw)
        return b, d

    def bottlenecks(self, rates: np.ndarray,
                    tol: float = 1e-12) -> Dict[int, tuple]:
        """Gateways achieving each connection's maximal signal.

        A gateway with ``b^a_i = 0`` is never a bottleneck (paper: any
        gateway with nonzero signal attaining the MAX is one).
        """
        local = self.local_signals(rates)
        net = self.network
        csr = net.csr
        result = {}
        for i in range(net.num_connections):
            values = []
            for a, pos in zip(csr.route(i), csr.positions(i)):
                gname = csr.gateway_names[a]
                values.append((gname, float(local[gname][pos])))
            peak = max(v for _, v in values)
            if peak <= 0.0:
                result[i] = ()
            else:
                result[i] = tuple(gname for gname, v in values
                                  if v >= peak - tol)
        return result
