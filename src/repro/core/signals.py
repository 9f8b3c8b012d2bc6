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

from ..backends import _cext, compiled
from ..errors import RateVectorError
from .fairshare import FairShare
from .fifo import Fifo
from .math_utils import as_rate_vector, row_sums, run_ends
from .service import ServiceDiscipline, _check_mu
from .topology import Network
from .weighted import WeightedFairShare, _check_weights

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

    def apply_batch(self, congestion: np.ndarray) -> np.ndarray:
        """Elementwise signals for an array of congestion measures.

        Equals ``B`` applied entry by entry; the base implementation
        loops, and :class:`LinearSaturating` overrides it with
        vectorised arithmetic (IEEE division rounds the same in numpy
        and in Python).  The power and exponential families keep this
        loop: their scalar maps call libm, whose bits numpy's SIMD
        ``power`` and ``exp`` do not reproduce.  Custom subclasses only
        need the scalar ``__call__`` — infinite measures are mapped
        straight to 1 here (the ``B(inf) = 1`` contract), so a subclass
        whose scalar map divides by the measure never sees ``inf`` and
        cannot leak ``inf - inf`` NaNs into the overloaded-gateway
        signals.
        """
        arr = np.asarray(congestion, dtype=float)
        out = np.empty(arr.size, dtype=float)
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


def _check_congestion_batch(congestion) -> np.ndarray:
    arr = np.asarray(congestion, dtype=float)
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

    def apply_batch(self, congestion):
        c = _check_congestion_batch(congestion)
        saturated = np.isinf(c)
        if not saturated.any():  # no inf / inf to silence or replace
            return c / (c + 1.0)
        with np.errstate(invalid="ignore"):
            return np.where(saturated, 1.0, c / (c + 1.0))

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
        # libm's pow, the one definition: the batch path loops over
        # this call and the C observe kernel calls the same pow.
        return math.pow(c / (c + 1.0), self.p)

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
        # libm's exp, the one definition (see PowerSaturating).
        return 1.0 - math.exp(-self.k * c)

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
    """``C = sum_k Q_k`` (``inf`` propagates), summed as the observe
    stage sums one row: a strict left fold
    (:func:`~repro.core.math_utils.row_sums`)."""
    return float(row_sums(np.asarray(queues, dtype=float).reshape(1, -1))[0])


def _individual_sorted(queues: np.ndarray) -> np.ndarray:
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
    order = np.argsort(queues, axis=-1, kind="stable")
    qs = np.take_along_axis(queues, order, axis=-1)
    prefix = np.cumsum(qs, axis=-1)
    counts = (n - 1 - np.arange(n)).astype(float)
    with np.errstate(invalid="ignore"):
        c_sorted = np.where(np.isinf(qs), math.inf, prefix + qs * counts)
    c_sorted = np.take_along_axis(c_sorted, run_ends(qs), axis=-1)
    out = np.empty_like(queues)
    np.put_along_axis(out, order, c_sorted, axis=-1)
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


def individual_congestion_batch(queues: np.ndarray) -> np.ndarray:
    """Row-wise :func:`individual_congestion` for an ``(M, n)`` batch.

    The O(M n log n) sorted prefix-sum kernel runs in the C tier
    whenever it has built; otherwise (no compiler) the numpy sorted
    pipeline runs and gives the same bits.  A NaN or negative queue
    takes the numpy pipeline.
    """
    q = np.asarray(queues, dtype=float)
    if q.ndim != 2:
        raise RateVectorError(f"queue batch must be 2-D, got {q.shape}")
    out = compiled.ind_congestion_batch(q)
    if out is not None:
        return out
    return _individual_sorted(q)


def weighted_individual_congestion_batch(
        queues: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Row-wise :func:`weighted_individual_congestion` for a batch."""
    q = np.asarray(queues, dtype=float)
    phi = np.asarray(weights, dtype=float)
    if q.ndim != 2 or phi.ndim != 1 or q.shape[1] != phi.shape[0]:
        raise RateVectorError(
            f"queue batch {q.shape} and weights {phi.shape} do not match")
    if np.any(phi <= 0) or not np.all(np.isfinite(phi)):
        raise RateVectorError("weights must be finite and positive")
    scaled_own = (phi[None, None, :] / phi[None, :, None]) * q[:, :, None]
    # inf * finite ratios stay inf; min handles them.
    with np.errstate(invalid="ignore"):
        capped = np.minimum(q[:, None, :], scaled_own)
    return row_sums(capped)


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
    A one-row call of :func:`weighted_individual_congestion_batch`.
    """
    q = np.asarray(queues, dtype=float)
    phi = np.asarray(weights, dtype=float)
    if q.ndim != 1 or q.shape != phi.shape:
        raise RateVectorError(
            f"queues {q.shape} and weights {phi.shape} must be matching "
            f"1-D vectors")
    return weighted_individual_congestion_batch(q[None, :], phi)[0]


def _column_index(cols: np.ndarray):
    """``cols`` as a ``slice`` when it is one increasing run of
    consecutive columns, otherwise unchanged."""
    if np.all(np.diff(cols) == 1):
        return slice(int(cols[0]), int(cols[-1]) + 1)
    return cols


#: The signal functions the C observe kernel evaluates: exact type ->
#: its ``SIGNAL_*`` code and the attribute holding its parameter (None
#: for none).  The kernel calls libm's ``pow`` and ``exp`` as the
#: scalar ``__call__`` does, so both tiers give the same bits; a
#: subclass keeps its overrides and the numpy loop.
_KERNEL_SIGNALS = {
    LinearSaturating: (_cext.SIGNAL_LINEAR, None),
    PowerSaturating: (_cext.SIGNAL_POWER, "p"),
    ExponentialSignal: (_cext.SIGNAL_EXPONENTIAL, "k"),
}


class _ObservePlan:
    """The arguments of the C observe kernel for one scheme of ``n``
    connections: the gateway CSR, the service rates, the law and
    measure codes with their weights, and the path latencies, each
    array's pointer taken once, and the signal function.  The plan
    keeps the arrays alive, and pickles as the arrays, so a copy in
    another process takes its own pointers."""

    def __init__(self, network: Network, law: int, law_weights,
                 measure: int, weights, mu, signal_fn: SignalFunction):
        csr = network.csr
        arrays = [
            None if a is None else np.ascontiguousarray(a, dtype=dtype)
            for a, dtype in ((csr.gw_ptr, np.int64),
                             (csr.gw_members, np.int64), (mu, float),
                             (law_weights, float), (weights, float),
                             (csr.path_latency, float))]
        self.__setstate__((network.num_connections,
                           len(csr.gateway_names), law, measure, arrays,
                           signal_fn))

    def __getstate__(self):
        return self._state

    def __setstate__(self, state):
        self._state = state
        self.n, n_gw, law, measure, arrays, self.signal_fn = state
        gw_ptr, members, mu, law_weights, weights, latency = [
            compiled._addr(a) for a in arrays]
        signal, self._attr = _KERNEL_SIGNALS[type(self.signal_fn)]
        self._args = (n_gw, gw_ptr, members, mu, law, law_weights,
                      measure, weights, signal, 0.0)
        self.latency = latency

    @property
    def args(self) -> tuple:
        """The kernel's plan arguments: the static ones, then the
        signal's code and parameter, read here at every access because
        signal functions are mutable (0.0 for the linear signal, which
        has none)."""
        if self._attr is None:
            return self._args
        return (*self._args[:-1],
                float(getattr(self.signal_fn, self._attr)))


def _observe_plan(network: Network, discipline: ServiceDiscipline,
                  signal_fn: SignalFunction, style: FeedbackStyle,
                  weights) -> _ObservePlan | None:
    """The C observe kernel's plan for a scheme, or None when the
    kernel does not serve it.

    It serves the FIFO, Fair Share and weighted Fair Share laws under
    the three shipped signal functions (:data:`_KERNEL_SIGNALS`), with
    valid service rates.  The checks are on exact types, so a subclass
    keeps its overrides.  libm defines the non-linear signals in both
    tiers: the kernel calls ``pow`` and ``exp`` as the scalar
    ``__call__`` does through :mod:`math`, and the numpy loop's
    ``apply_batch`` loops over that call.
    """
    if type(signal_fn) not in _KERNEL_SIGNALS:
        return None
    law_weights = None
    if type(discipline) is Fifo:
        law = _cext.LAW_FIFO
    elif type(discipline) is FairShare:
        law = _cext.LAW_FAIR_SHARE
    elif type(discipline) is WeightedFairShare:
        law, law_weights = _cext.LAW_FAIR_SHARE, discipline.weights
    else:
        return None
    mu = [network.mu(gname) for gname in network.csr.gateway_names]
    try:
        for value in mu:
            _check_mu(value)
    except RateVectorError:
        return None
    if style is FeedbackStyle.AGGREGATE:
        measure, weights = _cext.MEASURE_AGGREGATE, None
    elif weights is not None:
        measure = _cext.MEASURE_WEIGHTED
    else:
        measure = _cext.MEASURE_INDIVIDUAL
    return _ObservePlan(network, law, law_weights, measure, weights, mu,
                        signal_fn)


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
        csr = network.csr
        if isinstance(discipline, WeightedFairShare):
            # Its weights are indexed by local position at a gateway.
            k = len(discipline.weights)
            for a, gname in enumerate(csr.gateway_names):
                carried = csr.members(a).size
                if carried and carried != k:
                    raise RateVectorError(
                        f"gateway {gname!r} carries {carried} "
                        f"connections but the weighted Fair Share "
                        f"discipline has {k} weights")
        # Gather indices for the batch path: per non-empty gateway, the
        # connection columns in Gamma(a) order (views into the network's
        # CSR member arrays, or a slice when they are one contiguous
        # run, so indexing gives a view instead of a copy) and the
        # service rate.  Static because routing is static.
        self._gateways = [
            (_column_index(csr.members(a)), network.mu(gname))
            for a, gname in enumerate(csr.gateway_names)
            if csr.members(a).size]
        self._plan = _observe_plan(network, discipline, signal_fn,
                                   self.style, self.weights)

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
    def signals(self, rates: np.ndarray) -> np.ndarray:
        """Bottleneck signals ``b_i = max_{a in gamma(i)} b^a_i``: a
        one-row call of :meth:`signals_batch`."""
        r = as_rate_vector(rates, n=self.network.num_connections)
        return self.signals_batch(r[None, :])[0]

    def signals_batch(self, rates: np.ndarray) -> np.ndarray:
        """Bottleneck signals for an ``(M, N)`` batch of rate vectors.

        Row ``m`` of the result equals ``signals(rates[m])``; every
        stage — queue laws, congestion measures, signal function, the
        MAX over gateways — is evaluated once per gateway for the whole
        batch instead of once per ensemble member.
        """
        return self._observe(rates, with_delays=False)[0]

    def observe_batch(self, rates: np.ndarray) -> tuple:
        """The observe stage of one step: ``(b, d)`` for an ``(M, N)``
        batch.

        ``b`` is :meth:`signals_batch` and ``d`` the round-trip delays
        ``L_i + sum_a Q^a_i / r_i`` of
        :func:`~repro.core.delays.round_trip_delays_batch`, both bit for
        bit; each gateway's queue law is evaluated once and feeds both
        (the paper's single steady-state queue vector ``Q^a(r)``).
        ``rates`` is taken as already validated (finite, nonnegative);
        only its shape is checked.
        """
        return self._observe(rates, with_delays=True)

    def _observe(self, rates, with_delays: bool) -> tuple:
        """One pass over the non-empty gateways: queue law, congestion
        measure, signal, MAX scatter into ``b`` and, ``with_delays``,
        Little's-law sojourns added onto the path latencies in ``d``.

        The pass is one C call (:func:`repro.backends.compiled.
        observe_batch`) whenever the C tier has built and the scheme is
        one the kernel serves (see :func:`_observe_plan`); it gives the
        numpy loop's bits.  Otherwise, and on input outside the
        kernel's domain, the numpy loop below runs."""
        r = np.asarray(rates, dtype=float)
        if r.ndim != 2 or r.shape[1] != self.network.num_connections:
            raise RateVectorError(
                f"need an (M, {self.network.num_connections}) rate "
                f"batch, got shape {r.shape}")
        if self._plan is not None:
            out = compiled.observe_batch(r, self._plan, with_delays)
            if out is not None:
                return out
        b = np.zeros_like(r)
        d = None
        if with_delays:
            d = np.empty_like(r)
            d[:] = self.network.csr.path_latency
        for cols, mu in self._gateways:
            local = r[:, cols]
            q = self.discipline.queue_lengths_batch(local, mu)
            if self.style is FeedbackStyle.AGGREGATE:
                # One measure per row, shared by every connection: the
                # MAX below broadcasts its signal across the columns.
                c = row_sums(q)[:, None]
            elif self.weights is not None:
                c = weighted_individual_congestion_batch(
                    q, self.weights[cols])
            else:
                c = individual_congestion_batch(q)
            b[:, cols] = np.maximum(b[:, cols],
                                    self.signal_fn.apply_batch(c))
            if d is not None:
                d[:, cols] += self.discipline.sojourns_batch(local, q, mu)
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
