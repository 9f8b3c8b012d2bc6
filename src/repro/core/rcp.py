"""Router-side RCP: explicit per-gateway advertised-rate control.

The Rate Control Protocol (Dukkipati–McKeown; global stability analysed
by Voice, Abuthahir and Raina, arXiv:1810.01411) moves the control law
out of the sources entirely.  Every gateway ``a`` maintains a single
advertised rate ``R^a`` and updates it once per control interval from
two locally observable quantities — spare capacity and backlog::

    R^a <- R^a * (1 + alpha * (1 - x^a) - beta * q^a)

where ``x^a = y^a / mu^a`` is the utilisation (``y^a`` the gateway's
arrival rate) and ``q^a`` the aggregate queue length.  Sources do not
run an adjustment rule at all (:class:`~repro.core.ratecontrol
.RcpSourceRule` is the identity); each simply adopts the smallest
advertised rate along its path::

    r_i = min_{a in gamma(i)} R^a

Both gains are dimensionless here (the queue term is the *queue
length*, not a drain-time), which makes the controller time-scale
invariant in utilisation terms: scaling every ``mu`` leaves ``x*`` and
the stability factor unchanged, Theorem 1's TSI property transplanted
to a router-based scheme.

Under the paper's steady-state queue model every work-conserving
discipline carries the same aggregate queue ``q = x / (1 - x)`` (the
total-queue conservation law in :mod:`repro.core.service`), so the
update needs no per-discipline plumbing.

**Fixed point.**  At a bottlenecked gateway the utilisation settles at
the unique root ``x*`` in (0, 1] of::

    alpha * (1 - x)**2 = beta * x

(``x* = 1`` when ``beta = 0``: no queue penalty, full utilisation).
The equilibrium rates are then exactly the max-min fair allocation of
the *effective* capacities ``C^a = x* mu^a``
(:func:`repro.core.fairness.max_min_allocation`): every source
bottlenecked at ``a`` receives the common advertised ``R^a``.

**Stability.**  Linearising the one-gateway map ``x -> x (1 +
alpha (1 - x) - beta x/(1 - x))`` at ``x*`` gives multiplier ``1 - s``
with stability factor::

    s = x* * (alpha + beta / (1 - x*)**2)  =  alpha * (1 + x*)   [beta > 0]
    s = alpha                                                    [beta = 0]

(the second form follows from the fixed-point identity).  The discrete
analogue of the Voice et al. global-stability condition is ``s < 2``:
for ``beta = 0`` the map is conjugate to the logistic map ``z' = (1 +
alpha) z (1 - z)`` via ``z = alpha x / (1 + alpha)``, globally stable
on (0, 1) exactly for ``alpha <= 2`` and period-doubling beyond — the
regime the ``rcp-stability`` fuzz oracle checks from both sides.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np
from scipy import optimize

from ..backends import compiled
from ..errors import RateVectorError
from .fairness import max_min_allocation
from .ratecontrol import RcpSourceRule
from .topology import Network

__all__ = ["RcpController", "RcpBank"]

#: Per-step clamp on the multiplicative update factor.  RCP
#: implementations bound the per-interval rate change so a transient
#: (empty network, sudden burst) cannot fling ``R`` to absurd values;
#: [0.5, 2.0] is the customary halve/double envelope.
FACTOR_MIN = 0.5
FACTOR_MAX = 2.0

#: Advertised rates are floored at this fraction of the gateway's
#: capacity so ``R = 0`` is never absorbing, and capped at the capacity
#: itself (a gateway never advertises more than it can serve).
R_MIN_FRACTION = 1e-6


class RcpController:
    """RCP gain configuration + analytic predictions.

    Pure configuration — bind it to a concrete topology with
    :meth:`bind` to get an :class:`RcpBank` holding per-gateway state.

    Args:
        alpha: spare-capacity gain (dimensionless, positive).
        beta: queue-drain gain (dimensionless, nonnegative; ``0``
            disables the queue term and drives utilisation to 1).
        fill: initial advertised rates are ``fill * mu^a / N^a`` — the
            fraction of each gateway's even split handed out at start.
    """

    def __init__(self, alpha: float = 0.5, beta: float = 0.05,
                 fill: float = 0.5):
        a = float(alpha)
        if not (math.isfinite(a) and a > 0):
            raise RateVectorError(
                f"RCP gain alpha must be finite and positive, got {alpha!r}")
        b = float(beta)
        if not (math.isfinite(b) and b >= 0):
            raise RateVectorError(
                f"RCP gain beta must be finite and nonnegative, "
                f"got {beta!r}")
        f = float(fill)
        if not (0.0 < f <= 1.0):
            raise RateVectorError(
                f"RCP fill must lie in (0, 1], got {fill!r}")
        self.alpha = a
        self.beta = b
        self.fill = f

    # ------------------------------------------------------------------
    # analytics
    # ------------------------------------------------------------------
    def fixed_point_utilisation(self) -> float:
        """The root ``x*`` of ``alpha (1-x)^2 = beta x`` on (0, 1]."""
        if self.beta == 0.0:
            return 1.0
        a, b = self.alpha, self.beta

        def g(x):
            return a * (1.0 - x) ** 2 - b * x

        # g(0) = alpha > 0, g(1) = -beta < 0 and g is strictly
        # decreasing, so the root is unique.
        return float(optimize.brentq(g, 0.0, 1.0, xtol=1e-14))

    def stability_factor(self) -> float:
        """``s`` with linearised multiplier ``1 - s``; stable iff s < 2."""
        if self.beta == 0.0:
            return self.alpha
        return self.alpha * (1.0 + self.fixed_point_utilisation())

    def bind(self, network: Network) -> "RcpBank":
        """Attach per-gateway state arrays for ``network``."""
        return RcpBank(network, self)

    def __repr__(self):
        return (f"RcpController(alpha={self.alpha}, beta={self.beta}, "
                f"fill={self.fill})")

    def __eq__(self, other):
        return (isinstance(other, RcpController)
                and (self.alpha, self.beta, self.fill)
                == (other.alpha, other.beta, other.fill))

    def __hash__(self):
        return hash((self.alpha, self.beta, self.fill))


class RcpBank:
    """Per-gateway RCP state bound to one topology.

    The state is the vector of advertised rates ``R``, shape ``(G,)``
    scalar / ``(M, G)`` batched, in :attr:`TopologyCSR.gateway_names`
    order.  :meth:`update` and :meth:`advertised` are one-row calls of
    :meth:`update_batch` and :meth:`advertised_batch`, so a batched row
    is bit-for-bit the scalar trajectory — the same contract the rule
    engine's ``step``/``step_batch`` pair keeps.  Every method checks
    the state it is given and raises
    :class:`~repro.errors.RateVectorError` naming the shape it needs.
    The ensemble kernel runs a transcription of :meth:`update_batch`
    and :meth:`advertised_batch` for ``run`` and ``run_ensemble`` (see
    :func:`_loop_control`); these methods are its fallback and its
    reference.
    """

    def __init__(self, network: Network, controller: RcpController):
        self.network = network
        self.controller = controller
        csr = network.csr
        self._mu = np.asarray(csr.mu, dtype=float)
        self._members = [np.asarray(csr.members(a), dtype=np.intp)
                         for a in range(len(csr.gateway_names))]
        self._counts = np.array(
            [max(1, m.size) for m in self._members], dtype=float)
        self._routes = [np.asarray(csr.route(i), dtype=np.intp)
                        for i in range(network.num_connections)]
        self._floor = R_MIN_FRACTION * self._mu
        # The same member and route lists as flat CSR arrays, with the
        # service rates and floors: what the ensemble kernel reads.
        self._loop_arrays = tuple(
            np.ascontiguousarray(a, dtype=dtype) for a, dtype in (
                (csr.gw_ptr, np.int64), (csr.gw_members, np.int64),
                (csr.route_ptr, np.int64), (csr.route_gateways, np.int64),
                (self._mu, float), (self._floor, float)))

    @property
    def num_gateways(self) -> int:
        return self._mu.size

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def initial_state(self) -> np.ndarray:
        """``R(0) = fill * mu^a / N^a``, shape ``(G,)``."""
        return self.controller.fill * self._mu / self._counts

    def initial_state_batch(self, members: int) -> np.ndarray:
        """``(M, G)`` copies of :meth:`initial_state`."""
        return np.tile(self.initial_state(), (int(members), 1))

    # ------------------------------------------------------------------
    # the control law
    # ------------------------------------------------------------------
    def _loads(self, r: np.ndarray) -> np.ndarray:
        """Per-gateway arrival rates ``y^a``, ``(..., N) -> (..., G)``.

        The member rates are accumulated one column at a time so the
        floating-point reduction order is fixed left-to-right and
        independent of the batch shape.  ``ndarray.sum`` does NOT give
        that: its pairwise/SIMD partial-sum order varies between 1-D
        vectors and axis-reductions (and even with the number of rows),
        which breaks the bank's scalar/batch bit-identity contract
        after a few compounding steps.
        """
        out = np.empty(r.shape[:-1] + (self.num_gateways,))
        for a, m in enumerate(self._members):
            if m.size == 0:
                out[..., a] = 0.0
                continue
            acc = r[..., m[0]].astype(float, copy=True)
            for j in m[1:]:
                acc += r[..., j]
            out[..., a] = acc
        return out

    def update(self, rates: np.ndarray, state: np.ndarray) -> np.ndarray:
        """One gateway update from a ``(N,)`` rate vector and a finite
        ``(G,)`` state: a one-row call of :meth:`update_batch`."""
        s = _controller_state(state, (self.num_gateways,))
        return self.update_batch(np.asarray(rates, dtype=float)[None],
                                 s[None])[0]

    def update_batch(self, rates: np.ndarray,
                     state: np.ndarray) -> np.ndarray:
        """One gateway update per row of a ``(M, N)`` rate batch, from a
        finite ``(M, G)`` state with one row per rate row."""
        r = np.asarray(rates, dtype=float)
        if r.ndim != 2:
            raise RateVectorError(
                f"rate batch must be 2-D, got shape {r.shape}")
        s = _controller_state(state, (r.shape[0], self.num_gateways))
        return self._advance(self._loads(r), s)

    def _advance(self, y: np.ndarray, state: np.ndarray) -> np.ndarray:
        ctl = self.controller
        x = y / self._mu
        gain = ctl.alpha * (1.0 - x)
        if ctl.beta > 0.0:
            # Aggregate queue law q = x/(1-x); clamp the saturated
            # branch — the factor envelope dominates there anyway.
            spare = 1.0 - x
            safe = np.maximum(spare, 1e-12)
            queue = np.where(spare > 1e-12, x / safe, 1e12)
            gain = gain - ctl.beta * queue
        factor = np.clip(1.0 + gain, FACTOR_MIN, FACTOR_MAX)
        return np.clip(state * factor, self._floor, self._mu)

    def advertised(self, state: np.ndarray) -> np.ndarray:
        """Source rates ``r_i = min over gamma(i) of R^a``, ``(N,)``,
        from a finite ``(G,)`` state: a one-row call of
        :meth:`advertised_batch`."""
        s = _controller_state(state, (self.num_gateways,))
        return self.advertised_batch(s[None])[0]

    def advertised_batch(self, state: np.ndarray) -> np.ndarray:
        """Per-row advertised rates from a finite ``(M, G)`` state,
        ``(M, N)``."""
        s = _controller_state(state, (None, self.num_gateways))
        return np.stack([s[:, route].min(axis=1)
                         for route in self._routes], axis=-1)

    # ------------------------------------------------------------------
    # predictions
    # ------------------------------------------------------------------
    def effective_capacities(self) -> Dict[str, float]:
        """``C^a = x* mu^a`` per gateway name."""
        x_star = self.controller.fixed_point_utilisation()
        names = self.network.csr.gateway_names
        return {name: x_star * float(self._mu[a])
                for a, name in enumerate(names)}

    def predicted_allocation(self) -> np.ndarray:
        """The max-min fair allocation of the effective capacities."""
        return max_min_allocation(self.network, self.effective_capacities())


def _controller_state(state, shape: tuple) -> np.ndarray:
    """``state`` as a float array; raise
    :class:`~repro.errors.RateVectorError` unless it is finite and of
    ``shape``, where a None length (shown as ``M``) matches any."""
    try:
        s = np.asarray(state, dtype=float)
    except (TypeError, ValueError):
        s = None
    if s is None or s.ndim != len(shape) or any(
            k not in (None, got) for k, got in zip(shape, s.shape)):
        got = "not numeric" if s is None else f"shape {s.shape}"
    elif not np.isfinite(s).all():
        got = "a non-finite entry"
    else:
        return s
    raise RateVectorError(
        f"controller state must be a finite array of shape "
        f"{str(shape).replace('None', 'M')}, got {got}")


def _loop_control(bank: RcpBank, rules) -> Optional[compiled.Control]:
    """``bank`` as the ensemble kernel runs it
    (:class:`repro.backends.compiled.Control`), or None when the kernel
    does not transcribe it: only an exact :class:`RcpBank` of an exact
    :class:`RcpController` with exact
    :class:`~repro.core.ratecontrol.RcpSourceRule` sources, so a
    subclass keeps its overrides.  The initial state and the gains are
    read at each call: controllers are mutable."""
    if (type(bank) is not RcpBank
            or type(bank.controller) is not RcpController
            or any(type(rule) is not RcpSourceRule for rule in rules)):
        return None
    ctl = bank.controller
    return compiled.Control(bank._loop_arrays, bank.initial_state(),
                            ctl.alpha, ctl.beta, FACTOR_MIN, FACTOR_MAX)
