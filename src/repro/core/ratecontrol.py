"""Rate-adjustment algorithms (paper Sections 2.3.2, 3.1 and 4).

At each synchronous step every source applies

    ``r_i <- max(0, r_i + f(r_i, b_i, d_i))``

where ``f`` may use only the source's local state: its current rate, its
bottleneck congestion signal, and its mean round-trip delay.  ``f`` must
never be insensitive to the signal (``df/db != 0``).

Theorem 1 characterises the **time-scale invariant** (TSI) rules: ``f``
vanishes at exactly one signal value ``b_ss``, for *all* rates and
delays.  The module provides the paper's named examples:

* :class:`TargetRule` — ``f = eta (beta - b)``: TSI; the Section 3.3
  instability example (unilateral margin ``|1 - eta|``, systemic
  eigenvalue ``1 - eta N`` at a shared gateway with ``B(C)=C/(C+1)``).
* :class:`ProportionalTargetRule` — ``f = eta r (beta - b)``: TSI and
  *guaranteed unilaterally stable* for ``eta < 2`` with
  ``B(C)=C/(C+1)``.
* :class:`DecbitWindowRule` — ``f = (1-b) eta / d - beta b r``: the
  window-interpreted linear-increase multiplicative-decrease rule of the
  original DECbit/Jacobson schemes; neither TSI nor fair (latency
  sensitivity through ``d``).
* :class:`DecbitRateRule` — ``f = (1-b) eta - beta b r``: the rate
  reinterpretation; guaranteed fair (steady rate
  ``eta (1-b)/(beta b)`` is the same for all sharers) but not TSI.
* :class:`BinaryAimdRule` — Chiu–Jain style additive-increase
  multiplicative-decrease driven by a thresholded (binary) signal; never
  admits ``f = 0``, so its asymptotics are a limit cycle, not a steady
  state (why the paper's steady-state analysis excludes it).
* :class:`TcpLikeRule` — the window-interpreted AIMD of Andrews and
  Slivkins (arXiv:0812.1321): one packet per round trip of additive
  increase (``increase / d``) below the congestion threshold, a
  multiplicative cut above it.  Like :class:`BinaryAimdRule` it never
  admits ``f = 0`` (perpetual sawtooth), and the ``1/d`` factor makes it
  latency-biased.
* :class:`RcpSourceRule` — the degenerate source half of RCP: sources do
  not self-adjust at all (``f = 0``); the network's per-gateway
  controller (:mod:`repro.core.rcp`) sets their rates explicitly.  Only
  valid inside a controlled :class:`~repro.core.dynamics.FlowControlSystem`.

:func:`verify_tsi` checks Theorem 1's condition numerically for *any*
rule, and :func:`tsi_target` extracts the unique ``b_ss``.

A rule states whether its ``f`` reads the delay ``d`` with the class
attribute :attr:`RateAdjustment.reads_delay`.  Only the window-style
rules (:class:`DecbitWindowRule`, :class:`TcpLikeRule`) do; the TSI
rules of Section 3 and the rate-style rules declare ``False``, and the
dynamics then skip computing delays no rule reads.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import optimize

from ..backends import _cext
from ..errors import NotTimeScaleInvariantError, RateVectorError

__all__ = [
    "RateAdjustment",
    "TargetRule",
    "ProportionalTargetRule",
    "DecbitWindowRule",
    "DecbitRateRule",
    "BinaryAimdRule",
    "TcpLikeRule",
    "RcpSourceRule",
    "verify_tsi",
    "tsi_target",
]


class RateAdjustment(abc.ABC):
    """A source's local update rule ``f(r, b, d)``.

    :attr:`reads_delay` states which inputs ``f`` uses; it is not a
    setting.  Subclasses inherit ``True`` and always receive delays.  A
    rule declaring ``False`` is handed ``delays=None`` (``delay=None``
    in :meth:`delta` through the base :meth:`delta_batch`), so one that
    reads ``d`` anyway gets no made-up delay.
    """

    name: str = "abstract"

    #: The rule's declared steady-state signal, or ``None`` when the rule
    #: is (or claims to be) not time-scale invariant.  :func:`verify_tsi`
    #: validates the claim numerically.
    declared_target: Optional[float] = None

    #: Whether ``f`` reads the round-trip delay ``d``.  The observe stage
    #: computes delays only when some rule of a system reads them.
    reads_delay: bool = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A subclass that overrides delta but inherits a vectorised
        # delta_batch would run its parent's law on every batch path;
        # it gets the loop over its own delta instead.
        if "delta" in vars(cls) and "delta_batch" not in vars(cls):
            cls.delta_batch = RateAdjustment.delta_batch

    @abc.abstractmethod
    def delta(self, rate: float, signal: float, delay: float) -> float:
        """The adjustment ``f(r_i, b_i, d_i)`` (may be negative)."""

    def apply(self, rate: float, signal: float, delay: float) -> float:
        """One truncated update ``max(0, r + f(r, b, d))``."""
        return max(0.0, rate + self.delta(rate, signal, delay))

    def delta_batch(self, rates: np.ndarray, signals: np.ndarray,
                    delays: np.ndarray) -> np.ndarray:
        """Elementwise ``f`` over same-shaped arrays of ``(r, b, d)``.

        The base implementation loops over :meth:`delta`, so any custom
        rule is batch-capable out of the box; the built-in rules
        override it with vectorised arithmetic.  Inputs broadcast
        against each other exactly like the vectorised overrides (a
        scalar delay against an ``(N,)`` rate vector is fine).

        ``delays=None`` (a rule declaring ``reads_delay = False``)
        passes ``delay=None`` to :meth:`delta`.
        """
        r, b, d = np.broadcast_arrays(
            np.asarray(rates, dtype=float), np.asarray(signals, dtype=float),
            np.asarray(0.0 if delays is None else delays, dtype=float))
        out = np.empty(r.shape, dtype=float)
        flat_r, flat_b, flat_d = r.ravel(), b.ravel(), d.ravel()
        flat_out = out.ravel()
        for k in range(flat_r.size):
            flat_out[k] = self.delta(
                float(flat_r[k]), float(flat_b[k]),
                None if delays is None else float(flat_d[k]))
        return out

    def apply_batch(self, rates: np.ndarray, signals: np.ndarray,
                    delays: np.ndarray) -> np.ndarray:
        """Elementwise truncated update ``max(0, r + f(r, b, d))``."""
        r = np.asarray(rates, dtype=float)
        return np.maximum(0.0, r + self.delta_batch(r, signals, delays))

    def __repr__(self):
        return f"{type(self).__name__}()"


def _positive(value: float, what: str) -> float:
    v = float(value)
    if not (math.isfinite(v) and v > 0):
        raise RateVectorError(f"{what} must be finite and positive, "
                              f"got {value!r}")
    return v


def _signal_in_open_interval(value: float, what: str) -> float:
    v = float(value)
    if not (0.0 < v < 1.0):
        raise RateVectorError(f"{what} must lie strictly in (0, 1), "
                              f"got {value!r}")
    return v


class TargetRule(RateAdjustment):
    """``f = eta (beta - b)``: drive the signal to the target ``beta``."""

    name = "target"
    reads_delay = False

    def __init__(self, eta: float = 0.1, beta: float = 0.5):
        self.eta = _positive(eta, "gain eta")
        self.beta = _signal_in_open_interval(beta, "target beta")
        self.declared_target = self.beta

    def delta(self, rate, signal, delay):
        return self.eta * (self.beta - signal)

    def delta_batch(self, rates, signals, delays):
        b = np.asarray(signals, dtype=float)
        return self.eta * (self.beta - b)

    def __repr__(self):
        return f"TargetRule(eta={self.eta}, beta={self.beta})"


class ProportionalTargetRule(RateAdjustment):
    """``f = eta r (beta - b)``: multiplicative pressure toward ``beta``.

    With ``B(C) = C/(C+1)`` this rule is guaranteed unilaterally stable
    whenever ``eta < 2`` (the diagonal of ``DF`` is ``1 - eta rho_i`` at
    a single shared gateway).  Note ``r = 0`` is an absorbing state —
    trajectories must start strictly positive.
    """

    name = "proportional-target"
    reads_delay = False

    def __init__(self, eta: float = 0.5, beta: float = 0.5):
        self.eta = _positive(eta, "gain eta")
        self.beta = _signal_in_open_interval(beta, "target beta")
        self.declared_target = self.beta

    def delta(self, rate, signal, delay):
        return self.eta * rate * (self.beta - signal)

    def delta_batch(self, rates, signals, delays):
        r = np.asarray(rates, dtype=float)
        b = np.asarray(signals, dtype=float)
        return self.eta * r * (self.beta - b)

    def __repr__(self):
        return f"ProportionalTargetRule(eta={self.eta}, beta={self.beta})"


class DecbitWindowRule(RateAdjustment):
    """``f = (1 - b) eta / d - beta b r`` (window LIMD, paper Section 4).

    The ``1/d`` factor models a per-round-trip window increase expressed
    as a rate: longer paths open their window more slowly, which is the
    source of the latency unfairness the paper calls out.
    """

    name = "decbit-window"

    def __init__(self, eta: float = 0.05, beta: float = 0.5):
        self.eta = _positive(eta, "additive gain eta")
        self.beta = _positive(beta, "multiplicative gain beta")
        self.declared_target = None

    def delta(self, rate, signal, delay):
        if delay <= 0:
            raise RateVectorError(f"delay must be positive, got {delay!r}")
        if math.isinf(delay):
            return -self.beta * signal * rate
        return (1.0 - signal) * self.eta / delay - self.beta * signal * rate

    def delta_batch(self, rates, signals, delays):
        r = np.asarray(rates, dtype=float)
        b = np.asarray(signals, dtype=float)
        d = np.asarray(delays, dtype=float)
        if np.any(d <= 0):
            raise RateVectorError("delays must be positive")
        decrease = self.beta * b * r
        with np.errstate(invalid="ignore"):
            increase = (1.0 - b) * self.eta / d
        return np.where(np.isinf(d), -decrease, increase - decrease)

    def __repr__(self):
        return f"DecbitWindowRule(eta={self.eta}, beta={self.beta})"


class DecbitRateRule(RateAdjustment):
    """``f = (1 - b) eta - beta b r`` (rate LIMD, paper Sections 3.2, 4).

    Guaranteed fair — at steady state ``r = eta (1 - b)/(beta b)`` is the
    same for every connection sharing a bottleneck — but not TSI: the
    steady rate does not scale with the line speed.
    """

    name = "decbit-rate"
    reads_delay = False

    def __init__(self, eta: float = 0.05, beta: float = 0.5):
        self.eta = _positive(eta, "additive gain eta")
        self.beta = _positive(beta, "multiplicative gain beta")
        self.declared_target = None

    def delta(self, rate, signal, delay):
        return (1.0 - signal) * self.eta - self.beta * signal * rate

    def delta_batch(self, rates, signals, delays):
        r = np.asarray(rates, dtype=float)
        b = np.asarray(signals, dtype=float)
        return (1.0 - b) * self.eta - self.beta * b * r

    def steady_rate(self, signal: float) -> float:
        """The rate at which ``f = 0`` for a fixed signal ``b > 0``."""
        if signal <= 0:
            return math.inf
        return self.eta * (1.0 - signal) / (self.beta * signal)

    def __repr__(self):
        return f"DecbitRateRule(eta={self.eta}, beta={self.beta})"


class BinaryAimdRule(RateAdjustment):
    """Chiu–Jain AIMD on a thresholded signal.

    ``f = +increase`` when ``b < threshold`` (no congestion indicated)
    and ``f = -decrease * r`` otherwise.  ``f`` never vanishes, so there
    is no steady state; the long-run behaviour is a sawtooth oscillation
    whose *average* is fair — matching the paper's remarks on [Chi89].
    """

    name = "binary-aimd"
    reads_delay = False

    def __init__(self, increase: float = 0.01, decrease: float = 0.125,
                 threshold: float = 0.5):
        self.increase = _positive(increase, "additive increase")
        if not (0.0 < decrease < 1.0):
            raise RateVectorError(
                f"multiplicative decrease must lie in (0, 1), "
                f"got {decrease!r}")
        self.decrease = float(decrease)
        self.threshold = _signal_in_open_interval(threshold, "threshold")
        self.declared_target = None

    def delta(self, rate, signal, delay):
        if signal < self.threshold:
            return self.increase
        return -self.decrease * rate

    def delta_batch(self, rates, signals, delays):
        r = np.asarray(rates, dtype=float)
        b = np.asarray(signals, dtype=float)
        return np.where(b < self.threshold, self.increase,
                        -self.decrease * r)

    def __repr__(self):
        return (f"BinaryAimdRule(increase={self.increase}, "
                f"decrease={self.decrease}, threshold={self.threshold})")


class TcpLikeRule(RateAdjustment):
    """TCP-like AIMD (Andrews–Slivkins, arXiv:0812.1321).

    ``f = increase / d`` when ``b < threshold`` (one window's worth of
    additive increase per round trip, expressed as a rate) and
    ``f = -decrease * r`` otherwise.  Like :class:`BinaryAimdRule` the
    adjustment never vanishes, so trajectories oscillate forever; unlike
    it, the ``1/d`` increase makes the sawtooth latency-biased — longer
    paths recover more slowly after each cut and settle on a smaller
    time-average share (the TCP RTT-unfairness the paper's Section 4
    rules exhibit in window form).
    """

    name = "tcp-like"

    def __init__(self, increase: float = 0.05, decrease: float = 0.125,
                 threshold: float = 0.5):
        self.increase = _positive(increase, "additive increase")
        if not (0.0 < decrease < 1.0):
            raise RateVectorError(
                f"multiplicative decrease must lie in (0, 1), "
                f"got {decrease!r}")
        self.decrease = float(decrease)
        self.threshold = _signal_in_open_interval(threshold, "threshold")
        self.declared_target = None

    def delta(self, rate, signal, delay):
        if delay <= 0:
            raise RateVectorError(f"delay must be positive, got {delay!r}")
        if signal < self.threshold:
            return self.increase / delay
        return -self.decrease * rate

    def delta_batch(self, rates, signals, delays):
        r = np.asarray(rates, dtype=float)
        b = np.asarray(signals, dtype=float)
        d = np.asarray(delays, dtype=float)
        if np.any(d <= 0):
            raise RateVectorError("delays must be positive")
        # increase / inf == 0.0 exactly, matching the scalar path.
        return np.where(b < self.threshold, self.increase / d,
                        -self.decrease * r)

    def __repr__(self):
        return (f"TcpLikeRule(increase={self.increase}, "
                f"decrease={self.decrease}, threshold={self.threshold})")


class RcpSourceRule(RateAdjustment):
    """The source half of RCP: no local adjustment at all.

    RCP sources simply adopt the smallest advertised rate along their
    path each round trip; all of the control law lives in the gateways
    (:class:`repro.core.rcp.RcpController`).  ``f = 0`` keeps the rule
    interface satisfied for bookkeeping (grouping, serialisation), and
    :class:`~repro.core.dynamics.FlowControlSystem` refuses to run this
    rule without a controller attached.
    """

    name = "rcp-source"
    reads_delay = False

    def __init__(self):
        self.declared_target = None

    def delta(self, rate, signal, delay):
        return 0.0

    def delta_batch(self, rates, signals, delays):
        r = np.asarray(rates, dtype=float)
        b = np.asarray(signals, dtype=float)
        return np.zeros(np.broadcast(r, b).shape, dtype=float)

    def __repr__(self):
        return "RcpSourceRule()"


#: The rules the compiled ensemble loop transcribes
#: (:func:`repro.backends.compiled.ensemble_loop`): rule type -> its
#: code on the C side and the attributes its ``delta_batch`` reads, in
#: the kernel's parameter order.  Keyed by exact type, so a subclass
#: keeps its overrides.
_LOOP_RULES = {
    TargetRule: (_cext.RULE_TARGET, ("eta", "beta")),
    ProportionalTargetRule: (_cext.RULE_PROPORTIONAL_TARGET,
                             ("eta", "beta")),
    DecbitRateRule: (_cext.RULE_DECBIT_RATE, ("eta", "beta")),
    DecbitWindowRule: (_cext.RULE_DECBIT_WINDOW, ("eta", "beta")),
    BinaryAimdRule: (_cext.RULE_BINARY_AIMD,
                     ("increase", "decrease", "threshold")),
    TcpLikeRule: (_cext.RULE_TCP_LIKE, ("increase", "decrease", "threshold")),
}


def _loop_rule(rule: RateAdjustment) -> Optional[tuple]:
    """``(code, parameters)`` of ``rule`` for the compiled ensemble
    loop, or None when the loop does not transcribe its type.  The
    parameters are read at each call: rules are mutable."""
    entry = _LOOP_RULES.get(type(rule))
    if entry is None:
        return None
    code, names = entry
    return code, [float(getattr(rule, name)) for name in names]


# ----------------------------------------------------------------------
# Theorem 1: the TSI test
# ----------------------------------------------------------------------
def _signal_roots(rule: RateAdjustment, rate: float, delay: float,
                  grid: np.ndarray, tol: float) -> list:
    """Zeros of ``b -> f(rate, b, delay)`` on (0, 1), by bracketing.

    Sign changes are confirmed by checking ``|f|`` at the candidate:
    at a jump discontinuity (AIMD-style thresholds) brentq still
    converges — to the jump location, where ``f`` does *not* vanish —
    and reporting that point as a root misclassifies oscillating rules
    as TSI.  The residual test rejects those pseudo-roots.
    """
    values = np.array([rule.delta(rate, b, delay) for b in grid])
    residual_cap = 1e-6 * (1.0 + float(np.max(np.abs(values))))
    roots = []
    for k in range(grid.size - 1):
        lo, hi = values[k], values[k + 1]
        if lo == 0.0:
            roots.append(float(grid[k]))
        elif lo * hi < 0:
            root = optimize.brentq(
                lambda b: rule.delta(rate, b, delay), grid[k], grid[k + 1],
                xtol=tol)
            if abs(rule.delta(rate, float(root), delay)) <= residual_cap:
                roots.append(float(root))
    if values[-1] == 0.0:
        roots.append(float(grid[-1]))
    merged = []
    for root in sorted(roots):
        if not merged or root - merged[-1] > 10 * tol:
            merged.append(root)
    return merged


def verify_tsi(rule: RateAdjustment,
               rates: Sequence[float] = (0.01, 0.5, 1.0, 10.0, 250.0),
               delays: Sequence[float] = (0.05, 1.0, 30.0),
               grid_points: int = 4001, tol: float = 1e-10) -> Optional[float]:
    """Numerically test Theorem 1's TSI condition.

    Returns the unique steady-state signal ``b_ss`` when the rule is TSI
    on the sampled (rate, delay) lattice, or ``None`` otherwise.  The
    check requires every sampled ``(r, d)`` to induce the *same single*
    zero of ``b -> f(r, b, d)`` in (0, 1).
    """
    grid = np.linspace(1e-9, 1.0 - 1e-9, grid_points)
    target = None
    for r in rates:
        for d in delays:
            roots = _signal_roots(rule, float(r), float(d), grid, tol)
            if len(roots) != 1:
                return None
            if target is None:
                target = roots[0]
            elif abs(roots[0] - target) > 1e-6:
                return None
    return target


def tsi_target(rule: RateAdjustment, **kwargs) -> float:
    """The unique ``b_ss`` of a TSI rule; raises if the rule is not TSI.

    A ``declared_target`` is a *claim*, not a certificate: the declared
    value is validated against :func:`verify_tsi` and a mislabelled rule
    (wrong target, or not TSI at all) raises
    :class:`~repro.errors.NotTimeScaleInvariantError` instead of being
    silently trusted.  Validation passed, the exact declared value is
    returned (it is typically analytic where the measurement is not).
    """
    target = verify_tsi(rule, **kwargs)
    if target is None:
        if rule.declared_target is not None:
            raise NotTimeScaleInvariantError(
                f"rule {rule!r} declares target "
                f"{rule.declared_target!r} but is not time-scale "
                f"invariant")
        raise NotTimeScaleInvariantError(
            f"rule {rule!r} is not time-scale invariant")
    if rule.declared_target is not None:
        declared = float(rule.declared_target)
        if abs(declared - target) > 1e-4:
            raise NotTimeScaleInvariantError(
                f"rule {rule!r} declares target {declared!r} but its "
                f"measured steady-state signal is {target!r}")
        return declared
    return target
