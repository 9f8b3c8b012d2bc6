"""The Fair Share laws in exact rational arithmetic.

A finite float is a dyadic rational, so :class:`fractions.Fraction`
holds every input exactly, and each law here is a rational function of
its inputs: sums, minima, quotients and the M/M/1 occupancy ``g(x) =
x / (1 - x)``.  So these functions evaluate the laws with no rounding
at all, and a test can say how far a float kernel lands from the true
value, in units in the last place (:func:`ulps`).

They follow the paper's construction, not the engine's kernels: no
sorted prefix sums, no tie rule and no masked accumulation.

* :func:`queues` is the Table 1 law, weighted as in
  :mod:`repro.core.weighted`.  Each distinct normalised rate ``l``
  (rate over weight) is a priority class.  Classes at or below ``l``
  together form an M/M/1 at load ``sigma(l) = (1/mu) sum_m min(r_m,
  phi_m l)``.  The class at ``l`` adds occupancy ``g(sigma(l)) -
  g(sigma(l'))``, ``l'`` the class below, split over the connections
  with normalised rate at least ``l`` in proportion to their weights.
  A connection's queue is its weight times its shares of its own
  class and of every class below it.  Equal weights give the paper's
  unweighted law.
* :func:`cumulative_loads` is ``sigma_k = (1/mu) sum_m min(r_m,
  r_(k))`` in sorted-rank order.
* :func:`individual_measure` is the paper's ``C_i = sum_k min(Q_k,
  Q_i)``, of float queues or of the exact ones.

A class at load 1 or more has no steady state, and its connections
(and every connection above them) get ``math.inf``, as the float
laws do.  The connections of such a class also get an infinite
individual measure.  So values are Fractions or ``math.inf``.  The
functions are quadratic in ``n`` and meant for small gateways.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["class_loads", "queues", "cumulative_loads",
           "individual_measure", "linear_signal", "ulps"]


def _exact(x):
    """A float as a Fraction, exactly; ``inf`` stays ``math.inf`` and a
    Fraction stays itself."""
    if isinstance(x, Fraction):
        return x
    x = float(x)
    if math.isinf(x) and x > 0:
        return math.inf
    return Fraction(x)


def _g(load):
    """``g(x) = x / (1 - x)``; ``math.inf`` at or past load 1."""
    return math.inf if load >= 1 else load / (1 - load)


def _inputs(rates, mu, weights):
    """Rates, weights (ones for None) and service rate, exactly."""
    r = [_exact(x) for x in rates]
    phi = ([Fraction(1)] * len(r) if weights is None
           else [_exact(w) for w in weights])
    return r, phi, _exact(mu)


def class_loads(rates, mu, weights=None) -> list:
    """Each connection's class load ``sigma(r_i / phi_i)``, exactly."""
    r, phi, mu = _inputs(rates, mu, weights)
    level = [ri / pi for ri, pi in zip(r, phi)]
    load = {lev: sum(min(rm, pm * lev) for rm, pm in zip(r, phi)) / mu
            for lev in set(level)}
    return [load[lev] for lev in level]


def queues(rates, mu, weights=None) -> list:
    """The Fair Share queues of one gateway's ``rates``, weighted by
    ``weights`` (None: equal weights), exactly."""
    r, phi, _ = _inputs(rates, mu, weights)
    level = [ri / pi for ri, pi in zip(r, phi)]
    load = dict(zip(level, class_loads(rates, mu, weights)))
    share = {}      # cumulative occupancy per unit weight at each class
    below = total = Fraction(0)
    for lev in sorted(load):
        occupancy = _g(load[lev])
        if occupancy == math.inf or total == math.inf:
            total = share[lev] = math.inf
            continue
        present = sum(pm for pm, lm in zip(phi, level) if lm >= lev)
        total += (occupancy - below) / present
        share[lev], below = total, occupancy
    return [pi * share[lev] if share[lev] != math.inf else math.inf
            for pi, lev in zip(phi, level)]


def cumulative_loads(rates, mu) -> list:
    """``sigma_k = (1/mu) sum_m min(r_m, r_(k))`` for sorted rank ``k``,
    exactly."""
    r, _, mu = _inputs(rates, mu, None)
    return [sum(min(rm, rk) for rm in r) / mu for rk in sorted(r)]


def individual_measure(queues) -> list:
    """``C_i = sum_k min(Q_k, Q_i)`` of one gateway's queues, exactly;
    ``Q_i = inf`` gives ``C_i = inf``."""
    q = [_exact(x) for x in queues]
    return [sum(min(qk, qi) for qk in q) for qi in q]


def linear_signal(measure):
    """``B(C) = C / (C + 1)``, exactly; ``B(inf) = 1``."""
    return Fraction(1) if measure == math.inf else measure / (measure + 1)


def ulps(got: float, exact) -> float:
    """How far the float ``got`` lies from ``exact``, in units in the
    last place of ``exact`` rounded to a float: 0 only when they are
    equal, ``inf`` when one is infinite or zero and the other not."""
    if exact == math.inf or exact == 0:
        return 0.0 if got == exact else math.inf
    if not math.isfinite(got):
        return math.inf
    unit = Fraction(math.ulp(float(exact)))
    return float(abs(Fraction(got) - exact) / unit)
