"""The compiled kernel tier.

The engine runs on numpy.  Four kernel families also have a
runtime-built C library (:mod:`repro.backends._cext`): the Fair Share
sorted prefix-sum laws (the queue law, weighted or not, and the
individual congestion measure) of :mod:`repro.core.fairshare` and
:mod:`repro.core.signals`; the observe stage of
:class:`~repro.core.signals.FeedbackScheme`; the ensemble loop that
:meth:`~repro.core.dynamics.FlowControlSystem.run_ensemble`,
:func:`~repro.core.asynchronous.run_async_ensemble` and ``run`` share;
and the packet event loop of :mod:`repro.simulation.kernel`.
:mod:`repro.backends.compiled` dispatches to it whenever it has built
and reports which tier is live.  The C kernels never change results:
they give the numpy and Python paths' bits (same RNG bitstream, same
float operation order).  The tests hold both tiers to references that
share no code with them (the exact Fair Share laws of
``tests/exact_fair_share.py``, ``reference_run`` for the loops,
queueing theory for the packet loop) and to each other, and the
``compiled-equivalence`` fuzz oracle checks them too.
"""

from __future__ import annotations

from types import SimpleNamespace

__all__ = ["active"]

_NUMPY = SimpleNamespace(name="numpy")


def active():
    """The engine's array namespace, whose ``.name`` is ``"numpy"``.

    Kept only for provenance: the repository benchmark's worker
    (``benchmarks/suite/worker.py``) records ``active().name`` beside
    :func:`repro.backends.compiled.tier` in every result.
    """
    return _NUMPY
