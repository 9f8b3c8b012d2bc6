"""The compiled kernel tier.

The engine runs on numpy.  Two hot paths also have a runtime-built C
library (:mod:`repro.backends._cext`): the FIFO event loop in
:mod:`repro.simulation.kernel` and the Fair Share sorted prefix-sum
laws in :mod:`repro.core.fairshare` / :mod:`repro.core.signals`.
:mod:`repro.backends.compiled` dispatches to it whenever it has built
and reports which tier is live.  The C kernels never change results:
they are bit-identical (same RNG bitstream, same float operation order)
to the numpy and pure-python engines, which
``tests/integration/test_kernel_equivalence.py``, ``tests/unit/
test_backends.py`` and the ``compiled-equivalence`` fuzz oracle check.
:mod:`repro.backends._fs_python` holds loop twins of the Fair Share
kernels that the tests diff both implementations against.
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
