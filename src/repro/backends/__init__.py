"""Pluggable array backends and compiled hot-path kernels.

The batch engine is written against an array *namespace* ``xp`` —
numpy by default — plus an optional compiled-kernel tier for the two
hot paths that dominate profiles: the FIFO event loop in
:mod:`repro.simulation.kernel` and the Fair Share sorted prefix-sum
laws in :mod:`repro.core.fairshare` / :mod:`repro.core.signals`.  The
Fair Share laws do not consult the backend: they run in C whenever the
C tier has built (same bits as the numpy pipeline) and on the numpy
pipeline otherwise or under a non-numpy ``xp``.  This package is the
single place both axes are resolved:

* :func:`resolve` — map a backend name (or the ``REPRO_BACKEND``
  environment variable) to a :class:`Backend`.  Unknown or unavailable
  names raise a loud :class:`~repro.errors.CLIError` listing what *is*
  available, never a silent numpy fallback.
* :func:`use` / :func:`using` / :func:`active` — process-wide backend
  activation (``using`` is the scoped context-manager form).  The
  default is the plain numpy backend, under which every code path is
  bit-identical to the pre-backend engine.
* :func:`stub_namespace` — a numpy-masquerading namespace that counts
  attribute traffic, so the test suite can prove the ``xp`` seam is
  really threaded through without needing a GPU.

Backend names
-------------

=============  ============================================================
``numpy``      plain numpy array namespace (always available; default)
``compiled``   best compiled tier with graceful fallback:
               numba ``@njit`` > runtime-compiled C extension > pure python
``numba``      require the numba tier (loud error when numba is absent)
``cext``       require the C-extension tier (loud error when no C compiler)
``cupy``       cupy array namespace (probed; loud error when absent)
``jax``        ``jax.numpy`` namespace (probed; loud error when absent)
``stub``       numpy-masquerade test namespace (always available)
=============  ============================================================

The compiled tiers never change results: every kernel is proven
bit-identical (same RNG bitstream, same float operation order) to the
pure-python/numpy engines by ``tests/integration/
test_kernel_equivalence.py`` and the ``compiled-equivalence`` fuzz
oracle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..errors import CLIError

__all__ = [
    "Backend", "BACKEND_NAMES", "available_backends", "resolve",
    "use", "using", "active", "reset",
    "stub_namespace", "StubNamespace",
]

#: Every backend name :func:`resolve` understands, in listing order.
BACKEND_NAMES = ("numpy", "compiled", "numba", "cext", "cupy", "jax",
                 "stub")

#: Install hint appended to unavailable-backend errors.
_INSTALL_HINT = ("install the optional JIT tier with "
                 "'pip install repro[numba]' for the numba backend, "
                 "or ensure a C compiler (cc/gcc/clang) is on PATH "
                 "for the cext backend")


@dataclass(frozen=True)
class Backend:
    """One resolved backend: an array namespace plus a kernel tier.

    Attributes:
        name: the resolved backend name (one of :data:`BACKEND_NAMES`).
        xp: the array namespace (numpy, cupy, ``jax.numpy``, or the
            stub masquerade).  Everything threaded through the ``xp``
            seam calls into this object.
        kernel_tier: which compiled tier the backend names —
            ``"numba"``, ``"cext"``, or ``"python"``.  It chooses no
            kernel: the Fair Share laws run in C whenever it has built,
            and both give the numpy pipeline's bits.
        description: one-line summary for ``selftest`` / ``--backend``
            listings.
    """

    name: str
    xp: Any
    kernel_tier: str = "python"
    description: str = ""


class StubNamespace:
    """A numpy masquerade for exercising the ``xp`` seam without a GPU.

    Every attribute lookup is delegated to numpy and counted, so a
    test can assert both that results are bit-identical to the numpy
    path *and* that the pipeline really routed its array calls through
    the namespace object it was handed (``calls`` > 0) rather than a
    hard-coded ``np``.
    """

    def __init__(self):
        self.calls = 0
        self.attributes_used: set = set()

    def __getattr__(self, name: str):
        value = getattr(np, name)
        # Plain instance-dict writes; __getattr__ only fires on misses.
        self.calls += 1
        self.attributes_used.add(name)
        return value

    def __repr__(self):
        return f"StubNamespace(calls={self.calls})"


def stub_namespace() -> StubNamespace:
    """A fresh counting numpy-masquerade namespace."""
    return StubNamespace()


def _probe_module(name: str):
    """Import ``name`` if present; None when absent or broken."""
    try:
        import importlib
        return importlib.import_module(name)
    except Exception:
        return None


def _numba_available() -> bool:
    import importlib.util
    try:
        return importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):
        return False


def _cext_possible() -> bool:
    """Cheap probe: a C compiler on PATH (the build itself is lazy)."""
    from . import _cext
    return _cext.compiler_available()


def available_backends() -> list:
    """Names from :data:`BACKEND_NAMES` usable in this environment."""
    names = ["numpy", "compiled", "stub"]  # never unavailable
    if _numba_available():
        names.insert(2, "numba")
    if _cext_possible():
        names.insert(names.index("stub"), "cext")
    if _probe_module("cupy") is not None:
        names.insert(names.index("stub"), "cupy")
    if _probe_module("jax") is not None:
        names.insert(names.index("stub"), "jax")
    return names


def _unavailable(name: str, why: str) -> CLIError:
    return CLIError(
        f"backend {name!r} is not available in this environment "
        f"({why}); available backends: "
        f"{', '.join(available_backends())} — {_INSTALL_HINT}")


def resolve(name: Optional[str] = None) -> Backend:
    """Resolve a backend name (or ``REPRO_BACKEND``) to a :class:`Backend`.

    Args:
        name: one of :data:`BACKEND_NAMES`, or None to consult the
            ``REPRO_BACKEND`` environment variable (default
            ``"numpy"`` when that is unset or empty).

    Raises:
        CLIError: unknown name, or a real dependency gap — ``numba``
            without numba installed, ``cext`` without a C compiler,
            ``cupy``/``jax`` without the module.  The message lists
            the backends that *are* available plus the install hint;
            nothing ever silently degrades to numpy.

    ``"compiled"`` is the one gracefully-degrading name: it resolves
    to the best tier present (numba > cext > pure python) because its
    contract is "same bits, faster when possible", not "a specific
    dependency".
    """
    if name is None:
        name = os.environ.get("REPRO_BACKEND", "").strip() or "numpy"
    name = str(name).strip().lower()
    if name not in BACKEND_NAMES:
        raise CLIError(
            f"unknown backend {name!r}; available backends: "
            f"{', '.join(available_backends())} — {_INSTALL_HINT}")

    if name == "numpy":
        return Backend("numpy", np, "python",
                       "plain numpy array namespace")
    if name == "stub":
        return Backend("stub", stub_namespace(), "python",
                       "numpy-masquerade test namespace")
    if name == "compiled":
        from . import compiled
        tier = compiled.tier()
        return Backend("compiled", np, tier,
                       f"best compiled tier ({tier})")
    if name == "numba":
        if not _numba_available():
            raise _unavailable("numba", "the numba package is not "
                               "installed")
        from . import compiled
        if not compiled.numba_tier_ready():
            raise _unavailable("numba", "numba is installed but its "
                               "kernels failed to compile")
        return Backend("numba", np, "numba", "numba @njit kernels")
    if name == "cext":
        from . import _cext
        if not _cext.compiler_available():
            raise _unavailable("cext", "no C compiler (cc/gcc/clang) "
                               "on PATH")
        if _cext.load() is None:
            raise _unavailable("cext",
                               f"C build failed: {_cext.load_error()}")
        return Backend("cext", np, "cext",
                       "runtime-compiled C kernels")
    if name == "cupy":
        mod = _probe_module("cupy")
        if mod is None:
            raise _unavailable("cupy", "the cupy package is not "
                               "installed")
        return Backend("cupy", mod, "python", "cupy array namespace")
    # name == "jax"
    mod = _probe_module("jax")
    if mod is None:
        raise _unavailable("jax", "the jax package is not installed")
    import jax.numpy as jnp
    return Backend("jax", jnp, "python", "jax.numpy array namespace")


# ---------------------------------------------------------------------
# process-wide activation
# ---------------------------------------------------------------------
_ACTIVE: Optional[Backend] = None
_ENV_DEFAULT: Optional[Backend] = None
_ENV_SEEN: Optional[str] = None


def _default() -> Backend:
    """The ambient backend when none was activated explicitly:
    ``REPRO_BACKEND`` if set (resolved once, loudly), else numpy."""
    global _ENV_DEFAULT, _ENV_SEEN
    env = os.environ.get("REPRO_BACKEND", "").strip()
    if _ENV_DEFAULT is None or env != _ENV_SEEN:
        _ENV_SEEN = env
        _ENV_DEFAULT = resolve(env or "numpy")
    return _ENV_DEFAULT


def active() -> Backend:
    """The backend currently in force (explicit > env > numpy)."""
    return _ACTIVE if _ACTIVE is not None else _default()


def use(backend) -> Backend:
    """Activate a backend process-wide; returns the resolved backend.

    Accepts a :class:`Backend` or a name (``None`` re-reads the
    environment).  ``use("numpy")`` restores the default behaviour.
    """
    global _ACTIVE
    _ACTIVE = backend if isinstance(backend, Backend) else resolve(backend)
    return _ACTIVE


def reset() -> None:
    """Drop any explicit activation and forget the cached env default."""
    global _ACTIVE, _ENV_DEFAULT, _ENV_SEEN
    _ACTIVE = None
    _ENV_DEFAULT = None
    _ENV_SEEN = None


@contextmanager
def using(backend):
    """Scoped :func:`use`: activate for the ``with`` block, restore
    the previous activation after."""
    global _ACTIVE
    previous = _ACTIVE
    use(backend)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
