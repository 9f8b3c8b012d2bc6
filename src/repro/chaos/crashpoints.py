"""Env-armed crashpoints: deterministic SIGKILL injection sites.

The kill-anywhere harness needs to kill a checkpointed sweep at
*specific* places — above all between a checkpoint's temp-file write
and its atomic ``os.replace`` — and have the next run prove the resume
path is bit-identical.  A crashpoint is one named call site::

    crashpoint("sweep-checkpoint-mid-write")

Unarmed (the default — ``REPRO_CRASHPOINT`` unset) it is a dictionary
miss and nothing more; the production path is untouched.  Armed with
``REPRO_CRASHPOINT="name"`` or ``"name:count"``, the process SIGKILLs
*itself* the ``count``-th time that site is hit — no cleanup handlers,
no ``atexit``, exactly the crash a power loss delivers.  The sweep
writes its checkpoints in the process that called it, so an armed site
kills that process, not its pool workers or the harness.

:data:`KNOWN_CRASHPOINTS` is the catalogue of instrumented sites; the
harness arms each in turn rather than hard-coding names.
"""

from __future__ import annotations

import os
import signal
from typing import Dict, Tuple

from ..errors import ChaosError

__all__ = ["CRASHPOINT_ENV", "KNOWN_CRASHPOINTS", "crashpoint",
           "parse_crashpoint", "reset_crashpoints"]

CRASHPOINT_ENV = "REPRO_CRASHPOINT"

#: Every instrumented call site along the sweep checkpoint's write
#: path: before a completed chunk is written, and between a temp file's
#: write and its atomic ``os.replace`` (the manifest's and each
#: chunk's) — the window a naive checkpointer corrupts.
KNOWN_CRASHPOINTS = (
    "sweep-checkpoint-pre-write",
    "sweep-checkpoint-mid-write",
)

_hits: Dict[str, int] = {}


def parse_crashpoint(spec: str) -> Tuple[str, int]:
    """Parse ``"name"`` or ``"name:count"`` into ``(name, count)``."""
    if not isinstance(spec, str) or not spec:
        raise ChaosError(
            f"crashpoint spec must be a nonempty string, got {spec!r}")
    name, _, count_text = spec.partition(":")
    if not name:
        raise ChaosError(f"crashpoint spec {spec!r} has no name")
    if not count_text:
        return name, 1
    try:
        count = int(count_text)
    except ValueError:
        raise ChaosError(
            f"crashpoint count must be an integer, got {spec!r}") from None
    if count < 1:
        raise ChaosError(
            f"crashpoint count must be >= 1, got {spec!r}")
    return name, count


def crashpoint(name: str) -> None:
    """Die here if armed for this site; otherwise do nothing."""
    spec = os.environ.get(CRASHPOINT_ENV)
    if not spec:
        return
    target, count = parse_crashpoint(spec)
    if target != name:
        return
    _hits[name] = _hits.get(name, 0) + 1
    if _hits[name] >= count:
        os.kill(os.getpid(), signal.SIGKILL)


def reset_crashpoints() -> None:
    """Forget hit counts (test isolation within one process)."""
    _hits.clear()
