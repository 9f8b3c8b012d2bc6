"""Kill-anywhere harness: SIGKILL a checkpointed sweep at each
crashpoint in turn and prove the resumed sweep is bit-identical to an
uninterrupted one.

The victim is a real subprocess running the sweep that ``repro run
--resume`` runs: :func:`~repro.parallel.sweep` on a process pool with a
``checkpoint_dir``, ``REPRO_CRASHPOINT`` armed at one
:data:`~repro.chaos.crashpoints.KNOWN_CRASHPOINTS` site — before a
chunk's checkpoint write, or between a checkpoint's temp file and its
atomic rename.  The victim prints its results as JSON.  The harness
then re-runs the victim unarmed against the same directory and asserts
that it prints exactly the clean ``[fn(p) for p in grid]`` list.

Both runs capture the victim's stdout and stderr, which its pool
workers share, so a run returns only once the victim *and* every
worker are gone.

This module sits *above* :mod:`repro.parallel` in the layering (its
victim runs a sweep), which is why :mod:`repro.chaos`'s package
``__init__`` does not import it eagerly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from .crashpoints import CRASHPOINT_ENV, KNOWN_CRASHPOINTS

__all__ = ["KillReport", "victim_fn", "run_victim", "kill_anywhere"]


def victim_fn(x: int) -> tuple:
    """Deterministic per-item work for the victim sweep (module-level
    so pool workers and resumed checkpoints replay identically)."""
    return (x, x * x - 3 * x)


# Two workers and chunks of 3 pin the same chunk layout on any host:
# 9 items make 3 chunks, so the pre-write site is reached 3 times and
# the mid-write site 4 times (the manifest, then each chunk).
_VICTIM_SOURCE = """\
import json
import sys

from repro.chaos.harness import victim_fn
from repro.parallel import sweep

root, n_items = sys.argv[1], int(sys.argv[2])
print(json.dumps(sweep(victim_fn, range(n_items), workers=2, chunk_size=3,
                       checkpoint_dir=root)))
"""


def run_victim(root: Union[str, Path], n_items: int = 9,
               crash_spec: Optional[str] = None,
               timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run one victim subprocess against the checkpoint directory
    ``root``; returns the completed process (``returncode ==
    -SIGKILL`` when the armed crashpoint fired, ``0`` and the results
    as JSON on stdout after a clean finish)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    if crash_spec:
        env[CRASHPOINT_ENV] = crash_spec
    else:
        env.pop(CRASHPOINT_ENV, None)
    return subprocess.run(
        [sys.executable, "-c", _VICTIM_SOURCE, str(root),
         str(int(n_items))],
        env=env, capture_output=True, text=True, timeout=timeout)


@dataclass(frozen=True)
class KillReport:
    """The outcome of one kill-and-resume round."""

    point: str
    count: int
    killed: bool
    resumed: bool
    identical: bool
    note: str = ""

    @property
    def ok(self) -> bool:
        """The round proved recovery: the armed crashpoint killed the
        victim, the resume finished, and its results match the
        uninterrupted reference bit-for-bit.  A round that kills
        nothing (a misspelled site, a hit count the sweep never
        reaches) proves nothing and fails."""
        return self.killed and self.resumed and self.identical

    def describe(self) -> str:
        verdict = "ok" if self.ok else f"FAILED ({self.note or 'mismatch'})"
        death = "killed" if self.killed else "survived"
        return (f"{self.point}:{self.count} -> {death}, "
                f"resume {verdict}")


def kill_anywhere(workdir: Union[str, Path], rounds: int = 6,
                  seed: int = 0, n_items: int = 9,
                  points: Sequence[str] = KNOWN_CRASHPOINTS,
                  max_count: int = 3) -> List[KillReport]:
    """Kill, resume and compare for ``rounds`` (site, count) pairs.

    Round ``k`` arms ``points[k % len(points)]``, so every site is
    armed once ``rounds >= len(points)``; the hit count is drawn from
    ``seed``.  Every round uses a fresh checkpoint directory under
    ``workdir``.  The reference is the clean list comprehension — the
    strongest oracle available, since the sweep's contract is exactly
    ``[fn(p) for p in grid]``.
    """
    workdir = Path(workdir)
    expected = json.dumps([victim_fn(x) for x in range(n_items)])
    rng = np.random.default_rng(seed)
    reports: List[KillReport] = []
    for k in range(rounds):
        point = points[k % len(points)]
        count = int(rng.integers(1, max_count + 1))
        root = workdir / f"round_{k:02d}"
        victim = run_victim(root, n_items=n_items,
                            crash_spec=f"{point}:{count}")
        killed = victim.returncode == -int(signal.SIGKILL)
        if not killed and victim.returncode != 0:
            reports.append(KillReport(
                point, count, killed=False, resumed=False, identical=False,
                note=f"victim exited {victim.returncode}: "
                     f"{victim.stderr.strip()[-400:]}"))
            continue
        resume = run_victim(root, n_items=n_items, crash_spec=None)
        resumed = resume.returncode == 0
        identical = resumed and resume.stdout.strip() == expected
        if not resumed:
            note = (f"resume exited {resume.returncode}: "
                    f"{resume.stderr.strip()[-400:]}")
        elif not identical:
            note = "recovered results differ from reference"
        else:
            note = "" if killed else "the armed crashpoint never fired"
        reports.append(KillReport(point, count, killed=killed,
                                  resumed=resumed, identical=identical,
                                  note=note))
    return reports
