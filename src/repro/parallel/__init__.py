"""Deterministic, resilient parallel sweep runner for grid workloads.

Most experiments are embarrassingly parallel sweeps: evaluate one
deterministic function over a parameter grid (gains, connection counts,
design configurations) and collect the results *in grid order*.
:func:`sweep` runs such a grid over a :mod:`concurrent.futures` pool
with deterministic chunking — the grid is split into contiguous chunks,
every chunk is evaluated in order within one worker, and the results
are reassembled in the original grid order, so the output is identical
to ``[fn(p) for p in grid]`` regardless of worker count, executor kind,
scheduling jitter, retries, or resume.

Resilience (all opt-in, all deterministic in the result):

* **Error classification** — an exception raised by ``fn`` itself is a
  *function* error: it is never retried (deterministic functions fail
  deterministically) and propagates immediately as
  :class:`~repro.errors.WorkerFunctionError`, annotated with the
  failing grid index and chaining the original exception.  Everything
  else — broken pools, timeouts, pickling failures — is an
  *infrastructure* error and never loses completed work.
* **Retries with backoff** — chunks that fail for infrastructure
  reasons are retried up to ``retries`` times on a fresh pool, sleeping
  ``backoff * 2**round`` between rounds.
* **Per-chunk timeout** — ``timeout`` bounds the wait for each chunk's
  result; a timed-out chunk counts as an infrastructure failure.
* **Salvage** — when retries are exhausted (or the failure is known to
  be deterministic, e.g. unpicklable work), only the *still-failing*
  chunks are recomputed serially on the calling thread; completed
  chunks are kept.
* **Checkpoint/resume** — ``checkpoint_dir`` persists each completed
  chunk to disk (atomically); a re-invocation with the same grid shape
  and directory loads completed chunks instead of recomputing them, so
  an interrupted sweep — even one SIGKILLed mid-write — resumes where
  it died and finishes with results identical to an uninterrupted run.
  ``repro run --resume`` and the kill-anywhere harness
  (:mod:`repro.chaos.harness`) resume through it.  Process-pool workers
  end themselves when the sweep process dies, so a killed sweep leaves
  no orphans behind.

Guidance:

* ``executor="process"`` (the default) gives true CPU parallelism but
  requires ``fn``, the grid items, and the results to be picklable —
  use module-level functions, not lambdas or closures.
* ``executor="thread"`` has no pickling constraints and works well when
  ``fn`` spends its time in numpy (which releases the GIL).
* ``executor="serial"`` (or ``workers<=1``) runs the plain list
  comprehension; it is also the automatic fallback when a pool cannot
  be created (restricted sandboxes, unpicklable work).

The batched trajectory engine (:meth:`FlowControlSystem.run_ensemble
<repro.core.dynamics.FlowControlSystem.run_ensemble>`) is preferred
when the grid points share one system — vectorisation beats process
pools there.  :func:`sweep` is for grids where each point builds a
*different* system or analysis.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import json
import math
import os
import pickle
import threading
import time
import warnings
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ..chaos.crashpoints import crashpoint
from ..errors import SweepError, WorkerFunctionError
from ..observability import (SweepRecord, collect, emit_run_record,
                             emit_sweep_record, is_collecting)

__all__ = ["sweep", "chunk_indices", "CHECKPOINT_SCHEMA"]

#: Schema identifier embedded in every checkpoint manifest.
CHECKPOINT_SCHEMA = "repro.sweep-checkpoint/v1"

#: Infrastructure failures worth retrying: a fresh pool (or more time)
#: can plausibly fix these.  Anything else infra-side is treated as
#: deterministic (unpicklable work, sandbox restrictions) and goes
#: straight to the serial salvage path without burning retry rounds.
_RETRYABLE = (TimeoutError, concurrent.futures.BrokenExecutor, OSError,
              MemoryError)


def _retry_backoff(backoff: float, round_index: int, seed) -> float:
    """Seconds to sleep before retry round ``round_index`` (1-based).

    Exponential base ``backoff * 2**(round_index - 1)`` scaled by a
    seeded jitter factor in ``[0.5, 1.5)`` — jitter decorrelates
    workers retrying against the same contended resource, and seeding
    it (``default_rng(seed)``, where the caller folds the sweep seed
    and round into ``seed``) keeps the whole retry schedule
    reproducible from the sweep seed alone.
    """
    base = backoff * (2 ** (round_index - 1))
    if base <= 0:
        return 0.0
    jitter = np.random.default_rng(seed).random()
    return base * (0.5 + jitter)


def chunk_indices(n_items: int, n_chunks: int) -> List[range]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous
    ranges whose sizes differ by at most one.

    Deterministic: depends only on the two counts.  Used by
    :func:`sweep` so that a given grid always maps to the same chunks
    (which is also what makes checkpoints resumable).
    """
    if n_items < 0:
        raise SweepError(f"item count must be >= 0, got {n_items!r}")
    if n_chunks < 1:
        raise SweepError(f"chunk count must be >= 1, got {n_chunks!r}")
    n_chunks = min(n_chunks, max(1, n_items))
    base, extra = divmod(n_items, n_chunks)
    out = []
    start = 0
    for k in range(n_chunks):
        size = base + (1 if k < extra else 0)
        if size == 0:
            break
        out.append(range(start, start + size))
        start += size
    return out


def _run_chunk(fn: Callable, items: list) -> list:
    """Evaluate one contiguous chunk, in order (module-level so process
    pools can pickle it)."""
    return [fn(item) for item in items]


def _run_chunk_timed(fn: Callable, items: list) -> tuple:
    """Like :func:`_run_chunk`, but also reports the in-worker wall
    time so :class:`~repro.observability.SweepRecord` can derive
    per-chunk cost and worker utilisation."""
    start = time.perf_counter()
    out = [fn(item) for item in items]
    return out, time.perf_counter() - start


def _run_chunk_guarded(fn: Callable, items: list, first_index: int,
                       capture: bool = False) -> tuple:
    """Worker-side chunk evaluation with error classification.

    Returns ``("ok", results, elapsed, run_records)``, or ``("error",
    grid_index, exception, repr)`` when ``fn`` itself raised — the
    caller turns that into an immediate :class:`WorkerFunctionError`
    instead of a retry.  (If the exception object cannot travel back
    through the pool, the chunk degrades to an infrastructure failure
    and the serial salvage path re-raises the original error directly.)

    ``capture`` runs the chunk inside its own
    :func:`~repro.observability.collect` session and returns the
    :class:`~repro.observability.RunRecord` s it emitted, so records
    made in a worker process reach the caller's session; otherwise
    ``run_records`` is empty.
    """
    start = time.perf_counter()
    out = []
    with collect() if capture else nullcontext() as session:
        for offset, item in enumerate(items):
            try:
                out.append(fn(item))
            except Exception as exc:
                return ("error", first_index + offset, exc, repr(exc))
    records = session.run_records if capture else []
    return ("ok", out, time.perf_counter() - start, records)


def _exit_with_parent() -> None:
    """Process-pool initializer: end this worker once the process that
    started it is gone.

    A sweep process that dies without shutting its pool down (SIGKILL,
    the OOM killer) leaves its workers waiting on the task queue
    forever, holding its stdout/stderr pipes open, so a caller reading
    them never sees EOF.  The kernel reparents an orphan, so a change
    of parent pid is the death notice.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _raise_worker_error(grid_index: int, rep: str, original) -> None:
    raise WorkerFunctionError(
        f"sweep function raised at grid index {grid_index}: {rep}",
        grid_index=grid_index) from original


def _pinned_layout(manifest, n_items: int) -> Optional[List[range]]:
    """The chunks a checkpoint manifest pins for an ``n_items`` grid,
    or None when it belongs to another grid or its layout is malformed."""
    if not (isinstance(manifest, dict)
            and manifest.get("schema") == CHECKPOINT_SCHEMA
            and manifest.get("n_items") == n_items):
        return None
    sizes = manifest.get("chunk_sizes")
    if not (isinstance(sizes, list)
            and all(type(size) is int and size >= 1 for size in sizes)
            and sum(sizes) == n_items):
        return None
    starts = itertools.accumulate(sizes, initial=0)
    return [range(start, start + size)
            for start, size in zip(starts, sizes)]


class _Checkpoint:
    """On-disk per-chunk results of one sweep (see ``checkpoint_dir``).

    Layout: ``manifest.json`` pins the grid shape (item count and
    chunk sizes); ``chunk_NNNNN.pkl`` holds each completed chunk's
    results.  Writes are atomic (tmp file + rename), so a sweep killed
    mid-write never leaves a corrupt chunk behind — at worst the chunk
    is recomputed.

    With ``adopt_layout`` an existing manifest for the same item count
    supplies the chunks (``self.chunks``) in place of ``chunks``: the
    default layout follows the core count, which may differ on the
    host that resumes.
    """

    def __init__(self, directory: Union[str, Path], n_items: int,
                 chunks: List[range], adopt_layout: bool):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = {"schema": CHECKPOINT_SCHEMA, "n_items": n_items,
                    "chunk_sizes": [len(r) for r in chunks]}
        path = self.directory / "manifest.json"
        if path.exists():
            try:
                existing = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise SweepError(
                    f"unreadable sweep checkpoint manifest {path}: "
                    f"{exc!r}") from exc
            pinned = (_pinned_layout(existing, n_items) if adopt_layout
                      else None)
            if pinned is not None:
                chunks = pinned
            elif existing != manifest:
                raise SweepError(
                    f"checkpoint directory {self.directory} belongs to a "
                    f"different sweep (manifest {existing!r} != "
                    f"{manifest!r}); point --resume/checkpoint_dir at a "
                    f"fresh directory")
        else:
            self._atomic_write(path, json.dumps(manifest, indent=2),
                               binary=False)
        self.chunks = chunks

    def _chunk_path(self, k: int) -> Path:
        return self.directory / f"chunk_{k:05d}.pkl"

    def _atomic_write(self, path: Path, payload, binary: bool) -> None:
        tmp = path.with_name(path.name + ".tmp")
        mode = "wb" if binary else "w"
        with tmp.open(mode) as handle:
            handle.write(payload)
        crashpoint("sweep-checkpoint-mid-write")
        os.replace(tmp, path)

    def load(self) -> dict:
        """``{chunk index: results}`` for every valid completed chunk."""
        loaded = {}
        for k, r in enumerate(self.chunks):
            path = self._chunk_path(k)
            if not path.exists():
                continue
            try:
                with path.open("rb") as handle:
                    payload = pickle.load(handle)
            except Exception:  # truncated / corrupt — recompute
                continue
            if (isinstance(payload, dict) and payload.get("chunk") == k
                    and isinstance(payload.get("results"), list)
                    and len(payload["results"]) == len(r)):
                loaded[k] = payload["results"]
        return loaded

    def write(self, k: int, results: list) -> None:
        crashpoint("sweep-checkpoint-pre-write")
        self._atomic_write(self._chunk_path(k),
                           pickle.dumps({"chunk": k, "results": results}),
                           binary=True)


def sweep(fn: Callable, grid: Sequence, workers: Optional[int] = None,
          executor: str = "process",
          chunk_size: Optional[int] = None,
          timeout: Optional[float] = None,
          retries: int = 2,
          backoff: float = 0.5,
          checkpoint_dir: Optional[Union[str, Path]] = None,
          seed: int = 0) -> list:
    """Evaluate ``fn`` over ``grid``, in parallel, deterministically.

    Args:
        fn: the per-point function.  With the (default) process
            executor it must be picklable — a module-level function.
        grid: the parameter points; results come back in this order.
        workers: pool size.  ``None`` uses ``os.cpu_count()``; ``0`` or
            ``1`` runs serially.
        executor: ``"process"``, ``"thread"``, or ``"serial"``.
        chunk_size: points per task.  ``None`` splits the grid into
            ``4 * workers`` contiguous chunks (enough slack for uneven
            point costs without drowning in task overhead), or resumes
            on the chunks a ``checkpoint_dir`` manifest pins.
        timeout: per-chunk result wait in seconds; a timed-out chunk
            counts as an infrastructure failure (retried, then salvaged
            serially).  ``None`` waits forever.
        retries: infrastructure-failure retry rounds before the serial
            salvage kicks in (function errors are never retried).
        backoff: base of the exponential sleep between retry rounds
            (``backoff * 2**round`` seconds, jittered — see ``seed``).
        checkpoint_dir: directory for per-chunk checkpoints; pass the
            same directory again to resume an interrupted sweep (the
            manifest is checked: the item count must match, and so
            must the layout of an explicit ``chunk_size``).
        seed: seeds the retry backoff's jitter stream
            (``default_rng([seed, round])``), so the exact sleep
            schedule of a retried sweep is reproducible from the sweep
            seed; it does not affect the results, which are
            deterministic regardless.

    Returns:
        ``[fn(p) for p in grid]`` — exactly, whatever the parallelism,
        the retries, or the resume history.

    Raises:
        WorkerFunctionError: ``fn`` itself raised; the original
            exception is chained and the failing grid index attached.
        SweepError: the checkpoint directory belongs to a different
            sweep, or a parameter is malformed (an unknown
            ``executor``, ``workers < 0``, ``chunk_size < 1``, or a bad
            resilience parameter).

    When an :func:`repro.observability.collect` session is active, a
    :class:`~repro.observability.SweepRecord` with per-chunk in-worker
    timing, worker utilisation, retry/salvage/resume counts, and any
    serial-fallback reason is emitted; the result list is unaffected.
    The :class:`~repro.observability.RunRecord` s that ``fn`` emits in
    process workers travel back with each chunk's results and reach
    the session too, in grid order.
    """
    items = list(grid)
    if executor not in ("process", "thread", "serial"):
        raise SweepError(
            f"executor must be 'process', 'thread', or 'serial', "
            f"got {executor!r}")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise SweepError(f"workers must be >= 0, got {workers!r}")
    if timeout is not None and not timeout > 0:
        raise SweepError(f"timeout must be > 0 seconds, got {timeout!r}")
    if not (isinstance(retries, int) and retries >= 0):
        raise SweepError(f"retries must be an int >= 0, got {retries!r}")
    if not backoff >= 0:
        raise SweepError(f"backoff must be >= 0, got {backoff!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SweepError(f"seed must be an int >= 0, got {seed!r}")
    rec = (SweepRecord(n_items=len(items), executor=executor,
                       workers=workers) if is_collecting() else None)
    wall_start = time.perf_counter()

    def run_serial(fallback_reason: Optional[str] = None) -> list:
        if rec is None:
            return _run_chunk(fn, items)
        out, elapsed = _run_chunk_timed(fn, items)
        rec.serial = True
        rec.fallback_reason = fallback_reason
        rec.n_chunks = 1 if items else 0
        rec.chunk_sizes = [len(items)] if items else []
        rec.chunk_seconds = [elapsed] if items else []
        rec.finalise(time.perf_counter() - wall_start, 1)
        emit_sweep_record(rec)
        return out

    serial_only = (executor == "serial" or workers <= 1
                   or len(items) <= 1)
    if serial_only and checkpoint_dir is None:
        # The legacy fast path: one pass, no chunk bookkeeping.
        return run_serial()

    if chunk_size is not None:
        if chunk_size < 1:
            raise SweepError(
                f"chunk_size must be >= 1, got {chunk_size!r}")
        n_chunks = max(1, math.ceil(len(items) / chunk_size))
    else:
        n_chunks = 4 * max(1, workers)
    chunks = chunk_indices(len(items), n_chunks)

    ckpt = None
    if checkpoint_dir is not None:
        ckpt = _Checkpoint(checkpoint_dir, len(items), chunks,
                           adopt_layout=chunk_size is None)
        chunks = ckpt.chunks
    results: List[Optional[list]] = [None] * len(chunks)
    seconds = [0.0] * len(chunks)
    worker_records: List[list] = [[] for _ in chunks]
    resumed: List[int] = []
    if ckpt is not None:
        for k, out in sorted(ckpt.load().items()):
            results[k] = out
            resumed.append(k)
    pending = [k for k in range(len(chunks)) if results[k] is None]

    salvage_reason: Optional[str] = None
    retry_rounds = 0
    salvaged: List[int] = []
    pool_completed = 0

    if not serial_only and pending:
        if executor == "process":
            pool_cls = functools.partial(
                concurrent.futures.ProcessPoolExecutor,
                initializer=_exit_with_parent)
        else:
            pool_cls = concurrent.futures.ThreadPoolExecutor
        round_index = 0
        while pending:
            if round_index > 0:
                if round_index > retries:
                    break  # retry budget spent — salvage the rest
                time.sleep(_retry_backoff(backoff, round_index,
                                          [seed, round_index]))
                retry_rounds += 1
            round_index += 1
            try:
                pool = pool_cls(max_workers=min(workers, len(pending)))
            except Exception as exc:  # sandbox forbids pools entirely
                salvage_reason = repr(exc)
                break
            failed: List[int] = []
            round_reason: Optional[str] = None
            retryable = True
            dirty = False  # a timed-out worker may still be running
            futures = {}
            try:
                for k in pending:
                    futures[k] = _submit(pool, fn,
                                         [items[i] for i in chunks[k]],
                                         chunks[k].start)
            except Exception as exc:
                pool.shutdown(wait=False, cancel_futures=True)
                salvage_reason = repr(exc)
                break
            for k in pending:
                try:
                    payload = futures[k].result(timeout=timeout)
                except _RETRYABLE as exc:
                    failed.append(k)
                    round_reason = repr(exc)
                    if isinstance(exc, TimeoutError):
                        futures[k].cancel()
                        dirty = True
                    continue
                except Exception as exc:
                    # Deterministic infrastructure failure (e.g. the
                    # work does not pickle): retrying cannot help.
                    failed.append(k)
                    round_reason = repr(exc)
                    retryable = False
                    continue
                if payload[0] == "error":
                    pool.shutdown(wait=False, cancel_futures=True)
                    _, grid_index, original, rep = payload
                    _raise_worker_error(grid_index, rep, original)
                _, out, elapsed, worker_records[k] = payload
                results[k] = out
                seconds[k] = elapsed
                pool_completed += 1
                if ckpt is not None:
                    ckpt.write(k, out)
            pool.shutdown(wait=not dirty, cancel_futures=True)
            pending = failed
            if pending and not retryable:
                salvage_reason = round_reason
                break
            if pending:
                salvage_reason = round_reason

    # Run records made in worker processes are emitted in grid order.  A
    # chunk completed on this thread emits its records live, so the
    # records of every chunk before it go out first.
    emitted = 0

    def emit_records_before(k: int) -> None:
        nonlocal emitted
        for records in worker_records[emitted:k]:
            for record in records:
                emit_run_record(record)
        emitted = max(emitted, k)

    if pending:
        # Serial completion: the deliberate serial+checkpoint path, or
        # the salvage of chunks that kept failing for infra reasons.
        if salvage_reason is not None:
            warnings.warn(
                f"parallel sweep fell back to serial execution for "
                f"{len(pending)} of {len(chunks)} chunk(s): "
                f"{salvage_reason}", RuntimeWarning, stacklevel=2)
            salvaged = list(pending)
        for k in pending:
            emit_records_before(k)
            payload = _run_chunk_guarded(fn, [items[i] for i in chunks[k]],
                                         chunks[k].start)
            if payload[0] == "error":
                _, grid_index, original, rep = payload
                _raise_worker_error(grid_index, rep, original)
            _, out, elapsed, _ = payload
            results[k] = out
            seconds[k] = elapsed
            if ckpt is not None:
                ckpt.write(k, out)

    emit_records_before(len(chunks))
    out: list = []
    for piece in results:
        out.extend(piece)
    if rec is not None:
        if (pool_completed == 0 and not resumed
                and len(salvaged) == len(chunks)):
            # The whole grid ran on the calling thread: report one
            # logical chunk, exactly like the plain serial path.
            rec.n_chunks = 1
            rec.chunk_sizes = [len(items)]
            rec.chunk_seconds = [sum(seconds)]
        else:
            rec.n_chunks = len(chunks)
            rec.chunk_sizes = [len(r) for r in chunks]
            rec.chunk_seconds = seconds
        rec.serial = pool_completed == 0
        rec.fallback_reason = salvage_reason
        rec.retry_rounds = retry_rounds
        rec.salvaged_chunks = salvaged
        rec.resumed_chunks = resumed
        rec.finalise(time.perf_counter() - wall_start,
                     min(workers, len(chunks)) if pool_completed else 1)
        emit_sweep_record(rec)
    return out


def _submit(pool, fn: Callable, chunk_items: list, first_index: int):
    """Submit one chunk to the pool (separate function so tests can
    inject infrastructure failures deterministically).

    A worker process cannot reach the caller's collector sessions, so
    while one is active each process chunk collects its own run
    records and returns them with its results.  Thread workers share
    the caller's sessions and emit directly.
    """
    capture = (is_collecting() and
               isinstance(pool, concurrent.futures.ProcessPoolExecutor))
    return pool.submit(_run_chunk_guarded, fn, chunk_items, first_index,
                       capture)
