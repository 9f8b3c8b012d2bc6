"""Structured records of engine runs and parallel sweeps.

:class:`RunRecord` captures what happened *inside* one
``FlowControlSystem.run`` or ``run_ensemble`` call: the per-iteration
sup-norm residuals, the history of the convergence/divergence masks
(stored compactly as ``(step, member, outcome)`` events plus cumulative
counts), and wall time per engine phase.  :class:`SweepRecord` captures
one :func:`repro.parallel.sweep` call: chunking, per-chunk timing,
worker utilisation, and the serial-fallback reason if the pool could
not be used.

Both serialise to JSON-safe dictionaries (non-finite floats become
``None``) and validate against the hand-rolled schema in
:func:`validate_run_record` — no external schema library is required.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["RUN_RECORD_SCHEMA", "RunRecord", "SweepRecord",
           "validate_run_record", "json_safe_float"]

#: Schema identifier embedded in every serialised record.
RUN_RECORD_SCHEMA = "repro.run-record/v1"


def json_safe_float(value) -> Optional[float]:
    """A float that strict JSON can hold: non-finite becomes ``None``."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


@dataclass
class RunRecord:
    """Per-iteration observables of one trajectory or ensemble run.

    Attributes:
        kind: ``"run"`` (single trajectory), ``"ensemble"``, or
            ``"async_ensemble"`` (the batched asynchronous engine).
        n_members: ensemble size (1 for a scalar run).
        n_connections: state dimension N.
        max_steps / tol / settle: the run parameters, for provenance.
        residuals: per-iteration sup-norm change, maximised over the
            members still iterating (length = number of steps taken).
        active_members: per-iteration count of members still iterating
            *after* that step's masking.
        converged_counts / diverged_counts: per-iteration cumulative
            counts — together with ``mask_events`` they reconstruct the
            full convergence/divergence mask history.
        mask_events: ``(step, member, outcome)`` triples recording the
            exact step each member left the active set.
        fault_events: ``(step, member, connection, kind, detail)``
            tuples — one per perturbation a
            :class:`~repro.faults.FaultPlan` injected into the run
            (empty for fault-free runs).
        outcome_counts: final tally per outcome name.
        steps: total number of map applications performed.
        phase_seconds: wall time per engine phase: ``"step"`` for a
            scalar run, ``"step_batch"`` and ``"classify"`` for the
            ensembles, and ``"period_detection"`` whenever a limit
            cycle was searched for.
        wall_seconds: total wall time of the call.
        n_blocks: number of member blocks the ensemble was executed in
            (1 for unblocked runs and scalar trajectories).
        block_size: the block size used when the run was blocked,
            ``None`` otherwise.  For blocked runs the per-iteration
            series are the concatenation of the per-block series in
            block order (each block streams its own reductions).
    """

    kind: str
    n_members: int
    n_connections: int
    max_steps: int
    tol: float
    settle: int
    residuals: List[float] = field(default_factory=list)
    active_members: List[int] = field(default_factory=list)
    converged_counts: List[int] = field(default_factory=list)
    diverged_counts: List[int] = field(default_factory=list)
    mask_events: List[Tuple[int, int, str]] = field(default_factory=list)
    fault_events: List[Tuple[int, int, int, str, float]] = \
        field(default_factory=list)
    outcome_counts: Dict[str, int] = field(default_factory=dict)
    steps: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    n_blocks: int = 1
    block_size: Optional[int] = None
    _started: float = field(default=0.0, repr=False)

    @classmethod
    def begin(cls, kind: str, n_members: int, n_connections: int,
              max_steps: int, tol: float, settle: int) -> "RunRecord":
        rec = cls(kind=kind, n_members=n_members,
                  n_connections=n_connections, max_steps=max_steps,
                  tol=tol, settle=settle)
        rec._started = time.perf_counter()
        return rec

    def add_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = \
            self.phase_seconds.get(phase, 0.0) + float(seconds)

    def observe_iteration(self, residual: float, active: int,
                          converged: int, diverged: int) -> None:
        self.residuals.append(float(residual))
        self.active_members.append(int(active))
        self.converged_counts.append(int(converged))
        self.diverged_counts.append(int(diverged))

    def observe_iterations(self, residuals, active, converged,
                           diverged) -> None:
        """:meth:`observe_iteration` for each entry of four equally
        long arrays, in order."""
        self.residuals.extend(np.asarray(residuals, dtype=float).tolist())
        self.active_members.extend(np.asarray(active, dtype=int).tolist())
        self.converged_counts.extend(
            np.asarray(converged, dtype=int).tolist())
        self.diverged_counts.extend(np.asarray(diverged, dtype=int).tolist())

    def observe_mask_event(self, step: int, member: int,
                           outcome: str) -> None:
        self.mask_events.append((int(step), int(member), str(outcome)))

    def observe_fault_event(self, step: int, member: int, connection: int,
                            kind: str, detail: float) -> None:
        self.fault_events.append((int(step), int(member),
                                  int(connection), str(kind),
                                  float(detail)))

    def finish(self, steps: int, outcome_counts: Dict[str, int]) -> None:
        self.steps = int(steps)
        self.outcome_counts = {str(k): int(v)
                               for k, v in outcome_counts.items()}
        self.wall_seconds = time.perf_counter() - self._started

    # -- convenience views --------------------------------------------
    def convergence_mask_history(self) -> List[List[bool]]:
        """Reconstruct the per-step converged mask from the events.

        Entry ``[t][m]`` is True when member ``m`` had converged by step
        ``t + 1`` (steps are 1-based in ``mask_events``).
        """
        return self._mask_history("converged")

    def divergence_mask_history(self) -> List[List[bool]]:
        """Reconstruct the per-step diverged mask from the events."""
        return self._mask_history("diverged")

    def _mask_history(self, outcome: str) -> List[List[bool]]:
        n_steps = len(self.residuals)
        mask = [False] * self.n_members
        history = []
        events = {(s, m) for s, m, o in self.mask_events if o == outcome}
        for t in range(1, n_steps + 1):
            for m in range(self.n_members):
                if (t, m) in events:
                    mask[m] = True
            history.append(list(mask))
        return history

    def to_dict(self) -> dict:
        return {
            "schema": RUN_RECORD_SCHEMA,
            "kind": self.kind,
            "n_members": self.n_members,
            "n_connections": self.n_connections,
            "max_steps": self.max_steps,
            "tol": self.tol,
            "settle": self.settle,
            "steps": self.steps,
            "residuals": [json_safe_float(x) for x in self.residuals],
            "active_members": list(self.active_members),
            "converged_counts": list(self.converged_counts),
            "diverged_counts": list(self.diverged_counts),
            "mask_events": [[s, m, o] for s, m, o in self.mask_events],
            "fault_events": [[s, m, c, k, json_safe_float(v)]
                             for s, m, c, k, v in self.fault_events],
            "outcome_counts": dict(self.outcome_counts),
            "phase_seconds": {k: json_safe_float(v)
                              for k, v in self.phase_seconds.items()},
            "wall_seconds": json_safe_float(self.wall_seconds),
            "n_blocks": self.n_blocks,
            "block_size": self.block_size,
        }


@dataclass
class SweepRecord:
    """What one :func:`repro.parallel.sweep` call did and how long.

    Attributes:
        n_items: grid size.
        executor: requested executor kind.
        workers: requested pool size.
        n_chunks: number of contiguous chunks the grid was split into.
        chunk_sizes: items per chunk, in grid order.
        chunk_seconds: in-worker wall time per chunk, in grid order.
        wall_seconds: end-to-end wall time of the sweep call.
        worker_utilisation: ``sum(chunk_seconds) / (workers * wall)``
            — 1.0 means the pool never idled; serial runs report the
            single-worker value.
        serial: True when the work ran on the calling thread.
        fallback_reason: ``repr`` of the exception that forced the
            serial fallback, or ``None`` when no fallback happened.
        retry_rounds: infrastructure-failure retry rounds taken.
        salvaged_chunks: chunk indices recomputed serially after the
            pool kept failing on them.
        resumed_chunks: chunk indices loaded from a checkpoint
            directory instead of being recomputed.
    """

    n_items: int
    executor: str
    workers: int
    n_chunks: int = 0
    chunk_sizes: List[int] = field(default_factory=list)
    chunk_seconds: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    worker_utilisation: float = 0.0
    serial: bool = False
    fallback_reason: Optional[str] = None
    retry_rounds: int = 0
    salvaged_chunks: List[int] = field(default_factory=list)
    resumed_chunks: List[int] = field(default_factory=list)

    def finalise(self, wall_seconds: float, effective_workers: int) -> None:
        self.wall_seconds = float(wall_seconds)
        busy = sum(self.chunk_seconds)
        denom = max(1, effective_workers) * max(self.wall_seconds, 1e-12)
        self.worker_utilisation = min(1.0, busy / denom) if busy else 0.0

    def to_dict(self) -> dict:
        return {
            "schema": RUN_RECORD_SCHEMA,
            "kind": "sweep",
            "n_items": self.n_items,
            "executor": self.executor,
            "workers": self.workers,
            "n_chunks": self.n_chunks,
            "chunk_sizes": list(self.chunk_sizes),
            "chunk_seconds": [json_safe_float(x)
                              for x in self.chunk_seconds],
            "wall_seconds": json_safe_float(self.wall_seconds),
            "worker_utilisation": json_safe_float(self.worker_utilisation),
            "serial": bool(self.serial),
            "fallback_reason": self.fallback_reason,
            "retry_rounds": int(self.retry_rounds),
            "salvaged_chunks": [int(k) for k in self.salvaged_chunks],
            "resumed_chunks": [int(k) for k in self.resumed_chunks],
        }


def _type_error(errors, where, value, expected):
    errors.append(f"{where}: expected {expected}, "
                  f"got {type(value).__name__}")


def validate_run_record(data: dict, where: str = "record") -> List[str]:
    """Schema check for a serialised :class:`RunRecord` or
    :class:`SweepRecord`; returns a list of violations (empty = valid).
    """
    errors: List[str] = []
    if not isinstance(data, dict):
        _type_error(errors, where, data, "dict")
        return errors
    if data.get("schema") != RUN_RECORD_SCHEMA:
        errors.append(f"{where}.schema: expected {RUN_RECORD_SCHEMA!r}, "
                      f"got {data.get('schema')!r}")
    kind = data.get("kind")
    if kind == "sweep":
        required = {"n_items": int, "executor": str, "workers": int,
                    "n_chunks": int, "chunk_sizes": list,
                    "chunk_seconds": list, "serial": bool}
    elif kind in ("run", "ensemble", "async_ensemble"):
        required = {"n_members": int, "n_connections": int,
                    "max_steps": int, "steps": int, "residuals": list,
                    "active_members": list, "converged_counts": list,
                    "diverged_counts": list, "mask_events": list,
                    "outcome_counts": dict, "phase_seconds": dict}
    else:
        errors.append(f"{where}.kind: expected 'run', 'ensemble', "
                      f"'async_ensemble', or 'sweep', got {kind!r}")
        return errors
    for key, typ in required.items():
        if key not in data:
            errors.append(f"{where}.{key}: missing")
        elif not isinstance(data[key], typ):
            _type_error(errors, f"{where}.{key}", data[key], typ.__name__)
    if kind in ("run", "ensemble"):
        lengths = {key: len(data[key]) for key in
                   ("residuals", "active_members", "converged_counts",
                    "diverged_counts") if isinstance(data.get(key), list)}
        if len(set(lengths.values())) > 1:
            errors.append(f"{where}: per-iteration series have mismatched "
                          f"lengths {lengths}")
        # Optional fault-event channel (absent in pre-fault records).
        fault_events = data.get("fault_events")
        if fault_events is not None:
            if not isinstance(fault_events, list):
                _type_error(errors, f"{where}.fault_events", fault_events,
                            "list")
            else:
                for k, event in enumerate(fault_events):
                    if not (isinstance(event, list) and len(event) == 5):
                        errors.append(
                            f"{where}.fault_events[{k}]: expected "
                            f"[step, member, connection, kind, detail]")
                        break
    return errors
