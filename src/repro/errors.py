"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class TopologyError(ReproError):
    """The network description is malformed or internally inconsistent.

    Examples: a connection routed through an unknown gateway, a gateway
    with a non-positive service rate, or a negative line latency.
    """


class RateVectorError(ReproError):
    """A sending-rate vector has the wrong shape or contains bad values."""


class InfeasibleLoadError(ReproError):
    """An operation requires a stable queue but the offered load is >= 1.

    Raised only by operations that cannot meaningfully return ``inf``
    (for example, sampling a steady-state queue in the simulator
    validation helpers).  The analytic queue laws themselves never raise
    this; they return ``math.inf`` instead.
    """


class ConvergenceError(ReproError):
    """An iterative procedure failed to converge within its budget."""


class NotTimeScaleInvariantError(ReproError):
    """A rate-adjustment rule was required to be TSI but is not."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class ExperimentError(ReproError):
    """An experiment harness was misconfigured or produced no data."""


class FaultError(ReproError):
    """A fault-injection plan or injector is malformed.

    Examples: a loss probability outside [0, 1], a negative delay
    bound, an outage window referencing an unknown gateway, or an
    unparsable ``--faults`` spec string.
    """


class SweepError(ReproError):
    """The resilient sweep executor could not complete the grid.

    Raised for orchestration-level failures: an incompatible checkpoint
    directory, or bad sweep parameters (an unknown executor, negative
    workers, a chunk size below 1, negative retries/timeout).
    Worker-side failures of the swept function raise the more specific
    :class:`WorkerFunctionError`.
    """


class WorkerFunctionError(SweepError):
    """The swept function itself raised inside a worker.

    Deterministic function bugs are not retried — the error propagates
    immediately, annotated with the failing grid index.  The original
    exception is chained as ``__cause__`` when it survived transport
    from the worker.

    Attributes:
        grid_index: position in the grid of the item whose evaluation
            failed.
    """

    def __init__(self, message: str, grid_index: int = -1):
        super().__init__(message)
        self.grid_index = int(grid_index)


class ArtifactError(ReproError, ValueError):
    """An observability artifact or record failed schema validation.

    Also a :class:`ValueError` for backwards compatibility — the
    artifact writer raised bare ``ValueError`` before this class
    existed.
    """


class ScenarioError(ReproError):
    """A fuzzing scenario specification is malformed.

    Examples: mismatched rule/connection counts, an unknown rule or
    signal kind, a weighted discipline without weights, or an
    unparsable serialised :class:`~repro.scenarios.ScenarioSpec`.
    """


class ChaosError(ReproError):
    """A structural chaos plan, adversary, or crashpoint is malformed.

    Examples: a capacity-degradation factor outside (0, 1], a blackhole
    window referencing an unknown gateway, an adversary assignment that
    does not match the connection count, or an unparsable
    ``REPRO_CRASHPOINT`` specification.
    """


class OracleError(ReproError):
    """A differential oracle could not be evaluated.

    Raised for harness-level misuse (an unknown oracle name, an oracle
    invoked on a scenario it does not apply to) — *not* for oracle
    violations, which are data, not exceptions.
    """


class CLIError(ReproError):
    """The command-line front end was invoked inconsistently.

    ``python -m repro`` converts this (like every :class:`ReproError`)
    into a one-line message on stderr and a nonzero exit instead of a
    traceback.
    """
