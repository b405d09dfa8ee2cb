"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause
while still being able to distinguish configuration problems from runtime
simulation faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent or invalid parameters."""


class NonFiniteInputError(ReproError):
    """Samples or block spectra held NaN or ±inf.

    Raised at the serve ingest boundary before any session state
    changes, and by :meth:`repro.engine.Engine.statistics`,
    :meth:`~repro.engine.Engine.spectra_statistics` and
    :meth:`repro.pipeline.DetectionPipeline.detect` before any plan
    work: a non-finite sample would otherwise yield ``statistic=nan``,
    read as "channel free".
    """


class MappingError(ReproError):
    """A space-time mapping is invalid (non-injective, acausal, or ill-shaped)."""


class SimulationError(ReproError):
    """A hardware simulation reached an illegal state (bad address, overflow...)."""


class ProgramError(SimulationError):
    """A Montium program is malformed or references unavailable resources."""


class MemoryAccessError(SimulationError):
    """An out-of-range or misaligned memory access occurred in a simulated memory."""


class CommunicationError(SimulationError):
    """An inter-tile communication contract was violated (rate, direction, size)."""


class SignalError(ReproError):
    """A signal generator or estimator received an invalid waveform request."""


class CalibrationWarning(RuntimeWarning):
    """A Monte-Carlo calibration is statistically under-sampled.

    Emitted by :func:`repro.core.detection.calibration_quantile` when
    ``trials * pfa < 1``: the empirical ``(1 - pfa)`` quantile then
    extrapolates into the top order statistic, so the calibrated
    threshold's false-alarm rate is essentially unconstrained by the
    data.  Increase ``calibration_trials``, raise ``pfa``, or switch to
    ``calibration="analytic"`` (zero-trial closed-form thresholds).
    """


class EngineFaultError(ReproError):
    """Base class for recoverable execution-engine faults.

    The :class:`~repro.engine.Engine` treats these (and any other
    exception escaping a shard) as retryable: failed shards are re-run
    with capped exponential backoff and ultimately fall back to
    in-process serial execution, bitwise identical to the fault-free
    run.
    """


class ShardTransportError(EngineFaultError):
    """A shared-memory shard transport contract was violated.

    Raised when a worker attaches a segment that has vanished (the
    parent unlinked it, or it was never published) or whose kernel-side
    size no longer covers the descriptor's payload (corruption /
    truncation).  The parent retains the authoritative trial block, so
    the engine recovers by republishing and retrying.
    """


class InjectedFaultError(EngineFaultError):
    """A fault deliberately raised by the fault-injection framework.

    Only ever raised when a :class:`~repro.faults.FaultPlan` is active
    (``repro serve --inject`` or a chaos test); production code paths
    never construct it.
    """


class ServeError(ReproError):
    """Base class for sensing-service (``repro.serve``) failures."""


class ServiceOverloadedError(ServeError):
    """The service shed a request to protect itself.

    Raised when the scheduler's bounded queue is full (backpressure) or
    the service is shutting down with requests still queued.  Clients
    should back off and retry; the server itself stays live.
    """


class DeadlineExceededError(ServeError):
    """A request's deadline expired before its batch executed."""


class SessionStateError(ServeError):
    """A serve session was driven out of protocol.

    Unknown session id, detection requested before a full analysis
    window has been ingested, or ingestion into a closed session.
    """


class CircuitOpenError(ServeError):
    """The service's circuit breaker is open.

    Repeated engine failures tripped the breaker: requests fail fast
    instead of queueing behind a broken engine.  Clients should back
    off for at least the breaker cooldown; the server itself stays
    live and keeps answering ``health``.
    """


class RequestTooLargeError(ServeError):
    """A wire-protocol request line exceeded the server's size limit.

    The server replies with this error and closes the connection
    cleanly (an oversized line cannot be resynchronised mid-stream);
    other connections are unaffected.
    """
