"""Exception hierarchy for the pSTL-Bench reproduction.

All library-raised errors derive from :class:`ReproError`, so callers can
catch one type at an API boundary. Subclasses mirror the major subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied (bad thread count, size...)."""


class MachineError(ReproError):
    """A machine model is inconsistent or an unknown machine was requested."""


class UnknownMachineError(MachineError):
    """Lookup of a machine preset by name failed."""


class BackendError(ReproError):
    """A backend model is inconsistent or an unknown backend was requested."""


class UnknownBackendError(BackendError):
    """Lookup of a backend by name failed."""


class UnsupportedOperationError(BackendError):
    """The backend does not provide a parallel implementation of an algorithm.

    Mirrors the paper's capability gaps: GNU's parallel-mode library has no
    ``inclusive_scan``, and NVC-OMP silently falls back to sequential for
    scans. Whether a gap raises or falls back is a backend capability.
    """


class AllocationError(ReproError):
    """Memory-model allocation failed (e.g., exceeding modeled capacity)."""


class PlacementError(ReproError):
    """Page or thread placement was requested that the topology cannot hold."""


class SimulationError(ReproError):
    """The cost engine was driven with an inconsistent work profile."""


class CounterError(ReproError):
    """Misuse of the hardware-counter APIs (unbalanced start/stop, etc.)."""


class BenchmarkError(ReproError):
    """Benchmark harness misuse (duplicate registration, bad ranges...)."""


class TraceError(ReproError):
    """Tracer misuse (unbalanced begin/end, negative durations...)."""


class CampaignError(ReproError):
    """A benchmark campaign was mis-specified or its on-disk state is bad."""


class FidelityError(ReproError):
    """Paper-fidelity reference data is malformed or a check was misused."""


class ScenarioError(ReproError):
    """A scenario spec is malformed or references unknown registry entries."""


class ServiceError(ReproError):
    """The campaign service was misconfigured or a request failed."""


class QuotaExceededError(ServiceError):
    """A submission was rejected by admission control (HTTP 429).

    Carries the server's suggested ``retry_after`` seconds so clients
    (and the load generator) can implement honest backoff.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        """Wrap the rejection ``message`` with its ``retry_after`` hint."""
        super().__init__(message)
        self.retry_after = retry_after


class RemoteError(ReproError):
    """The multi-host result-shipping protocol hit an unrecoverable state."""


class SegmentError(RemoteError):
    """A shipped journal segment failed verification against its manifest."""


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed (bad rate, unknown site...)."""


class InjectedFaultError(ReproError):
    """A deterministic fault fired inside a campaign worker.

    Raised only by :mod:`repro.faults` injection wrappers, never by the
    model itself, so its presence in a journal/error string is an
    unambiguous marker that a failure was injected rather than organic.
    """
