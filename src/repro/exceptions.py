"""Exception hierarchy for the repro package.

All errors raised deliberately by this library derive from
:class:`ReproError` so that callers can catch library failures without
masking programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidTrajectoryError(ReproError):
    """A trajectory violates a structural requirement (e.g. empty)."""


class GridError(ReproError):
    """A grid parameter is invalid (non power-of-two resolution, etc.)."""


class UnsupportedMeasureError(ReproError):
    """The requested similarity measure is unknown or unsupported here.

    Mirrors the paper's compatibility matrix: e.g. DITA does not support
    Hausdorff, so asking the DITA baseline for Hausdorff raises this.
    """


class IndexNotBuiltError(ReproError):
    """A query was issued against an index that has not been built."""


class PartitioningError(ReproError):
    """A partitioning strategy produced an invalid partition assignment."""


class TaskFailedError(ReproError):
    """A dispatched partition task failed terminally.

    Raised by fail-fast call sites (the index build,
    :func:`~repro.cluster.engine.require_results`) when a task
    exhausted its retry budget
    — or, with no :class:`~repro.cluster.engine.FaultPolicy`, when a
    process worker death broke the persistent pool.  The planner paths
    degrade gracefully instead: see
    :class:`PartialResultError` and ``QueryOutcome.complete``.
    """


class PartialResultError(ReproError):
    """A query outcome is incomplete and the caller demanded certainty.

    Raised by ``QueryOutcome.require_complete()`` /
    ``BatchOutcome.require_complete()`` when some partitions exhausted
    their retries; the outcome object still carries the best-effort
    result, the failed partition ids, and the exactness verdict.
    """


class ServiceClosedError(ReproError):
    """A request was submitted to a ReposeService that is shut down.

    Raised by ``ReposeService.submit()``/``insert()`` after ``stop()``
    has been requested, and set on still-pending request futures when
    the service stops without draining.
    """
