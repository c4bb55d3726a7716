"""Exception types shared across the package."""


class DriftlabError(Exception):
    """Base class for all package errors."""


class UnassignedPattern(DriftlabError):
    """A sign pattern has neither a piece nor a boundary value."""


class EmptySet(DriftlabError):
    """A convex set operation was asked of an empty vertex list."""


class DegenerateGeometry(DriftlabError):
    """Switching-surface geometry is degenerate (zero normal, corner, ...)."""


class StepTooLarge(DriftlabError):
    """Event bracketing failed; the integration step cannot isolate the crossing."""


class DivergedIterate(DriftlabError):
    """An iterate left the configured blow-up ball."""


class SlopeOverflow(DriftlabError):
    """A path's slope over one of its segments is not a finite number."""


class IndexOutOfRange(DriftlabError):
    """A trace index is outside the recorded range."""


class OutOfDomain(DriftlabError):
    """A query time lies outside the interpolation domain."""


class WindowExceedsTrace(DriftlabError):
    """A tracking window does not fit inside the recorded timescale."""


class EmptyTrace(DriftlabError):
    """An operation needs at least one recorded step."""


class ConfigInvalid(DriftlabError):
    """An experiment config failed validation; message carries the field path."""


class IoFailure(DriftlabError):
    """Reading or writing an artifact file failed."""
