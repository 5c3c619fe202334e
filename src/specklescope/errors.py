"""Exception types raised across the package.

Everything derives from SpeckleScopeError so callers can catch the whole
family at once; most types also subclass ValueError because they signal
bad arguments rather than runtime faults.
"""

from __future__ import annotations

__all__ = [
    "SpeckleScopeError",
    "GeometryError",
    "OrderError",
    "MatrixSizeError",
    "GridCoverageError",
    "DegeneratePixelError",
    "FitError",
    "EmptyEvidenceError",
    "ConfigError",
    "FormatError",
    "OutputError",
]


class SpeckleScopeError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(SpeckleScopeError, ValueError):
    """Invalid source geometry (non-positive gaps, too few sources, ...)."""


class OrderError(SpeckleScopeError, ValueError):
    """Correlation order m outside the supported range for the operation."""


class MatrixSizeError(SpeckleScopeError, ValueError):
    """Permanent requested for a matrix past the configured size cap."""


class GridCoverageError(SpeckleScopeError, ValueError):
    """Detector grid does not cover a required position."""


class DegeneratePixelError(SpeckleScopeError, ValueError):
    """A pixel involved in normalization has zero mean intensity."""


class FitError(SpeckleScopeError, RuntimeError):
    """Spectral fit failed (rank deficiency or non-convergence)."""


class EmptyEvidenceError(SpeckleScopeError, ValueError):
    """Reconstruction attempted with no Present frequencies."""


class ConfigError(SpeckleScopeError, ValueError):
    """Config file could not be parsed or failed validation."""


class FormatError(SpeckleScopeError, ValueError):
    """A run artifact on disk is truncated or malformed."""


class OutputError(SpeckleScopeError):
    """An output file or directory cannot be created or written."""
