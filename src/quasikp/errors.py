"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`QuasiKpError`, so
callers (and the CLI) can distinguish our diagnostics from genuine bugs.
"""

from __future__ import annotations


class QuasiKpError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QuasiKpError):
    """Invalid run or model configuration.

    Carries the full list of offending fields so a caller can report
    every problem at once instead of fixing them one by one.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class DomainError(QuasiKpError):
    """Argument outside the mathematical domain of a function."""


class ThresholdError(QuasiKpError):
    """Energy too close to a transverse channel threshold (singular limit)."""


class PoleError(QuasiKpError):
    """Open-channel lattice sum evaluated at one of its poles.

    ``channel`` is the open channel whose pole was hit, or None when the
    caller only saw the NaN the vectorised sum returns there.
    """

    def __init__(self, message: str, channel: int | None):
        self.channel = channel
        super().__init__(message)


class ResonanceError(QuasiKpError):
    """Scattering length queried inside a resonance interval where it diverges."""


class GridError(QuasiKpError):
    """Radial grid unable to deliver the requested phase-shift accuracy."""


class RootError(QuasiKpError):
    """Root bracketing or bracket refinement failed to converge."""


class FitRankError(QuasiKpError):
    """Polynomial band fit is rank deficient."""


class OracleError(QuasiKpError):
    """Brute-force cross-check could not reach its own accuracy target."""


class PrecisionWarning(RuntimeWarning):
    """A series or sum was truncated before reaching its tolerance."""
