"""Exception hierarchy for the design toolkit."""

import math


class QpmDesignError(Exception):
    """Base class for all toolkit errors."""


class OutOfRange(QpmDesignError):
    """Requested wavelength/temperature outside a model's validated domain."""


class Infeasible(QpmDesignError):
    """A physically infeasible design: the CLI exits 2 (other errors 1)."""


class NoGuidedMode(Infeasible):
    """The waveguide does not support a fundamental mode at the requested
    wavelength (no interior maximum of the effective-index functional)."""


class NonPositiveFrequency(Infeasible):
    """An index combination yields a non-positive QPM spatial frequency."""


class DegenerateModulation(Infeasible):
    """K1 = K2: the modulation period diverges, a single-period grating
    suffices and the dual-period construction is undefined."""


class DegenerateGroupIndices(Infeasible):
    """Group-index difference too small; bandwidth formally unbounded."""


class FilterTooWide(QpmDesignError):
    """Bandpass filter wider than the narrower process bandwidth."""


class UndefinedGamma(QpmDesignError):
    """Both process amplitudes vanish; entanglement degree undefined."""


class ConfigError(QpmDesignError):
    """Invalid or inconsistent run configuration."""


def is_number(value) -> bool:
    """A finite int or float (bool excluded; numpy's float64 is a float). An
    int beyond the float range is not finite: False, not OverflowError."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def check_number(name: str, value) -> None:
    """ConfigError unless ``value`` is a finite int or float (bool excluded)."""
    if not is_number(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
