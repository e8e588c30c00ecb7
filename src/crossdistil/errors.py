"""Exception types shared across the package, and the key, integer, finite and positive checks of config sections."""

import math
from dataclasses import fields, is_dataclass
from numbers import Integral, Real


class CrossDistilError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CrossDistilError):
    """Tensor shapes do not conform for the requested operation."""


class NumericError(CrossDistilError):
    """An operation produced a non-finite value."""


class UsageError(CrossDistilError):
    """An API was called in a way its contract forbids."""


class ConfigError(CrossDistilError):
    """A configuration value is outside its allowed range."""


def require_keys(section, known, where: str = "") -> dict:
    """Return ``section`` if it is a dict whose keys are all in ``known``, a tuple of names or a
    dataclass whose field names they must be; else raise naming the section or key after ``where``."""
    if not isinstance(section, dict):
        raise ConfigError(f"config {where.rstrip('.')} must be a JSON object, got {section!r}")
    if is_dataclass(known):
        known = tuple(f.name for f in fields(known))
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown config key '{where}{key}', expected one of {known}")
    return section


def require_ints(config, names, lists=()) -> None:
    """Raise naming the first of ``names`` whose value is not an integer, or of
    ``lists`` whose value is not a list (or tuple) of integers."""
    for name in (*names, *lists):
        value, listed = getattr(config, name), name in lists
        if listed != isinstance(value, (tuple, list)):
            raise ConfigError(f"{name} must be {'a list of integers' if listed else 'an integer'}, got {value!r}")
        for v in value if listed else (value,):
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ConfigError(f"{name} must be an integer, got {v!r}")


def require_finite(config, names) -> None:
    """Raise naming the first of ``names`` whose value is not a finite real number; a bool is not one."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise ConfigError(f"{name} must be finite and a number (not a bool), got {value!r}")


def require_positive(config, names) -> None:
    """Raise naming the first of ``names`` whose value is not a finite positive real number."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:  # NaN fails too
            raise ConfigError(f"{name} must be a finite positive number, got {value!r}")


class DataError(CrossDistilError):
    """A dataset file violates the expected schema."""


class DegenerateLabels(CrossDistilError):
    """A label subset required by a sampler is empty."""


class UndefinedMetricError(CrossDistilError):
    """The requested metric is undefined on the given inputs."""


class TrainingAborted(CrossDistilError):
    """Training stopped because a loss became non-finite."""
