"""Small internal validation helpers shared across the package.

These keep argument checking uniform: every public constructor validates
its inputs eagerly and raises :class:`repro.errors.ConfigurationError`
with a message naming the offending parameter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NonFiniteInputError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with *message* unless *condition*."""
    if not condition:
        raise ConfigurationError(message)


def require_positive_int(value: int, name: str) -> int:
    """Validate that *value* is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return int(value)


def require_non_negative_int(value: int, name: str) -> int:
    """Validate that *value* is a non-negative integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")
    return int(value)


def require_power_of_two(value: int, name: str) -> int:
    """Validate that *value* is a positive power of two and return it."""
    value = require_positive_int(value, name)
    if value & (value - 1) != 0:
        raise ConfigurationError(f"{name} must be a power of two, got {value}")
    return value


def require_positive_float(value: float, name: str) -> float:
    """Validate that *value* is a finite positive real number and return it."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(value) or value <= 0.0:
        raise ConfigurationError(f"{name} must be finite and positive, got {value}")
    return value


def require_in_range(value: int, low: int, high: int, name: str) -> int:
    """Validate ``low <= value <= high`` for an integer *value* and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ConfigurationError(
            f"{name} must be in [{low}, {high}], got {value}"
        )
    return int(value)


def require_finite(array: np.ndarray, name: str) -> None:
    """Raise :class:`~repro.errors.NonFiniteInputError` unless every
    element of *array* is finite."""
    if not np.isfinite(array).all():
        raise NonFiniteInputError(
            f"{name} hold NaN or inf values; a non-finite input has no "
            f"detection statistic"
        )


def as_complex_vector(samples: Sequence[complex] | np.ndarray, name: str) -> np.ndarray:
    """Coerce *samples* into a 1-D complex128 numpy array."""
    array = np.asarray(samples)
    if array.ndim != 1:
        raise ConfigurationError(
            f"{name} must be one-dimensional, got shape {array.shape}"
        )
    if array.size == 0:
        raise ConfigurationError(f"{name} must be non-empty")
    return array.astype(np.complex128, copy=False)


def is_power_of_two(value: int) -> bool:
    """Return True if *value* is a positive power of two."""
    return value > 0 and value & (value - 1) == 0


def spawn_substreams(
    count: int,
    *,
    rng: np.random.Generator | None = None,
    base_seed: int | None = None,
    start: int = 0,
) -> np.ndarray:
    """Deterministic per-trial / per-emitter substream seeds.

    The package-wide seeding contract, deduplicating the hand-rolled
    copies that had grown in the wideband scenario engine, the
    engine's default calibration noise factory and the scanner's noise
    calibration.  Two modes, mutually exclusive:

    ``rng``
        Draw *count* child seeds from the generator's own stream
        (``rng.integers(0, 2**63, size=count)``).  Used where the
        seeds must be a function of an already-resolved generator —
        e.g. one wideband master generator spawning per-emitter
        substreams, so an emitter's waveform is invariant to which
        other emitters are active.
    ``base_seed``
        Arithmetic substreams ``base_seed + start + arange(count)``.
        Used for Monte-Carlo trial seeding (trial *t* gets
        ``base_seed + t``), where the defining property is that trial
        *t*'s stream is independent of the total trial count and of
        how trials are chunked or sharded — what makes sharded engine
        execution bitwise equal to the serial path.

    Returns a ``(count,)`` integer array of seeds; feed each through
    ``numpy.random.default_rng`` (or ``seed=`` parameters) to obtain
    the substream generators.
    """
    count = require_non_negative_int(count, "count")
    start = require_non_negative_int(start, "start")
    if (rng is None) == (base_seed is None):
        raise ConfigurationError(
            "pass exactly one of rng or base_seed to spawn_substreams"
        )
    if rng is not None:
        if start:
            raise ConfigurationError(
                "start offsets only apply to arithmetic (base_seed) "
                "substreams; rng-drawn seeds are consumed in stream order"
            )
        return rng.integers(0, 2**63, size=count)
    if not isinstance(base_seed, (int, np.integer)) or isinstance(
        base_seed, bool
    ):
        raise ConfigurationError(
            f"base_seed must be an integer, got {base_seed!r}"
        )
    first = int(base_seed) + start
    if count and first + count - 1 > np.iinfo(np.int64).max:
        # Unbounded Python-int arithmetic, exactly like the historical
        # ``base + trial`` expressions (int64 would wrap negative).
        return np.array(
            [first + index for index in range(count)], dtype=object
        )
    return first + np.arange(count, dtype=np.int64)


def resolve_rng(
    rng: np.random.Generator | None, seed: int | None
) -> np.random.Generator:
    """The package-wide rng/seed exclusivity contract.

    Returns *rng* when given, else a fresh generator from *seed*;
    passing both raises :class:`ConfigurationError`.
    """
    if rng is not None and seed is not None:
        raise ConfigurationError("pass either rng or seed, not both")
    if rng is not None:
        return rng
    return np.random.default_rng(seed)
