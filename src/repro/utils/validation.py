"""Small validation helpers shared across the library.

These helpers centralize argument checking so that public entry points can
fail fast with clear error messages instead of propagating confusing NumPy
errors from deep inside the abstract transformers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class ValidationError(ValueError):
    """Raised when a public API argument fails validation."""


def check_positive_int(value: int, name: str, *, allow_zero: bool = False) -> int:
    """Check that ``value`` is a non-negative (or strictly positive) integer.

    Returns the value as a plain ``int`` so that NumPy integer scalars are
    normalized before being stored on dataclasses.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    lower = 0 if allow_zero else 1
    if value < lower:
        bound = "non-negative" if allow_zero else "positive"
        raise ValidationError(f"{name} must be {bound}, got {value}")
    return value


def check_finite_points(points: np.ndarray) -> np.ndarray:
    """Reject test points with a NaN or infinite feature (as the wire does)."""
    if not np.all(np.isfinite(points)):
        raise ValidationError("test points must be finite (no NaN or infinity)")
    return points


def check_fraction(value: float, name: str) -> float:
    """Check that ``value`` lies in the closed unit interval ``[0, 1]``."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be within [0, 1], got {value}")
    return value


def check_probability_vector(probabilities: Sequence[float], name: str) -> np.ndarray:
    """Check that ``probabilities`` is a non-negative vector summing to ~1."""
    array = np.asarray(probabilities, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-D vector")
    if np.any(array < -1e-9):
        raise ValidationError(f"{name} must be non-negative, got {array}")
    total = float(array.sum())
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ValidationError(f"{name} must sum to 1, got sum={total}")
    return array


def check_index_array(indices: Iterable[int], size: int, name: str) -> np.ndarray:
    """Normalize ``indices`` to a sorted, unique ``int64`` array within range."""
    array = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
    if array.size == 0:
        return np.empty(0, dtype=np.int64)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D sequence of indices")
    array = array.astype(np.int64, copy=False)
    if array.min() < 0 or array.max() >= size:
        raise ValidationError(
            f"{name} contains out-of-range indices for a collection of size {size}"
        )
    array = np.unique(array)
    return array
