"""Scalar argument checks shared across the library.

Each helper checks one numeric argument and raises ``ValueError`` with a
consistent message format, so that misuse of the public API fails early and
loudly instead of producing silently wrong statistics.
"""

from __future__ import annotations

from numbers import Real


def check_positive(name: str, value: Real) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_non_negative(name: str, value: Real) -> None:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_probability(name: str, value: Real, *, allow_zero: bool = True,
                      allow_one: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` lies in the unit interval.

    Parameters
    ----------
    allow_zero, allow_one:
        Whether the closed endpoints are accepted.  The adversary-effort
        formulas, for example, require ``0 < eta < 1``.
    """
    lower_ok = value > 0 or (allow_zero and value == 0)
    upper_ok = value < 1 or (allow_one and value == 1)
    if not (lower_ok and upper_ok):
        lo = "[0" if allow_zero else "(0"
        hi = "1]" if allow_one else "1)"
        raise ValueError(f"{name} must be in {lo}, {hi}, got {value!r}")


def check_in_range(name: str, value: Real, low: Real, high: Real) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
