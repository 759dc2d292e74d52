"""The two scalar rules that public entry points apply to their parameters.

Messages read "<name> must be ..., got <value>", with the value formatted by
str(), so NumPy 2 reprs such as np.float64(2.5) never reach a message.
"""

from __future__ import annotations

import math

import numpy as np


def integer(value, name: str, minimum: int | None = None):
    """value, which must be a Python or NumPy integer (not a bool or float) >= minimum."""
    what = "a non-negative integer" if minimum == 0 else "an integer"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be {what}, got {value}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, {what}, got {value}")
    return value


def real(value, name: str, lo: float = -math.inf, hi: float = math.inf, *,
         strict: bool = False):
    """value, which must be a finite Python or NumPy real (not a bool) in [lo, hi],
    or in (lo, hi] when ``strict``; nan and +-inf fail even in an unbounded range."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not (lo < value if strict else lo <= value) or not value <= hi
            or not math.isfinite(value)):
        what = ("finite" if lo == -math.inf and hi == math.inf
                else f"a finite number in {'(' if strict else '['}{lo}, {hi}]")
        raise ValueError(f"{name} must be {what}, got {value}")
    return value
