"""The checks of numeric settings that the embedder, the build and search share."""

import math
from numbers import Integral, Real


def check_integer(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int, of at least ``least`` if that is given: a
    numpy integer is taken, a bool or a float is not."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a Python float: a bool, a non-real value or a non-finite one is not taken."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)
