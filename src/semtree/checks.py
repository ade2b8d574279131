"""The check of integer settings that the embedder, the build and search share."""

import numpy as np


def check_integer(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int, of at least ``least`` if that is given: a
    numpy integer is taken, a bool or a float is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)
