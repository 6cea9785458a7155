"""Field checks shared by the JSON record readers.

A number field holds a JSON number: an int or a float, never a bool (which
Python counts as an int) or a string such as ``"0.1"``, which numpy would
otherwise convert without complaint.
"""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np


def number(value, name: str, kind=Real):
    """``value``, which must be a ``kind`` number (``Real`` or ``Integral``)
    and not a bool; anything else raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r:.40}")
    return value


def numbers(values, name: str) -> np.ndarray:
    """The list ``values`` of real numbers as a float array."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of numbers, got {values!r:.40}")
    for value in values:
        number(value, f"each entry of {name}")
    return np.array(values, dtype=float)
