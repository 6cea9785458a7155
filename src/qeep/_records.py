"""Shape and field checks shared by the JSON record readers.

A record is a JSON object with a fixed key set. A number field holds a JSON
number: an int or a float, never a bool (which Python counts as an int) or a
string such as ``"0.1"``, which numpy would otherwise convert without
complaint, and never an int too large for a double.
"""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np


def record(data, name: str, required, optional=()) -> dict:
    """``data``, which must be a JSON object holding every ``required`` key
    and no key outside ``required`` and ``optional``; anything else raises
    ``ValueError`` naming the key."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got {data!r:.40}")
    for key in required:
        if key not in data:
            raise ValueError(f"{name} has no {key!r} key")
    for key in data:
        if key not in required and key not in optional:
            raise ValueError(f"{name} has an unknown key {key!r:.40}")
    return data


def number(value, name: str, kind=Real):
    """``value``, which must be a ``kind`` number (``Real`` or ``Integral``)
    within the range of a double and not a bool; anything else raises
    ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r:.40}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of the range of a double, got {value!r:.40}") from None
    return value


def numbers(values, name: str) -> np.ndarray:
    """The list ``values`` of real numbers as a float array."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of numbers, got {values!r:.40}")
    for value in values:
        number(value, f"each entry of {name}")
    return np.array(values, dtype=float)
