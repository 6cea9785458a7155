"""Shape, field and range checks shared by the record readers and the entry points.

A record is a JSON object with a fixed key set. A number field holds a JSON
number: an int or a float, never a bool (which Python counts as an int) or a
string such as ``"0.1"``, which numpy would otherwise convert without
complaint, and never an int too large for a double.
"""

from __future__ import annotations

import sys
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


def number(value, name: str, kind=Real, least=-sys.float_info.max, most=sys.float_info.max):
    """``value`` as a Python ``int`` (``kind`` ``Integral``) or ``float``
    (``kind`` ``Real``): a ``kind`` number, not a bool, in the closed range
    ``[least, most]``, by default the finite doubles, which NaN, the
    infinities and larger integers miss; anything else raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r:.40}")
    value = int(value) if isinstance(value, Integral) else float(value)
    if not least <= value <= most:
        raise ValueError(f"{name} must lie in [{least}, {most}], got {value!r:.40}")
    return value if kind is Integral else float(value)


def numbers(values, name: str) -> np.ndarray:
    """The list ``values`` of real numbers as a float array."""
    return np.array([number(value, f"each entry of {name}") for value in values])
