"""Shape, field and range checks shared by the record readers and the entry
points, and the rule by which the frozen value types keep their arrays.

An array argument is a :func:`vector`: 1-d, finite and of the length its
pairing fixes. A value type keeps each array as a :func:`frozen` vector.

A record is a JSON object with a fixed key set. A number field holds a JSON
number: an int or a float, never a bool (which Python counts as an int) or a
string such as ``"0.1"``, which numpy would otherwise convert without
complaint, and never an int too large for a double.
"""

from __future__ import annotations

import math
import sys
from numbers import Integral, Rational, Real

import numpy as np

# The least positive double: an open interval's end at zero as a closed one.
LEAST_POSITIVE = math.ulp(0.0)


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
    infinities and larger numbers miss; anything else raises ``ValueError``.
    An integer or a fraction is compared exactly, before any conversion."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r:.40}")
    if isinstance(value, Integral):
        value = int(value)
    elif not isinstance(value, Rational):
        value = float(value)
    if not least <= value <= most:
        raise ValueError(f"{name} must lie in [{least}, {most}], got {value!r:.40}")
    return value if kind is Integral else float(value)


def numbers(values, name: str) -> np.ndarray:
    """The list ``values`` of real numbers as a float array."""
    return np.array([number(value, f"each entry of {name}") for value in values])


def vector(values, name: str, dtype, size=None) -> np.ndarray:
    """``np.array(values, dtype=dtype)``, which must be 1-d, finite and hold
    ``size`` entries (at least one for ``None``); anything else raises one
    ``ValueError`` naming ``name``."""
    array = np.array(values, dtype=dtype)
    finite = bool(np.isfinite(array).all())
    if not finite or array.ndim != 1 or array.size == 0 or size not in (None, array.size):
        length = "at least 1" if size is None else size
        flaw = "" if finite else " with a non-finite entry"
        raise ValueError(
            f"{name} must be a finite 1-d array of length {length}, got shape {array.shape}{flaw}"
        )
    return array


def frozen(obj, name: str, values, dtype, size=None) -> np.ndarray:
    """Store the :func:`vector` ``values``, made read-only, in field ``name``
    of the frozen dataclass ``obj``, and return it: each value type keeps a
    private copy of every array it is given, which neither it nor the caller
    can change afterwards."""
    array = vector(values, name, dtype, size)
    array.setflags(write=False)
    object.__setattr__(obj, name, array)
    return array
