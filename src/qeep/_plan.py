"""A-priori error bounds: the numbers fixed before any signal is measured.

No package module imports this one when it loads, so the CLI's start-up
does not pay for it.
"""

from __future__ import annotations

from . import _records
from .spectrum import _moment_order


def moment_error_bound(eps: float, t_max: float, t_prime_max: float) -> float:
    """A priori error bound ``eps * (t_max + t_prime_max)`` for expectations of
    a differentiable T, with the caller supplying the sup norms of T and T'
    over ``|x| <= 1/2``; all three must be finite and non-negative."""
    for name, value in (("eps", eps), ("t_max", t_max), ("t_prime_max", t_prime_max)):
        _records.number(value, name, least=0)
    return eps * (t_max + t_prime_max)


def moment_bound(eps: float, s: int) -> float:
    """:func:`moment_error_bound` of the order-``s`` moment, ``T(x) = x**s``,
    whose sup norms on ``|x| <= 1/2`` are ``2**-s`` and ``s * 2**-(s-1)``;
    ``s`` is checked by :func:`~qeep.spectrum._moment_order`."""
    s = _moment_order(s)
    return moment_error_bound(eps, 2.0**-s, s * 2.0 ** -(s - 1))
