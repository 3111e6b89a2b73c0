"""Scalar special functions.

Everything here is a pure function of its arguments.
"""

from __future__ import annotations

__all__ = [
    "gauss_2f1",
]


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and float(x).is_integer()


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Terminating Gauss hypergeometric function 2F1(a, b; c; z) for z <= 0.

    ``a`` must be a non-positive integer: the series then terminates after
    |a| + 1 terms, which are summed exactly.
    """
    if not _is_nonpositive_integer(a):
        raise ValueError(f"2F1 parameter a must be a non-positive integer, got {a}")
    if _is_nonpositive_integer(c):
        raise ValueError(f"2F1 parameter c must not be a non-positive integer, got {c}")
    if z > 0:
        raise ValueError(f"2F1 argument must satisfy z <= 0, got {z}")

    n = int(round(-a))
    total = 0.0
    term = 1.0
    for k in range(n + 1):
        if k > 0:
            term *= (a + k - 1) * (b + k - 1) / ((c + k - 1) * k) * z
        total += term
    return total
