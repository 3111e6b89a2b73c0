"""Scalar special functions.

Everything here is a pure function of its arguments.
"""

from __future__ import annotations

__all__ = [
    "SeriesConvergenceError",
    "gauss_2f1",
]

# Non-terminating hypergeometric series controls: the transformed argument
# lies in [0, 1), so decay is eventually geometric.
_2F1_MAX_TERMS = 10_000
_2F1_REL_TOL = 1e-15


class SeriesConvergenceError(ArithmeticError):
    """A series failed to meet its tolerance within the term budget."""


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and float(x).is_integer()


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for z <= 0.

    When ``a`` is a non-positive integer the series terminates after
    |a| + 1 terms and is summed exactly.  Otherwise the Pfaff
    transformation

        2F1(a, b; c; z) = (1 - z)^(-b) 2F1(c - a, b; c; z / (z - 1))

    maps the argument into [0, 1) where the series converges.  Summation
    stops at the first term no larger than 1e-15 of the running sum;
    SeriesConvergenceError is raised when 10000 terms do not get there.
    """
    if _is_nonpositive_integer(c):
        raise ValueError(f"2F1 parameter c must not be a non-positive integer, got {c}")
    if z > 0:
        raise ValueError(f"2F1 argument must satisfy z <= 0, got {z}")

    if _is_nonpositive_integer(a):
        n = int(round(-a))
        total = 0.0
        term = 1.0
        for k in range(n + 1):
            if k > 0:
                term *= (a + k - 1) * (b + k - 1) / ((c + k - 1) * k) * z
            total += term
        return total

    w = 0.0 if z == 0 else z / (z - 1.0)  # in [0, 1)
    aa = c - a
    total = 0.0
    term = 1.0
    for k in range(_2F1_MAX_TERMS):
        if k > 0:
            term *= (aa + k - 1) * (b + k - 1) / ((c + k - 1) * k) * w
        total += term
        if abs(term) <= _2F1_REL_TOL * abs(total):
            return (1.0 - z) ** (-b) * total
    raise SeriesConvergenceError(
        f"2F1({a}, {b}; {c}; {z}) did not converge within {_2F1_MAX_TERMS} terms"
    )
