"""Normalized Chebyshev polynomials of the first kind.

These are the polynomials with T_0 = 2 and T_1 = x satisfying the three-term
recurrence T_n(x) = x*T_{n-1}(x) - T_{n-2}(x), equivalently the trace
polynomials with Tr(M^n) = T_n(Tr M) for M in SL2.  They diagonalize as
T_n(a + 1/a) = a^n + a^{-n}, and at the roots of unity of a root system the
degree-N polynomial factors through the values b*A^{2k} + b^{-1}*A^{-2k}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import matrices
from .errors import UnsupportedExactOperation
from .scalars import BigComplex, Scalar, nth_root, solve_quadratic


@dataclass(frozen=True)
class ChebyshevPoly:
    """Integer coefficient vector of T_n, low power first."""

    n: int
    coeffs: tuple


@lru_cache(maxsize=None)
def chebyshev_coeffs(n: int) -> ChebyshevPoly:
    if n < 0:
        raise ValueError("Chebyshev index must be nonnegative")
    if n == 0:
        return ChebyshevPoly(0, (2,))
    if n == 1:
        return ChebyshevPoly(1, (0, 1))
    prev2 = list(chebyshev_coeffs(n - 2).coeffs)
    prev1 = list(chebyshev_coeffs(n - 1).coeffs)
    out = [0] * (n + 1)
    for i, c in enumerate(prev1):
        out[i + 1] += c
    for i, c in enumerate(prev2):
        out[i] -= c
    return ChebyshevPoly(n, tuple(out))


def chebyshev_eval(n: int, arg):
    """T_n at a scalar or a square matrix, by the three-term recurrence.

    Matrix evaluation costs n - 1 multiplications and avoids expanding the
    coefficient form.  It runs in :func:`matrices.chebyshev_matrix`: on the
    bigfloat kernel the recurrence T_{k+1} = arg T_k - T_{k-1} keeps T_{k-1}
    and T_k on one block grid with 64 guard bits below the working
    precision, forms each step from the exact sums of arg T_k with one
    rounding per part onto that grid, and rounds each part of T_n once, at
    the end; exact zeros stay zero.  The exact backend steps on object
    arrays, and a scalar argument takes the object recurrence.
    """
    if isinstance(arg, np.ndarray):
        if arg.ndim != 2 or arg.shape[0] != arg.shape[1]:
            raise ValueError(f"matrix argument must be square, got shape {arg.shape}")
        return matrices.chebyshev_matrix(n, arg)
    rs = arg.rs
    if n == 0:
        return rs.scalar(2)
    prev2, prev1 = rs.scalar(2), arg
    for _ in range(n - 1):
        prev2, prev1 = prev1, arg * prev1 - prev2
    return prev1


@dataclass(frozen=True)
class ChebyshevRoots:
    """All N solutions of T_N(x) = t.

    ``base`` is the principal N-th root of the larger-magnitude root of
    y^2 - t*y + 1 = 0; the solution list ``values`` is base*A^{2k} +
    base^{-1}*A^{-2k} for k = 1..N, formed on first read.  The other
    quadratic root is 1/y, whose N-th roots are the inverses
    base^{-1}*A^{-2k}, so the same list covers both choices.
    """

    base: Scalar

    @cached_property
    def values(self) -> tuple:
        rs = self.base.rs
        base_inv = self.base.inverse()
        return tuple(self.base * rs.a_pow(2 * k) + base_inv * rs.a_pow(-2 * k)
                     for k in range(1, rs.N + 1))


def solve_chebyshev(t: Scalar) -> ChebyshevRoots:
    """Solve T_N(x) = t in the bigfloat backend, with N that of t's root system.

    The solutions are pairwise distinct iff t != +/-2; at t = +/-2 they are
    returned with multiplicity.
    """
    rs = t.rs
    if not isinstance(t, BigComplex):
        raise UnsupportedExactOperation("solving T_N(x) = t needs the bigfloat backend")
    y1, y2 = solve_quadratic(rs.one, -t, rs.one)
    y = y1 if float(y1.magnitude()) >= float(y2.magnitude()) else y2
    return ChebyshevRoots(nth_root(y, rs.N))
