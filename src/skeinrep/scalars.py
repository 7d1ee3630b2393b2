"""Field arithmetic over the cyclotomic field Q(A) and over big complex numbers.

A root system fixes an odd integer N and the scalar A, a primitive N-th root
of -1 (equivalently a primitive 2N-th root of unity).  Two interchangeable
backends are provided:

* ``exact``: elements of Q(A) as rational coefficient vectors reduced modulo
  the 2N-th cyclotomic polynomial.  Arithmetic is exact and canonical, so
  equality is coefficient equality.
* ``bigfloat``: arbitrary-precision complex numbers (mpmath) at a fixed
  number of bits, with A = exp(i*pi/N).

All scalars are immutable and carry a reference to their root system;
mixing scalars from incompatible systems raises :class:`BackendMismatch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt
from typing import Union

import mpmath
from mpmath import mp
from mpmath.libmp import mpc_to_str

from .errors import BackendMismatch, UnsupportedExactOperation

DEFAULT_PRECISION_BITS = 256

RationalLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, index = power)
# ---------------------------------------------------------------------------

def _poly_divmod(num, den):
    """Exact division of integer coefficient lists; den must be monic tail-trimmed."""
    num = list(num)
    dden = len(den) - 1
    out = [0] * (len(num) - dden)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i]
        if c:
            out[i - dden] = c
            for j, d in enumerate(den):
                num[i - dden + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return out, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, low power first.

    Computed by exact division of x^n - 1 by the lower-order cyclotomic
    factors.
    """
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            assert not rem, f"cyclotomic division left a remainder at n={n}, d={d}"
    return tuple(poly)


def _fraction_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None if not a perfect square."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# tolerance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tolerance:
    """Relative comparison threshold.  rel_eps = 0 only makes sense exactly."""

    rel_eps: float

    def __post_init__(self):
        if self.rel_eps < 0:
            raise ValueError("rel_eps must be nonnegative")


# ---------------------------------------------------------------------------
# root system
# ---------------------------------------------------------------------------

class RootSystem:
    """The pair (N, A) plus the backend all scalars of a computation share."""

    # dense matrix storage caps the representation dimension at desk scale
    MAX_N = 499

    def __init__(self, N: int, backend: str, precision_bits=None):
        if N < 1 or N % 2 == 0:
            raise ValueError(f"N must be odd and >= 1, got {N}")
        if N > self.MAX_N:
            raise ValueError(f"N = {N} exceeds the supported maximum {self.MAX_N}")
        if backend not in ("exact", "bigfloat"):
            raise ValueError(f"unknown backend {backend!r}")
        self.N = N
        self.backend = backend
        if backend == "bigfloat":
            if precision_bits is None:
                precision_bits = DEFAULT_PRECISION_BITS
            if precision_bits < 64:
                raise ValueError("precision must be at least 64 bits")
            self.precision_bits = int(precision_bits)
            self.tolerance = Tolerance(2.0 ** (-self.precision_bits // 2))
            self.modulus = None
            self.degree = None
        else:
            if precision_bits is not None:
                raise ValueError("precision_bits only applies to the bigfloat backend")
            self.precision_bits = None
            self.tolerance = Tolerance(0.0)
            self.modulus = cyclotomic_polynomial(2 * N)
            self.degree = len(self.modulus) - 1
        self._apow_cache = {}
        self._bigfloat_companions = {}

    # -- identity of the system ------------------------------------------------

    def key(self):
        return (self.N, self.backend, self.precision_bits)

    def __eq__(self, other):
        return isinstance(other, RootSystem) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.backend == "exact":
            return f"RootSystem(N={self.N}, exact)"
        return f"RootSystem(N={self.N}, bigfloat@{self.precision_bits})"

    def compatible(self, other: "RootSystem") -> bool:
        return self.key() == other.key()

    # -- construction of scalars -----------------------------------------------

    # scalars are immutable, so one zero and one one serve every caller
    @cached_property
    def zero(self):
        return self.scalar(0)

    @cached_property
    def one(self):
        return self.scalar(1)

    @property
    def A(self):
        return self.a_pow(1)

    def scalar(self, value):
        """Coerce an int, Fraction, float or complex into this backend."""
        if isinstance(value, (CyclotomicNumber, BigComplex)):
            if not self.compatible(value.rs):
                raise BackendMismatch(f"scalar from {value.rs!r} used in {self!r}")
            return value
        if self.backend == "exact":
            if isinstance(value, (int, Fraction)):
                coeffs = [Fraction(0)] * self.degree
                coeffs[0] = Fraction(value)
                return CyclotomicNumber(self, tuple(coeffs))
            raise TypeError(f"cannot place {type(value).__name__} in the exact backend")
        with mp.workprec(self.precision_bits):
            if isinstance(value, (int, Fraction)):
                re = mp.mpf(value.numerator) / value.denominator if isinstance(value, Fraction) else mp.mpf(value)
                return BigComplex(self, re, mp.mpf(0))
            if isinstance(value, float):
                return BigComplex(self, mp.mpf(value), mp.mpf(0))
            if isinstance(value, complex):
                return BigComplex(self, mp.mpf(value.real), mp.mpf(value.imag))
            if isinstance(value, mpmath.mpf):
                return BigComplex(self, value, mp.mpf(0))
            if isinstance(value, mpmath.mpc):
                return BigComplex(self, value.real, value.imag)
        raise TypeError(f"cannot place {type(value).__name__} in the bigfloat backend")

    def a_pow(self, k: int):
        """A^k, canonically reduced.  Exponents live modulo 2N."""
        k = k % (2 * self.N)
        cached = self._apow_cache.get(k)
        if cached is not None:
            return cached
        if self.backend == "exact":
            coeffs = [0] * (k + 1)
            coeffs[k] = 1
            value = CyclotomicNumber(self, _reduce_mod(coeffs, self.modulus, self.degree))
        else:
            with mp.workprec(self.precision_bits):
                z = mp.expjpi(mp.mpf(k) / self.N)
            value = BigComplex(self, z.real, z.imag)
        self._apow_cache[k] = value
        return value

    # -- bridging ----------------------------------------------------------------

    def bigfloat_companion(self, precision_bits=None) -> "RootSystem":
        """The bigfloat system with the same N used as embedding target."""
        if self.backend == "bigfloat" and (precision_bits is None or precision_bits == self.precision_bits):
            return self
        bits = precision_bits or DEFAULT_PRECISION_BITS
        companion = self._bigfloat_companions.get(bits)
        if companion is None:
            companion = RootSystem(self.N, "bigfloat", bits)
            self._bigfloat_companions[bits] = companion
        return companion


def make_root_system(N: int, backend: str = "exact", precision_bits=None) -> RootSystem:
    """Construct the root system for odd N, with A a primitive N-th root of -1."""
    return RootSystem(N, backend, precision_bits)


# ---------------------------------------------------------------------------
# exact scalars
# ---------------------------------------------------------------------------

def _reduce_mod(coeffs, modulus, degree):
    """Reduce a Fraction/int coefficient list modulo the monic modulus."""
    coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    for i in range(len(coeffs) - 1, degree - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(degree):
                coeffs[i - degree + j] -= c * modulus[j]
        coeffs[i] = Fraction(0)
    out = coeffs[:degree]
    out.extend([Fraction(0)] * (degree - len(out)))
    return tuple(out)


class CyclotomicNumber:
    """Element of Q(A), stored canonically as phi(2N) rational coefficients."""

    __slots__ = ("rs", "coeffs")

    def __init__(self, rs: RootSystem, coeffs):
        self.rs = rs
        self.coeffs = tuple(coeffs)

    # -- helpers ---------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if not self.rs.compatible(other.rs):
                raise BackendMismatch("cyclotomic scalars from different root systems")
            return other
        if isinstance(other, (int, Fraction)):
            return self.rs.scalar(other)
        if isinstance(other, BigComplex):
            raise BackendMismatch("cannot mix exact and bigfloat scalars")
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        """The rational value if the element is rational, else None."""
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicNumber(self.rs, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.rs, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicNumber(self.rs, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.rs.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CyclotomicNumber(self.rs, _reduce_mod(prod, self.rs.modulus, d))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in the cyclotomic field")

        def trim(p):
            while p and p[-1] == 0:
                p.pop()
            return p

        # invariant: r_i = t_i * f modulo the modulus; the gcd is a nonzero
        # constant because the modulus is irreducible over Q
        r0 = trim([Fraction(c) for c in self.rs.modulus])
        r1 = trim(list(self.coeffs))
        t0, t1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, rem = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, trim(rem)
            t0, t1 = t1, trim(_frac_poly_sub(t0, _frac_poly_mul(q, t1)))
            assert r1, "zero remainder while inverting in an irreducible quotient"
        c = r1[0]
        inv_coeffs = [x / c for x in t1]
        return CyclotomicNumber(self.rs, _reduce_mod(inv_coeffs, self.rs.modulus, self.rs.degree))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        acc = self.rs.one
        while exponent:
            if exponent & 1:
                acc = acc * base
            base = base * base
            exponent >>= 1
        return acc

    # -- comparison / display ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.rs.scalar(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.rs.compatible(other.rs) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.rs.key(), self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*A" if c != 1 else "A")
            else:
                terms.append(f"{c}*A^{i}" if c != 1 else f"A^{i}")
        return " + ".join(terms) if terms else "0"


def _frac_poly_divmod(num, den):
    num = [Fraction(c) for c in num]
    dden = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dden:
        return [Fraction(0)], num
    out = [Fraction(0)] * (len(num) - dden)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i] / lead
        if c:
            out[i - dden] = c
            for j, d in enumerate(den):
                num[i - dden + j] -= c * d
    return out, num[:dden]


def _frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else [Fraction(0)]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# bigfloat scalars
# ---------------------------------------------------------------------------

class BigComplex:
    """Arbitrary-precision complex number pinned to its root system's precision."""

    __slots__ = ("rs", "re", "im")

    def __init__(self, rs: RootSystem, re, im):
        self.rs = rs
        self.re = re
        self.im = im

    @property
    def prec_bits(self) -> int:
        return self.rs.precision_bits

    def mpc(self):
        return mpmath.mpc(self.re, self.im)

    def _coerce(self, other):
        if isinstance(other, BigComplex):
            if not self.rs.compatible(other.rs):
                raise BackendMismatch("bigfloat scalars from different root systems")
            return other
        if isinstance(other, (int, Fraction, float, complex, mpmath.mpf, mpmath.mpc)):
            return self.rs.scalar(other)
        if isinstance(other, CyclotomicNumber):
            raise BackendMismatch("cannot mix exact and bigfloat scalars")
        return None

    def is_zero(self) -> bool:
        eps = self.rs.tolerance.rel_eps
        mag = float(self.magnitude())
        return mag < eps * (1.0 + mag)

    def magnitude(self):
        with mp.workprec(self.prec_bits):
            return abs(self.mpc())

    # -- arithmetic --------------------------------------------------------------

    def _binary(self, other, fn):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        with mp.workprec(self.prec_bits):
            z = fn(self.mpc(), o.mpc())
        return BigComplex(self.rs, z.real, z.imag)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        # negate under the working precision; mpmath rounds unary minus
        # to the ambient context otherwise
        with mp.workprec(self.prec_bits):
            return BigComplex(self.rs, -self.re, -self.im)

    def _check_divisor(self, denom, numer):
        eps = self.rs.tolerance.rel_eps
        with mp.workprec(self.prec_bits):
            denom_mag = abs(denom.mpc())
            scale = 1 + max(abs(numer.mpc()), denom_mag)
            if denom_mag < eps * scale:
                raise ZeroDivisionError(
                    f"division by a scalar of magnitude {mpmath.nstr(denom_mag, 8)} "
                    f"below the zero threshold")

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_divisor(o, self)
        return self._binary(o, lambda a, b: a / b)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        o._check_divisor(self, o)
        return self._binary(o, lambda a, b: b / a)

    def inverse(self):
        return self.rs.one / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        with mp.workprec(self.prec_bits):
            if exponent < 0:
                self._check_divisor(self, self.rs.one)
            z = self.mpc() ** exponent
        return BigComplex(self.rs, z.real, z.imag)

    # -- comparison / display ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = self.rs.scalar(other)
        if not isinstance(other, BigComplex):
            return NotImplemented
        return self.rs.compatible(other.rs) and mpmath.mpf(self.re) == other.re and mpmath.mpf(self.im) == other.im

    def __hash__(self):
        return hash((self.rs.key(), self.re, self.im))

    def __repr__(self):
        # nstr's digits without its parentheses, bare like CyclotomicNumber's
        return mpc_to_str(self.mpc()._mpc_, 12)


Scalar = Union[CyclotomicNumber, BigComplex]


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def numeric_bridge(c: Scalar, precision_bits: int = DEFAULT_PRECISION_BITS) -> BigComplex:
    """Embed a scalar into the bigfloat backend (A goes to exp(i*pi/N))."""
    target = c.rs.bigfloat_companion(precision_bits)
    if isinstance(c, BigComplex):
        if target is c.rs:
            return c
        with mp.workprec(target.precision_bits):
            return BigComplex(target, mp.mpf(c.re), mp.mpf(c.im))
    with mp.workprec(target.precision_bits):
        a = mp.expjpi(mp.mpf(1) / c.rs.N)
        acc = mp.mpc(0)
        for coeff in reversed(c.coeffs):
            acc = acc * a + mp.mpf(coeff.numerator) / coeff.denominator
    return BigComplex(target, acc.real, acc.imag)


def approx_eq(a: Scalar, b: Scalar, tol: Tolerance = None) -> bool:
    """Exact equality in the exact backend; relative-magnitude comparison otherwise.

    Two bigfloat scalars agree when |a - b| < rel_eps * max(1, |a|, |b|).
    """
    if isinstance(a, CyclotomicNumber):
        return a == b
    o = a._coerce(b)
    eps = (tol or a.rs.tolerance).rel_eps
    with mp.workprec(a.prec_bits):
        diff = abs(a.mpc() - o.mpc())
        scale = max(mp.mpf(1), abs(a.mpc()), abs(o.mpc()))
        return diff < mp.mpf(eps) * scale


def approx_matches(xs, ys, tol: Tolerance = None):
    """For each x in ``xs``, the indices j with ``approx_eq(ys[j], x, tol)``.

    The same decisions as the len(xs) * len(ys) calls to :func:`approx_eq`,
    with each bigfloat magnitude taken once instead of once per pair.
    """
    if isinstance(xs[0], CyclotomicNumber):
        return [[j for j, y in enumerate(ys) if y == x] for x in xs]
    rs = xs[0].rs
    with mp.workprec(rs.precision_bits):
        eps = mp.mpf((tol or rs.tolerance).rel_eps)
        one = mp.mpf(1)
        zy = [y.mpc() for y in ys]
        mag_y = [abs(z) for z in zy]
        out = []
        for x in xs:
            z = x.mpc()
            mag = abs(z)
            out.append([j for j, (w, m) in enumerate(zip(zy, mag_y))
                        if abs(w - z) < eps * max(one, m, mag)])
        return out


def solve_quadratic(a: Scalar, b: Scalar, c: Scalar):
    """Both roots of a*y^2 + b*y + c = 0.

    In the bigfloat backend the discriminant square root uses the principal
    branch.  The exact backend only handles discriminants that are perfect
    squares of rationals (enough for the degenerate and unit cases); anything
    else raises :class:`UnsupportedExactOperation`.
    """
    rs = a.rs
    if isinstance(a, CyclotomicNumber):
        if a.is_zero():
            raise ZeroDivisionError("leading coefficient is zero")
        disc = b * b - 4 * a * c
        rat = disc.is_rational()
        if rat is None:
            raise UnsupportedExactOperation(
                "exact quadratic requires a rational perfect-square discriminant")
        root = _fraction_sqrt(rat)
        if root is None:
            raise UnsupportedExactOperation(
                f"discriminant {rat} has no rational square root")
        sq = rs.scalar(root)
        inv2a = (2 * a).inverse()
        return ((-b + sq) * inv2a, (-b - sq) * inv2a)
    with mp.workprec(rs.precision_bits):
        am, bm, cm = a.mpc(), b.mpc(), c.mpc()
        if abs(am) < rs.tolerance.rel_eps * (1 + max(abs(am), abs(bm), abs(cm))):
            raise ZeroDivisionError("leading coefficient is numerically zero")
        sq = mp.sqrt(bm * bm - 4 * am * cm)
        r1 = (-bm + sq) / (2 * am)
        r2 = (-bm - sq) / (2 * am)
    return (BigComplex(rs, r1.real, r1.imag), BigComplex(rs, r2.real, r2.imag))


def nth_root(y: Scalar, n: int) -> Scalar:
    """Principal n-th root (argument in (-pi/n, pi/n]).  Bigfloat backend only."""
    if isinstance(y, CyclotomicNumber):
        raise UnsupportedExactOperation("n-th roots are not supported in the exact backend")
    rs = y.rs
    with mp.workprec(rs.precision_bits):
        z = mp.root(y.mpc(), n)
    return BigComplex(rs, z.real, z.imag)
