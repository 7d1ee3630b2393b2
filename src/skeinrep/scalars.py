"""Field arithmetic over the cyclotomic field Q(A) and over big complex numbers.

A root system fixes an odd integer N and the scalar A, a primitive N-th root
of -1 (equivalently a primitive 2N-th root of unity).  Two interchangeable
backends are provided:

* ``exact``: elements of Q(A) as integer numerators over one positive
  denominator in lowest terms, reduced modulo the 2N-th cyclotomic
  polynomial.  Sums, products and comparisons run on Python ints (only the
  inverse's Euclid and the ``coeffs`` read-out build Fractions); the form is
  canonical, so equality is field equality.
* ``bigfloat``: arbitrary-precision complex numbers at a fixed number of
  bits, with A = exp(i*pi/N).  Each holds ``w``, the int quadruple
  (re man, re exp, im man, im exp) of its value at the working precision,
  which is also the entry format of the matrix kernel in :mod:`matrices`.
  Sums, differences, products, quotients, negations and magnitudes round
  on those ints (:func:`quad_add`, :func:`quad_sub`, :func:`quad_mul`,
  :func:`quad_div`, :func:`quad_abs`, all through the one rounding of
  :func:`_add`) and build their results as quadruples; powers, roots,
  ``A^k`` and the conversions call libmp.  A libmp pair is held only where
  a value enters as one (:func:`from_pair`, which refuses inf and nan), as
  given, and is otherwise packed from ``w`` when ``pair`` is first read.
  Every operation gives the bits of the ``mpc`` expression at the working
  precision with mpmath's round-to-nearest.  Magnitude decisions read the
  parts' exponents first (:func:`quad_exponent`) and take :func:`quad_abs`
  only near a cut.

``is_zero()`` is the one zero test of a divisor (``|d| < rel_eps * (1 + |d|)``
for a bigfloat); every refusal to divide raises :class:`VanishingDivisor`.
Scalars are immutable, compare equal only to scalars (so equal values hash
alike) and carry their root system; mixing scalars from incompatible systems
raises :class:`BackendMismatch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import frexp, gcd, inf, isqrt, lcm
from typing import Union

import mpmath
from mpmath import mp
from mpmath.libmp import (fone, from_float, from_int, fzero, mpc_expjpi, mpc_nthroot, mpc_pow_int, mpc_sqrt,
                          mpc_to_str, mpf_div, mpf_gt, mpf_lt, mpf_mul, mpf_pos, round_nearest, to_float,
                          to_str)

from .errors import BackendMismatch, NonFiniteScalar, UnsupportedExactOperation, VanishingDivisor

DEFAULT_PRECISION_BITS = 256

# mpmath 1.3's context has no public rounding setter and always rounds to
# nearest, so this is the mode of mpc arithmetic at any context precision
RND = round_nearest

# the int quadruple of an exact zero
_ZERO_QUAD = (0, 0, 0, 0)

# the smallest normal float: is_zero's exponent bounds hold for any tolerance above it
_MIN_NORMAL = 2.0 ** -1022


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

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
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not any(rem), f"cyclotomic division left a remainder at n={n}, d={d}"
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
    """Relative comparison threshold.  rel_eps = 0 only makes sense exactly.

    ``exponent`` is k with 2^(k-1) <= rel_eps < 2^k (``frexp(rel_eps)[1]``),
    which the zero test reads on every call.
    """

    rel_eps: float
    exponent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.rel_eps < inf:
            raise ValueError(f"rel_eps must be finite and nonnegative, got {self.rel_eps}")
        object.__setattr__(self, "exponent", frexp(self.rel_eps)[1])


# ---------------------------------------------------------------------------
# root system
# ---------------------------------------------------------------------------

class RootSystem:
    """The pair (N, A) plus the backend all scalars of a computation share."""

    # dense matrix storage caps the representation dimension at desk scale
    MAX_N = 499

    def __init__(self, N: int, backend: str, precision_bits=None):
        checked = {"N": N} if precision_bits is None else {"N": N, "precision_bits": precision_bits}
        for name, value in checked.items():
            if type(value) is not int:  # a bool or a float is refused too
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
            self.precision_bits = precision_bits
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
        return other is self or self.key() == other.key()

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
        """Coerce an int, Fraction, float or complex into this backend.

        An ``mpf`` or ``mpc`` is kept as given in the bigfloat backend.  A
        value with an inf or nan part raises :class:`NonFiniteScalar`.
        """
        if isinstance(value, (CyclotomicNumber, BigComplex)):
            if not self.compatible(value.rs):
                raise BackendMismatch(f"scalar from {value.rs!r} used in {self!r}")
            return value
        if self.backend == "exact":
            if isinstance(value, (int, Fraction)):
                return _from_ints(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)
            raise TypeError(f"cannot place {type(value).__name__} in the exact backend")
        prec = self.precision_bits
        if isinstance(value, Fraction):
            pair = (mpf_div(from_int(value.numerator, prec, RND), from_int(value.denominator), prec, RND),
                    fzero)
        elif isinstance(value, int):
            pair = (from_int(value, prec, RND), fzero)
        elif isinstance(value, (float, complex)):
            pair = (from_float(value.real, prec, RND), from_float(value.imag, prec, RND))
        elif isinstance(value, mpmath.mpf):
            pair = (value._mpf_, fzero)
        elif isinstance(value, mpmath.mpc):
            pair = value._mpc_
        else:
            raise TypeError(f"cannot place {type(value).__name__} in the bigfloat backend")
        return from_pair(self, pair)

    def a_pow(self, k: int):
        """A^k, canonically reduced.  Exponents live modulo 2N."""
        k = k % (2 * self.N)
        cached = self._apow_cache.get(k)
        if cached is not None:
            return cached
        if self.backend == "exact":
            coeffs = [0] * (k + 1)
            coeffs[k] = 1
            value = _from_ints(self, _reduce_mod(coeffs, self.modulus, self.degree), 1)
        else:
            prec = self.precision_bits
            angle = mpf_div(from_int(k), from_int(self.N), prec, RND)
            value = from_pair(self, mpc_expjpi((angle, fzero), prec, RND))
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
    """The integer list ``coeffs`` reduced modulo the monic ``modulus``, padded to ``degree``.

    Reduces in place, without dividing, and returns a tuple.
    """
    for i in range(len(coeffs) - 1, degree - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(degree):
                coeffs[i - degree + j] -= c * modulus[j]
    out = tuple(coeffs[:degree])
    return out + (0,) * (degree - len(out))


def _from_ints(rs, nums, den):
    """The CyclotomicNumber nums / den (den > 0), brought to lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
    z = object.__new__(CyclotomicNumber)
    z.rs = rs
    z.nums = nums
    z.den = den
    return z


class CyclotomicNumber:
    """Element of Q(A), stored canonically as phi(2N) integer numerators over one denominator.

    The value is sum(nums[i] * A^i) / den with den > 0 and gcd(den, *nums) = 1,
    so equal values have equal fields.  ``coeffs`` reads the Fraction
    coefficients; the constructor takes ints or Fractions, in powers of A that
    it reduces modulo the cyclotomic polynomial.
    """

    __slots__ = ("rs", "nums", "den")

    def __init__(self, rs: RootSystem, coeffs):
        coeffs = tuple(coeffs)
        den = lcm(*(c.denominator for c in coeffs))
        nums = _reduce_mod([c.numerator * (den // c.denominator) for c in coeffs], rs.modulus, rs.degree)
        g = gcd(den, *nums)
        self.rs, self.nums, self.den = rs, tuple(n // g for n in nums), den // g

    @property
    def coeffs(self):
        """The Fraction coefficients of 1, A, ..., A^(phi(2N)-1)."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- helpers ---------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.rs is not self.rs and not self.rs.compatible(other.rs):
                raise BackendMismatch("cyclotomic scalars from different root systems")
            return other
        if isinstance(other, (int, Fraction)):
            return self.rs.scalar(other)
        if isinstance(other, BigComplex):
            raise BackendMismatch("cannot mix exact and bigfloat scalars")
        return None

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self):
        """The rational value if the element is rational, else None."""
        if not any(self.nums[1:]):
            return Fraction(self.nums[0], self.den)
        return None

    # -- arithmetic --------------------------------------------------------------

    def _combine(self, o, sign):
        """self + sign * o: numerators add directly over a shared denominator."""
        da, db = self.den, o.den
        if da == db:
            nums = tuple(a + sign * b for a, b in zip(self.nums, o.nums))
        else:
            nums = tuple(a * db + sign * b * da for a, b in zip(self.nums, o.nums))
            da *= db
        return _from_ints(self.rs, nums, da)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _from_ints(self.rs, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        rs = self.rs
        prod = _poly_mul(self.nums, o.nums)
        return _from_ints(rs, _reduce_mod(prod, rs.modulus, rs.degree), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise VanishingDivisor("inverse of zero in the cyclotomic field")

        def trim(p):
            while p and p[-1] == 0:
                p.pop()
            return p

        # invariant: r_i = t_i * (den * self) modulo the modulus; the gcd is a
        # nonzero constant because the modulus is irreducible over Q
        r0 = trim(list(self.rs.modulus))
        r1 = trim(list(self.nums))
        t0, t1 = [0], [1]
        while len(r1) > 1:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, trim(rem)
            t0, t1 = t1, trim(_poly_sub(t0, _poly_mul(q, t1)))
            assert r1, "zero remainder while inverting in an irreducible quotient"
        scale = Fraction(self.den) / r1[0]
        return CyclotomicNumber(self.rs, [x * scale for x in t1])

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
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.rs.compatible(other.rs) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.rs.key(), self.nums, self.den))

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


# polynomial helpers on coefficient lists (index = power) of ints or Fractions

def _poly_divmod(num, den):
    """(quotient, remainder) of num by den; a monic den keeps integer inputs in integers."""
    num = list(num)
    dden = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dden:
        return [0], num
    out = [0] * (len(num) - dden)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i] if lead == 1 else Fraction(num[i]) / lead
        if c:
            out[i - dden] = c
            for j, d in enumerate(den):
                num[i - dden + j] -= c * d
    return out, num[:dden]


def _poly_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# bigfloat scalars
# ---------------------------------------------------------------------------

class BigComplex:
    """Arbitrary-precision complex number pinned to its root system's precision.

    The value is ``w``, its int quadruple (re man, re exp, im man, im exp)
    at the working precision, with signed mantissas and a zero part (0, 0):
    the format :func:`_add` reads and returns, and the entry format of the
    bigfloat matrix kernel.  + - * / and ``abs`` round on it as ``mpc``
    arithmetic at that context precision rounds (:func:`quad_add`,
    :func:`quad_sub`, :func:`quad_mul`, :func:`quad_div`, :func:`quad_abs`)
    and build their results from the quadruples they round; powers and roots
    are libmp's own calls.  The libmp pair is an edge format: a value that
    enters as one (:func:`from_pair`) keeps it as given, which may be wider
    than the working precision, and any other value packs ``pair`` from
    ``w`` on its first read.
    """

    __slots__ = ("rs", "w", "_pair")

    def __init__(self, rs: RootSystem, re, im):
        self._enter(rs, (re._mpf_, im._mpf_))

    def _enter(self, rs, pair):
        """Keep the finite libmp ``pair`` as given, and ``w`` read from it at the working precision."""
        self.rs = rs
        self._pair = finite_pair(pair)
        self.w = _ints(working_pair(pair, rs.precision_bits))

    @property
    def pair(self):
        """The libmp pair: as given where the value entered as one, else packed from ``w`` once."""
        p = self._pair
        if p is None:
            p = self._pair = _pack(self.w)
        return p

    re = property(lambda self: mp.make_mpf(self.pair[0]))
    im = property(lambda self: mp.make_mpf(self.pair[1]))

    @property
    def prec_bits(self) -> int:
        return self.rs.precision_bits

    def mpc(self):
        """The value as an ``mpc``, rounded to the ambient context precision."""
        return mpmath.mpc(self.re, self.im)

    def _coerce(self, other):
        if type(other) is BigComplex and other.rs is self.rs:
            return other
        if isinstance(other, BigComplex):
            if not self.rs.compatible(other.rs):
                raise BackendMismatch("bigfloat scalars from different root systems")
            return other
        if isinstance(other, (int, Fraction, float, complex, mpmath.mpf, mpmath.mpc)):
            return self.rs.scalar(other)
        if isinstance(other, CyclotomicNumber):
            raise BackendMismatch("cannot mix exact and bigfloat scalars")
        return None

    def _abs(self):
        return quad_abs(self.w, self.rs.precision_bits)

    def is_zero(self) -> bool:
        """|d| < rel_eps * (1 + |d|) on floats, settled from the exponents when far from the cut.

        With 2^(k-1) <= rel_eps < 2^k: E <= k - 3 puts |d| below 2^(k-2), under
        the cut; E >= k + 2 puts it at or above 2^(k+1), over the cut once
        rel_eps < 1/2.  Only the four exponents between take :func:`quad_abs`.
        """
        tol = self.rs.tolerance
        eps = tol.rel_eps
        e = quad_exponent(self.w)
        if e is not None and _MIN_NORMAL <= eps < 0.5:
            k = tol.exponent
            if e <= k - 3:
                return True
            if e >= k + 2:
                return False
        mag = to_float(self._abs(), rnd=RND)
        return mag < eps * (1.0 + mag)

    def magnitude(self):
        return mp.make_mpf(self._abs())

    # -- arithmetic --------------------------------------------------------------

    def _apply(self, fn, other, reflected=False):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = (o, self) if reflected else (self, o)
        if fn is quad_div:
            b._check_divisor()
        return from_quad(self.rs, fn(a.w, b.w, self.rs.precision_bits))

    def __add__(self, other):
        return self._apply(quad_add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(quad_sub, other)

    def __rsub__(self, other):
        return self._apply(quad_sub, other, reflected=True)

    def __mul__(self, other):
        return self._apply(quad_mul, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(quad_div, other)

    def __rtruediv__(self, other):
        return self._apply(quad_div, other, reflected=True)

    def __neg__(self):
        # rounding to nearest is odd, so flipping the mantissas' signs gives the rounded negation
        re, e, im, f = self.w
        return from_quad(self.rs, (-re, e, -im, f))

    def _check_divisor(self):
        """Refuse to divide by a scalar that :meth:`is_zero`."""
        if self.is_zero():
            raise VanishingDivisor(
                f"division by a scalar of magnitude {to_str(self._abs(), 8)} below the zero threshold")

    def inverse(self):
        return self.rs.one / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            self._check_divisor()
        prec = self.rs.precision_bits
        return from_pair(self.rs, mpc_pow_int(_pack(self.w), exponent, prec, RND))

    # -- comparison / display ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BigComplex):
            return NotImplemented
        return self.rs.compatible(other.rs) and self.w == other.w

    def __hash__(self):
        return hash((self.rs.key(), self.w))

    def __repr__(self):
        # nstr's digits without its parentheses, bare like CyclotomicNumber's
        return mpc_to_str(self.mpc()._mpc_, 12)


def from_pair(rs: RootSystem, pair) -> BigComplex:
    """The BigComplex that enters as the libmp pair ``pair``, kept as given.

    A part that is inf or nan raises :class:`NonFiniteScalar` (:func:`finite_pair`).
    """
    z = object.__new__(BigComplex)
    z._enter(rs, pair)
    return z


def from_quad(rs: RootSystem, w) -> BigComplex:
    """The BigComplex whose value is the int quadruple ``w``, parts as :func:`_add` returns them."""
    z = object.__new__(BigComplex)
    z.rs = rs
    z.w = w
    z._pair = None
    return z


def finite_pair(pair):
    """``pair`` as given, or raise :class:`NonFiniteScalar` if a part is inf or nan."""
    (_, rm, re, _), (_, im, ie, _) = pair
    if (re and not rm) or (ie and not im):  # libmp's inf and nan: zero mantissa, nonzero exponent
        raise NonFiniteScalar(f"scalar {mpc_to_str(pair, 8)} is not finite")
    return pair


# ---------------------------------------------------------------------------
# int quadruples: one int rounding for sums, differences and products; magnitudes from exponents
# ---------------------------------------------------------------------------

def _ints(z):
    """The int quadruple (re man, re exp, im man, im exp) of a finite pair, mantissas signed.

    A zero part reads (0, 0), as :func:`_add` returns a zero.  Read from a
    working pair (:func:`working_pair`), this is ``BigComplex.w``;
    :func:`_pack` turns a quadruple back into a pair.
    """
    (rsign, rman, rexp, _), (isign, iman, iexp, _) = z
    return (-rman if rsign else rman), rexp, (-iman if isign else iman), iexp


def _add(m1, e1, m2, e2, prec, down=False, exact=False):
    """m1 2^e1 + m2 2^e2 rounded to ``prec`` bits as libmp adds two mpf values, on ints.

    Returns the signed mantissa and exponent of the rounded, normalized sum.
    The exact sum is rounded half to even (toward zero when ``down``,
    libmp's default mode) and stripped of trailing zeros, as libmp's
    ``normalize`` does.  When one operand's exponent exceeds the other's by
    more than 100 and its leading bit lies more than prec + 4 bits above,
    libmp replaces the smaller operand by one unit of its sign, prec + 4 bits
    below the last bit of the larger one, and so does this.  When the larger
    operand has more than prec bits, as a mantissa product has, that unit
    can round otherwise than the exact sum; with ``exact`` the sum is the
    exact one rounded once (:func:`_far_sum`).  A zero operand leaves the
    other one rounded, so ``_add(m, e, 0, 0, prec)`` is the one rounding of
    every int-rounded result: sums, quotients and square roots.
    """
    if not m1:
        m, e = m2, e2
    elif not m2:
        m, e = m1, e1
    else:
        d = e1 - e2
        if d > 0:
            if d > 100 and m1.bit_length() - m2.bit_length() + d > prec + 4:
                if exact:
                    m, e = _far_sum(m1, e1, m2, e2, prec)
                else:
                    m, e = (m1 << prec + 4) + (1 if m2 > 0 else -1), e1 - prec - 4
            else:
                m, e = (m1 << d) + m2, e2
        elif d < 0:
            if d < -100 and m2.bit_length() - m1.bit_length() - d > prec + 4:
                if exact:
                    m, e = _far_sum(m2, e2, m1, e1, prec)
                else:
                    m, e = (m2 << prec + 4) + (1 if m1 > 0 else -1), e2 - prec - 4
            else:
                m, e = m1 + (m2 << -d), e1
        else:
            m, e = m1 + m2, e1
    if not m:
        return 0, 0
    man = -m if m < 0 else m
    n = man.bit_length() - prec
    if n > 0:
        if down:
            man >>= n
        else:
            t = man >> n - 1
            if t & 1 and (t & 2 or man & (1 << n - 1) - 1):
                man = (t >> 1) + 1
            else:
                man = t >> 1
        e += n
    if not man & 1:
        z = (man & -man).bit_length() - 1
        man >>= z
        e += z
    return (-man if m < 0 else man), e


def _far_sum(m1, e1, m2, e2, prec):
    """(m, e) that rounds to ``prec`` bits as m1 2^e1 + m2 2^e2 does, both nonzero, the second far below.

    Let p be the lesser of e1 and e1 + bit_length(m1) - prec - 2: the first
    term's last bit, or prec + 2 bits below its top.  Every rounding
    boundary near the sum is a
    multiple of 2^p, and so is the first term; a second term below 2^(p-1)
    in magnitude leaves the sum strictly between the first term and the
    next multiple of 2^(p-1) on its side, so a unit of its sign at 2^(p-2)
    rounds the same.  A larger second term is added exactly; its exponent
    then lies at most prec + 1 plus its own bit length below e1, so the
    work stays bounded at any gap.
    """
    p = min(e1, e1 + m1.bit_length() - prec - 2)
    if e2 + m2.bit_length() < p:
        return (m1 << e1 - p + 2) + (1 if m2 > 0 else -1), p - 2
    return (m1 << e1 - e2) + m2, e2


def _mpf(m, e):
    """The normalized ``_mpf_`` tuple of a signed mantissa and exponent from ``_add``."""
    if m < 0:
        return 1, -m, e, (-m).bit_length()
    return (0, m, e, m.bit_length()) if m else fzero


def _pack(z):
    """The finite pair of an int quadruple whose parts :func:`_add` returned; the inverse of :func:`_ints`."""
    re, e, im, f = z
    return _mpf(re, e), _mpf(im, f)


def quad_add(x, y, prec):
    """x + y of two int quadruples at ``prec`` bits, as ``mpc`` adds: one rounded :func:`_add` per part."""
    xr, xe, xi, xf = x
    yr, ye, yi, yf = y
    re, e = _add(xr, xe, yr, ye, prec)
    im, f = _add(xi, xf, yi, yf, prec)
    return re, e, im, f


def quad_sub(x, y, prec):
    """x - y of two int quadruples at ``prec`` bits, as ``mpc`` subtracts: one :func:`_add` per part."""
    xr, xe, xi, xf = x
    yr, ye, yi, yf = y
    re, e = _add(xr, xe, -yr, ye, prec)
    im, f = _add(xi, xf, -yi, yf, prec)
    return re, e, im, f


def quad_mul(x, y, prec):
    """x y of two int quadruples at ``prec`` bits as ``mpc`` multiplies.

    Per part, two exact mantissa products and one rounded :func:`_add`.
    """
    ar, er, ai, ei = x
    br, fr, bi, fi = y
    re, e = _add(ar * br, er + fr, -ai * bi, ei + fi, prec)
    im, f = _add(ar * bi, er + fi, ai * br, ei + fr, prec)
    return re, e, im, f


def _quotient(m, e, d, f, prec):
    """(mantissa, exponent) of m 2^e / d 2^f, d > 0 an int, rounded to ``prec`` bits as ``mpf_div`` does.

    The quotient keeps at least 5 guard bits, and a nonzero remainder adds
    a sticky last bit, so rounding it half to even rounds the exact
    quotient.  A divisor with mantissa 1, which ``mpf_div`` takes apart,
    leaves no remainder and gives the same bits.
    """
    man = -m if m < 0 else m
    extra = max(5, prec - man.bit_length() + d.bit_length() + 5)
    q, r = divmod(man << extra, d)
    if r:
        q = q << 1 | 1
        extra += 1
    return _add(-q if m < 0 else q, e - f - extra, 0, 0, prec)


def quad_div(x, y, prec):
    """x / y of two int quadruples at ``prec`` bits, as ``mpc_div`` divides.

    |y|^2 and the numerators re(x conj y), im(x conj y) are each two exact
    mantissa products and one :func:`_add` rounded down to prec + 10 bits;
    each part is then one :func:`_quotient`.  y must not be zero.
    """
    a, ea, b, eb = x
    c, ec, d, ed = y
    wp = prec + 10
    mag, em = _add(c * c, ec + ec, d * d, ed + ed, wp, down=True)
    re, e = _add(a * c, ea + ec, b * d, eb + ed, wp, down=True)
    im, f = _add(b * c, eb + ec, -a * d, ea + ed, wp, down=True)
    return _quotient(re, e, mag, em, prec) + _quotient(im, f, mag, em, prec)


def _hypot_sum(xm, xe, ym, ye, prec):
    """xm^2 2^(2 xe) + ym^2 2^(2 ye) as ``mpf_hypot`` sums it: exact squares, rounded down to prec + 4 bits.

    Returns the mantissa and exponent.  :func:`quad_abs` takes its square
    root, and ``matrices._raw_worst`` ranks two-part entries by it.
    """
    return _add(xm * xm, xe + xe, ym * ym, ye + ye, prec + 4, down=True)


def quad_abs(z, prec):
    """|z| of an int quadruple at ``prec`` bits as ``mpc_abs`` takes it (``mpf_hypot``), as an ``_mpf_``.

    A value with at most one nonzero part gives that part's magnitude
    rounded.  Otherwise the exact squares are summed rounded down to
    prec + 4 bits, and the square root keeps at least 4 guard bits plus a
    sticky last bit for a nonzero remainder before it rounds half to even.
    A sum with mantissa 1, whose root ``mpf_sqrt`` takes apart, has an exact
    root and gives the same bits.
    """
    xm, xe, ym, ye = z
    if not xm or not ym:
        return _mpf(*_add(abs(xm), xe, abs(ym), ye, prec))
    s, e = _hypot_sum(xm, xe, ym, ye, prec)
    if e & 1:
        e -= 1
        s <<= 1
    shift = max(4, 2 * prec - s.bit_length() + 4)
    shift += shift & 1
    s <<= shift
    r = isqrt(s)
    if r * r != s:
        r = r << 1 | 1
        shift += 2
    return _mpf(*_add(r, (e - shift) >> 1, 0, 0, prec))


def quad_exponent(z):
    """E with 2^(E-1) <= |z| < 2^(E+1), read from the parts' exponent + bit length; None for zero.

    A nonzero part lies in [2^(exp+bits-1), 2^(exp+bits)), and |z| is at
    least its larger part and below sqrt(2) times it.  The bounds are powers
    of two, so :func:`quad_abs` rounded to nearest also lies in [2^(E-1), 2^(E+1)].
    """
    re, e, im, f = z
    if re:
        return max(e + re.bit_length(), f + im.bit_length()) if im else e + re.bit_length()
    return f + im.bit_length() if im else None


def _settled_below(d, scales, rel_eps):
    """:func:`below_cut` when the exponents settle it, else None.

    With 2^(k-1) <= rel_eps < 2^k and 2^lo <= max(1, |s|, ...) <= 2^hi, the
    cut lies in [2^(k-1+lo), 2^(k+hi)] and |d| in [2^(E-1), 2^(E+1)].
    """
    if rel_eps == 0.0:
        return None
    lo = hi = 0
    for s in scales:
        e = quad_exponent(s)
        if e is not None:
            lo, hi = max(lo, e - 1), max(hi, e + 1)
    e = quad_exponent(d)
    if e is None:
        return True
    k = frexp(rel_eps)[1]
    if e + 2 < k + lo:
        return True
    if e - 1 >= k + hi:
        return False
    return None


def below_cut(d, scales, rel_eps, prec):
    """|d| < rel_eps * max(1, |s| for s in ``scales``) on int quadruples: ``approx_eq``'s decision.

    Each magnitude is one rounded :func:`quad_abs` and the cut one rounded
    product, but the parts' exponents settle the decision unless |d| lies
    within a factor of about 4 of the cut; only then are the magnitudes
    taken.
    """
    settled = _settled_below(d, scales, rel_eps)
    if settled is not None:
        return settled
    scale = fone
    for s in scales:
        mag = quad_abs(s, prec)
        if mpf_gt(mag, scale):
            scale = mag
    return mpf_lt(quad_abs(d, prec), mpf_mul(from_float(rel_eps), scale, prec, RND))


def working_pair(pair, prec):
    """``pair`` with each part wider than ``prec`` bits rounded to ``prec``.

    This is how ``mpc()`` reads a part at context precision ``prec``; a part
    that already fits is returned unchanged, since libmp values are
    normalized.
    """
    re, im = pair
    if re[3] > prec:
        re = mpf_pos(re, prec, RND)
    if im[3] > prec:
        im = mpf_pos(im, prec, RND)
    return re, im


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
        return from_pair(target, working_pair(c.pair, target.precision_bits))
    # Horner in A, on the target's own arithmetic
    acc = target.zero
    for coeff in reversed(c.coeffs):
        acc = acc * target.A + coeff
    return acc


def approx_eq(a: Scalar, b: Scalar, tol: Tolerance = None) -> bool:
    """Exact equality in the exact backend; relative-magnitude comparison otherwise.

    Two bigfloat scalars agree when |a - b| < rel_eps * max(1, |a|, |b|).
    Against an exact zero b this is |a| < rel_eps * max(1, |a|), decided on
    a's quadruple without forming a - 0, which is that quadruple itself.
    """
    if isinstance(a, CyclotomicNumber):
        return a == b
    o = a._coerce(b)
    prec = a.rs.precision_bits
    rel_eps = (tol or a.rs.tolerance).rel_eps
    x, y = a.w, o.w
    if y == _ZERO_QUAD:
        return below_cut(x, (x,), rel_eps, prec)
    return below_cut(quad_sub(x, y, prec), (x, y), rel_eps, prec)


def solve_quadratic(a: Scalar, b: Scalar, c: Scalar):
    """Both roots (-b +/- sqrt(b^2 - 4ac)) / 2a of a*y^2 + b*y + c = 0.

    In the bigfloat backend the square root takes the principal branch.  The
    exact backend only handles discriminants that are perfect squares of
    rationals (enough for the degenerate and unit cases); anything else
    raises :class:`UnsupportedExactOperation`.  A zero leading coefficient
    is refused by the division, with :class:`VanishingDivisor`.
    """
    rs = a.rs
    disc = b * b - 4 * a * c
    if isinstance(disc, CyclotomicNumber):
        rat = disc.is_rational()
        root = None if rat is None else _fraction_sqrt(rat)
        if root is None:
            raise UnsupportedExactOperation(
                f"exact quadratic requires a rational perfect-square discriminant, got {disc!r}")
        sq = rs.scalar(root)
    else:
        sq = from_pair(rs, mpc_sqrt(_pack(disc.w), rs.precision_bits, RND))
    two_a = 2 * a
    return (-b + sq) / two_a, (-b - sq) / two_a


def nth_root(y: Scalar, n: int) -> Scalar:
    """Principal n-th root (argument in (-pi/n, pi/n]).  Bigfloat backend only."""
    if isinstance(y, CyclotomicNumber):
        raise UnsupportedExactOperation("n-th roots are not supported in the exact backend")
    prec = y.rs.precision_bits
    return from_pair(y.rs, mpc_nthroot(_pack(y.w), n, prec, RND))
