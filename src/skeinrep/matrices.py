"""Dense matrices over backend scalars, plus numerical-rank utilities.

Matrices are numpy object arrays whose entries are scalars of a single root
system.  Products, sums, the T_n recurrence and residuals go through
:func:`kernel`, the one place that picks a backend's working format: the
object arrays themselves (exact), or rows of int quadruples (bigfloat):
(re mantissa, re exponent, im mantissa, im exponent) with signed mantissas,
the values ``scalars._add`` reads and returns, and None for an exact zero.
That quadruple is what a ``BigComplex`` holds (``BigComplex.w``), so
``unpack`` reads each entry's own quadruple and ``wrap`` makes each result
entry a ``BigComplex`` of its quadruple (``scalars.from_quad``): nothing is
converted at either end.  Each part of a product entry of A B is its
exact value rounded once by ``scalars._add``, libmp's rounding on Python
ints, so it is in general not the entrywise object arithmetic's, which
rounds every term and accumulation; a one-term product (``times``, a
scaled term of ``combine``) is the product entry with that one term.
``combine``, the kernel's one sum, and the scalar arithmetic round as
``BigComplex`` arithmetic rounds, in the same order and with the same
primitive, and keep its bits.  T_n of a matrix
runs on one block grid with guard bits: its argument goes onto its exact
grid once, T_{k-1} and T_k stay ints on a grid prec + ``_GUARD`` bits
below their top bit, each step rounds the exact sums of arg T_k onto it
once per part, and each part of T_n is rounded once, at the end, by
``scalars._add``; exact zeros stay None (:func:`chebyshev_rows`).  The
scalar read-outs are one code for both backends: :func:`read_scalar_matrix` (with
:func:`read_scalar`) validates each entry with ``approx_eq``, and
:func:`scalar_residual` adds -s to the diagonal of kernel rows, the ones a
representation keeps; the largest entry of a bigfloat residual takes
:func:`scalars.quad_abs` of two entries at most.

Each part of each entry of an intertwiner defect M A - B M is its exact
value rounded once: a dense M, whatever its shape, takes the one product
[M | -B] [A ; M].  A monomial M = P_sigma diag(m), the shape every
ladder-walk certificate has, forms each entry from the two terms it holds,
m_k A[k, l] and B[sigma(k), sigma(l)] m_l, as exact ints on the grids M, A
and B keep, and rounds only the entries that can be the largest; both give
the same residual floats.  :class:`Monomial` is the one owner of that
(sigma, m) format and reads its entries once.  A and B come in as
:class:`Image` s, the one record a representation keeps per image of its
kernel rows, their exact grid and their exact zero pattern (each row's and
column's nonzeros, whence diagonal and s Id): a monomial defect visits only
the entries where one of its two terms is nonzero, O(nnz) per image, and
its backward error (M A - B M) M^-1 takes the same pass.  Every largest
entry magnitude is the kernel's ``worst``, or the largest of its entries
that can be (:func:`_grid_worst`).

The relation defects of a bigfloat representation take the grid kernel
(:func:`grid_kernel`): the same operations on exact (re, im) ints on a grid
2^e, products by :func:`_mac` and sums shifted onto their least exponent,
so each part of each entry of a defect is its exact value, and only the
entries that can be the largest are rounded, once.

Bigfloat rank and nullspace decisions come from one SVD at the root
system's working precision: singular values below rel_eps * sigma_max count
as zero, and the nullvectors are the matching right singular vectors.  The
exact backend eliminates over the cyclotomic field.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cached_property
from itertools import chain

import numpy as np
import mpmath
from mpmath import mp
from mpmath.libmp import fzero, mpf_gt, to_float

from .errors import NonScalarChebyshev
from .scalars import (RND, CyclotomicNumber, RootSystem, _add, _hypot_sum, approx_eq, float_abs, from_pair,
                      from_quad, numeric_bridge, quad_abs, quad_add, quad_div, quad_exponent)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def zeros(rs: RootSystem, n: int, m: int = None):
    m = n if m is None else m
    out = np.empty((n, m), dtype=object)
    z = rs.zero
    for i in range(n):
        for j in range(m):
            out[i, j] = z
    return out


def identity(rs: RootSystem, n: int):
    return scalar_matrix(rs.one, n)


def scalar_matrix(s, n: int):
    out = zeros(s.rs, n)
    for i in range(n):
        out[i, i] = s
    return out


def diagonal(entries):
    n = len(entries)
    out = zeros(entries[0].rs, n)
    for i, e in enumerate(entries):
        out[i, i] = e
    return out


def freeze(mat):
    mat.flags.writeable = False
    return mat


def mat_scale(s, mat):
    n, m = mat.shape
    out = np.empty((n, m), dtype=object)
    for i in range(n):
        for j in range(m):
            out[i, j] = s * mat[i, j]
    return out


# ---------------------------------------------------------------------------
# kernels: one working format per backend
# ---------------------------------------------------------------------------

def _raw_entry(s):
    """The int quadruple ``s.w`` of a scalar, each part's signed mantissa and exponent; None for an exact zero."""
    w = s.w
    return w if w[0] or w[2] else None


def _raw_rows(mat):
    """Rows of raw entries (:func:`_raw_entry`)."""
    return [[_raw_entry(e) for e in row] for row in mat]


def _wrap(rs, rows):
    """Object array of BigComplex from raw rows, each holding its quadruple as it is."""
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    zero = rs.zero
    for i, row in enumerate(rows):
        for j, z in enumerate(row):
            out[i, j] = zero if z is None else from_quad(rs, z)
    return out


def _span(rows):
    """(least, largest) exponent of the nonzero parts of raw rows, or None when every part is zero."""
    exps = [z[1] for row in rows for z in row if z is not None and z[0]]
    exps += [z[3] for row in rows for z in row if z is not None and z[2]]
    return (min(exps), max(exps)) if exps else None


def _on_grid(rows, base):
    """Rows of (re, im) ints, each part of a raw entry as an int on the grid 2^base; None stays None.

    A part at or above ``base`` is shifted there exactly; a part below it,
    which only a clamped T_n argument holds (:func:`_raw_chebyshev`), is
    rounded onto it (:func:`_shifted`).
    """
    return [[None if z is None else (
        (z[0] << z[1] - base if z[1] >= base else _shifted(z[0], base - z[1])) if z[0] else 0,
        (z[2] << z[3] - base if z[3] >= base else _shifted(z[2], base - z[3])) if z[2] else 0)
        for z in row] for row in rows]


def _shifted(x, s):
    """The int x 2^-s: x shifted left by -s bits when s <= 0, else rounded to nearest, ties up."""
    if s <= 0:
        return x << -s
    return (x >> s - 1) + 1 >> 1


def _mac(a, b, m):
    """Rows of the exact (re, im) int sums of A B, for A and B as rows of (re, im) ints on grids.

    Entry (i, j) of the m columns is sum_k A[i, k] B[k, j] over the k where
    neither is None, on the grid of the two grids' exponents added, and
    (0, 0) when there is no such k.  Each term takes three int products,
    (ar + i ai)(br + i bi) = ar br - ai bi + i ((ar + ai)(br + bi) - ar br -
    ai bi), with ar + ai formed once per row.  This is the kernel's one
    multiply-accumulate loop: :func:`_raw_product`, the dense intertwiner
    defect (:func:`_dense_defect`) and the T_n recurrence
    (:func:`_raw_chebyshev`) round its sums.
    """
    cols = range(m)
    out = []
    for a_row in a:
        terms = [(b_row, z[0], z[1], z[0] + z[1]) for b_row, z in zip(b, a_row) if z is not None]
        row = []
        for j in cols:
            re = im = 0
            for b_row, ar, ai, a_sum in terms:
                y = b_row[j]
                if y is not None:
                    br, bi = y
                    rr = ar * br
                    ii = ai * bi
                    re += rr - ii
                    im += a_sum * (br + bi) - rr - ii
            row.append((re, im))
        out.append(row)
    return out


_GRID_SPREAD = 4  # times prec: the widest exponent spread whose product entries are summed on one grid


def _raw_product(a_rows, b_rows, prec):
    """Raw rows of A B.

    Each part of entry (i, j) is the exact value of sum_k A[i, k] B[k, j],
    rounded once, half to even, by ``scalars._add(m, e, 0, 0, prec)``; an
    entry whose exact value is zero is None, and exact zeros form no term.
    So an entry's bits depend neither on the order of its terms nor on how
    they are summed.  The exact value is one int per part: when the
    exponents of the nonzero parts of the products' terms spread over at
    most ``_GRID_SPREAD`` prec bits, each matrix is shifted once onto the
    grid of its least exponent (:func:`_on_grid`) and the mantissa products
    add with no shift (:func:`_mac`).  A wider spread is summed entry by
    entry by :func:`_term_product`, whose work stays bounded however far
    apart the terms lie.
    """
    sa, sb = _span(a_rows), _span(b_rows)
    if sa is None or sb is None:  # every product term has a zero factor
        return [[None] * len(b_rows[0]) for _ in a_rows]
    if sa[1] + sb[1] - sa[0] - sb[0] > _GRID_SPREAD * prec:
        return _term_product(a_rows, b_rows, prec)
    return _rounded(_mac(_on_grid(a_rows, sa[0]), _on_grid(b_rows, sb[0]), len(b_rows[0])), sa[0] + sb[0], prec)


def _rounded(rows, e, prec):
    """Raw rows of rows of (re, im) ints on the grid 2^e, each part rounded once by ``scalars._add``.

    An entry that is None or 0 + 0i is None.
    """
    out = []
    for row in rows:
        new = []
        for z in row:
            if z and (z[0] or z[1]):
                re, f = _add(z[0], e, 0, 0, prec)
                im, g = _add(z[1], e, 0, 0, prec)
                z = re, f, im, g
            else:
                z = None
            new.append(z)
        out.append(new)
    return out


def _leading_sum(terms, prec, reach):
    """(s, lo, g, rest): s 2^lo is the exact sum of the leading ``terms``, nonzero (m, e) pairs by falling top.

    Terms are added until the sum is nonzero and every term left lies below
    2^(g - reach), where g is the lesser of the sum's last bit and prec + 8
    bits below its leading bit; ``rest`` holds those terms, and is empty
    (with g None) when every term was added.
    """
    s = lo = 0
    for k, (m, e) in enumerate(terms):
        if s:
            g = min(lo, lo + s.bit_length() - prec - 8)
            if e + m.bit_length() + reach <= g:
                return s, lo, g, terms[k:]
            if e < lo:
                s, lo = (s << lo - e) + m, e
            else:
                s += m << e - lo
        else:
            s, lo = m, e
    return s, lo, None, []


def _sticky_sum(terms, prec):
    """(m, e) that rounds to ``prec`` bits as the exact sum of ``terms``, a list of (m, e) with m nonzero.

    The terms are summed exactly, largest top (e + m.bit_length()) first, by
    :func:`_leading_sum` with reach bit_length(len(terms)).  The terms it
    leaves sum to less than 2^g, the spacing of a grid on which the sum and
    every rounding boundary near it lie, so they are replaced by half a unit
    of their sign, and the sum rounds as the exact one does.  That sign is
    the sign of their own leading sum, which outweighs whatever it leaves.
    A sum that cancels to zero starts again at the next term, so the int
    never spans much more than prec + 8 bits and two terms' mantissas,
    however far apart the exponents lie.  No terms give (0, 0).
    """
    terms = sorted(terms, key=lambda t: t[1] + t[0].bit_length(), reverse=True)
    reach = len(terms).bit_length()
    s, lo, g, rest = _leading_sum(terms, prec, reach)
    if not rest:
        return s, lo
    r = _leading_sum(rest, prec, reach)[0]
    return (s << lo - g + 1) + (r > 0) - (r < 0), g - 1


def _term_product(a_rows, b_rows, prec):
    """:func:`_raw_product` entry by entry: each part's terms, as (mantissa, exponent), go to :func:`_sticky_sum`."""
    cols = range(len(b_rows[0]))
    out = []
    for a_row in a_rows:
        terms = [(b_row, z) for b_row, z in zip(b_rows, a_row) if z is not None]
        row = []
        for j in cols:
            re, im = [], []
            for b_row, (ar, er, ai, ei) in terms:
                y = b_row[j]
                if y is not None:
                    br, fr, bi, fi = y
                    re += (ar * br, er + fr), (-ai * bi, ei + fi)
                    im += (ar * bi, er + fi), (ai * br, ei + fr)
            x, e = _add(*_sticky_sum([t for t in re if t[0]], prec), 0, 0, prec)
            y, f = _add(*_sticky_sum([t for t in im if t[0]], prec), 0, 0, prec)
            row.append((x, e, y, f) if x or y else None)
        out.append(row)
    return out


def _raw_plus(a, b, prec):
    """a + b of two raw entries, rounded as ``BigComplex.__add__`` rounds it.

    :func:`scalars.quad_add`, and a zero sum is an exact zero.  An exact
    zero operand leaves the other one as it is: a raw entry has at most prec
    bits and odd mantissas, so ``_add`` with 0 neither rounds nor strips it.
    """
    if a is None:
        return b
    if b is None:
        return a
    z = quad_add(a, b, prec)
    return z if z[0] or z[2] else None


class Scaled(namedtuple("Scaled", "s rows")):
    """s times the kernel rows ``rows``, or s Id when ``rows`` is None, for a kernel entry s.

    A term of the kernel's ``combine`` other than plain rows.
    """

    __slots__ = ()


def _raw_combine(terms, prec):
    """Raw rows of the sum of ``terms``, or ``Scaled(s, None)`` when every term is an s Id.

    Leading s Id terms add as scalars until the first term with rows, which
    seeds the sum and gives its dimension: plain rows are copied, a
    :class:`Scaled` term gives s e, each part rounded once
    (:func:`_raw_times`), for each entry e, and the leading scalar adds to
    the diagonal.  Later terms fold in left to right, entry by entry, by
    :func:`_raw_plus`: rows add their entries, a scaled term adds s e, and
    an s Id adds s to the diagonal.  The bits are those of folding every
    term from s Id: ``_raw_times`` and ``quad_add`` are symmetric in their
    operands, and an exact zero (None) adds as assignment and forms no
    term.  A sum that is exactly zero is None; the terms' rows are read,
    never changed.
    """
    lead = acc = None
    for term in terms:
        scaled = isinstance(term, Scaled)
        s, rows = term if scaled else (None, term)
        if rows is None:
            if acc is None:
                lead = _raw_plus(lead, s, prec)
            else:
                for i, row in enumerate(acc):
                    row[i] = _raw_plus(row[i], s, prec)
            continue
        if acc is None:
            if scaled:
                acc = [[_raw_times(s, e, prec) for e in row] for row in rows]
            else:
                acc = [list(row) for row in rows]
            if lead is not None:
                for i, row in enumerate(acc):
                    row[i] = _raw_plus(row[i], lead, prec)
            continue
        if scaled:
            if s is None:  # every product has an exact zero factor
                continue
            sr, se, si, sf = s
        for acc_row, row in zip(acc, rows):
            for j, e in enumerate(row):
                if e is None:
                    continue
                if scaled:  # _raw_times(s, e), inline
                    br, fr, bi, fi = e
                    re, x = _add(sr * br, se + fr, -si * bi, sf + fi, prec, exact=True)
                    im, y = _add(sr * bi, se + fi, si * br, sf + fr, prec, exact=True)
                    e = re, x, im, y
                a = acc_row[j]
                if a is None:
                    acc_row[j] = e
                else:
                    re, x = _add(a[0], a[1], e[0], e[1], prec)
                    im, y = _add(a[2], a[3], e[2], e[3], prec)
                    acc_row[j] = (re, x, im, y) if re or im else None
    return Scaled(lead, None) if acc is None else acc


def _raw_times(a, b, prec):
    """a b of two raw entries, each part its exact value rounded once: the kernel's one-term product.

    This is the entry of :func:`_raw_product` that has the one term a b, so
    ``times`` rounds as the dense product does, and so do the
    :class:`Scaled` terms of :func:`_raw_combine`, which form it inline.
    Each part adds its two mantissa products by ``scalars._add`` with
    ``exact``; :func:`scalars.quad_mul`, the scalar ``*``, keeps libmp's
    shortcut for products lying far apart, and can differ in the last bit.  An exact
    zero factor forms no term and gives None; otherwise the exact parts of
    a b are not both zero, and neither is the result.
    """
    if a is None or b is None:
        return None
    ar, er, ai, ei = a
    br, fr, bi, fi = b
    re, e = _add(ar * br, er + fr, -ai * bi, ei + fi, prec, exact=True)
    im, f = _add(ar * bi, er + fi, ai * br, ei + fr, prec, exact=True)
    return re, e, im, f


def _raw_widen(s, n):
    """Raw rows of s Id in dimension n."""
    return [[s if i == j else None for j in range(n)] for i in range(n)]


def _raw_support(rows):
    """Each raw row's columns that hold no exact zero (None)."""
    return [[j for j, z in enumerate(row) if z is not None] for row in rows]


def _hypot2(z, prec):
    """:func:`scalars._hypot_sum` of a two-part raw entry as (exponent, mantissa).

    This is the sum whose square root :func:`scalars.quad_abs` rounds
    correctly, so an entry with a larger key never has a smaller
    ``quad_abs``.  The mantissa is widened to exactly prec + 4 bits, so keys
    compare as tuples.
    """
    s, e = _hypot_sum(*z, prec)
    n = prec + 4 - s.bit_length()
    return e - n, s << n


def _exceeds(m, e, n, f):
    """Whether m 2^e > n 2^f, exactly."""
    lo = min(e, f)
    return m << e - lo > n << f - lo


def _raw_worst(rows, prec):
    """(exactly zero, float magnitude of the largest entry) of raw rows.

    The largest :func:`scalars.quad_abs` is found as a raw mpf and rounded
    to float once, as ``float(mpf)`` rounds it, and taken of two entries at
    most.  An entry 0 + 0i, as a defect can hold, is zero; an entry whose
    magnitude exponent (:func:`scalars.quad_exponent`) lies 2 or more below
    the largest one cannot exceed that entry's ``quad_abs`` and is passed
    over.  Of an entry with one nonzero part, ``quad_abs`` is that part's magnitude
    rounded to prec bits, so the largest comes from the largest |part|; of
    an entry with two, it grows with :func:`_hypot2`.  The two groups'
    winners are compared by their ``quad_abs``, not by exact magnitude: a
    one-part entry can round above a two-part entry larger by less than
    2^-(prec+3) of it.  A lone nonzero entry is not ranked.
    """
    found = [(t, z) for row in rows for z in row
             if z is not None and (t := quad_exponent(z)) is not None]
    if len(found) == 1:
        return False, to_float(quad_abs(found[0][1], prec), rnd=RND)
    cut = max((t for t, _ in found), default=0) - 1
    single = single_abs = pair = pair_key = None
    for t, z in found:
        if t >= cut:
            re, e, im, f = z
            if not re or not im:
                m, x = (abs(re), e) if re else (abs(im), f)
                if single is None or _exceeds(m, x, *single_abs):
                    single, single_abs = z, (m, x)
            else:
                key = _hypot2(z, prec)
                if pair is None or key > pair_key:
                    pair, pair_key = z, key
    worst = fzero
    for z in (single, pair):
        if z is not None:
            mag = quad_abs(z, prec)
            if mpf_gt(mag, worst):
                worst = mag
    return worst == fzero, to_float(worst, rnd=RND)


def entry_magnitude(s) -> float:
    """Float magnitude of a scalar; exact scalars are bridged at 64 bits."""
    if isinstance(s, CyclotomicNumber):
        if s.is_zero():
            return 0.0
        return float(numeric_bridge(s, 64).magnitude())
    return float(s.magnitude())


def is_zero_matrix(mat) -> bool:
    """Identically-zero test; exact in the exact backend."""
    return all(e.is_zero() for e in mat.flat)


def _same(mat):
    return mat


def _exact_worst(rows):
    entries = [e for row in rows for e in row]
    exact = all(e.is_zero() for e in entries)
    return exact, 0.0 if exact else max(entry_magnitude(e) for e in entries)


def _exact_support(mat):
    return [[j for j, e in enumerate(row) if not e.is_zero()] for row in mat]


def _exact_combine(terms):
    """:func:`_raw_combine` on object arrays: leading scalars add as scalars, then whole arrays."""
    lead = total = None
    for term in terms:
        s, mat = term if isinstance(term, Scaled) else (None, term)
        if mat is None:
            if total is None:
                lead = s if lead is None else lead + s
            else:
                total = total + scalar_matrix(s, total.shape[0])
            continue
        value = mat if s is None else mat_scale(s, mat)
        if total is None:
            total = value if lead is None else value + scalar_matrix(lead, value.shape[0])
        else:
            total = total + value
    return Scaled(lead, None) if total is None else total


Kernel = namedtuple("Kernel", "unpack wrap product combine worst entry times widen support")
_EXACT_KERNEL = Kernel(_same, np.copy, operator.matmul, _exact_combine, _exact_worst,
                       _same, operator.mul, scalar_matrix, _exact_support)


def _bigfloat_kernel(rs):
    """The raw-row functions at the working precision of ``rs``.

    Each is looked up by name when called, so a kernel built once still calls
    a module function that is rebound later.
    """
    prec = rs.precision_bits
    return Kernel(lambda mat: _raw_rows(mat), lambda rows: _wrap(rs, rows),
                  lambda a, b: _raw_product(a, b, prec),
                  lambda terms: _raw_combine(terms, prec), lambda rows: _raw_worst(rows, prec),
                  lambda s: _raw_entry(s), lambda a, b: _raw_times(a, b, prec),
                  lambda s, n: _raw_widen(s, n), lambda rows: _raw_support(rows))


def kernel(rs: RootSystem) -> Kernel:
    """Matrix and scalar arithmetic in the working format of ``rs``, one kernel per root system.

    ``unpack`` reads an object array into the working format and ``wrap``
    makes a new object array of a result; ``product(a, b)`` is A B, each
    part of each bigfloat entry rounded once from its exact value
    (:func:`_raw_product`), and ``worst`` is (exactly zero, float magnitude
    of the largest entry) of any list of rows.  ``combine(terms)`` is the
    sum of a list of terms, each plain rows, ``Scaled(s, rows)`` (s rows) or
    ``Scaled(s, None)`` (s Id), folded left to right entry by entry; it is
    rows, or ``Scaled(s, None)`` when every term is an s Id
    (:func:`_raw_combine`).  It is the one way a scalar acts on rows: (s Id)
    B is ``combine([Scaled(s, B)])`` and B + s Id is ``combine([B, Scaled(s,
    None)])``, which are also B (s Id) and s Id + B, as exact products and
    sums commute and :func:`_raw_times` and ``quad_add`` are symmetric in
    their operands.  A scalar s stands for s Id: ``entry`` reads it,
    ``times`` multiplies two of them and ``widen(s, n)`` is s Id, with the
    bits the matrix operation on s Id gives; ``support(B)`` lists each row's
    columns that hold no exact zero.  The exact kernel works on object
    arrays and scalars as they are, and its ``combine`` adds whole arrays
    (:func:`_exact_combine`); the bigfloat kernel is the raw-row functions
    above at the working precision, on rows of the scalars' own int
    quadruples (``BigComplex.w``, None for an exact zero), and is kept on
    the root system object itself, whose scalars it wraps.
    """
    if rs.backend == "exact":
        return _EXACT_KERNEL
    k = rs.__dict__.get("_kernel")
    if k is None:
        k = rs._kernel = _bigfloat_kernel(rs)
    return k


# ---------------------------------------------------------------------------
# the grid kernel: exact values of bigfloat expressions
# ---------------------------------------------------------------------------

class OffGrid(Exception):
    """A grid-kernel value would spread over more than ``_GRID_SPREAD`` prec bits; take the rounded kernel."""


class Grid(namedtuple("Grid", "rows e")):
    """Rows of exact (re, im) ints on the grid 2^e, None for an exact zero: the grid kernel's rows."""

    __slots__ = ()


def _grid_image(img, prec):
    """The rows of an :class:`Image` that is not exactly zero as a :class:`Grid`, on the grid of their least exponent.

    Raises :class:`OffGrid` when their ``span`` exceeds ``_GRID_SPREAD`` prec bits.
    """
    lo, hi = img.span
    if hi - lo > _GRID_SPREAD * prec:
        raise OffGrid
    return Grid(_on_grid(img.rows, lo), lo)


def _grid_entry(s, prec):
    """A scalar's exact value as (re, im, e), ints on the grid 2^e of its least part exponent; None for zero.

    Raises :class:`OffGrid` when the parts lie over ``_GRID_SPREAD`` prec bits apart.
    """
    re, e, im, f = s.w
    if not (re and im):
        return (re, 0, e) if re else (0, im, f) if im else None
    if abs(e - f) > _GRID_SPREAD * prec:
        raise OffGrid
    lo = min(e, f)
    return re << e - lo, im << f - lo, lo


def _grid_times(a, b):
    """The exact product of two grid entries; an exact zero factor gives None."""
    if a is None or b is None:
        return None
    ar, ai, e = a
    br, bi, f = b
    return ar * br - ai * bi, ar * bi + ai * br, e + f


def _grid_product(a, b):
    """The exact product A B of two :class:`Grid` s (:func:`_mac`), on the grid of their exponents added."""
    return Grid([[z if z[0] or z[1] else None for z in row] for row in _mac(a.rows, b.rows, len(b.rows[0]))],
                a.e + b.e)


def _grid_combine(terms, prec):
    """The exact sum of ``terms``, as a :class:`Grid`, or ``Scaled(s, None)`` when it is s Id.

    Terms are as for :func:`_raw_combine`, of grid values.  Each is formed
    exactly (s B by the exact products of its entries) on the least grid
    exponent among them, rows are added entry by entry as ints, and the
    s Id terms, summed, are added to the diagonal; an entry that sums to
    zero is None.  The terms' rows are read, never changed.  Raises
    :class:`OffGrid` when the terms' grid exponents spread over
    ``_GRID_SPREAD`` prec bits and the common grid would widen the sum by
    more than that (:func:`_live_parts`).
    """
    parts = []
    for term in terms:
        if not isinstance(term, Scaled):
            parts.append((None, term, term.e))
        elif term.s is not None:  # else an exact zero
            s, g = term
            parts.append((s, g, s[2] + (0 if g is None else g.e)))
    base = min((e for _, _, e in parts), default=None)
    if parts and max(e for _, _, e in parts) - base > _GRID_SPREAD * prec:
        parts, base = _live_parts(parts, prec)
    if not parts:
        return Scaled(None, None)
    lead = (0, 0)  # the s Id terms, summed
    acc, owned = None, False  # owned: acc is a new list, not a term's rows
    for s, g, e in parts:
        d = e - base
        if g is None:
            lead = lead[0] + (s[0] << d), lead[1] + (s[1] << d)
            continue
        if s is not None:
            sr, si = s[0] << d, s[1] << d
            rows = [[None if y is None else (sr * y[0] - si * y[1], sr * y[1] + si * y[0]) for y in row]
                    for row in g.rows]
        elif d:
            rows = [[None if y is None else (y[0] << d, y[1] << d) for y in row] for row in g.rows]
        else:
            rows = g.rows
        if acc is None:
            acc, owned = rows, rows is not g.rows
            continue
        if not owned:
            acc, owned = [list(row) for row in acc], True
        for acc_row, row in zip(acc, rows):
            for j, y in enumerate(row):
                if y is not None:
                    z = acc_row[j]
                    if z is None:
                        acc_row[j] = y
                    else:
                        re, im = z[0] + y[0], z[1] + y[1]
                        acc_row[j] = (re, im) if re or im else None
    if acc is None:
        return Scaled(lead + (base,) if lead[0] or lead[1] else None, None)
    if lead[0] or lead[1]:
        if not owned:
            acc = [list(row) for row in acc]
        for i, row in enumerate(acc):
            z = row[i]
            if z is None:
                row[i] = lead
            else:
                re, im = z[0] + lead[0], z[1] + lead[1]
                row[i] = (re, im) if re or im else None
    return Grid(acc, base)


def _live_parts(parts, prec):
    """The nonzero (s, B, e) terms of a :func:`_grid_combine` sum, and the least grid exponent among them.

    A term's width is the bit length of its widest int, of s plus of B for
    s B.  On the least exponent the sum is as wide as the highest top (e +
    width) less that exponent; when this exceeds the widest term's own
    width by more than ``_GRID_SPREAD`` prec bits, :class:`OffGrid` is
    raised, so the common grid never widens the work by more than that.
    """
    live = []
    for s, g, e in parts:
        width = 0 if s is None else _bit_length([[s[:2]]])
        if g is not None:
            bits = _bit_length(g.rows)
            if not bits:  # every entry is an exact zero
                continue
            width += bits
        live.append((s, g, e, width))
    if not live:
        return [], None
    low = min(e for _, _, e, _ in live)
    if max(e + w for _, _, e, w in live) - low - max(w for *_, w in live) > _GRID_SPREAD * prec:
        raise OffGrid
    return [t[:3] for t in live], low


def _grid_value_worst(value, prec):
    """(exactly zero, float magnitude of the largest entry) of a :class:`Grid` or s Id (:func:`_grid_worst`)."""
    if isinstance(value, Scaled):
        s = value.s
        return _grid_worst([] if s is None else [s[:2]], 0 if s is None else s[2], prec)
    return _grid_worst([z for row in value.rows for z in row if z is not None], value.e, prec)


GridKernel = namedtuple("GridKernel", "unpack entry times product combine worst")


def grid_kernel(rs: RootSystem) -> GridKernel:
    """Exact arithmetic on bigfloat values, one grid kernel per root system, kept on it as :func:`kernel` is.

    A value is a :class:`Grid`, rows of exact (re, im) ints on the grid 2^e
    with None for an exact zero, or ``Scaled(s, None)``, s Id for a grid
    entry s = (re, im, e).  ``unpack`` puts an :class:`Image` not exactly
    zero onto the grid of its least exponent (``Image.span``,
    :func:`_on_grid`) and ``entry`` a scalar onto its own; ``times`` and ``product`` multiply exactly, adding
    the exponents (:func:`_mac`), and ``combine`` is the kernel's sum, with
    the terms of :func:`kernel`'s ``combine``, each shifted onto the least
    grid exponent among them and added as ints (:func:`_grid_combine`).
    ``worst`` is (exactly zero, float magnitude of the largest entry), each
    part its exact value rounded once, as the kernel's ``worst`` takes it of
    rows rounded by ``scalars._add``, but only entries that can be the
    largest are rounded (:func:`_grid_worst`).  ``unpack``, ``entry`` and
    ``combine`` raise :class:`OffGrid` when a value would spread over
    ``_GRID_SPREAD`` prec bits, so the work stays bounded.
    """
    k = rs.__dict__.get("_grid_kernel")
    if k is None:
        prec = rs.precision_bits
        k = rs._grid_kernel = GridKernel(
            lambda img: _grid_image(img, prec), lambda s: _grid_entry(s, prec),
            lambda a, b: _grid_times(a, b), lambda a, b: _grid_product(a, b),
            lambda terms: _grid_combine(terms, prec), lambda value: _grid_value_worst(value, prec))
    return k


# ---------------------------------------------------------------------------
# products and residuals
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product: each part of each entry its exact value rounded once (the kernel's ``product``)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    k = kernel(a.flat[0].rs)
    return k.wrap(k.product(k.unpack(a), k.unpack(b)))


_GUARD = 64  # bits the T_n recurrence keeps below prec under its block's top bit


def _regrid(rows, s):
    """Rows of (re, im) ints, each part shifted by s bits as :func:`_shifted` shifts it; None stays None."""
    if s <= 0:
        return [[None if z is None else (z[0] << -s, z[1] << -s) for z in row] for row in rows]
    s -= 1
    return [[None if z is None else ((z[0] >> s) + 1 >> 1, (z[1] >> s) + 1 >> 1) for z in row] for row in rows]


def _bit_length(rows):
    """The largest bit length of a part in rows of (re, im) ints; 0 when every part is 0."""
    return max(map(abs, chain.from_iterable(filter(None, chain.from_iterable(rows)))), default=0).bit_length()


def _raw_chebyshev(n, rows, prec):
    """Raw rows of T_n, n >= 2, of the square matrix X whose raw rows are ``rows``.

    X goes onto its exact grid once, the grid of its least exponent
    (:func:`_on_grid`); parts lying more than ``_GRID_SPREAD`` prec bits
    below its largest exponent are rounded onto that grid instead, so the
    work stays bounded.  T_{k-1} and T_k are kept as (re, im) ints on one
    block grid, prec + ``_GUARD`` bits below the block's top bit t, with t at
    first the top bit of T_0 = 2 Id and T_1 = X.  A step forms the exact
    sums of X T_k (:func:`_mac`); when their top bit exceeds t, t becomes
    it and T_{k-1} and T_k are re-based onto the new grid, and otherwise
    the grid stays.  The sums are then shifted onto the block grid, each
    part rounded to nearest, ties up (:func:`_shifted`), and T_{k-1} is
    subtracted exactly.  An entry whose block value is 0 + 0i is None, so
    exact zeros stay None (T_n of a diagonal X is diagonal).  Each part of
    T_n is rounded once, at the end, by ``scalars._add(m, e, 0, 0, prec)``.

    Every block rounding moves a part by at most half a grid unit, 2^(t -
    prec - _GUARD - 1), and t follows the largest |T_k|; the error of T_n
    is each step's rounding carried through the rest of the recurrence.
    Against the exact T_n of stored Torus1 images up to N = 15 and Sphere4
    images up to N = 7, the block value stays within 2^-(prec + 52) of the
    largest |T_k|, so the final rounding dominates.
    """
    dim = len(rows)
    span = _span(rows)
    base = 0 if span is None else max(span[0], span[1] - _GRID_SPREAD * prec)
    arg = _on_grid(rows, base)
    bits = _bit_length(arg)
    top = max(2, base + bits) if bits else 2
    grid = top - prec - _GUARD
    two = _shifted(1, grid - 1)  # 2 = 1 2^1 on the block grid
    prev2 = [[(two, 0) if i == j and two else None for j in range(dim)] for i in range(dim)]
    prev1 = _regrid(arg, grid - base)
    for _ in range(n - 1):
        sums = _mac(arg, prev1, dim)
        bits = _bit_length(sums)
        new = grid
        if bits and base + grid + bits > top:
            top = base + grid + bits
            new = top - prec - _GUARD
            prev2, prev1 = _regrid(prev2, new - grid), _regrid(prev1, new - grid)
        s = new - base - grid
        step = []
        for sum_row, prev_row in zip(sums, prev2):
            row = []
            for (re, im), z in zip(sum_row, prev_row):
                if s > 0:
                    re = (re >> s - 1) + 1 >> 1
                    im = (im >> s - 1) + 1 >> 1
                else:
                    re <<= -s
                    im <<= -s
                if z is not None:
                    re -= z[0]
                    im -= z[1]
                row.append((re, im) if re or im else None)
            step.append(row)
        prev2, prev1, grid = prev1, step, new
    return _rounded(prev1, grid, prec)


def chebyshev_rows(n: int, rs: RootSystem, rows):
    """Kernel rows of T_n of the square matrix whose kernel rows are ``rows``.

    T_{k+1} = arg T_k - T_{k-1} from T_0 = 2 Id, the kernel's ``widen`` of
    2, and T_1 = ``rows`` itself.  The exact kernel steps on object arrays.
    The bigfloat kernel runs the recurrence on one block grid with
    ``_GUARD`` guard bits below the working precision, from the exact sums
    of arg times T_k, and rounds each part of T_n once, at the end
    (:func:`_raw_chebyshev`); exact zeros stay None.
    """
    if n >= 2 and rs.backend == "bigfloat":
        return _raw_chebyshev(n, rows, rs.precision_bits)
    k = kernel(rs)
    prev2, prev1 = k.widen(k.entry(rs.scalar(2)), len(rows)), rows
    for _ in range(n - 1):
        prev2, prev1 = prev1, rows @ prev1 - prev2
    return prev2 if n == 0 else prev1


def chebyshev_matrix(n: int, arg):
    """T_n of a square matrix: :func:`chebyshev_rows` of its unpacked rows, and only T_n wrapped."""
    if n == 1:
        return arg.copy()  # a new array, as for every other n; the entries are immutable
    rs = arg.flat[0].rs
    k = kernel(rs)
    return k.wrap(chebyshev_rows(n, rs, k.unpack(arg)))


class Image(namedtuple("Image", "rows support")):
    """Kernel rows of an image with their pattern, as a representation keeps them.

    ``support`` lists each row's columns that hold no exact zero (the
    kernel's ``support``).  Read once, on first use: ``columns`` lists each
    column's rows that hold no exact zero, in increasing order, ``diagonal``
    tells whether every entry off the diagonal is an exact zero, ``scalar``
    whether the rows are exactly s Id (diagonal, each diagonal entry equal
    to rows[0][0]).  Of bigfloat rows, ``span`` is the (least, largest)
    exponent of their nonzero parts (None when every entry is an exact
    zero), and ``grid`` the rows on the grid of that least exponent
    (:func:`_on_grid`), each entry x + i y as the exact ints (x, y - x,
    x + y), the factors the intertwining defects' three-product form reads
    (:func:`_monomial_defect`).
    """

    @cached_property
    def span(self):
        return _span(self.rows)

    @cached_property
    def grid(self):
        return [[None if z is None else (z[0], z[1] - z[0], z[0] + z[1]) for z in row]
                for row in _on_grid(self.rows, self.span[0])]

    @cached_property
    def columns(self):
        out = [[] for _ in self.support]  # images are square
        for i, cols in enumerate(self.support):
            for j in cols:
                out[j].append(i)
        return out

    @cached_property
    def diagonal(self):
        return all(cols in ([], [i]) for i, cols in enumerate(self.support))

    @cached_property
    def scalar(self):
        s = self.rows[0][0]
        return self.diagonal and all(row[i] == s for i, row in enumerate(self.rows))


class Monomial(namedtuple("Monomial", "sigma entries")):
    """M = P_sigma diag(entries): M[sigma[k], k] = entries[k], exact zeros elsewhere.

    Every ladder-walk certificate has this shape, and so has the composition
    of two; this class is the one reader of that format.  Its condition
    number and normalization come from the dim nonzeros alone, and a
    bigfloat monomial's entries are read into the kernel's int quadruples
    once (``raw``), for its defects, backward error and quotients, and put
    on their exact grid once (``span``, ``grid``, as :class:`Image` has
    them), for its defects.
    """

    def matrix(self):
        """The object array P_sigma diag(entries)."""
        out = zeros(self.entries[0].rs, len(self.entries))
        for k, e in enumerate(self.entries):
            out[self.sigma[k], k] = e
        return out

    @cached_property
    def magnitudes(self):
        """Float magnitude of each entry, ``abs`` of :func:`to_complex`, taken once (bigfloat: :func:`scalars.float_abs`)."""
        return [abs(to_complex(e)) if isinstance(e, CyclotomicNumber) else float_abs(e) for e in self.entries]

    def condition(self) -> float:
        """max |m_k| / min |m_k|, the ratio of M's singular values (the |m_k|); inf when one is 0."""
        low = min(self.magnitudes)
        return max(self.magnitudes) / low if low else math.inf

    def normalized(self):
        """Scaled by the inverse of the first entry, row by row, of the largest float magnitude.

        Row sigma[k] holds only entries[k]; a dense row-major scan's zeros
        (magnitude 0.0) win only when no entry is larger, and then nothing is scaled.
        """
        best, best_mag = None, 0.0
        for k in sorted(range(len(self.sigma)), key=self.sigma.__getitem__):
            mag = entry_magnitude(self.entries[k])
            if mag > best_mag:
                best, best_mag = self.entries[k], mag
        if best is None:
            return self
        scale = best ** (-1)
        return Monomial(self.sigma, [scale * e for e in self.entries])

    @cached_property
    def raw(self):
        """(sigma^-1, kernel entries :func:`_raw_entry`) of a bigfloat monomial; None if one is exactly 0."""
        entries = [_raw_entry(e) for e in self.entries]
        if None in entries:
            return None
        return sorted(range(len(self.sigma)), key=self.sigma.__getitem__), entries

    @cached_property
    def span(self):
        """(least, largest) exponent of the nonzero parts of the ``raw`` entries."""
        return _span([self.raw[1]])

    @cached_property
    def grid(self):
        """The ``raw`` entries on the grid of their least exponent, each x + i y as the exact ints (x, y, x + y)."""
        return [(re, im, re + im) for re, im in _on_grid([self.raw[1]], self.span[0])[0]]

    @cached_property
    def divisors(self):
        """The raw entries, once every entry has passed ``BigComplex._check_divisor``."""
        for e in self.entries:
            e._check_divisor()
        return self.raw[1]

    def over(self, other):
        """M M_o^{-1}: entry entries[k] / other.entries[k] at (sigma[k], other.sigma[k]).

        Bigfloat only, as its one caller, the uniqueness experiment, is, and
        ``entries`` holds no exact zero, as no certificate that passed the
        gate does.  Each quotient is a :func:`scalars.quad_div` of kept raw
        entries, the bits of ``BigComplex`` ``/``, after ``divisors`` has
        refused a vanishing divisor as ``/`` refuses it.
        """
        divisors, raw, order = other.divisors, self.raw[1], other.raw[0]
        prec = self.entries[0].rs.precision_bits
        return Monomial([self.sigma[k] for k in order],
                        [from_quad(self.entries[k].rs, quad_div(raw[k], divisors[k], prec))
                         for k in order])


def _monomial_defect(m, a, b, prec):
    """(columns, e, entries) of M A - B M, row by row, for a :class:`Monomial` M with ``raw``.

    M[sigma[k], k] = m_k, and ``a`` and ``b`` are :class:`Image` s.  Entry
    (sigma[k], l) is m_k A[k, l] - B[sigma[k], sigma[l]] m_l: row sigma[k]
    and column l of M hold one nonzero each, so these are the one term each
    of the products M A and B M has there.  A term with an exact zero
    factor is not formed, and an entry with neither term is zero and is not
    visited: row k walks A's row k support, then the columns of B's row
    sigma[k] support, taken back through sigma, where A is zero, which is
    O(nnz) per image.  Each entry comes with its column l.

    When the exponents of the terms' parts spread over at most
    ``_GRID_SPREAD`` prec bits, each entry is its exact value, (re, im) ints
    on the grid 2^e, formed from the grids M, A and B keep (``grid``), the
    monomial's shifted once per image onto the lower of the two products'
    grids (:func:`_lifted`).  Each term takes three int products: with
    m = r + i s and x + i y an image entry, m (x + i y) = x (r + s) - s (x +
    y) + i (x (r + s) + r (y - x)), and the grids hold r + s, y - x and
    x + y.  An entry whose terms cancel is (0, 0).  A wider spread takes
    the dense product [M | -B] [A ; M] (:func:`_dense_defect`, whose work
    stays bounded however far apart the terms lie): e is None, and the
    entries are its nonzero raw entries, row by row, each part its exact
    value rounded once.
    """
    spans = [s for s in (a.span, b.span) if s is not None]
    if not spans:  # both images are exactly zero
        return [], None, []
    lo, hi = m.span
    e = lo + min(s[0] for s in spans)
    if hi + max(s[1] for s in spans) - e > _GRID_SPREAD * prec:
        rs = m.entries[0].rs
        rows = _dense_defect(rs, kernel(rs).unpack(m.matrix()), a.rows, b.rows)
        return [l for row in rows for l, z in enumerate(row) if z], None, [z for row in rows for z in row if z]
    sigma, inverse, grid = m.sigma, m.raw[0], m.grid
    a_rows, left = (a.rows, None) if a.span is None else (a.grid, _lifted(grid, lo + a.span[0] - e))
    b_rows, right = (b.rows, None) if b.span is None else (b.grid, _lifted(grid, lo + b.span[0] - e))
    b_support = b.support
    cols, out = [], []
    col, entry = cols.append, out.append
    for k, (a_row, a_cols) in enumerate(zip(a_rows, a.support)):
        sk = sigma[k]
        b_row = b_rows[sk]
        if a_cols:
            mr, mi, ms = left[k]
        for l in a_cols:
            ar, ad, am = a_row[l]
            y = b_row[sigma[l]]
            col(l)
            p = ar * ms
            if y is None:
                entry((p - mi * am, p + mr * ad))
            else:
                (br, bd, bm), (nr, ni, ns) = y, right[l]
                q = br * ns
                entry((p - mi * am - q + ni * bm, p + mr * ad - q - nr * bd))
        for j in b_support[sk]:
            l = inverse[j]
            if a_row[l] is None:
                (br, bd, bm), (nr, ni, ns) = b_row[j], right[l]
                q = br * ns
                col(l)
                entry((ni * bm - q, -q - nr * bd))
    return cols, e, out


def _lifted(grid, s):
    """The int triples of ``grid`` shifted left by s >= 0 bits; ``grid`` itself when s is 0."""
    return [(x << s, y << s, z << s) for x, y, z in grid] if s else grid


def _grid_worst(entries, e, prec):
    """(exactly zero, float magnitude of the largest entry) of (re, im) ints on the grid 2^e, each part rounded once.

    This is :func:`_raw_worst` of every entry rounded by ``scalars._add``
    (:func:`_rounded`), but only the entries whose exact |z|^2 is at least
    top - floor(top 2^-(prec - 8)), top the largest |z|^2, are rounded.
    Any other entry has |z|^2 <= (1 - 2^-(prec - 8)) top, so |z| lies at
    least 2^-(prec - 7) of the largest |z| below it, while rounding its parts
    and taking ``quad_abs`` move each magnitude by less than 3 2^-prec of
    it: it cannot have the larger ``quad_abs``.
    """
    bits = [max(re.bit_length(), im.bit_length()) for re, im in entries]
    most = max(bits, default=0)
    if not most:
        return True, 0.0
    # a part of most bits makes |z|^2 >= 2^(2 most - 2), and parts of at
    # most most - 2 bits keep it below 2^(2 most - 3), under the cut
    near = [z for z, n in zip(entries, bits) if n >= most - 1]
    keys = [re * re + im * im for re, im in near]
    top = max(keys)
    cut = top - (top >> prec - 8)
    return _raw_worst(_rounded([[z for z, key in zip(near, keys) if key >= cut]], e, prec), prec)


def _scalar_pair(a, b):
    """Whether the images a and b are one scalar matrix s Id, bit for bit."""
    return a.scalar and b.scalar and a.rows[0][0] == b.rows[0][0]


def _dense_defect(rs, m_rows, a_rows, b_rows):
    """Kernel rows of M A - B M, the one product [M | -B] [A ; M].

    Exact rows subtract the exact products.  Each part of each bigfloat
    entry is its exact value rounded once (:func:`_rounded`), an exact zero
    None.  Every term of M A and of B M lies on the grid of M's least
    exponent plus the images' least exponent, so M goes onto its own grid
    and A and B onto one shared grid (:func:`_on_grid`), and :func:`_mac`
    sums the stacked product on ints no wider than the two products' own
    exponent range.  Terms spread over more than ``_GRID_SPREAD`` prec bits
    are summed entry by entry by :func:`_term_product`.
    """
    if rs.backend == "exact":
        return m_rows @ a_rows - b_rows @ m_rows
    prec, n = rs.precision_bits, len(m_rows)
    sm, spans = _span(m_rows), [s for s in (_span(a_rows), _span(b_rows)) if s is not None]
    if sm is None or not spans:  # every term has a zero factor
        return [[None] * n for _ in range(n)]
    g = min(s[0] for s in spans)
    if sm[1] + max(s[1] for s in spans) - sm[0] - g > _GRID_SPREAD * prec:
        minus_b = [[None if z is None else (-z[0], z[1], -z[2], z[3]) for z in row] for row in b_rows]
        return _term_product([r + s for r, s in zip(m_rows, minus_b)], a_rows + m_rows, prec)
    m_grid = _on_grid(m_rows, sm[0])
    minus_b = [[None if z is None else (-z[0], -z[1]) for z in row] for row in _on_grid(b_rows, g)]
    return _rounded(_mac([r + s for r, s in zip(m_grid, minus_b)], _on_grid(a_rows, g) + m_grid, n), sm[0] + g, prec)


def intertwining_defects(m, pairs):
    """Float magnitude of the largest entry of M A - B M for each (A, B) in ``pairs``.

    ``m`` is an object array or a :class:`Monomial`; A and B are
    :class:`Image` s, as a representation keeps them.  Each part of each
    bigfloat entry of M A - B M is its exact value rounded once, by
    ``scalars._add``, and the float is the largest ``quad_abs`` of those
    entries, as the kernel's ``worst`` takes it: each float equals
    ``residual_report(matmul(M_B, A_M))[1]``, with M_B = [M | -B] and A_M =
    [A ; M].  An object array, or a monomial of the exact backend or with an
    entry zero at working precision, takes that one product
    (:func:`_dense_defect`; M is unpacked once).  A bigfloat monomial with ``raw`` parts forms each
    entry's exact value from its two terms over the two images' supports,
    O(nnz) per pair (:func:`_monomial_defect`), and rounds only the entries
    that can be the largest (:func:`_grid_worst`); so a walked certificate
    and its dense matrix give equal floats.  When A and B are one scalar
    matrix s Id (both ``scalar``, and equal diagonals), as puncture images
    are, M s Id - s Id M is exactly zero and 0.0 is returned without the
    product.  The flags are read off the images themselves, which may come
    from a file.
    """
    mono = isinstance(m, Monomial)
    rs = m.entries[0].rs if mono else m.flat[0].rs
    prec = rs.precision_bits
    walk = mono and rs.backend == "bigfloat" and m.raw is not None
    if not walk:
        k = kernel(rs)
        m_rows = k.unpack(m.matrix() if mono else m)
    out = []
    for a, b in pairs:
        if _scalar_pair(a, b):
            out.append(0.0)
        elif walk:
            _, e, entries = _monomial_defect(m, a, b, prec)
            out.append((_raw_worst([entries], prec) if e is None else _grid_worst(entries, e, prec))[1])
        else:
            out.append(k.worst(_dense_defect(rs, m_rows, a.rows, b.rows))[1])
    return out


def monomial_backward_error(m, pairs) -> float:
    """Float max |E| over (A, B) in ``pairs``, E = (M A - B M) M^-1, for a bigfloat :class:`Monomial`.

    ``m`` has ``raw`` parts (no entry zero at working precision), and
    ``pairs`` is as for :func:`intertwining_defects`.  B + E = M A M^-1 is
    exactly similar to A, and entry (sigma[k], sigma[l]) of E is the defect
    entry R[sigma[k], l] divided by m_l, so one O(nnz) pass over the defect
    entries gives it (:func:`_monomial_defect`): each defect entry is its
    exact value rounded once, as :func:`intertwining_defects` rounds it,
    each quotient is one :func:`scalars.quad_div` by the kept raw entry, and
    the largest is taken by the kernel's ``worst``.
    """
    prec = m.entries[0].rs.precision_bits
    raw = m.raw[1]
    quotients = []
    for a, b in pairs:
        if not _scalar_pair(a, b):
            cols, e, entries = _monomial_defect(m, a, b, prec)
            if e is not None:
                entries = _rounded([entries], e, prec)[0]
            quotients += [quad_div(d, raw[l], prec) for l, d in zip(cols, entries) if d is not None]
    return _raw_worst([quotients], prec)[1]


def residual_report(mat):
    """(exactly_zero, float magnitude of the largest entry) for a defect matrix."""
    k = kernel(mat.flat[0].rs)
    return k.worst(k.unpack(mat))


def diagonal_mean(mat, rs):
    """The mean of the diagonal of a square matrix, summed in order and divided by n."""
    n = mat.shape[0]
    mean = mat[0, 0]
    for i in range(1, n):
        mean = mean + mat[i, i]
    return mean / rs.scalar(n)


def read_scalar_matrix(mat, rs, tol=None):
    """The scalar lambda with mat = lambda * Id, or raise NonScalarChebyshev.

    The scalar is read as the mean of the diagonal, which is the least
    rounding-sensitive choice (:func:`diagonal_mean`), and validated by
    :func:`read_scalar`.
    """
    return read_scalar(mat, diagonal_mean(mat, rs), tol)


def read_scalar(mat, mean, tol=None):
    """``mean``, once every entry of mat, row by row, passes ``approx_eq`` against mean * Id.

    An entry that does not raises NonScalarChebyshev.
    """
    zero = mean.rs.zero
    for (i, j), e in np.ndenumerate(mat):
        if not approx_eq(e, mean if i == j else zero, tol):
            raise NonScalarChebyshev(f"entry ({i}, {j}) = {e} deviates from scalar structure")
    return mean


def scalar_residual(rows, s):
    """``residual_report(mat - scalar_matrix(s, n))`` of the kernel rows of mat: (exactly zero, largest magnitude).

    On the kernel this is ``combine`` of the rows and (-s) Id: -s is added
    to the diagonal only, and x + (-s) rounds as x - s does.  The rows are those a representation
    keeps (:class:`Image`), so nothing is unpacked.
    """
    k = kernel(s.rs)
    return k.worst(k.combine([rows, Scaled(k.entry(-s), None)]))


# ---------------------------------------------------------------------------
# bridges to raw numeric types
# ---------------------------------------------------------------------------

def to_complex(e) -> complex:
    """Double-precision value of a scalar, each part rounded to nearest as ``float(mpf)`` rounds it.

    Exact scalars are bridged at 64 bits.
    """
    if isinstance(e, CyclotomicNumber):
        e = numeric_bridge(e, 64)
    re, im = e.pair
    return complex(to_float(re, rnd=RND), to_float(im, rnd=RND))


def to_complex128(mat):
    """Double-precision image of a matrix, entry by entry as :func:`to_complex`."""
    n, m = mat.shape
    out = np.empty((n, m), dtype=np.complex128)
    for i in range(n):
        for j in range(m):
            out[i, j] = to_complex(mat[i, j])
    return out


def to_mp_matrix(mat):
    n, m = mat.shape
    rs = mat.flat[0].rs
    with mp.workprec(rs.precision_bits):
        out = mpmath.matrix(n, m)
        for i in range(n):
            for j in range(m):
                out[i, j] = mat[i, j].mpc()
    return out


def from_mp_vector(rs: RootSystem, vec, length):
    out = np.empty(length, dtype=object)
    with mp.workprec(rs.precision_bits):
        for i in range(length):
            out[i] = from_pair(rs, mpmath.mpc(vec[i])._mpc_)
    return out


# ---------------------------------------------------------------------------
# nullspace: exact backend
# ---------------------------------------------------------------------------

def exact_nullspace(mat):
    """Kernel basis over the cyclotomic field by Gaussian elimination."""
    rows, cols = mat.shape
    rs = mat.flat[0].rs
    work = [[mat[i, j] for j in range(cols)] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if not work[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c].inverse()
        work[r] = [inv * x for x in work[r]]
        for i in range(rows):
            if i != r and not work[i][c].is_zero():
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free_cols = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = np.empty(cols, dtype=object)
        for j in range(cols):
            vec[j] = rs.zero
        vec[fc] = rs.one
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -work[row_idx][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# nullspace: bigfloat backend
# ---------------------------------------------------------------------------

def _mp_svd_nullspace(mat, rel_eps, want_vectors):
    """(nullity, orthonormal nullvectors) from one SVD at working precision.

    The rank is the count of nonzero singular values at or above
    rel_eps * sigma_max, and the nullity is the column count minus the rank,
    so a wide matrix also counts the columns it has no singular value for.
    A rank-only call computes the singular values alone; otherwise the
    nullvectors are the conjugated rows of V past the rank (A = U S V).
    """
    rs = mat.flat[0].rs
    rows, cols = mat.shape
    A = to_mp_matrix(mat)
    with mp.workprec(rs.precision_bits):
        if want_vectors:
            _, S, V = mp.svd_c(A, full_matrices=rows < cols)
        else:
            S = mp.svd_c(A, compute_uv=False)
        threshold = mp.mpf(rel_eps) * max(S)
        rank = sum(1 for s in S if s > 0 and s >= threshold)
        if not want_vectors:
            return cols - rank, []
        vectors = [from_mp_vector(rs, [mp.conj(V[i, j]) for j in range(cols)], cols)
                   for i in range(rank, cols)]
    return cols - rank, vectors


def nullspace(mat, tol=None, want_vectors=True):
    """(nullity, kernel basis): exact elimination, or one working-precision SVD.

    Bigfloat singular values below ``tol.rel_eps`` (default: the root
    system's) times the largest count as zero.
    """
    if isinstance(mat.flat[0], CyclotomicNumber):
        basis = exact_nullspace(mat)
        return len(basis), (basis if want_vectors else [])
    rel_eps = tol.rel_eps if tol is not None else mat.flat[0].rs.tolerance.rel_eps
    return _mp_svd_nullspace(mat, rel_eps, want_vectors)
