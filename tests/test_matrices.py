"""Bit-identity of the raw-value matrix kernel against independent references.

Products are checked against exact rational sums rounded once per part by
libmp's ``from_rational``, and the T_n recurrence against a block-grid
oracle over Fractions rounded the same way and against an exact T_n of
stored rows; the commutant assembly,
the scalar read-outs and the intertwiner defects against the accumulating,
entrywise and object-array forms that the kernel replaced.  Every
comparison is on the ``_mpf_`` tuples of each entry, or on the residual
floats.  The nullspace tests plant singular values on either side
of the working-precision cut rel_eps * sigma_max.  The native-int rounding
(``scalars._add``, which every ``BigComplex`` operation but powers shares)
is checked against the libmp calls it replaced, and the exponent-first
read-outs against ``mpc_abs``, with hypothesis.
"""

import ast
import dataclasses
import math
import operator
import pathlib
import random
import re
import time
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import (from_float, from_int, from_man_exp, from_rational, fzero, mpc_abs, mpc_add, mpc_div,
                          mpc_mul, mpc_sub, mpf_add, mpf_gt, mpf_mul, mpf_pos, mpf_sub, round_down, round_nearest,
                          to_float)

import skeinrep
from skeinrep import matrices
from skeinrep import scalars as scalars_module
from skeinrep.chebyshev import chebyshev_eval
from skeinrep.errors import NonScalarChebyshev
from skeinrep.invariants import commuting_system
from skeinrep.representation import Representation
from skeinrep.scalars import (RND, BigComplex, CyclotomicNumber, Tolerance, approx_eq, from_pair,
                              make_root_system, numeric_bridge, working_pair)
from skeinrep.sphere import build_sphere_rep
from skeinrep.surfaces import TORUS1
from skeinrep.torus import build_torus_rep, torus_params_exact, torus_params_from_shadow
from skeinrep.uniqueness import (gauge_orbit, intertwiner_residuals, intertwiner_search,
                                 sample_sphere_invariants, sample_torus_shadow)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def exact_value(m, e):
    """m 2^e as a Fraction."""
    return Fraction(m) * Fraction(2) ** e


def rational_product(a_rows, b_rows, prec, minus=None):
    """Rows of libmp pairs of A B, or A B - C, from rows of int quadruples (None or 0 + 0i for zero).

    Each part of each entry is summed exactly over the rationals and
    rounded once, to nearest at ``prec`` bits, by libmp's ``from_rational``;
    an entry whose exact value is zero is None.  Nothing of the kernel's
    arithmetic is used.
    """
    def parts(z):
        return (0, 0) if z is None else (exact_value(z[0], z[1]), exact_value(z[2], z[3]))

    out = []
    for i, a_row in enumerate(a_rows):
        row = []
        for j in range(len(b_rows[0])):
            re = im = Fraction(0)
            for a, b_row in zip(a_row, b_rows):
                (ar, ai), (br, bi) = parts(a), parts(b_row[j])
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            if minus is not None:
                cr, ci = parts(minus[i][j])
                re, im = re - cr, im - ci
            rounded = tuple(from_rational(x.numerator, x.denominator, prec, round_nearest) for x in (re, im))
            row.append(rounded if re or im else None)
        out.append(row)
    return out


def folded(a_rows, b_rows, c_rows):
    """Rows of A' and B' with A' B' = A B - C, for rows of int quadruples: -C as A's extra columns, Id as B's extra rows.

    The kernel's one product then forms each entry of A B - C from all its
    terms at once, C's entries as terms times 1.  No C leaves A and B as
    they are.
    """
    if c_rows is None:
        return a_rows, b_rows
    m = len(c_rows[0])
    one = (1, 0, 0, 0)
    return ([row + [None if z is None else (-z[0], z[1], -z[2], z[3]) for z in c_row]
             for row, c_row in zip(a_rows, c_rows)],
            b_rows + [[one if i == j else None for j in range(m)] for i in range(m)])


def quads(mat):
    """Rows of each entry's working-precision int quadruple, as the kernel reads them."""
    return [[e.w for e in row] for row in mat]


def from_pairs(rs, rows):
    """Object array of the libmp pair rows; None is zero."""
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, z in enumerate(row):
            out[i, j] = rs.zero if z is None else from_pair(rs, z)
    return out


def reference_matmul(a, b):
    """A B with each entry's parts summed exactly and rounded once (:func:`rational_product`)."""
    rs = a.flat[0].rs
    return from_pairs(rs, rational_product(quads(a), quads(b), rs.precision_bits))


def top_bit(v):
    """The least t with |v| < 2^t, for a nonzero Fraction v."""
    num, den = abs(v.numerator), v.denominator
    t = num.bit_length() - den.bit_length()
    return t + 1 if Fraction(num, den) >= Fraction(2) ** t else t


def exponent_of(v):
    """The exponent e of v = m 2^e with m an odd int, for a nonzero dyadic Fraction v."""
    num, den = abs(v.numerator), v.denominator
    return (num & -num).bit_length() - den.bit_length()


def onto_grid(v, g):
    """v rounded to a multiple of 2^g, to nearest with ties up: floor(v / 2^g + 1/2) 2^g."""
    unit = Fraction(2) ** g
    return math.floor(v / unit + Fraction(1, 2)) * unit


def block_chebyshev(n, arg_rows, prec, guard=64):
    """T_n, n >= 2, of the matrix with rows of (re, im) Fractions, on one block grid, before the last rounding.

    X keeps each part exact, except that parts whose exponent lies more than
    4 prec below the largest one are rounded onto that grid.  The block's
    top bit t starts as the top bit of 2 Id and X, and T_{k-1} and T_k lie on
    the grid 2^(t - prec - guard).  A step sums X T_k exactly; when that
    sum's top bit exceeds t, t becomes it and T_{k-1} and T_k are rounded
    onto the new grid.  T_{k+1} is the sum rounded onto the grid, minus
    T_{k-1}.  Rounding is to nearest, ties up (:func:`onto_grid`).  Returns
    the rows of T_n as (re, im) Fractions and the top bits t took.
    """
    dim = len(arg_rows)
    parts = [v for row in arg_rows for z in row for v in z if v]
    base = max(min(map(exponent_of, parts)), max(map(exponent_of, parts)) - 4 * prec) if parts else 0

    def regrid(rows, g):
        return [[tuple(onto_grid(v, g) for v in z) for z in row] for row in rows]

    x = regrid(arg_rows, base)
    tops = [top_bit(v) for row in x for z in row for v in z if v]
    t = max([2] + tops)
    grid = t - prec - guard
    prev2 = [[(Fraction(2 if i == j else 0), Fraction(0)) for j in range(dim)] for i in range(dim)]
    prev1 = regrid(x, grid)
    seen = [t]
    for _ in range(n - 1):
        sums = [[(sum(x[i][k][0] * prev1[k][j][0] - x[i][k][1] * prev1[k][j][1] for k in range(dim)),
                  sum(x[i][k][0] * prev1[k][j][1] + x[i][k][1] * prev1[k][j][0] for k in range(dim)))
                 for j in range(dim)] for i in range(dim)]
        grown = max([top_bit(v) for row in sums for z in row for v in z if v], default=t)
        if grown > t:
            t, grid = grown, grown - prec - guard
            prev2, prev1 = regrid(prev2, grid), regrid(prev1, grid)
            seen.append(t)
        step = [[tuple(onto_grid(s, grid) - p for s, p in zip(sz, pz)) for sz, pz in zip(srow, prow)]
                for srow, prow in zip(sums, prev2)]
        prev2, prev1 = prev1, step
    return prev1, seen


def fraction_rows(mat):
    """Rows of (re, im) Fractions of each entry's working-precision value."""
    return [[(exact_value(w[0], w[1]), exact_value(w[2], w[3])) for w in row] for row in quads(mat)]


def reference_chebyshev(n, arg):
    """T_n of a matrix, from its working-precision entries, on the block grid, each part rounded once at the end.

    :func:`block_chebyshev` over Fractions, then libmp's ``from_rational``
    to nearest at the working precision; an entry whose block value is 0 is
    zero.  T_0 is 2 Id and T_1 the argument itself.  Nothing of the kernel's
    arithmetic is used.
    """
    rs = arg.flat[0].rs
    prec = rs.precision_bits
    if n == 0:
        return matrices.mat_scale(rs.scalar(2), matrices.identity(rs, arg.shape[0]))
    if n == 1:
        return arg
    block, _ = block_chebyshev(n, fraction_rows(arg), prec)
    rounded = [[tuple(from_rational(v.numerator, v.denominator, prec, round_nearest) for v in z) if any(z) else None
                for z in row] for row in block]
    return from_pairs(rs, rounded)


def reference_commuting_system(rep_a, rep_b):
    n = rep_a.dim
    rs = rep_a.rs
    dense_gens, scalar_rows = [], []
    for g in rep_a.surface.generators:
        if g in rep_a.puncture_scalars:
            diff = rep_a.puncture_scalars[g] - rep_b.puncture_scalars[g]
            if not diff.is_zero():
                scalar_rows.append(diff)
        else:
            dense_gens.append(g)
    system = matrices.zeros(rs, (len(dense_gens) + len(scalar_rows)) * n * n, n * n)
    row = 0
    for g in dense_gens:
        ma, mb = rep_a.matrix(g), rep_b.matrix(g)
        for i in range(n):
            for l in range(n):
                for j in range(n):
                    col = i * n + j
                    system[row, col] = system[row, col] + ma[j, l]
                    col = j * n + l
                    system[row, col] = system[row, col] - mb[i, j]
                row += 1
    for diff in scalar_rows:
        for entry in range(n * n):
            system[row, entry] = diff
            row += 1
    return system


def reference_read_scalar_matrix(mat, rs, tol=None):
    """The entrywise ``approx_eq`` read-out that the raw-pair one replaced."""
    n = mat.shape[0]
    mean = matrices.diagonal_mean(mat, rs)
    zero = rs.zero
    for i in range(n):
        for j in range(n):
            target = mean if i == j else zero
            if not approx_eq(mat[i, j], target, tol):
                raise NonScalarChebyshev(
                    f"entry ({i}, {j}) = {mat[i, j]} deviates from scalar structure")
    return mean


def reference_scalar_deviation(mat, rs):
    """The entrywise ``entry_magnitude`` deviation that the raw-pair one replaced."""
    n = mat.shape[0]
    mean = matrices.diagonal_mean(mat, rs)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            target = mean if i == j else rs.zero
            worst = max(worst, matrices.entry_magnitude(mat[i, j] - target))
    return mean, worst


def bits(mat):
    return [(e.re._mpf_, e.im._mpf_) for e in mat.flat]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def rs_of(n, prec=256):
    return make_root_system(n, "bigfloat", prec)


def full_mpf(rng, prec):
    """A random mpf carrying ``prec`` mantissa bits."""
    man = rng.getrandbits(prec) | (1 << (prec - 1)) | 1
    return mp.mpf((-man if rng.random() < 0.5 else man, -prec + rng.randint(-4, 4)))


def dense(rs, rng, n, m, prec=None):
    prec = prec or rs.precision_bits
    out = np.empty((n, m), dtype=object)
    with mp.workprec(prec):
        for i in range(n):
            for j in range(m):
                out[i, j] = BigComplex(rs, full_mpf(rng, prec), full_mpf(rng, prec))
    return out


def torus_rep(n, seed):
    rs = rs_of(n)
    inv = sample_torus_shadow(rs, random.Random(seed))
    return build_torus_rep(torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"]))


def sphere_rep(n, seed):
    rs = rs_of(n)
    inv = sample_sphere_invariants(rs, random.Random(seed))
    return build_sphere_rep(*(inv[k] for k in ("p0", "p1", "p2", "p3", "t1", "t2", "t3")))


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5])
def test_ladder_products_bit_identical(n):
    rep = torus_rep(n, 10 + n)
    gens = [rep.matrix(g) for g in ("X1", "X2", "X3")]
    for a in gens:
        for b in gens:
            assert bits(matrices.matmul(a, b)) == bits(reference_matmul(a, b))


def test_dense_products_bit_identical():
    rs = rs_of(5)
    rng = random.Random(1)
    for size in (1, 2, 4, 7):
        a, b = dense(rs, rng, size, size), dense(rs, rng, size, size)
        assert bits(matrices.matmul(a, b)) == bits(reference_matmul(a, b))


def test_zero_row_and_column():
    rs = rs_of(3)
    rng = random.Random(2)
    a, b = dense(rs, rng, 4, 4), dense(rs, rng, 4, 4)
    for j in range(4):
        a[2, j] = rs.zero
        b[j, 1] = rs.zero
    got, want = matrices.matmul(a, b), reference_matmul(a, b)
    assert bits(got) == bits(want)
    assert all(e.re == 0 and e.im == 0 for e in list(got[2, :]) + list(got[:, 1]))


def test_cancelling_and_real_entries():
    rs = rs_of(3)
    rng = random.Random(3)
    a = dense(rs, rng, 3, 3)
    a[0, 1] = BigComplex(rs, a[0, 1].re, mp.mpf(0))
    b = dense(rs, rng, 3, 3)
    # row 1 of a times column 0 of b cancels exactly
    a[1, :] = [rs.one, rs.one, rs.zero]
    b[0, 0], b[1, 0] = rs.scalar(complex(1.5, -2.0)), rs.scalar(complex(-1.5, 2.0))
    got = matrices.matmul(a, b)
    assert bits(got) == bits(reference_matmul(a, b))
    assert got[1, 0].re == 0 and got[1, 0].im == 0


def test_non_square_shapes():
    rs = rs_of(3)
    rng = random.Random(4)
    a, b = dense(rs, rng, 3, 5), dense(rs, rng, 5, 2)
    got = matrices.matmul(a, b)
    assert got.shape == (3, 2)
    assert bits(got) == bits(reference_matmul(a, b))
    row, col = dense(rs, rng, 1, 6), dense(rs, rng, 6, 1)
    assert bits(matrices.matmul(row, col)) == bits(reference_matmul(row, col))
    assert bits(matrices.matmul(col, row)) == bits(reference_matmul(col, row))


def test_shape_mismatch_raises():
    rs = rs_of(3)
    rng = random.Random(5)
    with pytest.raises(ValueError, match="shape mismatch"):
        matrices.matmul(dense(rs, rng, 3, 4), dense(rs, rng, 3, 4))


def test_entries_above_working_precision_are_rounded_first():
    rs = rs_of(3, 256)
    rng = random.Random(6)
    a, b = dense(rs, rng, 3, 3), dense(rs, rng, 3, 3)
    wide = dense(rs, rng, 3, 3, prec=512)
    a[0, 0], a[1, 2], b[2, 1] = wide[0, 0], wide[1, 1], wide[2, 2]
    assert a[0, 0].re._mpf_[3] > 256
    assert bits(matrices.matmul(a, b)) == bits(reference_matmul(a, b))
    assert bits(matrices.matmul(wide, wide)) == bits(reference_matmul(wide, wide))


def test_lower_precision_system():
    rs = rs_of(5, 96)
    rng = random.Random(7)
    a, b = dense(rs, rng, 4, 4, prec=200), dense(rs, rng, 4, 4)
    assert bits(matrices.matmul(a, b)) == bits(reference_matmul(a, b))


def test_exact_backend_passthrough():
    rs = make_root_system(3)
    rng = random.Random(8)

    def exact(n, m):
        out = np.empty((n, m), dtype=object)
        for i in range(n):
            for j in range(m):
                out[i, j] = CyclotomicNumber(rs, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                                                       for _ in range(rs.degree)))
        return out

    a, b = exact(3, 4), exact(4, 2)
    got, want = matrices.matmul(a, b), a @ b
    assert got.shape == want.shape
    assert all(x == y for x, y in zip(got.flat, want.flat))


# ---------------------------------------------------------------------------
# T_n of a matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5, 7])
def test_chebyshev_matrix_bit_identical(n):
    rep = torus_rep(n, 20 + n)
    rng = random.Random(n)
    args = [rep.matrix(g) for g in ("X1", "X2", "X3")]
    args.append(dense(rep.rs, rng, n, n))
    args.append(matrices.matmul(rep.matrix("X1"), rep.matrix("X2")))
    for arg in args:
        assert bits(chebyshev_eval(n, arg)) == bits(reference_chebyshev(n, arg))


@pytest.mark.parametrize("n", [3, 5])
def test_chebyshev_matrix_sphere_bit_identical(n):
    rep = sphere_rep(n, 30 + n)
    for g in ("X1", "X2", "X3"):
        arg = rep.matrix(g)
        assert bits(chebyshev_eval(n, arg)) == bits(reference_chebyshev(n, arg))


def test_chebyshev_matrix_low_degrees_and_wide_entries():
    rs = rs_of(3)
    rng = random.Random(9)
    arg = dense(rs, rng, 3, 3, prec=512)
    for k in (0, 1, 2, 4):
        assert bits(chebyshev_eval(k, arg)) == bits(reference_chebyshev(k, arg))
    # T_1 holds the argument's entries as given, in a new array
    t1 = chebyshev_eval(1, arg)
    assert t1 is not arg and all(a is b for a, b in zip(t1.flat, arg.flat))


def test_chebyshev_matrix_exact_backend():
    rs = make_root_system(5)
    rep = build_torus_rep(torus_params_exact(rs.A + 1, rs.A - 2, rs.scalar(Fraction(3, 2))))
    arg = rep.matrix("X1")
    two_id = matrices.scalar_matrix(rs.scalar(2), rep.dim)
    prev2, prev1 = two_id, arg
    for _ in range(rs.N - 1):
        prev2, prev1 = prev1, arg @ prev1 - prev2
    got = chebyshev_eval(rs.N, arg)
    assert all(x == y for x, y in zip(got.flat, prev1.flat))
    assert all(x == y for x, y in zip(chebyshev_eval(0, arg).flat, two_id.flat))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_chebyshev_rows_low_degrees(n):
    rep = torus_rep(5, 25)
    k = matrices.kernel(rep.rs)
    for g in ("X1", "X2", "X3"):
        rows = rep.image(g).rows
        got = matrices.chebyshev_rows(n, rep.rs, rows)
        assert bits(k.wrap(got)) == bits(reference_chebyshev(n, rep.matrix(g)))
        # T_1 is the kept rows themselves
        assert (got is rows) == (n == 1)


def test_chebyshev_of_the_zero_matrix():
    rs = rs_of(3)
    k = matrices.kernel(rs)
    zero = matrices.zeros(rs, 4)
    rows = k.unpack(zero)
    for n in range(8):
        got = matrices.chebyshev_rows(n, rs, rows)
        # T_n(0) = 2 cos(n pi / 2) Id, and every entry off the diagonal stays None
        scalar = (2, 0, -2, 0)[n % 4]
        want = matrices.scalar_matrix(rs.scalar(scalar), 4)
        assert bits(k.wrap(got)) == bits(reference_chebyshev(n, zero)) == bits(want)
        assert all(z is None for i, row in enumerate(got) for j, z in enumerate(row) if i != j or not scalar)


@pytest.mark.parametrize("kind,n", [("torus", 7), ("sphere", 5)])
def test_chebyshev_of_a_diagonal_image_stays_diagonal(kind, n):
    rep = torus_rep(n, 27) if kind == "torus" else sphere_rep(n, 35)
    image = rep.image("X3")
    assert image.diagonal
    got = matrices.chebyshev_rows(n, rep.rs, image.rows)
    assert all((z is None) == (i != j) for i, row in enumerate(got) for j, z in enumerate(row))
    assert bits(matrices.kernel(rep.rs).wrap(got)) == bits(reference_chebyshev(n, rep.matrix("X3")))
    assert rep.chebyshev_image("X3").diagonal


@pytest.mark.parametrize("gap", [300, 700])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_chebyshev_of_entries_far_apart(n, gap):
    # parts 2^+-gap apart, some of them zero; at 700 the smallest lie more
    # than 4 prec bits below the largest and are rounded onto its grid
    rs = rs_of(5)
    rng = random.Random(n + gap)
    arg = matrices.zeros(rs, 4)
    with mp.workprec(rs.precision_bits):
        for i in range(4):
            for j in range(4):
                parts = [mp.mpf(0) if rng.random() < 0.2 else
                         full_mpf(rng, rs.precision_bits) * mp.mpf(2) ** rng.choice([-gap, 0, gap])
                         for _ in range(2)]
                arg[i, j] = BigComplex(rs, *parts)
    assert bits(chebyshev_eval(n, arg)) == bits(reference_chebyshev(n, arg))


@pytest.mark.parametrize("sign", [1, -1])
def test_chebyshev_of_parts_far_below_takes_bounded_work(sign):
    # an entry 2^(2^40) below the others is rounded away on the argument's
    # grid and moves no bit; the gap is never spanned by an int
    rs = rs_of(3)
    arg = dense(rs, random.Random(11), 3, 3)
    cleared = arg.copy()
    cleared[1, 2] = rs.zero
    with mp.workprec(rs.precision_bits):
        tiny = mp.mpf((3, -(1 << 40)))
        arg[1, 2] = BigComplex(rs, sign * tiny, -tiny)
    start = time.perf_counter()
    got = chebyshev_eval(5, arg)
    assert time.perf_counter() - start < 1.0
    assert bits(got) == bits(chebyshev_eval(5, cleared))


@pytest.mark.parametrize("scale,rebases", [(20, 5), (0, 5), (-20, 0)])
def test_chebyshev_rebases_only_when_the_top_bit_grows(monkeypatch, scale, rebases):
    # entries near 2^20 make T_k grow by about 24 bits a step, and entries
    # near 1 by about 4, so every step re-bases T_{k-1} and T_k; entries near
    # 2^-20 keep T_k near 2 (-1)^k Id, on the grid of T_0
    rs = rs_of(3)
    n = 6
    arg = matrices.mat_scale(rs.scalar(2.0 ** scale), dense(rs, random.Random(12), 3, 3))
    regrids = []
    original = matrices._regrid

    def counting(rows, s):
        regrids.append(s)
        return original(rows, s)

    monkeypatch.setattr(matrices, "_regrid", counting)
    got = chebyshev_eval(n, arg)
    _, tops = block_chebyshev(n, fraction_rows(arg), rs.precision_bits)
    assert bits(got) == bits(reference_chebyshev(n, arg))
    # T_1 is put on the block grid once, and each growth re-bases the two kept T
    assert len(tops) == 1 + rebases
    assert len(regrids) == 1 + 2 * rebases
    assert all(s > 0 for s in regrids[1:])


def exact_chebyshev(n, rows):
    """(rows of exact T_n as (re, im) ints, their grid exponent, the largest top bit of a part of T_0 ... T_n).

    Kernel rows in, each T_k exact on the dyadic grid k times the argument's
    least exponent; no rounding anywhere.
    """
    parts = [(m, e) for row in rows for z in row if z is not None for m, e in ((z[0], z[1]), (z[2], z[3])) if m]
    lo = min(e for _, e in parts)
    x = [[(0, 0) if z is None else ((z[0] << z[1] - lo) if z[0] else 0, (z[2] << z[3] - lo) if z[2] else 0)
          for z in row] for row in rows]
    dim = len(rows)

    def top(mat, g):
        return max(max(abs(re), abs(im)) for row in mat for re, im in row).bit_length() + g

    prev2, g2 = [[(2 if i == j else 0, 0) for j in range(dim)] for i in range(dim)], 0
    prev1, g1 = x, lo
    tops = [2, top(x, lo)]
    for _ in range(n - 1):
        g = g1 + lo
        low = min(g, g2)
        step = [[(sum(x[i][k][0] * prev1[k][j][0] - x[i][k][1] * prev1[k][j][1] for k in range(dim)) << g - low,
                  sum(x[i][k][0] * prev1[k][j][1] + x[i][k][1] * prev1[k][j][0] for k in range(dim)) << g - low)
                 for j in range(dim)] for i in range(dim)]
        step = [[(re - (p[0] << g2 - low), im - (p[1] << g2 - low)) for (re, im), p in zip(srow, prow)]
                for srow, prow in zip(step, prev2)]
        prev2, g2, prev1, g1 = prev1, g1, step, low
        tops.append(top(step, low))
    return prev1, g1, max(tops)


def chebyshev_error(got, exact, g):
    """The largest |part of got - exact part|, as a Fraction."""
    return max(abs((exact_value(z[p], z[p + 1]) if z is not None else 0) - exact_value(x[p // 2], g))
               for row, xrow in zip(got, exact) for z, x in zip(row, xrow) for p in (0, 2))


# the recurrence's own error may grow to 2^32 block half units before the
# guard bits stop covering it; measured, it stays far below
GUARD_GROWTH = 32


@pytest.mark.parametrize("kind,n", [("torus", 3), ("torus", 5), ("torus", 7), ("torus", 15),
                                    ("sphere", 3), ("sphere", 5), ("sphere", 7)])
def test_chebyshev_of_stored_rows_is_within_one_rounding_of_exact(kind, n):
    # |T_N - exact T_N| per part is at most one final rounding, half a unit in
    # the last place of a part below 2^t, plus the guard term, where 2^t
    # bounds every |part| of T_0 ... T_N
    rep = torus_rep(n, 0) if kind == "torus" else sphere_rep(n, 0)
    prec = rep.rs.precision_bits
    k = matrices.kernel(rep.rs)
    for g in ("X1", "X2", "X3"):
        rows = rep.image(g).rows
        exact, grid, t = exact_chebyshev(n, rows)
        bound = Fraction(2) ** (t - prec - 1) + Fraction(2) ** (t - prec - matrices._GUARD + GUARD_GROWTH)
        assert chebyshev_error(matrices.chebyshev_rows(n, rep.rs, rows), exact, grid) <= bound
        if (kind, n, g) == ("torus", 15, "X1"):
            # the step-wise recurrence, each step rounded to prec bits, does not meet it
            prev2, prev1 = k.widen(k.entry(rep.rs.scalar(2)), n), rows
            for _ in range(n - 1):
                prev2, prev1 = prev1, k.product(*folded(rows, prev1, prev2))
            assert chebyshev_error(prev1, exact, grid) > bound


def test_chebyshev_puts_its_argument_on_a_grid_once(monkeypatch):
    # in the style of the one-build-per-root-system counts: one T_N reads its
    # argument onto a grid once, runs one multiply-accumulate per step, takes
    # no product, and rounds each part of T_N once
    rep = torus_rep(7, 27)
    n = rep.rs.N
    calls = Counter()
    for name in ("_on_grid", "_span", "_mac", "_add", "_raw_product"):
        original = getattr(matrices, name)

        def counting(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(matrices, name, counting)
    rows = rep.chebyshev_image("X1").rows
    nonzero = sum(z is not None for row in rows for z in row)
    assert nonzero == n * n
    assert calls["_on_grid"] == calls["_span"] == 1
    assert calls["_mac"] == n - 1 and not calls["_raw_product"]
    assert calls["_add"] <= 2 * nonzero


# ---------------------------------------------------------------------------
# commutant system
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5])
def test_commuting_system_bit_identical(n):
    a, b = torus_rep(n, 40 + n), torus_rep(n, 50 + n)
    for rep_a, rep_b in ((a, a), (a, b), (b, a)):
        assert bits(commuting_system(rep_a, rep_b)) == bits(reference_commuting_system(rep_a, rep_b))


def test_commuting_system_sphere_with_scalar_rows():
    a, b = sphere_rep(3, 61), sphere_rep(3, 62)
    got, want = commuting_system(a, b), reference_commuting_system(a, b)
    assert got.shape == want.shape and got.shape[0] > 3 * 9
    assert bits(got) == bits(want)


def test_commuting_system_wide_entries():
    rep = torus_rep(3, 70)
    rng = random.Random(10)
    wide = dense(rep.rs, rng, 3, 3, prec=512)
    rep = dataclasses.replace(rep, matrices=dict(rep.matrices, X2=wide))
    assert bits(commuting_system(rep, rep)) == bits(reference_commuting_system(rep, rep))


# ---------------------------------------------------------------------------
# intertwiner residuals
# ---------------------------------------------------------------------------

def reference_residuals(m, rep_a, rep_b):
    out = {}
    for g in rep_a.surface.generators:
        defect = matrices.matmul(m, rep_a.matrix(g)) - matrices.matmul(rep_b.matrix(g), m)
        out[g] = matrices.residual_report(defect)[1]
    return out


def gauge_pairs(n, seed):
    """Variant 0 against variants 1, N and N + 1 of a torus gauge orbit."""
    inv = sample_torus_shadow(rs_of(n), random.Random(seed))
    variants = gauge_orbit(torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"]))
    reps = [build_torus_rep(v) for v in variants]
    return [(reps[0], reps[j]) for j in (1, n, n + 1)]


@pytest.mark.parametrize("n", [3, 5, 7])
def test_intertwiner_residuals_bit_identical(n):
    for rep_a, rep_b in gauge_pairs(n, 60 + n):
        cert = intertwiner_search(rep_a, rep_b)
        assert cert is not None
        for m in (cert.matrix, dense(rep_a.rs, random.Random(n), n, n)):
            residuals = intertwiner_residuals(m, rep_a, rep_b)
            assert residuals == reference_residuals(m, rep_a, rep_b)
            assert all(isinstance(v, float) for v in residuals.values())


def test_intertwiner_residuals_exact_backend():
    rs = make_root_system(3)
    params = torus_params_exact(rs.scalar(2), rs.scalar(1), rs.scalar(3))
    rep = build_torus_rep(params)
    gauge = build_torus_rep(gauge_orbit(params)[1])
    m = intertwiner_search(rep, gauge).matrix
    for other in (rep, gauge):
        assert intertwiner_residuals(m, rep, other) == reference_residuals(m, rep, other)
    assert all(v == 0.0 for v in intertwiner_residuals(m, rep, gauge).values())
    assert any(v > 0.0 for v in intertwiner_residuals(m, rep, rep).values())


def spread_entry(rs, rng, prec):
    """A bigfloat scalar with parts of random sign and far-apart exponents, or a zero part."""
    parts = []
    for _ in range(2):
        x = full_mpf(rng, prec) * mp.mpf(2) ** rng.randint(-300, 300)
        parts.append(mp.mpf(0) if rng.random() < 0.2 else x)
    return BigComplex(rs, *parts)


def dense_defect(rs, m_rows, a_rows, b_rows):
    """Kernel rows of M A - B M as the dense branch of ``intertwining_defects`` forms them.

    The two products, each entry rounded once, and their difference rounded
    by ``combine`` of M A and (-1) B M.
    """
    k = matrices.kernel(rs)
    minus_one = k.entry(rs.scalar(-1))
    return k.combine([k.product(m_rows, a_rows), matrices.Scaled(minus_one, k.product(b_rows, m_rows))])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5), monomial=st.booleans())
def test_scalar_pair_defect_is_exactly_zero(seed, n, monomial):
    # the premise of intertwining_defects' shortcut, checked on the dense kernel defect
    rs = rs_of(3)
    rng = random.Random(seed)
    with mp.workprec(rs.precision_bits):
        m = matrices.zeros(rs, n)
        sigma = rng.sample(range(n), n)
        for i in range(n):
            for j in range(n):
                if not monomial or sigma[j] == i:
                    m[i, j] = spread_entry(rs, rng, rs.precision_bits)
        s = spread_entry(rs, rng, rs.precision_bits)
    a = matrices.scalar_matrix(s, n)
    b = matrices.scalar_matrix(from_pair(rs, s.pair), n)  # bit-identical, not the same objects
    k = matrices.kernel(rs)
    m_rows = k.unpack(m)
    assert k.worst(dense_defect(rs, m_rows, k.unpack(a), k.unpack(b))) == (True, 0.0)
    images = [tuple(matrices.Image(rows, k.support(rows)) for rows in (k.unpack(a), k.unpack(b)))]
    assert images[0][0].scalar and images[0][1].scalar
    assert matrices.intertwining_defects(m, images) == [0.0]


def nonzero_spread_entry(rs, rng, prec):
    while True:
        e = spread_entry(rs, rng, prec)
        if e.re or e.im:
            return e


def sparse_defect(k, mono, a_rows, b_rows, prec):
    """(image pairs, nonzero entries of ``_monomial_defect`` by (row, column)) for a :class:`Monomial`.

    Checks that it visits, row by row, exactly the entries where a term is nonzero.
    """
    images = [tuple(matrices.Image(rows, k.support(rows)) for rows in (a_rows, b_rows))]
    cols, defect = matrices._monomial_defect(mono, *images[0], prec)
    sigma = mono.sigma
    n = len(sigma)
    terms = [(sigma[c], l) for c in range(n) for l in range(n)
             if a_rows[c][l] is not None or b_rows[sigma[c]][sigma[l]] is not None]
    visited = list(zip([i for i, _ in terms], cols))
    assert sorted(visited) == sorted(terms)
    return images, {ij: z for ij, z in zip(visited, defect) if z != (0, 0, 0, 0)}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 7),
       zero_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
# entry (2, 1) holds a product whose parts' mantissa products lie more than
# 100 bits apart, where libmp's shortcut would round otherwise than the exact value
@example(seed=393610, n=4, zero_share=0.0)
def test_monomial_defect_matches_fused_product(seed, n, zero_share):
    # parts 2^+-300 apart, and images whose entries are exact zeros at random
    rs = rs_of(3)
    prec = rs.precision_bits
    rng = random.Random(seed)
    sigma = rng.sample(range(n), n)
    m = matrices.zeros(rs, n)
    a, b = matrices.zeros(rs, n), matrices.zeros(rs, n)
    with mp.workprec(prec):
        for k in range(n):
            m[sigma[k], k] = nonzero_spread_entry(rs, rng, prec)
        for img in (a, b):
            for i in range(n):
                for j in range(n):
                    if rng.random() >= zero_share:
                        img[i, j] = spread_entry(rs, rng, prec)
    k = matrices.kernel(rs)
    m_rows, a_rows, b_rows = k.unpack(m), k.unpack(a), k.unpack(b)
    mono = matrices.Monomial(sigma, [m[sigma[c], c] for c in range(n)])
    # raw holds sigma^-1 and each entry read once at working precision, as the kernel reads it
    inverse, raw = mono.raw
    assert [sigma[j] for j in inverse] == list(range(n))
    assert raw == [m_rows[sigma[c]][c] for c in range(n)]
    dense = dense_defect(rs, m_rows, a_rows, b_rows)
    want = {(i, j): z for i, row in enumerate(dense) for j, z in enumerate(row) if z is not None}
    images, got = sparse_defect(k, mono, a_rows, b_rows, prec)
    assert got == want
    worst = [mpc_worst(pairs_of(dense), prec)[1]]
    # the dense M takes the two products, and the same monomial given as a
    # Monomial takes the two-term path without being rebuilt
    assert matrices.intertwining_defects(m, images) == worst
    assert matrices.intertwining_defects(mono, images) == worst


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4))
# s times entry (0, 0): libmp's shortcut would round its real part otherwise
@example(seed=2074, n=1)
def test_scale_matches_product_with_widened_scalar(seed, n):
    # the premise of the kernel's times and Scaled terms: a one-term
    # product entry is its exact value rounded once, also where the parts'
    # mantissa products lie far apart
    rs = rs_of(3)
    prec = rs.precision_bits
    rng = random.Random(seed)
    b = matrices.zeros(rs, n)
    with mp.workprec(prec):
        s = nonzero_spread_entry(rs, rng, prec)
        for i in range(n):
            for j in range(n):
                b[i, j] = spread_entry(rs, rng, prec)
    k = matrices.kernel(rs)
    s_raw, b_rows = k.entry(s), k.unpack(b)
    want = k.product(k.widen(s_raw, n), b_rows)
    assert want == k.product(b_rows, k.widen(s_raw, n))
    assert k.combine([b_rows, matrices.Scaled(s_raw, None)]) == k.unpack(b + matrices.scalar_matrix(s, n))
    assert k.combine([matrices.Scaled(s_raw, b_rows)]) == want
    assert [[k.times(s_raw, z) for z in row] for row in b_rows] == want


def some_columns(rng, n):
    """A nonempty random subset of range(n)."""
    return rng.sample(range(n), rng.randint(1, n))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 7), spread=st.booleans(),
       kinds=st.lists(st.sampled_from(["A", "B", "both", "neither"]), min_size=7, max_size=7))
def test_sparse_monomial_defect_walks_both_supports(seed, n, spread, kinds):
    # row k of A and row sigma[k] of B, taken back through sigma, hold their
    # nonzeros at different columns: only A, only B, both (independently) or
    # neither; entries 2^+-300 apart, or all within a factor 8 of each other
    kinds = kinds[:n]
    assume("B" in kinds)
    rs = rs_of(3)
    prec = rs.precision_bits
    rng = random.Random(seed)
    sigma = rng.sample(range(n), n)
    m, a, b = matrices.zeros(rs, n), matrices.zeros(rs, n), matrices.zeros(rs, n)

    def entry():
        if spread:
            return nonzero_spread_entry(rs, rng, prec)
        return rs.scalar(complex(rng.uniform(0.5, 2), 0)) * rs.a_pow(rng.randrange(6))

    with mp.workprec(prec):
        for k in range(n):
            m[sigma[k], k] = entry()
        for k, kind in enumerate(kinds):
            if kind in ("A", "both"):
                for l in some_columns(rng, n):
                    a[k, l] = entry()
            if kind in ("B", "both"):
                for l in some_columns(rng, n):
                    b[sigma[k], sigma[l]] = entry()
    k = matrices.kernel(rs)
    m_rows, a_rows, b_rows = k.unpack(m), k.unpack(a), k.unpack(b)
    mono = matrices.Monomial(sigma, [m[sigma[c], c] for c in range(n)])
    assert mono.raw is not None
    dense = dense_defect(rs, m_rows, a_rows, b_rows)
    want = {(i, j): z for i, row in enumerate(dense) for j, z in enumerate(row) if z is not None}
    images, got = sparse_defect(k, mono, a_rows, b_rows, prec)
    assert got == want
    assert matrices.intertwining_defects(mono, images) == [mpc_worst(pairs_of(dense), prec)[1]]
    # the backward error (M A - B M) M^-1 divides column l of the defect by m_l
    worst = fzero
    for (i, l), z in want.items():
        q = mpc_abs(mpc_div(scalars_module._pack(z), scalars_module._pack(m_rows[sigma[l]][l]), prec, RND),
                    prec, RND)
        worst = q if mpf_gt(q, worst) else worst
    assert matrices.monomial_backward_error(mono, images) == to_float(worst, rnd=RND)


def edge_part(rng, prec):
    """An mpf of 1, 53, prec or prec + 20 bits within 2^+-4 of 1, often at a power-of-two edge."""
    bits = rng.choice([1, 53, prec, prec + 20])
    man = rng.choice([(1 << bits) - 1, 1 << (bits - 1), rng.getrandbits(bits) | (1 << (bits - 1))])
    return from_man_exp(rng.choice([-1, 1]) * man, rng.randint(-4, 3) - bits)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), zero_share=st.sampled_from([0.0, 0.3, 1.0]))
def test_largest_entry_matches_mpmath(seed, n, zero_share):
    # entries wider than the working precision round across a power of two when read
    rs = rs_of(3)
    prec = rs.precision_bits
    rng = random.Random(seed)
    mats = {g: matrices.zeros(rs, n) for g in TORUS1.generators}
    for mat in mats.values():
        for i in range(n):
            for j in range(n):
                if rng.random() >= zero_share:
                    parts = [edge_part(rng, prec) if rng.random() < 0.8 else fzero for _ in range(2)]
                    mat[i, j] = from_pair(rs, tuple(parts))
    with mp.workprec(prec):
        want = float(max(abs(e.mpc()) for mat in mats.values() for e in mat.flat))
    got = Representation(TORUS1, rs, n, mats, {}).largest_entry()
    assert type(got) is float and got == want


def reference_residual_report(mat):
    """The mpc-under-``workprec`` largest magnitude the raw reduction replaced."""
    with mp.workprec(mat.flat[0].rs.precision_bits):
        best = max((abs(e.mpc()) for e in mat.flat), default=mp.mpf(0))
        return best == 0, float(best)


def test_residual_report_bit_identical():
    rs = rs_of(5)
    rng = random.Random(11)
    mats = [dense(rs, rng, 3, 4), dense(rs, rng, 2, 2, prec=512), matrices.zeros(rs, 2, 3)]
    mats[0][1, 2] = rs.zero
    for mat in mats:
        assert matrices.residual_report(mat) == reference_residual_report(mat)
    assert matrices.residual_report(mats[2]) == (True, 0.0)


# ---------------------------------------------------------------------------
# scalar read-outs on raw pairs
# ---------------------------------------------------------------------------

def placed(rs, mean, where, factor, eps, outward=False):
    """3x3 mean * Id with one entry at ``factor`` times its ``approx_eq`` cut.

    An off-diagonal entry gets magnitude eps * factor, its cut below 1.  A
    diagonal (k, k) moves by delta towards 0, where the cut is
    eps * max(1, |mean|), or away from it (``outward``), where the entry's
    own magnitude can set the cut: |delta| = eps * max(1, |mean| / (1 - eps))
    * factor.  The other two diagonal entries move by -delta / 2, within
    their cuts, so the diagonal mean stays at ``mean`` up to rounding.
    """
    mat = matrices.scalar_matrix(mean, 3)
    mag = float(mean.magnitude())
    unit = mean * rs.scalar(1.0 / mag)
    i, j = where
    if i != j:
        mat[i, j] = unit * rs.scalar(eps * factor)
        return mat
    scale = max(1.0, mag / (1 - eps)) if outward else max(1.0, mag)
    delta = unit * rs.scalar(eps * scale * factor)
    if not outward:
        delta = -delta
    for k in range(3):
        mat[k, k] = mean + delta if k == i else mean - delta * rs.scalar(0.5)
    return mat


def widened(mat, rng):
    """``mat`` with 512-bit parts, each off by about 2^-280 of its own scale."""
    rs = mat.flat[0].rs
    out = np.empty(mat.shape, dtype=object)
    with mp.workprec(512):
        for (i, j), e in np.ndenumerate(mat):
            out[i, j] = BigComplex(rs, e.re + full_mpf(rng, 512) * mp.mpf(2) ** -280,
                                   e.im + full_mpf(rng, 512) * mp.mpf(2) ** -280)
    return out


def read_outcome(read, mat, rs, tol=None):
    try:
        value = read(mat, rs, tol)
    except NonScalarChebyshev as exc:
        return "refused", str(exc)
    return "read", value.pair if isinstance(value, BigComplex) else value


def assert_read_outs_agree(mat, rs, tol=None):
    """Same decision, message and bits as the references; returns the decision."""
    got = read_outcome(matrices.read_scalar_matrix, mat, rs, tol)
    assert got == read_outcome(reference_read_scalar_matrix, mat, rs, tol)
    mean = matrices.diagonal_mean(mat, rs)
    worst = matrices.scalar_residual(matrices.kernel(rs).unpack(mat), mean)[1]
    ref_mean, ref_worst = reference_scalar_deviation(mat, rs)
    assert mean == ref_mean and worst == ref_worst
    assert type(worst) is float
    return got[0]


@pytest.mark.parametrize("tol", [None, Tolerance(1e-30), Tolerance(2.0 ** -4)])
@pytest.mark.parametrize("mean", [complex(0.3, -0.4), complex(3.0, 4.0)])
def test_read_outs_match_entrywise_at_the_cut(mean, tol):
    rs = rs_of(3)
    rng = random.Random(12)
    eps = (tol or rs.tolerance).rel_eps
    mean = rs.scalar(mean)
    for where, outward in (((0, 1), False), ((1, 2), False), ((2, 0), False),
                           ((0, 0), False), ((0, 0), True), ((1, 1), False), ((1, 1), True)):
        for factor in (1 - 2.0 ** -20, 1 + 2.0 ** -20):
            mat = placed(rs, mean, where, factor, eps, outward)
            for m in (mat, widened(mat, rng)):
                assert assert_read_outs_agree(m, rs, tol) == ("read" if factor < 1 else "refused")
                if tol is not None:
                    assert_read_outs_agree(m, rs)


def test_read_outs_match_entrywise_on_chebyshev_images():
    rng = random.Random(13)
    reps = [torus_rep(5, 14), sphere_rep(3, 15)]
    for rep in reps:
        for g in ("X1", "X2", "X3"):
            tn = chebyshev_eval(rep.rs.N, rep.matrix(g))
            assert assert_read_outs_agree(tn, rep.rs) == "read"
            assert assert_read_outs_agree(widened(tn, rng), rep.rs) == "read"
    rs = rs_of(3)
    noisy = dense(rs, rng, 3, 3)
    assert assert_read_outs_agree(noisy, rs) == "refused"
    assert assert_read_outs_agree(dense(rs, rng, 3, 3, prec=512), rs) == "refused"
    assert assert_read_outs_agree(matrices.zeros(rs, 3), rs) == "read"


def test_read_outs_match_entrywise_exact_backend():
    rs = make_root_system(3)
    mean = rs.A + rs.scalar(Fraction(1, 3))
    scalar = matrices.scalar_matrix(mean, 3)
    off = matrices.scalar_matrix(mean, 3)
    off[2, 1] = rs.A
    diag = matrices.scalar_matrix(mean, 3)
    diag[1, 1] = mean + rs.scalar(Fraction(1, 10 ** 30))
    assert [assert_read_outs_agree(m, rs) for m in (scalar, off, diag)] == ["read", "refused", "refused"]


def test_scalar_residual_matches_entrywise_subtraction():
    rs = rs_of(3)
    rng = random.Random(16)
    p = rs.scalar(complex(0.7, -1.2))
    mats = [matrices.scalar_matrix(p, 3), placed(rs, p, (0, 0), 1.5, 1e-30),
            placed(rs, p, (1, 2), 1.5, 1e-30), dense(rs, rng, 3, 3)]
    mats += [widened(m, rng) for m in mats]
    unpack = matrices.kernel(rs).unpack
    for mat in mats:
        for s in (p, rs.zero, p + rs.scalar(1e-45)):
            want = matrices.residual_report(mat - matrices.scalar_matrix(s, 3))
            assert matrices.scalar_residual(unpack(mat), s) == want
    assert matrices.scalar_residual(unpack(mats[0]), p) == (True, 0.0)
    exact = make_root_system(3)
    q = exact.A - exact.one
    shifted = matrices.scalar_matrix(q, 2)
    shifted[0, 1] = exact.one
    for mat in (matrices.scalar_matrix(q, 2), shifted):
        assert (matrices.scalar_residual(matrices.kernel(exact).unpack(mat), q)
                == matrices.residual_report(mat - matrices.scalar_matrix(q, 2)))


# ---------------------------------------------------------------------------
# nullspace: one SVD at working precision
# ---------------------------------------------------------------------------

def planted(rs, rng, rows, svals):
    """U diag(svals) V^H with U, V from QR of random complex matrices at working precision."""
    k = len(svals)

    def unitary(n, m):
        g = mpmath.matrix(n, m)
        for i in range(n):
            for j in range(m):
                g[i, j] = mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return mp.qr(g, mode="skinny")[0]

    out = np.empty((rows, k), dtype=object)
    with mp.workprec(rs.precision_bits):
        u, v = unitary(rows, k), unitary(k, k)
        a = u * mp.diag(svals) * v.H
        for i in range(rows):
            for j in range(k):
                out[i, j] = BigComplex(rs, a[i, j].real, a[i, j].imag)
    return out


def worst_image(system, vec):
    """max_i |(A v)_i| as a float."""
    column = np.empty((len(vec), 1), dtype=object)
    column[:, 0] = vec
    return matrices.residual_report(matrices.matmul(system, column))[1]


def assert_nullspace_consistent(system, nullity):
    """Both modes give ``nullity``, and every returned vector is a unit nullvector."""
    rs = system.flat[0].rs
    assert matrices.nullspace(system, want_vectors=False) == (nullity, [])
    got, vectors = matrices.nullspace(system)
    assert got == nullity == len(vectors)
    cut = rs.tolerance.rel_eps * matrices.residual_report(system)[1]
    for vec in vectors:
        assert worst_image(system, vec) < cut
        with mp.workprec(rs.precision_bits):
            assert abs(mp.fsum(abs(e.mpc()) ** 2 for e in vec) - 1) < rs.tolerance.rel_eps


@pytest.mark.parametrize("rows", [4, 6])
def test_planted_singular_value_above_cut_is_not_null(rows):
    rs = rs_of(3)
    # 1e-20 is far below any double-precision cut, but genuine at 256 bits
    system = planted(rs, random.Random(rows), rows, [1, 0.5, 0.25, mp.mpf("1e-20")])
    assert_nullspace_consistent(system, 0)


@pytest.mark.parametrize("rows", [4, 6])
def test_planted_singular_value_below_cut_is_null(rows):
    rs = rs_of(3)
    assert rs.tolerance.rel_eps > 1e-40
    system = planted(rs, random.Random(rows), rows, [1, 0.5, 0.25, mp.mpf("1e-45")])
    assert_nullspace_consistent(system, 1)


def test_nullspace_of_wide_and_zero_matrices():
    rs = rs_of(3)
    wide = matrices.zeros(rs, 2, 3)
    wide[0, 0], wide[1, 1] = rs.one, rs.scalar(2)
    assert_nullspace_consistent(wide, 1)
    assert matrices.nullspace(wide)[1][0][2].magnitude() > 0.5
    assert matrices.nullspace(matrices.zeros(rs, 3, 2), want_vectors=False) == (2, [])


def test_commuting_system_nullity_agrees_between_modes():
    a, b = torus_rep(3, 43), torus_rep(3, 53)
    for rep_a, rep_b, nullity in ((a, a, 1), (a, b, 0), (b, b, 1)):
        assert_nullspace_consistent(commuting_system(rep_a, rep_b), nullity)
    a, b = sphere_rep(3, 61), sphere_rep(3, 62)
    for rep_a, rep_b, nullity in ((a, a, 1), (a, b, 0)):
        assert_nullspace_consistent(commuting_system(rep_a, rep_b), nullity)


# ---------------------------------------------------------------------------
# one bigfloat matrix representation
# ---------------------------------------------------------------------------

def test_mpmath_matrices_stay_inside_matrices_module():
    package = pathlib.Path(skeinrep.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        if path.name == "matrices.py":
            continue
        text = path.read_text()
        for token in ("to_mp_matrix", "mpmath.matrix", "mp.eye"):
            assert token not in text, f"{path.name} mentions {token}"


def test_raw_kernel_names_stay_inside_matrices_module():
    package = pathlib.Path(skeinrep.__file__).parent
    private = re.compile(r"\b(_raw_rows|_raw_product|_raw_combine|_wrap|_prec_rnd)\b")
    for path in sorted(package.glob("*.py")):
        if path.name != "matrices.py":
            found = private.search(path.read_text())
            assert found is None, f"{path.name} names {found.group()}"


def test_every_kernel_operation_is_read_outside_matrices_module():
    # an operation that only matrices itself reads is an internal helper, not part of the kernel
    package = pathlib.Path(skeinrep.__file__).parent
    text = "".join(path.read_text() for path in sorted(package.glob("*.py")) if path.name != "matrices.py")
    unread = [f for f in matrices.Kernel._fields if not re.search(rf"\.{f}\(", text)]
    assert unread == []


def test_one_rounding_primitive_lives_in_scalars():
    # sums, differences and products of bigfloat pairs round through scalars._add alone,
    # and no module keeps a path for inf or nan parts
    package = pathlib.Path(skeinrep.__file__).parent
    libmp_rounding = re.compile(r"\b(mpc_add|mpc_sub|mpc_mul|mpf_add|mpf_sub|_SPECIAL)\b")
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        found = libmp_rounding.search(text)
        assert found is None, f"{path.name} names {found.group()}"
        defined = {node.name for node in ast.parse(text).body if isinstance(node, ast.FunctionDef)}
        primitives = defined & {"_add", "_ints", "_mpf"}
        assert primitives == ({"_add", "_ints", "_mpf"} if path.name == "scalars.py" else set()), path.name


def test_division_and_magnitude_do_not_import_libmp():
    # division, abs and negation of bigfloat scalars round on ints (scalars.quad_div, quad_abs);
    # docstrings may still name the libmp calls they mirror
    package = pathlib.Path(skeinrep.__file__).parent
    replaced = {"mpc_div", "mpc_abs", "mpc_neg"}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not (imported | read) & replaced, path.name


def test_no_module_reads_the_context_rounding():
    # the rounding mode is libmp's round_nearest constant, not mpmath's private context state
    package = pathlib.Path(skeinrep.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert "_prec_rounding" not in path.read_text(), path.name


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_kernel_round_trip_and_arithmetic(backend):
    rs = make_root_system(3, backend)
    k = matrices.kernel(rs)
    two = matrices.scalar_matrix(rs.scalar(2), 2)
    ident = matrices.identity(rs, 2)
    assert list(k.wrap(k.unpack(two)).flat) == list(two.flat)
    three = k.wrap(k.combine([k.unpack(two), k.unpack(ident)]))
    assert list(three.flat) == list(matrices.scalar_matrix(rs.scalar(3), 2).flat)
    # 2 Id 2 Id - 4 Id is exactly zero
    minus_four = matrices.Scaled(k.entry(rs.scalar(-1)), k.unpack(matrices.scalar_matrix(rs.scalar(4), 2)))
    assert k.worst(k.combine([k.product(k.unpack(two), k.unpack(two)), minus_four])) == (True, 0.0)
    assert k.worst(k.unpack(two)) == (False, 2.0)


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_one_kernel_per_root_system(backend):
    rs = make_root_system(3, backend)
    assert matrices.kernel(rs) is matrices.kernel(rs)
    # an equal root system gets its own kernel, which wraps into its own scalars
    twin = make_root_system(3, backend)
    assert matrices.kernel(twin).wrap(matrices.kernel(twin).unpack(matrices.identity(twin, 2)))[0, 0].rs is twin


def test_scalars_and_kernel_share_one_quadruple_and_pack_a_pair_once(monkeypatch):
    rep = torus_rep(3, 18)
    rs, x1 = rep.rs, rep.matrix("X1")
    rows = rep.image("X1").rows
    k = matrices.kernel(rs)
    for raw in (rows, k.product(rows, rep.image("X2").rows)):
        entries = [z for row in raw for z in row if z is not None]
        assert entries and all(len(z) == 4 and all(type(p) is int for p in z) for z in entries)
    # a kernel row entry is its scalar's own quadruple
    assert all(z is e.w for row, mat_row in zip(rows, x1) for z, e in zip(row, mat_row) if z is not None)
    x, y = rs.scalar(complex(0.3, -1.7)), rs.A
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("working_pair", "_ints", "_pack", "_mpf"):
        for module in (scalars_module, matrices):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    # + - * / and negation, both orders, and the kernel's unpack, product and wrap convert nothing
    results = [x + y, y + x, x - y, y - x, x * y, y * x, x / y, y / x, -x]
    wrapped = [k.wrap(k.unpack(x1)), matrices.matmul(x1, x1), k.wrap(k.combine([rows, k.product(rows, rows)]))]
    assert not calls
    assert [e.w for e in wrapped[0].flat] == [e.w for e in x1.flat]
    # a value that entered as a pair keeps it; a computed one packs its pair once, on first read
    assert x.pair == (from_float(0.3, 256, RND), from_float(-1.7, 256, RND)) and not calls
    z = results[4]
    first = z.pair
    assert z.pair is first and calls == {"_pack": 1, "_mpf": 2}
    assert first == mpc_mul(x.pair, y.pair, rs.precision_bits, RND)


# ---------------------------------------------------------------------------
# native-int rounding against the libmp call sequence
# ---------------------------------------------------------------------------

PRECS = (64, 256, 512)


def ints_of(rows):
    """Rows of libmp pairs as the kernel's rows of int quadruples (``scalars._ints``); None stays None."""
    if rows is None:
        return None
    return [[None if z is None else scalars_module._ints(z) for z in row] for row in rows]


def pairs_of(rows):
    """Kernel rows of int quadruples as rows of libmp pairs (``scalars._pack``)."""
    return [[None if z is None else scalars_module._pack(z) for z in row] for row in rows]


def signed(x):
    sign, man, exp, _ = x
    return (-man if sign else man), exp


@st.composite
def finite_mpf(draw, prec, top=None):
    """A normalized finite nonzero mpf; ``top`` fixes exp + bc."""
    bits = draw(st.sampled_from([1, 2, 3, prec - 1, prec, prec + 1, 2 * prec]))
    if draw(st.booleans()):
        man = (1 << bits) - 1
    else:
        man = draw(st.integers(0, (1 << bits) - 1)) | 1 | (1 << (bits - 1))
    exp = draw(st.integers(-3 * prec, 3 * prec)) if top is None else top - bits
    return (draw(st.integers(0, 1)), man, exp, bits)


@st.composite
def add_operands(draw, prec=None):
    """(prec, s, t) for mpf_add(s, t, prec): overlapping, cancelling, carrying and far-apart pairs."""
    prec = draw(st.sampled_from(PRECS)) if prec is None else prec
    s = draw(finite_mpf(prec))
    kind = draw(st.sampled_from(["near", "cancel", "carry", "gap", "zero"]))
    sign, man, exp, bc = s
    if kind == "cancel":
        return prec, s, (1 - sign, man, exp, bc)
    if kind == "carry":
        # prec + 1 ones round up to a power of two
        return prec, (sign, (1 << prec) - 1, exp, prec), (sign, 1, exp - 1, 1)
    if kind == "zero":
        return prec, s, fzero
    if kind == "near":
        t = draw(finite_mpf(prec, top=exp + bc + draw(st.integers(-3, 3))))
        return prec, s, t
    if draw(st.booleans()):
        # a few units from a rounding midpoint or from a cut toward zero, where
        # libmp's stand-in for a far smaller operand can round otherwise than the exact sum
        r = draw(st.sampled_from([8, prec // 2, prec]))
        hi = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
        man = (hi << r | draw(st.sampled_from([0, 1 << (r - 1)]))) + draw(st.sampled_from([-3, -1, 1, 3]))
        bc = man.bit_length()
        s = (sign, man, exp, bc)
    # exponent gaps either side of 100, leading bits either side of prec + 4 apart
    offset = draw(st.sampled_from([99, 100, 101, 102, 180, 700]))
    delta = draw(st.sampled_from([prec + 3, prec + 4, prec + 5, prec + 60, 40]))
    tbc = bc + offset - delta
    assume(tbc >= 1)
    tman = draw(st.integers(0, (1 << tbc) - 1)) | 1 | (1 << (tbc - 1))
    t = (draw(st.integers(0, 1)), tman, exp - offset, tbc)
    return (prec, t, s) if draw(st.booleans()) else (prec, s, t)


@settings(max_examples=400, deadline=None)
@given(add_operands())
def test_native_add_matches_mpf_add(operands):
    prec, s, t = operands
    neg_t = (1 - t[0],) + t[1:] if t[1] else t
    for x, y in ((s, t), (t, s), (s, neg_t)):
        got = scalars_module._mpf(*scalars_module._add(*signed(x), *signed(y), prec))
        assert got == mpf_add(x, y, prec, RND), (prec, x, y)
        # rounded toward zero, as the sums inside a quotient and a magnitude are
        got = scalars_module._mpf(*scalars_module._add(*signed(x), *signed(y), prec, down=True))
        assert got == mpf_add(x, y, prec, round_down), (prec, x, y)
    got = scalars_module._mpf(*scalars_module._add(*signed(s), *signed(t), prec))
    assert got == mpf_sub(s, neg_t, prec, RND)


@settings(max_examples=400, deadline=None)
@given(add_operands())
def test_exact_add_rounds_the_exact_sum_once(operands):
    # what the kernel's one-term products use: where libmp stands a far
    # smaller operand in by one unit, ``exact`` still rounds the exact sum
    prec, s, t = operands
    neg_t = (1 - t[0],) + t[1:] if t[1] else t
    for x, y in ((s, t), (t, s), (s, neg_t)):
        total = exact_value(*signed(x)) + exact_value(*signed(y))
        want = from_rational(total.numerator, total.denominator, prec, round_nearest)
        got = scalars_module._mpf(*scalars_module._add(*signed(x), *signed(y), prec, exact=True))
        assert got == want, (prec, x, y)


@settings(max_examples=400, deadline=None)
@given(add_operands(), st.data())
def test_pair_sum_and_product_are_symmetric(operands, data):
    # the premise of the kernel's one-sided scale and shift: _add is symmetric
    # in its operands, also where it stands a far smaller operand (exponents
    # more than 100 apart) in by one unit, so quad_add and quad_mul are too
    prec, s, t = operands
    _, u, v = data.draw(add_operands(prec))
    assert scalars_module._add(*signed(s), *signed(t), prec) == \
        scalars_module._add(*signed(t), *signed(s), prec)
    one = from_int(1)
    for x, y in (((s, t), (one, one)), ((s, u), (t, v)), ((s, fzero), (t, u))):
        x, y = scalars_module._ints(x), scalars_module._ints(y)
        assert scalars_module.quad_add(x, y, prec) == scalars_module.quad_add(y, x, prec)
        assert scalars_module.quad_mul(x, y, prec) == scalars_module.quad_mul(y, x, prec)


@st.composite
def complex_operands(draw):
    """(prec, x, y): pairs whose parts come from ``add_operands``.

    A part may be zero or the other part, and y may be x or x with its parts
    swapped, so that the products' real parts cancel exactly.
    """
    prec, xr, yr = draw(add_operands())
    _, xi, yi = draw(add_operands(prec))
    x = draw(st.sampled_from([(xr, xi), (xi, xr), (xr, fzero), (fzero, xi)]))
    y = draw(st.sampled_from([(yr, yi), (yi, fzero), x, (x[1], x[0])]))
    return prec, x, y


@settings(max_examples=400, deadline=None)
@given(complex_operands(), st.integers(-(1 << 70), 1 << 70))
def test_bigcomplex_arithmetic_matches_libmp(operands, n):
    """``BigComplex`` + - * in both orders, and with reflected ints, against mpc_add/mpc_sub/mpc_mul."""
    prec, x, y = operands
    rs = rs_of(3, prec)
    a, b = from_pair(rs, x), from_pair(rs, y)
    wx, wy, wn = working_pair(x, prec), working_pair(y, prec), (from_int(n, prec, RND), fzero)
    cases = [(a + b, mpc_add, wx, wy), (b + a, mpc_add, wy, wx),
             (a - b, mpc_sub, wx, wy), (b - a, mpc_sub, wy, wx),
             (a * b, mpc_mul, wx, wy), (b * a, mpc_mul, wy, wx),
             (n + a, mpc_add, wn, wx), (a + n, mpc_add, wx, wn),
             (n - a, mpc_sub, wn, wx), (a - n, mpc_sub, wx, wn),
             (n * a, mpc_mul, wn, wx), (a * n, mpc_mul, wx, wn)]
    for got, fn, u, v in cases:
        assert got.pair == fn(u, v, prec, RND), (prec, fn.__name__, u, v)


@settings(max_examples=400, deadline=None)
@given(complex_operands())
def test_quadruple_ops_match_libmp_on_wide_and_far_apart_parts(operands):
    """The quadruple ops on ``w`` of values entered wider than prec, against mpc_add/sub/mul/div/abs.

    Parts may be wider than the precision, zero, or more than 100 exponents apart.
    """
    prec, x, y = operands
    rs = rs_of(3, prec)
    a, b = from_pair(rs, x), from_pair(rs, y)
    wx, wy = working_pair(x, prec), working_pair(y, prec)
    assert a.pair == x and a.w == scalars_module._ints(wx)
    pack = scalars_module._pack
    for fn, ref in ((scalars_module.quad_add, mpc_add), (scalars_module.quad_sub, mpc_sub),
                    (scalars_module.quad_mul, mpc_mul)):
        assert pack(fn(a.w, b.w, prec)) == ref(wx, wy, prec, RND), (prec, ref.__name__, wx, wy)
    assert scalars_module.quad_abs(a.w, prec) == a.magnitude()._mpf_ == mpc_abs(wx, prec, RND), (prec, wx)
    if wy != (fzero, fzero):
        assert pack(scalars_module.quad_div(a.w, b.w, prec)) == mpc_div(wx, wy, prec, RND), (prec, wx, wy)
        if not b.is_zero():
            assert (a / b).pair == mpc_div(wx, wy, prec, RND), (prec, wx, wy)


@st.composite
def raw_factors(draw):
    """(prec, A rows, B rows, C rows or None) over finite pairs and zeros."""
    prec = draw(st.sampled_from(PRECS))
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))

    def part():
        return fzero if draw(st.integers(0, 3)) == 0 else draw(finite_mpf(prec))

    def rows(r, c):
        out = []
        for _ in range(r):
            row = []
            for _ in range(c):
                z = (part(), part())
                row.append(None if z == (fzero, fzero) else z)
            out.append(row)
        return out

    minus = rows(n, m) if draw(st.booleans()) else None
    return prec, rows(n, k), rows(k, m), minus


@settings(max_examples=300, deadline=None)
@given(raw_factors())
def test_raw_product_matches_libmp_oracle(factors):
    # parts up to 2 prec bits wide and 6 prec apart: both the grid and the per-term sums
    prec, a, b, c = factors
    want = rational_product(ints_of(a), ints_of(b), prec, minus=ints_of(c))
    a, b = folded(ints_of(a), ints_of(b), ints_of(c))
    assert pairs_of(matrices._raw_product(a, b, prec)) == want
    assert pairs_of(matrices._term_product(a, b, prec)) == want


def test_raw_product_rounds_gaps_and_carries_like_libmp():
    """Terms that cancel, carry to a power of two, or lie far below the others.

    Entry (0, 1) adds about 3 * 2^-656 to 1 - 2^-256: an exponent gap above
    100 with leading bits more than prec + 4 apart, which libmp's ``mpf_add``
    would stand in by one unit; the exact sum is rounded once.
    """
    prec = 256
    one = (0, 1, 0, 1)
    ones = (0, (1 << prec) - 1, -prec, prec)
    half_ulp = (0, 1, -prec - 1, 1)
    far = (1, 3, -prec - 400, 2)
    a = [[(ones, fzero), (half_ulp, far)], [(one, one), (one, one)]]
    b = [[(one, fzero), (one, far)], [(one, fzero), (far, one)]]
    c = [[(half_ulp, far), None], [((1, 1, 1, 1), fzero), None]]
    got = pairs_of(matrices._raw_product(*folded(ints_of(a), ints_of(b), ints_of(c)), prec))
    assert got == rational_product(ints_of(a), ints_of(b), prec, minus=ints_of(c))
    # (1 - 2^-256) + 2^-257 - 2^-257 is exactly 1 - 2^-256, which 256 bits hold
    assert got[0][0] == (ones, fzero)


@settings(max_examples=200, deadline=None)
@given(raw_factors(), st.randoms(use_true_random=False))
def test_product_bits_do_not_depend_on_the_summation_order(factors, rng):
    # each entry is its exact sum rounded once, so permuting the summation
    # index, A's columns together with B's rows, moves no bit
    prec, a, b, c = factors
    a, b = folded(ints_of(a), ints_of(b), ints_of(c))
    order = list(range(len(b)))
    rng.shuffle(order)
    a_perm = [[row[k] for k in order] for row in a]
    b_perm = [b[k] for k in order]
    want = matrices._raw_product(a, b, prec)
    assert matrices._raw_product(a_perm, b_perm, prec) == want


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("prec", [64, 256])
def test_far_apart_terms_take_bounded_work(prec, sign):
    # an entry whose two terms lie 2^40 bits apart: the far term only decides
    # the tie its neighbour leaves, as one signed unit, and the exact sum is
    # never formed
    gap = 1 << 40
    near = ((0, (1 << prec) + 1, -prec, prec + 1), fzero)  # a tie at prec bits, times 1
    far = ((1 - sign) // 2, 3, -gap, 2), fzero
    one = (from_int(1), fzero)
    a, b = [[near, far]], [[one], [(from_int(5), fzero)]]
    start = time.perf_counter()
    got = pairs_of(matrices._raw_product(ints_of(a), ints_of(b), prec))
    assert time.perf_counter() - start < 0.5
    terms = [mpf_mul(x[0], y[0]) for x, y in ((near, one), (far, b[1][0]))]  # exact products
    assert got == [[(mpf_add(*terms, prec, RND), fzero)]]
    # 1 + 2^-prec alone rounds to even, 1; the far term's sign moves it off the tie
    assert got[0][0][0][1] == ((1 << (prec - 1)) + 1 if sign > 0 else 1)


# ---------------------------------------------------------------------------
# exponent-first read-outs against mpc_abs
# ---------------------------------------------------------------------------

def mpc_approx_eq(x, y, rel_eps):
    """approx_eq's rule on mpc values: |x - y| < rel_eps * max(1, |x|, |y|)."""
    with mp.workprec(x.rs.precision_bits):
        diff = abs(x.mpc() - y.mpc())
        return diff < mp.mpf(rel_eps) * max(mp.mpf(1), abs(x.mpc()), abs(y.mpc()))


def mpc_first_nonscalar_entry(mat, rs, tol):
    rel_eps = (tol or rs.tolerance).rel_eps
    mean = matrices.diagonal_mean(mat, rs)
    return next(((i, j) for (i, j), e in np.ndenumerate(mat)
                 if not mpc_approx_eq(e, mean if i == j else rs.zero, rel_eps)), None)


def mpc_worst(rows, prec):
    """The largest mpc_abs over every entry, rounded to float once."""
    worst = fzero
    for row in rows:
        for z in row:
            if z is not None:
                mag = mpc_abs(z, prec, RND)
                if mpf_gt(mag, worst):
                    worst = mag
    return worst == fzero, to_float(worst, rnd=RND)


@st.composite
def near_cut_entry(draw, rs, log2_mag):
    """A scalar of magnitude about 2^log2_mag: one part zero, tied exponents or apart; or zero."""
    prec = rs.precision_bits
    kind = draw(st.sampled_from(["zero", "real", "imag", "tied", "apart"]))
    if kind == "zero":
        return rs.zero

    def part(log2):
        bits = draw(st.sampled_from([1, prec - 1, prec]))
        man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
        return from_man_exp(-man if draw(st.booleans()) else man, log2 - bits + draw(st.integers(-1, 1)))

    re, im = part(log2_mag), part(log2_mag - (0 if kind == "tied" else draw(st.integers(0, 8))))
    return from_pair(rs, (fzero if kind == "imag" else re, fzero if kind == "real" else im))


@st.composite
def near_scalar_matrices(draw):
    """(rs, tol, 3x3 matrix): mean * Id with up to three entries moved by about the cut."""
    rs = rs_of(3, draw(st.sampled_from([64, 256])))
    tol = draw(st.sampled_from([None, Tolerance(1e-20)]))
    k = math.frexp((tol or rs.tolerance).rel_eps)[1]
    anchor = draw(st.sampled_from([0, k, 3]))
    mat = matrices.scalar_matrix(draw(near_cut_entry(rs, anchor)), 3)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        step = k + (max(0, anchor) if i == j else 0) + draw(st.integers(-6, 6))
        mat[i, j] = mat[i, j] + draw(near_cut_entry(rs, step))
    return rs, tol, mat


@settings(max_examples=300, deadline=None)
@given(near_scalar_matrices())
def test_read_outs_match_mpc_abs_near_the_cut(case):
    rs, tol, mat = case
    bad = mpc_first_nonscalar_entry(mat, rs, tol)
    try:
        matrices.read_scalar_matrix(mat, rs, tol)
        assert bad is None
    except NonScalarChebyshev as exc:
        assert bad is not None and str(exc).startswith(f"entry {bad} = ")
    prec = rs.precision_bits
    rows = matrices._raw_rows(mat)
    assert matrices._raw_worst(rows, prec) == mpc_worst(pairs_of(rows), prec)
    mean = matrices.diagonal_mean(mat, rs)
    shifted = [[mpc_sub(z or (fzero, fzero), mean.pair, prec, RND) if i == j else z
                for j, z in enumerate(row)] for i, row in enumerate(pairs_of(rows))]
    assert matrices.scalar_residual(rows, mean)[1] == mpc_worst(shifted, prec)[1]


@st.composite
def near_tie_rows(draw):
    """(prec, raw rows): a two-part entry within 2^-(prec+3) of a one-part entry, among others.

    The two-part entry is (x, y) with |y| below |x|, often far below; the
    one-part entry is x, or x a quarter unit of its last bit away, as its
    real or imaginary part.  Two-part
    entries that tie exactly (parts swapped or negated) or differ only below
    the prec + 4 bit floor, and random entries, ride along.
    """
    prec = draw(st.sampled_from(PRECS))
    top = draw(st.integers(-40, 40))

    def part(top, bits=prec):
        man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        return from_man_exp(-man if draw(st.booleans()) else man, top - bits)

    def moved(x, units):
        sign, man, exp, _ = x
        return from_man_exp((-1) ** sign * ((man << 2) + units), exp - 2)

    x = part(top, draw(st.sampled_from([1, 2, prec // 2, prec])))
    y = part(top - draw(st.integers(2, 2 * prec + 8)), draw(st.sampled_from([1, 3, prec])))
    single = moved(x, draw(st.sampled_from([-1, 0, 1])))
    entries = [(x, y), (single, fzero) if draw(st.booleans()) else (fzero, single)]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["swap", "negate", "below", "random", "zero"]))
        if kind == "swap":
            entries.append((y, x))
        elif kind == "negate":
            entries.append(((1 - x[0],) + x[1:], y))
        elif kind == "below":
            entries.append((x, part(top - 2 * prec - 20, 1)))
        elif kind == "random":
            entries.append((part(top + draw(st.integers(-3, 1))), part(top + draw(st.integers(-60, 0)))))
        else:
            entries.append(None)
    order = draw(st.permutations(range(len(entries))))
    return prec, [[entries[i] for i in order]]


@settings(max_examples=400, deadline=None)
@given(near_tie_rows())
def test_raw_worst_matches_every_entry_mpc_abs_near_ties(case):
    prec, rows = case
    assert matrices._raw_worst(ints_of(rows), prec) == mpc_worst(rows, prec)
    for z in rows[0]:
        if z is not None and z[0] != fzero and z[1] != fzero:
            e, man = matrices._hypot2(scalars_module._ints(z), prec)
            x, y = z
            assert from_man_exp(man, e) == mpf_add(mpf_mul(x, x), mpf_mul(y, y), prec + 4)
            assert man.bit_length() == prec + 4


@pytest.mark.parametrize("prec", [113, 256])
def test_hypot2_keeps_libmp_stand_in_for_a_far_square(prec):
    """The key is libmp's sum, also where its stand-in for a far smaller square moves the floor.

    With six ones just below the prec + 4 bit cut of x^2, a y^2 whose
    leading bit lies under them but whose last bit lies more than 100
    exponents below x^2's can carry the exact sum over the cut; libmp's
    stand-in unit cannot.
    """
    p = prec + 4
    rng = random.Random(prec)
    carried = 0
    for _ in range(3000):
        xm = rng.getrandbits(prec) | 1 | 1 << (prec - 1)
        cut = (xm * xm).bit_length() - p
        if (xm * xm) >> (cut - 6) & 63 != 63:
            continue
        ym = rng.getrandbits(prec) | 1 | 1 << (prec - 1)
        x, y = (0, xm, 0, prec), (0, ym, (cut - 5 - (ym * ym).bit_length()) // 2, prec)
        want = mpf_add(mpf_mul(x, x), mpf_mul(y, y), p)
        e, man = matrices._hypot2(scalars_module._ints((x, y)), prec)
        assert from_man_exp(man, e) == want and man.bit_length() == p, (x, y)
        carried += mpf_pos(mpf_add(mpf_mul(x, x), mpf_mul(y, y)), p, round_down) != want
    assert carried


@pytest.mark.parametrize("prec", PRECS)
def test_to_complex128_rounds_as_float_of_mpf(prec):
    # wide parts, parts beyond double range, exact zeros and exact entries
    rs = rs_of(3, prec)
    rng = random.Random(prec)
    mat = np.empty((4, 5), dtype=object)
    for idx in np.ndindex(mat.shape):
        parts = []
        for _ in range(2):
            bits = rng.choice([1, 53, 54, prec, 2 * prec + 7])
            man = rng.getrandbits(bits) | 1 << (bits - 1)
            exp = rng.choice([rng.randint(-80, 80), rng.randint(-1200, 1200)]) - bits
            parts.append(fzero if rng.random() < 0.15 else from_man_exp(-man if rng.random() < 0.5 else man, exp))
        mat[idx] = from_pair(rs, tuple(parts))
    got = matrices.to_complex128(mat)
    want = np.array([[complex(float(e.re), float(e.im)) for e in row] for row in mat])
    assert got.tobytes() == want.tobytes()
    exact = make_root_system(5)
    cyclo = np.empty((2, 2), dtype=object)
    for idx in np.ndindex(cyclo.shape):
        cyclo[idx] = CyclotomicNumber(exact, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                                   for _ in range(exact.degree)))
    bridged = [[numeric_bridge(e, 64) for e in row] for row in cyclo]
    want = np.array([[complex(float(e.re), float(e.im)) for e in row] for row in bridged])
    assert matrices.to_complex128(cyclo).tobytes() == want.tobytes()


def test_kernel_makes_no_libmp_arithmetic_calls(monkeypatch):
    """Products, sums and scalar + - * round on ints, and read-outs far from the cut take no magnitude."""
    rs = rs_of(5)
    rng = random.Random(17)
    a, b = dense(rs, rng, 4, 4), dense(rs, rng, 4, 4)
    a[1, 2] = rs.zero
    rep = torus_rep(3, 18)
    calls = []

    def counting(name):
        return lambda *args: calls.append(name)

    monkeypatch.setattr(matrices, "quad_abs", counting("quad_abs"))
    for name in ("quad_abs", "mpf_mul", "mpf_pos"):
        monkeypatch.setattr(scalars_module, name, counting(f"scalars.{name}"))
    x, y = a[0, 0], b[0, 0]
    for op in (operator.add, operator.sub, operator.mul):
        op(x, y)
        op(2, x)
        op(x, 3)
    k = matrices.kernel(rs)
    k.combine([k.unpack(a), k.unpack(b)])
    matrices.matmul(a, b)
    matrices.chebyshev_matrix(5, a)
    t = matrices.chebyshev_matrix(3, rep.matrix("X1"))
    matrices.read_scalar_matrix(t, rep.rs)
    with pytest.raises(NonScalarChebyshev):
        matrices.read_scalar_matrix(a, rs)
    assert not calls
