import json
import operator
import random
from fractions import Fraction
from math import frexp, gcd, inf, isqrt, nan
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, from_man_exp, fzero, mpc_abs, mpc_div, mpc_neg, mpf_gt, to_float, to_str

import skeinrep
from skeinrep import matrices, scalars
from skeinrep.chebyshev import solve_chebyshev
from skeinrep.errors import (BackendMismatch, NonFiniteScalar, SkeinError, UnsupportedExactOperation,
                             VanishingDivisor)
from skeinrep.expressions import normalize, parse, random_word_expression
from skeinrep.scalars import (
    BigComplex,
    CyclotomicNumber,
    Tolerance,
    approx_eq,
    cyclotomic_polynomial,
    from_pair,
    make_root_system,
    nth_root,
    numeric_bridge,
    solve_quadratic,
    working_pair,
)
from skeinrep.serialize import scalar_from_json, scalar_to_json, to_jsonable
from skeinrep.surfaces import SPHERE4, TORUS0, TORUS1, sphere_k
from skeinrep.torus import build_torus_rep, torus_params_from_shadow
from skeinrep.uniqueness import sample_torus_shadow


def random_exact(rs, rng, height=9):
    coeffs = [Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(rs.degree)]
    return CyclotomicNumber(rs, tuple(coeffs))


# ---------------------------------------------------------------------------
# root system construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 6, 10, 14, 18, 22, 202, 998])
def test_cyclotomic_polynomial_matches_sympy(n):
    ours = cyclotomic_polynomial(n)
    theirs = sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x")), sympy.Symbol("x"))
    assert list(ours) == list(reversed(theirs.all_coeffs()))


def test_n3_minimal_polynomial():
    rs = make_root_system(3)
    # x^6 - 1 factors as (x-1)(x+1)(x^2+x+1)(x^2-x+1); the primitive factor is x^2-x+1
    assert rs.modulus == (1, -1, 1)
    assert rs.degree == 2
    a = rs.A
    assert a ** 3 == rs.scalar(-1)


def test_n1_root_is_minus_one():
    rs = make_root_system(1)
    assert rs.A == rs.scalar(-1)
    assert rs.degree == 1


def test_n5_bigfloat_against_independent_evaluator():
    # cos(pi/5) = (1+sqrt5)/4 and sin(pi/5) = sqrt(10-2*sqrt5)/4, evaluated through
    # integer square roots so the oracle does not share code with the backend
    rs = make_root_system(5, "bigfloat", 128)
    digits = 50
    scale = 10 ** digits
    sqrt5 = Fraction(isqrt(5 * scale * scale), scale)
    cos_ref = (1 + sqrt5) / 4
    inner = 10 - 2 * sqrt5
    sin_ref = Fraction(isqrt(inner.numerator * scale * scale // inner.denominator), scale) / 4
    a = rs.A
    with mpmath.mp.workprec(300):
        assert abs(mpmath.mpf(a.re) - mpmath.mpf(cos_ref.numerator) / cos_ref.denominator) < mpmath.mpf(10) ** -35
        assert abs(mpmath.mpf(a.im) - mpmath.mpf(sin_ref.numerator) / sin_ref.denominator) < mpmath.mpf(10) ** -35


def test_root_property_both_backends():
    for rs in (make_root_system(7), make_root_system(7, "bigfloat", 192)):
        minus_one = rs.scalar(-1)
        assert approx_eq(rs.A ** 7, minus_one)
        assert approx_eq(rs.A ** 14, rs.one)


@pytest.mark.parametrize("bad", [0, 2, 4, -3])
def test_rejects_bad_n(bad):
    with pytest.raises(ValueError):
        make_root_system(bad)


def test_rejects_low_precision():
    with pytest.raises(ValueError):
        make_root_system(3, "bigfloat", 32)


def test_a_squared_primitive():
    for backend, prec in (("exact", None), ("bigfloat", 128)):
        rs = make_root_system(7, backend, prec)
        for k in range(1, rs.N):
            assert not approx_eq(rs.a_pow(2 * k), rs.one)
        evens = {k % rs.N for k in range(1, rs.N + 1)}
        # A^2 and A^4 generate the same cyclic group of N-th roots of unity
        square_set = [rs.a_pow(2 * k) for k in sorted(evens)]
        fourth_set = [rs.a_pow(4 * k) for k in range(1, rs.N + 1)]
        for val in fourth_set:
            assert any(approx_eq(val, w) for w in square_set)


# ---------------------------------------------------------------------------
# exact field arithmetic
# ---------------------------------------------------------------------------

def test_a_times_a_reduces_canonically():
    rs = make_root_system(3)
    prod = rs.A * rs.A
    # oracle: polynomial reduction of x*x modulo x^2 - x + 1
    x = sympy.Symbol("x")
    reduced = sympy.rem(x * x, x * x - x + 1, x)
    assert reduced == x - 1
    assert prod == rs.A - 1


def test_field_axioms_random():
    rs = make_root_system(5)
    rng = random.Random(42)
    for _ in range(25):
        a, b = random_exact(rs, rng), random_exact(rs, rng)
        if b.is_zero():
            continue
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert b / b == rs.one
        assert b * b.inverse() == rs.one


def test_pow_2n_is_one():
    for n in (1, 3, 5, 7):
        rs = make_root_system(n)
        assert rs.A ** (2 * n) == rs.one


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=6, max_size=6),
       st.lists(st.integers(-40, 40), min_size=6, max_size=6),
       st.lists(st.integers(-40, 40), min_size=6, max_size=6))
def test_canonical_form_association(ca, cb, cc):
    rs = make_root_system(7)
    a = CyclotomicNumber(rs, tuple(Fraction(c) for c in ca))
    b = CyclotomicNumber(rs, tuple(Fraction(c) for c in cb))
    c = CyclotomicNumber(rs, tuple(Fraction(c) for c in cc))
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


def reference_convolve(ca, cb):
    prod = [Fraction(0)] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] += x * y
    return prod


def reference_mul(ca, cb, modulus):
    """Fraction product of two coefficient vectors, reduced modulo the monic modulus."""
    d = len(modulus) - 1
    prod = reference_convolve(ca, cb)
    for i in range(len(prod) - 1, d - 1, -1):
        for j in range(d):
            prod[i - d + j] -= prod[i] * modulus[j]
    return tuple(prod[:d])


def reference_pow(c, e, modulus):
    acc = (Fraction(1),) + (Fraction(0),) * (len(modulus) - 2)
    for _ in range(e):
        acc = reference_mul(acc, c, modulus)
    return acc


@st.composite
def exact_pairs(draw):
    """Two exact scalars: free denominators, one shared denominator, or b = +/-a."""
    rs = make_root_system(draw(st.sampled_from([3, 5, 7, 9, 15])))
    nums = st.lists(st.integers(-30, 30), min_size=rs.degree, max_size=rs.degree)
    dens = st.integers(1, 12)
    mode = draw(st.sampled_from(["free", "shared", "cancel"]))
    if mode == "free":
        a, b = (CyclotomicNumber(rs, [Fraction(n, draw(dens)) for n in draw(nums)]) for _ in range(2))
    else:
        den = draw(dens)
        a, b = (CyclotomicNumber(rs, [Fraction(n, den) for n in draw(nums)]) for _ in range(2))
        if mode == "cancel":
            b = a if draw(st.booleans()) else -a
    return rs, a, b


@settings(max_examples=150, deadline=None)
@given(exact_pairs(), st.integers(-3, 4))
def test_exact_ops_match_fraction_reference(pair, e):
    rs, a, b = pair
    ca, cb, mod = a.coeffs, b.coeffs, rs.modulus
    assert (a + b).coeffs == tuple(x + y for x, y in zip(ca, cb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(ca, cb))
    assert (-a).coeffs == tuple(-x for x in ca)
    assert (a * b).coeffs == reference_mul(ca, cb, mod)
    if not b.is_zero():
        assert reference_mul((a / b).coeffs, cb, mod) == ca
    if e >= 0:
        assert (a ** e).coeffs == reference_pow(ca, e, mod)
    elif not a.is_zero():
        assert reference_mul((a ** e).coeffs, reference_pow(ca, -e, mod), mod) == rs.one.coeffs
    for value in (a + b, a - b, a * b):
        assert value.den > 0 and gcd(value.den, *value.nums) == 1
    # equal values built by other routes hash alike
    product = a * b
    for other in (b * a, a * (b + rs.one) - a, CyclotomicNumber(rs, reference_convolve(ca, cb)),
                  CyclotomicNumber(rs, reference_mul(ca, cb, mod))):
        assert other == product and hash(other) == hash(product)
    for value in (a, a + b, a - b, product):
        obj = scalar_to_json(value)
        back = scalar_from_json(rs, obj)
        assert back == value
        assert json.dumps(scalar_to_json(back)) == json.dumps(obj)


@pytest.mark.parametrize("a,b,nums,den", [
    # one shared denominator, then a gcd that clears it
    ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)), (1, 0), 1),
    ((Fraction(1, 6), Fraction(1, 3)), (Fraction(5, 6), Fraction(2, 3)), (1, 1), 1),
    # cross-multiplied denominators 2 and 6, reduced from 12 to 6
    ((Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(1, 6)), (5, 1), 6),
    # cancellation to the canonical zero
    ((Fraction(3, 4), Fraction(1, 4)), (Fraction(-3, 4), Fraction(-1, 4)), (0, 0), 1),
])
def test_exact_sum_reduces_to_lowest_terms(a, b, nums, den):
    rs = make_root_system(3)
    total = CyclotomicNumber(rs, a) + CyclotomicNumber(rs, b)
    assert (total.nums, total.den) == (nums, den)
    assert total.coeffs == tuple(p + q for p, q in zip(a, b))


def test_exact_arithmetic_builds_no_fraction(monkeypatch):
    """Sums, products, negation, comparison and exact normalize stay on integers."""
    rs = make_root_system(5)
    rng = random.Random(3)
    values = [random_exact(rs, rng) for _ in range(6)] + [rs.A, rs.zero, rs.scalar(Fraction(2, 3))]
    words = [parse(random_word_expression(surface, random.Random(9)), surface, make_root_system(3))
             for surface in (TORUS1, TORUS0, SPHERE4, sphere_k(3))]
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    results = []
    for a in values:
        for b in values:
            results.append((a + b, a - b, a * b, -a, a == b, hash(a), a.is_zero(), 2 * a, a - 1))
    for expr in words:
        for order in ("leftmost", "rightmost"):
            normalize(expr, order=order)
    assert not made


def test_division_by_zero_is_reported():
    rs = make_root_system(3)
    with pytest.raises(ZeroDivisionError):
        rs.one / rs.zero
    rsf = make_root_system(3, "bigfloat", 128)
    with pytest.raises(ZeroDivisionError):
        rsf.one / rsf.scalar(0)
    message = "division by a scalar of magnitude 1.0e-60 below the zero threshold"
    with pytest.raises(ZeroDivisionError, match=message):
        rsf.one / rsf.scalar(1e-60)
    with pytest.raises(ZeroDivisionError, match=message):
        rsf.scalar(1e-60) ** -2


@pytest.mark.parametrize("value", [nan, complex(inf, 0), mpmath.mpf("-inf"), mpmath.mpc(0, nan)],
                         ids=["float-nan", "complex-inf", "mpf-minus-inf", "mpc-nan"])
def test_scalar_refuses_non_finite_values(value):
    rs = make_root_system(3, "bigfloat", 128)
    with pytest.raises(NonFiniteScalar, match="is not finite"):
        rs.scalar(value)
    with pytest.raises(NonFiniteScalar):
        rs.one + value


@pytest.mark.parametrize("part", ["nan", "inf", "-inf"])
def test_non_finite_parts_are_refused_at_every_door(part):
    rs = make_root_system(3, "bigfloat", 128)
    with pytest.raises(NonFiniteScalar, match="is not finite"):
        scalar_from_json(rs, {"re": "1.5", "im": part, "prec_bits": 128})
    with pytest.raises(NonFiniteScalar):
        BigComplex(rs, mpmath.mpf(part), mpmath.mpf(0))


@pytest.mark.parametrize("rel_eps", [-1e-9, inf, nan])
def test_tolerance_refuses_negative_and_non_finite_values(rel_eps):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Tolerance(rel_eps)


def test_backend_mixing_rejected():
    rs = make_root_system(3)
    rsf = make_root_system(3, "bigfloat", 128)
    with pytest.raises(BackendMismatch):
        rs.A + rsf.A
    with pytest.raises(BackendMismatch):
        rs.A * make_root_system(5).A


# ---------------------------------------------------------------------------
# bridging and comparison
# ---------------------------------------------------------------------------

def test_embed_a_n3():
    rs = make_root_system(3)
    z = numeric_bridge(rs.A, 128)
    # sin(pi/3) = sqrt(3)/2 through integer square roots
    digits = 40
    scale = 10 ** digits
    ref = Fraction(isqrt(3 * scale * scale), 2 * scale)
    with mpmath.mp.workprec(300):
        assert abs(mpmath.mpf(z.re) - mpmath.mpf("0.5")) < mpmath.mpf(10) ** -30
        assert abs(mpmath.mpf(z.im) - mpmath.mpf(ref.numerator) / ref.denominator) < mpmath.mpf(10) ** -30


def test_embedding_commutes_with_arithmetic():
    rs = make_root_system(5)
    rng = random.Random(7)
    prec = 192
    for _ in range(20):
        # random expression of depth <= 6 built from +, *, and powers
        vals = [random_exact(rs, rng, height=5) for _ in range(4)]
        expr_exact = (vals[0] * vals[1] + vals[2]) * vals[3] + vals[0] ** 3 - vals[2] * vals[1]
        emb = [numeric_bridge(v, prec) for v in vals]
        expr_float = (emb[0] * emb[1] + emb[2]) * emb[3] + emb[0] ** 3 - emb[2] * emb[1]
        bridged = numeric_bridge(expr_exact, prec)
        assert approx_eq(bridged, expr_float, Tolerance(2.0 ** (-prec // 2)))


def test_bridge_changes_precision_of_bigfloat():
    low = make_root_system(3, "bigfloat", 96)
    x = low.scalar(complex(0.7, -1.3)) * low.A
    lifted = numeric_bridge(x, 256)
    assert lifted.prec_bits == 256
    assert approx_eq(numeric_bridge(lifted, 96), x, Tolerance(2.0 ** -40))


def test_approx_eq_reflexive_and_threshold():
    rs = make_root_system(3, "bigfloat", 128)
    rng = random.Random(12)
    x = rs.scalar(complex(1.25, -0.5))
    assert approx_eq(x, x)
    xs = [rs.scalar(complex(rng.uniform(1, 3), rng.uniform(-3, 3))) for _ in range(6)]
    for tol in (None, Tolerance(1e-3)):
        eps = (tol or rs.tolerance).rel_eps
        with mpmath.mp.workprec(128):
            shifted = rs.scalar(mpmath.mpf(1) + 2 * mpmath.mpf(eps))
        assert not approx_eq(rs.one, shifted, tol)
        # above magnitude 1 the threshold is relative: a partner just inside
        # and one just outside it, in both argument orders
        for x in xs:
            with mpmath.mp.workprec(128):
                inside, outside = (rs.scalar(x.mpc() * (1 + mpmath.mpf(eps) * f)) for f in (0.5, 1.5))
            assert approx_eq(x, inside, tol) and approx_eq(inside, x, tol)
            assert not approx_eq(x, outside, tol) and not approx_eq(outside, x, tol)
            assert not any(approx_eq(x, y, tol) for y in xs if y is not x)
        # below magnitude 1 it is absolute
        assert approx_eq(rs.zero, rs.scalar(1e-50), tol)
        assert not approx_eq(rs.zero, rs.scalar(2 * eps), tol)
    exact = make_root_system(3)
    cs = [random_exact(exact, rng) for _ in range(4)]
    assert [[j for j, y in enumerate(cs) if approx_eq(y, c)] for c in cs] == [[i] for i in range(4)]


# ---------------------------------------------------------------------------
# bigfloat scalars against mpc arithmetic under mp.workprec
# ---------------------------------------------------------------------------

def _full_mpf(rng, bits):
    """A random mpf carrying ``bits`` mantissa bits (call under a wide enough workprec)."""
    man = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    return mpmath.mpf((-man if rng.random() < 0.5 else man, -bits + rng.randint(-4, 4)))


def _parts(z):
    return z.re._mpf_, z.im._mpf_


@pytest.fixture(scope="module")
def reference_inputs():
    """Random 256-bit values, 512-bit parts and a solve_chebyshev base in a 256-bit system."""
    rs = make_root_system(3, "bigfloat", 256)
    rng = random.Random(21)
    with mpmath.mp.workprec(256):
        plain = [BigComplex(rs, _full_mpf(rng, 256), _full_mpf(rng, 256)) for _ in range(4)]
    with mpmath.mp.workprec(512):
        wide = [BigComplex(rs, _full_mpf(rng, 512), _full_mpf(rng, 512)) for _ in range(3)]
    base = solve_chebyshev(rs.scalar(complex(1.7, -0.6))).base
    assert max(part[3] for part in _parts(base)) > 256
    small = [rs.zero, rs.scalar(3), rs.scalar(complex(0, 1e-50))]
    return rs, plain + wide + [base] + small


def _reference_divisor_message(denom):
    """The zero rule |d| < eps * (1 + |d|) on mpc values: None, or the refusal message."""
    eps = denom.rs.tolerance.rel_eps
    with mpmath.mp.workprec(denom.prec_bits):
        denom_mag = abs(denom.mpc())
    mag = float(denom_mag)
    if mag < eps * (1.0 + mag):
        return f"division by a scalar of magnitude {mpmath.nstr(denom_mag, 8)} below the zero threshold"
    return None


def _divisor_message(denom, numer):
    try:
        numer / denom
    except ZeroDivisionError as exc:
        return str(exc)
    return None


def _reference_approx_eq(a, b, tol):
    eps = (tol or a.rs.tolerance).rel_eps
    with mpmath.mp.workprec(a.prec_bits):
        diff = abs(a.mpc() - b.mpc())
        scale = max(mpmath.mpf(1), abs(a.mpc()), abs(b.mpc()))
        return diff < mpmath.mpf(eps) * scale


def test_bigfloat_ops_match_mpc_arithmetic(reference_inputs):
    rs, xs = reference_inputs
    prec = rs.precision_bits
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for a in xs:
        for b in xs + [rs.scalar(2), rs.scalar(Fraction(-5, 3))]:
            for op in ops:
                if op is operator.truediv and _reference_divisor_message(b):
                    continue
                with mpmath.mp.workprec(prec):
                    want = op(a.mpc(), b.mpc())._mpc_
                assert _parts(op(a, b)) == want, (op, a, b)
        for k in (2, -7):
            for op in ops:
                if op is operator.truediv and _reference_divisor_message(a):
                    continue
                with mpmath.mp.workprec(prec):
                    want = op(rs.scalar(k).mpc(), a.mpc())._mpc_
                assert _parts(op(k, a)) == want, (op, k, a)
        with mpmath.mp.workprec(prec):
            assert _parts(-a) == (-a.mpc())._mpc_
            assert a.magnitude()._mpf_ == abs(a.mpc())._mpf_
            mag = float(abs(a.mpc()))
        assert a.is_zero() == (mag < rs.tolerance.rel_eps * (1.0 + mag))
        for e in (0, 1, 2, 3, 5, -1, -2, -3):
            if e < 0 and _reference_divisor_message(a):
                continue
            with mpmath.mp.workprec(prec):
                want = (a.mpc() ** e)._mpc_
            assert _parts(a ** e) == want, (e, a)


def _sweep_pairs(rng, prec):
    """Finite pairs for the int-rounded division and magnitude: random and libmp's branch cases."""
    def part(bits, top):
        man = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
        return from_man_exp(-man if rng.random() < 0.5 else man, top - bits)

    def value():
        bits = rng.choice([1, 2, 3, prec - 1, prec, prec + 1, 2 * prec])
        top = rng.randint(-8, 8)
        return part(bits, top), part(rng.choice([1, bits, prec]), top + rng.randint(-3, 3))

    eps_top = -prec // 2
    pairs = [value() for _ in range(40)]
    for re, im in list(pairs[:8]):
        pairs += [(re, fzero), (fzero, im)]  # one-part values
        pairs.append((re, from_man_exp(1, im[2] + im[3] - prec - 60)))  # squares far apart
        pairs.append((part(prec, eps_top + rng.randint(-1, 1)), part(3, eps_top - 1)))  # near the zero cut
    for k in (-3, 0, 1, 4):
        unit = from_man_exp(1, k)
        pairs += [(unit, fzero), (unit, unit), (fzero, from_man_exp(-1, k))]  # |y|^2 with mantissa 1
        pairs.append((unit, from_man_exp(3, k - prec)))  # |z|^2 rounds down to 2^2k
    for a, b in ((3, 4), (5, -12), (1, 1)):
        for g in ((1, 2), (-7, 0), (2, 3)):  # x = g y: a remainder-free quotient
            pairs.append((from_int(a), from_int(b)))
            pairs.append((from_int(a * g[0] - b * g[1]), from_int(a * g[1] + b * g[0])))
    return pairs


@pytest.mark.parametrize("prec", [64, 113, 256, 512])
def test_int_rounded_division_and_magnitude_match_libmp(prec):
    """``/``, ``k / x``, ``-x``, ``magnitude()``, ``is_zero()`` and ``_raw_worst`` against libmp.

    libmp's mpc_div, mpc_abs and mpc_neg are the reference: every result has
    their bits, on parts at or wider than the working precision.
    """
    RND = scalars.RND
    rs = make_root_system(3, "bigfloat", prec)
    eps = rs.tolerance.rel_eps
    rng = random.Random(prec)
    pairs = _sweep_pairs(rng, prec)
    values = [from_pair(rs, z) for z in pairs] + [rs.zero]
    work = [scalars.working_pair(z.pair, prec) for z in values]
    assert any(z[0][3] > prec for z in pairs)
    for z in pairs:
        assert scalars.quad_abs(scalars._ints(z), prec) == mpc_abs(z, prec, RND), z
    for x, wx in zip(values, work):
        assert (-x).pair == mpc_neg(x.pair, prec, RND), x
        mag = mpc_abs(wx, prec, RND)
        assert x.magnitude()._mpf_ == mag, x
        assert x.is_zero() == (to_float(mag, rnd=RND) < eps * (1.0 + to_float(mag, rnd=RND))), x
        if x.is_zero():
            with pytest.raises(VanishingDivisor):
                rs.one / x
            continue
        for k in (1, 2, -7):
            assert (k / x).pair == mpc_div((from_int(k, prec, RND), fzero), wx, prec, RND), (k, x)
        for y, wy, z in zip(values, work, pairs + [None]):
            assert (y / x).pair == mpc_div(wy, wx, prec, RND), (y, x)
            if z is not None:
                got = scalars._pack(scalars.quad_div(scalars._ints(z), scalars._ints(x.pair), prec))
                assert got == mpc_div(z, x.pair, prec, RND), (z, x)
    for i in range(0, len(work), 6):
        rows = [[None if z == (fzero, fzero) else scalars._ints(z) for z in work[i:i + 6]]]
        worst = fzero
        for z in work[i:i + 6]:
            if mpf_gt(mpc_abs(z, prec, RND), worst):
                worst = mpc_abs(z, prec, RND)
        assert matrices._raw_worst(rows, prec) == (worst == fzero, to_float(worst, rnd=RND)), rows


def test_bigfloat_divisor_check_matches_mpc_arithmetic(reference_inputs):
    rs, xs = reference_inputs
    eps = rs.tolerance.rel_eps
    denominators = list(xs)
    # magnitudes an ulp-scale and a double-scale step either side of the
    # threshold eps / (1 - eps), where |d| = eps * (1 + |d|)
    with mpmath.mp.workprec(rs.precision_bits):
        threshold = mpmath.mpf(eps) / (1 - mpmath.mpf(eps))
        for f in (-2 ** -52, -2 ** -250, 0, 2 ** -250, 2 ** -52):
            denominators.append(rs.scalar(threshold * (1 + mpmath.mpf(f))))
    decisions = set()
    # the numerator, however large, does not move the decision
    for numer in xs[:3] + [rs.one, rs.scalar(1e60)]:
        for denom in denominators:
            want = _reference_divisor_message(denom)
            assert _divisor_message(denom, numer) == want, (denom, numer)
            assert denom.is_zero() == (want is not None)
            decisions.add(want is None)
    assert decisions == {True, False}
    with pytest.raises(VanishingDivisor) as exc:
        rs.scalar(1e-45) ** -2
    assert str(exc.value) == _reference_divisor_message(rs.scalar(1e-45))


def test_generic_divisors_are_not_refused():
    # the two divisions that Sphere4 draws at N = 37 were refused for: by
    # t3^2 - 4 = 52,487 under a numerator of 2.4e45, and a quadratic whose
    # leading coefficient 8e-19 sits beside |b|, |c| near 1e25
    rs = make_root_system(37, "bigfloat", 256)
    num, den = rs.scalar(2.37e45), rs.scalar(52487.686)
    assert approx_eq(num / den * den, num)
    a = rs.scalar(complex(8.0e-19, -3.1e-19))
    b = rs.scalar(complex(1.2e25, -0.7e25))
    c = rs.scalar(complex(-0.9e25, 0.4e25))
    roots = solve_quadratic(a, b, c)
    assert not approx_eq(*roots)
    for r in roots:
        residual = (a * r * r + b * r + c).magnitude()
        scale = (a * r * r).magnitude() + (b * r).magnitude() + c.magnitude()
        # the textbook formula cancels about 43 digits in the small root
        assert residual < 1e-30 * scale


@pytest.mark.parametrize("backend,prec", [("exact", None), ("bigfloat", 128)])
def test_every_refusal_is_a_vanishing_divisor(backend, prec):
    assert issubclass(VanishingDivisor, SkeinError) and issubclass(VanishingDivisor, ZeroDivisionError)
    rs = make_root_system(3, backend, prec)
    tiny = rs.zero if backend == "exact" else rs.scalar(1e-60)
    refusals = (lambda: rs.one / rs.zero, lambda: rs.zero.inverse(), lambda: tiny ** -1,
                lambda: 2 / tiny, lambda: solve_quadratic(rs.zero, rs.one, rs.one),
                lambda: solve_quadratic(tiny, rs.one, rs.one))
    for refusal in refusals:
        with pytest.raises(VanishingDivisor):
            refusal()


@pytest.mark.parametrize("backend,prec", [("exact", None), ("bigfloat", 128)])
def test_scalar_equality_agrees_with_hashing(backend, prec):
    rs = make_root_system(3, backend, prec)
    for value, number in ((rs.one, 1), (rs.zero, 0), (rs.scalar(-2), -2)):
        assert ({value: 0}.get(number) is not None) == (value == number)
        assert value == rs.scalar(number) and hash(value) == hash(rs.scalar(number))


@pytest.mark.parametrize("tol", [None, Tolerance(1e-3)])
def test_bigfloat_approx_eq_matches_mpc_arithmetic(reference_inputs, tol):
    rs, xs = reference_inputs
    eps = (tol or rs.tolerance).rel_eps
    ys = list(xs)
    for x in xs:
        with mpmath.mp.workprec(rs.precision_bits):
            ys += [rs.scalar(x.mpc() * (1 + mpmath.mpf(eps) * f)) for f in (0.5, 1.0, 1.5)]
    decisions = set()
    for x in xs:
        for y in ys:
            want = _reference_approx_eq(x, y, tol)
            assert approx_eq(x, y, tol) == want, (x, y)
            decisions.add(want)
    assert decisions == {True, False}


def test_bigfloat_equality_reads_working_precision(reference_inputs):
    rs, xs = reference_inputs
    third = rs.one / 3
    assert third == third + 0 and hash(third) == hash(third + 0)
    assert rs.A == rs.A
    for x in xs:
        # x + 0 is x rounded to the working precision
        assert x == x + 0 and hash(x) == hash(x + 0)
        assert x != x + rs.scalar(complex(0, 1e-60))
    nf = normalize(parse("X2 X1", TORUS1, rs))
    assert nf == normalize(parse("X2 X1", TORUS1, rs))


# ---------------------------------------------------------------------------
# libmp ports of the former mpc expressions, pinned bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("prec", [64, 256])
def test_scalar_coercion_matches_mpc(prec):
    rs = make_root_system(3, "bigfloat", prec)
    rng = random.Random(prec)
    values = [0, 1, -7, 3 ** 300, -(2 ** 300 + 1), 0.1, -1e-300, 1e300, complex(0.3, -1e-20),
              complex(-2.5, 7), Fraction(-5, 3), Fraction(3 ** 200, 7 ** 90), Fraction(1, 3 ** 170)]
    # numerators wider than the precision, so that their rounding shows
    values += [Fraction(rng.getrandbits(400) - 2 ** 399, rng.getrandbits(200) | 1) for _ in range(20)]
    for value in values:
        with mpmath.mp.workprec(prec):
            if isinstance(value, Fraction):
                want = ((mpmath.mp.mpf(value.numerator) / value.denominator)._mpf_, mpmath.libmp.fzero)
            else:
                want = mpmath.mp.mpc(value)._mpc_
        assert rs.scalar(value).pair == want, value


@pytest.mark.parametrize("n,prec", [(3, 128), (37, 256)])
def test_a_pow_matches_mpc(n, prec):
    rs = make_root_system(n, "bigfloat", prec)
    for k in range(-2 * n, 2 * n):
        with mpmath.mp.workprec(prec):
            want = mpmath.mp.expjpi(mpmath.mp.mpf(k % (2 * n)) / n)._mpc_
        assert rs.a_pow(k).pair == want, k


def test_nth_root_matches_mpc(reference_inputs):
    rs, xs = reference_inputs
    for y in xs:
        for n in (1, 3, 5, 37):
            with mpmath.mp.workprec(rs.precision_bits):
                want = mpmath.mp.root(y.mpc(), n)._mpc_
            assert nth_root(y, n).pair == want, (y, n)


@pytest.mark.parametrize("n,prec", [(5, 192), (37, 256)])
def test_numeric_bridge_matches_mpc(n, prec):
    rs = make_root_system(n)
    rng = random.Random(n)
    values = [random_exact(rs, rng, height=10 ** 6) for _ in range(4)] + [rs.zero, rs.one, rs.A]
    for c in values:
        with mpmath.mp.workprec(prec):
            a = mpmath.mp.expjpi(mpmath.mp.mpf(1) / n)
            acc = mpmath.mp.mpc(0)
            for coeff in reversed(c.coeffs):
                acc = acc * a + mpmath.mp.mpf(coeff.numerator) / coeff.denominator
        assert numeric_bridge(c, prec).pair == acc._mpc_, c


def test_solve_quadratic_matches_mpc(reference_inputs):
    rs, xs = reference_inputs
    rng = random.Random(5)
    triples = [tuple(rng.sample(xs, 3)) for _ in range(40)]
    triples.append((rs.one, -rs.scalar(complex(1.7, -0.6)), rs.one))
    for a, b, c in triples:
        if a.is_zero():
            continue
        with mpmath.mp.workprec(rs.precision_bits):
            am, bm, cm = a.mpc(), b.mpc(), c.mpc()
            sq = mpmath.mp.sqrt(bm * bm - 4 * am * cm)
            want = (((-bm + sq) / (2 * am))._mpc_, ((-bm - sq) / (2 * am))._mpc_)
        assert tuple(r.pair for r in solve_quadratic(a, b, c)) == want, (a, b, c)


def test_serialize_round_trip_matches_mpc(reference_inputs):
    rs, xs = reference_inputs
    digits = int(rs.precision_bits * 0.30103) + 8
    for x in xs:
        obj = scalar_to_json(x)
        with mpmath.mp.workprec(rs.precision_bits):
            assert obj == {"re": mpmath.nstr(x.re, digits, strip_zeros=True),
                           "im": mpmath.nstr(x.im, digits, strip_zeros=True),
                           "prec_bits": rs.precision_bits}
            want = BigComplex(rs, mpmath.mp.mpf(obj["re"]), mpmath.mp.mpf(obj["im"])).pair
        back = scalar_from_json(rs, obj)
        assert back.pair == want and back == x, x


# ---------------------------------------------------------------------------
# values wider than the working precision
# ---------------------------------------------------------------------------

def test_wide_values_keep_their_pair_and_compute_as_their_working_value():
    """x3 from ``nth_root`` and a 512-bit mpc in a 256-bit system keep the pair they entered with.

    Each prints that pair in ``serialize`` and provenance, and compares,
    hashes and computes as the value rounded to the working precision.
    """
    rs = make_root_system(3, "bigfloat", 256)
    prec = rs.precision_bits
    inv = sample_torus_shadow(rs, random.Random(1))
    params = torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"])
    x3 = params.x3
    with mpmath.mp.workprec(512):
        given_mpc = mpmath.mpc(mpmath.mpf(1) / 3, -mpmath.mpf(2) / 7)
    wide = rs.scalar(given_mpc)
    assert wide.pair == given_mpc._mpc_
    others = [rs.A, rs.scalar(complex(0.5, -2)), rs.scalar(3), rs.zero]
    for z in (x3, wide):
        pair = z.pair
        assert max(part[3] for part in pair) > prec
        working = from_pair(rs, working_pair(pair, prec))
        assert z == working and hash(z) == hash(working) and z.w == working.w
        # serialize prints the kept pair, which is not the working one
        digits = int(prec * 0.30103) + 8
        assert scalar_to_json(z) == {"re": to_str(pair[0], digits, strip_zeros=True),
                                     "im": to_str(pair[1], digits, strip_zeros=True), "prec_bits": prec}
        assert scalar_to_json(z) != scalar_to_json(working)
        for o in others:
            for op in (operator.add, operator.sub, operator.mul):
                assert op(z, o).pair == op(working, o).pair and op(o, z).pair == op(o, working).pair
            assert (o / z).pair == (o / working).pair
            if not o.is_zero():
                assert (z / o).pair == (working / o).pair
        assert (-z).pair == (-working).pair and (z ** -3).pair == (working ** -3).pair
        assert z.magnitude() == working.magnitude() and z.is_zero() is working.is_zero() is False
        assert nth_root(z, 5).pair == nth_root(working, 5).pair
        assert approx_eq(z, working) and approx_eq(z - working, rs.zero)
    rep = build_torus_rep(params)
    assert to_jsonable(rep.provenance)["gauge"]["x3"] == scalar_to_json(x3)
    # inf and nan are still refused where values enter
    with pytest.raises(NonFiniteScalar):
        from_pair(rs, (mpmath.mpf("inf")._mpf_, fzero))
    with pytest.raises(NonFiniteScalar):
        matrices.from_mp_vector(rs, [mpmath.mpc(0, mpmath.mpf("nan"))], 1)


def test_only_the_matrix_bridge_enters_workprec():
    # the scalar layer computes on libmp pairs, and refusals to divide are typed
    for path in sorted(Path(skeinrep.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert path.name == "matrices.py" or "workprec" not in text, path.name
        assert "raise ZeroDivisionError" not in text, path.name


# ---------------------------------------------------------------------------
# quadratics and roots
# ---------------------------------------------------------------------------

def test_quadratic_double_root():
    rs = make_root_system(3)
    t = rs.scalar(2)
    r1, r2 = solve_quadratic(rs.one, -t, rs.one)
    assert r1 == rs.one and r2 == rs.one


def test_quadratic_plus_minus_one():
    rs = make_root_system(3)
    r1, r2 = solve_quadratic(rs.one, rs.zero, rs.scalar(-1))
    assert {r1, r2} == {rs.one, rs.scalar(-1)}


def test_quadratic_random_bigfloat():
    rs = make_root_system(3, "bigfloat", 160)
    rng = random.Random(3)
    for _ in range(10):
        a = rs.scalar(complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))
        b = rs.scalar(complex(rng.uniform(-2, 2), rng.uniform(-1, 1)))
        c = rs.scalar(complex(rng.uniform(-2, 2), rng.uniform(-1, 1)))
        for r in solve_quadratic(a, b, c):
            residual = a * r * r + b * r + c
            assert approx_eq(residual, rs.zero)


def test_quadratic_exact_irrational_unsupported():
    rs = make_root_system(3)
    with pytest.raises(UnsupportedExactOperation):
        solve_quadratic(rs.one, rs.zero, rs.scalar(-2))


def test_nth_root_principal():
    rs = make_root_system(5, "bigfloat", 128)
    assert approx_eq(nth_root(rs.one, 5), rs.one)
    y = rs.scalar(complex(0.3, 1.7))
    r = nth_root(y, 5)
    assert approx_eq(r ** 5, y)
    with mpmath.mp.workprec(128):
        arg = mpmath.arg(r.mpc())
        assert -mpmath.pi / 5 < arg <= mpmath.pi / 5 + mpmath.mpf(10) ** -30


def test_nth_root_exact_unsupported():
    rs = make_root_system(5)
    with pytest.raises(UnsupportedExactOperation):
        nth_root(rs.one, 5)


def test_bigfloat_repr_is_bare():
    rs = make_root_system(3, "bigfloat", 64)
    assert repr(rs.one) == "1.0 + 0.0j"
    assert repr(rs.scalar(complex(1.5, -0.25))) == "1.5 - 0.25j"


# ---------------------------------------------------------------------------
# exponent-first magnitude decisions against mpc_abs
# ---------------------------------------------------------------------------

@st.composite
def near_cut_scalars(draw, rs, log2_mag):
    """A bigfloat scalar of magnitude about 2^log2_mag, or an exact zero.

    The parts may be one zero, tied in exponent, or apart; mantissas are
    short or full, and all-ones mantissas sit just under a power of two.
    """
    prec = rs.precision_bits
    kind = draw(st.sampled_from(["zero", "real", "imag", "tied", "apart"]))
    if kind == "zero":
        return rs.zero

    def part(log2):
        bits = draw(st.sampled_from([1, 3, prec - 1, prec]))
        man = (1 << bits) - 1 if draw(st.booleans()) else draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
        exp = log2 - bits + draw(st.integers(-1, 1))
        return from_man_exp(-man if draw(st.booleans()) else man, exp)

    re = part(log2_mag)
    im = part(log2_mag if kind == "tied" else log2_mag - draw(st.integers(0, 8)))
    if kind == "real":
        im = fzero
    elif kind == "imag":
        re = fzero
    return from_pair(rs, (re, im))


@st.composite
def near_cut_cases(draw):
    """(rs, tol, a, b): |a| within 2^+-6 of rel_eps or of 1, and |a - b| within 2^+-6 of the cut."""
    rs = make_root_system(3, "bigfloat", draw(st.sampled_from([64, 256])))
    tol = draw(st.sampled_from([None, Tolerance(1e-20)]))
    k = frexp((tol or rs.tolerance).rel_eps)[1]
    anchor = draw(st.sampled_from([k, 0]))
    a = draw(near_cut_scalars(rs, anchor + draw(st.integers(-6, 6))))
    if draw(st.integers(0, 5)) == 0:
        return rs, tol, a, rs.zero
    d = draw(near_cut_scalars(rs, k + max(0, anchor) + draw(st.integers(-6, 6))))
    return rs, tol, a, a + d


@settings(max_examples=400, deadline=None)
@given(near_cut_cases())
def test_exponent_decisions_match_mpc_abs(case):
    rs, tol, a, b = case
    eps = rs.tolerance.rel_eps
    for x in (a, b, a - b):
        with mpmath.mp.workprec(rs.precision_bits):
            mag = float(abs(x.mpc()))
        assert x.is_zero() == (mag < eps * (1.0 + mag)), x
    assert approx_eq(a, b, tol) == _reference_approx_eq(a, b, tol), (a, b)
    assert approx_eq(b, a) == _reference_approx_eq(b, a, None), (a, b)


def test_far_decisions_take_no_mpc_abs(monkeypatch):
    """is_zero and approx_eq settle values far from their cuts from the exponents alone."""
    rs = make_root_system(3, "bigfloat", 256)
    eps = rs.tolerance.rel_eps
    values = [rs.scalar(complex(0.3, -1.7)), rs.scalar(1e30), rs.scalar(complex(0, eps / 64)),
              rs.scalar(eps * 64), rs.A]
    pairs = [(x, x + rs.scalar(eps / 64)) for x in values] + [(x, x * 2) for x in values]
    calls = []
    monkeypatch.setattr(scalars, "quad_abs", lambda *args: calls.append(args))
    zeros = [x.is_zero() for x in values]
    same = [approx_eq(x, y) for x, y in pairs] + [approx_eq(x, y, Tolerance(1e-20)) for x, y in pairs]
    assert not calls
    assert zeros == [False, False, True, False, False]
    # x + eps / 64 passes every cut; 2x lies |x| away, within eps only for |x| = eps / 64,
    # and within 1e-20 for 64 eps as well
    assert same == [True] * 5 + [False, False, True, False, False] + [True] * 5 + [False, False, True, True, False]


@settings(max_examples=200, deadline=None)
@given(near_cut_cases())
def test_approx_eq_against_zero_forms_no_difference(case):
    # a - 0 is a's quadruple, so the decision is read off a alone
    rs, tol, a, _ = case
    calls = []
    real = scalars.quad_sub
    scalars.quad_sub = lambda *args: calls.append(args) or real(*args)
    try:
        got = approx_eq(a, rs.zero, tol)
    finally:
        scalars.quad_sub = real
    assert not calls
    assert got == _reference_approx_eq(a, rs.zero, tol), a


def test_coerce_takes_a_scalar_of_the_same_root_system_first(monkeypatch):
    rs = make_root_system(3, "bigfloat", 256)
    other = make_root_system(3, "bigfloat", 256)  # equal, not the same object
    x, y = rs.scalar(complex(0.5, 1.5)), rs.scalar(2)
    monkeypatch.setattr(scalars.RootSystem, "compatible",
                        lambda self, o: pytest.fail("compatible() called"))
    assert x._coerce(y) is y
    monkeypatch.undo()
    z = other.scalar(2)
    assert x._coerce(z) is z
    with pytest.raises(BackendMismatch):
        x._coerce(make_root_system(5, "bigfloat", 256).scalar(2))


@pytest.mark.parametrize("rel_eps", [0.0, 2.0 ** -128, 1e-20, 0.25, 3.0])
def test_tolerance_keeps_the_exponent_of_rel_eps(rel_eps):
    tol = Tolerance(rel_eps)
    assert tol.exponent == frexp(rel_eps)[1]
    assert tol == Tolerance(rel_eps) and repr(tol) == f"Tolerance(rel_eps={rel_eps!r})"
