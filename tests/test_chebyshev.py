import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinrep import matrices
from skeinrep.chebyshev import ChebyshevPoly, chebyshev_coeffs, chebyshev_eval, solve_chebyshev
from skeinrep.errors import UnsupportedExactOperation
from skeinrep.scalars import CyclotomicNumber, approx_eq, make_root_system


def random_exact(rs, rng, height=9):
    coeffs = [Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(rs.degree)]
    return CyclotomicNumber(rs, tuple(coeffs))


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_initial_conditions():
    assert chebyshev_coeffs(0) == ChebyshevPoly(0, (2,))
    assert chebyshev_coeffs(1) == ChebyshevPoly(1, (0, 1))


def test_small_cases():
    assert chebyshev_coeffs(3).coeffs == (0, -3, 0, 1)
    assert chebyshev_coeffs(5).coeffs == (0, 5, 0, -5, 0, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 60))
def test_parity_and_leading_coeff(n):
    poly = chebyshev_coeffs(n)
    for j, c in enumerate(poly.coeffs):
        if (j - n) % 2 != 0:
            assert c == 0
    if n >= 1:
        assert poly.coeffs[-1] == 1


def test_recurrence_consistency():
    for n in range(2, 20):
        tn = chebyshev_coeffs(n).coeffs
        tn1 = chebyshev_coeffs(n - 1).coeffs
        tn2 = chebyshev_coeffs(n - 2).coeffs
        shifted = (0,) + tn1
        padded2 = tn2 + (0,) * (len(shifted) - len(tn2))
        assert tn == tuple(a - b for a, b in zip(shifted, padded2))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_fixed_point_two():
    rs = make_root_system(3, "bigfloat", 128)
    two = rs.scalar(2)
    for n in range(12):
        assert approx_eq(chebyshev_eval(n, two), two if n else rs.scalar(2))


def test_diagonalization_identity_exact():
    rs = make_root_system(5)
    rng = random.Random(11)
    for _ in range(15):
        a = random_exact(rs, rng, height=5)
        if a.is_zero():
            continue
        n = rng.randint(0, 9)
        assert chebyshev_eval(n, a + a.inverse()) == a ** n + a ** (-n)


def test_matrix_eval_scaled_identity():
    rs = make_root_system(3, "bigfloat", 128)
    m = matrices.mat_scale(rs.scalar(2), matrices.identity(rs, 2))
    out = chebyshev_eval(3, m)
    expected = matrices.mat_scale(rs.scalar(2), matrices.identity(rs, 2))
    for i in range(2):
        for j in range(2):
            assert approx_eq(out[i, j], expected[i, j])


def test_trace_identity_random_sl2():
    # Tr(M^n) = T_n(Tr M) for 20 random determinant-1 matrices
    rs = make_root_system(3, "bigfloat", 192)
    rng = random.Random(23)
    for _ in range(20):
        a = rs.scalar(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        b = rs.scalar(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        c = rs.scalar(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        d = (rs.one + b * c) / a
        m = np.array([[a, b], [c, d]], dtype=object)
        n = rng.randint(1, 8)
        mn = matrices.identity(rs, 2)
        for _ in range(n):
            mn = mn @ m
        tr_mn = mn[0, 0] + mn[1, 1]
        assert approx_eq(tr_mn, chebyshev_eval(n, m[0, 0] + m[1, 1]))


def test_matrix_eval_requires_square():
    rs = make_root_system(3, "bigfloat", 128)
    bad = matrices.zeros(rs, 2, 3)
    with pytest.raises(ValueError):
        chebyshev_eval(2, bad)


# ---------------------------------------------------------------------------
# root solving
# ---------------------------------------------------------------------------

def test_solve_at_t_two():
    rs = make_root_system(5, "bigfloat", 160)
    roots = solve_chebyshev(rs.scalar(2))
    two = rs.scalar(2)
    assert any(approx_eq(v, two) for v in roots.values)
    for v in roots.values:
        assert approx_eq(chebyshev_eval(5, v), two)


def test_solutions_match_twisted_rotations():
    rs = make_root_system(7, "bigfloat", 192)
    rng = random.Random(5)
    for _ in range(5):
        a = rs.scalar(complex(rng.uniform(1.1, 2.0), rng.uniform(0.1, 1.0)))
        t = a ** 7 + a ** (-7)
        roots = solve_chebyshev(t)
        expected = [a * rs.a_pow(2 * k) + a.inverse() * rs.a_pow(-2 * k) for k in range(1, 8)]
        for e in expected:
            assert any(approx_eq(e, v) for v in roots.values)
        assert len(roots.values) == 7


def test_roots_satisfy_equation():
    rs = make_root_system(5, "bigfloat", 160)
    rng = random.Random(9)
    for _ in range(8):
        t = rs.scalar(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        roots = solve_chebyshev(t)
        for v in roots.values:
            assert approx_eq(chebyshev_eval(5, v), t)


def test_roots_are_formed_on_first_read(monkeypatch):
    # a solve that reads only the base forms no root and no inverse of it
    rs = make_root_system(3, "bigfloat", 256)
    t = rs.scalar(complex(1.7, -0.6))
    roots = solve_chebyshev(t)
    assert "values" not in vars(roots)
    base, base_inv = roots.base, roots.base.inverse()
    want = [(base * rs.a_pow(2 * k) + base_inv * rs.a_pow(-2 * k)).pair for k in range(1, 4)]
    assert [v.pair for v in roots.values] == want
    assert roots.values is roots.values and roots == solve_chebyshev(t)


def test_solve_requires_bigfloat():
    rs = make_root_system(3)
    with pytest.raises(UnsupportedExactOperation):
        solve_chebyshev(rs.scalar(2))


def _mul_linear(poly, root, rs):
    # poly * (x - root), coefficient lists low power first
    out = [rs.zero] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] = out[i + 1] + c
        out[i] = out[i] - root * c
    return out


def test_factorization_identity_exact():
    # T_N(x) - a^N - a^{-N} agrees coefficientwise with the product of the
    # N linear factors x - a*A^{2k} - a^{-1}*A^{-2k}, for exact a
    rng = random.Random(71)
    for N in (3, 5):
        rs = make_root_system(N)
        for _ in range(4):
            a = random_exact(rs, rng, height=4)
            if a.is_zero():
                continue
            a_inv = a.inverse()
            poly = [rs.one]
            for k in range(1, N + 1):
                root = a * rs.a_pow(2 * k) + a_inv * rs.a_pow(-2 * k)
                poly = _mul_linear(poly, root, rs)
            lhs = [rs.scalar(c) for c in chebyshev_coeffs(N).coeffs]
            lhs[0] = lhs[0] - (a ** N + a ** (-N))
            assert len(lhs) == len(poly)
            for x, y in zip(lhs, poly):
                assert x == y
