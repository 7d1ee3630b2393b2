import random
from collections import Counter
from fractions import Fraction

import pytest

from skeinrep import matrices
from skeinrep.chebyshev import chebyshev_eval, solve_chebyshev
from skeinrep.errors import (DegenerateShadow, EigenstructureMismatch,
                             IncompatiblePuncture, VanishingCycle)
from skeinrep.expressions import evaluate, relation_defects
from skeinrep.scalars import BigComplex, CyclotomicNumber, approx_eq, make_root_system
from skeinrep.surfaces import TORUS0, TORUS1
from skeinrep.torus import (build_torus_rep, closed_torus_rep, cycle_scalar,
                            ladder_system_torus, puncture_chebyshev_value,
                            torus_params_exact, torus_params_from_shadow)
from skeinrep.uniqueness import sample_torus_shadow


@pytest.fixture(scope="module")
def rs5():
    return make_root_system(5, "bigfloat", 256)


def random_exact(rs, rng, height=5):
    return CyclotomicNumber(rs, tuple(Fraction(rng.randint(-height, height), rng.randint(1, height))
                                      for _ in range(rs.degree)))


def make_params(rs, rng):
    inv = sample_torus_shadow(rs, rng)
    return torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"]), inv


def relation_residual(rep):
    worst = 0.0
    for expr in relation_defects(rep.surface, rep.rs).values():
        _, mag = matrices.residual_report(evaluate(expr, rep))
        worst = max(worst, mag)
    return worst


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_from_shadow_gauge_satisfies_t3(rs5):
    rng = random.Random(1)
    params, inv = make_params(rs5, rng)
    assert approx_eq(params.t3, inv["t3"])
    # x3 is among the canonical ladder of solutions
    roots = solve_chebyshev(inv["t3"])
    assert any(approx_eq(params.x3 * params.x3.rs.a_pow(0), roots.base * roots.base.rs.a_pow(2 * k))
               for k in range(rs5.N + 1))


def test_build_takes_each_gauge_power_once(rs5, monkeypatch):
    params, _ = make_params(rs5, random.Random(2))
    powers = Counter()
    real = BigComplex.__pow__

    def power(self, exponent):
        powers[self.pair, exponent] += 1
        return real(self, exponent)

    monkeypatch.setattr(BigComplex, "__pow__", power)
    build_torus_rep(params)
    x3 = params.x3.pair
    assert {key: c for key, c in powers.items() if key[0] == x3} == {
        (x3, -1): 1, (x3, rs5.N): 1, (x3, -rs5.N): 1}


def test_degenerate_shadow_rejected(rs5):
    two = rs5.scalar(2)
    z = rs5.scalar(complex(0.3, 0.1))
    with pytest.raises(DegenerateShadow):
        torus_params_from_shadow(z, z, two, z)


def test_vanishing_cycle_rejected(rs5):
    # choose t1 = t2 = 0 so the cycle scalar vanishes regardless of t3
    zero = rs5.zero
    t3 = rs5.scalar(complex(1.0, 0.7))
    p = solve_chebyshev(puncture_chebyshev_value(zero, zero, t3)).values[0]
    with pytest.raises(VanishingCycle):
        torus_params_from_shadow(zero, zero, t3, p)


def test_incompatible_puncture_rejected(rs5):
    rng = random.Random(2)
    params, inv = make_params(rs5, rng)
    bad_p = inv["p"] + rs5.scalar(complex(0.37, 0.0))
    if approx_eq(chebyshev_eval(rs5.N, bad_p), puncture_chebyshev_value(inv["t1"], inv["t2"], inv["t3"])):
        pytest.skip("perturbation accidentally landed on another solution")
    with pytest.raises(IncompatiblePuncture):
        torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], bad_p)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_relations_hold_on_random_construction(rs5):
    rng = random.Random(3)
    for _ in range(5):
        params, _ = make_params(rs5, rng)
        rep = build_torus_rep(params)
        assert rep.dim == 5
        assert relation_residual(rep) < 1e-60


def test_puncture_matrix_is_scalar(rs5):
    rng = random.Random(4)
    params, _ = make_params(rs5, rng)
    rep = build_torus_rep(params)
    defect = rep.matrix("P") - matrices.scalar_matrix(params.p, rep.dim)
    assert matrices.is_zero_matrix(defect)


def test_x3_spectrum_matches_chebyshev_solutions(rs5):
    rng = random.Random(5)
    params, inv = make_params(rs5, rng)
    rep = build_torus_rep(params)
    diag = [rep.matrix("X3")[k, k] for k in range(rep.dim)]
    solutions = solve_chebyshev(inv["t3"]).values
    for lam in diag:
        assert any(approx_eq(lam, s) for s in solutions)


def test_dimension_one_collapse():
    rs = make_root_system(1, "bigfloat", 128)
    rng = random.Random(6)
    t1 = rs.scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    t2 = rs.scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    t3 = rs.scalar(complex(1.3, 0.9))
    p = puncture_chebyshev_value(t1, t2, t3)  # T_1(p) = p pins the puncture scalar
    params = torus_params_from_shadow(t1, t2, t3, p)
    rep = build_torus_rep(params)
    assert rep.dim == 1
    assert approx_eq(rep.matrix("X1")[0, 0], t1)
    assert approx_eq(rep.matrix("X2")[0, 0], t2)
    assert approx_eq(rep.matrix("X3")[0, 0], t3)
    assert approx_eq(rep.matrix("P")[0, 0], p)


def test_trace_scalars_recover_inputs(rs5):
    rng = random.Random(7)
    params, inv = make_params(rs5, rng)
    rep = build_torus_rep(params)
    for name, expected in (("X1", inv["t1"]), ("X2", inv["t2"]), ("X3", inv["t3"])):
        tn = chebyshev_eval(rs5.N, rep.matrix(name))
        got = matrices.read_scalar_matrix(tn, rs5)
        assert approx_eq(got, expected)


# ---------------------------------------------------------------------------
# exact family
# ---------------------------------------------------------------------------

def test_exact_family_relations_identically_zero():
    rs = make_root_system(3)
    rng = random.Random(8)
    done = 0
    while done < 6:
        x3, p, u = (random_exact(rs, rng) for _ in range(3))
        if x3.is_zero() or u.is_zero() or (x3 ** 3 - x3 ** -3).is_zero():
            continue
        params = torus_params_exact(x3, p, u)
        rep = build_torus_rep(params)
        for expr in relation_defects(TORUS1, rs).values():
            assert matrices.is_zero_matrix(evaluate(expr, rep))
        done += 1


def test_exact_family_sign_convention():
    # the derived traces satisfy u = -t1 - t2 x3^N and reproduce the cycle
    # scalar with a plus sign; this pins the one-sign ambiguity once
    rs = make_root_system(3)
    rng = random.Random(9)
    done = 0
    while done < 6:
        x3, p, u = (random_exact(rs, rng) for _ in range(3))
        if x3.is_zero() or u.is_zero() or (x3 ** 3 - x3 ** -3).is_zero():
            continue
        params = torus_params_exact(x3, p, u)
        big_k = -(chebyshev_eval(3, p) + x3 ** 6 + x3 ** -6)
        assert cycle_scalar(params.t1, params.t2, params.t3) == big_k
        assert params.u == u
        assert -params.t1 - params.t2 * x3 ** 3 == u
        done += 1


def test_exact_family_chebyshev_traces():
    rs = make_root_system(3)
    x3 = rs.A + 1
    p = rs.A - 2
    u = rs.scalar(Fraction(3, 2))
    params = torus_params_exact(x3, p, u)
    rep = build_torus_rep(params)
    for name, expected in (("X1", params.t1), ("X2", params.t2), ("X3", params.t3)):
        tn = chebyshev_eval(3, rep.matrix(name))
        assert matrices.read_scalar_matrix(tn, rs) == expected


# ---------------------------------------------------------------------------
# ladder structure
# ---------------------------------------------------------------------------

def test_ladder_shifts_and_composites(rs5):
    rng = random.Random(11)
    params, _ = make_params(rs5, rng)
    rep = build_torus_rep(params)
    ladder = ladder_system_torus(rep, params.x3)
    n = rep.dim
    x3, p = params.x3, params.p

    # up maps eigenline k to k+1 (validated inside the constructor too)
    for k in range(1, n + 1):
        col = [ladder.up[k - 1][i, k - 1] for i in range(n)]
        for i in range(n):
            if i != k % n:
                assert approx_eq(col[i], rs5.zero)

    # the down-then-up composite acts by the expected scalar
    for k in range(1, n + 1):
        comp = matrices.matmul(ladder.down[k % n], ladder.up[k - 1])
        expected = -(p + x3 * x3 * rs5.a_pow(4 * k + 2) + x3 ** -2 * rs5.a_pow(-4 * k - 2))
        for i in range(n):
            target = expected if i == k - 1 else rs5.zero
            assert approx_eq(comp[i, k - 1], target)


def test_full_cycle_acts_by_cycle_scalar(rs5):
    rng = random.Random(12)
    params, inv = make_params(rs5, rng)
    rep = build_torus_rep(params)
    ladder = ladder_system_torus(rep, params.x3)
    n = rep.dim
    expected = cycle_scalar(inv["t1"], inv["t2"], inv["t3"])
    for k in range(1, n + 1):
        acc = matrices.identity(rs5, n)
        for j in range(n):
            acc = matrices.matmul(ladder.up[(k - 1 + j) % n], acc)
        for j in range(n, 0, -1):
            acc = matrices.matmul(ladder.down[(k + j - 1) % n], acc)
        for i in range(n):
            target = expected if i == k - 1 else rs5.zero
            assert approx_eq(acc[i, k - 1], target)


def test_ladder_rejects_wrong_gauge(rs5):
    rng = random.Random(13)
    params, _ = make_params(rs5, rng)
    rep = build_torus_rep(params)
    with pytest.raises(EigenstructureMismatch):
        ladder_system_torus(rep, params.x3 * rs5.scalar(complex(1.01, 0.0)))


# ---------------------------------------------------------------------------
# closed torus
# ---------------------------------------------------------------------------

def sample_closed_shadow(rs, rng):
    from skeinrep.scalars import solve_quadratic

    while True:
        a1 = rs.scalar(complex(rng.uniform(0.6, 1.8), rng.uniform(-0.8, 0.8)))
        a2 = rs.scalar(complex(rng.uniform(0.6, 1.8), rng.uniform(-0.8, 0.8)))
        t1, t2 = a1 + a1 ** -1, a2 + a2 ** -1
        # solve t3^2 + t1 t2 t3 + t1^2 + t2^2 - 4 = 0 for an admissible t3
        for t3 in solve_quadratic(rs.one, t1 * t2, t1 * t1 + t2 * t2 - 4):
            two = rs.scalar(2)
            if approx_eq(t3, two) or approx_eq(t3, -two):
                continue
            if cycle_scalar(t1, t2, t3).is_zero():
                continue
            return t1, t2, t3


def test_closed_torus_properties():
    rs = make_root_system(3, "bigfloat", 256)
    rng = random.Random(14)
    for _ in range(5):
        t1, t2, t3 = sample_closed_shadow(rs, rng)
        rep = closed_torus_rep(t1, t2, t3)
        assert rep.surface is TORUS0
        assert rep.puncture_scalars == {}
        assert relation_residual(rep) < 1e-60


def test_closed_torus_rejects_exact_shadow():
    # (1, -1, -1) is a closed shadow; like every shadow it is read in the bigfloat backend only
    rs = make_root_system(3)
    with pytest.raises(TypeError):
        closed_torus_rep(rs.scalar(1), rs.scalar(-1), rs.scalar(-1))


def test_closed_torus_rejects_incompatible_shadow():
    rs = make_root_system(3, "bigfloat", 256)
    t = rs.scalar(complex(0.5, 0.2))
    with pytest.raises(IncompatiblePuncture):
        closed_torus_rep(t, t, t)
