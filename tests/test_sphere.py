import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from skeinrep import chebyshev, invariants, matrices, sphere, torus, uniqueness
from skeinrep.chebyshev import chebyshev_eval, solve_chebyshev
from skeinrep.errors import (DegenerateShadow, NoConsistentRoot, UnsupportedExactOperation,
                             VanishingCycle)
from skeinrep.expressions import evaluate, relation_defects
from skeinrep.invariants import extract_invariants
from skeinrep.scalars import (CyclotomicNumber, approx_eq, from_pair, make_root_system,
                              solve_quadratic)
from skeinrep.sphere import (build_sphere_rep, build_sphere_rep_from_params,
                             build_sphere_rep_with_u, chebyshev_at_puncture_roots,
                             ladder_product_closed_form, ladder_scalars_sphere,
                             ladder_system_sphere, make_sphere_params, puncture_data,
                             small_sphere_rep, solve_u, sphere_aux_invariants, trace_laws)
from skeinrep.surfaces import sphere_k
from skeinrep.uniqueness import gauge_orbit, intertwiner_search, sample_sphere_invariants


@pytest.fixture(scope="module")
def rs3():
    return make_root_system(3, "bigfloat", 256)


def rnd_scalar(rs, rng, lo=-1.5, hi=1.5):
    return rs.scalar(complex(rng.uniform(lo, hi), rng.uniform(lo, hi)))


def random_params(rs, rng):
    p = [rnd_scalar(rs, rng) for _ in range(4)]
    x3 = rs.scalar(complex(rng.uniform(1.05, 1.6), rng.uniform(0.1, 0.6)))
    return make_sphere_params(*p, rs.zero, rs.zero, x3)


def random_exact(rs, rng, height=5):
    return CyclotomicNumber(rs, tuple(Fraction(rng.randint(-height, height), rng.randint(1, height))
                                      for _ in range(rs.degree)))


def relation_residual(rep):
    worst = 0.0
    for expr in relation_defects(rep.surface, rep.rs).values():
        _, mag = matrices.residual_report(evaluate(expr, rep))
        worst = max(worst, mag)
    return worst


# ---------------------------------------------------------------------------
# auxiliary invariants
# ---------------------------------------------------------------------------

def test_aux_invariants_zero_and_constant(rs3):
    zeros = [rs3.zero] * 4
    assert all(v.is_zero() for v in sphere_aux_invariants(*zeros))
    twos = [rs3.scalar(2)] * 4
    q1, q2, q3, delta = sphere_aux_invariants(*twos)
    assert q1 == rs3.scalar(8) and q2 == rs3.scalar(8) and q3 == rs3.scalar(8)
    assert delta == rs3.scalar(32)


def test_aux_invariants_double_transposition_symmetry(rs3):
    # q1, q2, q3 are permuted among themselves by the pair swaps fixing the set
    rng = random.Random(1)
    p = [rnd_scalar(rs3, rng) for _ in range(4)]
    base = sphere_aux_invariants(*p)[:3]
    swaps = [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    for s in swaps:
        permuted = sphere_aux_invariants(p[s[0]], p[s[1]], p[s[2]], p[s[3]])[:3]
        for q in permuted:
            assert any(approx_eq(q, b) for b in base)


def pairs(values):
    return [v.pair for v in values]


def test_puncture_data_is_shared_by_exact_value(rs3):
    rng = random.Random(5)
    params = random_params(rs3, rng)
    # equal bits in other objects hit the same entry
    copies = [from_pair(rs3, p.pair) for p in params.punctures]
    assert puncture_data(rs3, *copies) is puncture_data(rs3, *params.punctures)
    assert pairs(params.aux) == pairs(sphere_aux_invariants(*params.punctures))
    assert pairs(params.chebyshev_at_roots) == pairs(
        chebyshev_at_puncture_roots(rs3, *params.punctures))
    assert params.aux is dataclasses.replace(params, x3=params.x3 * rs3.A).aux


def test_puncture_data_follows_replaced_punctures(rs3):
    rng = random.Random(6)
    params = random_params(rs3, rng)
    before = params.aux, params.chebyshev_at_roots
    moved = dataclasses.replace(params, p0=params.p0 + rs3.scalar(complex(0.0, 1e-60)))
    assert pairs(moved.aux) == pairs(sphere_aux_invariants(*moved.punctures))
    assert pairs(moved.chebyshev_at_roots) == pairs(
        chebyshev_at_puncture_roots(rs3, *moved.punctures))
    assert pairs(moved.aux) != pairs(before[0])
    assert pairs(moved.chebyshev_at_roots) != pairs(before[1])


def test_puncture_data_cache_is_bounded(rs3):
    rng = random.Random(7)
    bound = puncture_data.cache_info().maxsize
    assert bound
    for _ in range(bound + 5):
        puncture_data(rs3, *(rnd_scalar(rs3, rng) for _ in range(4)))
    assert puncture_data.cache_info().currsize == bound


def test_exact_params_read_their_puncture_data():
    rs = make_root_system(3, "exact")
    p = [rs.scalar(Fraction(c)) for c in ("1/2", "-2/3", "3/4", "5/7")]
    params = make_sphere_params(*p, rs.zero, rs.zero, rs.scalar(3) + rs.A)
    assert params.aux == sphere_aux_invariants(*p)
    assert params.aux is make_sphere_params(*p, rs.zero, rs.zero, rs.scalar(2) - rs.A).aux


def test_gauge_takes_each_power_and_product_once(rs3):
    params = random_params(rs3, random.Random(8))
    g = params.gauge
    n, x3 = rs3.N, params.x3
    assert g is params.gauge
    assert dataclasses.replace(params, x3=x3 * rs3.A).gauge is not g
    assert g.inverse is g.inverse
    assert pairs([g.inverse, g.power_n, g.power_minus_n]) == pairs(
        [x3 ** -1, x3 ** n, x3 ** -n])
    assert pairs([g.t3, g.s]) == pairs([x3 ** n + x3 ** -n, x3 ** n - x3 ** -n])
    for j in range(-4 * n - 2, 4 * n + 3):
        # A^j has period 2N, and so has each memo
        assert g.shifted(j) is g.shifted(j + 2 * n)
        assert g.inverse_shifted(j) is g.inverse_shifted(j - 2 * n)
        assert pairs([g.shifted(j), g.inverse_shifted(j)]) == pairs(
            [x3 * rs3.a_pow(j), x3 ** -1 * rs3.a_pow(j)])


# ---------------------------------------------------------------------------
# ladder scalars
# ---------------------------------------------------------------------------

def test_beta_identities(rs3):
    rng = random.Random(2)
    params = random_params(rs3, rng)
    ladder = ladder_scalars_sphere(params)
    q1, q2, _, _ = params.aux
    n = rs3.N
    x3 = params.x3
    for k in range(1, n + 1):
        bp = ladder.beta_plus[k - 1]
        bm_next = ladder.beta_minus[k % n]
        assert approx_eq(bm_next + bp, q1)
        combo = x3 * rs3.a_pow(4 * k + 2) * bm_next + x3 ** -1 * rs3.a_pow(-4 * k - 2) * bp + q2
        assert combo.is_zero()


@pytest.mark.parametrize("N", [3, 5, 7])
def test_cycle_product_matches_closed_form(N):
    rs = make_root_system(N, "bigfloat", 256)
    rng = random.Random(N)
    for _ in range(8):
        params = random_params(rs, rng)
        ladder = ladder_scalars_sphere(params)
        prod = ladder.cycle_product()
        closed = ladder_product_closed_form(params)
        diff = prod - closed
        scale = max(1.0, float(closed.magnitude()))
        assert float(diff.magnitude()) / scale < 1e-60


def test_closed_form_cancellation_at_zero_punctures(rs3):
    # p0 = p3 = 0 puts two quadratic roots at +/-2 and the corresponding
    # factor cancels the denominator exactly
    rng = random.Random(3)
    p1, p2 = rnd_scalar(rs3, rng), rnd_scalar(rs3, rng)
    params = make_sphere_params(rs3.zero, p1, p2, rs3.zero, rs3.zero, rs3.zero,
                                rs3.scalar(complex(1.2, 0.4)))
    t3 = params.t3
    closed = ladder_product_closed_form(params)
    r1, r2 = solve_quadratic(rs3.one, p1 * p2, p1 ** 2 + p2 ** 2 - 4)
    expected = -(t3 - chebyshev_eval(rs3.N, r1)) * (t3 - chebyshev_eval(rs3.N, r2))
    assert approx_eq(closed, expected)


def test_degenerate_gauge_rejected(rs3):
    rng = random.Random(4)
    p = [rnd_scalar(rs3, rng) for _ in range(4)]
    with pytest.raises(DegenerateShadow):
        make_sphere_params(*p, rs3.zero, rs3.zero, rs3.one)


# ---------------------------------------------------------------------------
# construction with a prescribed wraparound
# ---------------------------------------------------------------------------

def test_relations_hold(rs3):
    rng = random.Random(5)
    for _ in range(4):
        params = random_params(rs3, rng)
        rep = build_sphere_rep_with_u(params, rnd_scalar(rs3, rng, 0.5, 1.5))
        assert rep.dim == 3
        assert relation_residual(rep) < 1e-60


def test_x3_spectrum(rs3):
    rng = random.Random(6)
    params = random_params(rs3, rng)
    rep = build_sphere_rep_with_u(params, rs3.scalar(complex(0.7, 0.2)))
    x3 = params.x3
    for k in range(1, 4):
        lam = x3 * rs3.a_pow(4 * k) + x3 ** -1 * rs3.a_pow(-4 * k)
        assert approx_eq(rep.matrix("X3")[k - 1, k - 1], lam)


def test_down_up_composite_acts_by_r(rs3):
    rng = random.Random(7)
    params = random_params(rs3, rng)
    ladder = ladder_scalars_sphere(params)
    rep = build_sphere_rep_with_u(params, rnd_scalar(rs3, rng, 0.5, 1.5))
    system = ladder_system_sphere(rep, params)
    n = rep.dim
    for k in range(1, n + 1):
        comp = matrices.matmul(system.down[k % n], system.up[k - 1])
        for i in range(n):
            target = ladder.r_scalars[k - 1] if i == k - 1 else rs3.zero
            assert approx_eq(comp[i, k - 1], target)


def test_ladder_scalars_are_taken_once_per_params(rs3, monkeypatch):
    # solve_u, the assembly and the ladder operators share params.ladder
    calls = []
    real = sphere.ladder_scalars_sphere
    monkeypatch.setattr(sphere, "ladder_scalars_sphere", lambda params: calls.append(1) or real(params))
    inv = sample_sphere_invariants(rs3, random.Random(12))
    params = make_sphere_params(*(inv[k] for k in ("p0", "p1", "p2", "p3", "t1", "t2")),
                                solve_chebyshev(inv["t3"]).base)
    rep = build_sphere_rep_from_params(params)
    ladder_system_sphere(rep, params)
    assert calls == [1] and params.ladder.r_scalars == real(params).r_scalars


@pytest.mark.parametrize("N", [3, 5])
def test_exact_relations_identically_zero(N):
    # exact arithmetic catches any index or sign slip in the ladder assembly
    rs = make_root_system(N)
    rng = random.Random(40 + N)
    p = [random_exact(rs, rng) for _ in range(4)]
    x3, u = random_exact(rs, rng), random_exact(rs, rng)
    params = make_sphere_params(*p, rs.zero, rs.zero, x3)
    rep = build_sphere_rep_with_u(params, u)
    for expr in relation_defects(rep.surface, rs).values():
        assert matrices.is_zero_matrix(evaluate(expr, rep))
    assert ladder_system_sphere(rep, params).u == u


def test_zero_wraparound_rejected(rs3):
    rng = random.Random(8)
    params = random_params(rs3, rng)
    with pytest.raises(VanishingCycle):
        build_sphere_rep_with_u(params, rs3.zero)


# ---------------------------------------------------------------------------
# determination of u
# ---------------------------------------------------------------------------

def test_solve_u_roundtrip(rs3):
    rng = random.Random(9)
    for _ in range(4):
        params = random_params(rs3, rng)
        u_true = rnd_scalar(rs3, rng, 0.4, 1.6)
        rep = build_sphere_rep_with_u(params, u_true)
        t1 = matrices.read_scalar_matrix(chebyshev_eval(3, rep.matrix("X1")), rs3)
        t2 = matrices.read_scalar_matrix(chebyshev_eval(3, rep.matrix("X2")), rs3)
        u_rec = solve_u(params, t1, t2)
        assert approx_eq(u_rec, u_true)


def test_trace_is_moebius_in_u(rs3):
    # t1(u) - t1(u') = alpha (u - u') + beta (1/u - 1/u') for any two values
    rng = random.Random(10)
    params = random_params(rs3, rng)
    ladder = ladder_scalars_sphere(params)
    s = params.x3 ** 3 - params.x3 ** -3
    alpha = -(params.x3 ** -3) / s
    beta = params.x3 ** 3 * ladder.cycle_product() / s
    u1, u2 = rnd_scalar(rs3, rng, 0.5, 1.5), rnd_scalar(rs3, rng, 0.5, 1.5)
    traces = []
    for u in (u1, u2):
        rep = build_sphere_rep_with_u(params, u)
        traces.append(matrices.read_scalar_matrix(chebyshev_eval(3, rep.matrix("X1")), rs3))
    lhs = traces[0] - traces[1]
    rhs = alpha * (u1 - u2) + beta * (u1 ** -1 - u2 ** -1)
    assert approx_eq(lhs, rhs)


def test_trace_linear_coefficients_by_three_point_fit(rs3):
    # brute-force check of the u-expansion coefficients at N = 3: fit
    # t1(u) = alpha u + beta/u + f through two samples and predict a third
    rng = random.Random(11)
    params = random_params(rs3, rng)
    ladder = ladder_scalars_sphere(params)
    s = params.x3 ** 3 - params.x3 ** -3
    alpha = -(params.x3 ** -3) / s
    beta = params.x3 ** 3 * ladder.cycle_product() / s

    def t1_of(u):
        rep = build_sphere_rep_with_u(params, u)
        return matrices.read_scalar_matrix(chebyshev_eval(3, rep.matrix("X1")), rs3)

    u0 = rs3.one
    f = t1_of(u0) - alpha * u0 - beta * u0 ** -1
    for _ in range(3):
        u = rnd_scalar(rs3, rng, 0.5, 1.5)
        predicted = alpha * u + beta * u ** -1 + f
        assert approx_eq(predicted, t1_of(u))


def test_solve_u_bitwise_deterministic(rs3):
    rng = random.Random(16)
    params = random_params(rs3, rng)
    u_true = rnd_scalar(rs3, rng, 0.5, 1.5)
    rep = build_sphere_rep_with_u(params, u_true)
    t1 = matrices.read_scalar_matrix(chebyshev_eval(3, rep.matrix("X1")), rs3)
    t2 = matrices.read_scalar_matrix(chebyshev_eval(3, rep.matrix("X2")), rs3)
    first = solve_u(params, t1, t2)
    second = solve_u(params, t1, t2)
    assert first.re == second.re and first.im == second.im


@pytest.mark.parametrize("N", [1, 3, 5, 7])
def test_trace_offsets_match_trial_measurement(N):
    # oracle: f = T_N(X1(1)) - alpha - beta and g = T_N(X2(1)) - alpha' - beta',
    # measured from the images at the trial wraparound u = 1 as solve_u once
    # did, against the closed forms, on every variant of a sampled orbit
    rs = make_root_system(N, "bigfloat", 256)
    inv = sample_sphere_invariants(rs, random.Random(30 + N))
    x3 = solve_chebyshev(inv["t3"]).base
    base = make_sphere_params(*(inv[k] for k in ("p0", "p1", "p2", "p3", "t1", "t2")), x3)
    for params in gauge_orbit(base):
        ladder = ladder_scalars_sphere(params)
        prod_r = ladder.cycle_product()
        s = params.x3 ** N - params.x3 ** -N
        trial = build_sphere_rep_with_u(params, rs.one)
        f = matrices.read_scalar_matrix(chebyshev_eval(N, trial.matrix("X1")), rs) - (
            -(params.x3 ** -N) / s + params.x3 ** N * prod_r / s)
        g = matrices.read_scalar_matrix(chebyshev_eval(N, trial.matrix("X2")), rs) - (
            -rs.one / s + prod_r / s)
        law1, law2 = trace_laws(params, prod_r)
        assert approx_eq(law1.offset, f) and approx_eq(law2.offset, g)


@pytest.mark.parametrize("N", [1, 3, 5])
def test_sampler_traces_match_built_rep(N, monkeypatch):
    # the sampler's t1, t2 are T_N of the images built at the u it drew
    rs = make_root_system(N, "bigfloat", 256)
    draws = []

    def annulus_draw(rng, *args):
        draws.append(real_draw(rng, *args))
        return draws[-1]

    real_draw = uniqueness._annulus_draw
    monkeypatch.setattr(uniqueness, "_annulus_draw", annulus_draw)
    rng = random.Random(40 + N)
    for _ in range(3):
        inv = sample_sphere_invariants(rs, rng)
        x3 = solve_chebyshev(inv["t3"]).base
        params = make_sphere_params(*(inv[k] for k in ("p0", "p1", "p2", "p3")),
                                    rs.zero, rs.zero, x3)
        rep = build_sphere_rep_with_u(params, rs.scalar(draws[-1]))
        assert approx_eq(matrices.read_scalar_matrix(rep.chebyshev("X1"), rs), inv["t1"])
        assert approx_eq(matrices.read_scalar_matrix(rep.chebyshev("X2"), rs), inv["t2"])


def test_solve_u_and_sampler_read_no_matrix(rs3, monkeypatch):
    # T_N is taken of the punctures and their roots only, never of an image,
    # and no scalar matrix is read
    args = []

    def counting(n, arg):
        args.append(arg)
        return chebyshev_eval(n, arg)

    for module in (chebyshev, sphere, invariants, torus):
        monkeypatch.setattr(module, "chebyshev_eval", counting)
    for name in ("chebyshev_rows", "read_scalar_matrix", "read_scalar"):
        monkeypatch.setattr(matrices, name, None)
    puncture_data.cache_clear()
    inv = sample_sphere_invariants(rs3, random.Random(18))
    x3 = solve_chebyshev(inv["t3"]).base
    params = make_sphere_params(*(inv[k] for k in ("p0", "p1", "p2", "p3", "t1", "t2")), x3)
    u = solve_u(params, inv["t1"], inv["t2"])
    assert not u.is_zero()
    assert len(args) == 8 and not any(isinstance(a, np.ndarray) for a in args)


def test_solve_u_rejects_inconsistent_traces(rs3):
    rng = random.Random(12)
    params = random_params(rs3, rng)
    u_true = rnd_scalar(rs3, rng, 0.5, 1.5)
    rep = build_sphere_rep_with_u(params, u_true)
    t1 = matrices.read_scalar_matrix(chebyshev_eval(3, rep.matrix("X1")), rs3)
    t2 = matrices.read_scalar_matrix(chebyshev_eval(3, rep.matrix("X2")), rs3)
    with pytest.raises(NoConsistentRoot):
        solve_u(params, t1, t2 + rs3.scalar(complex(0.21, 0.11)))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_pipeline_roundtrip(rs3):
    rng = random.Random(13)
    inv = sample_sphere_invariants(rs3, rng)
    rep = build_sphere_rep(inv["p0"], inv["p1"], inv["p2"], inv["p3"],
                           inv["t1"], inv["t2"], inv["t3"])
    assert rep.dim == 3
    assert relation_residual(rep) < 1e-60
    shadow = extract_invariants(rep)
    for i in range(4):
        assert approx_eq(shadow.puncture_values[f"P{i}"], inv[f"p{i}"])
    for i in (1, 2, 3):
        assert approx_eq(shadow.t(f"X{i}"), inv[f"t{i}"])
    assert shadow.compatibility_ok


def test_pipeline_gauge_variants_isomorphic(rs3):
    rng = random.Random(14)
    inv = sample_sphere_invariants(rs3, rng)
    x3 = solve_chebyshev(inv["t3"]).base
    params = make_sphere_params(inv["p0"], inv["p1"], inv["p2"], inv["p3"],
                                inv["t1"], inv["t2"], x3)
    variants = gauge_orbit(params)
    assert len(variants) == 6
    rep0 = build_sphere_rep_from_params(variants[0])
    rep3 = build_sphere_rep_from_params(variants[4])
    cert = intertwiner_search(rep0, rep3)
    assert cert is not None
    assert cert.worst_residual < 1e-40


def test_pipeline_requires_bigfloat():
    rs = make_root_system(3)
    z = rs.zero
    with pytest.raises((TypeError, UnsupportedExactOperation)):
        build_sphere_rep(z, z, z, z, z, z, rs.scalar(3))


# ---------------------------------------------------------------------------
# small spheres
# ---------------------------------------------------------------------------

def test_small_sphere_scalars():
    rs = make_root_system(5)
    rep = small_sphere_rep([rs.scalar(5)])
    assert rep.dim == 1
    assert rep.matrix("P1")[0, 0] == rs.scalar(5)
    empty = small_sphere_rep([], rs)
    assert empty.surface == sphere_k(0)
    assert empty.puncture_scalars == {}


def test_small_sphere_exact_roundtrip():
    rs = make_root_system(3)
    rng = random.Random(15)
    for k in (1, 2, 3):
        values = [rs.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(k)]
        rep = small_sphere_rep(values)
        shadow = extract_invariants(rep)
        for i, v in enumerate(values, start=1):
            assert shadow.puncture_values[f"P{i}"] == v
        assert shadow.compatibility_ok


def test_small_sphere_puncture_trace_convention():
    # T_N(p_k) determines the shadow trace at the puncture by construction
    rs = make_root_system(3, "bigfloat", 128)
    p = rs.scalar(complex(0.4, 1.1))
    rep = small_sphere_rep([p])
    tn = chebyshev_eval(3, rep.matrix("P1"))
    assert approx_eq(tn[0, 0], chebyshev_eval(3, p))
