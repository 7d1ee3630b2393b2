import random
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp, fzero
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skeinrep import matrices, sphere, uniqueness
from skeinrep.chebyshev import chebyshev_eval, solve_chebyshev
from skeinrep.errors import VanishingDivisor
from skeinrep.scalars import BigComplex, Tolerance, approx_eq, from_pair, make_root_system
from skeinrep.serialize import dumps_canonical
from skeinrep.sphere import build_sphere_rep_from_params, make_sphere_params
from skeinrep.surfaces import SPHERE4, TORUS1
from skeinrep.torus import (build_torus_rep, puncture_chebyshev_value,
                            torus_params_exact, torus_params_from_shadow)
from skeinrep.uniqueness import (ExperimentConfig, gauge_orbit, genericity_check,
                                 intertwiner_search, sample_sphere_invariants,
                                 sample_torus_shadow, uniqueness_experiment)


@pytest.fixture(scope="module")
def rs():
    return make_root_system(3, "bigfloat", 256)


@pytest.fixture(scope="module")
def base_rep(rs):
    rng = random.Random(1)
    inv = sample_torus_shadow(rs, rng)
    params = torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"])
    return build_torus_rep(params), params, inv


def conjugate(rep, g, g_inv):
    from skeinrep.representation import Representation

    mats = {name: matrices.freeze(matrices.matmul(matrices.matmul(g, m), g_inv))
            for name, m in rep.matrices.items()}
    return Representation(rep.surface, rep.rs, rep.dim, mats, rep.puncture_scalars, {})


def lu_inverse(g):
    """g^-1 by mpmath's LU at the working precision, each entry rounded once on the way back."""
    rs, n = g.flat[0].rs, g.shape[0]
    with mp.workprec(rs.precision_bits):
        inv = matrices.to_mp_matrix(g) ** -1
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        out[i] = matrices.from_mp_vector(rs, [inv[i, j] for j in range(n)], n)
    return out


def random_invertible(rs, n, rng):
    g = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            g[i, j] = rs.scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return g, lu_inverse(g)


# ---------------------------------------------------------------------------
# intertwiner search
# ---------------------------------------------------------------------------

def test_self_intertwiner_is_scalar(base_rep):
    rep, _, _ = base_rep
    cert = intertwiner_search(rep, rep)
    assert cert is not None
    assert cert.worst_residual < 1e-40
    # normalized certificate of an irreducible self-pairing is the identity
    # up to the chosen scale; check it is proportional to Id
    n = rep.dim
    for i in range(n):
        for j in range(n):
            if i != j:
                assert approx_eq(cert.matrix[i, j], rep.rs.zero)


def test_conjugation_recovered(base_rep, rs):
    rep, _, _ = base_rep
    rng = random.Random(2)
    g, g_inv = random_invertible(rs, rep.dim, rng)
    other = conjugate(rep, g, g_inv)
    # M rho = rho_other M forces M proportional to g
    cert = intertwiner_search(rep, other)
    assert cert is not None
    assert cert.worst_residual < 1e-40
    ratios = []
    for i in range(rep.dim):
        for j in range(rep.dim):
            ratios.append(cert.matrix[i, j] / g[i, j])
    for r in ratios[1:]:
        assert approx_eq(r, ratios[0])


def test_distinct_puncture_scalars_no_intertwiner(base_rep, rs):
    rep, params, inv = base_rep
    # a different solution p' of the same compatibility equation
    w = puncture_chebyshev_value(inv["t1"], inv["t2"], inv["t3"])
    candidates = solve_chebyshev(w).values
    other_p = next(c for c in candidates if not approx_eq(c, inv["p"]))
    params2 = torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], other_p)
    rep2 = build_torus_rep(params2)
    assert intertwiner_search(rep, rep2) is None


def test_certificates_compose(base_rep, rs):
    rep, params, _ = base_rep
    variants = gauge_orbit(params)
    rep_b = build_torus_rep(variants[1])
    rep_c = build_torus_rep(variants[2])
    m_ab = intertwiner_search(rep, rep_b).matrix
    m_bc = intertwiner_search(rep_b, rep_c).matrix
    m_ac = matrices.matmul(m_bc, m_ab)
    worst = 0.0
    for g in rep.surface.generators:
        defect = matrices.matmul(m_ac, rep.matrix(g)) - matrices.matmul(rep_c.matrix(g), m_ac)
        _, mag = matrices.residual_report(defect)
        worst = max(worst, mag)
    assert worst < 1e-38


def test_schur_scale_uniqueness(base_rep):
    rep, params, _ = base_rep
    rep_b = build_torus_rep(gauge_orbit(params)[3])
    c1 = intertwiner_search(rep, rep_b)
    c2 = intertwiner_search(rep, rep_b, tol=None)
    ratio = None
    for i in range(rep.dim):
        for j in range(rep.dim):
            if matrices.entry_magnitude(c1.matrix[i, j]) > 0.1:
                r = c2.matrix[i, j] / c1.matrix[i, j]
                if ratio is None:
                    ratio = r
                else:
                    assert approx_eq(r, ratio)
    assert ratio is not None


def _no_dense_system(*_args):
    raise AssertionError("the dense commuting system was built")


def _sphere_orbit_reps(rs, seed):
    inv = sample_sphere_invariants(rs, random.Random(seed))
    params = make_sphere_params(inv["p0"], inv["p1"], inv["p2"], inv["p3"],
                                inv["t1"], inv["t2"], solve_chebyshev(inv["t3"]).base)
    return [build_sphere_rep_from_params(v) for v in gauge_orbit(params)]


@pytest.mark.parametrize("surface", ["torus", "sphere"])
def test_monomial_certificate_matches_dense(base_rep, rs, surface):
    if surface == "torus":
        _, params, _ = base_rep
        reps = [build_torus_rep(v) for v in gauge_orbit(params)]
    else:
        reps = _sphere_orbit_reps(rs, 6)
    # variant N + 1 (x3 -> x3^{-1} A^2) reverses the order of the X3 eigenlines
    rep_a, rep_b = reps[0], reps[rs.N + 1]
    mono = intertwiner_search(rep_a, rep_b)
    dense = uniqueness._dense_intertwiner(rep_a, rep_b, None)
    assert mono is not None and dense is not None
    assert isinstance(mono.intertwiner, uniqueness.Monomial)
    assert dense.matrix is dense.intertwiner and not dense.matrix.flags.writeable
    assert mono.worst_residual < 1e-40
    n = rep_a.dim
    for j in range(n):
        column = [matrices.entry_magnitude(mono.matrix[i, j]) for i in range(n)]
        assert sum(1 for mag in column if mag > 0) == 1
    # both are normalized to a largest entry of 1, so they agree up to one scalar
    i0, j0 = max(((i, j) for i in range(n) for j in range(n)),
                 key=lambda ij: matrices.entry_magnitude(mono.matrix[ij]))
    ratio = dense.matrix[i0, j0] / mono.matrix[i0, j0]
    tol = Tolerance(1e-30)
    for i in range(n):
        for j in range(n):
            assert approx_eq(dense.matrix[i, j], ratio * mono.matrix[i, j], tol)


def bits(mat):
    return [(e.re._mpf_, e.im._mpf_) for e in mat.flat]


def tied_entries(rs, rng, n):
    """n scalars, many of one float magnitude: e, i e, -e, conj e, and e (1 + 2^-100)."""
    e = rs.scalar(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    i = rs.scalar(1j)
    nudge = from_pair(rs, (from_man_exp((1 << 100) + 1, -100), fzero))
    ties = [e, i * e, -e, rs.scalar(complex(e.re, -e.im)), e * nudge]
    return [rng.choice(ties) if rng.random() < 0.7 else
            rs.scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6))
def test_monomial_normalization_matches_dense(rs, seed, n):
    rng = random.Random(seed)
    mono = uniqueness.Monomial(rng.sample(range(n), n), tied_entries(rs, rng, n))
    dense = mono.matrix()
    assert bits(mono.normalized().matrix()) == bits(uniqueness._normalize_by_largest(dense))
    # the closed-form condition number is the ratio of LAPACK's extreme singular values
    lapack = uniqueness._condition_estimate(matrices.to_complex128(dense))
    assert mono.condition() == pytest.approx(lapack, rel=1e-12)


def test_monomial_normalization_matches_dense_exact_backend():
    # every power of A has magnitude 1, so the first row's entry wins
    exact = make_root_system(5)
    mono = uniqueness.Monomial([2, 0, 4, 1, 3], [exact.a_pow(k) for k in (3, 1, 7, 2, 9)])
    got = mono.normalized().matrix()
    assert list(got.flat) == list(uniqueness._normalize_by_largest(mono.matrix()).flat)
    assert got[0, 1] == exact.one


def wide_entry(rs, rng, top):
    """A scalar of 300-bit parts, wider than working precision, of magnitude near 2^top; a part may be 0."""
    def part():
        if rng.random() < 0.15:
            return fzero
        return from_man_exp(rng.choice([-1, 1]) * rng.getrandbits(300), top - 300 + rng.randint(-3, 3))
    return from_pair(rs, (part(), part()))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 7), exact_zero=st.booleans())
def test_monomial_over_matches_entrywise_division(rs, seed, n, exact_zero):
    # divisors far from the zero cut 2^-128, near it, or exactly zero: the
    # quotients are those of BigComplex /, and a divisor that is_zero raises as / does
    rng = random.Random(seed)
    num = uniqueness.Monomial(rng.sample(range(n), n),
                              [wide_entry(rs, rng, rng.randint(-100, 100)) for _ in range(n)])
    assume(num.raw is not None)
    tops = [rng.randint(-132, -124) if rng.random() < 0.15 else rng.randint(-100, 100) for _ in range(n)]
    den_entries = [wide_entry(rs, rng, top) for top in tops]
    if exact_zero:
        den_entries[rng.randrange(n)] = rs.zero
    den = uniqueness.Monomial(rng.sample(range(n), n), den_entries)
    try:
        want = [x / y for x, y in zip(num.entries, den.entries)]
    except VanishingDivisor as exc:
        assert any(y.is_zero() for y in den.entries)
        with pytest.raises(VanishingDivisor) as raised:
            num.over(den)
        assert str(raised.value) == str(exc)
        return
    got = num.over(den)
    for k, col in enumerate(den.sigma):
        assert got.sigma[col] == num.sigma[k]
        assert got.entries[col].pair == want[k].pair and got.entries[col].rs is want[k].rs


def test_distinct_t3_refused_by_spectrum(rs, monkeypatch):
    p, u = rs.scalar(complex(0.3, -0.4)), rs.scalar(complex(1.1, 0.2))
    rep_a = build_torus_rep(torus_params_exact(rs.scalar(complex(1.3, 0.4)), p, u))
    rep_b = build_torus_rep(torus_params_exact(rs.scalar(complex(0.7, -0.9)), p, u))
    assert approx_eq(rep_a.puncture_scalars["P"], rep_b.puncture_scalars["P"])
    assert not approx_eq(rep_a.provenance["params"]["t3"], rep_b.provenance["params"]["t3"])
    monkeypatch.setattr(uniqueness, "commuting_system", _no_dense_system)
    assert intertwiner_search(rep_a, rep_b) is None


def test_exact_backend_certificates():
    rs = make_root_system(3)
    params = torus_params_exact(rs.scalar(2), rs.scalar(1), rs.scalar(3))
    rep = build_torus_rep(params)
    gauge = build_torus_rep(gauge_orbit(params)[1])  # x3 -> x3 A^2
    for other in (rep, gauge):
        cert = intertwiner_search(rep, other)
        assert cert is not None
        assert all(r == 0.0 for r in cert.residuals.values())


def with_matrices(rep, **images):
    from skeinrep.representation import Representation

    mats = dict(rep.matrices)
    mats.update({g: matrices.freeze(m) for g, m in images.items()})
    return Representation(rep.surface, rep.rs, rep.dim, mats, rep.puncture_scalars, {})


def test_walk_refuses_perturbed_x2(base_rep, monkeypatch):
    rep, _, _ = base_rep
    x2 = np.array(rep.matrix("X2"), dtype=object)
    x2[0, 1] = x2[0, 1] * rep.rs.scalar(complex(1, 1e-10))
    other = with_matrices(rep, X2=x2)
    gated = []
    real_gate = uniqueness._within_gate

    def spy(cert, rep_a, rep_b, tol):
        gated.append(real_gate(cert, rep_a, rep_b, tol))
        return gated[-1]

    monkeypatch.setattr(uniqueness, "_within_gate", spy)
    # same X3 and puncture scalars, so the walk runs; its candidate is
    # invertible, and only the residual gate refuses it
    assert intertwiner_search(rep, other) is None
    assert gated == [False]


@pytest.mark.parametrize("eps,certified", [(1e-38, False), (1e-39, True)])
def test_dense_certificate_passes_the_residual_gate(base_rep, monkeypatch, eps, certified):
    # a sheared conjugate has no diagonal X3, so its certificate comes from the
    # dense system; moving its X2[0, 1] by a factor 1 + eps i leaves a residual
    # of about 1.7e-38 at eps = 1e-38, above the gate of about 1.4e-38
    rep, _, _ = base_rep
    rs = rep.rs
    g = matrices.identity(rs, rep.dim)
    g[0, 1] = rs.scalar(complex(0.5, 0.25))
    sheared = conjugate(rep, g, lu_inverse(g))
    x2 = np.array(sheared.matrix("X2"), dtype=object)
    x2[0, 1] = x2[0, 1] * rs.scalar(complex(1, eps))
    moved = with_matrices(sheared, X2=x2)
    dense = []
    real_dense = uniqueness._dense_intertwiner

    def spy(rep_a, rep_b, tol):
        dense.append(real_dense(rep_a, rep_b, tol))
        return dense[-1]

    monkeypatch.setattr(uniqueness, "_dense_intertwiner", spy)
    cert = intertwiner_search(rep, moved)
    assert len(dense) == 1 and (cert is not None) == certified
    if certified:
        gate = rs.tolerance.rel_eps * max(rep.largest_entry(), moved.largest_entry())
        assert cert.worst_residual < gate


def test_walk_unreachable_line_goes_dense(base_rep, monkeypatch):
    rep, _, _ = base_rep
    rs, n = rep.rs, rep.dim
    # a cyclic up-ladder whose step from line 1 to line 2 is exactly zero:
    # lines are only reached from line 0 through X1[1, 0]
    x1 = matrices.zeros(rs, n)
    x1[1, 0] = rs.scalar(complex(0.7, 0.2))
    x1[0, 2] = rs.scalar(complex(-0.4, 1.1))
    hand_built = with_matrices(rep, X1=x1, X2=matrices.mat_scale(rs.scalar(2), x1))
    calls = []
    real_dense = uniqueness._dense_intertwiner

    def spy(rep_a, rep_b, tol):
        calls.append((rep_a, rep_b))
        return real_dense(rep_a, rep_b, tol)

    monkeypatch.setattr(uniqueness, "_dense_intertwiner", spy)
    cert = intertwiner_search(hand_built, hand_built)
    assert calls == [(hand_built, hand_built)]
    assert cert is not None and cert.worst_residual < 1e-40


def test_spectrum_repeating_within_tolerance_goes_dense(base_rep, monkeypatch):
    rep, _, _ = base_rep
    rs = rep.rs
    lam = rs.scalar(complex(0.6, 0.8))
    with_repeat = with_matrices(rep, X3=matrices.diagonal(
        [lam, lam * rs.scalar(complex(1, 1e-60)), rs.scalar(complex(-1.2, 0.1))]))
    calls = []

    def spy(rep_a, rep_b, tol):
        calls.append((rep_a, rep_b))
        return None

    monkeypatch.setattr(uniqueness, "_dense_intertwiner", spy)
    assert intertwiner_search(with_repeat, with_repeat) is None
    assert calls == [(with_repeat, with_repeat)]


def _no_nullspace(*_args, **_kwargs):
    raise AssertionError("matrices.nullspace was called")


@pytest.mark.parametrize("surface", [TORUS1, SPHERE4])
def test_experiment_runs_without_nullspace(surface, monkeypatch):
    monkeypatch.setattr(matrices, "nullspace", _no_nullspace)
    report = uniqueness_experiment(ExperimentConfig(surface, 3, 2, seed=11))
    assert report.passed, [r["failures"] for r in report.records]
    assert all(rec["pairs_checked"] == 15 for rec in report.records)


# ---------------------------------------------------------------------------
# gauge orbit
# ---------------------------------------------------------------------------

def test_orbit_size_and_t3(base_rep, rs):
    _, params, inv = base_rep
    variants = gauge_orbit(params)
    assert len(variants) == 2 * rs.N
    for v in variants:
        assert approx_eq(v.t3, inv["t3"])


def test_orbit_reps_pairwise_isomorphic(base_rep):
    rep, params, _ = base_rep
    variants = gauge_orbit(params)
    reps = [build_torus_rep(v) for v in variants]
    for other in reps[1:]:
        cert = intertwiner_search(reps[0], other)
        assert cert is not None and cert.worst_residual < 1e-40


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------

def test_genericity_zero_shadow(rs):
    zero = rs.zero
    report = genericity_check(TORUS1, {"t1": zero, "t2": zero, "t3": zero})
    assert not report.generic
    assert not report.checks["ladder_cycle_nonzero"]
    assert report.exceptional["all_traces_zero"]


def test_genericity_two_shadow(rs):
    two = rs.scalar(2)
    report = genericity_check(TORUS1, {"t1": two, "t2": two, "t3": two})
    assert not report.generic
    assert report.exceptional["all_traces_pm2"]


def test_genericity_isotropic_case(rs):
    # one trace at 2, the others at +/- 2i/sqrt(3) arranged so the product is -8/3
    import mpmath
    from mpmath import mp

    with mp.workprec(rs.precision_bits):
        iso = rs.scalar(mpmath.mpc(0, 2) / mp.sqrt(3))
    report = genericity_check(TORUS1, {"t1": rs.scalar(2), "t2": iso, "t3": iso})
    prod = rs.scalar(2) * iso * iso
    assert approx_eq(prod, rs.scalar(-8) / rs.scalar(3))
    assert report.exceptional["one_pm2_two_isotropic"]


def test_genericity_random_draw_generic(rs):
    rng = random.Random(3)
    inv = sample_torus_shadow(rs, rng)
    report = genericity_check(TORUS1, {"t1": inv["t1"], "t2": inv["t2"], "t3": inv["t3"]})
    assert report.generic
    assert not any(report.exceptional.values())


def test_genericity_sphere(rs):
    rng = random.Random(4)
    inv = sample_sphere_invariants(rs, rng)
    report = genericity_check(SPHERE4, inv)
    assert report.generic
    assert "hits_with_t3" in report.details and "hits_with_minus_t3" in report.details
    degenerate = genericity_check(SPHERE4, dict(inv, t3=rs.scalar(2)))
    assert not degenerate.generic


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def test_experiment_passes_and_is_deterministic():
    config = ExperimentConfig(TORUS1, 3, 3, seed=11, precision_bits=192)
    r1 = uniqueness_experiment(config)
    r2 = uniqueness_experiment(config)
    assert r1.passed
    assert r1.worst_residual < 1e-20
    assert dumps_canonical(r1.to_json()) == dumps_canonical(r2.to_json())


def test_experiment_sphere_smoke():
    config = ExperimentConfig(SPHERE4, 3, 2, seed=5, precision_bits=192)
    report = uniqueness_experiment(config)
    assert report.passed
    for rec in report.records:
        assert rec["variants"] == 6
        assert rec["pairs_checked"] == 15
        assert rec["roundtrip_ok"]


def test_experiment_sphere_avoids_dense_system(monkeypatch):
    # a silent return to the dim^2-unknown system fails here in seconds
    monkeypatch.setattr(uniqueness, "commuting_system", _no_dense_system)
    report = uniqueness_experiment(ExperimentConfig(SPHERE4, 3, 2, seed=5))
    assert report.passed, [r["failures"] for r in report.records]
    assert all(rec["pairs_checked"] == 15 for rec in report.records)


@pytest.mark.parametrize("surface", [TORUS1, SPHERE4])
def test_pair_loop_stays_monomial(surface, monkeypatch):
    # the pair loop starts when the last of the 2N - 1 base searches returns;
    # from there no matmul or general-kernel product runs, and each entry of
    # the divisor monomials M_1 .. M_4 is tested as a divisor once,
    # dim (2N - 2) = 12 tests, not once per composed pair (30)
    calls = Counter()
    real_search = uniqueness.intertwiner_search

    def search(*args, **kwargs):
        cert = real_search(*args, **kwargs)
        calls["search"] += 1
        return cert

    def watched(name, fn):
        def wrapper(*args, **kwargs):
            if calls["search"] == 5:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(uniqueness, "intertwiner_search", search)
    for name in ("matmul", "_raw_product", "intertwining_defects"):
        monkeypatch.setattr(matrices, name, watched(name, getattr(matrices, name)))
    monkeypatch.setattr(BigComplex, "_check_divisor",
                        watched("_check_divisor", BigComplex._check_divisor))
    report = uniqueness_experiment(ExperimentConfig(surface, 3, 1, seed=4))
    assert report.passed and report.records[0]["pairs_checked"] == 15
    # the 10 pairs (i, j) with 0 < i < j < 6 each take one residual call
    assert calls == {"search": 5, "intertwining_defects": 10, "_check_divisor": 12}


@pytest.mark.parametrize("surface", [TORUS1, SPHERE4])
def test_experiment_searches_pairs_of_a_dense_base_certificate(surface, monkeypatch):
    # variant 2's base certificate is taken from the dense system, so the
    # pairs (1, 2), (2, 3), (2, 4) and (2, 5) are searched for, not composed
    calls = []
    real_search = uniqueness.intertwiner_search

    def search(rep_a, rep_b, tol=None):
        calls.append((rep_a, rep_b))
        if len(calls) == 2:
            return uniqueness._dense_intertwiner(rep_a, rep_b, tol)
        return real_search(rep_a, rep_b, tol)

    monkeypatch.setattr(uniqueness, "intertwiner_search", search)
    report = uniqueness_experiment(ExperimentConfig(surface, 3, 1, seed=4))
    assert report.passed, report.records[0]["failures"]
    assert report.records[0]["pairs_checked"] == 15
    two = calls[1][1]
    assert len(calls) == 9
    assert [(a is two, b is two) for a, b in calls[5:]] == [(False, True)] + [(True, False)] * 3


@pytest.mark.parametrize("surface", [TORUS1, SPHERE4])
def test_experiment_forms_no_dense_certificate(surface, monkeypatch):
    # every base certificate keeps the Monomial its walk found, and the
    # experiment never reads its dense matrix, which is formed on first read
    certs, formed = [], Counter()
    real_search, real_formed = uniqueness.intertwiner_search, matrices.Monomial.matrix

    def search(*args, **kwargs):
        certs.append(real_search(*args, **kwargs))
        return certs[-1]

    def monomial_matrix(mono):
        formed["Monomial.matrix"] += 1
        return real_formed(mono)

    monkeypatch.setattr(uniqueness, "intertwiner_search", search)
    monkeypatch.setattr(matrices.Monomial, "matrix", monomial_matrix)
    report = uniqueness_experiment(ExperimentConfig(surface, 3, 1, seed=4))
    assert report.passed and len(certs) == 5 and not formed
    for cert in certs:
        assert isinstance(cert.intertwiner, uniqueness.Monomial)
        first = cert.matrix
        assert cert.matrix is first and not first.flags.writeable
        assert bits(first) == bits(real_formed(cert.intertwiner))
    assert formed == {"Monomial.matrix": 5}


def test_sphere_orbit_repeats_no_work(monkeypatch):
    # one N = 3 sample: the sampler's (Q1, Q2, Q3, Delta') at T_N(p0..p3) and
    # T_N at the puncture roots serve the whole orbit, and (q1, q2, q3, Delta)
    # is taken once for it; the sampler assembles no ladder and each variant
    # assembles one; x3 is solved from t3 once; each variant takes x3^-1,
    # x3^3 and x3^-3 once; and each rep's largest entry for the residual gate
    # is taken once
    calls, inside_variants, powers = Counter(), Counter(), Counter()
    reps, orbit, aux_args, worst_rows = [], [], [], []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def variants(real):
        def wrapper(params):
            before = calls.copy()
            orbit.extend(params)
            reps.extend(real(params))
            inside_variants.update(calls - before)
            return reps
        return wrapper

    def worst(real):
        def wrapper(rows, prec):
            worst_rows.extend(rows)  # held, so no id is reused
            return real(rows, prec)
        return wrapper

    def power(real):
        def wrapper(self, exponent):
            if orbit and not reps:
                powers[self.pair, exponent] += 1
            return real(self, exponent)
        return wrapper

    sphere.puncture_data.cache_clear()
    monkeypatch.setattr(sphere, "ladder_matrices", counting("assembly", sphere.ladder_matrices))
    real_aux = sphere.sphere_aux_invariants

    def aux(*args):
        aux_args.append(args)
        return real_aux(*args)

    monkeypatch.setattr(sphere, "sphere_aux_invariants", counting("aux", aux))
    monkeypatch.setattr(sphere, "chebyshev_at_puncture_roots",
                        counting("roots", sphere.chebyshev_at_puncture_roots))
    monkeypatch.setattr(uniqueness, "solve_chebyshev", counting("x3", uniqueness.solve_chebyshev))
    monkeypatch.setattr(uniqueness, "_build_variant_reps", variants(uniqueness._build_variant_reps))
    monkeypatch.setattr(matrices, "_raw_worst", worst(matrices._raw_worst))
    monkeypatch.setattr(BigComplex, "__pow__", power(BigComplex.__pow__))
    report = uniqueness_experiment(ExperimentConfig(SPHERE4, 3, 1, seed=5))
    assert report.passed
    assert len(reps) == 6
    assert calls["roots"] == 1 and calls["x3"] == 1  # the sampler's x3 is the orbit's
    p = orbit[0].punctures
    assert aux_args == [tuple(chebyshev_eval(3, v) for v in p), p]
    assert inside_variants == {"assembly": 6, "aux": 1}
    x3s = [v.x3.pair for v in orbit]
    assert {key: c for key, c in powers.items() if key[0] in x3s} == {
        (x3, e): 1 for x3 in x3s for e in (-1, 3, -3)}
    converted = Counter(map(id, worst_rows))
    rows = [row for rep in reps for g in SPHERE4.generators for row in rep.image(g).rows]
    assert [converted[id(row)] for row in rows] == [1] * len(rows)


def test_sphere_experiment_passes_past_a_condition_cap(monkeypatch):
    # seed 1's second N = 15 sample certifies variant 0 against variants 15-29
    # (the x3^-1 branch) by monomials whose condition numbers pass 1e12
    conds = []
    real_search = uniqueness.intertwiner_search

    def search(*args, **kwargs):
        cert = real_search(*args, **kwargs)
        conds.append(cert.condition_estimate)
        return cert

    monkeypatch.setattr(uniqueness, "intertwiner_search", search)
    report = uniqueness_experiment(ExperimentConfig(SPHERE4, 15, 2, seed=1))
    assert report.passed, [r["failures"] for r in report.records]
    assert [r["pairs_checked"] for r in report.records] == [435, 435]
    assert sum(c > 1e12 for c in conds[29:]) == 15


@pytest.fixture(scope="module")
def sphere15_pair():
    """Variants 0 and 15 of the second Sphere4 N = 15 sample of seed 1."""
    rs = make_root_system(15, "bigfloat", 256)
    rng = random.Random(1)
    for _ in range(2):
        inv, x3 = uniqueness._sample_sphere(rs, rng)
    params = make_sphere_params(inv["p0"], inv["p1"], inv["p2"], inv["p3"], inv["t1"], inv["t2"], x3)
    variants = gauge_orbit(params)
    return build_sphere_rep_from_params(variants[0]), build_sphere_rep_from_params(variants[15])


def nudged(rep, entry, eps):
    x1 = np.array(rep.matrix("X1"), dtype=object)
    x1[entry] = x1[entry] * rep.rs.scalar(complex(1, eps))
    return with_matrices(rep, X1=x1)


@pytest.mark.parametrize("eps,certified", [(1e-30, False), (1e-45, True)])
def test_backward_error_gate_on_an_ill_conditioned_pair(sphere15_pair, eps, certified):
    # X1's largest entry (about 5.7e15) moved by a factor 1 + eps i puts the
    # rep about 5.7e15 eps from an exact conjugate; the gate is 2^-128 times
    # that largest entry, about 1.7e-23
    rep, other = sphere15_pair
    assert intertwiner_search(rep, other).condition_estimate > 1e14
    x1 = other.matrix("X1")
    n = other.dim
    largest = max(((i, j) for i in range(n) for j in range(n)),
                  key=lambda ij: matrices.entry_magnitude(x1[ij]))
    assert (intertwiner_search(rep, nudged(other, largest, eps)) is not None) == certified


def test_exact_backward_error_settles_what_its_bound_cannot(sphere15_pair, monkeypatch):
    # X1[0, 1] moved by 1e-30: the residual times the condition number, about
    # 2e-17, fails the gate, and the exact backward error, about 5e-30, passes it
    rep, other = sphere15_pair
    exact = []
    real = matrices.monomial_backward_error

    def spy(m, pairs):
        exact.append(real(m, pairs))
        return exact[-1]

    monkeypatch.setattr(matrices, "monomial_backward_error", spy)
    cert = intertwiner_search(rep, nudged(other, (0, 1), 1e-30))
    assert cert is not None
    cut = rep.rs.tolerance.rel_eps * max(rep.largest_entry(), other.largest_entry())
    assert cert.worst_residual * cert.condition_estimate > cut
    assert len(exact) == 1 and 1e-31 < exact[0] < 1e-28


def test_torus_experiment_reads_patterns_once_and_takes_no_svd(monkeypatch):
    # every certificate is monomial, so no condition number comes from LAPACK,
    # and each image's s Id flag is computed at most once per rep however many
    # pairs read it
    flags, reps = Counter(), []
    real_scalar = matrices.Image.scalar.func

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    def scalar(image):
        flags[id(image.rows)] += 1
        return real_scalar(image)

    spy = cached_property(scalar)
    spy.__set_name__(matrices.Image, "scalar")

    def variants(real):
        def wrapper(params):
            reps.extend(real(params))
            return reps
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(matrices.Image, "scalar", spy)
    monkeypatch.setattr(uniqueness, "_build_variant_reps", variants(uniqueness._build_variant_reps))
    report = uniqueness_experiment(ExperimentConfig(TORUS1, 5, 1, seed=1))
    assert report.passed and report.records[0]["pairs_checked"] == 45
    # the flag is computed on first read, and the pairs' reads and one more
    # after the run compute it once
    images = [rep.image(g) for rep in reps for g in TORUS1.generators]
    assert all(flags[id(image.rows)] <= 1 for image in images)
    assert all(flags[id(rep.image("P").rows)] == 1 for rep in reps)
    assert [(image.scalar, flags[id(image.rows)])[1] for image in images] == [1] * len(images)


@pytest.mark.parametrize("surface,n", [(TORUS1, 5), (SPHERE4, 3)])
def test_experiment_forms_walk_columns_once_per_image(monkeypatch, surface, n):
    # every base certificate walks variant 0's images other than X3; their
    # column lists are formed once per image, not once per search
    built, reps, searches = Counter(), [], []
    real = matrices.Image.columns.func

    def columns(image):
        built[id(image)] += 1
        return real(image)

    spy = cached_property(columns)
    spy.__set_name__(matrices.Image, "columns")

    def variants(real_build):
        def wrapper(params):
            reps.extend(real_build(params))
            return reps
        return wrapper

    def search(*args, **kwargs):
        searches.append(args)
        return real_search(*args, **kwargs)

    real_search = uniqueness.intertwiner_search
    monkeypatch.setattr(matrices.Image, "columns", spy)
    monkeypatch.setattr(uniqueness, "_build_variant_reps", variants(uniqueness._build_variant_reps))
    monkeypatch.setattr(uniqueness, "intertwiner_search", search)
    report = uniqueness_experiment(ExperimentConfig(surface, n, 1, seed=1))
    assert report.passed and len(searches) == 2 * n - 1
    walked = [id(reps[0].image(g)) for g in surface.x_generators if g != "X3"]
    assert len(walked) == 2 and built == Counter(walked)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
       rel_eps=st.sampled_from([None, 1e-20, 1e-3]))
def test_spectrum_screen_keeps_every_partner(rs, seed, n, rel_eps):
    # partners equal, partners a fraction of the cut apart or just beyond it,
    # and values 10^+-3 in size, against the plain dim^2 approx_eq matching
    tol = None if rel_eps is None else Tolerance(rel_eps)
    eps = (tol or rs.tolerance).rel_eps
    rng = random.Random(seed)
    lam_a = [rs.scalar(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * 10.0 ** rng.randint(-3, 3))
             for _ in range(n)]
    lam_b = []
    for _ in range(n):
        x = rng.choice(lam_a)
        kind = rng.randrange(3)
        if kind == 0:
            lam_b.append(x)
        elif kind == 1:
            with mp.workprec(rs.precision_bits):
                mag = max(mp.mpf(1), abs(x.mpc()))
                step = mp.mpf(eps) * mag * rng.choice([0.5, 0.99, 1.01, 2]) * mp.expjpi(rng.random())
            lam_b.append(x + rs.scalar(step))
        else:
            lam_b.append(rs.scalar(complex(rng.uniform(-3, 3), rng.uniform(-3, 3))))
    want = [[j for j, y in enumerate(lam_b) if approx_eq(y, x, tol)] for x in lam_a]
    assert uniqueness._partners(lam_a, lam_b, tol) == want


def test_spectrum_screen_passes_values_beyond_floats(rs):
    huge = from_pair(rs, (from_man_exp(3, 1100), fzero))
    nudged = huge * rs.scalar(complex(1, 1e-50))
    lam_a, lam_b = [huge, rs.one], [rs.one, nudged]
    assert uniqueness._partners(lam_a, lam_b, None) == [[1], [0]]
