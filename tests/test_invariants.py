import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from skeinrep import invariants, matrices, sphere, uniqueness
from skeinrep.chebyshev import chebyshev_eval
from skeinrep.errors import NonScalarChebyshev
from skeinrep.expressions import evaluate, parse
from skeinrep.invariants import (_SUPPORT_MARGIN, _support_commutant, commutant_dimension,
                                 commuting_system, extract_invariants, verify_relations)
from skeinrep.representation import Representation, assemble
from skeinrep.scalars import approx_eq, make_root_system
from skeinrep.serialize import rep_to_json
from skeinrep.sphere import build_sphere_rep, build_sphere_rep_with_u, make_sphere_params, small_sphere_rep
from skeinrep.surfaces import TORUS1
from skeinrep.torus import build_torus_rep, torus_params_exact, torus_params_from_shadow
from skeinrep.uniqueness import intertwiner_residuals, sample_sphere_invariants, sample_torus_shadow
from test_uniqueness import lu_inverse


@pytest.fixture(scope="module")
def rs():
    return make_root_system(3, "bigfloat", 256)


@pytest.fixture(scope="module")
def torus_rep(rs):
    rng = random.Random(1)
    inv = sample_torus_shadow(rs, rng)
    return build_torus_rep(torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"])), inv


def sphere_rep(rs, seed=2):
    rng = random.Random(seed)
    p = [rs.scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(4)]
    params = make_sphere_params(*p, rs.zero, rs.zero, rs.scalar(complex(1.25, 0.35)))
    return build_sphere_rep_with_u(params, rs.scalar(complex(0.8, 0.3)))


def bits(mat):
    return [e.pair for e in mat.flat]


def perturbed(rep, name, eps=1e-3):
    mats = {}
    for g, m in rep.matrices.items():
        m2 = np.array(m, dtype=object)
        if g == name:
            m2[0, 1 % rep.dim] = m2[0, 1 % rep.dim] + rep.rs.scalar(complex(eps, 0))
        mats[g] = matrices.freeze(m2)
    return Representation(rep.surface, rep.rs, rep.dim, mats, rep.puncture_scalars, {})


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_constructed_rep_passes(torus_rep):
    rep, _ = torus_rep
    report = verify_relations(rep)
    assert report.passed
    assert report.commutant_dim == 1
    assert all(v < 1e-60 for v in report.relation_residuals.values())


def test_perturbation_detected(torus_rep):
    rep, _ = torus_rep
    report = verify_relations(perturbed(rep, "X1"))
    assert not report.passed
    assert any(v > report.tolerance for v in report.relation_residuals.values())


def test_small_sphere_vacuous_relations(rs):
    rep = small_sphere_rep([rs.scalar(2), rs.scalar(3)])
    report = verify_relations(rep)
    assert report.passed
    assert report.relation_residuals == {}
    assert report.commutant_dim == 1


def test_report_summary_format(torus_rep):
    rep, _ = torus_rep
    text = verify_relations(rep).summary()
    assert "PASS" in text and "Torus1" in text


def test_sphere_rep_passes(rs):
    report = verify_relations(sphere_rep(rs))
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# invariant extraction
# ---------------------------------------------------------------------------

def test_extract_roundtrip(torus_rep):
    rep, inv = torus_rep
    shadow = extract_invariants(rep)
    assert approx_eq(shadow.t("X1"), inv["t1"])
    assert approx_eq(shadow.t("X2"), inv["t2"])
    assert approx_eq(shadow.t("X3"), inv["t3"])
    assert approx_eq(shadow.puncture_values["P"], inv["p"])
    assert shadow.compatibility_ok
    # stored traces follow the minus convention
    assert approx_eq(shadow.traces["X1"], -inv["t1"])


def test_sphere_extract_reads_the_kept_puncture_shadow(rs, monkeypatch):
    # (Q1, Q2, Q3, Delta') at T_N of the read puncture values are the ones
    # sphere.puncture_data keeps, bit for bit, so extraction takes neither
    # a puncture T_N nor the aux combinations again
    inv = sample_sphere_invariants(rs, random.Random(4))
    rep = build_sphere_rep(*(inv[k] for k in ("p0", "p1", "p2", "p3", "t1", "t2", "t3")))
    p_vals = [matrices.read_scalar_matrix(rep.matrix(p), rs) for p in rep.surface.punctures]
    want = sphere.sphere_aux_invariants(*(chebyshev_eval(rs.N, p) for p in p_vals))
    got = sphere.puncture_data(rs, *p_vals).shadow_aux
    assert [z.pair for z in got] == [z.pair for z in want]
    calls = []
    monkeypatch.setattr(sphere, "sphere_aux_invariants", lambda *args: calls.append("aux"))
    for module in (sphere, invariants):
        monkeypatch.setattr(module, "chebyshev_eval", lambda *args: calls.append("T_N"))
    assert extract_invariants(rep).compatibility_ok
    assert calls == []


def test_extract_dimension_one():
    rs1 = make_root_system(1, "bigfloat", 128)
    t = [rs1.scalar(complex(0.3, 0.1)), rs1.scalar(complex(-0.4, 0.2)), rs1.scalar(complex(1.1, 0.6))]
    from skeinrep.torus import puncture_chebyshev_value

    p = puncture_chebyshev_value(*t)
    mats = {f"X{i+1}": matrices.scalar_matrix(t[i], 1) for i in range(3)}
    rep = assemble(TORUS1, rs1, 1, mats, {"P": p})
    shadow = extract_invariants(rep)
    for i in range(3):
        assert approx_eq(shadow.traces[f"X{i+1}"], -t[i])
    assert shadow.compatibility_ok


def test_extract_exact_backend():
    rs = make_root_system(3)
    params = torus_params_exact(rs.A + 1, rs.A - 2, rs.scalar(Fraction(3, 2)))
    rep = build_torus_rep(params)
    shadow = extract_invariants(rep)
    assert shadow.t("X1") == params.t1
    assert shadow.compatibility_ok


def direct_sum(rep, other=None):
    rs = rep.rs
    n = rep.dim
    other = rep if other is None else other
    mats = {}
    for g, m in rep.matrices.items():
        big = matrices.zeros(rs, 2 * n)
        for i in range(n):
            for j in range(n):
                big[i, j] = m[i, j]
                big[n + i, n + j] = other.matrices[g][i, j]
        mats[g] = matrices.freeze(big)
    return Representation(rep.surface, rs, 2 * n, mats, rep.puncture_scalars, {})


def test_nonscalar_chebyshev_on_mixed_sum(rs, torus_rep):
    # direct sum of two non-isomorphic representations: T_N of X3 takes two
    # different scalar blocks, so extraction must refuse
    rep, inv = torus_rep
    rng = random.Random(3)
    other_inv = sample_torus_shadow(rs, rng)
    other = build_torus_rep(torus_params_from_shadow(
        other_inv["t1"], other_inv["t2"], other_inv["t3"], other_inv["p"]))
    n = rep.dim
    mats = {}
    for g in rep.matrices:
        big = matrices.zeros(rs, 2 * n)
        for i in range(n):
            for j in range(n):
                big[i, j] = rep.matrices[g][i, j]
                big[n + i, n + j] = other.matrices[g][i, j]
        mats[g] = matrices.freeze(big)
    glued = Representation(rep.surface, rs, 2 * n, mats, rep.puncture_scalars, {})
    with pytest.raises(NonScalarChebyshev):
        extract_invariants(glued)


# ---------------------------------------------------------------------------
# one T_N per generator per representation
# ---------------------------------------------------------------------------

def counted_chebyshev(monkeypatch):
    """Record the kernel rows of the argument of every matrix T_N evaluation."""
    original = matrices.chebyshev_rows
    args = []

    def count(n, rs, rows):
        args.append(rows)
        return original(n, rs, rows)

    monkeypatch.setattr(matrices, "chebyshev_rows", count)
    return args


def fresh_torus_rep(rs, seed=1):
    inv = sample_torus_shadow(rs, random.Random(seed))
    return build_torus_rep(torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"]))


@pytest.mark.parametrize("kind", ["torus1", "sphere4"])
def test_verify_then_extract_evaluate_each_generator_once(rs, monkeypatch, kind):
    rep = fresh_torus_rep(rs) if kind == "torus1" else sphere_rep(rs)
    args = counted_chebyshev(monkeypatch)
    report = verify_relations(rep)
    extract_invariants(rep)
    verify_relations(rep)
    gens = rep.surface.x_generators
    assert report.passed
    assert len(args) == len(gens)
    assert all(a is rep.image(g).rows for a, g in zip(args, gens))


def test_replaced_rep_evaluates_its_own_chebyshev(rs, monkeypatch):
    rep = fresh_torus_rep(rs)
    extract_invariants(rep)
    args = counted_chebyshev(monkeypatch)
    copy = dataclasses.replace(rep, matrices=dict(rep.matrices))
    extract_invariants(copy)
    assert len(args) == len(rep.surface.x_generators)
    moved = perturbed(rep, "X1")
    moved_copy = dataclasses.replace(rep, matrices=moved.matrices)
    assert bits(moved_copy.chebyshev("X1")) == bits(chebyshev_eval(rs.N, moved.matrix("X1")))
    assert bits(moved_copy.chebyshev("X1")) != bits(rep.chebyshev("X1"))


def test_relation_defect_trees_are_built_once_per_root_system(monkeypatch):
    from skeinrep import expressions

    builds = []
    original = expressions._relation_defect_trees

    def counting(surface, rs):
        builds.append((surface, rs))
        return original(surface, rs)

    monkeypatch.setattr(expressions, "_relation_defect_trees", counting)
    fresh = make_root_system(3, "bigfloat", 256)
    rep = fresh_torus_rep(fresh)
    first, second = verify_relations(rep), verify_relations(rep)
    assert builds == [(rep.surface, fresh)]
    assert first.relation_residuals == second.relation_residuals
    # each call hands out a new dict, so a caller's edit reaches no kept tree
    defects = expressions.relation_defects(rep.surface, fresh)
    defects.clear()
    assert expressions.relation_defects(rep.surface, fresh).keys() == first.relation_residuals.keys()
    assert len(builds) == 1


def counted_unpacks(monkeypatch):
    """Record the argument of every bigfloat kernel unpack."""
    original = matrices._raw_rows
    args = []

    def count(mat):
        args.append(mat)
        return original(mat)

    monkeypatch.setattr(matrices, "_raw_rows", count)
    return args


def test_rows_memo_reads_frozen_images_once(rs, monkeypatch):
    rep = fresh_torus_rep(rs)
    args = counted_unpacks(monkeypatch)
    first = rep.image("X1").rows
    assert rep.image("X1").rows is first
    intertwiner_residuals(matrices.identity(rs, rep.dim), rep, rep)
    intertwiner_residuals(matrices.identity(rs, rep.dim), rep, rep)
    evaluate(parse("X1 X2", TORUS1, rs), rep)
    reads = Counter(id(a) for a in args)
    assert [reads[id(rep.matrix(g))] for g in rep.surface.generators] == [1] * len(rep.matrices)
    assert first == matrices.kernel(rs).unpack(rep.matrix("X1"))
    copy = dataclasses.replace(rep, matrices=dict(rep.matrices))
    assert copy.image("X1").rows == first and copy.image("X1").rows is not first


def loose_reps(rs):
    """Yield a torus rep, the writeable arrays a copy of it is built from, and
    that copy: once from the arrays and once from frozen views of them."""
    rep = fresh_torus_rep(rs)
    for view in (False, True):
        writeable = {g: np.array(m, dtype=object) for g, m in rep.matrices.items()}
        images = {g: matrices.freeze(m.view()) if view else m for g, m in writeable.items()}
        yield rep, writeable, Representation(rep.surface, rs, rep.dim, images, rep.puncture_scalars, {})


def bump(writeable, rs):
    for m in writeable.values():
        m[0, 0] = m[0, 0] + rs.one


def test_chebyshev_memo_is_frozen_and_skips_writeable_images(rs, monkeypatch):
    # a rep holds frozen copies of the caller's writeable arrays, so T_N is
    # taken once, is frozen, and does not follow later changes to the arrays
    args = counted_chebyshev(monkeypatch)
    for rep, writeable, loose in loose_reps(rs):
        args.clear()
        first = loose.chebyshev("X1")
        with pytest.raises(ValueError):
            first[0, 0] = rs.zero
        bump(writeable, rs)
        assert loose.chebyshev("X1") is first and len(args) == 1
        assert bits(first) == bits(rep.chebyshev("X1")) == bits(chebyshev_eval(rs.N, loose.matrix("X1")))


@pytest.mark.parametrize("n", [1, 3])
def test_chebyshev_leaves_writeable_images_writeable(n):
    rs = make_root_system(n, "bigfloat", 256)
    for rep, writeable, loose in loose_reps(rs):
        t_n = loose.chebyshev("X1")
        assert all(m.flags.writeable for m in writeable.values())
        assert not any(m.flags.writeable for m in loose.matrices.values())
        bump(writeable, rs)
        assert [e.pair for e in t_n.flat] == [e.pair for e in rep.chebyshev("X1").flat]
        assert [bits(loose.matrix(g)) for g in rep.surface.generators] == \
            [bits(rep.matrix(g)) for g in rep.surface.generators]


def test_rows_memo_skips_writeable_images(rs, monkeypatch):
    args = counted_unpacks(monkeypatch)
    for rep, writeable, loose in loose_reps(rs):
        args.clear()
        first = loose.image("X1").rows
        bump(writeable, rs)
        assert loose.image("X1").rows is first and len(args) == 1
        k = matrices.kernel(rs)
        assert first == k.unpack(rep.matrix("X1")) == k.unpack(loose.matrix("X1"))


def test_puncture_deviations_keep_their_float_bits(rs):
    rep = sphere_rep(rs)
    p = rep.puncture_scalars["P1"]
    moved = matrices.scalar_matrix(p, rep.dim)
    moved[0, 0] = p + rs.scalar(complex(3e-40, -1e-40))
    moved[1, 2] = rs.scalar(complex(0, 2e-41))
    mats = dict(rep.matrices, P1=matrices.freeze(moved))
    rep = Representation(rep.surface, rs, rep.dim, mats, rep.puncture_scalars, {})
    report = verify_relations(rep)
    for name in rep.surface.punctures:
        target = matrices.scalar_matrix(rep.puncture_scalars[name], rep.dim)
        assert report.puncture_deviations[name] == matrices.residual_report(rep.matrix(name) - target)[1]
    assert report.puncture_deviations["P1"] > 0.0 and report.checks["P1 scalar"]


def test_chebyshev_memo_is_not_a_field(rs):
    rep = fresh_torus_rep(rs)
    blank = dataclasses.replace(rep)
    before = (repr(rep), rep_to_json(rep))
    extract_invariants(rep)
    assert rep == blank
    assert (repr(rep), rep_to_json(rep)) == before == (repr(blank), rep_to_json(blank))
    assert "chebyshev" not in repr(rep) and "chebyshev" not in json.dumps(rep_to_json(rep))


# ---------------------------------------------------------------------------
# commutant
# ---------------------------------------------------------------------------

def test_representation_matrices_frozen(torus_rep):
    rep, _ = torus_rep
    with pytest.raises(ValueError):
        rep.matrix("X1")[0, 0] = rep.rs.zero


def test_commutant_generic_is_one(torus_rep):
    rep, _ = torus_rep
    assert commutant_dimension(rep) == 1


def test_commutant_direct_sum_at_least_four(torus_rep):
    rep, _ = torus_rep
    assert commutant_dimension(direct_sum(rep)) >= 4


def test_dense_search_combines_nullvectors_of_a_reducible_rep(torus_rep, monkeypatch):
    # rep + rep against itself: the commuting system has nullity 4 and each of
    # its orthonormal nullvectors alone is singular, so the search tries one
    # fixed combination of them, which is invertible and certified
    rep, _ = torus_rep
    both = direct_sum(rep)
    tried = []
    real = uniqueness._certificate

    def spy(m, *args):
        tried.append(real(m, *args))
        return tried[-1]

    monkeypatch.setattr(uniqueness, "_certificate", spy)
    cert = uniqueness.intertwiner_search(both, both)
    assert len(tried) == 5 and tried[:4] == [None] * 4
    assert cert is tried[4] and not isinstance(cert.intertwiner, matrices.Monomial)
    assert cert.condition_estimate < 10 and cert.worst_residual < 1e-70


def test_dense_search_combines_exact_nullvectors(monkeypatch):
    # the same fallback in the exact backend, whose scalars are ints and
    # fractions: V + V against itself is certified with zero residuals, and
    # V + V against V + W, W not isomorphic to V with the same X3 spectrum
    # and puncture scalar, has only singular intertwiners and gives None
    rs = make_root_system(3)
    v = build_torus_rep(torus_params_exact(rs.A + 1, rs.A - 2, rs.scalar(Fraction(3, 2))))
    w = build_torus_rep(torus_params_exact(rs.A + 1, rs.A - 2, rs.scalar(2)))
    assert uniqueness.intertwiner_search(v, w) is None
    tried = []
    real = uniqueness._certificate

    def spy(m, *args):
        tried.append(real(m, *args))
        return tried[-1]

    monkeypatch.setattr(uniqueness, "_certificate", spy)
    cert = uniqueness.intertwiner_search(direct_sum(v), direct_sum(v))
    assert len(tried) == 5 and tried[:4] == [None] * 4 and cert is tried[4]
    assert cert.condition_estimate < 10 and cert.worst_residual == 0.0
    tried.clear()
    assert uniqueness.intertwiner_search(direct_sum(v), direct_sum(v, w)) is None
    assert tried == [None] * 3


def test_commutant_reads_puncture_images(torus_rep):
    # rep + rep with P acting by p on one summand and 2p on the other: the
    # stored scalar p does not describe the image, and the commutant is the
    # block diagonals, not all of M_2
    rep, _ = torus_rep
    rs, n = rep.rs, rep.dim
    p = rep.puncture_scalars["P"]
    both = direct_sum(rep)
    split = matrices.freeze(matrices.diagonal([p] * n + [p * rs.scalar(2)] * n))
    rep2 = dataclasses.replace(both, matrices=dict(both.matrices, P=split))
    assert not verify_relations(rep2).checks["P scalar"]
    assert commutant_dimension(rep2) == 2
    assert commutant_dimension(both) == 4
    # with X3 simple, the support walk reads an off-diagonal entry of P too
    isolated = rep
    for name in ("X1", "X2"):
        for k in range(1, n):
            isolated = with_entry(with_entry(isolated, name, (0, k), rs.zero), name, (k, 0), rs.zero)
    joined = with_entry(isolated, "P", (0, 1), rs.one)
    assert _support_commutant(isolated) == _nullspace_commutant(isolated) == 2
    assert _support_commutant(joined) == _nullspace_commutant(joined) == 1


def test_commutant_dimension_one_rep(rs):
    rep = small_sphere_rep([rs.scalar(5)])
    assert commutant_dimension(rep) == 1


def test_commutant_exact_backend():
    rs = make_root_system(3)
    params = torus_params_exact(rs.A + 1, rs.A - 2, rs.scalar(Fraction(3, 2)))
    rep = build_torus_rep(params)
    assert commutant_dimension(rep) == 1


def test_commutant_basis_change_invariant(rs, torus_rep):
    rep, _ = torus_rep
    rng = random.Random(4)
    n = rep.dim
    g = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            g[i, j] = rs.scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    g_inv = lu_inverse(g)
    mats = {}
    for name, m in rep.matrices.items():
        mats[name] = matrices.freeze(matrices.matmul(matrices.matmul(g, m), g_inv))
    conjugated = Representation(rep.surface, rs, n, mats, rep.puncture_scalars, {})
    assert commutant_dimension(conjugated) == 1


def _nullspace_commutant(rep):
    system = commuting_system(rep, rep)
    return matrices.nullspace(system, None, want_vectors=False)[0]


def test_support_commutant_matches_nullspace(torus_rep, rs):
    rep, _ = torus_rep
    exact = build_torus_rep(torus_params_exact(*(make_root_system(3).scalar(v) for v in (2, 1, 3))))
    for r in (rep, sphere_rep(rs), exact):
        assert _support_commutant(r) == _nullspace_commutant(r) == 1


def _dense_clear(e, cut):
    """True for a nonzero at least ``cut`` in magnitude, False for an exact zero, else None."""
    if cut is None:
        return not e.is_zero()
    if not (e.re or e.im):
        return False
    return True if abs(complex(float(e.re), float(e.im))) >= cut else None


def dense_support_commutant(rep):
    """The support-graph count as a scan of every entry of every image, cut by the dense float maximum."""
    gens = rep.surface.x_generators
    if "X3" not in gens:
        return None
    n = rep.dim
    cut = None
    if rep.rs.backend != "exact":
        cut = _SUPPORT_MARGIN * max(float(np.abs(matrices.to_complex128(rep.matrix(g))).max()) for g in gens)
        if not cut > 0.0:
            return None
    x3 = rep.matrix("X3")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if any(_dense_clear(x3[i, j], cut) is not False for i, j in pairs):
        return None
    if any(_dense_clear(x3[i, i] - x3[j, j], cut) is not True for i, j in pairs if i < j):
        return None
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for image in [rep.matrix(g) for g in rep.surface.generators if g != "X3"]:
        for i, j in pairs:
            state = _dense_clear(image[i, j], cut)
            if state is None:
                return None
            if state:
                root[find(i)] = find(j)
    return sum(1 for i in range(n) if find(i) == i)


def with_entry(rep, name, ij, value):
    image = np.array(rep.matrix(name), dtype=object)
    image[ij] = value
    return dataclasses.replace(rep, matrices=dict(rep.matrices, **{name: image}))


def support_cases(rep):
    """``rep`` with off-diagonal entries of X1 and X2 zeroed exactly (one at a
    time, and all of line 0's), or placed just above or just below the support
    margin (where they were nonzero, and where they were exact zeros), and with
    X3 moved off the diagonal or an eigenvalue gap placed at the margin."""
    rs, n = rep.rs, rep.dim
    yield rep
    bigfloat = rs.backend != "exact"
    if bigfloat:
        gens = rep.surface.x_generators
        cut = _SUPPORT_MARGIN * max(float(np.abs(matrices.to_complex128(rep.matrix(g))).max()) for g in gens)
    for name in ("X1", "X2"):
        image = rep.matrix(name)
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        nonzero = [ij for ij in off if not image[ij].is_zero()]
        zero = [ij for ij in off if image[ij].is_zero()]
        for ij in nonzero[:2] + nonzero[-1:]:
            yield with_entry(rep, name, ij, rs.zero)
        if bigfloat:
            for ij in nonzero[:1] + zero[:1]:
                for factor in (1 + 1e-6, 1 - 1e-6, 1e3):
                    yield with_entry(rep, name, ij, rs.scalar(complex(0.6, -0.8) * cut * factor))
    isolated = rep  # line 0 cut off from the others
    for name in ("X1", "X2"):
        for k in range(1, n):
            isolated = with_entry(with_entry(isolated, name, (0, k), rs.zero), name, (k, 0), rs.zero)
    yield isolated
    x3 = rep.matrix("X3")
    if n > 1:
        yield with_entry(rep, "X3", (0, n - 1), rs.one)
        if bigfloat:
            for factor in (1 + 1e-6, 1 - 1e-6):
                yield with_entry(rep, "X3", (1, 1), x3[0, 0] + rs.scalar(complex(0.8, 0.6) * cut * factor))


def test_support_commutant_matches_dense_scan(torus_rep, rs):
    # the O(nnz) walk of the kept patterns against every entry scanned,
    # on ladders, their direct sum, a conjugate and an exact ladder
    exact = build_torus_rep(torus_params_exact(*(make_root_system(3).scalar(v) for v in (2, 1, 3))))
    bases = [torus_rep[0], fresh_torus_rep(make_root_system(5, "bigfloat", 256), seed=2),
             sphere_rep(rs), sphere_rep(make_root_system(5, "bigfloat", 256), seed=3), exact]
    g = matrices.identity(rs, 3)
    g[0, 1] = rs.scalar(complex(0.5, 0.25))
    g_inv = lu_inverse(g)
    conjugated = Representation(torus_rep[0].surface, rs, 3, {
        name: matrices.freeze(matrices.matmul(matrices.matmul(g, m), g_inv))
        for name, m in torus_rep[0].matrices.items()}, torus_rep[0].puncture_scalars, {})
    found = Counter()
    for base in bases:
        for rep in support_cases(base):
            got = _support_commutant(rep)
            assert got == dense_support_commutant(rep)
            found[got] += 1
    for rep in (direct_sum(torus_rep[0]), conjugated):
        assert _support_commutant(rep) is dense_support_commutant(rep) is None
    assert found[None] and found[1] and set(found) - {None, 1}, found


def test_verify_skips_commuting_system_on_ladders(torus_rep, rs, monkeypatch):
    def no_system(*_args):
        raise AssertionError("the commuting system was built")

    monkeypatch.setattr(invariants, "commuting_system", no_system)
    for rep in (torus_rep[0], sphere_rep(rs)):
        assert verify_relations(rep).commutant_dim == 1


def test_support_commutant_declines(torus_rep, rs):
    rep, _ = torus_rep
    # a repeated X3 spectrum
    assert _support_commutant(direct_sum(rep)) is None
    # a nonzero off-diagonal entry far below _SUPPORT_MARGIN, left to the SVD
    x1 = matrices.zeros(rs, 3)
    x1[1, 0], x1[2, 1], x1[0, 2] = rs.one, rs.scalar(1e-20), rs.one
    mats = dict(rep.matrices, X1=matrices.freeze(x1),
                X2=matrices.freeze(matrices.diagonal([rs.one, rs.scalar(2), rs.scalar(3)])))
    near_cut = Representation(rep.surface, rs, 3, mats, rep.puncture_scalars, {})
    assert _support_commutant(near_cut) is None
    # X3 no longer diagonal
    g = matrices.identity(rs, 3)
    g[0, 1] = rs.scalar(complex(0.5, 0.25))
    g_inv = lu_inverse(g)
    conj = {name: matrices.freeze(matrices.matmul(matrices.matmul(g, m), g_inv))
            for name, m in rep.matrices.items()}
    conjugated = Representation(rep.surface, rs, 3, conj, rep.puncture_scalars, {})
    assert _support_commutant(conjugated) is None
    assert commutant_dimension(conjugated) == 1
