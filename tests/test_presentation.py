"""The presentation table of `surfaces` against hand-written references.

The rewrite rules and the relation defect trees derive from one table
(`surfaces.RELATIONS`, the weight and the puncture pairs).  The references
below are those objects written out by hand, rule by rule and term by term;
every derived coefficient and literal must equal its reference exactly.  The
exact-identity test reads no reference: it checks each derived rule as a
matrix identity in exact representations.
"""

import random
from fractions import Fraction

import pytest

from skeinrep import matrices
from skeinrep.expressions import (Gen, Lit, Power, Prod, RewriteSystem, SkeinExpr, Sum, evaluate,
                                  puncture_element, relation_defects)
from skeinrep.scalars import CyclotomicNumber, make_root_system
from skeinrep.sphere import build_sphere_rep_with_u, make_sphere_params
from skeinrep.surfaces import SPHERE4, TORUS0, TORUS1, sphere_k
from skeinrep.torus import build_torus_rep, torus_params_exact

SURFACES = [TORUS1, TORUS0, SPHERE4, sphere_k(0), sphere_k(3)]


def _pvec(surface, *names):
    vec = [0] * len(surface.punctures)
    for n in names:
        vec[surface.punctures.index(n)] += 1
    return tuple(vec)


def reference_rules(surface, rs):
    if surface.kind in ("torus1", "torus0"):
        a2 = rs.a_pow(2)
        gap = rs.a_pow(2) - rs.a_pow(-2)
        z = _pvec(surface)
        return {
            ("X2", "X1"): [(a2, ("X1", "X2"), z), (-rs.A * gap, ("X3",), z)],
            ("X3", "X2"): [(a2, ("X2", "X3"), z), (-rs.A * gap, ("X1",), z)],
            ("X3", "X1"): [(rs.a_pow(-2), ("X1", "X3"), z), (rs.a_pow(-1) * gap, ("X2",), z)],
        }
    if surface.kind == "sphere4":
        a4 = rs.a_pow(4)
        gap4 = rs.a_pow(4) - rs.a_pow(-4)
        gap2 = rs.a_pow(2) - rs.a_pow(-2)
        c_hi = -rs.a_pow(2) * gap2
        c_lo = rs.a_pow(-2) * gap2
        z = _pvec(surface)
        return {
            ("X2", "X1"): [
                (a4, ("X1", "X2"), z),
                (-rs.a_pow(2) * gap4, ("X3",), z),
                (c_hi, (), _pvec(surface, "P0", "P3")),
                (c_hi, (), _pvec(surface, "P1", "P2")),
            ],
            ("X3", "X2"): [
                (a4, ("X2", "X3"), z),
                (-rs.a_pow(2) * gap4, ("X1",), z),
                (c_hi, (), _pvec(surface, "P0", "P1")),
                (c_hi, (), _pvec(surface, "P2", "P3")),
            ],
            ("X3", "X1"): [
                (rs.a_pow(-4), ("X1", "X3"), z),
                (rs.a_pow(-2) * gap4, ("X2",), z),
                (c_lo, (), _pvec(surface, "P0", "P2")),
                (c_lo, (), _pvec(surface, "P1", "P3")),
            ],
        }
    return {}


def _torus_puncture_polynomial(rs):
    return Sum((
        Prod((Lit(rs.A), Gen("X1"), Gen("X2"), Gen("X3"))),
        Prod((Lit(-rs.a_pow(2)), Power(Gen("X1"), 2))),
        Prod((Lit(-rs.a_pow(-2)), Power(Gen("X2"), 2))),
        Prod((Lit(-rs.a_pow(2)), Power(Gen("X3"), 2))),
        Lit(rs.a_pow(2) + rs.a_pow(-2)),
    ))


Q1, Q2, Q3 = (
    Sum((Prod((Gen("P0"), Gen("P1"))), Prod((Gen("P2"), Gen("P3"))))),
    Sum((Prod((Gen("P0"), Gen("P2"))), Prod((Gen("P1"), Gen("P3"))))),
    Sum((Prod((Gen("P0"), Gen("P3"))), Prod((Gen("P1"), Gen("P2"))))),
)


def _sphere_relation_defect(rs):
    square = rs.a_pow(2) + rs.a_pow(-2)
    return Sum((
        Prod((Lit(rs.a_pow(2)), Gen("X1"), Gen("X2"), Gen("X3"))),
        Prod((Lit(-rs.a_pow(4)), Power(Gen("X1"), 2))),
        Prod((Lit(-rs.a_pow(-4)), Power(Gen("X2"), 2))),
        Prod((Lit(-rs.a_pow(4)), Power(Gen("X3"), 2))),
        Prod((Lit(-rs.a_pow(2)), Q1, Gen("X1"))),
        Prod((Lit(-rs.a_pow(-2)), Q2, Gen("X2"))),
        Prod((Lit(-rs.a_pow(2)), Q3, Gen("X3"))),
        Lit(square * square),
        Prod((Lit(rs.scalar(-1)), Gen("P0"), Gen("P1"), Gen("P2"), Gen("P3"))),
        Prod((Lit(rs.scalar(-1)), Power(Gen("P0"), 2))),
        Prod((Lit(rs.scalar(-1)), Power(Gen("P1"), 2))),
        Prod((Lit(rs.scalar(-1)), Power(Gen("P2"), 2))),
        Prod((Lit(rs.scalar(-1)), Power(Gen("P3"), 2))),
    ))


def _qcomm(rs, w, gl, gr, out, central=None):
    terms = [
        Prod((Lit(rs.a_pow(w)), Gen(gl), Gen(gr))),
        Prod((Lit(-rs.a_pow(-w)), Gen(gr), Gen(gl))),
        Prod((Lit(-(rs.a_pow(2 * w) - rs.a_pow(-2 * w))), Gen(out))),
    ]
    if central is not None:
        terms.append(Prod((Lit(-(rs.a_pow(w) - rs.a_pow(-w))), central)))
    return Sum(tuple(terms))


def reference_defects(surface, rs):
    defects = {}
    if surface.kind in ("torus1", "torus0"):
        defects["qcomm_12"] = _qcomm(rs, 1, "X1", "X2", "X3")
        defects["qcomm_23"] = _qcomm(rs, 1, "X2", "X3", "X1")
        defects["qcomm_31"] = _qcomm(rs, 1, "X3", "X1", "X2")
        if surface.kind == "torus1":
            defects["puncture"] = Sum((_torus_puncture_polynomial(rs),
                                       Prod((Lit(rs.scalar(-1)), Gen("P")))))
        else:
            defects["closed_puncture"] = Sum((_torus_puncture_polynomial(rs),
                                              Lit(rs.a_pow(2) + rs.a_pow(-2))))
    elif surface.kind == "sphere4":
        defects["qcomm_12"] = _qcomm(rs, 2, "X1", "X2", "X3", Q3)
        defects["qcomm_23"] = _qcomm(rs, 2, "X2", "X3", "X1", Q1)
        defects["qcomm_31"] = _qcomm(rs, 2, "X3", "X1", "X2", Q2)
        defects["cubic"] = _sphere_relation_defect(rs)
        for p in surface.punctures:
            for x in surface.x_generators:
                defects[f"central_{p}_{x}"] = Sum((Prod((Gen(p), Gen(x))),
                                                   Prod((Lit(rs.scalar(-1)), Gen(x), Gen(p)))))
    return defects


def reference_puncture_element(surface, rs):
    return {"torus1": _torus_puncture_polynomial, "sphere4": _sphere_relation_defect}[surface.kind](rs)


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
@pytest.mark.parametrize("N", [1, 3, 5, 7])
@pytest.mark.parametrize("surface", SURFACES, ids=str)
def test_derived_presentation_equals_the_written_one(surface, N, backend):
    rs = make_root_system(N, backend, 256 if backend == "bigfloat" else None)
    rules, want = RewriteSystem(surface, rs).rules, reference_rules(surface, rs)
    assert list(rules) == list(want)
    for key, outputs in want.items():
        got = rules[key]
        assert [(word, pvec) for _, word, pvec in got] == [(word, pvec) for _, word, pvec in outputs]
        assert all(c == c_want for (c, _, _), (c_want, _, _) in zip(got, outputs))
    defects = relation_defects(surface, rs)
    ref = reference_defects(surface, rs)
    assert list(defects) == list(ref)
    assert all(defects[name] == SkeinExpr(surface, rs, node) for name, node in ref.items())
    if surface.kind in ("torus1", "sphere4"):
        assert puncture_element(surface, rs).node == reference_puncture_element(surface, rs)
    else:
        with pytest.raises(ValueError):
            puncture_element(surface, rs)


def _exact(rs, rng, height=5):
    return CyclotomicNumber(rs, tuple(Fraction(rng.randint(-height, height), rng.randint(1, height))
                                      for _ in range(rs.degree)))


def _exact_rep(surface, rs, rng):
    x3, u = _exact(rs, rng), _exact(rs, rng)
    if surface is SPHERE4:
        p = [_exact(rs, rng) for _ in range(4)]
        return build_sphere_rep_with_u(make_sphere_params(*p, rs.zero, rs.zero, x3), u)
    p = _exact(rs, rng) if surface is TORUS1 else -(rs.a_pow(2) + rs.a_pow(-2))
    return build_torus_rep(torus_params_exact(x3, p, u), surface)


@pytest.mark.parametrize("N", [3, 5, 7])
@pytest.mark.parametrize("surface", [TORUS1, TORUS0, SPHERE4], ids=str)
def test_every_rewrite_rule_is_an_exact_identity(surface, N):
    # a b - sum c word P^v evaluates to the zero matrix in an exact rep
    rs = make_root_system(N)
    rep = _exact_rep(surface, rs, random.Random(70 + N))
    rules = RewriteSystem(surface, rs).rules
    assert len(rules) == 3
    for (a, b), outputs in rules.items():
        terms = [Prod((Gen(a), Gen(b)))]
        for c, word, pvec in outputs:
            punctures = [Power(Gen(p), e) for p, e in zip(surface.punctures, pvec) if e]
            terms.append(Prod((Lit(-c), *map(Gen, word), *punctures)))
        assert matrices.is_zero_matrix(evaluate(SkeinExpr(surface, rs, Sum(tuple(terms))), rep))
