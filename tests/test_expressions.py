import dataclasses
import heapq
import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, from_rational, fzero, mpc_abs, mpf_gt, round_nearest, to_float

from skeinrep import invariants, matrices
from skeinrep.errors import ExponentOverflow, ParseError, UnknownGenerator
from skeinrep.expressions import (Gen, Lit, NormalForm, Power, Prod, RewriteSystem, Sum,
                                  _expand, _find_redex, _inversions, defect_residual, evaluate,
                                  evaluate_normal_form, normal_form_to_expr, normalize, parse, parse_scalar,
                                  puncture_element, random_word_expression, relation_defects)
from skeinrep.representation import assemble
from skeinrep.scalars import RND, approx_eq, from_pair, make_root_system
from skeinrep.serialize import dumps_canonical, rep_from_json, rep_to_json, scalar_to_json
from skeinrep.surfaces import SPHERE4, TORUS0, TORUS1, sphere_k
from skeinrep.torus import (build_torus_rep, puncture_chebyshev_value, torus_params_exact,
                            torus_params_from_shadow)
from skeinrep.sphere import (build_sphere_rep, build_sphere_rep_with_u, make_sphere_params,
                             small_sphere_rep)
from skeinrep.uniqueness import sample_sphere_invariants, sample_torus_shadow


@pytest.fixture(scope="module")
def rs3():
    return make_root_system(3)


@pytest.fixture(scope="module")
def rs3f():
    return make_root_system(3, "bigfloat", 192)


def torus_rep_fixture(rs):
    x3 = rs.scalar(complex(1.3, 0.4))
    p = rs.scalar(complex(0.7, -0.2))
    u = rs.scalar(complex(0.9, 0.5))
    return build_torus_rep(torus_params_exact(x3, p, u))


def sphere_rep_fixture(rs):
    rng = random.Random(10)
    p = [rs.scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(4)]
    params = make_sphere_params(*p, rs.zero, rs.zero, rs.scalar(complex(1.25, 0.35)))
    return build_sphere_rep_with_u(params, rs.scalar(complex(0.6, -0.8)))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_commutator_shape(rs3):
    expr = parse("A X1 X2 - A^-1 X2 X1", TORUS1, rs3)
    # a sum of two products, each with a scalar and two generator leaves
    assert type(expr.node).__name__ == "Sum"
    assert len(expr.node.terms) == 2


def test_parse_unknown_generator(rs3):
    with pytest.raises(UnknownGenerator):
        parse("X4", TORUS1, rs3)
    with pytest.raises(UnknownGenerator):
        parse("P2", TORUS1, rs3)


def test_parse_sphere_puncture_products(rs3):
    expr = parse("P0 P3 + P1 P2", SPHERE4, rs3)
    assert type(expr.node).__name__ == "Sum"
    assert len(expr.node.terms) == 2


def test_parse_rational_and_decimal(rs3):
    assert parse_scalar("3/4", rs3) == rs3.scalar(Fraction(3, 4))
    assert parse_scalar("0.25", rs3) == rs3.scalar(Fraction(1, 4))
    assert parse_scalar("A^-1 A", rs3) == rs3.one
    assert parse_scalar("(1 + 2) 2", rs3) == rs3.scalar(6)


def test_parse_imaginary_literal(rs3, rs3f):
    z = parse_scalar("2 i", rs3f)
    assert approx_eq(z * z, rs3f.scalar(-4))
    with pytest.raises(ParseError):
        parse_scalar("i", rs3)


@pytest.mark.parametrize("text,position", [
    ("X1 + ?", 5), ("X1 $", 3), ("X1    #", 6),
    ("X1 +", 4), ("(X1", 3), ("X1^", 3), ("X1^-", 4),
    ("X1 + 1/0", 5), ("0/0", 0), ("X1 3/00 X2", 3),
], ids=["question-mark", "dollar", "hash-after-spaces",
        "end-after-plus", "end-in-paren", "end-after-caret", "end-after-minus",
        "one-over-zero", "zero-over-zero", "zero-denominator-00"])
def test_parse_error_position(rs3, text, position):
    # the offending character's own offset, or len(text) at the end of input
    with pytest.raises(ParseError) as err:
        parse(text, TORUS1, rs3)
    assert err.value.position == position


def test_parse_negative_power_of_generator_rejected(rs3):
    with pytest.raises(ParseError):
        parse("X1^-2", TORUS1, rs3)


def test_exponent_cap(rs3):
    with pytest.raises(ExponentOverflow):
        parse("X1^100000", TORUS1, rs3)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_commutator_normalizes_to_x3(rs3):
    nf = normalize(parse("A X1 X2 - A^-1 X2 X1", TORUS1, rs3))
    gap = rs3.a_pow(2) - rs3.a_pow(-2)
    assert nf.terms == {((0, 0, 1), (0,)): gap}


def test_single_generator_already_normal(rs3):
    nf = normalize(parse("X1", TORUS1, rs3))
    assert nf.terms == {((1, 0, 0), (0,)): rs3.one}


def test_idempotence(rs3):
    rng = random.Random(3)
    for _ in range(20):
        text = random_word_expression(TORUS1, rng, max_word_len=6)
        nf = normalize(parse(text, TORUS1, rs3))
        again = normalize(normal_form_to_expr(nf))
        assert nf == again


def test_confluence_two_orders_exact(rs3):
    rng = random.Random(17)
    for surface in (TORUS1, SPHERE4):
        for _ in range(40):
            text = random_word_expression(surface, rng, max_word_len=8)
            expr = parse(text, surface, rs3)
            left = normalize(expr, order="leftmost")
            right = normalize(expr, order="rightmost")
            assert left == right, text


def test_centrality_of_punctures(rs3):
    for p in SPHERE4.punctures:
        for x in SPHERE4.x_generators:
            nf = normalize(parse(f"{p} {x} - {x} {p}", SPHERE4, rs3))
            assert nf.is_zero()


def test_soundness_against_evaluation(rs3f):
    rep_t = torus_rep_fixture(rs3f)
    rep_s = sphere_rep_fixture(rs3f)
    rng = random.Random(23)
    for surface, rep in ((TORUS1, rep_t), (SPHERE4, rep_s)):
        for _ in range(25):
            text = random_word_expression(surface, rng, max_word_len=6)
            expr = parse(text, surface, rs3f)
            direct = evaluate(expr, rep)
            via_nf = evaluate_normal_form(normalize(expr), rep)
            _, mag = matrices.residual_report(direct - via_nf)
            assert mag < 1e-40, f"{text}: {mag}"


def test_normal_form_to_expr_keeps_term_order(rs3):
    nf = normalize(parse("X2 X1 + X3^2 + 1", TORUS1, rs3))
    again = normal_form_to_expr(nf)
    # a term's scalar part is its second factor, or the term itself when it has no X part
    scalars = [t.factors[1] if isinstance(t, Prod) and not isinstance(t.factors[0], Lit) else t
               for t in again.node.terms]
    assert [(s.factors[0] if isinstance(s, Prod) else s).value
            for s in scalars] == list(nf.terms.values())


def test_normal_form_to_expr_writes_terms_monomial_first(rs3):
    nf = normalize(parse("2 X1^2 X2 X3 P + 3 P^2 + X1 + 1/2 X3 P", TORUS1, rs3))
    x1, x2, x3, p = (Gen(g) for g in TORUS1.generators)
    want = {
        ((2, 1, 1), (1,)): Prod((Prod((Power(x1, 2), x2, x3)), Prod((Lit(rs3.scalar(2)), p)))),
        ((0, 0, 0), (2,)): Prod((Lit(rs3.scalar(3)), Power(p, 2))),
        ((1, 0, 0), (0,)): Prod((x1, Lit(rs3.one))),
        ((0, 0, 1), (1,)): Prod((x3, Prod((Lit(rs3.scalar(Fraction(1, 2))), p)))),
    }
    assert sorted(nf.terms) == sorted(want)
    assert normal_form_to_expr(nf).node == Sum(tuple(want[key] for key in nf.terms))
    only = NormalForm(TORUS1, rs3, {((0, 0, 0), (0,)): rs3.scalar(5)})
    assert normal_form_to_expr(only).node == Lit(rs3.scalar(5))


def test_evaluate_normal_form_rejects_other_backend(rs3, rs3f):
    rep = torus_rep_fixture(rs3f)
    nf = normalize(parse("X2 X1", TORUS1, rs3))
    with pytest.raises(ValueError):
        evaluate_normal_form(nf, rep)


def test_evaluate_normal_form_matches_expr_route(rs3f):
    rep = torus_rep_fixture(rs3f)
    expr = parse("X2 X1 X2 X1", TORUS1, rs3f)
    nf = normalize(expr)
    a = evaluate(expr, rep)
    b = evaluate(normal_form_to_expr(nf), rep)
    _, mag = matrices.residual_report(a - b)
    assert mag < 1e-40


# ---------------------------------------------------------------------------
# like-term merging against the term-by-term references
# ---------------------------------------------------------------------------

def _product_expand(node, rs):
    """Reference expansion: every coefficient product is formed, ones included."""
    if isinstance(node, Lit):
        return [(node.value, ())]
    if isinstance(node, Gen):
        return [(rs.one, (node.name,))]
    if isinstance(node, Sum):
        return [pair for t in node.terms for pair in _product_expand(t, rs)]
    factors = node.factors if isinstance(node, Prod) else (node.base,) * node.exponent
    out = [(rs.one, ())]
    for f in factors:
        rhs = _product_expand(f, rs)
        out = [(c1 * c2, w1 + w2) for (c1, w1) in out for (c2, w2) in rhs]
    return out


def _stack_normalize(expr, rsys, order):
    """Reference: every term rewritten separately on a stack, merged only at the leaves."""
    surface, rs = expr.surface, expr.rs
    rules = rsys.rules
    punctures = surface.punctures
    stack = []
    for coeff, word in _product_expand(expr.node, rs):
        pvec = [0] * len(punctures)
        letters = []
        for g in word:
            if g in punctures:
                pvec[punctures.index(g)] += 1
            else:
                letters.append(g)
        stack.append((coeff, tuple(pvec), tuple(letters)))
    result = {}
    while stack:
        coeff, pvec, word = stack.pop()
        pos = _find_redex(word, rules, order)
        if pos is None:
            key = (tuple(word.count(n) for n in surface.x_generators), pvec)
            result[key] = result[key] + coeff if key in result else coeff
            continue
        for scal, repl, pdelta in rules[(word[pos], word[pos + 1])]:
            new_p = tuple(p + d for p, d in zip(pvec, pdelta))
            stack.append((coeff * scal, new_p, word[:pos] + repl + word[pos + 2:]))
    return NormalForm(surface, rs, {k: v for k, v in result.items() if not v.is_zero()})


def _object_power(rep, name, e):
    power = matrices.identity(rep.rs, rep.dim)
    for _ in range(e):
        power = matrices.matmul(power, rep.matrix(name))
    return power


def _object_evaluate_normal_form(nf, rep):
    """Reference: the monomial-first evaluation steps on BigComplex object arrays.

    Each term is its word (the X generator powers, multiplied left to right)
    times its scalar (coeff Id times the puncture powers); a term with no X
    part is its scalar.
    """
    surface = nf.surface
    total = matrices.zeros(rep.rs, rep.dim)
    for (xexp, pexp), coeff in nf.terms.items():
        term = matrices.scalar_matrix(coeff, rep.dim)
        for name, e in zip(surface.punctures, pexp):
            if e:
                term = matrices.matmul(term, _object_power(rep, name, e))
        word = None
        for name, e in zip(surface.x_generators, xexp):
            if e:
                power = _object_power(rep, name, e)
                word = power if word is None else matrices.matmul(word, power)
        total = total + (term if word is None else matrices.matmul(word, term))
    return total


def _object_evaluate_normal_form_coefficient_first(nf, rep):
    """Accuracy oracle: each term as coeff Id times its generator powers, left to right."""
    total = matrices.zeros(rep.rs, rep.dim)
    for (xexp, pexp), coeff in nf.terms.items():
        term = matrices.scalar_matrix(coeff, rep.dim)
        for name, e in zip(nf.surface.generators, xexp + pexp):
            if e:
                term = matrices.matmul(term, _object_power(rep, name, e))
        total = total + term
    return total


def _object_evaluate(node, rep):
    """Reference: the expression tree walked on object arrays."""
    if isinstance(node, Lit):
        return matrices.scalar_matrix(node.value, rep.dim)
    if isinstance(node, Gen):
        return rep.matrix(node.name)
    if isinstance(node, Sum):
        acc = _object_evaluate(node.terms[0], rep)
        for t in node.terms[1:]:
            acc = acc + _object_evaluate(t, rep)
        return acc
    if isinstance(node, Prod):
        acc = _object_evaluate(node.factors[0], rep)
        for f in node.factors[1:]:
            acc = matrices.matmul(acc, _object_evaluate(f, rep))
        return acc
    acc = matrices.identity(rep.rs, rep.dim)
    base = _object_evaluate(node.base, rep)
    for _ in range(node.exponent):
        acc = matrices.matmul(acc, base)
    return acc


def _criterion9_words(surface, count, seed):
    rng = random.Random(seed)
    return [random_word_expression(surface, rng, max_word_len=8) for _ in range(count)]


@pytest.mark.parametrize("surface", [TORUS1, TORUS0, SPHERE4, sphere_k(3)], ids=lambda s: s.tag)
def test_merged_normalize_matches_stack_reference(rs3, surface):
    rsys = RewriteSystem(surface, rs3)
    for text in _criterion9_words(surface, 40, 909):
        expr = parse(text, surface, rs3)
        for order in ("leftmost", "rightmost"):
            merged = normalize(expr, rsys, order=order)
            reference = _stack_normalize(expr, rsys, order)
            assert merged.terms == reference.terms, (text, order)
            assert str(merged) == str(reference), (text, order)


def test_expand_skips_only_products_with_one(rs3, rs3f):
    for rs in (rs3, rs3f):
        for surface in (TORUS1, SPHERE4):
            for text in _criterion9_words(surface, 30, 13) + ["(2 + A^-1)^3 X1 (1/3 X2 - A)"]:
                if rs is rs3f:
                    text += " + 0.1 i X3"
                node = parse(text, surface, rs).node
                got = _expand(node, rs)
                want = _product_expand(node, rs)
                assert [w for _, w in got] == [w for _, w in want]
                if rs is rs3:
                    assert [c for c, _ in got] == [c for c, _ in want]
                else:
                    assert [(c.re._mpf_, c.im._mpf_) for c, _ in got] == \
                        [(c.re._mpf_, c.im._mpf_) for c, _ in want]


def _raw_parts(mat):
    return [(e.re._mpf_, e.im._mpf_) for e in mat.flat]


def _entries(mat):
    """Every bit of a matrix: libmp parts of bigfloat entries, canonical fields of exact ones."""
    if mat.flat[0].rs.backend == "exact":
        return [(e.nums, e.den) for e in mat.flat]
    return _raw_parts(mat)


def ladder_rep(kind, n, seed):
    """A Torus1 or Sphere4 ladder rep from sampled invariants, as construct_verify builds it."""
    rs = make_root_system(n, "bigfloat", 256)
    rng = random.Random(seed)
    if kind == "torus1":
        inv = sample_torus_shadow(rs, rng)
        return build_torus_rep(torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"]))
    inv = sample_sphere_invariants(rs, rng)
    return build_sphere_rep(*(inv[k] for k in ("p0", "p1", "p2", "p3", "t1", "t2", "t3")))


def exact_torus_rep(rs):
    return build_torus_rep(torus_params_exact(rs.A + 1, rs.A - 2, rs.scalar(Fraction(3, 2))))


def exact_sphere_rep(n):
    rs = make_root_system(n, "exact")
    p = [rs.scalar(Fraction(c)) for c in ("1/2", "-2/3", "3/4", "5/7")]
    params = make_sphere_params(*p, rs.zero, rs.zero, rs.scalar(3) + rs.A)
    return build_sphere_rep_with_u(params, rs.scalar(Fraction(3, 5)) - rs.A)


CONSTRUCT_SHAPES = [("torus1", 3), ("torus1", 5), ("torus1", 7), ("sphere4", 3), ("sphere4", 5)]


def test_evaluate_normal_form_bit_identical_to_object_path(rs3f):
    rng = random.Random(31)
    reps = {
        TORUS1: torus_rep_fixture(rs3f),
        SPHERE4: sphere_rep_fixture(rs3f),
        sphere_k(3): small_sphere_rep([rs3f.scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                                       for _ in range(3)]),
    }
    for surface, rep in reps.items():
        extra = ["3/4", "X3^3 X1 + 2"] if surface.x_generators else ["3/4"]
        for text in _criterion9_words(surface, 15, 77) + extra:
            nf = normalize(parse(text, surface, rs3f))
            assert _raw_parts(evaluate_normal_form(nf, rep)) == \
                _raw_parts(_object_evaluate_normal_form(nf, rep)), (surface.tag, text)


def _criterion9_reps(rs, seed):
    """Torus1, Torus0, Sphere4 and Sphere3 reps over ``rs``, as the criterion-9 tests take them."""
    rng = random.Random(seed)
    torus = torus_rep_fixture(rs)
    return [
        torus,
        assemble(TORUS0, rs, torus.dim, {g: torus.matrix(g) for g in TORUS0.generators}, {}),
        sphere_rep_fixture(rs),
        small_sphere_rep([rs.scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(3)]),
    ]


def test_evaluate_normal_form_agrees_with_coefficient_first_order():
    # monomial-first terms round in a new order; the old order stays an accuracy oracle
    rs = make_root_system(3, "bigfloat", 256)
    for rep in _criterion9_reps(rs, 32):
        for text in _criterion9_words(rep.surface, 20, 78):
            nf = normalize(parse(text, rep.surface, rs))
            _, mag = matrices.residual_report(
                evaluate_normal_form(nf, rep) - _object_evaluate_normal_form_coefficient_first(nf, rep))
            assert mag < 1e-60, (rep.surface.tag, text, mag)


def test_word_memo_cold_and_warm_evaluations_are_bit_identical(rs3f):
    for rep in _criterion9_reps(rs3f, 33):
        nfs = [normalize(parse(text, rep.surface, rs3f)) for text in _criterion9_words(rep.surface, 15, 79)]
        cold = [_raw_parts(evaluate_normal_form(nf, dataclasses.replace(rep))) for nf in nfs]
        warm_rep = dataclasses.replace(rep)
        for nf in reversed(nfs):  # later words start from powers and prefixes the others kept
            evaluate_normal_form(nf, warm_rep)
        assert warm_rep._memo["words"]
        for nf, want in zip(nfs, cold):
            assert _raw_parts(evaluate_normal_form(nf, warm_rep)) == want, rep.surface.tag
            assert _raw_parts(evaluate(normal_form_to_expr(nf), warm_rep)) == want, rep.surface.tag


def test_word_memo_takes_each_word_product_once_per_frozen_rep(rs3f, monkeypatch):
    rep = torus_rep_fixture(rs3f)
    nfs = [normalize(parse(text, TORUS1, rs3f)) for text in ("X1 X2", "3 X1 X2 X3 + A X1 X2 P")]
    original = matrices._raw_product
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(matrices, "_raw_product", counting)
    for frozen in (rep, dataclasses.replace(rep)):
        x1, x2 = frozen.image("X1").rows, frozen.image("X2").rows
        for _ in range(2):
            for nf in nfs:
                evaluate_normal_form(nf, frozen)
        assert sum(a is x1 and b is x2 for a, b in calls) == 1
        calls.clear()


def test_word_memo_keeps_nothing_from_a_writeable_image(rs3f):
    # a rep holds a frozen copy of a writeable image, so its word memo keeps
    # products of that copy and none of the caller's later changes
    rep = torus_rep_fixture(rs3f)
    x1 = rep.matrix("X1").copy()
    loose = dataclasses.replace(rep, matrices=dict(rep.matrices, X1=x1))
    nf = normalize(parse("X1^2 X2 + X1 X2", TORUS1, rs3f))
    before = _raw_parts(evaluate_normal_form(nf, loose))
    assert before == _raw_parts(evaluate_normal_form(nf, rep))
    kept = dict(loose._memo["words"])
    x1[0, 1] = x1[0, 1] + rs3f.one
    assert _raw_parts(evaluate_normal_form(nf, loose)) == before
    assert loose._memo["words"].keys() == kept.keys()
    assert all(loose._memo["words"][w] is v for w, v in kept.items())
    assert loose.matrix("X1") is not x1 and x1.flags.writeable


def test_replaced_rep_starts_with_an_empty_word_memo(rs3f):
    rep = torus_rep_fixture(rs3f)
    evaluate_normal_form(normalize(parse("X1 X2 X3^2", TORUS1, rs3f)), rep)
    assert rep._memo["words"]
    assert dataclasses.replace(rep)._memo == {}


def test_evaluate_bit_identical_to_object_path(rs3f, rs3):
    rng = random.Random(41)
    torus = torus_rep_fixture(rs3f)
    reps = [
        torus,
        assemble(TORUS0, rs3f, torus.dim, {g: torus.matrix(g) for g in TORUS0.generators}, {}),
        sphere_rep_fixture(rs3f),
        small_sphere_rep([rs3f.scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                          for _ in range(3)]),
        ladder_rep("torus1", 5, 3), ladder_rep("torus1", 7, 4), ladder_rep("sphere4", 5, 5),
        exact_torus_rep(rs3), exact_sphere_rep(3),
    ]
    for rep in reps:
        surface = rep.surface
        g1, g2 = surface.generators[:2]
        # powers reused out of order, an input with no generator at all, a
        # zero literal, and words whose value is scalar
        extra = [f"({g1} + 2)^3", f"{g1}^3 + {g1}^2 {g2} + {g1}^5", "3/4 - A^2 (1 + A)", "3/4",
                 f"0 {g1} {g2} + {surface.generators[-1]}", f"{g2}^0 {g1} - 0"]
        if surface.punctures:
            p, q = surface.punctures[0], surface.punctures[-1]
            extra += [f"{p} {q} - 2", f"{p}^2 (A - {q}) + 0 {p}", f"0 {g1} {g2} + {p}"]
        for text in _criterion9_words(surface, 15, 77) + extra:
            expr = parse(text, surface, rep.rs)
            assert _entries(evaluate(expr, rep)) == _entries(_object_evaluate(expr.node, rep)), \
                (surface.tag, rep.rs.N, rep.rs.backend, text)


def _json_torus_rep(rs):
    """The Torus1 fixture read back from JSON, with a nonzero entry off the diagonal of P."""
    obj = json.loads(dumps_canonical(rep_to_json(torus_rep_fixture(rs))))
    obj["generators"]["P"][0][1] = scalar_to_json(rs.scalar(complex(0.25, -0.5)))
    rep = rep_from_json(obj)
    assert not rep.image("P").scalar
    return rep


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_combine_edge_cases_match_object_path(backend):
    rs = make_root_system(3, backend)
    reps = [exact_torus_rep(rs)] if backend == "exact" else [torus_rep_fixture(rs), _json_torus_rep(rs)]
    for rep in reps:
        p = rep.matrix("P")[0, 0]
        nfs = [
            NormalForm(TORUS1, rs, {}),
            normalize(parse("3/4 P^2", TORUS1, rs)),
            normalize(parse("A X1 X2^2 P", TORUS1, rs)),
            normalize(parse("X2 X1 P + 2", TORUS1, rs)),
        ]
        assert [len(nf.terms) for nf in nfs[:3]] == [0, 1, 1]
        if backend == "exact":  # X1 - p^-1 X1 P cancels exactly when P is p Id
            nfs.append(NormalForm(TORUS1, rs, {((1, 0, 0), (0,)): rs.one, ((1, 0, 0), (1,)): -p ** -1}))
        for nf in nfs:
            assert _entries(evaluate_normal_form(nf, rep)) == \
                _entries(_object_evaluate_normal_form(nf, rep)), str(nf)
        for text in ("2 + 3 + X1", "X1 + 2", "2 + 3", "2 X1 + P - 3 X1 X2 + A", "X1 - X1",
                     "X1 P - P X1", "0 X1 + 2", "3 + 2 X1 - X2", "P + 2 X1"):
            expr = parse(text, TORUS1, rs)
            assert _entries(evaluate(expr, rep)) == _entries(_object_evaluate(expr.node, rep)), text
    # entries that cancel are exact zeros, and no term's rows change
    k = matrices.kernel(rs)
    rows = reps[0].image("X1").rows
    kept = [list(row) for row in rows]
    zero = k.combine([rows, matrices.Scaled(k.entry(rs.scalar(-1)), rows)])
    assert k.worst(zero) == (True, 0.0)
    assert [list(row) for row in rows] == kept
    if backend == "bigfloat":
        assert all(e is None for row in zero for e in row)
    assert evaluate(parse("X1 - X1", TORUS1, rs), reps[0])[0, 0].is_zero()


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_evaluate_returns_a_new_array(backend):
    rs = make_root_system(3, backend)
    rep = exact_torus_rep(rs) if backend == "exact" else torus_rep_fixture(rs)
    for text, name in (("X1", "X1"), ("X1^1", "X1"), ("(X1)", "X1"), ("P", "P")):
        out = evaluate(parse(text, TORUS1, rs), rep)
        assert out is not rep.matrix(name) and out.flags.writeable, text
        assert _entries(out) == _entries(rep.matrix(name)), text
    assert not rep.matrix("X1").flags.writeable


def _fraction_entry(w):
    """(re, im) Fractions of an int quadruple."""
    re, e, im, f = w
    return Fraction(re) * Fraction(2) ** e, Fraction(im) * Fraction(2) ** f


def rational_value(node, rep):
    """Rows of (re, im) Fractions of the exact value of a syntax tree in rep, from its entries' quadruples."""
    n = rep.dim
    zero = (Fraction(0), Fraction(0))
    if isinstance(node, Lit):
        s = _fraction_entry(node.value.w)
        return [[s if i == j else zero for j in range(n)] for i in range(n)]
    if isinstance(node, Gen):
        return [[_fraction_entry(e.w) for e in row] for row in rep.matrix(node.name)]
    if isinstance(node, Sum):
        values = [rational_value(t, rep) for t in node.terms]
        return [[(sum(v[i][j][0] for v in values), sum(v[i][j][1] for v in values)) for j in range(n)]
                for i in range(n)]
    if isinstance(node, Prod):
        factors = [rational_value(f, rep) for f in node.factors]
    else:
        factors = [rational_value(node.base, rep)] * node.exponent
    acc = factors[0]
    for b in factors[1:]:
        acc = [[(sum(a[k][0] * b[k][j][0] - a[k][1] * b[k][j][1] for k in range(n)),
                 sum(a[k][0] * b[k][j][1] + a[k][1] * b[k][j][0] for k in range(n))) for j in range(n)]
               for a in acc]
    return acc


def rational_residual(expr, rep):
    """Exact-once oracle: (exactly zero, largest ``mpc_abs``) of the value of ``expr``, each part rounded once.

    The tree is evaluated over the rationals, each part of each entry is
    rounded to nearest at the working precision by libmp's
    ``from_rational``, and the largest magnitude (``mpf_hypot``) is rounded
    to float once.  Nothing of the kernels is used.
    """
    prec = rep.rs.precision_bits
    worst, exact = fzero, True
    for row in rational_value(expr.node, rep):
        for re, im in row:
            if re or im:
                exact = False
                z = tuple(from_rational(x.numerator, x.denominator, prec, round_nearest) for x in (re, im))
                mag = mpc_abs(z, prec, RND)
                if mpf_gt(mag, worst):
                    worst = mag
    return exact, to_float(worst, rnd=RND)


@pytest.mark.parametrize("kind,n", CONSTRUCT_SHAPES + [("exact sphere4", 3)])
def test_verify_relations_matches_object_evaluation(kind, n):
    # bigfloat residuals are the exact-once oracle's; exact ones the object evaluation's
    rep = exact_sphere_rep(n) if kind == "exact sphere4" else ladder_rep(kind, n, 20 + n)
    report = invariants.verify_relations(rep)
    for name, expr in relation_defects(rep.surface, rep.rs).items():
        if rep.rs.backend == "exact":
            exact_zero, mag = matrices.residual_report(_object_evaluate(expr.node, rep))
        else:
            exact_zero, mag = rational_residual(expr, rep)
        assert report.relation_exact[name] == exact_zero, name
        assert report.relation_residuals[name] == mag, name
    assert report.passed


def _with_nonscalar_puncture(rep, entry):
    """rep with ``entry`` at (0, 1) of its first puncture image, which is then not s Id."""
    p = rep.surface.punctures[0]
    image = rep.matrix(p).copy()
    image[0, 1 % rep.dim] = entry
    return dataclasses.replace(rep, matrices=dict(rep.matrices, **{p: matrices.freeze(image)}))


def test_central_defects_of_a_nonscalar_puncture_are_evaluated():
    rep = ladder_rep("sphere4", 3, 6)
    rs = rep.rs
    bad = _with_nonscalar_puncture(rep, rs.scalar(1e-20))
    report = invariants.verify_relations(bad)
    for x in rep.surface.x_generators:
        name = f"central_P0_{x}"
        expr = relation_defects(rep.surface, rs)[name]
        assert (report.relation_exact[name], report.relation_residuals[name]) == rational_residual(expr, bad)
        assert report.relation_residuals[name] > 0.0 and not report.checks[f"relation {name}"]
        other = f"central_P1_{x}"
        assert report.relation_exact[other] and report.relation_residuals[other] == 0.0
    assert not report.passed


def test_verify_relations_kernel_products(monkeypatch):
    # Sphere4 N = 5 after its T_N memo is read: 2 exact products per
    # q-commutator and 5 for the cubic (X1 X2 X3 and three squares), and no
    # rounded one.  Evaluating scalars as dense s Id, with the twelve central
    # defects, took 93.
    rep = ladder_rep("sphere4", 5, 7)
    for x in rep.surface.x_generators:
        rep.chebyshev(x)
    calls = {"_raw_product": 0, "_grid_product": 0}

    def counting(name):
        original = getattr(matrices, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(matrices, name, counting(name))
    assert invariants.verify_relations(rep).passed
    assert calls == {"_raw_product": 0, "_grid_product": 11}


@lru_cache(maxsize=None)
def _oracle_base(kind, n, seed):
    return ladder_rep(kind, n, seed)


def _random_image(rs, rng, zero_share, reach, diagonal=False):
    """An image of random entries: exact zeros at random, a part zero one time in five, parts 2^+-reach apart."""
    prec = rs.precision_bits
    n = rs.N
    image = matrices.zeros(rs, n)
    for i in range(n):
        for j in range(n):
            if (diagonal and i != j) or rng.random() < zero_share:
                continue
            parts = [from_man_exp(rng.choice([-1, 1]) * (rng.getrandbits(prec) | 1 << (prec - 1)),
                                  rng.randint(-reach, reach) - prec) for _ in range(2)]
            if rng.random() < 0.2:
                parts[rng.randrange(2)] = fzero
            image[i, j] = from_pair(rs, tuple(parts))
    return image


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["torus1", "sphere4"]), n=st.sampled_from([1, 3, 5]), base=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(["ladder", "zeros", "spread", "puncture"]))
def test_relation_residuals_match_the_exact_oracle(kind, n, base, seed, shape):
    # ladder reps as built; random images with exact-zero patterns and
    # one-part entries; parts 2^+-300 apart; and a puncture image that is
    # not s Id, whose defects are evaluated.  At N = 1 the up and down
    # steps share one cell.  The commutant is not what is checked here.
    rep = dataclasses.replace(_oracle_base(kind, n, base))
    rs = rep.rs
    rng = random.Random(seed)
    if shape in ("zeros", "spread"):
        reach = 300 if shape == "spread" else 20
        share = 0.0 if shape == "spread" else rng.choice([0.3, 0.6, 0.9])
        rep = dataclasses.replace(rep, matrices=dict(
            rep.matrices, X1=_random_image(rs, rng, share, reach), X2=_random_image(rs, rng, share, reach),
            X3=_random_image(rs, rng, share, reach, diagonal=rng.random() < 0.5)))
    elif shape == "puncture":
        rep = _with_nonscalar_puncture(rep, rep.matrix(rep.surface.punctures[0])[0, 0] * rs.scalar(1e-30))
    with mock.patch.object(invariants, "commutant_dimension", lambda rep, tol=None: 1):
        report = invariants.verify_relations(rep)
    for name, expr in relation_defects(rep.surface, rs).items():
        assert (report.relation_exact[name], report.relation_residuals[name]) == rational_residual(expr, rep), name


@pytest.mark.parametrize("whole", [False, True])
def test_far_apart_image_entries_take_the_rounded_evaluation(whole):
    # one X3 entry 2^40 bits below the others (the image spans that far), or
    # all of X3 (the terms of each sum spread that far): no image or sum is
    # put on one grid that wide, and each defect is the rounded evaluation's
    rep = ladder_rep("torus1", 3, 1)
    rs = rep.rs
    far_scale = from_pair(rs, (from_man_exp(3, -(1 << 40)), fzero))
    x3 = rep.matrix("X3") * far_scale if whole else rep.matrix("X3").copy()
    if not whole:
        x3[0, 0] = far_scale
    far = dataclasses.replace(rep, matrices=dict(rep.matrices, X3=matrices.freeze(x3)))
    start = time.perf_counter()
    report = invariants.verify_relations(far)
    assert time.perf_counter() - start < 0.5
    assert not report.passed
    for name, expr in relation_defects(rep.surface, rs).items():
        want = matrices.residual_report(evaluate(expr, far))
        assert (report.relation_exact[name], report.relation_residuals[name]) == want, name


def test_grid_words_stay_apart_from_rounded_words():
    # the exact words verify_relations keeps never enter evaluate's rounded memo
    rep = ladder_rep("sphere4", 3, 6)
    exprs = relation_defects(rep.surface, rep.rs)
    fresh = [_entries(evaluate(expr, dataclasses.replace(rep))) for expr in exprs.values()]
    report = invariants.verify_relations(rep)
    assert rep._memo["grid words"] and "words" not in rep._memo
    assert [_entries(evaluate(expr, rep)) for expr in exprs.values()] == fresh
    assert invariants.verify_relations(rep) == report
    assert defect_residual(exprs["cubic"], rep) == (report.relation_exact["cubic"], report.relation_residuals["cubic"])


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_every_rule_output_lowers_length_and_inversions(backend):
    rs = make_root_system(3, backend)
    for surface in (TORUS1, TORUS0, SPHERE4, sphere_k(3)):
        rsys = RewriteSystem(surface, rs)
        rank = {g: i for i, g in enumerate(surface.x_generators)}
        for pair, outputs in rsys.rules.items():
            key = (len(pair), _inversions(pair, rank))
            for _, repl, _ in outputs:
                assert (len(repl), _inversions(repl, rank)) < key, (surface.tag, pair, repl)
            # normalize carries the swap's key instead of counting it
            _, swapped, pdelta = outputs[0]
            assert swapped == pair[::-1] and not any(pdelta), (surface.tag, pair)
            assert _inversions(swapped, rank) == _inversions(pair, rank) - 1, (surface.tag, pair)


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_every_heap_key_is_its_words_length_and_inversions(backend, monkeypatch):
    rs = make_root_system(3, backend)
    pushes = []
    original = heapq.heappush

    def recording(heap, entry):
        pushes.append(entry)
        original(heap, entry)

    monkeypatch.setattr(heapq, "heappush", recording)
    for surface in (TORUS1, TORUS0, SPHERE4, sphere_k(3)):
        rsys = RewriteSystem(surface, rs)
        rank = {g: i for i, g in enumerate(surface.x_generators)}
        alternating = [" ".join(["X2", "X1"] * 4)] if surface.x_generators else []  # Sphere3 has none
        for text in _criterion9_words(surface, 15, 404) + alternating:
            for order in ("leftmost", "rightmost"):
                pushes.clear()
                normalize(parse(text, surface, rs), rsys, order=order)
                assert pushes, (surface.tag, text)
                for neg_len, neg_inv, word, _ in pushes:
                    assert (neg_len, neg_inv) == (-len(word), -_inversions(word, rank)), \
                        (surface.tag, text, order, word)


def test_normalize_keeps_no_state_on_its_rewrite_system(rs3):
    rsys = RewriteSystem(SPHERE4, rs3)
    attributes = dict(vars(rsys))
    rules = {pair: list(outputs) for pair, outputs in rsys.rules.items()}
    for text in _criterion9_words(SPHERE4, 10, 5):
        normalize(parse(text, SPHERE4, rs3), rsys)
    assert vars(rsys) == attributes
    assert rsys.rules == rules


def test_long_alternating_word_both_orders(rs3):
    # the stack reference is exponential here (12 letters take about 30 s on
    # a 2-core machine); merging keeps the contractions polynomial in the length
    expr = parse(" ".join(["X2", "X1"] * 12), TORUS1, rs3)
    start = time.perf_counter()
    left = normalize(expr, order="leftmost")
    right = normalize(expr, order="rightmost")
    assert time.perf_counter() - start < 60
    assert left == right
    # the top monomial takes only swaps, each X2 past each later X1: A^2 each
    assert left.terms[((12, 12, 0), (0,))] == rs3.a_pow(2 * 78)


def test_surface_mismatch_rejected(rs3, rs3f):
    rep = torus_rep_fixture(rs3f)
    expr = parse("P0", SPHERE4, rs3f)
    with pytest.raises(ValueError):
        evaluate(expr, rep)


# ---------------------------------------------------------------------------
# distinguished elements
# ---------------------------------------------------------------------------

def test_torus_puncture_element_has_six_terms(rs3):
    expr = puncture_element(TORUS1, rs3)
    assert len(expr.node.terms) == 5  # constant folds A^2 + A^-2 into one literal
    nf = normalize(expr)
    # leading cubic monomial present with coefficient A
    assert nf.terms[((1, 1, 1), (0,))] == rs3.A


def test_torus_puncture_acts_as_scalar(rs3f):
    rep = torus_rep_fixture(rs3f)
    out = evaluate(puncture_element(TORUS1, rs3f), rep)
    p = rep.puncture_scalars["P"]
    defect = out - matrices.scalar_matrix(p, rep.dim)
    _, mag = matrices.residual_report(defect)
    assert mag < 1e-40


def test_sphere_defect_evaluates_to_zero(rs3f):
    rep = sphere_rep_fixture(rs3f)
    out = evaluate(puncture_element(SPHERE4, rs3f), rep)
    _, mag = matrices.residual_report(out)
    assert mag < 1e-40


def test_classical_specialization_reproduces_trace_polynomial():
    # at N = 1 the root is -1 and the generators can be any commuting scalars
    rs = make_root_system(1, "bigfloat", 128)
    rng = random.Random(5)
    t = [rs.scalar(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(3)]
    mats = {f"X{i+1}": matrices.scalar_matrix(t[i], 1) for i in range(3)}
    p_val = puncture_chebyshev_value(*t)
    rep = assemble(TORUS1, rs, 1, mats, {"P": p_val})
    out = evaluate(puncture_element(TORUS1, rs), rep)
    assert approx_eq(out[0, 0], p_val)


def test_relation_defects_cover_presentation(rs3):
    torus_names = set(relation_defects(TORUS1, rs3))
    assert {"qcomm_12", "qcomm_23", "qcomm_31", "puncture"} == torus_names
    closed_names = set(relation_defects(TORUS0, rs3))
    assert "closed_puncture" in closed_names
    sphere_names = set(relation_defects(SPHERE4, rs3))
    assert {"qcomm_12", "qcomm_23", "qcomm_31", "cubic"} <= sphere_names
    assert any(name.startswith("central_") for name in sphere_names)
    assert relation_defects(sphere_k(2), rs3) == {}
