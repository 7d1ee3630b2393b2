"""The benchmark's workloads: inputs made from the seed, checked operations.

``setup(name, seed, out_dir)`` does everything a workload needs before its
first timed operation (imports, root systems, rewrite systems, the fixed
representations) and returns the workload's fixed list of operations.  Each
operation is a zero-argument callable returning ``(ok, headroom_bits,
digest)``: whether every check passed, the smallest log2(gate / residual)
over its checks against the acceptance suite's pinned gates, and the sha256
of the artifact it wrote (or None).  Operations reach skeinrep only through
module attributes and ``skeinrep.cli.main``, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
from functools import partial

from skeinrep import (cli, expressions, invariants, matrices, scalars, sphere, surfaces,
                      torus, uniqueness)

# acceptance-suite gates (tests/test_acceptance.py)
TORUS_GATE = 1e-30        # criterion 2: relation, T_N and puncture residuals
SPHERE_GATE = 1e-25       # criteria 6 and 9: sphere relations, rewriter agreement
ROUNDTRIP_GATE = 1e-20    # criterion 6: relative invariant round-trip
INTERTWINER_GATE = 1e-20  # criterion 7: worst pair residual

# construct_verify: draws per pass for each (surface, N) of criteria 2 and 6
CONSTRUCT_SHAPES = [("torus1", 3), ("torus1", 5), ("torus1", 7), ("sphere4", 3), ("sphere4", 5)]
CONSTRUCT_DRAWS = 20
# certify_*: (surface, N, samples per pass), one gauge orbit per CLI call.
# Both run at N = 3.  Times are scaled by kernel probes taken between
# operations (speed.py), which cannot see the machine change during one
# operation: a 2.8 s torus orbit at N = 5 let the scaled pass time of ten
# seeds spread by 0.20, against 0.03 for the 0.5 s sphere orbits.  The
# criterion-7 sizes stay runnable by hand as certify_torus_n5 and
# certify_sphere_n5; the N = 5 sphere costs 3 to 28 s per orbit depending on
# how many of its mp-SVD fallbacks fire, far too uneven for a timed run.
# certify_sphere draws its experiment seeds from 0-239, stratified by how many
# of the orbit's intertwiner searches fell back to the mp SVD at the seed
# commit (0fdd608): 211 seeds none, 21 seeds one (first tuple), 8 seeds two
# or three (second tuple).  With plain draws the number of fallbacks, and so
# the pass time, varied from seed to seed (interquartile spread 0.10 of the
# median over ten seeds).  A fixed take from each stratum, proportional to its
# size, gives every pass the same mix.
SPHERE_CORPUS = 240
SPHERE_FALLBACK_SEEDS = (
    (9, 10, 19, 45, 84, 86, 89, 110, 122, 123, 149, 154, 159, 165, 194, 202, 204, 212, 216,
     225, 229),
    (15, 25, 98, 188, 190, 206, 210, 227),
)
SPHERE_TAKES = (26, 3, 1)  # from the no-fallback seeds, then from each tuple above
CERTIFY = {"certify_torus": ("torus1", 3, 40), "certify_sphere": ("sphere4", 3, sum(SPHERE_TAKES)),
           "certify_torus_n5": ("torus1", 5, 5), "certify_sphere_n5": ("sphere4", 5, 2)}
# rewrite: criterion 9's surfaces and word shape, words per surface per pass,
# and candidate words drawn per word kept (see _stratified_words)
REWRITE_WORDS = 100
REWRITE_MAX_WORD_LEN = 8
REWRITE_POOL = 20


def headroom_bits(gate, residual):
    """log2(gate / residual); an exactly zero residual has unbounded headroom."""
    return math.log2(gate / residual) if residual > 0 else math.inf


def _mag(x):
    return float(x.magnitude())


def setup(name, seed, out_dir):
    if name == "construct_verify":
        return _setup_construct(seed)
    if name in CERTIFY:
        return _setup_certify(name, seed, out_dir)
    if name == "rewrite":
        return _setup_rewrite(seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# construct_verify: criteria 2 and 6
# ---------------------------------------------------------------------------

def _setup_construct(seed):
    rng = random.Random(seed)
    systems = {n: scalars.make_root_system(n, "bigfloat", 256) for n in (3, 5, 7)}
    return [partial(_construct_op, kind, systems[n], rng.getrandbits(64))
            for _ in range(CONSTRUCT_DRAWS) for kind, n in CONSTRUCT_SHAPES]


def _construct_op(kind, rs, op_seed):
    rng = random.Random(op_seed)
    if kind == "torus1":
        inv = uniqueness.sample_torus_shadow(rs, rng)
        params = torus.torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"])
        rep = torus.build_torus_rep(params)
        gate = TORUS_GATE
    else:
        inv = uniqueness.sample_sphere_invariants(rs, rng)
        rep = sphere.build_sphere_rep(*(inv[k] for k in ("p0", "p1", "p2", "p3", "t1", "t2", "t3")))
        gate = SPHERE_GATE
    report = invariants.verify_relations(rep)
    residuals = [*report.relation_residuals.values(), *report.chebyshev_deviations.values(),
                 *report.puncture_deviations.values()]
    ok = report.passed and rep.dim == rs.N and all(r < gate for r in residuals)
    bits = [headroom_bits(gate, r) for r in residuals]

    shadow = invariants.extract_invariants(rep)
    pairs = [(shadow.t(g), inv[f"t{g[1]}"]) for g in rep.surface.x_generators]
    pairs += [(shadow.puncture_values[p], inv["p" if p == "P" else p.lower()])
              for p in rep.surface.punctures]
    for got, want in pairs:
        gate_abs = ROUNDTRIP_GATE * max(1.0, _mag(got), _mag(want))
        diff = _mag(got - want)
        ok = ok and diff < gate_abs
        bits.append(headroom_bits(gate_abs, diff))
    ok = ok and shadow.compatibility_ok
    return ok, min(bits), None


# ---------------------------------------------------------------------------
# certify_torus / certify_sphere: criterion 7 through the CLI
# ---------------------------------------------------------------------------

def _stratified_sphere_seeds(rng):
    fallback = {s for stratum in SPHERE_FALLBACK_SEEDS for s in stratum}
    strata = [[s for s in range(SPHERE_CORPUS) if s not in fallback], *SPHERE_FALLBACK_SEEDS]
    seeds = [s for stratum, take in zip(strata, SPHERE_TAKES) for s in rng.sample(stratum, take)]
    rng.shuffle(seeds)
    return seeds


def _setup_certify(name, seed, out_dir):
    surface, n, samples = CERTIFY[name]
    rng = random.Random(seed)
    if name == "certify_sphere":
        seeds = _stratified_sphere_seeds(rng)
    else:
        seeds = [rng.getrandbits(31) for _ in range(samples)]
    return [partial(_certify_op, surface, n, experiment_seed,
                    os.path.join(out_dir, f"{name}-{i}.json"))
            for i, experiment_seed in enumerate(seeds)]


def _certify_op(surface, n, experiment_seed, path):
    argv = ["experiment", "--surface", surface, "--N", str(n), "--samples", "1",
            "--seed", str(experiment_seed), "--out", path]
    with contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        return False, math.inf, None
    with open(path, "rb") as fh:
        data = fh.read()
    report = json.loads(data)
    ok = report["passed"] and len(report["records"]) == 1
    bits = []
    for rec in report["records"]:
        ok = (ok and rec["ok"] and rec["variants"] == 2 * n
              and rec["pairs_checked"] == (2 * n) * (2 * n - 1) // 2
              and rec["worst_residual"] < INTERTWINER_GATE)
        bits.append(headroom_bits(INTERTWINER_GATE, rec["worst_residual"]))
    return ok, min(bits, default=math.inf), hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# rewrite: criterion 9
# ---------------------------------------------------------------------------

def _closed_torus(rs, rng):
    """A closed-torus representation, drawn as in criterion 9."""
    two = rs.scalar(2)
    while True:
        a1 = rs.scalar(complex(rng.uniform(0.6, 1.6), rng.uniform(-0.6, 0.6)))
        a2 = rs.scalar(complex(rng.uniform(0.6, 1.6), rng.uniform(-0.6, 0.6)))
        t1, t2 = a1 + a1 ** -1, a2 + a2 ** -1
        for t3 in scalars.solve_quadratic(rs.one, t1 * t2, t1 * t1 + t2 * t2 - 4):
            if scalars.approx_eq(t3, two) or scalars.approx_eq(t3, -two):
                continue
            if _mag(torus.cycle_scalar(t1, t2, t3)) > 1e-3:
                return torus.closed_torus_rep(t1, t2, t3)


def _setup_rewrite(seed):
    rng = random.Random(seed)
    rs_exact = scalars.make_root_system(3)
    rs_float = scalars.make_root_system(3, "bigfloat", 256)
    inv = uniqueness.sample_torus_shadow(rs_float, rng)
    sph = uniqueness.sample_sphere_invariants(rs_float, rng)
    reps = {
        surfaces.TORUS1: torus.build_torus_rep(
            torus.torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"])),
        surfaces.TORUS0: _closed_torus(rs_float, rng),
        surfaces.SPHERE4: sphere.build_sphere_rep(
            *(sph[k] for k in ("p0", "p1", "p2", "p3", "t1", "t2", "t3"))),
        surfaces.sphere_k(3): sphere.small_sphere_rep(
            [rs_float.scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(3)]),
    }
    ops = []
    for surface, rep in reps.items():
        rsys_exact = expressions.RewriteSystem(surface, rs_exact)
        rsys_float = expressions.RewriteSystem(surface, rs_float)
        ops += [partial(_rewrite_op, text, surface, rep, rs_exact, rs_float, rsys_exact, rsys_float)
                for text in _stratified_words(surface, rng)]
    return ops


def _rewrite_cost_key(text):
    """Rewriting work roughly doubles with each out-of-order pair of X letters in a term."""
    key = 0
    for term in re.split(r" [+-] ", text):
        xs = [int(tok[1]) for tok in term.split()[1:] if tok.startswith("X")]
        key += 2 ** sum(a > b for i, a in enumerate(xs) for b in xs[i + 1:])
    return key


def _stratified_words(surface, rng):
    """Criterion-9 words, one drawn from each stratum of a larger pool ranked by cost.

    A few long, unsorted words dominate a pass, so plain draws make the pass
    time depend mostly on how many of them a seed happens to get.  Ranking
    REWRITE_POOL times as many candidates by their cost key and keeping the
    middle word of each stratum keeps the word distribution and gives every
    seed the same mix of cheap and expensive words.
    """
    pool = sorted((expressions.random_word_expression(surface, rng, max_word_len=REWRITE_MAX_WORD_LEN)
                   for _ in range(REWRITE_WORDS * REWRITE_POOL)), key=_rewrite_cost_key)
    return [pool[i * REWRITE_POOL + REWRITE_POOL // 2] for i in range(REWRITE_WORDS)]


def _rewrite_op(text, surface, rep, rs_exact, rs_float, rsys_exact, rsys_float):
    expr = expressions.parse(text, surface, rs_exact)
    left = expressions.normalize(expr, rsys_exact, order="leftmost")
    right = expressions.normalize(expr, rsys_exact, order="rightmost")
    again = expressions.normalize(expressions.normal_form_to_expr(left), rsys_exact)
    ok = left == right and again == left

    expr = expressions.parse(text, surface, rs_float)
    direct = expressions.evaluate(expr, rep)
    rewritten = expressions.evaluate_normal_form(expressions.normalize(expr, rsys_float), rep)
    _, residual = matrices.residual_report(direct - rewritten)
    ok = ok and residual < SPHERE_GATE
    return ok, headroom_bits(SPHERE_GATE, residual), None
