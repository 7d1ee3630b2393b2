"""Pinned sha256 digests of serialized representations.

Every bigfloat operation in the construction and verification pipeline is
deterministic, so seeded inputs give byte-identical artifacts.  These
digests pin that: a change meant to be a pure refactor or a bit-exact speed-up
must leave them alone, and a change that moves a bit must say so and repin.

Nothing here reads a nullvector seeded by LAPACK, whose low bits can depend
on the BLAS: the commutant dimension in the CLI verification block is a
count, and the experiment's certificates are walked along the ladder and
composed as monomials, so its JSON, residual digits included, is pinned too.
The ``isomorphic`` condition estimate is a LAPACK singular-value ratio, so it
is compared to a few digits and left out of that command's digest.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from skeinrep.chebyshev import chebyshev_eval, solve_chebyshev
from skeinrep.cli import main
from skeinrep.scalars import approx_eq, make_root_system, solve_quadratic
from skeinrep.serialize import _mpf_to_str, dumps_canonical, rep_to_json, scalar_to_json
from skeinrep.sphere import (build_sphere_rep, build_sphere_rep_from_params,
                             build_sphere_rep_with_u, make_sphere_params)
from skeinrep.torus import build_torus_rep, cycle_scalar, torus_params_from_shadow
from skeinrep.uniqueness import gauge_orbit, sample_sphere_invariants, sample_torus_shadow
from test_uniqueness import conjugate, random_invertible

TORUS_KEYS = ("t1", "t2", "t3", "p")
SPHERE_KEYS = ("p0", "p1", "p2", "p3", "t1", "t2", "t3")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _flag(s):
    re_s = _mpf_to_str(s.re, s.prec_bits)
    im_s = _mpf_to_str(s.im, s.prec_bits)
    if im_s.startswith("-"):
        return f"{re_s} - {im_s[1:]} i"
    return f"{re_s} + {im_s} i"


def _invariants(kind, n, seed):
    rs = make_root_system(n, "bigfloat", 256)
    sample = sample_torus_shadow if kind == "torus" else sample_sphere_invariants
    return sample(rs, random.Random(seed))


def _build(kind, inv):
    if kind == "torus":
        return build_torus_rep(torus_params_from_shadow(*(inv[k] for k in TORUS_KEYS)))
    return build_sphere_rep(*(inv[k] for k in SPHERE_KEYS))


def _tn_text(rep):
    n = rep.rs.N
    return dumps_canonical({g: [[scalar_to_json(e) for e in row]
                                for row in chebyshev_eval(n, rep.matrix(g))]
                            for g in sorted(rep.matrices)})


# (kind, N, seed): digests of the rep JSON, of T_N of every generator image,
# and of the CLI build output for the same invariants
CASES = {
    ("torus", 3, 41): ("6fff5bcdec9b5bbc", "5eab17d8569684b9", "f7003d43312dae79"),
    ("torus", 5, 42): ("a14ff7df1d105b5a", "54ea108ba04ece6f", "eb4e262887772ebf"),
    ("sphere", 3, 43): ("6cf096d058371f03", "0acd74442eaba9ca", "c1d361a2822a7800"),
    ("sphere", 5, 44): ("f2cded51348c3472", "0220732df4ef234a", "20131d3ebd447526"),
    # the sampler's t1, t2 and solve_u's u come from the closed-form trace
    # offsets, so their last bits move with any change to those formulas
    ("sphere", 3, 0): ("4af970f767433caf", "959ca42383363462", "f119ac13831bf3ce"),
    ("sphere", 5, 0): ("d4fee915cbd01363", "9a5b977a33b676d4", "e99e8af002ba3cfb"),
    # at N = 1 the up step, the down step and the sphere's offsets share one entry
    ("torus", 1, 0): ("f267c742b62b3d1e", "955e6528547c3e3a", "02fc9425f6170cdc"),
    ("sphere", 1, 0): ("f4d9fdb0fba10b7a", "b4bb52f521d9ab85", "39377179da58cb10"),
}


@pytest.mark.parametrize("kind,n,seed", sorted(CASES))
def test_seeded_artifact_digests(kind, n, seed, tmp_path):
    rep_digest, tn_digest, cli_digest = CASES[kind, n, seed]
    inv = _invariants(kind, n, seed)
    rep = _build(kind, inv)
    assert _digest(dumps_canonical(rep_to_json(rep))) == rep_digest
    assert _digest(_tn_text(rep)) == tn_digest

    out = tmp_path / "rep.json"
    keys = TORUS_KEYS if kind == "torus" else SPHERE_KEYS
    args = [f"build-{kind}", "--N", str(n), "--out", str(out)]
    for key in keys:
        args += [f"--{key}", _flag(inv[key])]
    assert main(args) == 0
    assert _digest(out.read_text()) == cli_digest


# (surface, N, samples): digest of the CLI experiment output for seed 11
EXPERIMENTS = {
    ("torus1", 3, 5): "4aad820b8e58605d",
    ("sphere4", 3, 5): "bd27e665f646d943",
    ("sphere4", 1, 5): "95a7c0352b9fefee",
    # at N = 1 the up step, the down step and the offsets share one cell, and
    # at N = 5 the ladder reads A^j at exponents past 2N, which wrap to A^(j mod 2N)
    ("torus1", 1, 5): "3d0837f53d2f938a",
    ("torus1", 5, 2): "90bc9d43aeed7cff",
    ("sphere4", 5, 2): "a0e26d5b68c8212d",
    # at N = 13 condition numbers reach 1e14, and the composed quotients and
    # the backward-error gate decide the bits
    ("sphere4", 13, 1): "4158437c1adacb09",
    ("torus1", 13, 1): "54a4b21dc781d262",
}


@pytest.mark.parametrize("surface,n,samples", sorted(EXPERIMENTS))
def test_seeded_experiment_digests(surface, n, samples, tmp_path):
    out = tmp_path / "experiment.json"
    args = ["experiment", "--surface", surface, "--N", str(n), "--samples", str(samples),
            "--seed", "11", "--out", str(out)]
    assert main(args) == 0
    assert _digest(out.read_text()) == EXPERIMENTS[surface, n, samples]


def _gauge_pair(kind, n, seed):
    """Gauge variants 0 and N + 1 of one sampled shadow: a ladder-walk certificate."""
    inv = _invariants(kind, n, seed)
    if kind == "torus":
        variants = gauge_orbit(torus_params_from_shadow(*(inv[k] for k in TORUS_KEYS)))
        build = build_torus_rep
    else:
        x3 = solve_chebyshev(inv["t3"]).base
        variants = gauge_orbit(make_sphere_params(*(inv[k] for k in SPHERE_KEYS[:6]), x3))
        build = build_sphere_rep_from_params
    return build(variants[0]), build(variants[n + 1])


def _dense_pair(kind, n, seed):
    """A rep and a dense conjugate of it: the dense commuting system's certificate."""
    rep = _build(kind, _invariants(kind, n, seed))
    return rep, conjugate(rep, *random_invertible(rep.rs, rep.dim, random.Random(seed)))


# (pair, kind, N, seed): digest of the CLI isomorphic output without its
# condition estimate, and that estimate to 10 digits
ISOMORPHIC = {
    ("gauge", "torus", 3, 46): ("30410e2bbee80751", 4.092438187),
    ("gauge", "sphere", 3, 47): ("39a7eb2d6b8967bb", 9.588529592),
    ("dense", "torus", 3, 48): ("2e6cd9fbb543c005", 3.631305451),
}


@pytest.mark.parametrize("pair,kind,n,seed", sorted(ISOMORPHIC))
def test_isomorphic_cli_digests(pair, kind, n, seed, tmp_path):
    digest, cond = ISOMORPHIC[pair, kind, n, seed]
    paths = [tmp_path / "a.json", tmp_path / "b.json", tmp_path / "iso.json"]
    for path, rep in zip(paths, (_gauge_pair if pair == "gauge" else _dense_pair)(kind, n, seed)):
        path.write_text(dumps_canonical(rep_to_json(rep)))
    assert main(["isomorphic", *map(str, paths[:2]), "--out", str(paths[2])]) == 0
    payload = json.loads(paths[2].read_text())
    assert payload.pop("condition_estimate") == pytest.approx(cond, rel=1e-9)
    assert _digest(dumps_canonical(payload)) == digest


def test_closed_torus_cli_digest(tmp_path):
    rs = make_root_system(3, "bigfloat", 256)
    rng = random.Random(45)
    two = rs.scalar(2)
    t3 = None
    while t3 is None:
        a1, a2 = (rs.scalar(complex(rng.uniform(0.6, 1.8), rng.uniform(-0.8, 0.8)))
                  for _ in range(2))
        t1, t2 = a1 + a1 ** -1, a2 + a2 ** -1
        # t3 solves the closed-shadow relation t1 t2 t3 + t1^2 + t2^2 + t3^2 = 4
        ok = [t for t in solve_quadratic(rs.one, t1 * t2, t1 * t1 + t2 * t2 - 4)
              if not (approx_eq(t, two) or approx_eq(t, -two))
              and not cycle_scalar(t1, t2, t).is_zero()]
        t3 = ok[0] if ok else None
    out = tmp_path / "closed.json"
    assert main(["build-closed-torus", "--N", "3", "--out", str(out),
                 "--t1", _flag(t1), "--t2", _flag(t2), "--t3", _flag(t3)]) == 0
    assert _digest(out.read_text()) == "e27e590ec8f12c0b"


_NORMALIZE_SPHERE = "X2 X1 P0 + (X3 X2 - A^2 X1 P3) (X3 X1 P1 P2 - 2/3 X2^2) - P0^2 X3 X1"


def test_normalize_cli_digest(tmp_path):
    out = tmp_path / "nf.json"
    assert main(["normalize", "--surface", "sphere4", "--N", "5", "--out", str(out),
                 "--expr", _NORMALIZE_SPHERE]) == 0
    assert _digest(out.read_text()) == "1e48edb8a0ab9557"


# bigfloat coefficients round in merge order, so these pin the rewriter's contraction order too
@pytest.mark.parametrize("surface,n,expr,digest", [
    ("sphere4", 5, _NORMALIZE_SPHERE, "5459d38ec07c6680"),
    ("torus1", 3, "X2 X1 X2 X1 X2 X1 X2 X1 X2 X1", "a3ca2af7ce1f3441"),
])
def test_normalize_bigfloat_cli_digest(surface, n, expr, digest, tmp_path):
    out = tmp_path / "nf.json"
    assert main(["normalize", "--backend", "bigfloat", "--surface", surface, "--N", str(n),
                 "--out", str(out), "--expr", expr]) == 0
    assert _digest(out.read_text()) == digest


# at N = 1 every ladder step lands on the diagonal, beside the offsets
@pytest.mark.parametrize("n,digest", [(1, "879dd3a82b2c938f"), (3, "e085d6103e761ed2")])
def test_exact_sphere_rep_digest(n, digest):
    rs = make_root_system(n, "exact")
    p = [rs.scalar(Fraction(c)) for c in ("1/2", "-2/3", "3/4", "5/7")]
    params = make_sphere_params(*p, rs.zero, rs.zero, rs.scalar(3) + rs.A)
    rep = build_sphere_rep_with_u(params, rs.scalar(Fraction(3, 5)) - rs.A)
    assert _digest(dumps_canonical(rep_to_json(rep))) == digest
