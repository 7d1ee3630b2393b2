"""Isomorphism testing, gauge orbits, genericity predicates and experiments.

An isomorphism between two representations is certified by an invertible
intertwiner M with M rho(g) = rho'(g) M for every generator.  The
constructions store X3 diagonal with simple spectrum whenever t3 != +/-2, so
M X3 = X3' M forces M to be a permutation of the eigenlines times a diagonal:
the solver matches the two X3 spectra and walks the nonzero ladder entries
of the other images, fixing the dim diagonal scalars with dim - 1 divisions.
Only a non-diagonal X3 image, a repeated spectrum or a line the walk cannot
reach falls back to the dense problem in dim^2 unknowns.  For irreducible
representations the solution space has dimension at most one and the
certificate is unique up to scale.

A walked certificate keeps the :class:`matrices.Monomial` (sigma, m) it was
found as, the one owner of that format, and every step on it costs O(nnz),
with no LAPACK call and no complex128 matrix.  Its condition number is the
closed form max |m_k| / min |m_k| (:meth:`Monomial.condition`), and
normalization takes dim magnitudes and dim products with the bits of the
dense form.  Its residuals come from the two terms of each defect entry:
:func:`matrices.intertwining_defects` takes the monomial, whose entries
are read at working precision once (``Monomial.raw``), and each image as
the rep keeps it (:meth:`Representation.image`: kernel rows and their
nonzero pattern), so an image is unpacked and scanned once per rep, and a
defect visits only the entries where one of its two terms is nonzero.  The
X3 test reads the same record's ``diagonal`` and the walk its ``columns``,
each formed once.  A monomial is accepted by its backward error, not by a
condition cap (:func:`_within_gate`): at N >= 13 gauge certificates reach
condition numbers of 1e14 and more while their backward errors stay far
inside working precision.  The certificate holds the monomial as its
``intertwiner``; the dense ``matrix`` is formed only when read, as the
``isomorphic`` command reads it.

The gauge scalar x3 of a construction is determined only up to the 2N moves
x3 -> x3 A^{2l} and x3 -> x3^{-1} A^{2l}, all preserving t3 = x3^N + x3^{-N}.
The uniqueness experiment samples random generic invariants, builds the
representation through every gauge variant, and certifies that all variants
are pairwise isomorphic while the invariants round-trip.  The variants of a
sphere sample share (q1, q2, q3, Delta), the same at T_N(p0..p3) and T_N at
the puncture roots, which the gauge moves leave alone, with the sampler that
drew the punctures: all come from :func:`sphere.puncture_data` once per
sample, and the orbit starts from the gauge x3 the sampler solved for.  Each
variant takes its own gauge's powers once (:class:`ladder.Gauge`) and
assembles its ladder once; the sampler assembles none.  The pair
certificates M_j M_i^{-1} of two base certificates held as monomials are
again monomial, take dim divisions and reach the residuals as monomials; a
pair with a dense base certificate is searched for directly.  Every pair is
checked by :func:`intertwiner_residuals` on the int-quadruple kernel and by
the gate of the base certificates.

Residuals that are known exactly are not computed.  When a generator's two
images are one scalar matrix s Id bit for bit (every off-diagonal entry an
exact zero), as the puncture images of two reps with equal puncture scalars
are, M s Id - s Id M is exactly zero in the kernel, so its residual is 0.0
without the two products.  This is read off the images themselves (the
flag each rep keeps per image), never off ``puncture_scalars``: a rep file
may hold any puncture image.  The residual gate's scale, the largest entry
over a rep's images, is taken once per rep by the kernel's ``worst`` of its
kept rows (:meth:`Representation.largest_entry`).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matrices, serialize
from .chebyshev import solve_chebyshev
from .errors import SkeinError
from .invariants import commuting_system, extract_invariants
from .ladder import is_pm2
from .matrices import Monomial
from .representation import Representation
from .scalars import RootSystem, Tolerance, approx_eq, make_root_system
from .sphere import (build_sphere_rep_from_params, ladder_product_closed_form,
                     make_sphere_params, trace_laws)
from .surfaces import Surface
from .torus import (TorusParams, build_torus_rep, cycle_scalar, puncture_chebyshev_value,
                    torus_params_from_shadow)


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsomorphismCertificate:
    """An intertwiner kept as it was found, with its residuals and condition estimate.

    ``intertwiner`` is the :class:`Monomial` of a ladder walk, or the frozen
    object array of the dense commuting system.
    """

    intertwiner: object
    residuals: dict
    condition_estimate: float

    @cached_property
    def matrix(self):
        """The intertwiner as a frozen object array, formed on first read."""
        m = self.intertwiner
        return matrices.freeze(m.matrix()) if isinstance(m, Monomial) else m

    @property
    def worst_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


def intertwiner_residuals(m, rep_a: Representation, rep_b: Representation) -> dict:
    """Largest entry magnitude of M rho_a(g) - rho_b(g) M, as a float, per generator.

    ``m`` is a dense matrix or a :class:`Monomial`.  Bigfloat defects run on
    the kernel's int quadruples through :func:`matrices.intertwining_defects`,
    on the rows and patterns each rep keeps (:meth:`Representation.image`),
    bit-identical to ``residual_report(matmul(m, g_a) - matmul(g_b, m))``.
    """
    return dict(zip(rep_a.surface.generators,
                    matrices.intertwining_defects(m, _image_pairs(rep_a, rep_b))))


def _image_pairs(rep_a, rep_b):
    """Each generator's two images, with their patterns, as each rep keeps them."""
    return [(rep_a.image(g), rep_b.image(g)) for g in rep_a.surface.generators]


def _condition_estimate(md) -> float:
    """Ratio of the extreme singular values of a complex128 matrix."""
    svals = np.linalg.svd(md, compute_uv=False)
    if svals[-1] == 0:
        return math.inf
    return float(svals[0] / svals[-1])


def _normalize_by_largest(m):
    best, best_mag = None, -1.0
    n = m.shape[0]
    for i in range(n):
        for j in range(n):
            mag = matrices.entry_magnitude(m[i, j])
            if mag > best_mag:
                best, best_mag = m[i, j], mag
    if best_mag == 0.0:
        return m
    return matrices.mat_scale(best ** (-1), m)


def _certificate(m, rep_a, rep_b, tol):
    """Normalized certificate for a candidate m, or None when m is refused.

    ``m`` is a dense matrix or a :class:`Monomial`.  Either needs a finite
    condition number, then residuals over every generator that pass
    :func:`_within_gate` at ``tol``.  A monomial's condition number is its
    closed form (:meth:`Monomial.condition`) and has no cap, since the gate
    bounds its backward error; a dense candidate's is estimated by a
    complex128 SVD, which cannot certify much above 1e15, and is capped at
    1e12.
    """
    mono = isinstance(m, Monomial)
    cond = m.condition() if mono else _condition_estimate(matrices.to_complex128(m))
    if not math.isfinite(cond) or (not mono and cond > 1e12):
        return None
    m = m.normalized() if mono else matrices.freeze(_normalize_by_largest(m))
    cert = IsomorphismCertificate(m, intertwiner_residuals(m, rep_a, rep_b), cond)
    return cert if _within_gate(cert, rep_a, rep_b, tol) else None


def _dense_intertwiner(rep_a, rep_b, tol):
    """Solve the full commuting system: dim^2 unknowns, any basis."""
    n = rep_a.dim
    system = commuting_system(rep_a, rep_b, tol)
    if system.shape[0] == 0:
        candidates = [matrices.identity(rep_a.rs, n)]  # every generator is a matching scalar
    else:
        candidates = (vec.reshape(n, n) for vec in matrices.nullspace(system, tol)[1])
    for m in candidates:
        cert = _certificate(m, rep_a, rep_b, tol)
        if cert is not None:
            return cert
    return None


def _within_gate(cert, rep_a, rep_b, tol) -> bool:
    """Whether the certificate's error is below rel_eps * max(1, largest generator entry).

    A dense certificate's error is its worst residual.  A :class:`Monomial`
    M's is its backward error (Higham, *Accuracy and Stability*, ch. 7):
    the largest entry of E = (M g_a - g_b M) M^-1 over the generators.
    g_b + E = M g_a M^-1 is exactly similar to g_a, so a small E puts every
    g_b within the gate of an exact conjugate of the g_a, however large
    M's condition number.  Entry (sigma[k], sigma[l]) of E is R[sigma[k], l]
    / m_l, R the defect, so max |E| <= worst residual / min |m_k|, which is
    worst residual * cond for a normalized M (largest |m_k| = 1).  That
    bound costs nothing and settles most certificates; otherwise the exact
    max |E| is taken in one O(nnz) pass
    (:func:`matrices.monomial_backward_error`).  The exact backend requires
    every residual to be exactly zero.
    """
    if rep_a.rs.backend == "exact":
        return cert.worst_residual == 0.0
    rel_eps = tol.rel_eps if tol is not None else rep_a.rs.tolerance.rel_eps
    cut = rel_eps * max(1.0, rep_a.largest_entry(), rep_b.largest_entry())
    m = cert.intertwiner
    if not isinstance(m, Monomial):
        return cert.worst_residual < cut
    if cert.worst_residual / min(m.magnitudes) < cut:
        return True
    return matrices.monomial_backward_error(m, _image_pairs(rep_a, rep_b)) < cut


def _partners(lam_a, lam_b, tol):
    """For each x of lam_a, the j in increasing order with ``approx_eq(lam_b[j], x, tol)``.

    A complex128 screen passes over the pairs that cannot agree, so the
    matching takes dim^2 float distances and about dim ``approx_eq`` calls:
    each part is read within 2^-53 of its value, so agreeing x and y, with
    |x - y| < rel_eps * max(1, |x|, |y|), are less than (rel_eps + 2^-50)
    max(1, |x|, |y|) apart in floats, under half the screen's cut.  A value
    too large for a float screens nothing.
    """
    rel_eps = (tol or lam_a[0].rs.tolerance).rel_eps
    za = np.array([matrices.to_complex(x) for x in lam_a])
    zb = np.array([matrices.to_complex(y) for y in lam_b])
    if np.isfinite(za).all() and np.isfinite(zb).all():
        scale = np.maximum(1.0, np.maximum.outer(np.abs(za), np.abs(zb)))
        near = np.abs(za[:, None] - zb[None, :]) <= 2 * (rel_eps + 2.0 ** -48) * scale
    else:
        near = np.ones((len(lam_a), len(lam_b)), dtype=bool)
    return [[j for j in np.flatnonzero(row).tolist() if approx_eq(lam_b[j], x, tol)]
            for x, row in zip(lam_a, near)]


def _monomial_intertwiner(rep_a, rep_b, sigma, tol):
    """Walk for M = P_sigma diag(m), where lam_b[sigma[k]] = lam_a[k] on X3.

    Entry (sigma[r], l) of M g_a - g_b M is m_r g_a[r, l] - g_b[sigma[r], sigma[l]] m_l,
    so an entry g_a[r, l] that is nonzero at working precision fixes
    m_r = g_b[sigma[r], sigma[l]] m_l / g_a[r, l].  A breadth-first walk from
    m_0 = 1 over the non-X3 images (for the ladders, X1 steps) takes dim - 1
    divisions.  A line the walk cannot reach goes to the dense system.  Up to
    scale the walk's M is the only monomial candidate, so when
    :func:`_certificate` refuses it no intertwiner exists.  Column l of each
    g_a is read off its kept pattern (``Image.columns``): the rows r it
    lists are the entries that are not exact zeros, in increasing r, and an
    exact zero is never nonzero at working precision, so the walk takes the
    steps a scan of every row would.
    """
    n = rep_a.dim
    images = [(rep_a.matrix(g), rep_b.matrix(g), rep_a.image(g).columns)
              for g in rep_a.surface.x_generators if g != "X3"]
    m = [None] * n
    m[0] = rep_a.rs.one
    reached = [0]
    for l in reached:  # grows while it is walked
        for ga, gb, columns in images:
            for r in columns[l]:
                if m[r] is None and not ga[r, l].is_zero():
                    m[r] = gb[sigma[r], sigma[l]] * m[l] / ga[r, l]
                    reached.append(r)
    if len(reached) < n:
        return _dense_intertwiner(rep_a, rep_b, tol)
    return _certificate(Monomial(sigma, m), rep_a, rep_b, tol)


def intertwiner_search(rep_a: Representation, rep_b: Representation,
                       tol: Tolerance = None):
    """Invertible intertwiner certificate, or None when no intertwiner exists.

    Distinct central characters (puncture scalars) refuse at once.  When both
    X3 images are exactly diagonal, M X3_a = X3_b M forces M to be monomial:
    an X3 eigenvalue of ``rep_a`` without a partner in ``rep_b`` refuses, and
    a simple spectrum fixes the eigenline permutation.  The dim unknowns are
    then walked along the nonzero entries of the other images from m_0 = 1
    (:func:`_monomial_intertwiner`).  A non-diagonal X3 image, a spectrum
    repeating within tolerance or a line the walk cannot reach goes to the
    dense commuting system with dim^2 unknowns.  Walked and dense candidates
    alike must pass the residual gate over every generator, at ``tol`` or
    the root system's tolerance (:func:`_certificate`).  Certificates are
    normalized so the largest entry is 1, and carry residuals over every
    generator.
    """
    if rep_a.surface != rep_b.surface:
        raise ValueError("representations live on different surfaces")
    if rep_a.dim != rep_b.dim or not rep_a.rs.compatible(rep_b.rs):
        raise ValueError("representations have mismatched dimension or backend")
    for g in rep_a.surface.punctures:
        if not approx_eq(rep_a.puncture_scalars[g], rep_b.puncture_scalars[g], tol):
            return None
    if "X3" not in rep_a.surface.x_generators:
        return _dense_intertwiner(rep_a, rep_b, tol)
    if not (rep_a.image("X3").diagonal and rep_b.image("X3").diagonal):
        return _dense_intertwiner(rep_a, rep_b, tol)
    n = rep_a.dim
    partners = _partners(rep_a.matrix("X3").diagonal(), rep_b.matrix("X3").diagonal(), tol)
    if not all(partners):
        return None  # similar diagonal matrices share their spectrum
    sigma = [p[0] for p in partners]
    if any(len(p) > 1 for p in partners) or len(set(sigma)) < n:
        return _dense_intertwiner(rep_a, rep_b, tol)
    return _monomial_intertwiner(rep_a, rep_b, sigma, tol)


# ---------------------------------------------------------------------------
# gauge orbits
# ---------------------------------------------------------------------------

def gauge_orbit(params):
    """All 2N admissible gauges: x3 A^{2l} and x3^{-1} A^{2l}, l = 0..N-1.

    Every variant has the same t3; the built representations are pairwise
    isomorphic (that isomorphism is exactly what the experiment certifies).
    """
    rs = params.rs
    variants = []
    for base in (params.x3, params.gauge.inverse):
        for l in range(rs.N):
            variants.append(dataclasses.replace(params, x3=base * rs.a_pow(2 * l)))
    return variants


# ---------------------------------------------------------------------------
# genericity predicates
# ---------------------------------------------------------------------------

@dataclass
class GenericityReport:
    surface: str
    checks: dict
    exceptional: dict
    details: dict
    generic: bool


def _torus_exceptional(t1, t2, t3, rs, tol):
    pm2 = [is_pm2(t, rs, tol) for t in (t1, t2, t3)]
    all_pm2 = all(pm2)
    all_zero = all(t.is_zero() for t in (t1, t2, t3))
    # one trace at +/-2, the others squaring to -4/3, with product -8/3
    minus43 = rs.scalar(-4) / rs.scalar(3)
    squares = [approx_eq(t * t, minus43, tol) for t in (t1, t2, t3)]
    mixed = False
    for i in range(3):
        others = [j for j in range(3) if j != i]
        if pm2[i] and all(squares[j] for j in others):
            prod = t1 * t2 * t3
            if approx_eq(prod, rs.scalar(-8) / rs.scalar(3), tol):
                mixed = True
    return {
        "all_traces_pm2": all_pm2,
        "all_traces_zero": all_zero,
        "one_pm2_two_isotropic": mixed,
    }


def genericity_check(surface: Surface, invariants: dict, tol: Tolerance = None) -> GenericityReport:
    """Evaluate the hypotheses under which reconstruction is unique.

    ``invariants`` maps names to scalars: t1, t2, t3 for the torus;
    p0..p3 and t3 for the sphere.
    """
    if surface.kind in ("torus1", "torus0"):
        t1, t2, t3 = invariants["t1"], invariants["t2"], invariants["t3"]
        rs = t1.rs
        cycle = cycle_scalar(t1, t2, t3)
        checks = {
            "t3_not_pm2": not is_pm2(t3, rs, tol),
            "ladder_cycle_nonzero": not cycle.is_zero(),
        }
        exceptional = _torus_exceptional(t1, t2, t3, rs, tol)
        details = {"cycle_scalar": cycle}
        generic = all(checks.values())
        return GenericityReport(surface.tag, checks, exceptional, details, generic)
    if surface.kind == "sphere4":
        t3 = invariants["t3"]
        rs = t3.rs
        p = [invariants[f"p{i}"] for i in range(4)]
        nondegenerate = not is_pm2(t3, rs, tol)
        checks = {"t3_not_pm2": nondegenerate}
        details = {}
        if nondegenerate:
            x3 = solve_chebyshev(t3).base
            params = make_sphere_params(*p, rs.zero, rs.zero, x3)
            tn_roots = list(params.chebyshev_at_roots)
            closed = ladder_product_closed_form(params)
            checks["ladder_product_nonzero"] = not closed.is_zero()
            # record the hypothesis under both sign conventions for the trace
            details.update({
                "ladder_product_closed_form": closed,
                "chebyshev_at_roots": tn_roots,
                "hits_with_t3": [approx_eq(t3, v, tol) for v in tn_roots],
                "hits_with_minus_t3": [approx_eq(-t3, v, tol) for v in tn_roots],
            })
        else:
            checks["ladder_product_nonzero"] = False
        generic = all(checks.values())
        return GenericityReport(surface.tag, checks, {}, details, generic)
    return GenericityReport(surface.tag, {}, {}, {}, True)


# ---------------------------------------------------------------------------
# random generic invariants
# ---------------------------------------------------------------------------

# rejection distance, in magnitude, from the degenerate loci
_MARGIN = 1e-5


def _annulus_draw(rng, lo=0.5, hi=2.0):
    radius = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def _trace_draw(rs, rng):
    a = rs.scalar(_annulus_draw(rng))
    return a + a ** (-1)


def _near_pm2(t, two):
    """Whether t lies within _MARGIN of 2 or -2 (a rejection test, not a decision)."""
    return float((t - two).magnitude()) < _MARGIN or float((t + two).magnitude()) < _MARGIN


def sample_torus_shadow(rs: RootSystem, rng):
    """Random generic torus invariants (t1, t2, t3, p), rejection-sampled."""
    two = rs.scalar(2)
    while True:
        t1, t2, t3 = (_trace_draw(rs, rng) for _ in range(3))
        if _near_pm2(t3, two):
            continue
        if float(cycle_scalar(t1, t2, t3).magnitude()) < _MARGIN:
            continue
        w = puncture_chebyshev_value(t1, t2, t3)
        if _near_pm2(w, two):
            continue  # keep the N puncture solutions distinct
        p = solve_chebyshev(w).values[rng.randrange(rs.N)]
        return {"t1": t1, "t2": t2, "t3": t3, "p": p}


def sample_sphere_invariants(rs: RootSystem, rng):
    """Random generic sphere invariants (p0..p3, t1, t2, t3)."""
    return _sample_sphere(rs, rng)[0]


def _sample_sphere(rs: RootSystem, rng):
    """(invariants, x3): :func:`sample_sphere_invariants` with the gauge it solved for.

    The traces t1, t2 are realized (not free): they are the trace laws of
    :func:`sphere.trace_laws` at the closed-form cycle product and a random
    wraparound constant u, which keeps the sampled tuple on the realizable
    locus without building a representation.
    """
    two = rs.scalar(2)
    while True:
        p = [rs.scalar(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
             for _ in range(4)]
        a = rs.scalar(_annulus_draw(rng))
        t3 = a ** rs.N + a ** (-rs.N)
        if _near_pm2(t3, two):
            continue
        x3 = solve_chebyshev(t3).base
        params = make_sphere_params(*p, rs.zero, rs.zero, x3)
        closed = ladder_product_closed_form(params)
        if float(closed.magnitude()) < _MARGIN:
            continue
        u = rs.scalar(_annulus_draw(rng))
        t1, t2 = (law.at(u) for law in trace_laws(params, closed))
        return {"p0": p[0], "p1": p[1], "p2": p[2], "p3": p[3],
                "t1": t1, "t2": t2, "t3": t3}, x3


# ---------------------------------------------------------------------------
# the uniqueness experiment
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    surface: Surface
    N: int
    samples: int
    seed: int
    precision_bits: int = 256
    residual_threshold: float = 1e-20


@dataclass
class ExperimentReport:
    config: dict
    records: list
    passed: bool
    worst_residual: float

    def to_json(self):
        return {"config": self.config, "records": self.records, "passed": self.passed,
                "worst_residual": self.worst_residual}


def _build_variant_reps(variants):
    """One representation per gauge variant of one shadow."""
    build = build_torus_rep if isinstance(variants[0], TorusParams) else build_sphere_rep_from_params
    return [build(v) for v in variants]


def _roundtrip_ok(rep, invariants, tol):
    shadow = extract_invariants(rep)
    ok = True
    for name in rep.surface.x_generators:
        ok = ok and approx_eq(shadow.t(name), invariants[f"t{name[1]}"], tol)
    for pname in rep.surface.punctures:
        key = "p" if pname == "P" else pname.lower()
        ok = ok and approx_eq(shadow.puncture_values[pname], invariants[key], tol)
    return ok and shadow.compatibility_ok


def uniqueness_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Sample generic invariants and certify the whole gauge orbit isomorphic.

    Per sample: build the representation from every gauge variant, solve for
    base intertwiners M_j against the first variant, and certify every pair
    i < j: two monomial base certificates compose into M_j M_i^{-1}
    (:meth:`Monomial.over`), and a pair with a dense one is passed to
    :func:`intertwiner_search`.  Every pair's certificate must have a finite
    condition number (the closed form :meth:`Monomial.condition` for a
    composed pair), pass the gate of the base certificates
    (:func:`_within_gate`, a backward-error rule for a monomial) and keep
    its residual (the largest of :func:`intertwiner_residuals`) below
    ``residual_threshold``; a pair (0, j) is its base certificate, which
    :func:`_certificate` found finite and in the gate at the same reps and
    tolerance, so only its residual is checked again.  Any failed certificate,
    oversized residual or backward error, or failed invariant round-trip
    marks the report failed with full reproduction data.
    """
    if config.samples < 1:
        raise ValueError(f"samples must be at least 1, got {config.samples}")
    rs = make_root_system(config.N, "bigfloat", config.precision_bits)
    rng = random.Random(config.seed)
    tol = Tolerance(config.residual_threshold)
    records = []
    worst_overall = 0.0
    passed = True

    for index in range(config.samples):
        if config.surface.kind == "torus1":
            inv = sample_torus_shadow(rs, rng)
            params = torus_params_from_shadow(inv["t1"], inv["t2"], inv["t3"], inv["p"])
        elif config.surface.kind == "sphere4":
            inv, x3 = _sample_sphere(rs, rng)
            params = make_sphere_params(inv["p0"], inv["p1"], inv["p2"], inv["p3"],
                                        inv["t1"], inv["t2"], x3)
        else:
            raise ValueError(f"experiment not defined for surface {config.surface.tag}")

        variants = gauge_orbit(params)
        failures = []
        worst_residual = 0.0
        try:
            reps = _build_variant_reps(variants)
            roundtrip = _roundtrip_ok(reps[0], inv, tol)
            if not roundtrip:
                failures.append("invariant round-trip failed")

            base_certs = [None] * len(reps)
            for j in range(1, len(reps)):
                cert = intertwiner_search(reps[0], reps[j])
                if cert is None:
                    failures.append(f"no intertwiner between variants 0 and {j}")
                base_certs[j] = cert
            pairs_checked = 0
            if not failures:
                for i in range(len(reps) - 1):
                    for j in range(i + 1, len(reps)):
                        pairs_checked += 1
                        cert = base_certs[j]  # a pair (0, j) is its base certificate
                        if i:
                            m_i, m_j = base_certs[i].intertwiner, cert.intertwiner
                            if isinstance(m_i, Monomial) and isinstance(m_j, Monomial):
                                pair = m_j.over(m_i)
                                cert = IsomorphismCertificate(
                                    pair, intertwiner_residuals(pair, reps[i], reps[j]),
                                    pair.condition())
                            else:
                                cert = intertwiner_search(reps[i], reps[j])
                        if cert is None:
                            failures.append(f"no intertwiner between variants {i} and {j}")
                            continue
                        worst_residual = max(worst_residual, cert.worst_residual)
                        if i and not math.isfinite(cert.condition_estimate):
                            failures.append(f"intertwiner {i}->{j} not invertible")
                        elif i and not _within_gate(cert, reps[i], reps[j], None):
                            failures.append(f"backward error too large for pair {i}->{j}")
                        if cert.worst_residual >= config.residual_threshold:
                            failures.append(f"residual too large for pair {i}->{j}")
        except SkeinError as exc:
            failures.append(f"construction error: {exc}")
            pairs_checked = 0
            roundtrip = False

        worst_overall = max(worst_overall, worst_residual)
        ok = not failures
        passed = passed and ok
        records.append({
            "index": index,
            "invariants": {k: serialize.scalar_to_json(v) for k, v in inv.items()},
            "variants": len(variants),
            "pairs_checked": pairs_checked,
            "roundtrip_ok": roundtrip,
            "worst_residual": worst_residual,
            "ok": ok,
            "failures": failures,
        })

    config_json = dict(dataclasses.asdict(config), surface=config.surface.tag)
    return ExperimentReport(config_json, records, passed, worst_overall)
