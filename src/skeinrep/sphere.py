"""Representations of the four-puncture sphere algebra from invariants.

The representation is the eigenline ladder of :mod:`skeinrep.ladder` with
twist A^4, which the ladder assembles together with the scalar offsets
beta_k^+/- of its ladder operators.  The offsets are built from the symmetric
puncture combinations

    q1 = p0 p1 + p2 p3,  q2 = p0 p2 + p1 p3,  q3 = p0 p3 + p1 p2,
    Delta = p0 p1 p2 p3 + p0^2 + p1^2 + p2^2 + p3^2,

whose q sums are those of the presentation's puncture pairs
(:data:`surfaces.PUNCTURE_PAIRS`, which the relations' central terms read).
The down-then-up composite acts on the k-th eigenline by the scalar R_k,
which is the down scalar of column k + 1.
The product of all R_k has a closed form in terms of T_N at the four roots
of (r^2 + p0 p3 r + p0^2 + p3^2 - 4)(r^2 + p1 p2 r + p1^2 + p2^2 - 4); its
nonvanishing, together with t3 != +/-2, is the genericity condition under
which the construction goes through.

The wraparound constant u is fixed by the two target traces.  The trace of
the k-step expansion collapses to

    t1(u) = alpha u + beta / u + f,   t2(u) = alpha' u + beta' / u + g

with alpha = -x3^{-N}/s, beta = x3^N P/s, alpha' = -1/s, beta' = P/s,
s = x3^N - x3^{-N} and P = prod(R).  The offsets f, g do not depend on u and
have a closed form.  The classical shadow lies on the character variety
(Bonahon-Wong): with (Q1, Q2, Q3, Delta') the combinations above taken at
T_N(p0), ..., T_N(p3),

    t1 t2 t3 - t1^2 - t2^2 - t3^2 - Q1 t1 - Q2 t2 - Q3 t3 + 4 = Delta'.

Substituting t1(u), t2(u) and matching the coefficients of u and u^{-1}
gives, with y = x3^N, the linear system

    -f + y^{-1} g = -(Q1 y^{-1} + Q2) / s,
    -P f + P y g  =  P (Q1 y + Q2) / s

of determinant -P s, whose solution

    f = (Q2 t3 + 2 Q1) / (t3^2 - 4),   g = (Q1 t3 + 2 Q2) / (t3^2 - 4)

divides only by t3^2 - 4 = s^2, nonzero wherever t3 != +/-2.  f and g
depend on t3 and the punctures alone, so all 2N gauges share them, and
:func:`solve_u` reads no matrix.

Each derived quantity is computed once, at the level it depends on.  The
gauge's powers and products x3 A^j come from the parameters'
:class:`~skeinrep.ladder.Gauge`, which the offsets, the R_k, the ladder
assembly, t3 and :func:`solve_u` share.  The offsets and R_k are the
parameters' one :class:`LadderScalars` (``SphereParams.ladder``), which
:func:`solve_u`, the assembly and the ladder operators share.
(q1, q2, q3, Delta), (Q1, Q2) and
T_N at the four puncture roots depend on N and p0..p3 alone, which the 2N
gauge moves keep; they come from one bounded cache keyed by the exact values
(:func:`puncture_data`), so a gauge orbit, the sampler that drew its
punctures and the genericity check compute them once.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .chebyshev import chebyshev_eval, solve_chebyshev
from .errors import DegenerateShadow, NoConsistentRoot, VanishingCycle
from .ladder import (Gauge, LadderSystem, check_nondegenerate_t3, ladder_matrices,
                     ladder_system)
from .representation import Representation, assemble
from .scalars import BigComplex, RootSystem, Scalar, approx_eq, solve_quadratic
from .surfaces import PUNCTURE_PAIRS, SPHERE4, sphere_k


def sphere_aux_invariants(p0, p1, p2, p3):
    """The four symmetric combinations (q1, q2, q3, Delta), q from the relations' pairs."""
    p = (p0, p1, p2, p3)
    q = tuple(p[a] * p[b] + p[c] * p[d] for (a, b), (c, d) in PUNCTURE_PAIRS)
    return q + (p0 * p1 * p2 * p3 + p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3,)


def chebyshev_at_puncture_roots(rs, p0, p1, p2, p3) -> tuple:
    """T_N at the roots r0, r1, r2, r3 of the two puncture quadratics.

    r0, r3 solve r^2 + p0 p3 r + p0^2 + p3^2 - 4 = 0 and r1, r2 solve
    r^2 + p1 p2 r + p1^2 + p2^2 - 4 = 0.
    """
    r0, r3 = solve_quadratic(rs.one, p0 * p3, p0 ** 2 + p3 ** 2 - 4)
    r1, r2 = solve_quadratic(rs.one, p1 * p2, p1 ** 2 + p2 ** 2 - 4)
    return tuple(chebyshev_eval(rs.N, r) for r in (r0, r1, r2, r3))


class PunctureData:
    """The invariants of one p0..p3 that the gauge moves keep, each taken on first use.

    ``aux`` is (q1, q2, q3, Delta); ``shadow_aux`` is the same at
    T_N(p0), ..., T_N(p3), whose (Q1, Q2) give the trace offsets f, g; and
    ``chebyshev_at_roots`` is T_N at the puncture roots, which needs the
    bigfloat backend.  An exact construction only reads ``aux``.
    """

    def __init__(self, rs, punctures):
        self.rs, self.punctures = rs, punctures

    @cached_property
    def aux(self):
        return sphere_aux_invariants(*self.punctures)

    @cached_property
    def shadow_aux(self):
        return sphere_aux_invariants(*(chebyshev_eval(self.rs.N, p) for p in self.punctures))

    @cached_property
    def chebyshev_at_roots(self):
        return chebyshev_at_puncture_roots(self.rs, *self.punctures)


@lru_cache(maxsize=64)
def puncture_data(rs, p0, p1, p2, p3) -> PunctureData:
    """The one :class:`PunctureData` of (rs, p0..p3), by exact value.

    Scalars compare equal exactly when every operation reads the same bits
    from them, so a hit gives the values a fresh computation would; the
    cache keeps the 64 most recently used tuples.
    """
    return PunctureData(rs, (p0, p1, p2, p3))


@dataclass(frozen=True)
class SphereParams:
    rs: RootSystem
    p0: Scalar
    p1: Scalar
    p2: Scalar
    p3: Scalar
    t1: Scalar
    t2: Scalar
    x3: Scalar

    @cached_property
    def gauge(self) -> Gauge:
        return Gauge(self.rs, self.x3)

    @cached_property
    def ladder(self) -> LadderScalars:
        """The offsets and R_k (:func:`ladder_scalars_sphere`), taken once."""
        return ladder_scalars_sphere(self)

    @property
    def t3(self):
        return self.gauge.t3

    @property
    def punctures(self):
        return (self.p0, self.p1, self.p2, self.p3)

    @property
    def aux(self):
        return puncture_data(self.rs, *self.punctures).aux

    @property
    def shadow_aux(self):
        """(Q1, Q2, Q3, Delta') at T_N(p0), ..., T_N(p3) (:class:`PunctureData`)."""
        return puncture_data(self.rs, *self.punctures).shadow_aux

    @property
    def chebyshev_at_roots(self):
        """T_N at the puncture roots (:func:`chebyshev_at_puncture_roots`)."""
        return puncture_data(self.rs, *self.punctures).chebyshev_at_roots


def make_sphere_params(p0, p1, p2, p3, t1, t2, x3) -> SphereParams:
    params = SphereParams(x3.rs, p0, p1, p2, p3, t1, t2, x3)
    if params.gauge.s.is_zero():
        raise DegenerateShadow("x3^N = +/-1 puts t3 at +/-2")
    return params


@dataclass(frozen=True)
class LadderScalars:
    """beta_k^+/- offsets and the composite scalars R_k, k = 1..N."""

    beta_plus: tuple
    beta_minus: tuple
    r_scalars: tuple

    def cycle_product(self):
        prod = None
        for r in self.r_scalars:
            prod = r if prod is None else prod * r
        return prod


def ladder_scalars_sphere(params: SphereParams) -> LadderScalars:
    """The offsets and R_k from the gauge's products x3 A^{4k+2}, x3^{-1} A^{-4k-2}.

    The products, the assembly's hi_{k+1} and lo_k, are formed once, and so
    is each denominator x3 A^{4k+2} - x3^{-1} A^{-4k-2}, which beta_k^+ and
    beta_{k+1}^- share: A^{4N+2} = A^2, so beta_1^- takes beta_N^+'s.
    """
    rs = params.rs
    n = rs.N
    g = params.gauge
    q1, q2, q3, delta = params.aux
    up = [g.shifted(4 * k + 2) for k in range(1, n + 1)]
    down = [g.inverse_shifted(-4 * k - 2) for k in range(1, n + 1)]
    dens = [a - b for a, b in zip(up, down)]

    beta_plus, beta_minus = [], []
    for k in range(1, n + 1):
        beta_plus.append((q2 + up[k - 1] * q1) / dens[k - 1])
        beta_minus.append((-q2 - down[k - 2] * q1) / dens[k - 2])

    r_scalars = []
    for k in range(1, n + 1):
        bp = beta_plus[k - 1]
        bm_next = beta_minus[k % n]          # offsets are N-periodic
        rk = -(delta - 2
               + g.square * rs.a_pow(8 * k + 4)
               + g.inverse_square * rs.a_pow(-8 * k - 4)
               + (up[k - 1] + down[k - 1]) * q3
               - bm_next * bp)
        r_scalars.append(rk)
    return LadderScalars(tuple(beta_plus), tuple(beta_minus), tuple(r_scalars))


def ladder_product_closed_form(params: SphereParams) -> Scalar:
    """Closed form of prod_k R_k through T_N at four quadratic roots."""
    t3 = params.t3
    num = params.rs.one
    for v in params.chebyshev_at_roots:
        num = num * (t3 - v)
    return -num / (t3 * t3 - 4)


def build_sphere_rep_with_u(params: SphereParams, u: Scalar) -> Representation:
    """Assemble the matrices from the eigenline ladder with wraparound u."""
    rs = params.rs
    n = rs.N
    if u.is_zero():
        raise VanishingCycle("the wraparound constant u must be nonzero")
    ladder = params.ladder
    r = ladder.r_scalars
    # column k steps down by R_{k-1}, column 1 by R_N / u
    m1, m2, m3 = ladder_matrices(params.gauge, 4, r[n - 1:] + r[:n - 1], u,
                                 ladder.beta_plus, ladder.beta_minus)
    punctures = dict(zip(SPHERE4.punctures, params.punctures))
    provenance = {
        "params": {"p0": params.p0, "p1": params.p1, "p2": params.p2, "p3": params.p3,
                   "t1": params.t1, "t2": params.t2, "t3": params.t3},
        "gauge": {"x3": params.x3, "u": u},
    }
    return assemble(SPHERE4, rs, n, {"X1": m1, "X2": m2, "X3": m3}, punctures, provenance)


class TraceLaw(namedtuple("TraceLaw", "alpha beta offset")):
    """A trace as a function of the wraparound: t(u) = alpha u + beta / u + offset."""

    __slots__ = ()

    def at(self, u):
        return self.alpha * u + self.beta * u ** (-1) + self.offset


def trace_laws(params: SphereParams, prod_r) -> tuple:
    """The :class:`TraceLaw` of t1 and of t2 for the cycle product ``prod_r``.

    alpha = -x3^{-N}/s, beta = x3^N prod_r/s, alpha' = -1/s,
    beta' = prod_r/s, and the offsets are the closed forms
    f = (Q2 t3 + 2 Q1)/(t3^2 - 4), g = (Q1 t3 + 2 Q2)/(t3^2 - 4) derived in
    the module docstring, with (Q1, Q2) of ``params.shadow_aux``.
    """
    g = params.gauge
    s, t3 = g.s, g.t3
    big_q1, big_q2 = params.shadow_aux[:2]
    den = t3 * t3 - 4
    return (TraceLaw(-g.power_minus_n / s, g.power_n * prod_r / s,
                     (big_q2 * t3 + 2 * big_q1) / den),
            TraceLaw(-params.rs.one / s, prod_r / s, (big_q1 * t3 + 2 * big_q2) / den))


def solve_u(params: SphereParams, t1_target, t2_target) -> Scalar:
    """Determine the wraparound constant from the two target traces.

    With the laws of :func:`trace_laws` at the ladder's cycle product, whose
    offsets f = (Q2 t3 + 2 Q1)/(t3^2 - 4) and g = (Q1 t3 + 2 Q2)/(t3^2 - 4)
    follow from the character-variety relation (module docstring), solve
    alpha u^2 + (f - t1) u + beta = 0 and return the root whose t2(u)
    reproduces the second target.  No matrix is built or read.
    """
    prod_r = params.ladder.cycle_product()
    if prod_r.is_zero():
        raise VanishingCycle("the ladder cycle product vanishes; u is not determined")
    law1, law2 = trace_laws(params, prod_r)
    for root in solve_quadratic(law1.alpha, law1.offset - t1_target, law1.beta):
        if not root.is_zero() and approx_eq(law2.at(root), t2_target):
            return root
    raise NoConsistentRoot(
        "neither root of the trace quadratic reproduces the second trace; "
        "the invariants are not realizable together")


def build_sphere_rep(p0, p1, p2, p3, t1, t2, t3) -> Representation:
    """Full pipeline from invariants: gauge choice, u determination, assembly."""
    rs = t3.rs
    if not isinstance(t3, BigComplex):
        raise TypeError("sphere reconstruction requires the bigfloat backend")
    check_nondegenerate_t3(t3, rs)
    x3 = solve_chebyshev(t3).base
    return build_sphere_rep_from_params(make_sphere_params(p0, p1, p2, p3, t1, t2, x3))


def build_sphere_rep_from_params(params: SphereParams) -> Representation:
    """Pipeline for a prescribed gauge x3 (used by gauge-orbit enumeration)."""
    closed = ladder_product_closed_form(params)
    if closed.is_zero():
        raise VanishingCycle("the ladder cycle product vanishes for these invariants")
    return build_sphere_rep_with_u(params, solve_u(params, params.t1, params.t2))


def small_sphere_rep(p_values, rs: RootSystem = None) -> Representation:
    """The 1-dimensional representation of a sphere with at most 3 punctures.

    An empty tuple gives the trivial representation of the
    unpunctured-sphere algebra; pass ``rs`` explicitly in that case.
    """
    p_values = tuple(p_values)
    surface = sphere_k(len(p_values))
    if p_values:
        rs = p_values[0].rs
    elif rs is None:
        raise ValueError("the empty puncture tuple needs an explicit root system")
    punctures = dict(zip(surface.punctures, p_values))
    return assemble(surface, rs, 1, {}, punctures, {"params": dict(punctures)})


def ladder_system_sphere(rep: Representation, params: SphereParams) -> LadderSystem:
    """Ladder operators with the A^4 twist and scalar offsets.

    U_k = A^2 X1 - x3 A^{4k} X2 + beta_k^+,
    D_k = A^2 X1 - x3^{-1} A^{-4k} X2 + beta_k^-.
    """
    return ladder_system(rep, 4, params.gauge, params.ladder.beta_plus, params.ladder.beta_minus)
