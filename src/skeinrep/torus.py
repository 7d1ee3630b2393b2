"""N-dimensional irreducible representations of the punctured-torus algebra.

The construction is parametrized by a gauge scalar x3 with
t3 = x3^N + x3^{-N}, the puncture scalar p, and the wraparound constant u of
the eigenline ladder of :mod:`skeinrep.ladder` with twist A^2.  The down step
of column k carries

    c_k = -(p + x3^2 A^{4k-2} + x3^{-2} A^{-4k+2}).

Sign conventions.  Writing K = -(T_N(p) + x3^{2N} + x3^{-2N}) and
s = x3^N - x3^{-N}, the traces realized by the construction are

    t1 = (u x3^{-N} - u^{-1} x3^{N} K) / s
    t2 = (-u + u^{-1} K) / s

equivalently u = -t1 - t2 x3^N, and then K = t1 t2 t3 + t1^2 + t2^2 with a
plus sign.  This sign pairing is pinned by brute-force verification at N = 3
in the test suite; the opposite pairing fails the trace round-trip.

A build takes x3^{-1}, x3^N, x3^{-N} and x3^{+/-2} once each, from the
parameters' :class:`~skeinrep.ladder.Gauge`, for t3, u, the c_k and the
ladder assembly alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import ladder
from .chebyshev import chebyshev_eval, solve_chebyshev
from .errors import DegenerateShadow, IncompatiblePuncture, VanishingCycle
from .ladder import Gauge, LadderSystem
from .representation import Representation, assemble
from .scalars import BigComplex, RootSystem, Scalar, approx_eq
from .surfaces import TORUS0, TORUS1


def puncture_chebyshev_value(t1, t2, t3):
    """The value T_N(p) must take for a shadow (t1, t2, t3)."""
    return -t1 * t2 * t3 - t1 * t1 - t2 * t2 - t3 * t3 + 2


def cycle_scalar(t1, t2, t3):
    """The scalar by which the N-step up-then-down ladder cycle acts."""
    return t1 * t2 * t3 + t1 * t1 + t2 * t2


@dataclass(frozen=True)
class TorusParams:
    """Validated construction data (t_i = minus the shadow traces)."""

    rs: RootSystem
    t1: Scalar
    t2: Scalar
    x3: Scalar
    p: Scalar

    @cached_property
    def gauge(self) -> Gauge:
        return Gauge(self.rs, self.x3)

    @property
    def t3(self):
        return self.gauge.t3

    @property
    def u(self):
        """Wraparound constant of the ladder: u = -t1 - t2 x3^N."""
        return -self.t1 - self.t2 * self.gauge.power_n


def torus_params_from_shadow(t1, t2, t3, p) -> TorusParams:
    """Choose the canonical gauge for a shadow and validate it.

    x3 is the principal N-th root of the larger-magnitude root of
    y^2 - t3 y + 1; the other 2N - 1 admissible gauges are enumerated by
    :func:`skeinrep.uniqueness.gauge_orbit`.
    """
    rs = t1.rs
    if not isinstance(t1, BigComplex):
        raise TypeError("shadow reconstruction requires the bigfloat backend; "
                        "use torus_params_exact for the exact family")
    ladder.check_nondegenerate_t3(t3, rs)
    cyc = cycle_scalar(t1, t2, t3)
    if cyc.is_zero():
        raise VanishingCycle("t1 t2 t3 + t1^2 + t2^2 = 0; the ladder cycle vanishes")
    expected = puncture_chebyshev_value(t1, t2, t3)
    if not approx_eq(chebyshev_eval(rs.N, p), expected):
        raise IncompatiblePuncture(
            f"T_N(p) = {chebyshev_eval(rs.N, p)} but the shadow requires {expected}")
    x3 = solve_chebyshev(t3).base
    return TorusParams(rs, t1, t2, x3, p)


def torus_params_exact(x3, p, u) -> TorusParams:
    """Fully exact parametrization: t1, t2 are derived from (x3, p, u).

    Works in either backend; it is the only construction path available in
    the exact backend, where extracting x3 from t3 would need an N-th root.
    """
    rs = x3.rs
    n = rs.N
    if x3.is_zero():
        raise VanishingCycle("x3 must be nonzero")
    if u.is_zero():
        raise VanishingCycle("u must be nonzero")
    gauge = Gauge(rs, x3)
    s = gauge.s
    if s.is_zero():
        raise DegenerateShadow("x3^N = +/-1 puts t3 at +/-2")
    big_k = -(chebyshev_eval(n, p) + x3 ** (2 * n) + x3 ** (-2 * n))
    u_inv = u ** (-1)
    t1 = (u * gauge.power_minus_n - u_inv * gauge.power_n * big_k) / s
    t2 = (-u + u_inv * big_k) / s
    return TorusParams(rs, t1, t2, x3, p)


def _torus_matrices(params: TorusParams, u):
    rs = params.rs
    gauge = params.gauge
    p = params.p
    if u.is_zero():
        raise VanishingCycle("t1 + t2 x3^N = 0; the wraparound constant vanishes")
    c = [-(p + gauge.square * rs.a_pow(4 * k - 2) + gauge.inverse_square * rs.a_pow(-4 * k + 2))
         for k in range(1, rs.N + 1)]
    return ladder.ladder_matrices(gauge, 2, c, u)


def build_torus_rep(params: TorusParams, surface=TORUS1) -> Representation:
    """Assemble the representation matrices for a validated parameter set."""
    u = params.u
    m1, m2, m3 = _torus_matrices(params, u)
    provenance = {
        "params": {"t1": params.t1, "t2": params.t2, "t3": params.t3, "p": params.p},
        "gauge": {"x3": params.x3, "u": u},
    }
    punctures = {"P": params.p} if surface is TORUS1 else {}
    return assemble(surface, params.rs, params.rs.N,
                    {"X1": m1, "X2": m2, "X3": m3}, punctures, provenance)


def ladder_system_torus(rep: Representation, x3) -> LadderSystem:
    """Ladder operators U_k = A X1 - x3 A^{2k} X2, D_k = A X1 - x3^{-1} A^{-2k} X2."""
    return ladder.ladder_system(rep, 2, Gauge(rep.rs, x3))


def closed_torus_rep(t1, t2, t3) -> Representation:
    """Unpunctured-torus representation: the puncture scalar is pinned.

    The closed presentation adds the relation [puncture polynomial]
    + A^2 + A^{-2} = 0, so p = -(A^2 + A^{-2}) and the admissible shadows
    satisfy t1 t2 t3 + t1^2 + t2^2 + t3^2 - 4 = 0.
    """
    rs = t1.rs
    # T_N(p) = -2 for every odd N, so compatibility degenerates to a polynomial
    # condition on the shadow alone, which implies the T_N(p) check of
    # torus_params_from_shadow
    if not approx_eq(rs.scalar(-2), puncture_chebyshev_value(t1, t2, t3)):
        raise IncompatiblePuncture(
            "closed-torus shadows must satisfy t1 t2 t3 + t1^2 + t2^2 + t3^2 = 4")
    p = -(rs.a_pow(2) + rs.a_pow(-2))
    return build_torus_rep(torus_params_from_shadow(t1, t2, t3, p), surface=TORUS0)
