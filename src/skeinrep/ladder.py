"""The eigenline ladder shared by the punctured torus and the four-puncture sphere.

Both constructions store the X3 image diagonal, with the eigenvalue tower

    lambda_k = x3 A^{tk} + x3^{-1} A^{-tk},   k = 1..N,

twisted by t = 2 on the torus and t = 4 on the sphere, and write X1 and X2 as
the same cyclic up/down ladder between the eigenlines.  With
d_k = x3 A^{tk} - x3^{-1} A^{-tk} and h = t/2,

    X1 v_k = au_k * [ladder up] + ad_k * [ladder down]
    X2 v_k = (-1/d_k) * [ladder up] + (1/d_k) * [ladder down]

where au_k = -x3^{-1} A^{-tk-h} / d_k and ad_k = x3 A^{tk-h} / d_k.  The up
step sends v_k to v_{k+1} (u v_1 at the wraparound); the down step sends v_k
to down_k v_{k-1} (down_1/u v_N at the wraparound).  The surfaces differ only
in the twist, the down scalars and the sphere's diagonal offsets beta_k^+/-,
which the same assembly (:func:`ladder_matrices`) adds on the diagonal (the
torus has none).

The ladder operators U_k = A^h X1 - x3 A^{tk} X2 + beta_k^+ and
D_k = A^h X1 - x3^{-1} A^{-tk} X2 + beta_k^- shift the k-th eigenline one
step up and one step down.

Every scalar above that depends on the gauge alone comes from one
:class:`Gauge`, which the torus and sphere parameters expose: it takes
x3^{-1}, x3^N and x3^{-N} once each, and forms each product x3 A^j and
x3^{-1} A^j once, keyed by j mod 2N (the period of ``rs.a_pow``).  The
tower, the ladder's column terms and the sphere's offsets read the same
products, so a construction forms each of them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import matrices
from .errors import DegenerateShadow, EigenstructureMismatch
from .scalars import Scalar, approx_eq


def is_pm2(t, rs, tol=None) -> bool:
    """Whether the trace t is +/-2 within ``tol``; at t3 = +/-2 the X3 spectrum degenerates."""
    two = rs.scalar(2)
    return approx_eq(t, two, tol) or approx_eq(t, -two, tol)


def check_nondegenerate_t3(t3, rs):
    """Raise DegenerateShadow at t3 = +/-2, where the X3 spectrum degenerates."""
    if is_pm2(t3, rs):
        raise DegenerateShadow(f"t3 = {t3} is at +/-2; the X3 spectrum degenerates")


class Gauge:
    """A gauge scalar x3 with the powers and A-shifts a ladder reads, each taken once.

    Every value is computed on first use by the operation a construction
    would make, so it has that operation's bits.
    """

    def __init__(self, rs, x3):
        self.rs, self.x3 = rs, x3
        self._shifted, self._inverse_shifted = {}, {}

    @cached_property
    def inverse(self):
        return self.x3 ** (-1)

    @cached_property
    def power_n(self):
        return self.x3 ** self.rs.N

    @cached_property
    def power_minus_n(self):
        return self.x3 ** (-self.rs.N)

    @cached_property
    def t3(self):
        """x3^N + x3^{-N}."""
        return self.power_n + self.power_minus_n

    @cached_property
    def s(self):
        """x3^N - x3^{-N}, zero where x3^N = +/-1 puts t3 at +/-2."""
        return self.power_n - self.power_minus_n

    @cached_property
    def square(self):
        return self.x3 * self.x3

    @cached_property
    def inverse_square(self):
        return self.inverse * self.inverse

    def shifted(self, j):
        """x3 A^j."""
        return self._times_a_pow(self._shifted, self.x3, j)

    def inverse_shifted(self, j):
        """x3^{-1} A^j."""
        return self._times_a_pow(self._inverse_shifted, self.inverse, j)

    def _times_a_pow(self, memo, base, j):
        key = j % (2 * self.rs.N)
        value = memo.get(key)
        if value is None:
            value = memo[key] = base * self.rs.a_pow(key)
        return value


def eigenvalue_tower(gauge, twist):
    """lambda_k = x3 A^{tk} + x3^{-1} A^{-tk} for k = 1..N."""
    return [gauge.shifted(twist * k) + gauge.inverse_shifted(-twist * k)
            for k in range(1, gauge.rs.N + 1)]


def _cell(terms):
    """Sum of a cell's (X1, X2) terms in assembly order.

    The first term is assigned, not added to a zero: every term is already
    rounded to the working precision, so the two give the same bits.
    """
    x1, x2 = terms[0]
    for t1, t2 in terms[1:]:
        x1, x2 = x1 + t1, x2 + t2
    return x1, x2


def ladder_matrices(gauge, twist, down, u, beta_plus=None, beta_minus=None):
    """(X1, X2, X3) of the ladder at wraparound ``u``, with the diagonal offsets beta^+/- if given.

    ``down[k - 1]`` is the down scalar of column k; column 1 divides it by u,
    and column N's up step is scaled by u.  Column k adds
    (x3^{-1} A^{-tk-h} beta_k^+ - x3 A^{tk-h} beta_k^-) / d_k to X1 and
    (beta_k^+ - beta_k^-) / d_k to X2 on the diagonal.  Each cell sums its
    terms in column order, and within a column up, down, diagonal: at N = 1
    all three share one cell, at N = 2 the up and down steps do.
    """
    rs = gauge.rs
    n = rs.N
    half = twist // 2
    down_wrap = down[0] / u
    cells = {}  # (row, column) -> [(X1 term, X2 term)]
    tower = []  # the X3 eigenvalues, from the products d_k takes
    for k in range(1, n + 1):
        col = k - 1
        plus, minus = gauge.shifted(twist * k), gauge.inverse_shifted(-twist * k)
        dk = plus - minus
        tower.append(plus + minus)
        lo = gauge.inverse_shifted(-twist * k - half)
        hi = gauge.shifted(twist * k - half)
        # round-to-nearest is symmetric, so -(1 / d_k) has the bits of -1 / d_k
        inv = rs.one / dk
        # v_k -> v_{k+1}, wrapping to u v_1
        up1, up2 = -lo / dk, -inv
        if k == n:
            up1, up2 = up1 * u, up2 * u
        cells.setdefault((k % n, col), []).append((up1, up2))
        # v_k -> down_k v_{k-1}, wrapping to down_1 / u v_N
        d = down_wrap if k == 1 else down[k - 1]
        cells.setdefault(((k - 2) % n, col), []).append(((hi / dk) * d, inv * d))
        if beta_plus is not None:
            bp, bm = beta_plus[k - 1], beta_minus[k - 1]
            cells.setdefault((col, col), []).append(((lo * bp - hi * bm) / dk, (bp - bm) / dk))
    m1 = matrices.zeros(rs, n)
    m2 = matrices.zeros(rs, n)
    for cell, terms in cells.items():
        m1[cell], m2[cell] = _cell(terms)
    return m1, m2, matrices.freeze(matrices.diagonal(tower))


@dataclass(frozen=True)
class LadderSystem:
    """Up/down operators cyclically shifting the eigenlines of the X3 image.

    ``twist`` is the exponent step of the eigenvalue tower: 2 on the torus,
    4 on the four-puncture sphere.  ``u`` is the scalar by which the N-step
    up cycle acts on the first eigenline.
    """

    twist: int
    eigenvalues: tuple
    up: tuple
    down: tuple
    u: Scalar


def _check_eigenstructure(rep, lam):
    """Require the X3 image to be diagonal with the expected eigenvalue order."""
    m3 = rep.matrix("X3")
    n = rep.dim
    zero = rep.rs.zero
    for i in range(n):
        for j in range(n):
            if i == j:
                if not approx_eq(m3[i, i], lam[i]):
                    raise EigenstructureMismatch(
                        f"X3 eigenvalue {m3[i, i]} at position {i + 1} does not match {lam[i]}")
            elif not approx_eq(m3[i, j], zero):
                raise EigenstructureMismatch("X3 image is not diagonal in this basis")


def _check_ladder_property(ups, downs, rep):
    zero = rep.rs.zero
    n = rep.dim
    for k in range(1, n + 1):
        up_col = [ups[k - 1][i, k - 1] for i in range(n)]
        down_col = [downs[k - 1][i, k - 1] for i in range(n)]
        up_target = k % n
        down_target = (k - 2) % n
        for i in range(n):
            if i != up_target and not approx_eq(up_col[i], zero):
                raise EigenstructureMismatch(
                    f"up operator {k} leaks outside eigenline {up_target + 1}")
            if i != down_target and not approx_eq(down_col[i], zero):
                raise EigenstructureMismatch(
                    f"down operator {k} leaks outside eigenline {down_target + 1}")


def ladder_system(rep, twist, gauge, beta_plus=None, beta_minus=None) -> LadderSystem:
    """Extract and validate U_k, D_k; the offsets beta^+/- default to none.

    Validates that the X3 image is diagonal with the eigenvalue tower of
    ``twist`` and that each operator shifts the corresponding eigenline by
    one step.
    """
    rs = rep.rs
    n = rep.dim
    lam = eigenvalue_tower(gauge, twist)
    _check_eigenstructure(rep, lam)
    m1, m2 = rep.matrix("X1"), rep.matrix("X2")
    scaled_m1 = matrices.mat_scale(rs.a_pow(twist // 2), m1)
    ups, downs = [], []
    for k in range(1, n + 1):
        up = scaled_m1 - matrices.mat_scale(gauge.shifted(twist * k), m2)
        down = scaled_m1 - matrices.mat_scale(gauge.inverse_shifted(-twist * k), m2)
        if beta_plus is not None:
            up = up + matrices.scalar_matrix(beta_plus[k - 1], n)
            down = down + matrices.scalar_matrix(beta_minus[k - 1], n)
        ups.append(up)
        downs.append(down)
    _check_ladder_property(ups, downs, rep)
    u = rep.provenance.get("gauge", {}).get("u")
    if u is None:
        u = ups[n - 1][0, n - 1]
    return LadderSystem(twist, tuple(lam), tuple(ups), tuple(downs), u)
