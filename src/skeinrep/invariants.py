"""Extraction and verification of representation invariants.

The shadow of a representation is read off through the degree-N Chebyshev
polynomial: T_N of each loop generator image must be a scalar t, and the
stored trace is Tr r(X) = -t.  Each puncture generator must act by a scalar
p with T_N(p) = -Tr r(P).  Both checks read T_N of a generator and its
diagonal mean from the representation's memo
(:meth:`Representation.chebyshev_image`, :meth:`Representation.chebyshev`
and :meth:`Representation.chebyshev_mean`), so verifying and extracting one
representation evaluates it and takes the mean once, and both read scalar
matrices with the read-outs of :mod:`matrices`, the deviations from kept
kernel rows: no array the representation holds is unpacked again.  The
Sphere4 classical relation takes T_N of the puncture values from
:func:`sphere.puncture_data`, which the construction filled.  Presentation
relations are checked as defect expressions evaluated through the expression
module, and irreducibility is decided by the dimension of the commutant,
which a diagonal X3 with a simple spectrum reduces to a component count over
the nonzeros of the images' kept patterns (:meth:`Representation.image`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matrices
from .chebyshev import chebyshev_eval
from .expressions import central_names, evaluate, relation_defects
from .representation import Representation
from .scalars import Tolerance, approx_eq
from .sphere import puncture_data
from .torus import puncture_chebyshev_value

TRACE_CONVENTION = "traces store Tr r(X) = -t where T_N(rho(X)) = t*Id"

# the support-graph count trusts a nonzero off-diagonal entry or X3
# eigenvalue gap only at or above this fraction of the largest entry.  The
# nullspace SVD counts a singular value as zero below rel_eps * sigma_max,
# with rel_eps = 2^-(prec/2): 2.3e-10 at the 64-bit minimum and 2.9e-39 at
# the default 256 bits.  An entry this large sits far above that cut at the
# default precision, so the graph count and the SVD's rank agree; smaller
# nonzero entries are left to the SVD, which decides them at working precision.
_SUPPORT_MARGIN = 1e-8


@dataclass
class VerificationReport:
    surface: str
    dim: int
    tolerance: float
    relation_residuals: dict
    relation_exact: dict
    chebyshev_deviations: dict
    puncture_deviations: dict
    commutant_dim: int
    checks: dict
    passed: bool

    def summary(self) -> str:
        lines = [f"{self.surface} representation, dim {self.dim}: "
                 f"{'PASS' if self.passed else 'FAIL'} (tolerance {self.tolerance:g})"]
        for name, ok in self.checks.items():
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
        return "\n".join(lines)


def _passes(rep, exact_zero, magnitude, rel_eps):
    if rep.rs.backend == "exact":
        return exact_zero
    return magnitude < rel_eps


def _puncture_scalar(rep, name, rel_eps):
    """(largest deviation, passed) of the ``P scalar`` check: puncture ``name``'s image against its stored scalar."""
    exact_zero, mag = matrices.scalar_residual(rep.image(name).rows, rep.puncture_scalars[name])
    return mag, _passes(rep, exact_zero, mag, rel_eps)


def verify_relations(rep: Representation, tol: Tolerance = None) -> VerificationReport:
    """Evaluate every presentation relation defect and scalar-structure check.

    Failures are recorded in the report, never raised.  Defects are
    evaluated with :func:`evaluate`, whose bits are those of the object
    arithmetic with :func:`matrices.matmul` for each product (each product
    entry rounded once), except the centrality defects central_P_X =
    P X - X P of a puncture P whose kernel rows are exactly s Id: each is exactly zero, and
    is recorded as (exactly zero, 0.0) without evaluating it.  In the exact
    backend s X = X s.  In the bigfloat one the defect is P X + (-1) X P,
    and the kernel forms entry (i, j), for x = X[i, j] not an exact zero,
    as s x + (-x) s: (-1) x is an exact negation, rounding to nearest is
    odd in the sign, and the kernel's one-term product (``_raw_times``, the
    exact value rounded once) rounds s x and x s alike because
    ``scalars._add`` is symmetric, so the sum is exactly zero.  The test
    reads the puncture image itself, which may come from a file: an image
    that is not exactly s Id is evaluated like every other defect.
    """
    rs = rep.rs
    rel_eps = (tol.rel_eps if tol is not None else rs.tolerance.rel_eps)
    residuals, exact_flags, checks = {}, {}, {}
    central = {name for p in rep.surface.punctures if rep.image(p).scalar
               for name in central_names(rep.surface, p).values()}

    for name, expr in relation_defects(rep.surface, rs).items():
        if name in central:
            exact_zero, mag = True, 0.0
        else:
            exact_zero, mag = matrices.residual_report(evaluate(expr, rep))
        residuals[name] = mag
        exact_flags[name] = exact_zero
        checks[f"relation {name}"] = _passes(rep, exact_zero, mag, rel_eps)

    cheb_devs = {}
    for name in rep.surface.x_generators:
        _, worst = matrices.scalar_residual(rep.chebyshev_image(name).rows, rep.chebyshev_mean(name))
        cheb_devs[name] = worst
        checks[f"T_N({name}) scalar"] = _passes(rep, worst == 0.0, worst, rel_eps)

    punct_devs = {}
    for name in rep.surface.punctures:
        punct_devs[name], checks[f"{name} scalar"] = _puncture_scalar(rep, name, rel_eps)

    commutant = commutant_dimension(rep, tol)
    checks["commutant dimension 1"] = commutant == 1

    return VerificationReport(
        surface=rep.surface.tag,
        dim=rep.dim,
        tolerance=rel_eps,
        relation_residuals=residuals,
        relation_exact=exact_flags,
        chebyshev_deviations=cheb_devs,
        puncture_deviations=punct_devs,
        commutant_dim=commutant,
        checks=checks,
        passed=all(checks.values()),
    )


@dataclass
class ShadowInvariants:
    """Classical shadow data of a representation.

    ``traces`` holds Tr r(X_i); the puncture scalars are the raw p_k, with
    T_N(p_k) = -Tr r(P_k) defining the shadow at the punctures.
    """

    surface: str
    traces: dict
    puncture_values: dict
    compatibility_ok: bool
    convention: str = TRACE_CONVENTION

    def t(self, name):
        """Minus the stored trace: the scalar with T_N(rho(X)) = t*Id."""
        return -self.traces[name]


def _sphere_classical_relation_ok(t_vals, p_vals, rs, tol):
    """Trace relation of the four-puncture sphere at the classical level.

    (Q1, Q2, Q3, Delta') at T_N(p_k) are the ``shadow_aux`` that
    :func:`sphere.puncture_data` keeps by exact value, so puncture values
    read back bit for bit, as a gauge orbit's are, take no new T_N.
    """
    q1, q2, q3, delta = puncture_data(rs, *p_vals).shadow_aux
    t1, t2, t3 = t_vals
    lhs = (t1 * t2 * t3 - t1 * t1 - t2 * t2 - t3 * t3
           - q1 * t1 - q2 * t2 - q3 * t3 + 4)
    return approx_eq(lhs, delta, tol)


def extract_invariants(rep: Representation, tol: Tolerance = None) -> ShadowInvariants:
    """Read the classical shadow and puncture invariants off a representation.

    Raises :class:`NonScalarChebyshev` when T_N of a generator image fails to
    be scalar, which signals a representation outside the generic family
    (for instance a reducible one).
    """
    rs = rep.rs
    traces = {}
    t_vals = {}
    for name in rep.surface.x_generators:
        t = matrices.read_scalar(rep.chebyshev(name), rep.chebyshev_mean(name), tol)
        t_vals[name] = t
        traces[name] = -t
    puncture_values = {}
    for name in rep.surface.punctures:
        puncture_values[name] = matrices.read_scalar_matrix(rep.matrix(name), rs, tol)

    kind = rep.surface.kind
    if kind == "torus1":
        expected = puncture_chebyshev_value(t_vals["X1"], t_vals["X2"], t_vals["X3"])
        compat = approx_eq(chebyshev_eval(rs.N, puncture_values["P"]), expected, tol)
    elif kind == "torus0":
        expected = puncture_chebyshev_value(t_vals["X1"], t_vals["X2"], t_vals["X3"])
        compat = approx_eq(rs.scalar(-2), expected, tol)
    elif kind == "sphere4":
        compat = _sphere_classical_relation_ok(
            (t_vals["X1"], t_vals["X2"], t_vals["X3"]),
            [puncture_values[p] for p in rep.surface.punctures], rs, tol)
    else:
        compat = True
    return ShadowInvariants(rep.surface.tag, traces, puncture_values, compat)


def commuting_system(rep_a: Representation, rep_b: Representation, tol: Tolerance = None):
    """Stacked linear system for M with M rho_a(g) = rho_b(g) M over all generators.

    Unknowns are the row-major entries of M; one block of dim^2 equations
    per generator.  A puncture whose two images pass the ``P scalar`` check
    of :func:`verify_relations` acts by its stored scalars: the same scalar
    on both sides contributes only zero equations and is skipped; differing
    scalars contribute the block (p_a - p_b) M = 0, which is what excludes
    intertwiners across distinct central characters.  Any other puncture
    image takes a dense block.
    """
    if rep_a.dim != rep_b.dim:
        raise ValueError("dimension mismatch")
    n = rep_a.dim
    rs = rep_a.rs
    rel_eps = tol.rel_eps if tol is not None else rs.tolerance.rel_eps
    dense_gens, scalar_rows = [], []
    for g in rep_a.surface.generators:
        if g in rep_a.puncture_scalars and all(_puncture_scalar(r, g, rel_eps)[1] for r in (rep_a, rep_b)):
            pa, pb = rep_a.puncture_scalars[g], rep_b.puncture_scalars[g]
            diff = pa - pb
            if not diff.is_zero():
                scalar_rows.append(diff)
        else:
            dense_gens.append(g)
    system = matrices.zeros(rs, len(dense_gens) * n * n + len(scalar_rows) * n * n, n * n)
    zero = rs.zero
    row = 0
    for g in dense_gens:
        ma, mb = rep_a.matrix(g), rep_b.matrix(g)
        # entries pass through 0 + x and 0 - x, which round them to the
        # working precision exactly as the accumulating form did
        plus = [[zero + e for e in r] for r in ma]
        minus = [[zero - e for e in r] for r in mb]
        for i in range(n):
            for l in range(n):
                # sum_j M[i,j] * ma[j,l] - sum_j mb[i,j] * M[j,l] = 0; only
                # column i*n + l receives two terms, ma[l,l] - mb[i,i], which
                # is correctly rounded in either order of accumulation
                for j in range(n):
                    system[row, i * n + j] = plus[j][l]
                    system[row, j * n + l] = minus[i][j]
                system[row, i * n + l] = ma[l, l] - mb[i, i]
                row += 1
    for diff in scalar_rows:
        for entry in range(n * n):
            system[row, entry] = diff
            row += 1
    return system


def _clear(e, cut):
    """Whether the scalar e is nonzero, and at least ``cut`` in double-precision magnitude.

    ``cut`` is None in the exact backend, where every nonzero is clear.
    """
    if cut is None:
        return not e.is_zero()
    return abs(complex(float(e.re), float(e.im))) >= cut


def _support_commutant(rep):
    """Commutant dimension read off the support graph, or None where it does not apply.

    When the X3 image is exactly diagonal with pairwise distinct eigenvalues,
    a commuting M is diagonal, and D X = X D holds exactly when D_i = D_l at
    every nonzero off-diagonal X[i, l].  The commutant is then the diagonals
    constant on each connected component of the graph of those entries of
    every other image, puncture images included, and its dimension is the
    component count.  In the bigfloat backend every off-diagonal entry must
    be an exact zero or at least _SUPPORT_MARGIN times the largest entry of
    the loop images, and every eigenvalue gap must clear the same cut, far
    above the nullspace SVD's rel_eps * sigma_max, so that the count agrees
    with the SVD's rank; any other rep returns None.
    X3's shape, the exact zeros and the largest entry come from the images
    the rep keeps (:meth:`Representation.image`), so the walk is O(nnz).
    """
    gens = rep.surface.x_generators
    if "X3" not in gens or not rep.image("X3").diagonal:
        return None
    cut = None
    if rep.rs.backend != "exact":
        rows = [row for g in gens for row in rep.image(g).rows]
        cut = _SUPPORT_MARGIN * matrices.kernel(rep.rs).worst(rows)[1]
        if not cut > 0.0:
            return None
    lam = rep.matrix("X3").diagonal()
    n = rep.dim
    if not all(_clear(lam[i] - lam[j], cut) for i in range(n) for j in range(i + 1, n)):
        return None
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for g in rep.surface.generators:
        if g != "X3":
            image = rep.matrix(g)
            for i, cols in enumerate(rep.image(g).support):
                for j in cols:
                    if j != i:
                        if not _clear(image[i, j], cut):
                            return None
                        root[find(i)] = find(j)
    return sum(1 for i in range(n) if find(i) == i)


def commutant_dimension(rep: Representation, tol: Tolerance = None) -> int:
    """Dimension of {M : M commutes with every generator image}.

    Equals 1 exactly when the representation is irreducible.  A diagonal X3
    image with a simple spectrum reduces this to a component count on the
    support graph of the other images (:func:`_support_commutant`); every
    other rep solves the commuting system with ``matrices.nullspace``.
    """
    if not rep.surface.generators:
        return rep.dim * rep.dim
    components = _support_commutant(rep)
    if components is not None:
        return components
    system = commuting_system(rep, rep, tol)
    if system.shape[0] == 0:
        # only scalar generators, all matching: every matrix commutes,
        # which for a 1-dimensional representation still means dimension 1
        return rep.dim * rep.dim
    nullity, _ = matrices.nullspace(system, tol, want_vectors=False)
    return nullity
