"""Four-puncture sphere representations and the numeric wraparound solve.

Here the ladder operators carry scalar offsets built from the symmetric
puncture combinations, and the product of the down-then-up scalars R_k has
a closed form through T_N at four quadratic roots.  The wraparound constant
u is recovered from the two target traces by solving a quadratic: the
u-independent trace offsets are closed forms in t3 and T_N of the four
punctures, read off the character-variety relation, so no trial
construction is built.
"""

import random

from skeinrep import (build_sphere_rep, build_sphere_rep_with_u, chebyshev_eval,
                      extract_invariants, ladder_product_closed_form, ladder_scalars_sphere,
                      make_root_system, make_sphere_params, sample_sphere_invariants,
                      small_sphere_rep, solve_u, verify_relations)
from skeinrep import matrices

rs = make_root_system(5, "bigfloat", 256)
rng = random.Random(11)

# ---------------------------------------------------------------------------
# ladder scalars and the closed-form cycle product
# ---------------------------------------------------------------------------

p = [rs.scalar(complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))) for _ in range(4)]
x3 = rs.scalar(complex(1.3, 0.35))
params = make_sphere_params(*p, rs.zero, rs.zero, x3)
ladder = ladder_scalars_sphere(params)
prod = ladder.cycle_product()
closed = ladder_product_closed_form(params)
print("cycle product of the ladder scalars R_k versus its closed form:")
print(f"  direct: {prod}")
print(f"  closed: {closed}")
print(f"  difference: {float((prod - closed).magnitude()):.2e}")

# ---------------------------------------------------------------------------
# representation from a prescribed wraparound, then recovery of u
# ---------------------------------------------------------------------------

u_true = rs.scalar(complex(0.85, -0.4))
rep = build_sphere_rep_with_u(params, u_true)
print(f"\nbuilt dimension-{rep.dim} sphere representation")
print(verify_relations(rep).summary())

t1 = matrices.read_scalar_matrix(chebyshev_eval(rs.N, rep.matrix("X1")), rs)
t2 = matrices.read_scalar_matrix(chebyshev_eval(rs.N, rep.matrix("X2")), rs)
u_rec = solve_u(params, t1, t2)
print(f"\nwraparound recovery: |u_recovered - u_true| = "
      f"{float((u_rec - u_true).magnitude()):.2e}")

# ---------------------------------------------------------------------------
# the full pipeline from invariants alone
# ---------------------------------------------------------------------------

inv = sample_sphere_invariants(rs, rng)
rep2 = build_sphere_rep(inv["p0"], inv["p1"], inv["p2"], inv["p3"],
                        inv["t1"], inv["t2"], inv["t3"])
shadow = extract_invariants(rep2)
worst = max(float((shadow.t(f"X{i}") - inv[f"t{i}"]).magnitude()) for i in (1, 2, 3))
print(f"\npipeline round-trip (invariants -> representation -> invariants):")
print(f"  worst trace deviation: {worst:.2e}")
print(f"  classical compatibility relation holds: {shadow.compatibility_ok}")

# ---------------------------------------------------------------------------
# spheres with at most three punctures are determined by their punctures
# ---------------------------------------------------------------------------

small = small_sphere_rep([rs.scalar(2), rs.scalar(complex(0.0, 1.0))])
print(f"\nsmall sphere ({small.surface}): dim {small.dim}, "
      f"punctures {{P1: {small.puncture_scalars['P1']}, P2: {small.puncture_scalars['P2']}}}")
