"""Representations of Kauffman bracket skein algebras of small surfaces.

The package constructs the N-dimensional irreducible representations of the
skein algebras of the torus with at most one puncture and the sphere with at
most four punctures, for A a primitive N-th root of -1 with N odd.  It
provides an exact cyclotomic backend and an arbitrary-precision complex
backend, an expression DSL with a normal-form rewriter for the presentation
generators, invariant extraction (classical shadow and puncture scalars),
and isomorphism certification used to validate gauge independence of the
construction.
"""

from .chebyshev import ChebyshevPoly, ChebyshevRoots, chebyshev_coeffs, chebyshev_eval, solve_chebyshev
from .errors import (BackendMismatch, DegenerateShadow, EigenstructureMismatch,
                     ExponentOverflow, IncompatiblePuncture, NoConsistentRoot,
                     NonFiniteScalar, NonScalarChebyshev, ParseError, SkeinError, UnknownGenerator,
                     UnsupportedExactOperation, VanishingCycle, VanishingDivisor)
from .expressions import (NormalForm, RewriteSystem, SkeinExpr, evaluate,
                          evaluate_normal_form, normalize, parse, parse_scalar,
                          puncture_element, random_word_expression, relation_defects)
from .invariants import (ShadowInvariants, VerificationReport, commutant_dimension,
                         extract_invariants, verify_relations)
from .representation import Representation
from .scalars import (BigComplex, CyclotomicNumber, RootSystem, Scalar, Tolerance,
                      approx_eq, cyclotomic_polynomial, make_root_system, nth_root,
                      numeric_bridge, solve_quadratic)
from .sphere import (LadderScalars, SphereParams, build_sphere_rep,
                     build_sphere_rep_from_params, build_sphere_rep_with_u,
                     ladder_product_closed_form, ladder_scalars_sphere,
                     ladder_system_sphere, make_sphere_params, small_sphere_rep,
                     solve_u, sphere_aux_invariants)
from .surfaces import SPHERE4, TORUS0, TORUS1, Surface, sphere_k, surface_from_tag
from .torus import (LadderSystem, TorusParams, build_torus_rep, closed_torus_rep,
                    cycle_scalar, ladder_system_torus, puncture_chebyshev_value,
                    torus_params_exact, torus_params_from_shadow)
from .uniqueness import (ExperimentConfig, ExperimentReport, GenericityReport,
                         IsomorphismCertificate, gauge_orbit, genericity_check,
                         intertwiner_search, sample_sphere_invariants,
                         sample_torus_shadow, uniqueness_experiment)

__version__ = "0.1.0"
