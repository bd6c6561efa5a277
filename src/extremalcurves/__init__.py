"""Exact computer algebra for degenerating space curves to extremal curves.

Layers: coefficient fields, polynomials with weight-refined monomial
orders, a Buchberger engine (elimination, quotients, saturation, Hilbert
series), curve constructors, and the weight-vector degeneration pipeline
with its extremal certificates.
"""

from .fields import (QQ, DEFAULT_MODULUS, ContextMismatchError, PrimeField,
                     RationalField, field_of_characteristic)
from .orders import (CAPACITY, MAX_ARITY, VAR_NAMES, BlockEliminationOrder,
                     GrevlexOrder, WeightRefinedOrder)
from .poly import (BinaryForm, ParseError, PolyRing, Polynomial,
                   binary_forms_coprime, parse_polynomial)
from .groebner import (GroebnerBasis, IdealBasis, buchberger, divide_exact,
                       eliminate, ideal, ideal_equal, ideal_intersect,
                       ideal_quotient, ideal_quotient_poly, initial_ideal,
                       is_groebner, saturate_irrelevant, saturate_variable)
from .hilbert import HilbertData, hilbert
from .curves import (CoordinateChange, CurveIdeal, Invariants,
                     complete_intersection, curve_ring, extremal_curve,
                     fixture, fixture_names, from_parametrization, link,
                     random_coordinate_change, transform_ideal)
from .degeneration import (DegenerationError, ExtremalCertificate,
                           MonoidSurface, MonoidSurfaceError,
                           SpecializationError, SpecializationReport,
                           StarProbeReport, check_disjoint_line,
                           condition_star_probe, emit_family,
                           find_monoid_surface, monoid_template,
                           pipeline_weights, rao_dims_extremal, specialize,
                           verify_extremal_shape)

__version__ = "0.1.0"
