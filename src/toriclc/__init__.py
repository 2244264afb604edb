"""toriclc: exact decomposition data for local cohomology of affine
semigroup rings, plus the combinatorics of the associated graded ring of
their differential operators.

Everything is computed in exact integer arithmetic.  The main
entry points:

  * ToricPresentation.build(rows)      -- matrix, cone, flags
  * enumerate_classes / class_poset    -- signature classes and their order
  * assemble_module / socle_probe      -- local cohomology as class pieces
  * theta_exponent / fiber_at_origin / char_variety_max
                                       -- graded-ring exponent data
"""

from .errors import (
    ClassRankMismatch,
    CycleDetected,
    DimensionUnsupported,
    FullLatticeRequired,
    GeneratorNotInSemigroup,
    HypothesisFailed,
    IsNormal,
    NoInteriorPoint,
    NotFullDimensional,
    NotPointed,
    NotScored,
    ProblemFormatError,
    SearchBoundExceeded,
    ToricError,
)
from .intlinalg import (
    QuotientGroup,
    Sublattice,
    hermite_normal_form,
    quotient,
    smith_normal_form,
    torsion_coset_reps,
)
from .cones import Face, FaceLattice, SupportFunction, facet_support_functions
from .semigroups import (
    NumericalSemigroup,
    ToricPresentation,
    face_membership_search,
    in_face_localization,
    in_semigroup,
    localization_faces,
    numerical_semigroup,
    smallest_containing_face,
)
from .sectors import (
    ClassEnumeration,
    ClassPoset,
    EquivClass,
    SectorFilter,
    Signature,
    class_poset,
    degree_signature,
    enumerate_classes,
    face_residues,
    sector_faces,
    sector_inventory,
    signature_leq,
)
from .cohomology import (
    GradedModuleDescription,
    MonomialIdeal,
    SocleProbe,
    assemble_module,
    cech_ranks,
    ishida_ranks,
    local_cohomology_max,
    module_support,
    socle_probe,
)
from .grading import (
    FiberCertificate,
    ExponentIdentityReport,
    GrMonomial,
    NotCMCertificate,
    char_variety_max,
    fiber_at_orbit,
    fiber_at_origin,
    gr_generators_dim1,
    interior_degree,
    notcm_certificate,
    theta_exponent,
    theta_exponents,
    verify_exponent_identities,
)

__version__ = "0.1.0"
