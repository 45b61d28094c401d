"""coincalc: exact coincidence invariants with justification traces.

Computes the minimum numbers MC and MCC, the four Nielsen numbers
N#, Ntilde, N, N^Z, and the Reidemeister number for pairs of maps in the
classified families (tori, spheres, spherical space forms, projective
spaces, Stiefel-to-Grassmann projections), plus a decision engine for the
Wecken condition.  Every answer carries a trace of registered rule
identifiers; see docs/rules.md.
"""

from .errors import (
    CoincalcError,
    ConsistencyError,
    DescriptorError,
    FactBaseError,
)
from .lattice import (
    FGAbelianGroup,
    IntMatrix,
    SmithNormalForm,
    abs_det_of_image,
    cokernel,
    cokernel_bruteforce_oracle,
    det_cofactor,
    invariant_factors,
    smith_normal_form,
)
from .projective import (
    ProjectiveField,
    ProjectivePairDescriptor,
    del_vanishes_by_dimension,
    projective_classify,
    projective_invariants,
)
from .spaceform import (
    SelfCoincidenceReport,
    SpaceFormPairDescriptor,
    hopf_case,
    kervaire_case,
    selfcoincidence_chain,
    spaceform_mc,
    spaceform_pair_invariants,
)
from .sphere import SphereClassDescriptor, sphere_invariants
from .stiefel import StiefelQuery, grassmann_euler, stiefel_selfcoincidence
from .tables import (
    FactBase,
    KervaireStatus,
    get_factbase,
    kervaire_status,
    pinpoint,
    set_factbase,
    stable_stem,
    two_chi_so_vanishes,
)
from .torus import TorusPairDescriptor, circle_target_mcc, torus_invariants
from .verdict import (
    INFINITE,
    UNKNOWN,
    Fact,
    InvariantBundle,
    Provenance,
    Truth,
    Verdict,
    combine_and,
    user_fact,
    validate_bundle,
)
from .wecken import (
    TargetFamily,
    WeckenQuery,
    coincidence_producing_criterion,
    fixed_point_wecken,
    nielsen_value_set,
    nsharp_restrictions,
    overlap_disagreements,
    wecken_condition,
)

__version__ = "0.1.0"

__all__ = [
    "CoincalcError", "ConsistencyError", "DescriptorError", "FactBaseError",
    "IntMatrix", "FGAbelianGroup", "SmithNormalForm", "smith_normal_form",
    "abs_det_of_image", "cokernel", "cokernel_bruteforce_oracle",
    "det_cofactor", "invariant_factors",
    "Fact", "Truth", "Provenance", "Verdict", "InvariantBundle",
    "combine_and", "user_fact", "validate_bundle", "INFINITE", "UNKNOWN",
    "FactBase", "KervaireStatus", "get_factbase", "set_factbase",
    "stable_stem", "two_chi_so_vanishes", "kervaire_status", "pinpoint",
    "TorusPairDescriptor", "torus_invariants", "circle_target_mcc",
    "SphereClassDescriptor", "sphere_invariants",
    "SpaceFormPairDescriptor", "spaceform_pair_invariants",
    "selfcoincidence_chain", "SelfCoincidenceReport", "kervaire_case",
    "hopf_case", "spaceform_mc",
    "ProjectiveField", "ProjectivePairDescriptor", "projective_classify",
    "projective_invariants", "del_vanishes_by_dimension",
    "StiefelQuery", "grassmann_euler", "stiefel_selfcoincidence",
    "TargetFamily", "WeckenQuery", "wecken_condition",
    "overlap_disagreements", "coincidence_producing_criterion",
    "nsharp_restrictions", "nielsen_value_set", "fixed_point_wecken",
]
