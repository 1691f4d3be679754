"""Exact constructions of wild automorphisms of 3-space.

The package builds polynomial automorphisms of affine 3-space over the
rationals from generators with closed-form inverses, computes their
multidegrees exactly, decides tameness of degree triples with
machine-checkable certificates, and re-derives the impossibility of
elementary reductions for an even-degree family as executable
inequality checks.

Layers (bottom up):

``poly``
    sparse exact polynomials in x, y, z over Q, parsing and printing;
``maps``
    factored polynomial maps, composition, closed-form inverses, the
    named constructions and their multidegrees;
``derivations``
    locally nilpotent derivations and their exponentials, used to
    cross-check the closed-form shears;
``reduction``
    degree lower bounds and the inequality rows computed from any triple;
``classify``
    the wild families, the tameness classifier and all its certificates.
"""

from .poly import (
    MAX_EXPONENT,
    ONE,
    X,
    Y,
    Z,
    ZERO,
    ParseError,
    Polynomial,
    parse,
)
from .maps import (
    INVARIANT_QUADRIC,
    NagataShear,
    PolyMap,
    Transposition,
    Triangular,
    UnknownFactorization,
    compose,
    inverse,
    is_identity,
    long_progression_map,
    multidegree,
    nagata,
    sheared_nagata,
    short_progression_map,
    tame_witness,
)
from .derivations import (
    DEFAULT_MAX_ITERATIONS,
    Derivation,
    NotNilpotentWithinBudget,
    exp,
    nagata_derivation,
    nagata_exp,
)
from .reduction import (
    InequalityCheck,
    ReductionQuery,
    no_elementary_reduction_check,
    su_lower_bound,
    type_iii_check,
)
from .classify import (
    Classification,
    Family,
    FamilyParams,
    ReductionAudit,
    TameStatus,
    classify_tame,
    default_family,
    enumerate_wild,
    family_triple,
    reduction_audit,
    semigroup_member,
    wild_family,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # poly
    "MAX_EXPONENT",
    "ONE",
    "ParseError",
    "Polynomial",
    "X",
    "Y",
    "Z",
    "ZERO",
    "parse",
    # maps
    "INVARIANT_QUADRIC",
    "NagataShear",
    "PolyMap",
    "Transposition",
    "Triangular",
    "UnknownFactorization",
    "compose",
    "inverse",
    "is_identity",
    "long_progression_map",
    "multidegree",
    "nagata",
    "sheared_nagata",
    "short_progression_map",
    "tame_witness",
    # derivations
    "DEFAULT_MAX_ITERATIONS",
    "Derivation",
    "NotNilpotentWithinBudget",
    "exp",
    "nagata_derivation",
    "nagata_exp",
    # reduction
    "InequalityCheck",
    "ReductionQuery",
    "no_elementary_reduction_check",
    "su_lower_bound",
    "type_iii_check",
    # classify
    "Classification",
    "Family",
    "FamilyParams",
    "ReductionAudit",
    "TameStatus",
    "classify_tame",
    "default_family",
    "enumerate_wild",
    "family_triple",
    "reduction_audit",
    "semigroup_member",
    "wild_family",
]
