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
    degree lower bounds excluding elementary reductions;
``classify``
    the tameness classifier, certificates, and the wild families.
"""

from .poly import (
    MAX_EXPONENT,
    MINUS_INFINITY,
    ONE,
    VARIABLES,
    X,
    Y,
    Z,
    ZERO,
    MinusInfinity,
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
    identity,
    inverse,
    is_identity,
    long_progression_map,
    multidegree,
    nagata,
    sheared_nagata,
    short_progression_map,
    tame_witness,
    transposition,
    triangular,
    z_shift,
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
    ReductionAudit,
    ReductionQuery,
    family_triple,
    no_elementary_reduction_check,
    reduction_audit,
    su_lower_bound,
    type_iii_check,
)
from .classify import (
    Classification,
    Family,
    FamilyParams,
    TameStatus,
    classify_tame,
    default_family,
    enumerate_wild,
    long_progression_exclusion,
    semigroup_member,
    short_progression_exclusion,
    wild_family,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # poly
    "MAX_EXPONENT",
    "MINUS_INFINITY",
    "MinusInfinity",
    "ONE",
    "ParseError",
    "Polynomial",
    "VARIABLES",
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
    "identity",
    "inverse",
    "is_identity",
    "long_progression_map",
    "multidegree",
    "nagata",
    "sheared_nagata",
    "short_progression_map",
    "tame_witness",
    "transposition",
    "triangular",
    "z_shift",
    # derivations
    "DEFAULT_MAX_ITERATIONS",
    "Derivation",
    "NotNilpotentWithinBudget",
    "exp",
    "nagata_derivation",
    "nagata_exp",
    # reduction
    "InequalityCheck",
    "ReductionAudit",
    "ReductionQuery",
    "family_triple",
    "no_elementary_reduction_check",
    "reduction_audit",
    "su_lower_bound",
    "type_iii_check",
    # classify
    "Classification",
    "Family",
    "FamilyParams",
    "TameStatus",
    "classify_tame",
    "default_family",
    "enumerate_wild",
    "long_progression_exclusion",
    "semigroup_member",
    "short_progression_exclusion",
    "wild_family",
]
