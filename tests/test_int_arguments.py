"""Integer parameters reject non-ints, bools included, at every public entry.

Each entry point raises TypeError for a bool or a float where it expects
an int; before the shared int check, ``True`` passed as the integer 1.
"""

import pytest

from wildmdeg import (
    Family,
    FamilyParams,
    NagataShear,
    ReductionQuery,
    classify_tame,
    default_family,
    enumerate_wild,
    exp,
    family_triple,
    long_progression_map,
    nagata,
    nagata_derivation,
    nagata_exp,
    no_elementary_reduction_check,
    reduction_audit,
    semigroup_member,
    sheared_nagata,
    short_progression_map,
    tame_witness,
    type_iii_check,
)

ENTRY_POINTS = {
    "NagataShear": NagataShear,
    "nagata": nagata,
    "sheared_nagata.d": lambda v: sheared_nagata(v, 1),
    "sheared_nagata.k": lambda v: sheared_nagata(3, v),
    "short_progression_map": lambda v: short_progression_map(1, v),
    "long_progression_map": lambda v: long_progression_map(v, 1),
    "tame_witness.d1": lambda v: tame_witness(v, 2, 3, 1, 1),
    "tame_witness.a": lambda v: tame_witness(2, 3, 5, v, 1),
    "exp": lambda v: exp(nagata_derivation(), max_iterations=v),
    "nagata_exp": nagata_exp,
    "ReductionQuery": lambda v: ReductionQuery(5, 7, v, 0),
    "no_elementary_reduction_check": lambda v: no_elementary_reduction_check(
        (6, v, 20)
    ),
    "reduction_audit": lambda v: reduction_audit(6, v),
    "family_triple": lambda v: family_triple(v, 1),
    "classify_tame": lambda v: classify_tame((v, 2, 3)),
    "type_iii_check": lambda v: type_iii_check((6, v, 20)),
    "semigroup_member": lambda v: semigroup_member(v, 4, 8),
    "FamilyParams": lambda v: FamilyParams(Family.EVEN_GT_4, 6, v),
    "default_family": default_family,
    "enumerate_wild": lambda v: enumerate_wild(5, v),
}


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_int_is_a_type_error(entry, bad):
    with pytest.raises(TypeError):
        ENTRY_POINTS[entry](bad)
