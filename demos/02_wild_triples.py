"""Constructing wild automorphisms with prescribed multidegrees.

Composing the base shear with a transposition and a triangular shift
produces automorphisms whose coordinate degrees form arithmetic
progressions (d, d + k(d+1), d + 2k(d+1)).  For suitable parameters no
tame automorphism has the same multidegree, so these maps are wild —
and the classifier certifies that, family by family.
"""

from wildmdeg import (
    Family,
    FamilyParams,
    enumerate_wild,
    multidegree,
    sheared_nagata,
    wild_family,
)


def main():
    map_ = sheared_nagata(6, 1)
    print("sheared construction for (d, k) = (6, 1):")
    print("  factorization:", " * ".join(g.token() for g in map_.factors))
    print("  multidegree:  ", multidegree(map_))
    print()

    print("one certified instance from each family:")
    for params in (
        FamilyParams(Family.ODD_GENERAL, 3, 1),
        FamilyParams(Family.ODD_1_MOD_4, 5, 1),
        FamilyParams(Family.D_EQUALS_4, 4, 1),
        FamilyParams(Family.EVEN_GT_4, 6, 1),
    ):
        triple, result = wild_family(params)
        certificate = result.certificate
        note = f"proof: {certificate.proof.kind}"
        if certificate.proof.kind == "citation":
            note += f" and {len(certificate.proof.checks)} non-membership rows"
        print(
            f"  {triple}: {result.status.value} by rule {result.rule_id};"
            f" {note}"
        )
    print()

    print("first wild triples with smallest degree 7:")
    for result in enumerate_wild(7, 5):
        realization = result.realization
        print(
            f"  {result.triple}  realized by a map with coordinate degrees"
            f" {multidegree(realization)}"
        )


if __name__ == "__main__":
    main()
