"""Why the even-degree family admits no elementary reduction.

A tame automorphism of degree > 3 admits an elementary reduction or one
of a short list of exceptional reduction shapes.  For the family triple
(d, d + k(d+1), d + 2k(d+1)) with d even, gcd(d, k) = 1, the toolkit
refutes every elementary reduction by exact integer inequalities: if a
polynomial of degree s were subtracted from one coordinate to lower its
degree, the degree calculus for Poisson-type brackets forces lower
bounds that contradict the triple itself.  The type-III exceptional
shape is excluded by a parity/divisibility test.

This script prints the full audit for (d, k) = (6, 1), i.e. the triple
(6, 13, 20), shows the degree bound su_lower_bound growing past any
usable window, and checks that the wild-family certificate of the
triple keeps that audit as its proof.
"""

from wildmdeg import (
    Family,
    FamilyParams,
    ReductionQuery,
    no_elementary_reduction_check,
    reduction_audit,
    su_lower_bound,
    type_iii_check,
    wild_family,
)


def main():
    print("degree lower bound for a candidate reducer of (6, 13, ...):")
    for q in range(4):
        bound = su_lower_bound(ReductionQuery(6, 13, q, 0))
        print(f"  q = {q}: every candidate has degree >= {bound}")
    print()

    print("full audit for the family instance (d, k) = (6, 1):")
    for report in no_elementary_reduction_check(6, 1):
        print(f"  reduce the {report.coordinate} coordinate?")
        for check in report.checks:
            mark = "ok" if check.holds else "XX"
            print(
                f"    [{mark}] {check.name}"
                f"  (lhs={check.lhs}, rhs={check.rhs})"
            )
        print(f"    -> {report.conclusion}")
    print()

    report = type_iii_check((6, 13, 20))
    print(
        "type-III exceptional shape:",
        "excluded" if report.excluded else "possible",
    )
    print("  middle degree even:", report.condition1)
    print("  divisibility/ratio condition:", report.condition2)
    print()

    _, result = wild_family(FamilyParams(Family.EVEN_GT_4, 6, 1))
    proof = result.certificate.proof
    print(
        f"wild-family certificate of {result.triple}: proof {proof.kind},"
        f" the same audit: {proof == reduction_audit(6, 1)}"
    )


if __name__ == "__main__":
    main()
