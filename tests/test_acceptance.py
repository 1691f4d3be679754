"""Acceptance checks for the whole toolkit.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE NN <name>: PASS`` / ``FAIL`` line (visible with ``pytest -s``).
All comparisons are exact; nothing here is approximate.
"""

import random
from contextlib import contextmanager
from math import gcd

import pytest

from conftest import SEED, random_nonzero_poly, random_poly

from wildmdeg import (
    INVARIANT_QUADRIC,
    ONE,
    ZERO,
    Derivation,
    ReductionQuery,
    TameStatus,
    classify_tame,
    compose,
    enumerate_wild,
    inverse,
    multidegree,
    nagata,
    nagata_derivation,
    nagata_exp,
    no_elementary_reduction_check,
    semigroup_member,
    sheared_nagata,
    short_progression_map,
    su_lower_bound,
    type_iii_check,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_exponential_matches_closed_form():
    with criterion(1, "derivation exponential equals closed-form map"):
        for k in range(1, 6):
            assert nagata_exp(k).coords == nagata(k).coords


def test_criterion_02_base_multidegree():
    with criterion(2, "base map has multidegree (5, 3, 1)"):
        assert multidegree(nagata(1)) == (5, 3, 1)


def test_criterion_03_sheared_family_multidegrees():
    with criterion(3, "sheared family multidegree formula on the grid"):
        for d in range(3, 13):
            for k in range(1, 6):
                expected = (d, d + k * (d + 1), d + 2 * k * (d + 1))
                assert multidegree(sheared_nagata(d, k)) == expected


def test_criterion_04_short_progression_multidegrees_and_invariant():
    with criterion(4, "short-progression multidegrees and invariant quadric"):
        for l in range(1, 5):
            for k in range(1, 5):
                map_ = short_progression_map(l, k)
                r = 4 * l + 1
                assert multidegree(map_) == (r, r + 2 * k, r + 4 * k)
                f, g, h = map_.coords
                assert g * g + f * h == INVARIANT_QUADRIC


def test_criterion_05_two_sided_inverse_identities():
    with criterion(5, "inverses are two-sided on both construction grids"):
        maps = [
            sheared_nagata(d, k)
            for d in range(3, 13)
            for k in range(1, 6)
        ] + [
            short_progression_map(l, k)
            for l in range(1, 5)
            for k in range(1, 5)
        ]
        for map_ in maps:
            backward = inverse(map_)
            assert compose(map_, backward).is_identity()
            assert compose(backward, map_).is_identity()


def test_criterion_06_classifier_ground_truth():
    with criterion(6, "classifier matches the hand-derived verdict table"):
        table = {
            (1, 3, 5): (TameStatus.TAME, "R1"),
            (2, 3, 5): (TameStatus.TAME, "R8"),
            (2, 4, 8): (TameStatus.TAME, "R8"),
            (2, 4, 7): (TameStatus.TAME, "R2"),
            (3, 6, 11): (TameStatus.TAME, "R2"),
            (3, 4, 5): (TameStatus.NOT_TAME, "R3"),
            (3, 7, 11): (TameStatus.NOT_TAME, "R3"),
            (5, 7, 9): (TameStatus.NOT_TAME, "R4"),
            (5, 7, 12): (TameStatus.TAME, "R8"),
            (4, 9, 14): (TameStatus.NOT_TAME, "R6"),
            (6, 13, 20): (TameStatus.NOT_TAME, "R7"),
            (8, 35, 62): (TameStatus.NOT_TAME, "R7"),
            (12, 25, 38): (TameStatus.NOT_TAME, "R7"),
            (4, 5, 6): (TameStatus.UNKNOWN, None),
            (10, 32, 54): (TameStatus.UNKNOWN, None),
        }
        for triple, (status, rule) in table.items():
            result = classify_tame(triple)
            assert result.status is status, triple
            assert result.rule_id == rule, triple

        rng = random.Random(SEED)
        for _ in range(10):
            d2 = rng.randint(2, 30)
            d3 = rng.randint(d2, 60)
            result = classify_tame((1, d2, d3))
            assert result.status is TameStatus.TAME
            assert result.rule_id == "R1"
            assert sorted(multidegree(result.realization)) == [1, d2, d3]


def test_criterion_07_semigroup_scan_vs_reachability_table():
    with criterion(7, "semigroup scan agrees with reachability table"):
        limit = 200
        for d1 in range(1, 13):
            for d2 in range(d1, 13):
                can = [False] * (limit + 1)
                can[0] = True
                for n in range(1, limit + 1):
                    can[n] = (n >= d1 and can[n - d1]) or (
                        n >= d2 and can[n - d2]
                    )
                for d3 in range(1, limit + 1):
                    witness = semigroup_member(d1, d2, d3)
                    assert (witness is not None) == can[d3], (d1, d2, d3)
                    if witness is not None:
                        assert witness.a * d1 + witness.b * d2 == d3

        for d1 in range(2, 13):
            for d2 in range(d1 + 1, 13):
                if gcd(d1, d2) != 1:
                    continue
                frobenius = d1 * d2 - d1 - d2
                assert semigroup_member(d1, d2, frobenius) is None
                for n in range(frobenius + 1, frobenius + 2 * d2 + 1):
                    assert semigroup_member(d1, d2, n) is not None


def test_criterion_08_elementary_reductions_excluded():
    with criterion(8, "reduction audit excludes every case on the even grid"):
        for d in range(6, 15, 2):
            for k in range(1, 6):
                if gcd(d, k) != 1:
                    continue
                triple = (d, d + k * (d + 1), d + 2 * k * (d + 1))
                cases = no_elementary_reduction_check(triple)
                assert [coordinate for coordinate, _ in cases] == [
                    "first",
                    "second",
                    "third",
                ]
                assert all(
                    row.holds for _, rows in cases for row in rows
                ), (d, k)
                # every type-III row is an "lhs != rhs" fact, and all hold
                rows = type_iii_check(triple)
                assert rows and all(
                    row.holds and row.lhs != row.rhs for row in rows
                ), (d, k)


def test_criterion_09_wild_enumeration_certified():
    with criterion(9, "wild enumeration yields certified realized triples"):
        for d in range(3, 10):
            results = enumerate_wild(d, 25)
            assert len(results) == 25
            triples = [c.triple for c in results]
            assert len(set(triples)) == 25
            middles = [t[1] for t in triples]
            assert middles == sorted(middles)
            assert all(a < b for a, b in zip(middles, middles[1:]))
            for classification in results:
                assert classification.status is TameStatus.NOT_TAME
                witness = classification.realization
                assert witness is not None
                assert (
                    tuple(sorted(multidegree(witness)))
                    == classification.triple
                )
                assert compose(inverse(witness), witness).is_identity()


def test_criterion_10_randomized_algebra_laws():
    with criterion(10, "randomized algebra laws hold on 1000 seeded cases"):
        rng = random.Random(SEED)

        for _ in range(300):  # ring axioms
            a = random_poly(rng, fractions=True)
            b = random_poly(rng)
            c = random_poly(rng)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + ZERO == a
            assert a * ONE == a
            assert a - a == ZERO

        for index in range(200):  # degrees add under multiplication
            a = ZERO if index % 10 == 0 else random_poly(rng)
            b = random_poly(rng)
            if a == ZERO or b == ZERO:
                with pytest.raises(ValueError):
                    (a * b).total_degree()
            else:
                assert (a * b).total_degree() == (
                    a.total_degree() + b.total_degree()
                )

        derivations = [
            nagata_derivation(),
            Derivation(
                random_poly(rng), random_poly(rng), random_poly(rng)
            ),
        ]
        for index in range(200):  # product rule
            d = derivations[index % 2]
            f = random_nonzero_poly(rng)
            g = random_nonzero_poly(rng)
            assert d(f * g) == d(f) * g + f * d(g)

        for _ in range(300):  # degree bound grows with q and r
            while True:
                deg_f = rng.randint(2, 30)
                deg_g = rng.randint(deg_f + 1, 60)
                if deg_f // gcd(deg_f, deg_g) >= 2:
                    break
            query = ReductionQuery(deg_f, deg_g, rng.randint(0, 10), 0)
            bumped_q = ReductionQuery(deg_f, deg_g, query.q + 1, 0)
            assert su_lower_bound(bumped_q) > su_lower_bound(query)
            if query.p >= 2:
                with_r = ReductionQuery(deg_f, deg_g, query.q, 1)
                assert su_lower_bound(with_r) > su_lower_bound(query)
