"""Unit tests for the tameness classifier and the wild-family constructors.

Ground-truth verdicts in TRUTH_TABLE were derived by hand from the rule
table: semigroup scans worked out manually, parity/gcd conditions checked
per rule, and the even-family reduction audit cross-checked against
test_reduction's frozen numbers.
"""

import json
from math import gcd

import pytest

from wildmdeg import (
    Classification,
    Family,
    FamilyParams,
    InequalityCheck,
    ReductionAudit,
    ReductionQuery,
    TameStatus,
    classify_tame,
    default_family,
    enumerate_wild,
    long_progression_exclusion,
    multidegree,
    reduction_audit,
    semigroup_member,
    short_progression_exclusion,
    su_lower_bound,
    type_iii_check,
    wild_family,
)
from wildmdeg.classify import (
    CitationCertificate,
    SemigroupWitness,
    WildFamilyCertificate,
    WitnessCertificate,
)
from wildmdeg.reduction import _residue_checks


def brute_force_member(d1, d2, d3):
    """Reachability table for the numerical semigroup <d1, d2>."""
    can = [False] * (d3 + 1)
    can[0] = True
    for n in range(1, d3 + 1):
        can[n] = (n >= d1 and can[n - d1]) or (n >= d2 and can[n - d2])
    return can[d3]


class TestSemigroupMember:
    def test_frozen_witnesses(self):
        assert semigroup_member(2, 4, 8) == SemigroupWitness(4, 0)
        assert semigroup_member(2, 3, 5) == SemigroupWitness(1, 1)
        assert semigroup_member(1, 5, 9) == SemigroupWitness(9, 0)
        assert semigroup_member(4, 9, 13) == SemigroupWitness(1, 1)

    def test_frozen_non_members(self):
        assert semigroup_member(3, 5, 7) is None
        assert semigroup_member(4, 9, 14) is None
        assert semigroup_member(6, 13, 20) is None

    def test_scan_prefers_small_b(self):
        # 12 = 6*2 + 0*4 = 0*2 + 3*4; the scan runs b upward
        assert semigroup_member(2, 4, 12) == SemigroupWitness(6, 0)

    def test_witness_identity(self):
        for d1, d2, d3 in ((3, 7, 20), (5, 8, 31), (2, 9, 15)):
            witness = semigroup_member(d1, d2, d3)
            assert witness is not None
            assert witness.a >= 0 and witness.b >= 0
            assert witness.a * d1 + witness.b * d2 == d3

    def test_agrees_with_reachability_table(self):
        for d1 in range(1, 9):
            for d2 in range(d1, 9):
                for d3 in range(1, 61):
                    witness = semigroup_member(d1, d2, d3)
                    assert (witness is not None) == brute_force_member(
                        d1, d2, d3
                    ), (d1, d2, d3)

    def test_frobenius_boundary(self):
        # largest gap of <a, b> with gcd(a, b) = 1 is a*b - a - b
        for a, b in ((3, 5), (4, 7), (5, 9), (7, 11)):
            frobenius = a * b - a - b
            assert semigroup_member(a, b, frobenius) is None
            for n in range(frobenius + 1, frobenius + 2 * b):
                assert semigroup_member(a, b, n) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            semigroup_member(0, 4, 8)
        with pytest.raises(ValueError):
            semigroup_member(2, 4, -1)


def residues(triple):
    """(d3 - b*d2) mod d1 for every b with b*d2 <= d3."""
    d1, d2, d3 = triple
    return [(d3 - b * d2) % d1 for b in range(d3 // d2 + 1)]


class TestExclusionTraces:
    def test_short_progression_shape(self):
        rows = short_progression_exclusion(5, 1)
        assert len(rows) == 2  # b = 0, 1; b = 2 would need 14 <= 9
        assert all(isinstance(s, InequalityCheck) for s in rows)
        assert all(s.holds for s in rows)

    def test_long_progression_shape(self):
        rows = long_progression_exclusion(3, 1)
        assert [s.lhs for s in rows] == residues((3, 7, 11))
        assert all(s.holds for s in rows)

    @pytest.mark.parametrize(
        "r, k", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 3), (9, 4), (13, 1)]
    )
    def test_short_grid_valid(self, r, k):
        rows = short_progression_exclusion(r, k)
        assert all(s.holds for s in rows)
        triple = (r, r + 2 * k, r + 4 * k)
        assert [s.lhs for s in rows] == residues(triple)
        assert not brute_force_member(*triple)

    @pytest.mark.parametrize(
        "r, k", [(3, 1), (3, 2), (5, 1), (7, 2), (9, 2), (11, 1)]
    )
    def test_long_grid_valid(self, r, k):
        rows = long_progression_exclusion(r, k)
        assert all(s.holds for s in rows)
        step = k * (r + 1)
        triple = (r, r + step, r + 2 * step)
        assert [s.lhs for s in rows] == residues(triple)
        assert not brute_force_member(*triple)

    def test_statements_carry_concrete_numbers(self):
        # (5, 7, 9): 9 mod 5 = 4, (9 - 7) mod 5 = 2
        rows = short_progression_exclusion(5, 1)
        assert [(s.lhs, s.rhs) for s in rows] == [(4, 0), (2, 0)]
        assert [s.name for s in rows] == [
            "(d3 - 0*d2) mod d1 != 0, so b = 0 fails",
            "(d3 - 1*d2) mod d1 != 0, so b = 1 fails",
        ]

    def test_to_dict(self):
        rows = [s.to_dict() for s in long_progression_exclusion(3, 1)]
        assert rows and all(row["holds"] is True for row in rows)
        assert all(set(row) == {"name", "lhs", "rhs", "holds"} for row in rows)
        json.dumps(rows)  # must be serializable as-is

    @pytest.mark.parametrize(
        "func", [short_progression_exclusion, long_progression_exclusion]
    )
    def test_preconditions(self, func):
        with pytest.raises(ValueError):
            func(4, 1)  # even r
        with pytest.raises(ValueError):
            func(1, 1)  # r too small
        with pytest.raises(ValueError):
            func(3, 3)  # shared factor
        with pytest.raises(ValueError):
            func(3, 0)
        with pytest.raises(TypeError):
            func(3.0, 1)
        with pytest.raises(TypeError):
            func(True, 1)


TRUTH_TABLE = [
    # triple, status, rule, certificate kind
    ((1, 1, 1), TameStatus.TAME, "R1", "witness_map"),
    ((1, 3, 5), TameStatus.TAME, "R1", "witness_map"),
    ((2, 3, 4), TameStatus.TAME, "R8", "semigroup_witness"),
    ((2, 3, 5), TameStatus.TAME, "R8", "semigroup_witness"),
    ((2, 4, 8), TameStatus.TAME, "R8", "semigroup_witness"),
    ((4, 9, 13), TameStatus.TAME, "R8", "semigroup_witness"),
    ((4, 9, 17), TameStatus.TAME, "R8", "semigroup_witness"),
    ((5, 7, 12), TameStatus.TAME, "R8", "semigroup_witness"),
    ((2, 4, 7), TameStatus.TAME, "R2", "citation"),
    ((2, 6, 9), TameStatus.TAME, "R2", "citation"),
    ((3, 6, 11), TameStatus.TAME, "R3", "citation"),
    ((3, 9, 13), TameStatus.TAME, "R3", "citation"),
    ((3, 4, 5), TameStatus.NOT_TAME, "R3", "citation"),
    ((3, 5, 7), TameStatus.NOT_TAME, "R3", "citation"),
    ((3, 7, 11), TameStatus.NOT_TAME, "R3", "citation"),
    ((5, 7, 9), TameStatus.NOT_TAME, "R4", "citation"),
    ((5, 9, 11), TameStatus.NOT_TAME, "R4", "citation"),
    ((7, 9, 11), TameStatus.NOT_TAME, "R4", "citation"),
    ((4, 9, 14), TameStatus.NOT_TAME, "R6", "citation"),
    ((4, 11, 18), TameStatus.NOT_TAME, "R6", "citation"),
    ((6, 13, 20), TameStatus.NOT_TAME, "R7", "reduction_exclusion"),
    ((8, 35, 62), TameStatus.NOT_TAME, "R7", "reduction_exclusion"),
    ((12, 25, 38), TameStatus.NOT_TAME, "R7", "reduction_exclusion"),
    ((4, 5, 6), TameStatus.UNKNOWN, None, None),
    ((5, 6, 7), TameStatus.UNKNOWN, None, None),
    ((7, 10, 13), TameStatus.UNKNOWN, None, None),
    ((6, 14, 22), TameStatus.UNKNOWN, None, None),
    ((10, 32, 54), TameStatus.UNKNOWN, None, None),
]


class TestClassifyTame:
    @pytest.mark.parametrize("triple, status, rule, kind", TRUTH_TABLE)
    def test_truth_table(self, triple, status, rule, kind):
        result = classify_tame(triple)
        assert result.triple == triple
        assert result.status is status
        assert result.rule_id == rule
        if kind is None:
            assert result.certificate is None
        else:
            assert result.certificate.kind == kind

    def test_r1_witness_realizes_triple(self):
        result = classify_tame((1, 3, 5))
        assert isinstance(result.certificate, WitnessCertificate)
        assert result.realization is result.certificate.witness
        assert sorted(multidegree(result.realization)) == [1, 3, 5]
        document = result.to_dict()
        factors = ["shift(y, x^3)", "shift(z, x^5)"]
        assert document["certificate"]["data"] == {"factors": factors}
        assert document["realization"]["factors"] == factors

    def test_r8_certificate_identity(self):
        result = classify_tame((2, 3, 5))
        certificate = result.certificate
        assert isinstance(certificate, SemigroupWitness)
        assert certificate == semigroup_member(2, 3, 5)
        assert certificate.a * 2 + certificate.b * 3 == 5
        assert certificate.kind == "semigroup_witness"
        assert SemigroupWitness._fields == ("a", "b")
        assert sorted(multidegree(result.realization)) == [2, 3, 5]

    def test_citations_have_statements_and_no_realization(self):
        for triple in ((2, 4, 7), (3, 4, 5), (5, 7, 9), (4, 9, 14)):
            result = classify_tame(triple)
            assert isinstance(result.certificate, CitationCertificate)
            assert result.certificate.statement
            assert result.realization is None

    def test_r7_certificate_contents(self):
        result = classify_tame((6, 13, 20))
        certificate = result.certificate
        assert isinstance(certificate, ReductionAudit)
        assert certificate == reduction_audit(6, 1)
        assert (certificate.d, certificate.k) == (6, 1)
        assert set(certificate.data_dict()) == {"d", "k", "cases", "type_iii"}
        assert [c.coordinate for c in certificate.cases] == [
            "first",
            "second",
            "third",
        ]
        assert all(
            c.conclusion == "reduction_impossible" for c in certificate.cases
        )
        assert certificate.type_iii.excluded is True
        assert result.realization is None

    def test_r7_recovers_parameters(self):
        result = classify_tame((8, 35, 62))
        assert (result.certificate.d, result.certificate.k) == (8, 3)

    def test_unknown_has_no_certificate(self):
        result = classify_tame((4, 5, 6))
        assert result.status is TameStatus.UNKNOWN
        assert result.rule_id is None
        assert result.certificate is None
        assert result.realization is None

    def test_status_values(self):
        assert TameStatus.TAME.value == "tame"
        assert TameStatus.NOT_TAME.value == "not_tame"
        assert TameStatus.UNKNOWN.value == "unknown"

    def test_accepts_lists(self):
        assert classify_tame([2, 3, 5]).status is TameStatus.TAME

    @pytest.mark.parametrize(
        "bad",
        [(3, 2, 1), (0, 1, 2), (1, 2), (1, 2, 3, 4)],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            classify_tame(bad)


class TestClassificationSerialization:
    def test_unknown_document(self):
        document = classify_tame((4, 5, 6)).to_dict()
        assert document == {
            "triple": [4, 5, 6],
            "status": "unknown",
            "rule_id": None,
            "certificate": {"kind": "none"},
        }

    def test_witness_document_round_trips_through_json(self):
        for triple in ((1, 3, 5), (2, 3, 5), (6, 13, 20), (4, 5, 6)):
            document = classify_tame(triple).to_dict()
            assert document == json.loads(json.dumps(document))

    def test_realization_key_is_optional(self):
        result = classify_tame((2, 3, 5))
        assert "realization" in result.to_dict()
        assert "realization" not in result.to_dict(include_realization=False)

    def test_certificate_document_shape(self):
        document = classify_tame((6, 13, 20)).to_dict()
        certificate = document["certificate"]
        assert certificate["kind"] == "reduction_exclusion"
        assert set(certificate["data"]) == {"d", "k", "cases", "type_iii"}


class TestFamilyParams:
    def test_triples(self):
        assert FamilyParams(Family.ODD_1_MOD_4, 5, 1).triple() == (5, 7, 9)
        assert FamilyParams(Family.ODD_GENERAL, 3, 1).triple() == (3, 7, 11)
        assert FamilyParams(Family.EVEN_GT_4, 6, 1).triple() == (6, 13, 20)
        assert FamilyParams(Family.D_EQUALS_4, 4, 3).triple() == (4, 19, 34)

    def test_witness_matches_triple(self):
        for params in (
            FamilyParams(Family.ODD_1_MOD_4, 9, 2),
            FamilyParams(Family.ODD_GENERAL, 7, 1),
            FamilyParams(Family.EVEN_GT_4, 8, 3),
            FamilyParams(Family.D_EQUALS_4, 4, 5),
        ):
            witness = params.witness()
            assert tuple(sorted(multidegree(witness))) == params.triple()

    def test_exclusions(self):
        for params in (
            FamilyParams(Family.ODD_1_MOD_4, 5, 1),
            FamilyParams(Family.ODD_GENERAL, 3, 2),
        ):
            rows = params.exclusion()
            assert rows and all(s.holds for s in rows)
            assert [s.lhs for s in rows] == residues(params.triple())
        assert FamilyParams(Family.EVEN_GT_4, 6, 1).exclusion() is None
        assert FamilyParams(Family.D_EQUALS_4, 4, 1).exclusion() is None

    @pytest.mark.parametrize(
        "family, d, k",
        [
            (Family.ODD_1_MOD_4, 7, 1),  # 7 != 1 (mod 4)
            (Family.ODD_1_MOD_4, 1, 1),  # too small
            (Family.ODD_1_MOD_4, 5, 5),  # shared factor
            (Family.ODD_GENERAL, 4, 1),  # even
            (Family.ODD_GENERAL, 1, 1),  # too small
            (Family.ODD_GENERAL, 9, 3),  # shared factor
            (Family.EVEN_GT_4, 4, 1),  # too small
            (Family.EVEN_GT_4, 7, 1),  # odd
            (Family.EVEN_GT_4, 6, 3),  # shared factor
            (Family.D_EQUALS_4, 6, 1),  # wrong degree
            (Family.D_EQUALS_4, 4, 2),  # even k
            (Family.ODD_GENERAL, 3, 0),  # k too small
        ],
    )
    def test_invalid_parameters(self, family, d, k):
        with pytest.raises(ValueError):
            FamilyParams(family, d, k)

    def test_type_errors(self):
        with pytest.raises(TypeError):
            FamilyParams(Family.ODD_GENERAL, 3.0, 1)
        with pytest.raises(TypeError):
            FamilyParams(Family.ODD_GENERAL, 3, True)


class TestWildFamily:
    @pytest.mark.parametrize(
        "family, d, k, rule",
        [
            (Family.ODD_GENERAL, 3, 1, "R3"),
            (Family.ODD_1_MOD_4, 5, 1, "R4"),
            (Family.EVEN_GT_4, 6, 1, "R7"),
            (Family.D_EQUALS_4, 4, 1, "R6"),
        ],
    )
    def test_rule_attribution(self, family, d, k, rule):
        triple, classification = wild_family(FamilyParams(family, d, k))
        assert classification.status is TameStatus.NOT_TAME
        assert classification.rule_id == rule
        assert classification.triple == triple

    def test_certificate_records_family_data(self):
        triple, classification = wild_family(
            FamilyParams(Family.ODD_1_MOD_4, 5, 2)
        )
        assert triple == (5, 9, 13)
        certificate = classification.certificate
        assert isinstance(certificate, WildFamilyCertificate)
        assert certificate.kind == "wild_family"
        assert certificate.family == "odd_1_mod_4"
        assert (certificate.d, certificate.k) == (5, 2)
        assert certificate.exclusion == short_progression_exclusion(5, 2)
        assert all(s.holds for s in certificate.exclusion)
        assert certificate.proof == classify_tame(triple).certificate
        assert certificate.proof.kind == "citation"

    def test_even_families_have_no_trace(self):
        for params in (
            FamilyParams(Family.EVEN_GT_4, 8, 1),
            FamilyParams(Family.D_EQUALS_4, 4, 3),
        ):
            triple, classification = wild_family(params)
            assert classification.certificate.exclusion is None
            proof = classification.certificate.proof
            assert proof == classify_tame(triple).certificate
            data = classification.to_dict()["certificate"]["data"]
            assert data["exclusion"] is None
            assert data["proof"] == {"kind": proof.kind, "data": proof.data_dict()}

    def test_realization_is_attached(self):
        grid = [
            FamilyParams(Family.ODD_GENERAL, 7, 2),
            FamilyParams(Family.ODD_1_MOD_4, 13, 1),
            FamilyParams(Family.EVEN_GT_4, 8, 1),
            FamilyParams(Family.D_EQUALS_4, 4, 1),
        ]
        for params in grid:
            triple, classification = wild_family(params)
            realization = classification.realization
            assert realization is not None
            assert tuple(sorted(multidegree(realization))) == triple

    def test_document_shape(self):
        _, classification = wild_family(FamilyParams(Family.ODD_GENERAL, 3, 1))
        document = classification.to_dict()
        assert document["certificate"]["kind"] == "wild_family"
        data = document["certificate"]["data"]
        assert set(data) == {"family", "d", "k", "exclusion", "proof"}
        assert data["exclusion"] == [
            s.to_dict() for s in long_progression_exclusion(3, 1)
        ]
        assert data["proof"] == classify_tame((3, 7, 11)).to_dict()["certificate"]
        json.dumps(document)


class TestDefaultFamily:
    def test_frozen_map(self):
        expected = {
            3: Family.ODD_GENERAL,
            4: Family.D_EQUALS_4,
            5: Family.ODD_1_MOD_4,
            6: Family.EVEN_GT_4,
            7: Family.ODD_GENERAL,
            8: Family.EVEN_GT_4,
            9: Family.ODD_1_MOD_4,
            10: Family.EVEN_GT_4,
            11: Family.ODD_GENERAL,
            12: Family.EVEN_GT_4,
            13: Family.ODD_1_MOD_4,
        }
        assert {d: default_family(d) for d in expected} == expected

    def test_validation(self):
        for bad in (2, 1, 0, -3):
            with pytest.raises(ValueError):
                default_family(bad)
        for bad in (3.0, True):
            with pytest.raises(TypeError):
                default_family(bad)


class TestEnumerateWild:
    def test_frozen_prefixes(self):
        assert [c.triple for c in enumerate_wild(3, 4)] == [
            (3, 7, 11),
            (3, 11, 19),
            (3, 19, 35),
            (3, 23, 43),
        ]
        assert [c.triple for c in enumerate_wild(4, 3)] == [
            (4, 9, 14),
            (4, 19, 34),
            (4, 29, 54),
        ]
        assert [c.triple for c in enumerate_wild(5, 2)] == [
            (5, 7, 9),
            (5, 9, 13),
        ]

    def test_skips_inadmissible_parameters(self):
        # d = 6 skips k in {2, 3, 4, 6, ...}; d = 4 skips even k entirely
        triples = [c.triple for c in enumerate_wild(6, 3)]
        assert triples == [(6, 13, 20), (6, 41, 76), (6, 55, 104)]

    def test_results_certified(self):
        for classification in enumerate_wild(7, 3):
            assert classification.status is TameStatus.NOT_TAME
            assert classification.certificate.kind == "wild_family"
            assert classification.realization is not None

    def test_middle_degrees_strictly_increase(self):
        for d in (3, 4, 5, 6):
            middles = [c.triple[1] for c in enumerate_wild(d, 5)]
            assert middles == sorted(set(middles))

    def test_count_zero(self):
        assert enumerate_wild(5, 0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_wild(2, 1)
        with pytest.raises(ValueError):
            enumerate_wild(5, -1)
        with pytest.raises(TypeError):
            enumerate_wild(5, 1.0)


class TestFamilyTriplesAreCoprimeFree:
    """The family parameters always avoid R8; spot-check the scan agrees."""

    def test_no_family_triple_is_a_semigroup_member(self):
        instances = [
            FamilyParams(Family.ODD_GENERAL, d, k)
            for d in (3, 5, 7)
            for k in (1, 2, 4)
            if gcd(d, k) == 1
        ] + [
            FamilyParams(Family.ODD_1_MOD_4, d, k)
            for d in (5, 9, 13)
            for k in (1, 2, 3)
            if gcd(d, k) == 1
        ] + [
            FamilyParams(Family.EVEN_GT_4, d, k)
            for d in (6, 8, 10)
            for k in (1, 3, 7)
            if gcd(d, k) == 1
        ] + [
            FamilyParams(Family.D_EQUALS_4, 4, k)
            for k in (1, 3, 5, 7)
        ]
        for params in instances:
            d1, d2, d3 = params.triple()
            assert semigroup_member(d1, d2, d3) is None, params


SOUNDNESS_MAX = 40


def constructibly_tame_triples():
    """Sorted triples with d3 <= SOUNDNESS_MAX and d1 | d2 or d3 in <d1, d2>.

    Both are tame multidegrees by explicit triangular maps.  Membership is
    read from one reachability table of <d1, d2> per pair.
    """
    for d1 in range(1, SOUNDNESS_MAX + 1):
        for d2 in range(d1, SOUNDNESS_MAX + 1):
            reach = [True] + [False] * SOUNDNESS_MAX
            for n in range(1, SOUNDNESS_MAX + 1):
                reach[n] = (n >= d1 and reach[n - d1]) or (
                    n >= d2 and reach[n - d2]
                )
            for d3 in range(d2, SOUNDNESS_MAX + 1):
                if d2 % d1 == 0 or reach[d3]:
                    yield d1, d2, d3


def audit_case_holds(triple, i):
    """The reduction audit's case for coordinate i of any distinct triple,
    built as ``no_elementary_reduction_check`` builds it for a family one."""
    j, l = (n for n in range(3) if n != i)
    query = ReductionQuery(triple[j], triple[l], 1, 0)
    return triple[i] < su_lower_bound(query) and all(
        c.holds for c in _residue_checks(triple, i, j, l, query.p)
    )


class TestSoundness:
    """No verdict or audit refutes a constructibly tame triple."""

    def test_tame_triples_are_never_called_not_tame(self):
        tame = list(constructibly_tame_triples())
        assert len(tame) > 5000
        for triple in tame:
            status = classify_tame(triple).status
            assert status is not TameStatus.NOT_TAME, triple

    def test_tame_triples_never_pass_the_whole_audit(self):
        checked = 0
        for d1, d2, d3 in constructibly_tame_triples():
            if not d1 < d2 < d3:
                continue
            checked += 1
            triple = (d1, d2, d3)
            assert not (
                all(audit_case_holds(triple, i) for i in range(3))
                and type_iii_check(triple).excluded
            ), triple
        assert checked > 3000
