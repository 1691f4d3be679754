"""Unit tests for the elementary-reduction degree bounds.

The numeric expectations for the (6, 13, 20) audit were computed by hand:
  floors su_lower_bound(q = 1, r = 0): 229 for (13, 20), 36 for (6, 20)
  and 61 for (6, 13); residues 6 mod 13, 13 mod 6, 20 mod 6 and 7 mod 6.
"""

from math import gcd

import pytest

from wildmdeg import (
    InequalityCheck,
    ReductionQuery,
    family_triple,
    no_elementary_reduction_check,
    reduction_audit,
    su_lower_bound,
    type_iii_check,
)
from wildmdeg.reduction import INCONCLUSIVE, REDUCTION_IMPOSSIBLE, CaseReport


class TestReductionQuery:
    def test_p_is_degree_over_gcd(self):
        assert ReductionQuery(6, 20, 0, 0).p == 3
        assert ReductionQuery(4, 14, 0, 0).p == 2
        assert ReductionQuery(5, 7, 0, 0).p == 5
        assert ReductionQuery(6, 13, 0, 0).p == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ReductionQuery(7, 7, 0, 0)  # need deg_f < deg_g
        with pytest.raises(ValueError):
            ReductionQuery(0, 5, 0, 0)
        with pytest.raises(ValueError):
            ReductionQuery(5, 7, -1, 0)
        with pytest.raises(ValueError):
            ReductionQuery(5, 7, 0, 5)  # r must stay below p
        with pytest.raises(ValueError):
            ReductionQuery(5, 7, 0, -1)
        with pytest.raises(ValueError):
            ReductionQuery(5, 7, 0, 0, bracket_deg_lb=1)
        with pytest.raises(TypeError):
            ReductionQuery(5.0, 7, 0, 0)
        with pytest.raises(TypeError):
            ReductionQuery(True, 7, 0, 0)

    def test_r_bound_depends_on_p(self):
        # p = 3 here, so r = 2 is fine and r = 3 is not
        assert ReductionQuery(6, 20, 0, 2).r == 2
        with pytest.raises(ValueError):
            ReductionQuery(6, 20, 0, 3)


class TestSuLowerBound:
    def test_hand_computed_values(self):
        # q*(p*deg_g - deg_g - deg_f + lb) + r*deg_g
        assert su_lower_bound(ReductionQuery(6, 20, 1, 0)) == 36
        assert su_lower_bound(ReductionQuery(6, 13, 1, 0)) == 61
        assert su_lower_bound(ReductionQuery(6, 20, 0, 1)) == 20
        assert su_lower_bound(ReductionQuery(6, 20, 0, 0)) == 0
        assert su_lower_bound(ReductionQuery(6, 20, 2, 2)) == 112
        assert su_lower_bound(ReductionQuery(4, 14, 1, 0, 4)) == 14 + 4 - 4

    def test_monotone_in_q_and_r_when_p_at_least_two(self):
        for deg_f, deg_g in ((6, 20), (4, 14), (9, 12), (10, 25)):
            base = ReductionQuery(deg_f, deg_g, 1, 1)
            assert base.p >= 2
            more_q = ReductionQuery(deg_f, deg_g, 2, 1)
            more_r = ReductionQuery(deg_f, deg_g, 1, 0)
            assert su_lower_bound(more_q) > su_lower_bound(base)
            assert su_lower_bound(base) > su_lower_bound(more_r)


class TestCaseReport:
    def test_from_checks_all_hold(self):
        checks = (InequalityCheck("a < b", 1, 2, True),)
        report = CaseReport("first", checks)
        assert report.conclusion == REDUCTION_IMPOSSIBLE

    def test_from_checks_any_failure(self):
        checks = (
            InequalityCheck("a < b", 1, 2, True),
            InequalityCheck("b < a", 2, 1, False),
        )
        report = CaseReport("second", checks)
        assert report.conclusion == INCONCLUSIVE

    def test_to_dict(self):
        report = CaseReport("third", (InequalityCheck("n", 1, 2, True),))
        assert report.to_dict() == {
            "coordinate": "third",
            "checks": [{"name": "n", "lhs": 1, "rhs": 2, "holds": True}],
            "conclusion": "reduction_impossible",
        }


class TestNoElementaryReduction:
    def test_case_structure_for_6_1(self):
        reports = no_elementary_reduction_check(6, 1)
        assert [r.coordinate for r in reports] == ["first", "second", "third"]
        assert all(r.conclusion == REDUCTION_IMPOSSIBLE for r in reports)

    def test_frozen_values_for_6_1(self):
        first, second, third = no_elementary_reduction_check(6, 1)

        values = [(c.lhs, c.rhs) for c in first.checks]
        assert values == [
            (6, 229),  # d1 below the (d2, d3) floor, so q = 0
            (6, 0),  # 6 mod 13: b = 0 fails, and b = 1 would need 20 <= 6
        ]

        values = [(c.lhs, c.rhs) for c in second.checks]
        assert values == [
            (13, 36),  # d2 below the (d1, d3) floor, so q = 0
            (1, 0),  # 13 mod 6: b = 0 fails, and b = 1 would need 20 <= 13
        ]

        values = [(c.lhs, c.rhs) for c in third.checks]
        assert values == [
            (20, 61),  # d3 below the (d1, d2) floor, so q = 0
            (2, 0),  # 20 mod 6: b = 0 fails
            (1, 0),  # (20 - 13) mod 6: b = 1 fails; b = 2 would need 26 <= 20
        ]
        assert third.checks[2].name == (
            "(d3 - 1*d2) mod d1 != 0, so b = 1 fails"
        )

    @pytest.mark.parametrize(
        "d, k",
        [(d, k) for d in (6, 8, 10) for k in (1, 2, 3, 5) if gcd(d, k) == 1],
    )
    def test_family_grid_excluded(self, d, k):
        reports = no_elementary_reduction_check(d, k)
        assert all(r.conclusion == REDUCTION_IMPOSSIBLE for r in reports)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_degree_four_with_odd_k(self, k):
        reports = no_elementary_reduction_check(4, k)
        assert all(r.conclusion == REDUCTION_IMPOSSIBLE for r in reports)

    def test_validation(self):
        with pytest.raises(ValueError):
            no_elementary_reduction_check(5, 1)  # odd d
        with pytest.raises(ValueError):
            no_elementary_reduction_check(2, 1)  # too small
        with pytest.raises(ValueError):
            no_elementary_reduction_check(4, 2)  # d = 4 needs odd k
        with pytest.raises(ValueError):
            no_elementary_reduction_check(6, 3)  # shared factor
        with pytest.raises(ValueError):
            no_elementary_reduction_check(6, 0)
        with pytest.raises(TypeError):
            no_elementary_reduction_check(6.0, 1)


class TestTypeThree:
    def test_family_triple_excluded(self):
        report = type_iii_check((6, 13, 20))
        assert report.condition1 is False  # 13 is odd
        assert report.condition2 is True  # 3 | 6
        assert report.excluded is True

    def test_not_excluded_examples(self):
        # both conditions hold: middle even, and ratio or divisibility
        assert type_iii_check((1, 2, 3)).excluded is False
        assert type_iii_check((3, 4, 6)).excluded is False

    def test_excluded_examples(self):
        assert type_iii_check((2, 3, 5)).excluded is True  # middle odd
        assert type_iii_check((4, 6, 7)).excluded is True  # second fails

    def test_family_members_always_excluded(self):
        for d in (4, 6, 8, 10, 12):
            for k in (1, 3, 5):
                if gcd(d, k) != 1:
                    continue
                triple = (d, d + k * (d + 1), d + 2 * k * (d + 1))
                assert type_iii_check(triple).excluded

    def test_to_dict(self):
        assert type_iii_check((6, 13, 20)).to_dict() == {
            "triple": [6, 13, 20],
            "condition1": False,
            "condition2": True,
            "excluded": True,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            type_iii_check((3, 2, 1))
        with pytest.raises(ValueError):
            type_iii_check((0, 1, 2))
        with pytest.raises(ValueError):
            type_iii_check((1, 2))
        with pytest.raises(TypeError):
            type_iii_check((1, 2, "3"))


class TestReductionAudit:
    def test_family_triple(self):
        assert family_triple(6, 1) == (6, 13, 20)
        assert family_triple(4, 3) == (4, 19, 34)

    @pytest.mark.parametrize("d, k", [(0, 5), (3, 0), (-1, 1), (5, -2)])
    def test_family_triple_validation(self, d, k):
        with pytest.raises(ValueError):
            family_triple(d, k)

    def test_document_for_6_1(self):
        audit = reduction_audit(6, 1)
        assert audit.triple == (6, 13, 20)
        assert audit.excluded is True
        assert audit.to_dict() == {
            "d": 6,
            "k": 1,
            "triple": [6, 13, 20],
            "cases": [c.to_dict() for c in no_elementary_reduction_check(6, 1)],
            "type_iii": type_iii_check((6, 13, 20)).to_dict(),
            "all_excluded": True,
        }

    def test_exact_floors_are_su_lower_bounds(self):
        for d, k in ((4, 1), (6, 1), (8, 3), (10, 7)):
            d1, d2, d3 = family_triple(d, k)
            first, second, third = reduction_audit(d, k).cases
            for case, pair in ((first, (d2, d3)), (second, (d1, d3)),
                               (third, (d1, d2))):
                assert case.checks[0].rhs == su_lower_bound(
                    ReductionQuery(*pair, 1, 0)
                )

    def test_residue_rows_cover_every_b_below_p(self):
        # after the floor row, row b says no a >= 0 has a*d_j + b*d_l = d_i,
        # for each b < p that leaves a*d_j >= 0
        for d, k in ((4, 1), (6, 1), (8, 3), (10, 7), (12, 5)):
            triple = family_triple(d, k)
            for i, case in enumerate(reduction_audit(d, k).cases):
                j, l = (n for n in range(3) if n != i)
                p = ReductionQuery(triple[j], triple[l], 0, 0).p
                bs = [b for b in range(p) if b * triple[l] <= triple[i]]
                assert len(case.checks) == 1 + len(bs)
                for b, check in zip(bs, case.checks[1:]):
                    assert check.holds is not any(
                        a * triple[j] + b * triple[l] == triple[i]
                        for a in range(triple[i] + 1)
                    )

    def test_validation_is_the_checks(self):
        with pytest.raises(ValueError):
            reduction_audit(6, 3)
        with pytest.raises(TypeError):
            reduction_audit(6.0, 1)
