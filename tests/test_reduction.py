"""Unit tests for the elementary-reduction degree bounds.

The numeric expectations for the (6, 13, 20) audit were computed by hand:
  floors su_lower_bound(q = 1, r = 0): 229 for (13, 20), 36 for (6, 20)
  and 61 for (6, 13); residues 6 mod 13, 13 mod 6, 20 mod 6 and 7 mod 6.
"""

from math import gcd
from random import Random

import pytest

from conftest import SEED
from wildmdeg import (
    X,
    Y,
    Z,
    Family,
    FamilyParams,
    InequalityCheck,
    Polynomial,
    ReductionAudit,
    ReductionQuery,
    family_triple,
    no_elementary_reduction_check,
    reduction_audit,
    su_lower_bound,
    type_iii_check,
)
from wildmdeg.classify import _admitted


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


# (e, a, b): deg f = e*a < deg g = e*b, with p = a / gcd(a, b) >= 2
_SU_DEGREES = (
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5), (1, 4, 6), (2, 2, 3)
)


def _random_poly(rng, degree, terms):
    """A polynomial of total degree exactly ``degree`` (>= 1): one top term
    and up to ``terms - 1`` terms of lower degree, small coefficients."""

    def monomial(total):
        i = rng.randint(0, total)
        j = rng.randint(0, total - i)
        return (i, j, total - i - j)

    mapping = {monomial(degree): rng.choice((-2, -1, 1, 2, 3))}
    for _ in range(terms - 1):
        mapping[monomial(rng.randrange(degree))] = rng.choice((-2, -1, 1, 2))
    return Polynomial(mapping)


def _su_case(rng):
    """One draw (f, g, G, q, r) for the inequality: deg f = n < deg g = m
    with p = n / gcd(n, m) >= 2, and G in x and y with deg_y G = p*q + r.
    In about 60 % of draws f = h^a + lower terms and g = h^b + lower
    terms, so that their leading forms are dependent, and G starts from
    (y^p - x^(b/gcd(a, b)))^q, which cancels those forms."""
    e, a, b = rng.choice(_SU_DEGREES)
    n, m = e * a, e * b
    p = n // gcd(n, m)
    q = rng.randrange(3 if p < 4 else 2)
    r = rng.randrange(p)
    if rng.random() < 0.6:
        h = _random_poly(rng, e, 3)
        f = h**a + _random_poly(rng, n - 1, 2)
        g = h**b + _random_poly(rng, m - 1, 2)
        G = (Y**p - X ** (b // gcd(a, b))) ** q
    else:
        f, g = _random_poly(rng, n, 3), _random_poly(rng, m, 3)
        G = Y ** (p * q)
    G = G * X ** rng.randrange(3) * Y**r
    for _ in range(rng.randrange(3)):  # terms of y-degree <= p*q + r
        term = X ** rng.randrange(4) * Y ** rng.randrange(p * q + r + 1)
        G = G + rng.choice((-1, 1, 2)) * term
    return f, g, G, q, r


def _su_degrees(f, g, G, q, r):
    """(deg G(f, g), deg [f, g], n, m), or None when the draw breaks a
    hypothesis of the theorem: p >= 2, f and g algebraically independent
    (some 2x2 minor of their Jacobian is nonzero), and G nonzero with
    deg_y G = p*q + r."""
    n, m = f.total_degree(), g.total_degree()
    p = n // gcd(n, m)
    minors = [
        f.partial(s) * g.partial(t) - f.partial(t) * g.partial(s)
        for s, t in (("x", "y"), ("x", "z"), ("y", "z"))
    ]
    minors = [minor for minor in minors if not minor.is_zero()]
    if p < 2 or not minors or G.is_zero():
        return None
    if max(ey for _, ey, _ in G.terms()) != p * q + r:
        return None
    bracket = 2 + max(minor.total_degree() for minor in minors)
    return G.substitute(f, g, Z).total_degree(), bracket, n, m


class TestSuInequality:
    """deg G(f, g) >= q*(p*m - m - n + deg [f, g]) + r*m, on polynomials.

    This is the Shestakov-Umirbaev inequality behind every R7 floor row:
    f and g algebraically independent, deg f = n < deg g = m and
    p = n / gcd(n, m) >= 2 (so g's leading form is not in C[f's]), and
    deg_y G = p*q + r with 0 <= r < p; deg [f, g] is 2 plus the largest
    degree of a 2x2 minor of the Jacobian of (f, g).
    """

    def test_bound_on_random_draws(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @hypothesis.settings(
            derandomize=True, deadline=None, database=None, max_examples=120
        )
        @hypothesis.given(st.randoms(use_true_random=False))
        def check(rng):
            _, _, G, q, r = case = _su_case(rng)
            degrees = _su_degrees(*case)
            hypothesis.assume(degrees is not None)  # discarded, never passed
            degree, bracket, n, m = degrees
            for lb in (bracket, 2):  # the true bracket degree, and the floor row's
                assert degree >= su_lower_bound(ReductionQuery(n, m, q, r, lb))
            if q == 0:  # the monomials f^i g^j have distinct degrees i*n + j*m
                assert degree == max(i * n + j * m for i, j, _ in G.terms())

        check()

    def test_composition_agrees_with_sympy(self):
        # a few draws' G(f, g), so that the bound rests not on the kernel alone
        rings = pytest.importorskip("sympy.polys.rings")
        from sympy import QQ

        ring = rings.ring("x,y,z", QQ)[0]

        def in_ring(poly):  # the draws' coefficients are ints
            return ring.from_dict({t: QQ(c) for t, c in poly.terms().items()})

        rng, checked = Random(SEED), 0
        while checked < 5:
            f, g, G, q, r = case = _su_case(rng)
            if _su_degrees(*case) is None:
                continue
            f_, g_ = in_ring(f), in_ring(g)
            theirs = sum(
                (QQ(c) * f_**i * g_**j for (i, j, _), c in G.terms().items()), ring.zero
            )
            assert theirs == in_ring(G.substitute(f, g, Z))
            checked += 1


def audit_of(*cases, type_iii=(6, 13, 20)):
    """A ReductionAudit of (6, 1) holding the given (coordinate, rows) cases."""
    return ReductionAudit(6, 1, cases, type_iii_check(type_iii))


class TestCaseReport:
    """A case's entry in the audit document, concluded from its rows."""

    def test_from_checks_all_hold(self):
        checks = (InequalityCheck("a < b", 1, 2, True),)
        audit = audit_of(("first", checks))
        [case] = audit.data_dict()["cases"]
        assert case["conclusion"] == "reduction_impossible"
        assert audit.excluded is True

    def test_from_checks_any_failure(self):
        checks = (
            InequalityCheck("a < b", 1, 2, True),
            InequalityCheck("b < a", 2, 1, False),
        )
        audit = audit_of(("first", checks[:1]), ("second", checks))
        first, second = audit.data_dict()["cases"]
        assert first["conclusion"] == "reduction_impossible"
        assert second["conclusion"] == "inconclusive"
        assert audit.excluded is False
        assert audit.to_dict()["all_excluded"] is False

    def test_to_dict(self):
        audit = audit_of(("third", (InequalityCheck("n", 1, 2, True),)))
        assert audit.data_dict()["cases"] == [{
            "coordinate": "third",
            "checks": [{"name": "n", "lhs": 1, "rhs": 2, "holds": True}],
            "conclusion": "reduction_impossible",
        }]

    def test_type_iii_gates_the_verdict(self):
        # (1, 2, 3) meets both type-III conditions, so the shape is possible
        audit = audit_of(("first", (InequalityCheck("n", 1, 2, True),)),
                         type_iii=(1, 2, 3))
        assert audit.data_dict()["cases"][0]["conclusion"] == (
            "reduction_impossible"
        )
        assert audit.excluded is False


class TestNoElementaryReduction:
    def test_case_structure_for_6_1(self):
        cases = no_elementary_reduction_check((6, 13, 20))
        assert isinstance(cases, tuple)
        assert [coordinate for coordinate, _ in cases] == [
            "first", "second", "third"
        ]
        assert all(row.holds for _, rows in cases for row in rows)

    def test_frozen_values_for_6_1(self):
        first, second, third = (
            rows for _, rows in no_elementary_reduction_check((6, 13, 20))
        )

        values = [(c.lhs, c.rhs) for c in first]
        assert values == [
            (6, 229),  # d1 below the (d2, d3) floor, so q = 0
            (6, 0),  # 6 mod 13: b = 0 fails, and b = 1 would need 20 <= 6
        ]

        values = [(c.lhs, c.rhs) for c in second]
        assert values == [
            (13, 36),  # d2 below the (d1, d3) floor, so q = 0
            (1, 0),  # 13 mod 6: b = 0 fails, and b = 1 would need 20 <= 13
        ]

        values = [(c.lhs, c.rhs) for c in third]
        assert values == [
            (20, 61),  # d3 below the (d1, d2) floor, so q = 0
            (2, 0),  # 20 mod 6: b = 0 fails
            (1, 0),  # (20 - 13) mod 6: b = 1 fails; b = 2 would need 26 <= 20
        ]
        assert third[2].name == (
            "(d3 - 1*d2) mod d1 != 0, so b = 1 fails"
        )

    @pytest.mark.parametrize(
        "d, k",
        [(d, k) for d in (6, 8, 10) for k in (1, 2, 3, 5) if gcd(d, k) == 1],
    )
    def test_family_grid_excluded(self, d, k):
        cases = no_elementary_reduction_check(family_triple(d, k))
        assert all(row.holds for _, rows in cases for row in rows)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_degree_four_with_odd_k(self, k):
        cases = no_elementary_reduction_check(family_triple(4, k))
        assert all(row.holds for _, rows in cases for row in rows)

    @pytest.mark.parametrize("d", range(4, 17, 2))
    def test_family_triple_gives_the_audit_cases(self, d):
        for k in range(1, 12):
            if gcd(d, k) == 1:
                cases = no_elementary_reduction_check(family_triple(d, k))
                assert cases == reduction_audit(d, k).cases, k

    def test_any_strict_triple_gets_three_cases(self):
        # (5, 7, 9) is lemma1's triple, no even family triple
        cases = no_elementary_reduction_check((5, 7, 9))
        assert [coordinate for coordinate, _ in cases] == [
            "first", "second", "third"
        ]
        first, second, third = (rows for _, rows in cases)
        # 9 = 5a + 7b has no solution in naturals: b = 0 and b = 1 fail
        assert [(c.lhs, c.rhs) for c in third[1:]] == [(4, 0), (2, 0)]
        assert all(row.holds for _, rows in cases for row in rows)
        # 10 = 2*5 is in <5, 7>, so the third case fails its b = 0 row
        (_, _, (_, rows)) = no_elementary_reduction_check((5, 7, 10))
        assert [row.holds for row in rows[1:]] == [False, True]

    # a query needs deg_f < deg_g, so two equal degrees are rejected
    @pytest.mark.parametrize(
        "triple", [(6, 6, 7), (6, 7, 7), (7, 6, 5), (0, 1, 2), (1, 2)]
    )
    def test_validation(self, triple):
        with pytest.raises(ValueError):
            no_elementary_reduction_check(triple)

    def test_non_int_degree_is_a_type_error(self):
        with pytest.raises(TypeError):
            no_elementary_reduction_check((6.0, 13, 20))


def type_iii_possible(triple):
    """The two necessary conditions of the type-III shape, as first stated:
    the middle degree is even, and 3 divides the smallest degree or the
    top/middle ratio is exactly 3/2."""
    d1, d2, d3 = triple
    return d2 % 2 == 0 and (d1 % 3 == 0 or 2 * d3 == 3 * d2)


def excluded(triple):
    return all(row.holds for row in type_iii_check(triple))


class TestTypeThree:
    def test_family_triple_excluded(self):
        # 13 is odd, so one row settles it
        assert type_iii_check((6, 13, 20)) == (
            InequalityCheck("d2 mod 2 != 0", 1, 0, True),
        )
        assert excluded((6, 13, 20)) is True

    def test_not_excluded_examples(self):
        # both conditions hold: middle even, and ratio or divisibility
        assert excluded((1, 2, 3)) is False
        assert excluded((3, 4, 6)) is False
        assert type_iii_check((3, 4, 6)) == (
            InequalityCheck("d1 mod 3 != 0", 0, 0, False),
            InequalityCheck("2*d3 != 3*d2", 12, 12, False),
        )

    def test_excluded_examples(self):
        assert excluded((2, 3, 5)) is True  # middle odd
        assert excluded((4, 6, 7)) is True  # second fails

    def test_family_members_always_excluded(self):
        for d in (4, 6, 8, 10, 12):
            for k in (1, 3, 5):
                if gcd(d, k) != 1:
                    continue
                triple = (d, d + k * (d + 1), d + 2 * k * (d + 1))
                assert excluded(triple)

    def test_rows_match_the_two_conditions(self):
        for d3 in range(1, 61):
            for d2 in range(1, d3 + 1):
                for d1 in range(1, d2 + 1):
                    triple = (d1, d2, d3)
                    assert excluded(triple) is not type_iii_possible(triple), (
                        triple
                    )

    def test_to_dict(self):
        assert [row.to_dict() for row in type_iii_check((6, 13, 20))] == [
            {"name": "d2 mod 2 != 0", "lhs": 1, "rhs": 0, "holds": True},
        ]

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
            "cases": [
                {
                    "coordinate": coordinate,
                    "checks": [row.to_dict() for row in rows],
                    "conclusion": "reduction_impossible",
                }
                for coordinate, rows in no_elementary_reduction_check(
                    (6, 13, 20)
                )
            ],
            "type_iii": {
                "triple": [6, 13, 20],
                "checks": [
                    {"name": "d2 mod 2 != 0", "lhs": 1, "rhs": 0, "holds": True},
                ],
                "excluded": True,
            },
            "all_excluded": True,
        }

    def test_exact_floors_are_su_lower_bounds(self):
        for d, k in ((4, 1), (6, 1), (8, 3), (10, 7)):
            d1, d2, d3 = family_triple(d, k)
            first, second, third = reduction_audit(d, k).cases
            for (_, rows), pair in ((first, (d2, d3)), (second, (d1, d3)),
                                    (third, (d1, d2))):
                assert rows[0].rhs == su_lower_bound(
                    ReductionQuery(*pair, 1, 0)
                )

    def test_residue_rows_cover_every_b_below_p(self):
        # after the floor row, row b says no a >= 0 has a*d_j + b*d_l = d_i,
        # for each b < p that leaves a*d_j >= 0
        for d, k in ((4, 1), (6, 1), (8, 3), (10, 7), (12, 5)):
            triple = family_triple(d, k)
            for i, (_, rows) in enumerate(reduction_audit(d, k).cases):
                j, l = (n for n in range(3) if n != i)
                p = ReductionQuery(triple[j], triple[l], 0, 0).p
                bs = [b for b in range(p) if b * triple[l] <= triple[i]]
                assert len(rows) == 1 + len(bs)
                for b, check in zip(bs, rows[1:]):
                    assert check.holds is not any(
                        a * triple[j] + b * triple[l] == triple[i]
                        for a in range(triple[i] + 1)
                    )

    def test_validation_is_the_checks(self):
        with pytest.raises(ValueError, match="d must be even"):
            reduction_audit(5, 1)
        with pytest.raises(ValueError, match="at least 4, got 2"):
            reduction_audit(2, 1)  # too small
        with pytest.raises(ValueError, match="gcd"):
            reduction_audit(4, 2)  # d = 4 needs odd k
        with pytest.raises(ValueError, match=r"gcd\(6, 3\) = 3"):
            reduction_audit(6, 3)  # shared factor
        with pytest.raises(ValueError, match="k must be at least 1"):
            reduction_audit(6, 0)
        with pytest.raises(TypeError):
            reduction_audit(6.0, 1)

    def test_admits_what_the_family_table_admits(self):
        # the table's two even families admit exactly the paper's (d, k):
        # even d >= 4 with gcd(d, k) = 1; the audit accepts those and no other
        families = (Family.D_EQUALS_4, Family.EVEN_GT_4)
        admitted = set(_admitted(60, 30, *families))
        assert admitted == {
            (d, k) for d in range(4, 61, 2) for k in range(1, 31) if gcd(d, k) == 1
        }
        for d in range(1, 61):
            for k in range(1, 31):
                if (d, k) not in admitted:
                    with pytest.raises(ValueError):
                        reduction_audit(d, k)
                    continue
                family = families[0] if d == 4 else families[1]
                triple = FamilyParams(family, d, k).triple()
                assert reduction_audit(d, k).triple == triple
