"""Degree lower bounds that rule out elementary reductions.

For a would-be elementary reduction of an automorphism F one coordinate
must drop in degree after subtracting a polynomial G evaluated at the
other two coordinates.  A Shestakov–Umirbaev-style inequality bounds
deg G(f, g) from below in terms of deg f, deg g, the y-degree split of G
(q, r) and a lower bound on the degree of the Poisson-type bracket [f, g].

This module packages those bounds as executable inequality checks: for
the even-degree map family with multidegree (d, d+k(d+1), d+2k(d+1)) it
audits every inequality and gcd fact needed to exclude an elementary
reduction of each coordinate, taking the q >= 1 degree floors from
:func:`su_lower_bound`, and separately checks the parity/ratio
conditions that exclude the delicate type-III reduction shape.
:func:`reduction_audit` combines the two into a :class:`ReductionAudit`;
when both exclude, that audit is itself the certificate of non-tameness
(rule R7 of the classifier).
Every fact is an :class:`InequalityCheck` row, re-checkable from its JSON
alone, and every verdict is computed from its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import eq, ge, lt
from typing import ClassVar, List, Tuple

from .poly import _check_int

REDUCTION_IMPOSSIBLE = "reduction_impossible"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ReductionQuery:
    """Inputs of the composition-degree lower bound.

    ``deg_f < deg_g`` are the degrees of the two coordinates used to build
    G(f, g); ``q`` and ``r`` split the degree of G in its second argument
    as p*q + r with 0 <= r < p, where p = deg_f / gcd(deg_f, deg_g); and
    ``bracket_deg_lb`` is a lower bound (>= 2) for deg [f, g].
    """

    deg_f: int
    deg_g: int
    q: int
    r: int
    bracket_deg_lb: int = 2

    def __post_init__(self):
        _check_int(self.deg_f, "deg_f", 1)
        _check_int(self.deg_g, "deg_g", self.deg_f + 1)
        _check_int(self.q, "q", 0)
        _check_int(self.bracket_deg_lb, "bracket_deg_lb", 2)
        _check_int(self.r, "r", 0)
        if self.r >= self.p:
            raise ValueError(f"r must satisfy 0 <= r < p = {self.p}")

    @property
    def p(self) -> int:
        return self.deg_f // gcd(self.deg_f, self.deg_g)


def su_lower_bound(query: ReductionQuery) -> int:
    """Lower bound for deg G(f, g): q*(p*deg_g - deg_g - deg_f + lb) + r*deg_g."""
    p = query.p
    return (
        query.q
        * (p * query.deg_g - query.deg_g - query.deg_f + query.bracket_deg_lb)
        + query.r * query.deg_g
    )


@dataclass(frozen=True)
class InequalityCheck:
    """One named numeric fact, the check row of every certificate: ``holds``
    is the first `` == | != | >= | <= | < | > `` of ``name`` on lhs, rhs."""

    name: str
    lhs: int
    rhs: int
    holds: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class CaseReport:
    """One coordinate's elementary-reduction audit; concluded from its checks."""

    coordinate: str
    checks: Tuple[InequalityCheck, ...]

    @property
    def conclusion(self) -> str:
        if all(c.holds for c in self.checks):
            return REDUCTION_IMPOSSIBLE
        return INCONCLUSIVE

    def to_dict(self) -> dict:
        return {
            "coordinate": self.coordinate,
            "checks": [c.to_dict() for c in self.checks],
            "conclusion": self.conclusion,
        }


def family_triple(d: int, k: int) -> Tuple[int, int, int]:
    """The family triple (d, d + k(d+1), d + 2k(d+1)) of ``sheared_nagata(d, k)``."""
    _check_int(d, "d", 1)
    _check_int(k, "k", 1)
    return (d, d + k * (d + 1), d + 2 * k * (d + 1))


def _checks(rows) -> Tuple[InequalityCheck, ...]:
    """Checks from ``(name, lhs, relation, rhs)`` rows; holds = relation(lhs, rhs)."""
    return tuple(
        InequalityCheck(n, lhs, rhs, rel(lhs, rhs)) for n, lhs, rel, rhs in rows
    )


def no_elementary_reduction_check(d: int, k: int) -> List[CaseReport]:
    """Per-coordinate inequality audit for the (d, d+k(d+1), d+2k(d+1)) family.

    Requires even d with d > 4, or d = 4 with odd k, and gcd(d, k) = 1.
    Each report lists the gcd facts and inequalities that together rule
    out an elementary reduction of that coordinate; its conclusion is
    ``reduction_impossible`` exactly when all of them hold.  The "exact
    q-coefficient" of the second and third coordinates is
    :func:`su_lower_bound` at q = 1, r = 0 for the pair (d1, d3) and
    (d1, d2) respectively.
    """
    _check_int(d, "d", 4)
    _check_int(k, "k", 1)
    if d % 2:
        raise ValueError("d must be even")
    if d == 4 and k % 2 == 0:
        raise ValueError("for d = 4 the parameter k must be odd")
    if gcd(d, k) != 1:
        raise ValueError(f"gcd(d, k) must be 1, got gcd({d}, {k}) = {gcd(d, k)}")
    d1, d2, d3 = family_triple(d, k)

    # First coordinate: G built from the degree-(d2, d3) pair.
    first = [
        ("gcd(d2, d3) == 1", gcd(d2, d3), eq, 1),
        ("d1 < (d2 - 1)*(d3 - 1), so q = 0", d1, lt, (d2 - 1) * (d3 - 1)),
        ("d1 < d3, so r = 0", d1, lt, d3),
        ("d1 < d2, so d1 is no multiple of d2", d1, lt, d2),
    ]

    # Second coordinate: G built from the degree-(d1, d3) pair; p = d/2.
    exact_floor = su_lower_bound(ReductionQuery(d1, d3, 1, 0))
    middle_floor = (d - 2) * k * (d + 1) + 2
    final_floor = k * (d + 1) + d + 2
    second = [
        ("gcd(d1, d3) == 2", gcd(d1, d3), eq, 2),
        ("p = d/2 >= 2", d // 2, ge, 2),
        ("exact q-coefficient >= (d-2)*k*(d+1) + 2",
         exact_floor, ge, middle_floor),
        ("(d-2)*k*(d+1) + 2 >= k*(d+1) + d + 2",
         middle_floor, ge, final_floor),
        ("d2 < k*(d+1) + d + 2, so q = 0", d2, lt, final_floor),
        ("d2 < d3, so r = 0", d2, lt, d3),
        ("gcd(d1, d2) == 1", gcd(d1, d2), eq, 1),
        ("1 < d1, so d2 is no multiple of d1", 1, lt, d1),
    ]

    # Third coordinate: G built from the degree-(d1, d2) pair; p = d.
    exact_floor_3 = su_lower_bound(ReductionQuery(d1, d2, 1, 0))
    floor_3 = 2 * k * (d + 1) + d + 2
    third = [
        ("gcd(d1, d2) == 1", gcd(d1, d2), eq, 1),
        ("exact q-coefficient >= 2*k*(d+1) + d + 2",
         exact_floor_3, ge, floor_3),
        ("d3 < 2*k*(d+1) + d + 2, so q = 0", d3, lt, floor_3),
        ("d3 < 2*d2, so r <= 1", d3, lt, 2 * d2),
        ("r = 0 case: gcd(d3, d1) == 2", gcd(d3, d1), eq, 2),
        ("r = 0 case: 2 < d1", 2, lt, d1),
        ("r = 1 case: gcd(d3 - d2, d1) == 1", gcd(d3 - d2, d1), eq, 1),
        ("r = 1 case: 1 < d1", 1, lt, d1),
    ]
    return [
        CaseReport("first", _checks(first)),
        CaseReport("second", _checks(second)),
        CaseReport("third", _checks(third)),
    ]


@dataclass(frozen=True)
class TypeThreeReport:
    """Necessary conditions for a type-III reduction shape.

    ``condition1``: the middle degree is even; ``condition2``: 3 divides
    the smallest degree or the top/middle ratio is exactly 3/2.  The shape
    is excluded whenever either condition fails.
    """

    triple: Tuple[int, int, int]
    condition1: bool
    condition2: bool

    @property
    def excluded(self) -> bool:
        return not (self.condition1 and self.condition2)

    def to_dict(self) -> dict:
        return {
            "triple": list(self.triple),
            "condition1": self.condition1,
            "condition2": self.condition2,
            "excluded": self.excluded,
        }


def type_iii_check(triple: Tuple[int, int, int]) -> TypeThreeReport:
    """Evaluate the type-III necessary conditions on a sorted degree triple."""
    d1, d2, d3 = _validate_sorted_triple(triple)
    return TypeThreeReport(
        (d1, d2, d3), d2 % 2 == 0, (d1 % 3 == 0) or (2 * d3 == 3 * d2)
    )


@dataclass(frozen=True)
class ReductionAudit:
    """The R7 audit of one family triple: all three cases and type III.

    ``excluded`` holds when every case is ``reduction_impossible`` and the
    type-III shape is excluded; then the triple is not a tame multidegree,
    and the audit is the classifier's ``reduction_exclusion`` certificate.
    """

    kind: ClassVar[str] = "reduction_exclusion"
    d: int
    k: int
    cases: Tuple[CaseReport, ...]
    type_iii: TypeThreeReport

    @property
    def triple(self) -> Tuple[int, int, int]:
        return family_triple(self.d, self.k)

    @property
    def excluded(self) -> bool:
        return self.type_iii.excluded and all(
            case.conclusion == REDUCTION_IMPOSSIBLE for case in self.cases
        )

    def data_dict(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "cases": [case.to_dict() for case in self.cases],
            "type_iii": self.type_iii.to_dict(),
        }

    def to_dict(self) -> dict:
        triple, excluded = list(self.triple), self.excluded
        return {**self.data_dict(), "triple": triple, "all_excluded": excluded}


def reduction_audit(d: int, k: int) -> ReductionAudit:
    """Elementary-reduction audit plus type-III check of ``family_triple(d, k)``."""
    cases = tuple(no_elementary_reduction_check(d, k))
    return ReductionAudit(d, k, cases, type_iii_check(family_triple(d, k)))


def _validate_sorted_triple(triple) -> Tuple[int, int, int]:
    """The triple as a tuple; ValueError unless it is three sorted positive ints."""
    values = tuple(triple)
    if len(values) != 3 or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        raise ValueError(f"a degree triple is three ints, got {triple!r}")
    d1, d2, d3 = values
    if d1 < 1:
        raise ValueError("degrees must be positive")
    if not d1 <= d2 <= d3:
        raise ValueError(f"degree triple must be sorted, got {values}")
    return values
