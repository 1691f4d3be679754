"""Degree lower bounds that rule out elementary reductions.

For a would-be elementary reduction of an automorphism F one coordinate
must drop in degree after subtracting a polynomial G evaluated at the
other two coordinates.  A Shestakov–Umirbaev-style inequality bounds
deg G(f, g) from below in terms of deg f, deg g, the y-degree split of G
(q, r) and a lower bound on the degree of the Poisson-type bracket [f, g].

This module packages those bounds as executable checks.  For the
even-degree family triple (d, d+k(d+1), d+2k(d+1)) it audits each
coordinate from the triple alone: one floor row from
:func:`su_lower_bound` rules out q >= 1, and one residue row per
remaining b shows the coordinate's degree is no a*d_j + b*d_l.  The odd
families' exclusions (``wildmdeg.classify``) are the same residue rows.
It separately checks the parity/ratio conditions that exclude the
delicate type-III reduction shape.
:func:`reduction_audit` combines the two into a :class:`ReductionAudit`;
when both exclude, that audit is itself the certificate of non-tameness
(rule R7 of the classifier).
Every fact is an :class:`InequalityCheck` row, re-checkable from its JSON
alone, and every verdict is computed from its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import lt, ne
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


def _residue_checks(
    triple, target: int, small: int, large: int, bound: int
) -> Tuple[InequalityCheck, ...]:
    """Rows "(d_t - b*d_l) mod d_s != 0, so b = .. fails", one for each
    b < ``bound`` with b*d_l <= d_t, where t, s and l are the indices
    ``target``, ``small`` and ``large`` into ``triple``.  When all hold,
    no a >= 0 and b < ``bound`` give a*d_s + b*d_l = d_t."""
    t, s, l = triple[target], triple[small], triple[large]
    return _checks(
        (f"(d{target + 1} - {b}*d{large + 1}) mod d{small + 1} != 0,"
         f" so b = {b} fails", (t - b * l) % s, ne, 0)
        for b in range(min(bound, t // l + 1))
    )


# (coordinate, i, j, l): coordinate i is reduced by G(f_j, f_l), d_j < d_l
_CASES = (("first", 0, 1, 2), ("second", 1, 0, 2), ("third", 2, 0, 1))


def no_elementary_reduction_check(d: int, k: int) -> List[CaseReport]:
    """Per-coordinate audit of ``family_triple(d, k)``, from the triple alone.

    Requires even d >= 4 and gcd(d, k) = 1, so k is odd.
    Coordinate i is reduced only by some G(f_j, f_l) of degree d_i, where
    d_j < d_l; write G's degree in f_l as q*p + b with 0 <= b < p, p the
    :class:`ReductionQuery` ``p`` of (d_j, d_l).  The first row,
    d_i < :func:`su_lower_bound` at q = 1, r = 0, forces q = 0, so that
    deg G = a*d_j + b*d_l; each further row shows that d_i - b*d_l is no
    multiple of d_j for one b < p.  The conclusion is
    ``reduction_impossible`` exactly when all rows hold.
    """
    _check_int(d, "d", 4)
    _check_int(k, "k", 1)
    if d % 2:
        raise ValueError("d must be even")
    if gcd(d, k) != 1:
        raise ValueError(f"gcd(d, k) must be 1, got gcd({d}, {k}) = {gcd(d, k)}")
    triple = family_triple(d, k)
    reports = []
    for coordinate, i, j, l in _CASES:
        query = ReductionQuery(triple[j], triple[l], 1, 0)
        floor = _checks([(
            f"d{i + 1} < su_lower_bound(ReductionQuery(d{j + 1}, d{l + 1},"
            f" 1, 0)), so q = 0", triple[i], lt, su_lower_bound(query)
        )])
        checks = floor + _residue_checks(triple, i, j, l, query.p)
        reports.append(CaseReport(coordinate, checks))
    return reports


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
    """The triple as a tuple of three sorted positive ints: TypeError for a
    non-int entry, ValueError for a wrong length or an unsorted triple."""
    values = tuple(triple)
    if len(values) != 3:
        raise ValueError(f"a degree triple is three ints, got {triple!r}")
    for name, value in zip(("d1", "d2", "d3"), values):
        _check_int(value, name, 1)
    if not values[0] <= values[1] <= values[2]:
        raise ValueError(f"degree triple must be sorted, got {values}")
    return values
