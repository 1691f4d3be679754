"""Degree lower bounds that rule out elementary reductions.

For a would-be elementary reduction of an automorphism F one coordinate
must drop in degree after subtracting a polynomial G evaluated at the
other two coordinates.  A Shestakov–Umirbaev-style inequality bounds
deg G(f, g) from below in terms of deg f, deg g, the y-degree split of G
(q, r) and a lower bound on the degree of the Poisson-type bracket [f, g].

This module packages those bounds as executable checks.  For any triple
d1 < d2 < d3, :func:`no_elementary_reduction_check` audits each
coordinate from the triple alone.  Each case is a pair (coordinate,
rows): one floor row from :func:`su_lower_bound` rules out q >= 1, and
the rows of :func:`_nonmember_rows` show the coordinate's degree d_i is
not in <d_j, d_l>, one residue row per b <= d_i // d_l; the same rule
shows d3 is not in <d1, d2>.  :func:`type_iii_check` gives the rows that
exclude the type-III shape.  Every fact is an :class:`InequalityCheck`
row, re-checkable from its JSON alone, and every verdict is the
conjunction of its rows; ``wildmdeg.classify`` decides what they certify.
"""

from __future__ import annotations

from math import gcd
from operator import lt, ne
from typing import Tuple

from .poly import _Value, _check_int, _validate_sorted_triple


class ReductionQuery(_Value):
    """Inputs of the composition-degree lower bound.

    ``deg_f < deg_g`` are the degrees of the two coordinates used to build
    G(f, g); ``q`` and ``r`` split the degree of G in its second argument
    as p*q + r with 0 <= r < p, where p = deg_f / gcd(deg_f, deg_g); and
    ``bracket_deg_lb`` is a lower bound (>= 2) for deg [f, g].
    """

    _fields = ("deg_f", "deg_g", "q", "r", "bracket_deg_lb")

    def __init__(
        self, deg_f: int, deg_g: int, q: int, r: int, bracket_deg_lb: int = 2
    ):
        object.__setattr__(self, "deg_f", deg_f)
        object.__setattr__(self, "deg_g", deg_g)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "bracket_deg_lb", bracket_deg_lb)
        _check_int(deg_f, "deg_f", 1)
        _check_int(deg_g, "deg_g", deg_f + 1)
        _check_int(q, "q", 0)
        _check_int(bracket_deg_lb, "bracket_deg_lb", 2)
        _check_int(r, "r", 0)
        if r >= self.p:
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


class InequalityCheck(_Value):
    """One named numeric fact, the check row of every certificate: ``holds``
    is the first `` == | != | >= | <= | < | > `` of ``name`` on lhs, rhs."""

    _fields = ("name", "lhs", "rhs", "holds")

    def __init__(self, name: str, lhs: int, rhs: int, holds: bool):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "holds", holds)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
        }


# one coordinate's elementary-reduction audit: (coordinate, rows)
Case = Tuple[str, Tuple[InequalityCheck, ...]]


def _checks(rows) -> Tuple[InequalityCheck, ...]:
    """Checks from ``(name, lhs, relation, rhs)`` rows; holds = relation(lhs, rhs)."""
    return tuple(
        InequalityCheck(n, lhs, rhs, rel(lhs, rhs)) for n, lhs, rel, rhs in rows
    )


def _nonmember_rows(
    triple, target: int = 2, small: int = 0, large: int = 1
) -> Tuple[InequalityCheck, ...]:
    """Rows "(d_t - b*d_l) mod d_s != 0, so b = .. fails", one for each
    b <= d_t // d_l, where t, s and l are the indices ``target``, ``small``
    and ``large`` into ``triple``; every row holds exactly when d_t is not
    in <d_s, d_l>.  By default they show d3 is not in <d1, d2>."""
    t, s, l = triple[target], triple[small], triple[large]
    return _checks(
        (f"(d{target + 1} - {b}*d{large + 1}) mod d{small + 1} != 0,"
         f" so b = {b} fails", (t - b * l) % s, ne, 0)
        for b in range(t // l + 1)
    )


# (coordinate, i, j, l): coordinate i is reduced by G(f_j, f_l), d_j < d_l
_CASES = (("first", 0, 1, 2), ("second", 1, 0, 2), ("third", 2, 0, 1))


def no_elementary_reduction_check(triple: Tuple[int, int, int]) -> Tuple[Case, ...]:
    """Per-coordinate elementary-reduction audit of a triple d1 < d2 < d3.

    Coordinate i is reduced only by some G(f_j, f_l) of degree d_i, where
    d_j < d_l; write G's degree in f_l as q*p + b with 0 <= b < p, p the
    :class:`ReductionQuery` ``p`` of (d_j, d_l).  The first row,
    d_i < :func:`su_lower_bound` at q = 1, r = 0, forces q = 0, so that
    deg G = a*d_j + b*d_l; the further rows, from :func:`_nonmember_rows`,
    show d_i is not in <d_j, d_l>, each that d_i - b*d_l is no multiple of
    d_j for one b <= d_i // d_l.  A representation of d_i with the least
    b has b < p, so these rows hold exactly when no a >= 0 and b < p give
    d_i.  The case excludes the reduction exactly when all its rows hold.
    Two equal degrees are a ValueError, as a query needs deg_f < deg_g.
    """
    triple = _validate_sorted_triple(triple)
    if len(set(triple)) < 3:
        raise ValueError(f"the audit needs d1 < d2 < d3, got {triple}")
    cases = []
    for coordinate, i, j, l in _CASES:
        query = ReductionQuery(triple[j], triple[l], 1, 0)
        floor = _checks([(
            f"d{i + 1} < su_lower_bound(ReductionQuery(d{j + 1}, d{l + 1},"
            f" 1, 0)), so q = 0", triple[i], lt, su_lower_bound(query)
        )])
        cases.append((coordinate, floor + _nonmember_rows(triple, i, j, l)))
    return tuple(cases)


def type_iii_check(triple: Tuple[int, int, int]) -> Tuple[InequalityCheck, ...]:
    """Rows that exclude the type-III reduction shape of a sorted triple.

    The shape needs an even middle degree d2 and either 3 | d1 or
    2*d3 = 3*d2.  So the rows are ``d2 mod 2 != 0`` when d2 is odd, and
    otherwise ``d1 mod 3 != 0`` and ``2*d3 != 3*d2``; the shape is
    excluded when every row holds.
    """
    d1, d2, d3 = _validate_sorted_triple(triple)
    if d2 % 2:
        return _checks([("d2 mod 2 != 0", d2 % 2, ne, 0)])
    return _checks([
        ("d1 mod 3 != 0", d1 % 3, ne, 0),
        ("2*d3 != 3*d2", 2 * d3, ne, 3 * d2),
    ])
