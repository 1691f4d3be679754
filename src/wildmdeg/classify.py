"""Decision procedure for tameness of automorphism degree triples.

Given a sorted triple ``1 <= d1 <= d2 <= d3`` that occurs as the
multidegree of a polynomial automorphism of 3-space, :func:`classify_tame`
decides whether some *tame* automorphism realizes the same triple.  Every
verdict ships a machine-checkable certificate: the factor tokens of an
explicit tame witness map, a semigroup identity (``SemigroupWitness``),
an inequality audit excluding elementary reductions (``ReductionAudit``),
or — where the verdict rests on a known characterization that yields no
small witness — a citation record stating the fact used.

The companion constructors :func:`wild_family` and :func:`enumerate_wild`
produce certified *wild* triples together with automorphisms realizing
them, drawn from four parametric families.  A family certificate keeps
the classifier's own certificate as its ``proof``; the odd families add
their ``exclusion``, the residue rows that show d3 is not in <d1, d2>.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import gcd
from typing import ClassVar, List, NamedTuple, Optional, Tuple, Union

from .maps import (
    PolyMap,
    Triangular,
    long_progression_map,
    multidegree,
    sheared_nagata,
    short_progression_map,
    tame_witness,
)
from .poly import X, _check_int
from .reduction import (
    InequalityCheck,
    ReductionAudit,
    _residue_checks,
    _validate_sorted_triple,
    family_triple,
    reduction_audit,
)

Triple = Tuple[int, int, int]


class TameStatus(str, Enum):
    TAME = "tame"
    NOT_TAME = "not_tame"
    UNKNOWN = "unknown"


class Family(str, Enum):
    """Parametric families of wild degree triples (d, k both free)."""

    ODD_1_MOD_4 = "odd_1_mod_4"  # (d, d+2k, d+4k), d = 1 mod 4, d > 1
    ODD_GENERAL = "odd_general"  # (d, d+k(d+1), d+2k(d+1)), d odd > 1
    EVEN_GT_4 = "even_gt_4"  # (d, d+k(d+1), d+2k(d+1)), d even > 4
    D_EQUALS_4 = "d_equals_4"  # (4, 4+5k, 4+10k), k odd


class SemigroupWitness(NamedTuple):
    """Exponents with a*d1 + b*d2 = d3; the certificate of rule R8."""

    a: int
    b: int
    kind = "semigroup_witness"

    def data_dict(self) -> dict:
        return {"a": self.a, "b": self.b}


def semigroup_member(d1: int, d2: int, d3: int) -> Optional[SemigroupWitness]:
    """First (a, b) with a*d1 + b*d2 = d3, scanning b upward; None if none."""
    _check_int(d1, "d1", 1)
    _check_int(d2, "d2", 1)
    _check_int(d3, "d3", 1)
    for b in range(d3 // d2 + 1):
        remainder = d3 - b * d2
        if remainder % d1 == 0:
            return SemigroupWitness(remainder // d1, b)
    return None


def _progression_exclusion(triple: Triple, k: int) -> Tuple[InequalityCheck, ...]:
    """Why d3 is not in <d1, d2> for an arithmetic progression d1, d2, d3
    whose first term d1 >= 3 is odd and coprime to k: one residue row for
    each b <= d3 // d2; the argument holds when every row holds."""
    d1, d2, d3 = triple
    _check_int(d1, "r", 3)
    _check_int(k, "k", 1)
    if d1 % 2 == 0:
        raise ValueError("r must be odd")
    if gcd(d1, k) != 1:
        raise ValueError(f"need gcd(r, k) = 1, got gcd = {gcd(d1, k)}")
    return _residue_checks(triple, 2, 0, 1, d3 // d2 + 1)


def short_progression_exclusion(r: int, k: int) -> Tuple[InequalityCheck, ...]:
    """Why r + 4k is not in <r, r + 2k>, for odd r >= 3 coprime to k."""
    return _progression_exclusion((r, r + 2 * k, r + 4 * k), k)


def long_progression_exclusion(r: int, k: int) -> Tuple[InequalityCheck, ...]:
    """Why r + 2k(r+1) is not in <r, r + k(r+1)>, for odd r >= 3 coprime to k."""
    return _progression_exclusion(family_triple(r, k), k)


@dataclass(frozen=True)
class WitnessCertificate:
    """A tame map whose multidegree is the triple, given by its factors."""

    kind: ClassVar[str] = "witness_map"
    witness: PolyMap

    def data_dict(self) -> dict:
        return {"factors": [g.token() for g in self.witness.factors]}


@dataclass(frozen=True)
class CitationCertificate:
    """Verdict by a known characterization; the fact used is spelled out."""

    kind: ClassVar[str] = "citation"
    statement: str

    def data_dict(self) -> dict:
        return {"statement": self.statement}


@dataclass(frozen=True)
class WildFamilyCertificate:
    """Membership of the triple in a certified wild family, with the
    classifier's certificate of non-tameness as its ``proof``."""

    kind: ClassVar[str] = "wild_family"
    family: str
    d: int
    k: int
    exclusion: Optional[Tuple[InequalityCheck, ...]]
    proof: Union[CitationCertificate, ReductionAudit]

    def data_dict(self) -> dict:
        return {
            "family": self.family,
            "d": self.d,
            "k": self.k,
            "exclusion": (
                None
                if self.exclusion is None
                else [row.to_dict() for row in self.exclusion]
            ),
            "proof": _certificate_document(self.proof),
        }


Certificate = Union[
    WitnessCertificate,
    SemigroupWitness,
    CitationCertificate,
    ReductionAudit,
    WildFamilyCertificate,
]


def _certificate_document(certificate: Optional[Certificate]) -> dict:
    if certificate is None:
        return {"kind": "none"}
    return {"kind": certificate.kind, "data": certificate.data_dict()}


@dataclass(frozen=True)
class Classification:
    """Outcome of :func:`classify_tame` for one degree triple."""

    triple: Triple
    status: TameStatus
    rule_id: Optional[str]
    certificate: Optional[Certificate]
    realization: Optional[PolyMap] = None

    def to_dict(self, include_realization: bool = True) -> dict:
        document = {
            "triple": list(self.triple),
            "status": self.status.value,
            "rule_id": self.rule_id,
            "certificate": _certificate_document(self.certificate),
        }
        if include_realization and self.realization is not None:
            document["realization"] = self.realization.to_dict()
        return document


def classify_tame(triple) -> Classification:
    """Decide whether a sorted degree triple is the multidegree of a tame map.

    Rules, tried in order (the first that applies wins):

    =====  ============================================================
    R1     d1 = 1: always tame; witness (x, y + x^d2, z + x^d3).
    R8     d3 = a*d1 + b*d2 for some a, b >= 0: tame; triangular
           witness built from the semigroup identity.
    R2     d1 = 2: tame (every such triple is realized, though the
           witness may be large); citation certificate.
    R3     d1 = 3: tame exactly when 3 | d2 (the semigroup case was
           already consumed by R8); citation certificate.
    R4     d1, d2 odd and coprime, 3 <= d1 < d2: tameness is equivalent
           to d3 being in <d1, d2>, which R8 ruled out: not tame.
    R6     d1 = 4, d2 odd >= 5, d3 even, d3 - d2 != 1: tameness again
           needs d3 in <d1, d2>: not tame.
    R7     d1 even > 4 and the triple matches (d, d+k(d+1), d+2k(d+1))
           with gcd(d, k) = 1: not tame, certified by the elementary-
           reduction inequality audit plus the type-III exclusion.
    —      anything else: unknown.
    =====  ============================================================
    """
    d1, d2, d3 = triple = _validate_sorted_triple(triple)

    if d1 == 1:  # R1
        witness = PolyMap(
            factors=(Triangular("y", X**d2), Triangular("z", X**d3))
        )
        return Classification(
            triple, TameStatus.TAME, "R1", WitnessCertificate(witness), witness
        )

    member = semigroup_member(d1, d2, d3)
    if member is not None:  # R8
        witness = tame_witness(d1, d2, d3, member.a, member.b)
        return Classification(
            triple,
            TameStatus.TAME,
            "R8",
            member,
            witness,
        )

    if d1 == 2:  # R2
        return Classification(
            triple,
            TameStatus.TAME,
            "R2",
            CitationCertificate(
                "every sorted degree triple with smallest entry 2 is the"
                " multidegree of a tame automorphism of 3-space"
            ),
        )

    if d1 == 3:  # R3
        if d2 % 3 == 0:
            return Classification(
                triple,
                TameStatus.TAME,
                "R3",
                CitationCertificate(
                    f"(3, d2, d3) is a tame multidegree exactly when 3 | d2"
                    f" or d3 is in <3, d2>; here 3 divides d2 = {d2}"
                ),
            )
        return Classification(
            triple,
            TameStatus.NOT_TAME,
            "R3",
            CitationCertificate(
                f"(3, d2, d3) is a tame multidegree exactly when 3 | d2 or"
                f" d3 is in <3, d2>; here 3 does not divide d2 = {d2} and"
                f" the exhaustive scan found no a, b >= 0 with"
                f" 3a + {d2}b = {d3}"
            ),
        )

    if d1 % 2 == 1 and d2 % 2 == 1 and gcd(d1, d2) == 1 and 3 <= d1 < d2:
        return Classification(  # R4
            triple,
            TameStatus.NOT_TAME,
            "R4",
            CitationCertificate(
                f"for odd coprime d1 < d2, (d1, d2, d3) is a tame"
                f" multidegree exactly when d3 is in <d1, d2>; the"
                f" exhaustive scan found no a, b >= 0 with"
                f" {d1}a + {d2}b = {d3}"
            ),
        )

    if d1 == 4 and d2 % 2 == 1 and d2 >= 5 and d3 % 2 == 0 and d3 - d2 != 1:
        return Classification(  # R6
            triple,
            TameStatus.NOT_TAME,
            "R6",
            CitationCertificate(
                f"for d2 odd and d3 even with d3 - d2 != 1, (4, d2, d3) is a"
                f" tame multidegree exactly when d3 is in <4, d2>; the"
                f" exhaustive scan found no a, b >= 0 with"
                f" 4a + {d2}b = {d3}"
            ),
        )

    k = (d2 - d1) // (d1 + 1)
    if (  # R7
        d1 % 2 == 0
        and d1 > 4
        and k >= 1
        and gcd(d1, k) == 1
        and family_triple(d1, k) == triple
    ):
        audit = reduction_audit(d1, k)
        if audit.excluded:
            return Classification(triple, TameStatus.NOT_TAME, "R7", audit)

    return Classification(triple, TameStatus.UNKNOWN, None, None)


@dataclass(frozen=True)
class FamilyParams:
    """A wild family together with its two integer parameters."""

    family: Family
    d: int
    k: int

    def __post_init__(self):
        _check_int(self.d, "d", 1)
        _check_int(self.k, "k", 1)
        family, d, k = self.family, self.d, self.k
        if family is Family.ODD_1_MOD_4:
            if d < 5 or d % 4 != 1:
                raise ValueError("family needs d = 1 (mod 4) with d > 1")
        elif family is Family.ODD_GENERAL:
            if d < 3 or d % 2 == 0:
                raise ValueError("family needs odd d > 1")
        elif family is Family.EVEN_GT_4:
            if d < 6 or d % 2 == 1:
                raise ValueError("family needs even d > 4")
        elif family is Family.D_EQUALS_4:
            if d != 4:
                raise ValueError("family needs d = 4")
        else:  # pragma: no cover - Family is a closed enum
            raise ValueError(f"unknown family {family!r}")
        if gcd(d, k) != 1:  # for d = 4: odd k
            raise ValueError("family needs gcd(d, k) = 1")

    def triple(self) -> Triple:
        d, k = self.d, self.k
        if self.family is Family.ODD_1_MOD_4:
            return (d, d + 2 * k, d + 4 * k)
        return family_triple(d, k)

    def witness(self) -> PolyMap:
        d, k = self.d, self.k
        if self.family is Family.ODD_1_MOD_4:
            return short_progression_map((d - 1) // 4, k)
        if self.family is Family.ODD_GENERAL:
            return long_progression_map(d, k)
        return sheared_nagata(d, k)

    def exclusion(self) -> Optional[Tuple[InequalityCheck, ...]]:
        if self.family is Family.ODD_1_MOD_4:
            return short_progression_exclusion(self.d, self.k)
        if self.family is Family.ODD_GENERAL:
            return long_progression_exclusion(self.d, self.k)
        return None


def wild_family(params: FamilyParams) -> Tuple[Triple, Classification]:
    """Certified wild triple and realization for one family instance.

    Builds the witness automorphism, checks that its sorted multidegree is
    the family triple, checks that the classifier refutes tameness, and
    returns the triple with a classification whose certificate records the
    family data, the classifier's certificate as its proof and, for the
    odd families, the checked semigroup non-membership rows.
    """
    triple = params.triple()
    witness = params.witness()
    realized = tuple(sorted(multidegree(witness)))
    if realized != triple:
        raise AssertionError(
            f"witness multidegree {realized} does not match triple {triple}"
        )
    classification = classify_tame(triple)
    if classification.status is not TameStatus.NOT_TAME:
        raise AssertionError(
            f"classifier did not refute tameness of {triple}:"
            f" got {classification.status.value}"
        )
    exclusion = params.exclusion()
    if exclusion is not None and not all(row.holds for row in exclusion):
        raise AssertionError(f"non-membership row for {triple} fails")
    certificate = WildFamilyCertificate(
        params.family.value,
        params.d,
        params.k,
        exclusion,
        classification.certificate,
    )
    return triple, replace(
        classification, certificate=certificate, realization=witness
    )


def default_family(d: int) -> Family:
    """The family used by :func:`enumerate_wild` for smallest degree d."""
    _check_int(d, "d", 3)  # wild triples with smallest degree < 3 do not exist
    if d == 4:
        return Family.D_EQUALS_4
    if d % 2 == 0:
        return Family.EVEN_GT_4
    if d % 4 == 1:
        return Family.ODD_1_MOD_4
    return Family.ODD_GENERAL


def enumerate_wild(d: int, count: int) -> List[Classification]:
    """First ``count`` certified wild triples with smallest degree ``d``.

    Instances are taken from :func:`default_family` with the parameter k
    running over admissible values in increasing order, so the middle
    degrees are strictly increasing.  Each result carries its realization.
    """
    family = default_family(d)
    _check_int(count, "count", 0)
    results: List[Classification] = []
    k = 0
    while len(results) < count:
        k += 1
        if gcd(d, k) != 1:
            continue
        _, classification = wild_family(FamilyParams(family, d, k))
        results.append(classification)
    return results
