"""Decision procedure for tameness of automorphism degree triples.

Given a sorted triple ``1 <= d1 <= d2 <= d3`` that occurs as the
multidegree of a polynomial automorphism of 3-space, :func:`classify_tame`
decides whether some *tame* automorphism realizes the same triple.  Every
verdict ships a machine-checkable certificate.  A tame verdict is proved
by construction: the factor tokens of an explicit triangular witness map
(R1, R2), or a semigroup identity (``SemigroupWitness``, R8) from which
the map is built.  A not-tame verdict carries either a citation record
stating the characterization used (R3, R4, R6) or an audit excluding
elementary reductions and the type-III shape (``ReductionAudit``, R7).

The companion constructors :func:`wild_family` and :func:`enumerate_wild`
produce certified *wild* triples together with automorphisms realizing
them, from four families; one table states each family's admitted
degrees d, triple and witness map, which R7 and :func:`reduction_audit` read.
A family certificate keeps the classifier's own certificate as its
``proof``.  When that proof is a citation (R3, R4 or R6), its ``checks``
are the residue rows that show d3 is not in <d1, d2>; an R7 proof is the
audit's own rows.  Each proof is held once: a classification reads its
realization from its certificate, the R8 map is built from the semigroup
identity only when it is read, and a family hands over the witness it checked.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from math import gcd
from typing import List, NamedTuple, Optional, Tuple, Union

from .maps import (
    PolyMap,
    Triangular,
    multidegree,
    sheared_nagata,
    short_progression_map,
    tame_witness,
)
from .poly import X, Y, _Value, _check_int, _validate_sorted_triple
from .reduction import (
    Case,
    InequalityCheck,
    _nonmember_rows,
    no_elementary_reduction_check,
    type_iii_check,
)

Triple = Tuple[int, int, int]


class TameStatus(str, Enum):
    TAME = "tame"
    NOT_TAME = "not_tame"
    UNKNOWN = "unknown"


class Family(str, Enum):
    """Parametric families of wild degree triples (d, k both free)."""

    ODD_1_MOD_4 = "odd_1_mod_4"
    ODD_GENERAL = "odd_general"
    EVEN_GT_4 = "even_gt_4"
    D_EQUALS_4 = "d_equals_4"


def family_triple(d: int, k: int) -> Triple:
    """The family triple (d, d + k(d+1), d + 2k(d+1)) of ``sheared_nagata(d, k)``."""
    _check_int(d, "d", 1)
    _check_int(k, "k", 1)
    return (d, d + k * (d + 1), d + 2 * k * (d + 1))


# Each family once, d its smallest degree: (admits(d), requirement,
# triple(d, k), witness(d, k)); default_family takes the first that admits d.
_FAMILIES = {
    Family.D_EQUALS_4: (lambda d: d == 4, "d = 4", family_triple, sheared_nagata),
    Family.EVEN_GT_4: (
        lambda d: d > 4 and d % 2 == 0, "even d > 4", family_triple, sheared_nagata
    ),
    Family.ODD_1_MOD_4: (
        lambda d: d > 1 and d % 4 == 1,
        "d = 1 (mod 4) with d > 1",
        lambda d, k: (d, d + 2 * k, d + 4 * k),
        lambda d, k: short_progression_map((d - 1) // 4, k),
    ),
    Family.ODD_GENERAL: (
        lambda d: d > 1 and d % 2 == 1, "odd d > 1", family_triple, sheared_nagata
    ),
}
_R7_ADMITS, _, _R7_TRIPLE, _ = _FAMILIES[Family.EVEN_GT_4]  # bound for R7's hot path
# the families whose triples reduction_audit certifies, and their tests on d
_AUDITED = (Family.D_EQUALS_4, Family.EVEN_GT_4)
_AUDITED_ADMITS = tuple(_FAMILIES[family][0] for family in _AUDITED)


def _admits_k(d: int, k: int) -> bool:
    """The rule on k >= 1 that every family shares (for d = 4: odd k)."""
    return gcd(d, k) == 1


def _admitted(dmax: int, kmax: int, *families: Family):
    """The (d, k) with d <= dmax and k <= kmax that one of ``families``
    admits, in increasing d, then k."""
    for d in range(1, dmax + 1):
        if any(_FAMILIES[family][0](d) for family in families):
            yield from ((d, k) for k in range(1, kmax + 1) if _admits_k(d, k))


class ReductionAudit(_Value):
    """The R7 audit of one family triple: all three cases and type III.

    ``excluded`` holds when every row of every case and every type-III
    row holds; then the triple is not a tame multidegree, and the audit
    is the classifier's ``reduction_exclusion`` certificate.  In the
    document a case's ``conclusion`` is ``reduction_impossible`` when all
    its rows hold and ``inconclusive`` otherwise, and ``type_iii``'s
    ``excluded`` is the conjunction of its rows.
    """

    kind = "reduction_exclusion"
    _fields = ("d", "k", "cases", "type_iii")

    def __init__(
        self,
        d: int,
        k: int,
        cases: Tuple[Case, ...],
        type_iii: Tuple[InequalityCheck, ...],
    ):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "type_iii", type_iii)

    @property
    def triple(self) -> Triple:
        return family_triple(self.d, self.k)

    @property
    def excluded(self) -> bool:
        return all(row.holds for row in self.type_iii) and all(
            row.holds for _, rows in self.cases for row in rows
        )

    def data_dict(self) -> dict:
        cases = []
        for coordinate, rows in self.cases:
            holds = all(row.holds for row in rows)
            cases.append({
                "coordinate": coordinate,
                "checks": [row.to_dict() for row in rows],
                "conclusion": "reduction_impossible" if holds else "inconclusive",
            })
        return {
            "d": self.d,
            "k": self.k,
            "cases": cases,
            "type_iii": {
                "triple": list(self.triple),
                "checks": [row.to_dict() for row in self.type_iii],
                "excluded": all(row.holds for row in self.type_iii),
            },
        }

    def to_dict(self) -> dict:
        triple, excluded = list(self.triple), self.excluded
        return {**self.data_dict(), "triple": triple, "all_excluded": excluded}


def reduction_audit(d: int, k: int) -> ReductionAudit:
    """The R7 audit of ``family_triple(d, k)``, for even d >= 4 with gcd(d, k) = 1."""
    _check_int(d, "d", 4)
    _check_int(k, "k", 1)
    for admits in _AUDITED_ADMITS:
        if admits(d):
            break
    else:
        raise ValueError("d must be even")
    if not _admits_k(d, k):
        raise ValueError(f"gcd(d, k) must be 1, got gcd({d}, {k}) = {gcd(d, k)}")
    triple = family_triple(d, k)
    cases = no_elementary_reduction_check(triple)
    return ReductionAudit(d, k, cases, type_iii_check(triple))


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


class WitnessCertificate(_Value):
    """A tame map whose multidegree is the triple, given by its factors."""

    kind = "witness_map"
    _fields = ("witness",)

    def __init__(self, witness: PolyMap):
        object.__setattr__(self, "witness", witness)

    def data_dict(self) -> dict:
        return {"factors": [g.token() for g in self.witness.factors]}


class CitationCertificate(_Value):
    """Not-tame verdict by a known characterization; the fact used is
    spelled out, and ``checks`` holds the rows that back it (none from the
    classifier; a wild family adds its non-membership rows)."""

    kind = "citation"
    _fields = ("statement", "checks")

    def __init__(
        self, statement: str, checks: Tuple[InequalityCheck, ...] = ()
    ):
        object.__setattr__(self, "statement", statement)
        object.__setattr__(self, "checks", checks)

    def data_dict(self) -> dict:
        return {
            "statement": self.statement,
            "checks": [row.to_dict() for row in self.checks],
        }


class WildFamilyCertificate(_Value):
    """Membership of the triple in a certified wild family, with the
    classifier's certificate of non-tameness as its ``proof``; the
    ``witness`` map realizing the triple is kept but not serialized, and
    takes no part in equality, hashing or the repr."""

    kind = "wild_family"
    _fields = ("family", "d", "k", "proof")

    def __init__(
        self,
        family: str,
        d: int,
        k: int,
        proof: Union[CitationCertificate, ReductionAudit],
        witness: PolyMap,
    ):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "proof", proof)
        object.__setattr__(self, "witness", witness)

    def data_dict(self) -> dict:
        return {
            "family": self.family,
            "d": self.d,
            "k": self.k,
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


class Classification(_Value):
    """Outcome of :func:`classify_tame` for one degree triple."""

    _fields = ("triple", "status", "rule_id", "certificate")

    def __init__(
        self,
        triple: Triple,
        status: TameStatus,
        rule_id: Optional[str],
        certificate: Optional[Certificate],
    ):
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "rule_id", rule_id)
        object.__setattr__(self, "certificate", certificate)

    @cached_property
    def realization(self) -> Optional[PolyMap]:
        """The certificate's witness map, or R8's map built from its
        identity; None when the certificate names no map."""
        certificate = self.certificate
        if isinstance(certificate, SemigroupWitness):
            return tame_witness(*self.triple, *certificate)
        if isinstance(certificate, (WitnessCertificate, WildFamilyCertificate)):
            return certificate.witness
        return None

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


def _characterization(d1: int, d2: int, d3: int) -> Optional[Tuple[str, str]]:
    """``(rule_id, characterization)`` of the cited rule R3, R4 or R6 that
    covers a triple no witness rule took, or None.  Each characterization
    says tameness needs d3 in <d1, d2>, which R8 has ruled out (R3 also
    allows 3 | d2, which R2 has ruled out)."""
    if d1 == 3:  # 3 does not divide d2: R2 took those triples
        return "R3", (
            f"(3, d2, d3) is a tame multidegree exactly when 3 | d2 or d3 is"
            f" in <3, d2>; here 3 does not divide d2 = {d2} and"
        )
    if d1 % 2 == 1 and d2 % 2 == 1 and gcd(d1, d2) == 1:  # so 3 < d1 < d2
        return "R4", (
            "for odd coprime d1 < d2, (d1, d2, d3) is a tame multidegree"
            " exactly when d3 is in <d1, d2>;"
        )
    if d1 == 4 and d2 % 2 == 1 and d2 >= 5 and d3 % 2 == 0 and d3 - d2 != 1:
        return "R6", (
            "for d2 odd and d3 even with d3 - d2 != 1, (4, d2, d3) is a tame"
            " multidegree exactly when d3 is in <4, d2>;"
        )
    return None


def classify_tame(triple) -> Classification:
    """Decide whether a sorted degree triple is the multidegree of a tame map.

    Rules, tried in order (the first that applies wins).  A tame verdict
    always carries a witness map, and a citation always means not tame:

    =====  ============================================================
    R1     d1 = 1: tame; witness (x, y + x^d2, z + x^d3).
    R8     d3 = a*d1 + b*d2 for some a, b >= 0: tame; the identity is
           the certificate, and the realization is the triangular
           witness built from it.
    R2     d1 | d2: tame; witness (x + y^d1, y + (x + y^d1)^(d2/d1),
           z + y^d3).
    R3     d1 = 3 (so 3 does not divide d2): not tame, since tameness
           needs 3 | d2 or d3 in <3, d2>; citation certificate.
    R4     d1, d2 odd and coprime, 3 <= d1 < d2: tameness is equivalent
           to d3 being in <d1, d2>, which R8 ruled out: not tame.
    R6     d1 = 4, d2 odd >= 5, d3 even, d3 - d2 != 1: tameness again
           needs d3 in <d1, d2>: not tame.
    R7     d1 even > 4 and the triple matches (d, d+k(d+1), d+2k(d+1))
           with gcd(d, k) = 1: not tame, certified by the elementary-
           reduction and type-III audit.
    —      anything else: unknown.
    =====  ============================================================
    """
    d1, d2, d3 = triple = _validate_sorted_triple(triple)

    if d1 == 1:  # R1
        witness = PolyMap(
            factors=(Triangular("y", X**d2), Triangular("z", X**d3))
        )
        return Classification(
            triple, TameStatus.TAME, "R1", WitnessCertificate(witness)
        )

    member = semigroup_member(d1, d2, d3)
    if member is not None:  # R8
        return Classification(triple, TameStatus.TAME, "R8", member)

    if d2 % d1 == 0:  # R2
        witness = PolyMap(
            factors=(
                Triangular("y", X ** (d2 // d1)),
                Triangular("x", Y**d1),
                Triangular("z", Y**d3),
            )
        )
        return Classification(
            triple, TameStatus.TAME, "R2", WitnessCertificate(witness)
        )

    cited = _characterization(d1, d2, d3)
    if cited is not None:  # R3, R4, R6
        rule_id, characterization = cited
        statement = (
            f"{characterization} the exhaustive scan found no a, b >= 0"
            f" with {d1}a + {d2}b = {d3}"
        )
        return Classification(
            triple, TameStatus.NOT_TAME, rule_id, CitationCertificate(statement)
        )

    k = (d2 - d1) // (d1 + 1)
    if (  # R7: integer tests first, as most triples fail them
        k >= 1
        and _R7_ADMITS(d1)
        and _admits_k(d1, k)
        and _R7_TRIPLE(d1, k) == triple
    ):
        audit = reduction_audit(d1, k)
        if audit.excluded:
            return Classification(triple, TameStatus.NOT_TAME, "R7", audit)

    return Classification(triple, TameStatus.UNKNOWN, None, None)


class FamilyParams(_Value):
    """A wild family together with its two integer parameters."""

    _fields = ("family", "d", "k")

    def __init__(self, family: Family, d: int, k: int):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)
        _check_int(d, "d", 1)
        _check_int(k, "k", 1)
        if not isinstance(family, Family):  # a str hashes like its member
            raise ValueError(f"unknown family {family!r}")
        admits, requirement, _, _ = _FAMILIES[family]
        if not admits(d):
            raise ValueError(f"family needs {requirement}")
        if not _admits_k(d, k):
            raise ValueError("family needs gcd(d, k) = 1")

    def triple(self) -> Triple:
        _, _, triple, _ = _FAMILIES[self.family]
        return triple(self.d, self.k)

    def witness(self) -> PolyMap:
        _, _, _, witness = _FAMILIES[self.family]
        return witness(self.d, self.k)


def wild_family(params: FamilyParams) -> Tuple[Triple, Classification]:
    """Certified wild triple and realization for one family instance.

    Builds the witness automorphism, checks that its sorted multidegree is
    the family triple, checks that the classifier refutes tameness, and
    returns the triple with a classification whose certificate records the
    family data, the witness, and the classifier's certificate as its
    proof; a citation proof gains the checked semigroup non-membership
    rows as its ``checks``.
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
    proof = classification.certificate
    if isinstance(proof, CitationCertificate):
        proof = CitationCertificate(proof.statement, _nonmember_rows(triple))
        if not all(row.holds for row in proof.checks):
            raise AssertionError(f"non-membership row for {triple} fails")
    certificate = WildFamilyCertificate(
        params.family.value, params.d, params.k, proof, witness
    )
    return triple, Classification(
        triple, classification.status, classification.rule_id, certificate
    )


def default_family(d: int) -> Family:
    """The family :func:`enumerate_wild` uses: the first that admits d."""
    _check_int(d, "d", 3)  # wild triples with smallest degree < 3 do not exist
    return next(f for f, (admits, *_) in _FAMILIES.items() if admits(d))


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
        if _admits_k(d, k):
            results.append(wild_family(FamilyParams(family, d, k))[1])
    return results
