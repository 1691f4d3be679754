"""The value classes: immutable, compared, hashed and shown by their fields.

``Transposition``, ``Triangular``, ``NagataShear``, ``Derivation``,
``ReductionQuery``, ``InequalityCheck``, ``ReductionAudit``, the
certificate classes, ``Classification`` and ``FamilyParams`` are plain
classes on one shared base.  These tests pin their contract: equality and
hash over the fields (a wild family's witness map excluded), the
``Name(field=value, ...)`` repr, ``AttributeError`` on assignment, the
constructor defaults, and each constructor's errors.  Importing the CLI
must not load ``dataclasses`` or ``inspect``.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wildmdeg
from wildmdeg import (
    Classification,
    Derivation,
    Family,
    FamilyParams,
    InequalityCheck,
    NagataShear,
    ReductionAudit,
    ReductionQuery,
    TameStatus,
    Transposition,
    Triangular,
    X,
    Y,
    Z,
    classify_tame,
    nagata,
    nagata_derivation,
    reduction_audit,
    wild_family,
)
from wildmdeg.classify import (
    CitationCertificate,
    WildFamilyCertificate,
    WitnessCertificate,
)

PACKAGE_ROOT = str(Path(wildmdeg.__file__).resolve().parent.parent)


def _family_certificate():
    _, classification = wild_family(FamilyParams(Family.D_EQUALS_4, 4, 1))
    return classification.certificate


def _instances():
    """One instance of every value class, built by its public constructor."""
    return [
        Transposition(),
        Triangular("y", X**2),
        NagataShear(2),
        nagata_derivation(),
        ReductionQuery(3, 5, 1, 0),
        InequalityCheck("d2 mod 2 != 0", 1, 0, True),
        reduction_audit(6, 1),
        WitnessCertificate(nagata(1)),
        CitationCertificate("a statement"),
        _family_certificate(),
        classify_tame((5, 7, 9)),
        FamilyParams(Family.EVEN_GT_4, 6, 1),
    ]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, as every wildmdeg process is
    code = (
        "import sys, wildmdeg.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    path = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestEqualityAndHash:
    def test_equal_fields_give_equal_values_and_hashes(self):
        assert NagataShear(2) == NagataShear(2, 1)
        assert hash(NagataShear(2)) == hash(NagataShear(2, 1))
        assert ReductionQuery(3, 5, 1, 0) == ReductionQuery(3, 5, 1, 0, 2)
        assert classify_tame((6, 13, 20)) == classify_tame((6, 13, 20))
        assert hash(classify_tame((6, 13, 20))) == hash(classify_tame((6, 13, 20)))
        assert Transposition() == Transposition()
        assert hash(Transposition()) == hash(Transposition())
        assert Derivation(Y * (-2), Z, X - X) == nagata_derivation()

    def test_a_different_field_gives_a_different_value(self):
        assert NagataShear(2) != NagataShear(3)
        assert NagataShear(2) != NagataShear(2, -1)
        assert Triangular("y", X**2) != Triangular("z", X**2)
        assert InequalityCheck("r", 1, 0, True) != InequalityCheck("r", 1, 0, False)
        assert classify_tame((5, 7, 9)) != classify_tame((5, 7, 11))

    def test_only_the_same_class_compares(self):
        assert NagataShear(2).__eq__((2, 1)) is NotImplemented
        assert NagataShear(2) != (2, 1)
        assert Transposition() != NagataShear(1)
        assert FamilyParams(Family.EVEN_GT_4, 6, 1) != (Family.EVEN_GT_4, 6, 1)

    def test_every_instance_equals_itself(self):
        for value in _instances():
            assert value == value

    def test_the_family_witness_takes_no_part(self):
        certificate = _family_certificate()
        other = WildFamilyCertificate(
            certificate.family, certificate.d, certificate.k, certificate.proof,
            nagata(1),
        )
        assert other.witness is not certificate.witness
        assert other == certificate
        assert hash(other) == hash(certificate)
        assert repr(other) == repr(certificate)
        assert "witness" not in repr(certificate)
        changed = WildFamilyCertificate(
            certificate.family, certificate.d, 3, certificate.proof,
            certificate.witness,
        )
        assert changed != certificate

    def test_a_map_field_is_unhashable(self):
        # PolyMap has no hash, so neither has a value that holds one
        with pytest.raises(TypeError):
            hash(WitnessCertificate(nagata(1)))
        with pytest.raises(TypeError):
            hash(classify_tame((1, 2, 3)))


class TestImmutability:
    @pytest.mark.parametrize(
        "value", _instances(), ids=lambda value: type(value).__name__
    )
    def test_assignment_and_deletion_raise(self, value):
        for name in [*vars(value), "extra"]:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        for name in vars(value):
            with pytest.raises(AttributeError):
                delattr(value, name)

    def test_the_message_names_the_field(self):
        with pytest.raises(AttributeError, match="cannot assign to field 'power'"):
            NagataShear(2).power = 3
        with pytest.raises(AttributeError, match="cannot delete field 'scale'"):
            del NagataShear(2).scale

    def test_the_realization_is_still_cached(self):
        result = classify_tame((2, 3, 5))
        assert result.realization is result.realization
        assert result == classify_tame((2, 3, 5))


class TestRepr:
    @pytest.mark.parametrize(
        "value, text",
        [
            (NagataShear(2), "NagataShear(power=2, scale=1)"),
            (
                NagataShear(1, Fraction(-1, 2)),
                "NagataShear(power=1, scale=Fraction(-1, 2))",
            ),
            (Transposition(), "Transposition()"),
            (
                Triangular("y", X**2),
                "Triangular(variable='y', shift=Polynomial('x^2'))",
            ),
            (
                ReductionQuery(3, 5, 1, 0),
                "ReductionQuery(deg_f=3, deg_g=5, q=1, r=0, bracket_deg_lb=2)",
            ),
            (
                InequalityCheck("d2 mod 2 != 0", 1, 0, True),
                "InequalityCheck(name='d2 mod 2 != 0', lhs=1, rhs=0, holds=True)",
            ),
            (
                CitationCertificate("s"),
                "CitationCertificate(statement='s', checks=())",
            ),
            (
                FamilyParams(Family.EVEN_GT_4, 6, 1),
                "FamilyParams(family=<Family.EVEN_GT_4: 'even_gt_4'>, d=6, k=1)",
            ),
            (
                Classification((4, 6, 9), TameStatus.UNKNOWN, None, None),
                "Classification(triple=(4, 6, 9),"
                " status=<TameStatus.UNKNOWN: 'unknown'>, rule_id=None,"
                " certificate=None)",
            ),
            (
                Derivation(X, Y, Z),
                "Derivation(image_x=Polynomial('x'), image_y=Polynomial('y'),"
                " image_z=Polynomial('z'))",
            ),
        ],
        ids=lambda item: item if isinstance(item, str) else type(item).__name__,
    )
    def test_name_and_fields(self, value, text):
        assert repr(value) == text

    def test_nested_values(self):
        audit = reduction_audit(6, 1)
        assert repr(audit).startswith("ReductionAudit(d=6, k=1, cases=(('first', (")
        assert repr(audit).endswith(
            "type_iii=(InequalityCheck(name='d2 mod 2 != 0', lhs=1, rhs=0,"
            " holds=True),))"
        )
        assert repr(classify_tame((6, 13, 20))) == (
            "Classification(triple=(6, 13, 20),"
            " status=<TameStatus.NOT_TAME: 'not_tame'>, rule_id='R7',"
            f" certificate={audit!r})"
        )


class TestDefaults:
    def test_shear_scale_is_one(self):
        assert NagataShear(2).scale == 1
        assert NagataShear(power=2) == NagataShear(2, 1)

    def test_citation_checks_are_empty(self):
        assert CitationCertificate("s").checks == ()
        assert CitationCertificate(statement="s") == CitationCertificate("s", ())

    def test_bracket_lower_bound_is_two(self):
        assert ReductionQuery(3, 5, 1, 0).bracket_deg_lb == 2
        assert ReductionQuery(deg_f=3, deg_g=5, q=1, r=0).bracket_deg_lb == 2

    def test_keyword_construction_matches_positional(self):
        assert Triangular(variable="y", shift=X**2) == Triangular("y", X**2)
        assert FamilyParams(family=Family.D_EQUALS_4, d=4, k=1) == FamilyParams(
            Family.D_EQUALS_4, 4, 1
        )
        assert InequalityCheck(name="r", lhs=1, rhs=0, holds=True) == (
            InequalityCheck("r", 1, 0, True)
        )
        audit = reduction_audit(6, 1)
        assert ReductionAudit(
            d=6, k=1, cases=audit.cases, type_iii=audit.type_iii
        ) == audit

    def test_check_row_document(self):
        row = InequalityCheck("d2 mod 2 != 0", 1, 0, True)
        document = row.to_dict()
        assert list(document) == ["name", "lhs", "rhs", "holds"]
        assert document == {"name": "d2 mod 2 != 0", "lhs": 1, "rhs": 0, "holds": True}
        document["lhs"] = 5
        assert row.lhs == 1


# (class, arguments in signature order, error type, message)
ERRORS = [
    (Triangular, {"variable": "w", "shift": Y}, ValueError, "unknown variable 'w'"),
    (Triangular, {"variable": "x", "shift": 1}, TypeError,
     "shift must be a Polynomial, got 1"),
    (Triangular, {"variable": "x", "shift": X * Y}, ValueError,
     "triangular shift must not involve 'x'"),
    (NagataShear, {"power": 0}, ValueError,
     "shear power must be at least 1, got 0"),
    (NagataShear, {"power": 1.0}, TypeError,
     "shear power must be an int, got 1.0"),
    (NagataShear, {"power": 1, "scale": 0.5}, TypeError,
     "shear scale must be int or Fraction"),
    (NagataShear, {"power": 1, "scale": True}, TypeError,
     "shear scale must be int or Fraction"),
    (NagataShear, {"power": 1, "scale": 0}, ValueError,
     "shear scale must be nonzero"),
    (ReductionQuery, {"deg_f": 0, "deg_g": 5, "q": 1, "r": 0}, ValueError,
     "deg_f must be at least 1, got 0"),
    (ReductionQuery, {"deg_f": 3, "deg_g": 3, "q": 1, "r": 0}, ValueError,
     "deg_g must be at least 4, got 3"),
    (ReductionQuery, {"deg_f": 3, "deg_g": 5, "q": -1, "r": 0}, ValueError,
     "q must be at least 0, got -1"),
    (ReductionQuery, {"deg_f": 3, "deg_g": 5, "q": 1, "r": 0, "bracket_deg_lb": 1},
     ValueError, "bracket_deg_lb must be at least 2, got 1"),
    (ReductionQuery, {"deg_f": 3, "deg_g": 5, "q": 1, "r": -1}, ValueError,
     "r must be at least 0, got -1"),
    (ReductionQuery, {"deg_f": 3, "deg_g": 5, "q": 1, "r": 3}, ValueError,
     "r must satisfy 0 <= r < p = 3"),
    (FamilyParams, {"family": Family.ODD_GENERAL, "d": 0, "k": 1}, ValueError,
     "d must be at least 1, got 0"),
    (FamilyParams, {"family": Family.ODD_GENERAL, "d": 3, "k": 0}, ValueError,
     "k must be at least 1, got 0"),
    (FamilyParams, {"family": Family.ODD_1_MOD_4, "d": 3, "k": 1}, ValueError,
     "family needs d = 1 (mod 4) with d > 1"),
    (FamilyParams, {"family": Family.ODD_GENERAL, "d": 4, "k": 1}, ValueError,
     "family needs odd d > 1"),
    (FamilyParams, {"family": Family.EVEN_GT_4, "d": 4, "k": 1}, ValueError,
     "family needs even d > 4"),
    (FamilyParams, {"family": Family.D_EQUALS_4, "d": 6, "k": 1}, ValueError,
     "family needs d = 4"),
    (FamilyParams, {"family": Family.EVEN_GT_4, "d": 6, "k": 3}, ValueError,
     "family needs gcd(d, k) = 1"),
    (FamilyParams, {"family": "odd", "d": 5, "k": 1}, ValueError,
     "unknown family 'odd'"),
]


@pytest.mark.parametrize("by_keyword", [False, True], ids=["positional", "keyword"])
@pytest.mark.parametrize(
    "cls, arguments, error, message",
    ERRORS,
    ids=[f"{cls.__name__}-{message}" for cls, _, _, message in ERRORS],
)
def test_constructor_errors(cls, arguments, error, message, by_keyword):
    with pytest.raises(error) as info:
        if by_keyword:
            cls(**arguments)
        else:
            cls(*arguments.values())
    assert type(info.value) is error
    assert str(info.value) == message
