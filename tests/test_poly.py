"""Unit tests for the exact polynomial layer.

Expected values are frozen: strings and coefficient tables below were
computed by hand and must never be regenerated from the code under test.
"""

import sys
from fractions import Fraction
from math import factorial
from random import Random

import pytest

from conftest import SEED, random_nonzero_poly, random_poly
from wildmdeg import (
    INVARIANT_QUADRIC,
    MAX_EXPONENT,
    ONE,
    X,
    Y,
    Z,
    ZERO,
    Family,
    FamilyParams,
    NagataShear,
    ParseError,
    Polynomial,
    compose,
    inverse,
    nagata,
    parse,
    wild_family,
)
from wildmdeg import poly as kernel
from wildmdeg.poly import _affinely_independent

QUADRIC = Y * Y + X * Z


class TestConstruction:
    def test_empty_is_zero(self):
        assert Polynomial() == ZERO
        assert Polynomial({}).is_zero()
        assert Polynomial({(1, 0, 0): 0}) == ZERO

    def test_constant(self):
        five = Polynomial.constant(5)
        assert five.coefficient((0, 0, 0)) == 5
        assert Polynomial.constant(0) == ZERO

    def test_integral_fraction_coefficients_become_ints(self):
        poly = Polynomial.constant(Fraction(4, 2))
        coeff = poly.terms()[(0, 0, 0)]
        assert coeff == 2
        assert isinstance(coeff, int)

    def test_variable(self):
        assert Polynomial.variable("y") == Y
        with pytest.raises(ValueError):
            Polynomial.variable("w")

    def test_bad_terms_rejected(self):
        with pytest.raises(TypeError):
            Polynomial({(1, 2): 1})
        with pytest.raises(ValueError):
            Polynomial({(-1, 0, 0): 1})
        with pytest.raises(OverflowError):
            Polynomial({(MAX_EXPONENT + 1, 0, 0): 1})

    def test_bad_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Polynomial({(0, 0, 0): True})
        with pytest.raises(TypeError):
            Polynomial({(0, 0, 0): 1.5})

    def test_terms_returns_a_copy(self):
        poly = X + Y
        snapshot = poly.terms()
        snapshot[(9, 9, 9)] = 1
        assert poly == X + Y

    def test_coefficient_of_absent_term_is_zero(self):
        assert (X + Y).coefficient((0, 0, 1)) == 0

    def test_coefficient_beyond_the_constructor_cap(self):
        # arithmetic builds exponents above MAX_EXPONENT, and reads them back
        big = 10**10
        assert (X**big).coefficient((big, 0, 0)) == 1
        assert (X**big).coefficient((0, big, 0)) == 0
        assert (X + Y).coefficient((big, 0, 0)) == 0
        with pytest.raises(TypeError):
            X.coefficient((1, 0))
        with pytest.raises(TypeError):
            X.coefficient((True, 0, 0))
        with pytest.raises(ValueError):
            X.coefficient((-1, 0, 0))

    def test_len_counts_terms(self):
        assert len(ZERO) == 0
        assert len(QUADRIC) == 2
        assert not ZERO
        assert QUADRIC


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X * X - Y * Y

    def test_scalar_operations(self):
        assert 2 * X + 3 == Polynomial({(1, 0, 0): 2, (0, 0, 0): 3})
        assert X - 1 == Polynomial({(1, 0, 0): 1, (0, 0, 0): -1})
        assert 1 - X == Polynomial({(1, 0, 0): -1, (0, 0, 0): 1})
        assert Fraction(1, 2) * X == Polynomial({(1, 0, 0): Fraction(1, 2)})

    def test_boolean_scalars_rejected(self):
        with pytest.raises(TypeError):
            X * True
        with pytest.raises(TypeError):
            True + X

    def test_negation(self):
        assert -(X - Y) == Y - X
        assert -ZERO == ZERO

    def test_power(self):
        assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
        assert (X + Y) ** 0 == ONE
        assert (X + Y) ** 1 == X + Y
        assert ZERO**0 == ONE
        assert ZERO**3 == ZERO

    def test_power_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            X ** (-1)
        with pytest.raises(TypeError):
            X**1.5
        with pytest.raises(TypeError):
            X**True

    def test_equality_is_polynomial_only(self):
        assert ONE == Polynomial.constant(1)
        assert (ONE == 1) is False
        assert (X == "x") is False

    def test_equality_across_field_widths(self):
        # x^2000 cancels but its bound keeps the wide 20-bit fields, so
        # each comparison below is between widths 20 and 10
        wide = (X**2000 + Y + 2 * Z) - X**2000
        narrow = Y + 2 * Z
        assert (wide._width, narrow._width) == (20, 10)
        assert wide == narrow and narrow == wide
        assert hash(wide) == hash(narrow)
        # equal term counts, one coefficient or one exponent differs
        assert wide != Y + 3 * Z and Y + 2 * Z**2 != wide
        # unequal term counts, a subset of the terms or one more term
        assert wide != Y and wide != narrow + X
        assert Y != wide and narrow + X != wide

    def test_hashable_value_semantics(self):
        assert hash(X + Y) == hash(Y + X)
        assert len({X + Y, Y + X}) == 1

    def test_operands_are_not_mutated(self):
        p = X + Y
        before = p.terms()
        _ = p + QUADRIC
        _ = p * QUADRIC
        _ = -p
        assert p.terms() == before

    def test_integral_coefficients_are_stored_as_ints(self):
        half = Fraction(1, 2)
        square = {(2, 0, 0): Fraction(1, 4), (1, 1, 0): 1, (0, 2, 0): 1}
        cases = [
            # scalar branch, one-term factor, kernel product
            (X * half * 2, {(1, 0, 0): 1}),
            ((half * X + half * Y) * (2 * Z), {(1, 0, 1): 1, (0, 1, 1): 1}),
            (
                (half * X + Y) * (2 * X + 4 * Y),
                {(2, 0, 0): 1, (1, 1, 0): 4, (0, 2, 0): 4},
            ),
            # square by the kernel and multinomial power: 2 * (1/2) is an int
            ((half * X + Y) * (half * X + Y), square),
            ((half * X + Y) ** 2, square),
            # sum, derivative, substitution
            (half * X + half * X, {(1, 0, 0): 1}),
            ((half * X**2).partial("x"), {(1, 0, 0): 1}),
            ((X * Y).substitute(half * X, 2 * Y, Z), {(1, 1, 0): 1}),
        ]
        for poly, expected in cases:
            typed = {t: (type(c), c) for t, c in poly.terms().items()}
            assert typed == {t: (type(c), c) for t, c in expected.items()}
            assert poly.has_integer_coefficients() == all(
                isinstance(c, int) for c in expected.values()
            )

    def test_cancellation_prunes_terms(self):
        assert (X + Y) - (Y + X) == ZERO
        assert len((X + Y) * (X - Y)) == 2


class TestDegreeStructure:
    def test_total_degree(self):
        assert X.total_degree() == 1
        assert QUADRIC.total_degree() == 2
        assert (QUADRIC + ONE).total_degree() == 2
        assert Polynomial.constant(7).total_degree() == 0

    def test_partial_derivatives_of_quadric(self):
        assert QUADRIC.partial("x") == Z
        assert QUADRIC.partial("y") == 2 * Y
        assert QUADRIC.partial("z") == X

    def test_partial_edge_cases(self):
        assert ONE.partial("x") == ZERO
        assert ZERO.partial("y") == ZERO
        assert (X**3).partial("x") == 3 * X**2
        with pytest.raises(ValueError):
            X.partial("t")

    def test_integer_coefficients_predicate(self):
        assert QUADRIC.has_integer_coefficients()
        assert not (X * Fraction(1, 2)).has_integer_coefficients()
        assert (X * Fraction(1, 2) * 2).has_integer_coefficients()
        assert ZERO.has_integer_coefficients()


class TestSubstitute:
    def test_identity_substitution(self):
        rng = Random(SEED)
        for _ in range(50):
            poly = random_poly(rng, fractions=True)
            assert poly.substitute(X, Y, Z) == poly

    def test_cyclic_rename(self):
        poly = X**2 + Y
        assert poly.substitute(Y, Z, X) == Y**2 + Z

    def test_constant_images(self):
        poly = X * Y + Z
        value = poly.substitute(
            Polynomial.constant(2), Polynomial.constant(3), ZERO
        )
        assert value == Polynomial.constant(6)

    def test_polynomial_images(self):
        # (y^2 + x*z) at (x, y + x, z) = y^2 + 2*x*y + x^2 + x*z
        image = QUADRIC.substitute(X, Y + X, Z)
        assert image == Y**2 + 2 * X * Y + X**2 + X * Z

    def test_zero_substitutes_to_zero(self):
        assert ZERO.substitute(QUADRIC, QUADRIC, QUADRIC) == ZERO


class TestRendering:
    def test_frozen_strings(self):
        assert str(ZERO) == "0"
        assert str(X) == "x"
        assert str(-X) == "-x"
        assert str(QUADRIC) == "x*z + y^2"
        assert str(2 * X * Z - 3 * Y + 1) == "2*x*z - 3*y + 1"
        assert str(X - Y) == "x - y"
        assert str(Polynomial.constant(Fraction(-1, 2))) == "-1/2"
        assert str(X * Fraction(1, 2)) == "1/2*x"

    def test_graded_lex_descending_order(self):
        assert str(Z + Y + X + X * X) == "x^2 + x + y + z"
        assert str(Y**3 + X * Y * Z + X**2) == "x*y*z + y^3 + x^2"

    def test_repr(self):
        assert repr(X) == "Polynomial('x')"

    def test_parse_str_round_trip(self):
        rng = Random(SEED)
        for _ in range(200):
            poly = random_poly(rng, max_terms=7, fractions=True)
            assert parse(str(poly)) == poly


class TestParse:
    def test_basic(self):
        assert parse("0") == ZERO
        assert parse("y^2 + x*z") == QUADRIC
        assert parse("-x") == -X
        assert parse("- x + y") == Y - X
        assert parse("3/2") == Polynomial.constant(Fraction(3, 2))
        assert parse("4/2") == Polynomial.constant(2)
        assert parse("7") == Polynomial.constant(7)
        assert parse("2*x^3*y - 7") == 2 * X**3 * Y - 7

    def test_parentheses_and_group_powers(self):
        assert parse("(x+y)^2") == (X + Y) ** 2
        expanded = parse("x - 2*y*(y^2+z*x) - z*(y^2+z*x)^2")
        assert expanded == X - 2 * Y * QUADRIC - Z * QUADRIC**2

    def test_whitespace_tolerated(self):
        assert parse("  x \n* y\t+ 1 ") == X * Y + 1
        assert parse("x\r+\fy\v") == X + Y

    def test_nested_signs_in_groups(self):
        assert parse("-(x - y)") == Y - X
        assert parse("z - (x + y)") == Z - X - Y

    @pytest.mark.parametrize(
        "text, position",
        [
            ("x/2", 1),  # division only inside rational literals
            ("2x", 1),  # implicit multiplication rejected
            ("x y", 2),  # implicit multiplication rejected
            ("x^2^2", 3),  # exponent applies once per factor
            ("", 0),
            ("x^", 2),
            ("x^-1", 2),
            ("(x", 2),
            ("w", 0),
            ("x + ", 4),
            ("1/0", 2),
        ],
    )
    def test_errors_with_positions(self, text, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "text, position",
        [
            ("x^\u00b2", 2),  # superscript two: only 0-9 are digits
            ("\u00b2", 0),
            ("x^\u0661", 2),  # Arabic-Indic one
            ("\u0663*x", 0),  # Arabic-Indic three
            ("(" * 101 + "x" + ")" * 101, 100),  # past the nesting limit
            ("(" * 300 + "x" + ")" * 300, 100),
            ("x\u3000+ y", 1),  # ideographic space: whitespace is ASCII only
            ("x + y\x1c", 5),  # str.isspace accepts \x1c-\x1f too
        ],
        ids=["superscript-exponent", "superscript", "arabic-indic-exponent",
             "arabic-indic-coefficient", "nesting-101", "nesting-300",
             "ideographic-space", "file-separator"],
    )
    def test_errors_outside_the_grammar(self, text, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "prefix, what", [("", "integer"), ("x^", "exponent"), ("1/", "denominator")]
    )
    def test_literal_past_the_digit_limit(self, prefix, what):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit == 0:
            pytest.skip("this interpreter converts integers of any length")
        with pytest.raises(ParseError) as info:
            parse(prefix + "7" * (limit + 1))
        assert info.value.position == len(prefix)
        assert str(info.value).startswith(f"{what} has too many digits")

    def test_nesting_up_to_the_limit(self):
        group = "(" * 100 + "x" + ")" * 100
        assert parse(group) == X
        assert parse(f"{group} + {group}*{group}") == X + X * X

    def test_exponent_cap(self):
        with pytest.raises(ParseError):
            parse(f"x^{MAX_EXPONENT + 1}")
        assert parse(f"x^{MAX_EXPONENT}").total_degree() == MAX_EXPONENT

    def test_parse_error_is_value_error(self):
        assert issubclass(ParseError, ValueError)


def _to_ring(poly, ring):
    """Independent sparse copy of ``poly`` in a sympy polynomial ring over QQ."""
    from sympy import QQ

    return ring.from_dict(
        {t: QQ(c.numerator, c.denominator) for t, c in poly.terms().items()}
    )


def _int_normal_form(poly):
    """Every integral coefficient is an int, and the Fraction flag agrees."""
    coeffs = list(poly.terms().values())
    return all(
        isinstance(c, int) or c.denominator != 1 for c in coeffs
    ) and poly.has_integer_coefficients() == all(isinstance(c, int) for c in coeffs)


class TestSympyOracle:
    """Products, powers, substitution and partial derivatives against sympy.

    sympy is a test-only oracle; its sparse ring keeps huge exponents cheap.
    """

    @pytest.fixture(scope="class")
    def ring(self):
        sympy_rings = pytest.importorskip("sympy.polys.rings")
        from sympy import QQ

        return sympy_rings.ring("x,y,z", QQ)[0]

    # exponent vectors affinely independent: the multinomial path
    INDEPENDENT = [
        X,
        -3 * Y**4 * Z,
        X + 2 * Y**3,
        Y**2 + X * Z + X**4,
        3 * X - Fraction(1, 2) * Y * Z + Z**2 + 1,
        X + Y + X * Y,
    ]
    # affinely dependent: successive kernel products
    DEPENDENT = [
        1 + X + X**2,
        X + Y + X * Y + 1,
        Y**2 + X * Z - 2 * X * Y + Z + 1,
        X * Y - Fraction(2, 3) * Y * Z + X**2 + Z**2 + Y,
        2 * Z + X * Y + X**2 * Y**2 - 3 * X**3 * Y**3 - Y**2 * Z,
        Fraction(3, 2) * Y + X * Y - Y * Z + X**2 * Z + Z**3,
        -3 + X * Y - Y * Z + X**2 * Z + 2 * Y**3,
        # A^2 has no x^2 term, so a product of the chain cancels a term
        1 + X - Fraction(1, 2) * X**2,
        # lowest total degree parts of two and three terms
        X - 2 * Y + X * Z**2 + Y**2 + X * Y * Z,
        Fraction(2, 3) * X
        - Fraction(1, 2) * Z
        + Y * Z
        + X**2
        - Fraction(5, 4) * X * Y * Z,
        # full 3-D support
        X + Y + Z + X * Y + Y * Z + X * Z + X * Y * Z,
    ]

    def test_products_of_random_polynomials(self, ring):
        rng = Random(SEED)
        for _ in range(120):
            a = random_poly(rng, max_terms=8, fractions=True)
            b = random_poly(rng, max_terms=8, fractions=True)
            assert _to_ring(a * b, ring) == _to_ring(a, ring) * _to_ring(b, ring)

    @pytest.mark.parametrize("base", INDEPENDENT + DEPENDENT, ids=str)
    def test_powers_on_both_paths(self, ring, base):
        for n in (0, 1, 2, 3, 5, 8):
            assert _to_ring(base**n, ring) == _to_ring(base, ring) ** n

    def test_squares_of_the_same_object(self, ring):
        # p * p of one object takes the pairwise kernel like any product
        rng = Random(SEED + 4)
        bases = [
            random_nonzero_poly(rng, max_terms=10, fractions=True)
            for _ in range(60)
        ]
        one_term = [3 * X**2 * Y, Fraction(-2, 3) * Z**5]
        # x^2 cancels in the first square, x^2*y^2 in the second
        cancelling = [1 + X - Fraction(1, 2) * X**2, X**2 + 2 * X * Y - 2 * Y**2]
        for p in bases + one_term + cancelling:
            assert _to_ring(p * p, ring) == _to_ring(p, ring) ** 2
        cancelled = [(2, 0, 0), (2, 2, 0)]
        assert [(p * p).coefficient(t) for p, t in zip(cancelling, cancelled)] == [0, 0]

    @pytest.mark.parametrize("base", DEPENDENT, ids=str)
    def test_dependent_powers_for_every_exponent_to_12(self, ring, base):
        # every exponent of the product chain, through ** and through
        # substitution into a memo-free copy of the base
        assert not _affinely_independent(base.terms())
        expected = {1: _to_ring(base, ring)}
        for n in range(2, 13):
            expected[n] = expected[n - 1] * expected[1]
            power = base**n
            assert _to_ring(power, ring) == expected[n]
            assert _int_normal_form(power)
            image = Polynomial(base.terms())
            substituted = (X**n).substitute(image, Y, Z)
            assert _to_ring(substituted, ring) == expected[n]
            assert _int_normal_form(substituted)
        # all the powers in one substitution, each built from the smaller ones
        image = Polynomial(base.terms())
        poly = Polynomial({(n, 0, 0): n for n in range(2, 13)})
        assert _to_ring(poly.substitute(image, Y, Z), ring) == sum(
            n * expected[n] for n in range(2, 13)
        )

    def test_powers_of_random_polynomials(self, ring):
        rng = Random(SEED + 1)
        for _ in range(60):
            base = random_poly(rng, max_terms=6, max_exponent=3, fractions=True)
            n = rng.randrange(1, 7)
            assert _to_ring(base**n, ring) == _to_ring(base, ring) ** n

    def test_substitution_of_random_polynomials(self, ring):
        rng = Random(SEED + 2)
        gens = ring.gens
        images = self.INDEPENDENT + self.DEPENDENT + [ZERO, ONE]
        for _ in range(80):
            poly = random_poly(rng, max_terms=6, fractions=True)
            chosen = [rng.choice(images) for _ in range(3)]
            expected = _to_ring(poly, ring).compose(
                [(g, _to_ring(image, ring)) for g, image in zip(gens, chosen)]
            )
            assert _to_ring(poly.substitute(*chosen), ring) == expected

    def test_partial_derivatives_of_random_polynomials(self, ring):
        rng = Random(SEED + 3)
        for _ in range(60):
            poly = random_poly(rng, max_terms=8, fractions=True)
            for index, name in enumerate("xyz"):
                expected = _to_ring(poly, ring).diff(ring.gens[index])
                assert _to_ring(poly.partial(name), ring) == expected

    def test_exponents_beyond_64_bits_never_carry(self, ring):
        big = 2**64
        a = X ** (big - 1) + 3 * Y ** (big + 5) * Z + Z ** (big - 1) - 1
        b = X ** (big + 1) * Y - Y ** (big - 1) + 7 * Z**big + X
        assert _to_ring(a * b, ring) == _to_ring(a, ring) * _to_ring(b, ring)
        assert (a * b).total_degree() == 2 * big + 8
        c = X ** (big - 1) + Y**big * Z
        assert _to_ring(c**3, ring) == _to_ring(c, ring) ** 3
        assert parse("(x^1000000000)^1000000000") ** 100 == X ** (10**20)


class TestMultinomialRows:
    def test_coefficients_are_multinomial(self):
        # four affinely independent terms: both levels of the expansion
        n = 25
        power = (1 + X + 2 * Y - 3 * Z) ** n
        assert len(power) == (n + 1) * (n + 2) * (n + 3) // 6
        for (a, b, c), coeff in power.terms().items():
            rest = n - a - b - c
            multinomial = factorial(n) // (
                factorial(a) * factorial(b) * factorial(c) * factorial(rest)
            )
            assert coeff == multinomial * 2**b * (-3) ** c

    def test_affine_independence_in_four_dimensions(self):
        # a shear's first output over (x, y, z, t) on (z, y, x) and on (x, x, x)
        assert _affinely_independent({(0, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 2)})
        assert not _affinely_independent({(1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, 2)})
        assert not _affinely_independent(
            {(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (1, 1, 1, 1)}
        )
        assert _affinely_independent(
            {(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}
        )
        assert not _affinely_independent(
            {(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 1), (2, 1, 0, 1)}
        )


class TestPowerOverT:
    """Powers of a shear's outputs on monomial inputs, raised over t = q^k."""

    STARTS = [(X, Y, Z), (Z, Y, X), (2 * X, -Y, Fraction(3, 2) * Z)]

    @pytest.mark.parametrize("c", [1, -1, 2, Fraction(1, 2)], ids=str)
    @pytest.mark.parametrize("start", STARTS, ids=str)
    def test_powers_match_the_memo_free_kernel(self, start, c):
        for k in (1, 2):
            (first, second, _), _ = NagataShear(k, c).applied_to(start)
            for output in (first, second):
                assert output._t_form is not None
                plain = Polynomial(output.terms())
                assert plain._t_form is None
                for n in range(2, 13):
                    power = output**n
                    assert power == plain**n
                    assert _int_normal_form(power)
                    substituted = (X**n * Z).substitute(output, Y, Z)
                    assert substituted == power * Z
                    assert _int_normal_form(substituted)

    @pytest.mark.parametrize("c", [1, -1, 2, Fraction(1, 2)], ids=str)
    @pytest.mark.parametrize(
        "start", STARTS + [(X**1023, 3 * Y**2, Z**1000)], ids=str
    )
    def test_outputs_are_bounded_by_their_form(self, start, c):
        # _t_power packs A^n at a width that holds n * A._top, so A._top
        # must be the reach of A's form over t
        for k in (1, 2, 3):
            outputs, quadric = NagataShear(k, c).applied_to(start)
            for output in outputs[:2]:
                pieces, q, power = output._t_form
                assert q is quadric and power == k
                assert output._top == max(
                    piece._top + k * m * q._top for piece, m in pieces
                )

    def test_t_route_forms_no_product_chain(self, monkeypatch):
        (first, second, _), _ = NagataShear(3, -1).applied_to((Z, Y, X))
        expected = {n: Polynomial(first.terms()) ** n for n in (2, 5, 9)}
        t_power = kernel._t_power
        returned = []

        def recorded(*args):
            power = t_power(*args)
            returned.append(power is not None)
            return power

        accumulate = kernel._accumulate

        def refuse_chain(out, a, b):
            # a product chain starts with the base's term list times itself
            assert a is not b, "product chain started"
            accumulate(out, a, b)

        monkeypatch.setattr(kernel, "_t_power", recorded)
        monkeypatch.setattr(kernel, "_accumulate", refuse_chain)
        for n, power in expected.items():
            assert first**n == power
        assert (X**9 + X**5 * Y).substitute(first, second, Z) == (
            expected[9] + expected[5] * second
        )
        # the t-route built every power: 2, 5 and 9, then 5 and 9 again
        assert returned == [True] * 5

    def test_dependent_forms_are_raised_over_t(self):
        # on (x, x, x) the terms u and w*t^2 over t are collinear with v*t,
        # so terms of a power over t meet; the t-route adds them up
        q = 2 * X**2
        (first, second, third), _ = NagataShear(1, 2).applied_to((X, X, X))
        assert first._t_form is not None and second._t_form is not None
        assert first == X - 4 * X * q - 4 * X * q**2
        assert second == X + 2 * X * q
        for n in range(2, 7):
            assert first**n == Polynomial(first.terms()) ** n


class TestSquares:
    def test_dependent_square_is_one_kernel_product(self, monkeypatch):
        # lowest total degree part of two terms: the square is one kernel
        # product of the base with itself, and every other product has a
        # one-term factor
        base = Y * Y + X * Z + nagata(2).coords[0] ** 4
        assert not _affinely_independent(base.terms())
        expected = base * base
        counted = []
        accumulate = kernel._accumulate

        def counted_accumulate(out, a, b):
            if min(len(a), len(b)) > 1:
                counted.append((len(a), len(b)))
            accumulate(out, a, b)

        monkeypatch.setattr(kernel, "_accumulate", counted_accumulate)
        assert base**2 == expected
        assert (X**2 * Y).substitute(Polynomial(base.terms()), Y, Z) == expected * Y
        assert counted == [(len(base), len(base))] * 2


class TestPowerMemo:
    """Substitution keeps the powers it used on dependent images, and only those."""

    def test_repeated_substitution_is_stable(self):
        image = 1 + X + X**2 + Y
        poly = X**3 + 2 * X**5 * Z - Y
        first = poly.substitute(image, Y, Z)
        assert sorted(image._powers) == [3, 5]
        second = poly.substitute(image, Y, Z)
        assert first == second
        assert first == image**3 + 2 * image**5 * Z - Y
        assert sorted(image._powers) == [3, 5]

    def test_memo_is_invisible_to_equality_and_hashing(self):
        image = 1 + X + X**2
        fresh = Polynomial(image.terms())
        (X**4).substitute(image, Y, Z)
        assert image._powers and fresh._powers is None
        assert image == fresh
        assert hash(image) == hash(fresh)
        assert len({image, fresh}) == 1

    def test_only_dependent_bases_get_a_memo(self):
        for base in TestSympyOracle.INDEPENDENT + TestSympyOracle.DEPENDENT:
            image = Polynomial(base.terms())
            (X**6 * Y).substitute(image, Y, Z)
            if base in TestSympyOracle.DEPENDENT:
                assert sorted(image._powers) == [6]
            else:
                assert image._powers is None

    def test_module_constants_stay_memo_free(self):
        for family, d in (
            (Family.ODD_1_MOD_4, 5),
            (Family.ODD_GENERAL, 3),
            (Family.EVEN_GT_4, 6),
            (Family.D_EQUALS_4, 4),
        ):
            _, classification = wild_family(FamilyParams(family, d, 1))
            realization = classification.realization
            assert compose(inverse(realization), realization).is_identity()
            assert compose(realization, inverse(realization)).is_identity()
        for constant in (X, Y, Z, INVARIANT_QUADRIC):
            assert constant._powers is None
