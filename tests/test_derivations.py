"""Unit tests for derivations and their exponentials."""

from fractions import Fraction
from random import Random

import pytest

from conftest import SEED, random_poly
from wildmdeg import (
    INVARIANT_QUADRIC,
    ONE,
    X,
    Y,
    Z,
    ZERO,
    Derivation,
    NotNilpotentWithinBudget,
    exp,
    nagata,
    nagata_derivation,
    nagata_exp,
)


class TestDerivation:
    def test_images_on_variables(self):
        d = nagata_derivation()
        assert d(X) == -2 * Y
        assert d(Y) == Z
        assert d(Z) == ZERO

    def test_kernel_contains_quadric_and_z(self):
        d = nagata_derivation()
        assert d(INVARIANT_QUADRIC) == ZERO
        for k in (1, 2, 3):
            assert d(INVARIANT_QUADRIC**k) == ZERO
        assert d(Z**5) == ZERO

    def test_constants_die(self):
        d = nagata_derivation()
        assert d(ONE) == ZERO
        assert d(ZERO) == ZERO

    def test_linearity(self):
        d = nagata_derivation()
        rng = Random(SEED)
        for _ in range(30):
            p = random_poly(rng, fractions=True)
            q = random_poly(rng, fractions=True)
            assert d(p + 2 * q) == d(p) + 2 * d(q)

    def test_leibniz_rule(self):
        rng = Random(SEED)
        d = nagata_derivation()
        arbitrary = Derivation(
            random_poly(rng), random_poly(rng), random_poly(rng)
        )
        for derivation in (d, arbitrary):
            for _ in range(30):
                p = random_poly(rng, fractions=True)
                q = random_poly(rng, fractions=True)
                assert derivation(p * q) == derivation(p) * q + p * derivation(q)

    def test_scaled_by(self):
        d = nagata_derivation()
        scaled = d.scaled_by(INVARIANT_QUADRIC)
        rng = Random(SEED)
        for _ in range(20):
            p = random_poly(rng)
            assert scaled(p) == INVARIANT_QUADRIC * d(p)


class TestExp:
    def test_zero_derivation_gives_identity(self):
        d = Derivation(ZERO, ZERO, ZERO)
        assert exp(d).coords == (X, Y, Z)

    def test_unscaled_triangular_derivation(self):
        # chains: x -> -2y -> -2z -> 0 and y -> z -> 0, so
        # exp sends x to x - 2y - z (the 1/2! cancels the 2) and y to y + z.
        result = exp(nagata_derivation())
        assert result.coords == (X - 2 * Y - Z, Y + Z, Z)

    def test_budget_exceeded(self):
        not_nilpotent = Derivation(X, ZERO, ZERO)  # x -> x -> x -> ...
        with pytest.raises(NotNilpotentWithinBudget):
            exp(not_nilpotent)
        with pytest.raises(NotNilpotentWithinBudget):
            exp(not_nilpotent, max_iterations=40)

    def test_budget_validation(self):
        d = Derivation(ZERO, ZERO, ZERO)
        with pytest.raises(ValueError):
            exp(d, max_iterations=0)
        with pytest.raises(ValueError):
            exp(d, max_iterations=-3)

    def test_result_has_no_factorization(self):
        assert exp(nagata_derivation()).factors is None


class TestNagataExp:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_closed_form(self, k):
        assert nagata_exp(k).coords == nagata(k).coords
        # coefficient types too: the 1/i! bookkeeping leaves ints, not Fraction(n, 1)
        for got, closed in zip(nagata_exp(k).coords, nagata(k).coords):
            assert {t: type(c) for t, c in got.terms().items()} == {
                t: type(c) for t, c in closed.terms().items()
            }

    def test_integer_coefficients(self):
        for coord in nagata_exp(2).coords:
            assert coord.has_integer_coefficients()

    def test_iterate_chain_length_is_three(self):
        # D(x) = -2y*q^k, D^2(x) = -2z*q^2k, D^3(x) = 0: budget 3 suffices
        assert nagata_exp(1, max_iterations=3).coords == nagata(1).coords
        with pytest.raises(NotNilpotentWithinBudget):
            nagata_exp(1, max_iterations=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            nagata_exp(0)
        with pytest.raises(ValueError):
            nagata_exp(-2)


class TestHalfCoefficientBookkeeping:
    def test_fractions_appear_then_cancel(self):
        # exp of y -> x uses 1/2! on x^...: make a derivation where the
        # fraction survives, confirming exact rational bookkeeping.
        d = Derivation(ZERO, X, ZERO)  # y -> x -> 0
        result = exp(d)
        assert result.coords == (X, Y + X, Z)
        d2 = Derivation(Y, X, ZERO)  # x -> y -> x -> ... not nilpotent
        with pytest.raises(NotNilpotentWithinBudget):
            exp(d2)

    def test_genuine_fraction_in_exponential(self):
        # D(x) = y, D(y) = 1, D(z) = 0: the chain x -> y -> 1 -> 0
        # gives exp(D)(x) = x + y + 1/2, an honest rational.
        d = Derivation(Y, ONE, ZERO)
        result = exp(d)
        assert result.coords == (X + Y + Fraction(1, 2) * ONE, Y + ONE, Z)
        assert not result.coords[0].has_integer_coefficients()
