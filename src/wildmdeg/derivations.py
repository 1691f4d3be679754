"""Derivations of the polynomial ring in x, y, z and their exponentials.

A derivation is determined by its images of the three variables and
extends by linearity and the Leibniz rule.  For a locally nilpotent
derivation D the exponential sum x -> x + D(x) + D^2(x)/2! + ... is
finite on every input and defines a polynomial automorphism; `exp`
computes it with exact rational arithmetic and a termination budget.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .maps import INVARIANT_QUADRIC, PolyMap
from .poly import Polynomial, X, Y, Z, ZERO, _Value, _check_int

#: Iteration guard for `exp`: chains D^i(v) must reach 0 within this many steps.
DEFAULT_MAX_ITERATIONS = 16


class NotNilpotentWithinBudget(RuntimeError):
    """An iterate chain D^i(v) failed to reach zero within the budget."""


class Derivation(_Value):
    """Derivation given by its images of x, y and z."""

    _fields = ("image_x", "image_y", "image_z")

    def __init__(
        self, image_x: Polynomial, image_y: Polynomial, image_z: Polynomial
    ):
        object.__setattr__(self, "image_x", image_x)
        object.__setattr__(self, "image_y", image_y)
        object.__setattr__(self, "image_z", image_z)

    def __call__(self, poly: Polynomial) -> Polynomial:
        return (
            self.image_x * poly.partial("x")
            + self.image_y * poly.partial("y")
            + self.image_z * poly.partial("z")
        )

    def scaled_by(self, factor: Polynomial) -> "Derivation":
        """The derivation f*D (all images multiplied by ``factor``)."""
        return Derivation(
            self.image_x * factor,
            self.image_y * factor,
            self.image_z * factor,
        )


def nagata_derivation() -> Derivation:
    """The triangular derivation with D(x) = -2y, D(y) = z, D(z) = 0.

    Its kernel contains z and the quadric y^2 + x*z, so the scaled
    derivations (y^2 + x*z)^k * D are again locally nilpotent and their
    exponentials are the Nagata-type shears.
    """
    return Derivation(Y * (-2), Z, ZERO)


def exp(
    derivation: Derivation, max_iterations: int = DEFAULT_MAX_ITERATIONS
) -> PolyMap:
    """Exponential map v -> sum_i D^i(v) / i! on the three variables.

    Raises :class:`NotNilpotentWithinBudget` if any chain D^i(v) is still
    nonzero after ``max_iterations`` applications of D.
    """
    _check_int(max_iterations, "max_iterations", 1)
    images = []
    for variable in (X, Y, Z):
        accumulated = variable
        current = variable
        for i in range(1, max_iterations + 1):
            current = derivation(current)
            if current.is_zero():
                break
            accumulated = accumulated + current * Fraction(1, factorial(i))
        else:
            raise NotNilpotentWithinBudget(
                f"iterate chain still nonzero after {max_iterations} steps"
            )
        images.append(accumulated)
    return PolyMap(coords=tuple(images))


def nagata_exp(
    k: int, max_iterations: int = DEFAULT_MAX_ITERATIONS
) -> PolyMap:
    """Nagata-type shear exp((y^2 + x*z)^k * D) built from the exponential.

    The closed form has integer coefficients; the rational bookkeeping of
    `exp` must land back on integers, and this is asserted.
    """
    _check_int(k, "k", 1)
    scaled = nagata_derivation().scaled_by(INVARIANT_QUADRIC**k)
    result = exp(scaled, max_iterations)
    for coord in result.coords:
        if not coord.has_integer_coefficients():
            raise AssertionError(
                "exponential of the scaled derivation must have integer "
                "coefficients; got a genuine fraction"
            )
    return result
