"""Polynomial maps of 3-space built from invertible generators.

A :class:`PolyMap` is a triple of polynomials in x, y, z.  Maps produced
by the constructors in this module carry a *factorization*: the list of
generators whose composition they are, each of which has a closed-form
inverse.  Such maps are automorphisms by construction, and their inverses
come from reversing and inverting the factor list — no elimination theory
is ever needed.

Generator kinds:

``Transposition``
    the linear swap (x, y, z) -> (z, y, x);
``Triangular(variable, shift)``
    adds a polynomial in the *other two* variables to one coordinate;
``NagataShear(power, scale)``
    the shear (x - 2c*y*q^k - c^2*z*q^2k, y + c*z*q^k, z) along the level
    sets of the invariant quadric q = y^2 + x*z.

Coordinates of a factored map are realized lazily, by folding its
generators one at a time onto (x, y, z); composing a factored map with
another map folds them onto the other map's coordinates.  This keeps the
intermediate polynomials small (crucial when verifying that high-degree
constructions compose with their inverses to the identity).  The
constructors return factor-only maps, so every coordinate is built by
the fold.

The fold carries the quadric v^2 + u*w of its current coordinates
(u, v, w) when it knows it: it starts from y^2 + x*z on (x, y, z), or
from the inner map's quadric in :func:`compose`.  Every generator has
one entry, ``applied_to(coords, quadric=None)``, which returns the new
coordinates and their quadric, None when unknown, and the fold is one
loop over it.  A transposition keeps the quadric, a triangular generator
drops it, and a shear keeps it, computing v^2 + u*w when it finds none.
A shear writes each new coordinate once, as a form over t = q^k, the
same way for every input (see :class:`NagataShear`).
A map built by a fold keeps the quadric of its coordinates, so
``compose(inverse(f), f)`` starts from f's.
Every shear that reads a carried quadric first checks it against
v^2 + u*w at one fixed point modulo the prime 2^61 - 1 (Schwartz,
J. ACM 27, 1980) and raises ``ArithmeticError`` on a mismatch, so the
checks that a map composed with its inverse is the identity still test
the shear formula itself.  The check evaluates every term of u, v, w
and the quadric, reading exponents from the polynomials' stored keys;
each variable's powers are built at the exponents that occur, in
ascending order, each from the one before by the gap, so a modular
``pow`` runs only for gaps above 1.  Each polynomial keeps its value at
the point, so X, Y, Z, the invariant quadric and every coordinate that
two checks share are evaluated once.  The carried quadric takes no part
in equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

from .poly import (
    Coeff,
    Polynomial,
    X,
    Y,
    Z,
    _VAR_INDEX,
    _Value,
    _check_int,
    _columns,
    _over_t,
    _validate_sorted_triple,
)

#: The quadric y^2 + x*z preserved by every Nagata shear.
INVARIANT_QUADRIC = Y * Y + X * Z

Coords = Tuple[Polynomial, Polynomial, Polynomial]

# the point check of a carried quadric: a prime modulus and a fixed point
_MODULUS = 2**61 - 1
_POINT = (0x1F3D5B79A2C4E6, 0x0A5C3E1F2D4B69, 0x17E5D3C1B0A987)


class UnknownFactorization(ValueError):
    """Raised when an operation needs a factorization the map lacks."""


class Transposition(_Value):
    """Swap of the outer variables: (x, y, z) -> (z, y, x)."""

    def applied_to(
        self, coords: Coords, quadric: Optional[Polynomial] = None
    ) -> Tuple[Coords, Optional[Polynomial]]:
        u, v, w = coords
        return (w, v, u), quadric

    def inverted(self) -> "Transposition":
        return self

    def token(self) -> str:
        return "T"


class Triangular(_Value):
    """Add a polynomial in the other two variables to one coordinate."""

    _fields = ("variable", "shift")

    def __init__(self, variable: str, shift: Polynomial):
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "shift", shift)
        if variable not in _VAR_INDEX:
            raise ValueError(f"unknown variable {variable!r}")
        if not isinstance(shift, Polynomial):
            raise TypeError(f"shift must be a Polynomial, got {shift!r}")
        if shift.partial(variable):
            raise ValueError(f"triangular shift must not involve {variable!r}")

    def applied_to(
        self, coords: Coords, quadric: Optional[Polynomial] = None
    ) -> Tuple[Coords, None]:
        out = list(coords)
        index = _VAR_INDEX[self.variable]
        out[index] = out[index] + self.shift.substitute(*coords)
        return tuple(out), None

    def inverted(self) -> "Triangular":
        return Triangular(self.variable, -self.shift)

    def token(self) -> str:
        return f"shift({self.variable}, {self.shift})"


class NagataShear(_Value):
    """Exponential shear along the invariant quadric q = y^2 + x*z.

    With q-power k and scale c this is
    (x - 2c*y*q^k - c^2*z*q^2k,  y + c*z*q^k,  z); scale -1 gives the
    inverse of scale +1.

    Applied to coordinates (u, v, w), with q = v^2 + u*w and t = q^k, the
    outputs are two forms over t, each summed by ``poly._over_t``:
    second = v + (c*w)*t, and first = u + (-2c*s)*t + (-c^2*w)*t^2 with
    s = v, or equally u + (-2c*s)*t + (c^2*w)*t^2 with s = second; the
    shorter s is used.  When the shear undoes an earlier one, as
    in every check that a map composed with its inverse is the identity,
    second is the v that the earlier shear was given.  In the wild maps'
    checks that is one term while v has hundreds, so the product with t
    becomes a shift.  An output whose pieces are all one term, as on every
    fold from (x, y, z), keeps its form, and its powers are raised over
    (x, y, z, t).

    A quadric given as ``quadric`` is checked against v^2 + u*w at one
    fixed point modulo 2^61 - 1, and ``ArithmeticError`` is raised when
    they differ; without one, v^2 + u*w is computed.  The sheared
    coordinates are returned with that quadric, which the shear keeps.
    This is the one place the shear formula is expanded: :func:`nagata`
    and every factored map get their coordinates from it.
    """

    _fields = ("power", "scale")

    def __init__(self, power: int, scale: Coeff = 1):
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "scale", scale)
        _check_int(power, "shear power", 1)
        if isinstance(scale, bool) or not isinstance(scale, (int, Fraction)):
            raise TypeError("shear scale must be int or Fraction")
        if scale == 0:
            raise ValueError("shear scale must be nonzero")

    def applied_to(
        self, coords: Coords, quadric: Optional[Polynomial] = None
    ) -> Tuple[Coords, Polynomial]:
        quadric = _quadric_of(coords, quadric)
        u, v, w = coords
        c, t_powers = self.scale, {}
        second = _over_t(quadric, self.power, t_powers, ((v, 0), (w * c, 1)))
        s, sign = (second, 1) if len(second) < len(v) else (v, -1)
        form = ((u, 0), (s * (-2 * c), 1), (w * (sign * c * c), 2))
        first = _over_t(quadric, self.power, t_powers, form)
        return (first, second, w), quadric

    def inverted(self) -> "NagataShear":
        return NagataShear(self.power, -self.scale)

    def token(self) -> str:
        if self.scale == 1:
            return f"nagata({self.power})"
        return f"nagata({self.power})^{self.scale}"


Generator = Union[Transposition, Triangular, NagataShear]
_GENERATOR_TYPES = (Transposition, Triangular, NagataShear)


def _residue(poly: Polynomial) -> int:
    """``poly`` at ``_POINT`` modulo ``_MODULUS``, kept on the (immutable)
    polynomial after its first evaluation.

    Raises ValueError when a denominator is divisible by the modulus.
    """
    value = poly._point
    if value is None:
        value = poly._point = _evaluated(poly)
    return value


def _evaluated(poly: Polynomial) -> int:
    """Every term of ``poly`` at ``_POINT`` modulo ``_MODULUS``, read from
    its stored keys."""
    m = _MODULUS
    columns = _columns(poly)
    xs, ys, zs = (
        _powers_at(value, column) for value, column in zip(_POINT, columns)
    )
    coeffs = poly._keys.values()
    if poly._fractions:
        coeffs = [
            c.numerator * pow(c.denominator, -1, m) if isinstance(c, Fraction) else c
            for c in coeffs
        ]
    total = 0
    for e0, e1, e2, c in zip(*columns, coeffs):
        total += c % m * xs[e0] * ys[e1] * zs[e2]
    return total % m


def _powers_at(value: int, exponents: Iterable[int]) -> dict:
    """``value**e`` modulo ``_MODULUS`` for each ``e`` of ``exponents``.

    The powers are built in ascending order, each from the one before it
    by the gap between their exponents, so ``pow`` runs only for gaps
    above 1 and a large exponent costs one modular power, not one
    multiplication per unit.
    """
    m = _MODULUS
    table = {}
    last, power = 0, 1
    for e in sorted(set(exponents)):
        gap = e - last
        if gap == 1:
            power = power * value % m
        elif gap:
            power = power * pow(value, gap, m) % m
        table[e] = power
        last = e
    return table


def _quadric_of(coords: Coords, carried: Optional[Polynomial]) -> Polynomial:
    """v^2 + u*w of coordinates (u, v, w): computed when ``carried`` is
    None, else ``carried`` once it agrees with v^2 + u*w at ``_POINT``
    modulo ``_MODULUS``; ArithmeticError when it does not."""
    u, v, w = coords
    if carried is None:
        return v * v + u * w
    try:
        ru, rv, rw, rq = map(_residue, (*coords, carried))
        agrees = (rv * rv + ru * rw - rq) % _MODULUS == 0
    except ValueError:  # a denominator the modulus divides: compare exactly
        agrees = v * v + u * w == carried
    if not agrees:
        raise ArithmeticError("the carried quadric differs from v^2 + u*w")
    return carried


def _apply_factors(
    factors: Sequence[Generator], coords: Coords, quadric: Optional[Polynomial]
) -> Tuple[Coords, Optional[Polynomial]]:
    """Fold ``factors`` onto ``coords``, whose v^2 + u*w is ``quadric``, or
    None when unknown; returns the new coordinates and their quadric."""
    # factors are listed in composition order: the last one acts first
    for generator in reversed(factors):
        coords, quadric = generator.applied_to(coords, quadric)
    return coords, quadric


class PolyMap:
    """Polynomial map of 3-space, optionally carrying its factorization."""

    # _quadric: v^2 + u*w of the coordinates when known (see _apply_factors)
    __slots__ = ("_coords", "_factors", "_quadric")

    def __init__(
        self,
        coords: Optional[Iterable[Polynomial]] = None,
        factors: Optional[Iterable[Generator]] = None,
    ):
        if coords is None and factors is None:
            raise ValueError("a map needs coordinates or a factorization")
        if coords is not None:
            coords = tuple(coords)
            if len(coords) != 3 or not all(
                isinstance(c, Polynomial) for c in coords
            ):
                raise TypeError("coords must be three Polynomial values")
        if factors is not None:
            factors = tuple(factors)
            for generator in factors:
                if not isinstance(generator, _GENERATOR_TYPES):
                    raise TypeError(f"unknown generator {generator!r}")
        self._coords = coords
        self._factors = factors
        self._quadric = None

    @property
    def coords(self) -> Coords:
        if self._coords is None:
            self._coords, self._quadric = _apply_factors(
                self._factors, (X, Y, Z), INVARIANT_QUADRIC
            )
        return self._coords

    @property
    def factors(self) -> Optional[Tuple[Generator, ...]]:
        return self._factors

    def multidegree(self) -> Tuple[int, int, int]:
        return multidegree(self)

    def inverse(self) -> "PolyMap":
        return inverse(self)

    def is_identity(self) -> bool:
        return is_identity(self)

    def to_dict(self) -> dict:
        document = {"coords": [str(c) for c in self.coords]}
        if self._factors is not None:
            document["factors"] = [g.token() for g in self._factors]
        return document

    def __mul__(self, other: object) -> "PolyMap":
        if not isinstance(other, PolyMap):
            return NotImplemented
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.coords == other.coords

    __hash__ = None  # mutable cache; identity-by-coords only via ==

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self) -> str:
        return f"PolyMap({str(self)})"


def compose(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """Composition applying ``inner`` first, then ``outer``.

    The coordinates are those of ``outer`` with x, y, z replaced by the
    coordinates of ``inner``.  When ``outer`` is factored, its generators
    are folded one at a time onto ``inner``'s coordinates.
    """
    coords = inner.coords
    if outer.factors is not None:
        coords, quadric = _apply_factors(outer.factors, coords, inner._quadric)
    else:
        cx, cy, cz = coords
        coords = tuple(c.substitute(cx, cy, cz) for c in outer.coords)
        quadric = None
    factors = None
    if outer.factors is not None and inner.factors is not None:
        factors = outer.factors + inner.factors
    composed = PolyMap(coords=coords, factors=factors)
    composed._quadric = quadric
    return composed


def inverse(map_: PolyMap) -> PolyMap:
    """Inverse from the factorization (closed form, factor by factor)."""
    if map_.factors is None:
        raise UnknownFactorization(
            "inverse needs a factored map; this one has no factorization"
        )
    return PolyMap(
        factors=tuple(g.inverted() for g in reversed(map_.factors))
    )


def multidegree(map_: PolyMap) -> Tuple[int, int, int]:
    """Coordinate degrees, in coordinate order (not sorted)."""
    degrees = []
    for position, coord in zip(("first", "second", "third"), map_.coords):
        if coord.is_zero():
            raise ValueError(
                f"{position} coordinate is zero; the map is not an automorphism"
            )
        degrees.append(coord.total_degree())
    return tuple(degrees)


def is_identity(map_: PolyMap) -> bool:
    return map_.coords == (X, Y, Z)


def nagata(k: int) -> PolyMap:
    """k-th power Nagata-type shear, the one generator ``NagataShear(k)``.

    Coordinates (x - 2y*q^k - z*q^2k, y + z*q^k, z) with q = y^2 + x*z;
    k = 1 is the classical Nagata automorphism, with multidegree (5, 3, 1).
    """
    _check_int(k, "k", 1)
    return PolyMap(factors=(NagataShear(k),))


def sheared_nagata(d: int, k: int) -> PolyMap:
    """Transposition ∘ nagata(k) ∘ (x, y, z + x^d), for any d >= 1.

    Its multidegree is the long progression (d, d + k(d+1), d + 2k(d+1)).
    """
    _check_int(d, "d", 1)
    _check_int(k, "k", 1)
    return PolyMap(
        factors=(Transposition(), NagataShear(k), Triangular("z", X**d))
    )


def short_progression_map(l: int, k: int) -> PolyMap:
    """Composite of two transposed Nagata shears.

    Realizes the arithmetic-progression multidegree
    (4l+1, 4l+1 + 2k, 4l+1 + 4k).  The construction leans on the identity
    g^2 + f*h = y^2 + x*z for the inner map (f, g, h), which is checked at
    build time.
    """
    _check_int(l, "l", 1)
    _check_int(k, "k", 1)
    inner = (Transposition(), NagataShear(l))
    f, g, h = PolyMap(factors=inner).coords
    if g * g + f * h != INVARIANT_QUADRIC:
        raise AssertionError(
            "inner map lost the invariant quadric; construction is broken"
        )
    return PolyMap(factors=(Transposition(), NagataShear(k)) + inner)


long_progression_map = sheared_nagata  # kept: perfbench calls it


def tame_witness(d1: int, d2: int, d3: int, a: int, b: int) -> PolyMap:
    """Tame map with multidegree (d1, d2, d3), given a*d1 + b*d2 = d3.

    The map is (x + z^d1, y + z^d2, z + (x + z^d1)^a * (y + z^d2)^b),
    composed from three triangular generators.
    """
    _validate_sorted_triple((d1, d2, d3))
    _check_int(a, "a", 0)
    _check_int(b, "b", 0)
    if (a, b) == (0, 0):
        raise ValueError("witness exponents (a, b) must not both be zero")
    if a * d1 + b * d2 != d3:
        raise ValueError(
            f"witness exponents do not reach d3: {a}*{d1} + {b}*{d2} != {d3}"
        )
    factors = (
        Triangular("z", (X**a) * (Y**b)),
        Triangular("x", Z**d1),
        Triangular("y", Z**d2),
    )
    return PolyMap(factors=factors)
