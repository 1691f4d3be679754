"""Unit tests for factored polynomial maps and the named constructions.

The coordinate strings asserted below were expanded by hand and are
frozen; they double as regression anchors for the renderer.
"""

from fractions import Fraction
from random import Random

import pytest

from conftest import SEED, random_nonzero_poly
from wildmdeg import (
    INVARIANT_QUADRIC,
    Family,
    FamilyParams,
    NagataShear,
    PolyMap,
    Polynomial,
    Transposition,
    Triangular,
    UnknownFactorization,
    X,
    Y,
    Z,
    ZERO,
    compose,
    inverse,
    is_identity,
    long_progression_map,
    multidegree,
    nagata,
    sheared_nagata,
    short_progression_map,
    tame_witness,
    wild_family,
)
from wildmdeg import maps, poly


def jacobian_determinant(coords):
    """3x3 Jacobian determinant, cofactor expansion along the first row."""
    rows = [
        [c.partial(v) for v in ("x", "y", "z")] for c in coords
    ]
    def minor(i, j):
        a, b = [r for k, r in enumerate(rows) if k != i][0:2]
        cols = [c for c in range(3) if c != j]
        return a[cols[0]] * b[cols[1]] - a[cols[1]] * b[cols[0]]
    return (
        rows[0][0] * minor(0, 0)
        - rows[0][1] * minor(0, 1)
        + rows[0][2] * minor(0, 2)
    )


def expanded_product(a, b):
    """a * b expanded term by term, outside the polynomial kernel."""
    out = {}
    for (a0, a1, a2), ca in a.terms().items():
        for (b0, b1, b2), cb in b.terms().items():
            key = (a0 + b0, a1 + b1, a2 + b2)
            out[key] = out.get(key, 0) + ca * cb
    return Polynomial(out)


def expanded_power(a, n):
    out = Polynomial.constant(1)
    for _ in range(n):
        out = expanded_product(out, a)
    return out


class TestGenerators:
    def test_transposition(self):
        swap = Transposition()
        assert swap.applied_to((X, Y, Z)) == ((Z, Y, X), None)
        assert swap.applied_to((X, Y, Z), INVARIANT_QUADRIC) == (
            (Z, Y, X),
            INVARIANT_QUADRIC,
        )
        assert swap.inverted() == swap
        assert swap.token() == "T"

    def test_triangular(self):
        gen = Triangular("z", X**2)
        assert gen.applied_to((X, Y, Z), INVARIANT_QUADRIC) == (
            (X, Y, Z + X**2),
            None,
        )
        assert gen.inverted() == Triangular("z", -(X**2))
        assert gen.token() == "shift(z, x^2)"

    def test_triangular_substitutes_shift_through_current_coords(self):
        gen = Triangular("y", X * Z)
        coords, _ = gen.applied_to((Z, Y, X))  # shift evaluated at (z, _, x)
        assert coords == (Z, Y + Z * X, X)

    def test_triangular_validation(self):
        with pytest.raises(ValueError):
            Triangular("x", X)
        with pytest.raises(ValueError):
            Triangular("y", X * Y + Z)
        with pytest.raises(ValueError):
            Triangular("w", X)

    @pytest.mark.parametrize("shift", [5, None, "x^2", 0.5])
    def test_triangular_shift_must_be_a_polynomial(self, shift):
        with pytest.raises(TypeError):
            Triangular("y", shift)

    def test_nagata_shear_inverse_round_trip(self):
        coords = (X, Y, Z)
        forward, quadric = NagataShear(2).applied_to(coords)
        assert quadric == INVARIANT_QUADRIC
        backward = NagataShear(2, -1).applied_to(forward, quadric)
        assert backward == (coords, quadric)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, -1, 2, Fraction(1, 2)], ids=str)
    def test_nagata_shear_both_forms_of_the_first_coordinate(self, k, c):
        # on (x, y, z + x^3) the first coordinate is built from v, which is
        # smaller than v + c*w*q^k; on the output of the inverse shear it is
        # built from v + c*w*q^k, which collapses to y
        coords = (X, Y, Z + X**3)
        backward, _ = NagataShear(k, -c).applied_to(coords)
        for start, second_is_smaller in ((coords, False), (backward, True)):
            u, v, w = start
            (first, second, third), _ = NagataShear(k, c).applied_to(start)
            assert (len(second) < len(v)) == second_is_smaller
            q = expanded_product(v, v) + expanded_product(u, w)
            q_k = expanded_power(q, k)
            assert first == (
                u
                - expanded_product(v, q_k) * (2 * c)
                - expanded_product(w, expanded_power(q, 2 * k)) * (c * c)
            )
            assert second == v + expanded_product(w, q_k) * c
            assert third == w

    def test_nagata_shear_tokens(self):
        assert NagataShear(2).token() == "nagata(2)"
        assert NagataShear(2, -1).token() == "nagata(2)^-1"

    def test_nagata_shear_validation(self):
        with pytest.raises(ValueError):
            NagataShear(0)
        with pytest.raises(ValueError):
            NagataShear(1, 0)
        with pytest.raises(TypeError):
            NagataShear(1, 0.5)
        with pytest.raises(TypeError):
            NagataShear(1, True)


class TestPolyMap:
    def test_needs_coords_or_factors(self):
        with pytest.raises(ValueError):
            PolyMap()
        with pytest.raises(TypeError):
            PolyMap(coords=(X, Y))
        with pytest.raises(TypeError):
            PolyMap(coords=(X, Y, "z"))
        with pytest.raises(TypeError):
            PolyMap(factors=("T",))

    def test_lazy_coordinate_realization(self):
        lazy = PolyMap(factors=(Transposition(),))
        assert lazy.coords == (Z, Y, X)

    def test_factor_order_is_composition_order(self):
        # the last factor acts first
        lazy = PolyMap(
            factors=(Triangular("y", X**2), Triangular("z", X**3))
        )
        assert lazy.coords == (X, Y + X**2, Z + X**3)

    def test_to_dict(self):
        doc = PolyMap(factors=(Transposition(),)).to_dict()
        assert doc == {"coords": ["z", "y", "x"], "factors": ["T"]}
        bare = PolyMap(coords=(X, Y, Z)).to_dict()
        assert bare == {"coords": ["x", "y", "z"]}

    def test_equality_by_coordinates(self):
        swap = PolyMap(factors=(Transposition(),))
        assert PolyMap(coords=(Z, Y, X)) == swap
        assert PolyMap(coords=(X, Y, Z)) != swap

    def test_mul_is_composition(self):
        swap = PolyMap(factors=(Transposition(),))
        assert (swap * swap).is_identity()

    def test_str(self):
        assert str(PolyMap(factors=(Transposition(),))) == "(z, y, x)"

    def test_identity_constructor(self):
        identity = PolyMap(factors=())
        assert identity.is_identity()
        assert is_identity(identity)
        assert identity.factors == ()
        assert multidegree(identity) == (1, 1, 1)


class TestCompose:
    def test_transposition_is_an_involution(self):
        swap = PolyMap(factors=(Transposition(),))
        assert compose(swap, swap).is_identity()

    def test_fold_agrees_with_generic_substitution(self):
        outer = sheared_nagata(3, 1)
        inner = nagata(2)
        folded = compose(outer, inner)
        generic = compose(PolyMap(coords=outer.coords), inner)
        assert folded.coords == generic.coords

    def test_factor_concatenation(self):
        outer = PolyMap(factors=(Transposition(),))
        inner = PolyMap(factors=(Triangular("z", X**2),))
        both = compose(outer, inner)
        assert both.factors == outer.factors + inner.factors

    def test_unfactored_operand_loses_factorization(self):
        bare = PolyMap(coords=(Z, Y, X))
        swap = PolyMap(factors=(Transposition(),))
        assert compose(swap, bare).factors is None
        assert compose(bare, swap).factors is None

    def test_associativity(self):
        a, b = PolyMap(factors=(Transposition(),)), nagata(1)
        c = PolyMap(factors=(Triangular("z", X**2),))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.coords == right.coords


class TestInverse:
    def test_requires_factorization(self):
        bare = PolyMap(coords=(Z, Y, X))
        with pytest.raises(UnknownFactorization):
            inverse(bare)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nagata_inverse_both_sides(self, k):
        map_ = nagata(k)
        assert compose(inverse(map_), map_).is_identity()
        assert compose(map_, inverse(map_)).is_identity()

    def test_sheared_inverse_both_sides(self):
        map_ = sheared_nagata(5, 2)
        assert compose(inverse(map_), map_).is_identity()
        assert compose(map_, inverse(map_)).is_identity()

    def test_witness_inverse_both_sides(self):
        map_ = tame_witness(2, 4, 8, 4, 0)
        assert compose(inverse(map_), map_).is_identity()
        assert compose(map_, inverse(map_)).is_identity()

    @pytest.mark.parametrize(
        "d, k, binary_powering_cost", [(6, 29, 591_586), (8, 19, 350_846)]
    )
    def test_inverse_checks_cost(self, monkeypatch, d, k, binary_powering_cost):
        # kernel term products of both inverse checks, the inverse's own
        # coordinates included: at most 5 % of their cost with binary
        # powering, a recomputed quadric in every shear and v as the shear's
        # factor of q^k (14,909 and 14,564 with the carried quadric and the
        # t-route)
        f = sheared_nagata(d, k)
        f.coords
        count = [0]
        accumulate = poly._accumulate

        def counted_accumulate(out, a, b):
            count[0] += len(a) * len(b)
            accumulate(out, a, b)

        monkeypatch.setattr(poly, "_accumulate", counted_accumulate)
        assert is_identity(compose(inverse(f), f))
        assert is_identity(compose(f, inverse(f)))
        assert count[0] <= 0.05 * binary_powering_cost

    @pytest.mark.parametrize(
        "build",
        [
            lambda: sheared_nagata(6, 29),
            lambda: wild_family(FamilyParams(Family.ODD_1_MOD_4, 5, 3))[1].realization,
            lambda: wild_family(FamilyParams(Family.ODD_GENERAL, 3, 2))[1].realization,
        ],
        ids=["sheared_nagata(6, 29)", "odd_1_mod_4 (5, 3)", "odd_general (3, 2)"],
    )
    def test_inverse_checks_decode_no_terms(self, monkeypatch, build):
        # the stored packed keys are turned back into exponent triples only
        # at the API boundary: both inverse checks, the inverse's own
        # coordinates included, run on the stored form throughout
        f = build()
        f.coords
        decoded = []
        decode = poly._decoded

        def counted_decode(p):
            decoded.append(len(p))
            return decode(p)

        monkeypatch.setattr(poly, "_decoded", counted_decode)
        assert is_identity(compose(inverse(f), f))
        assert is_identity(compose(f, inverse(f)))
        assert sum(decoded) == 0
        # the counter sees the boundary's decoding
        first = f.coords[0]
        str(first)
        assert decoded == [len(first)]

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_inverse_third_coordinate(self, d, k):
        # the z-shift's inverse raises a = z + 2y*t - x*t^2 over t = q^k; a
        # memo-free copy of a takes successive kernel products instead
        a, _, third = inverse(sheared_nagata(d, k)).coords
        assert a._t_form is not None
        assert third == X - Polynomial(a.terms()) ** d

    def test_double_inverse(self):
        map_ = sheared_nagata(3, 1)
        assert inverse(inverse(map_)).coords == map_.coords

    def test_method_forms(self):
        map_ = nagata(1)
        assert (map_.inverse() * map_).is_identity()


def quadric_of(coords):
    u, v, w = coords
    return expanded_product(v, v) + expanded_product(u, w)


class TestCarriedQuadric:
    """The fold carries v^2 + u*w of its coordinates, checked at a point."""

    def test_the_fold_applies_each_generator_through_applied_to(
        self, monkeypatch
    ):
        calls = {}
        for kind in (Transposition, Triangular, NagataShear):
            calls[kind] = 0

            def counted(self, *args, _kind=kind, _applied=kind.applied_to):
                calls[_kind] += 1
                return _applied(self, *args)

            monkeypatch.setattr(kind, "applied_to", counted)
        map_ = sheared_nagata(6, 5)
        assert multidegree(map_) == (6, 41, 76)
        # one call per factor: (Transposition, NagataShear, Triangular)
        assert calls == {Transposition: 1, Triangular: 1, NagataShear: 1}
        assert compose(inverse(map_), map_).is_identity()
        assert calls == {Transposition: 2, Triangular: 2, NagataShear: 2}

    def test_point_check_rejects_a_wrong_quadric(self):
        with pytest.raises(ArithmeticError):
            NagataShear(1).applied_to((X, Y, Z), quadric=INVARIANT_QUADRIC + X)
        coords = (X, Y, Z + X**3)
        with pytest.raises(ArithmeticError):
            NagataShear(2).applied_to(coords, quadric=INVARIANT_QUADRIC)
        assert NagataShear(2).applied_to(
            coords, quadric=INVARIANT_QUADRIC + X**4
        ) == NagataShear(2).applied_to(coords)

    def test_denominator_divisible_by_the_modulus(self):
        # the point check cannot reduce 1/(2^61 - 1); it compares exactly
        shift = Polynomial({(0, 0, 2): Fraction(1, 2**61 - 1)})
        folded = compose(nagata(1), PolyMap(factors=(Triangular("x", shift),)))
        assert folded.coords == NagataShear(1).applied_to((X + shift, Y, Z))[0]
        with pytest.raises(ArithmeticError):
            NagataShear(1).applied_to(
                (X + shift, Y, Z), quadric=INVARIANT_QUADRIC + Z * shift * 2
            )

    def test_point_check_work_is_bounded_by_terms(self):
        # the check evaluates each exponent that occurs, not every one
        # up to the largest
        map_ = compose(nagata(1), PolyMap(factors=(Triangular("z", X**10**9),)))
        assert multidegree(map_) == (3 * 10**9 + 2, 2 * 10**9 + 1, 10**9)
        assert compose(inverse(map_), map_).is_identity()

    def test_only_carried_quadrics_are_point_checked(self, monkeypatch):
        # a shear after a triangular generator computes v^2 + u*w itself
        # and has nothing to compare; one after a transposition reads the
        # quadric carried from (x, y, z)
        residue = maps._residue
        calls = []

        def counted_residue(poly):
            calls.append(poly)
            return residue(poly)

        monkeypatch.setattr(maps, "_residue", counted_residue)
        compose(nagata(1), PolyMap(factors=(Triangular("z", X**2),)))
        assert calls == []
        compose(nagata(1), PolyMap(factors=(Transposition(),)))
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "outer, shift",
        [
            ((NagataShear(1),), Triangular("z", X**2)),
            ((NagataShear(1),), Triangular("x", Z**2)),
            ((NagataShear(1),), Triangular("y", X * Z)),
            ((NagataShear(1), Transposition()), Triangular("z", X**2)),
        ],
        ids=["z-shift", "x-shift", "y-shift", "transposition"],
    )
    def test_wrong_carry_rule_fails_the_point_check(self, outer, shift):
        # a carry rule that kept the quadric across a triangular generator
        # would hand the next shear a stale one
        inner = PolyMap(factors=(shift,))
        inner.coords
        inner._quadric = INVARIANT_QUADRIC
        with pytest.raises(ArithmeticError):
            compose(PolyMap(factors=outer), inner)

    @pytest.mark.parametrize("c", [1, -1, 2, Fraction(1, 2)], ids=str)
    def test_shear_preserves_the_quadric_by_full_expansion(self, c):
        rng = Random(SEED + 5)
        starts = [(X, Y, Z), (Z, Y, X), (2 * X, -Y, Fraction(3, 2) * Z)]
        starts += [
            tuple(
                random_nonzero_poly(rng, max_terms=3, max_exponent=2)
                for _ in range(3)
            )
            for _ in range(6)
        ]
        for coords in starts:
            for k in (1, 2):
                image, _ = NagataShear(k, c).applied_to(coords)
                assert quadric_of(image) == quadric_of(coords)

    @pytest.mark.parametrize(
        "build, carries",
        [
            (lambda: PolyMap(factors=()), True),
            (lambda: sheared_nagata(5, 2), True),
            (lambda: short_progression_map(1, 2), True),
            (lambda: inverse(short_progression_map(1, 2)), True),
            # a shear after a shift computes the quadric and carries it
            (
                lambda: compose(
                    nagata(1), PolyMap(factors=(Triangular("x", Y * Z),))
                ),
                True,
            ),
            # a triangular generator after the last shear drops it
            (lambda: inverse(sheared_nagata(5, 2)), False),
            (
                lambda: compose(
                    PolyMap(factors=(Triangular("x", Y * Z),)), nagata(1)
                ),
                False,
            ),
            (
                lambda: compose(
                    PolyMap(factors=(Triangular("y", X * Z),)), nagata(1)
                ),
                False,
            ),
            (
                lambda: compose(
                    PolyMap(factors=(Triangular("z", X**2),)),
                    PolyMap(factors=(Triangular("z", X**3),)),
                ),
                False,
            ),
            (lambda: tame_witness(2, 3, 5, 1, 1), False),
        ],
    )
    def test_maps_carry_the_quadric_of_their_coordinates(self, build, carries):
        map_ = build()
        coords = map_.coords
        assert (map_._quadric is not None) == carries
        if carries:
            assert map_._quadric == quadric_of(coords)
        inverted = inverse(map_)
        for check in (compose(inverted, map_), compose(map_, inverted)):
            assert check.is_identity()

    def test_carried_quadric_takes_no_part_in_equality(self):
        folded = sheared_nagata(3, 1)
        bare = PolyMap(coords=folded.coords)
        assert folded._quadric is not None and bare._quadric is None
        assert folded == bare
        assert compose(inverse(folded), folded) == compose(inverse(folded), bare)


class TestMultidegree:
    def test_nagata_coordinate_order(self):
        # coordinate order, not sorted
        assert multidegree(nagata(1)) == (5, 3, 1)
        assert nagata(1).multidegree() == (5, 3, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_nagata_general(self, k):
        assert multidegree(nagata(k)) == (4 * k + 1, 2 * k + 1, 1)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ValueError):
            multidegree(PolyMap(coords=(X, Y, ZERO)))


class TestNamedConstructions:
    def test_invariant_quadric(self):
        assert INVARIANT_QUADRIC == Y * Y + X * Z
        assert str(INVARIANT_QUADRIC) == "x*z + y^2"

    def test_nagata_frozen_coordinates(self):
        first, second, third = nagata(1).coords
        assert (
            str(first)
            == "-x^2*z^3 - 2*x*y^2*z^2 - y^4*z - 2*x*y*z - 2*y^3 + x"
        )
        assert str(second) == "x*z^2 + y^2*z + y"
        assert str(third) == "z"

    def test_nagata_structural_form(self):
        q = INVARIANT_QUADRIC
        for k in (1, 2, 3):
            expected = (
                X - 2 * Y * q**k - Z * q ** (2 * k),
                Y + Z * q**k,
                Z,
            )
            assert nagata(k).coords == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_nagata_preserves_quadric(self, k):
        image = INVARIANT_QUADRIC.substitute(*nagata(k).coords)
        assert image == INVARIANT_QUADRIC

    def test_nagata_validation(self):
        with pytest.raises(ValueError):
            nagata(0)
        with pytest.raises(ValueError):
            nagata(-1)

    def test_z_shift(self):
        map_ = PolyMap(factors=(Triangular("z", X**3),))
        assert map_.coords == (X, Y, Z + X**3)
        assert multidegree(map_) == (1, 1, 3)

    def test_triangular_constructor(self):
        map_ = PolyMap(factors=(Triangular("y", X * Z),))
        assert map_.coords == (X, Y + X * Z, Z)
        assert map_.factors == (Triangular("y", X * Z),)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2])
    def test_sheared_multidegree(self, d, k):
        expected = (d, d + k * (d + 1), d + 2 * k * (d + 1))
        assert multidegree(sheared_nagata(d, k)) == expected

    def test_sheared_quadric_image(self):
        # the final z-shift moves the quadric by x^(d+1)
        for d, k in ((3, 1), (4, 2), (6, 1)):
            image = INVARIANT_QUADRIC.substitute(*sheared_nagata(d, k).coords)
            assert image == INVARIANT_QUADRIC + X ** (d + 1)

    def test_sheared_factors(self):
        map_ = sheared_nagata(6, 1)
        assert [g.token() for g in map_.factors] == [
            "T",
            "nagata(1)",
            "shift(z, x^6)",
        ]

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_short_progression_multidegree(self, l, k):
        base = 4 * l + 1
        expected = (base, base + 2 * k, base + 4 * k)
        assert multidegree(short_progression_map(l, k)) == expected

    @pytest.mark.parametrize("l,k", [(1, 1), (2, 3)])
    def test_short_progression_preserves_quadric(self, l, k):
        coords = short_progression_map(l, k).coords
        assert INVARIANT_QUADRIC.substitute(*coords) == INVARIANT_QUADRIC

    def test_short_progression_validation(self):
        with pytest.raises(ValueError):
            short_progression_map(0, 1)
        with pytest.raises(ValueError):
            short_progression_map(1, 0)

    def test_long_progression_r_equals_one(self):
        # r = 1 is no special case: the long progression is the sheared map
        assert long_progression_map is sheared_nagata
        for k in (1, 2):
            map_ = sheared_nagata(1, k)
            assert multidegree(map_) == (1, 1 + 2 * k, 1 + 4 * k)
            # closed form of T o nagata(k) o (x, y, z + x), q = y^2 + x*(z + x)
            s = Z + X
            q = Y * Y + X * s
            t = q**k
            assert map_.coords == (s, Y + s * t, X - 2 * Y * t - s * t * t)

    def test_long_progression_larger_r(self):
        assert (
            long_progression_map(3, 2).coords == sheared_nagata(3, 2).coords
        )

    def test_long_progression_validation(self):
        with pytest.raises(ValueError):
            long_progression_map(0, 1)
        with pytest.raises(ValueError):
            long_progression_map(1, 0)

    @pytest.mark.parametrize(
        "build, tokens",
        [
            (lambda: nagata(2), ["nagata(2)"]),
            (lambda: sheared_nagata(6, 1), ["T", "nagata(1)", "shift(z, x^6)"]),
            (lambda: short_progression_map(1, 2),
             ["T", "nagata(2)", "T", "nagata(1)"]),
            (lambda: sheared_nagata(1, 3), ["T", "nagata(3)", "shift(z, x)"]),
            (lambda: long_progression_map(3, 1), ["T", "nagata(1)", "shift(z, x^3)"]),
        ],
    )
    def test_constructors_return_factor_only_maps(self, build, tokens):
        # no coordinate is expanded until it is read
        map_ = build()
        assert map_._coords is None
        assert [g.token() for g in map_.factors] == tokens


class TestTameWitness:
    def test_frozen_coordinates(self):
        first, second, third = tame_witness(2, 4, 8, 4, 0).coords
        assert str(first) == "z^2 + x"
        assert str(second) == "z^4 + y"
        assert (
            str(third)
            == "z^8 + 4*x*z^6 + 6*x^2*z^4 + 4*x^3*z^2 + x^4 + z"
        )

    @pytest.mark.parametrize(
        "d1,d2,a,b",
        [(2, 3, 1, 1), (3, 5, 2, 1), (1, 1, 0, 2), (4, 7, 0, 3), (5, 5, 3, 2)],
    )
    def test_multidegree_matches(self, d1, d2, a, b):
        d3 = a * d1 + b * d2
        map_ = tame_witness(d1, d2, d3, a, b)
        assert multidegree(map_) == (d1, d2, d3)

    def test_structure(self):
        map_ = tame_witness(2, 3, 5, 1, 1)
        f = X + Z**2
        g = Y + Z**3
        assert map_.coords == (f, g, Z + f * g)

    def test_inverse_round_trip(self):
        map_ = tame_witness(3, 5, 11, 2, 1)
        assert compose(inverse(map_), map_).is_identity()
        assert compose(map_, inverse(map_)).is_identity()

    def test_validation(self):
        with pytest.raises(ValueError):
            tame_witness(3, 2, 5, 1, 1)  # unsorted
        with pytest.raises(ValueError):
            tame_witness(2, 3, 6, 0, 0)  # both exponents zero
        with pytest.raises(ValueError):
            tame_witness(2, 3, 6, 1, 1)  # 1*2 + 1*3 != 6
        with pytest.raises(ValueError):
            tame_witness(0, 3, 6, 0, 2)
        with pytest.raises(ValueError):
            tame_witness(2, 3, 8, -1, 2)


class TestAutomorphismInvariants:
    @pytest.mark.parametrize(
        "map_builder",
        [
            lambda: nagata(1),
            lambda: nagata(2),
            lambda: sheared_nagata(3, 2),
            lambda: short_progression_map(1, 1),
            lambda: tame_witness(2, 3, 5, 1, 1),
        ],
    )
    def test_jacobian_determinant_is_unit(self, map_builder):
        det = jacobian_determinant(map_builder().coords)
        assert det.total_degree() == 0
        assert det.coefficient((0, 0, 0)) != 0
