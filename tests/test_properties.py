"""Property tests of the polynomial and map layers, with hypothesis.

Runs are derandomized and keep no example database, so every run tries
the same examples and writes no files.  The tests are skipped when
hypothesis is not installed.
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod
from operator import mul

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wildmdeg import (  # noqa: E402
    ONE,
    X,
    Y,
    Z,
    ZERO,
    NagataShear,
    PolyMap,
    Polynomial,
    Transposition,
    Triangular,
    compose,
    nagata,
    parse,
    sheared_nagata,
)
from wildmdeg import maps  # noqa: E402

REPRODUCIBLE = settings(derandomize=True, deadline=None, database=None)

coefficients = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
)


def polynomials(max_terms, max_exponent):
    exponent = st.integers(0, max_exponent)
    terms = st.tuples(exponent, exponent, exponent)
    return st.dictionaries(terms, coefficients, max_size=max_terms).map(Polynomial)


@REPRODUCIBLE
@given(polynomials(max_terms=6, max_exponent=3), st.integers(0, 7))
def test_power_is_repeated_product(base, n):
    expected = reduce(mul, [base] * n, ONE)
    assert base**n == expected
    assert (X**n).substitute(base, Y, Z) == expected


@REPRODUCIBLE
@given(polynomials(max_terms=10, max_exponent=12))
def test_parse_inverts_str(poly):
    assert parse(str(poly)) == poly


# -- ring laws ------------------------------------------------------------------
#
# Besides small polynomials, the operands include map coordinates, so that
# powers take all three routes: the first coordinate of nagata(1) is raised
# over its form in t, the affinely independent ones by the multinomial
# theorem, and the other two of sheared_nagata(2, 1), which carry no form, by
# chains of products.

operands = st.one_of(
    polynomials(max_terms=4, max_exponent=2),
    st.sampled_from(nagata(1).coords[:2] + sheared_nagata(2, 1).coords),
)


@REPRODUCIBLE
@given(operands, operands, operands)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO


@REPRODUCIBLE
@given(operands, st.integers(0, 3), st.integers(0, 3))
def test_power_of_a_sum_of_exponents(base, m, n):
    assert base ** (m + n) == base**m * base**n


@REPRODUCIBLE
@given(
    polynomials(max_terms=3, max_exponent=1),
    polynomials(max_terms=3, max_exponent=1),
    operands,
    operands,
    operands,
)
def test_substitute_keeps_sums_and_products(a, b, u, v, w):
    assert (a + b).substitute(u, v, w) == a.substitute(u, v, w) + b.substitute(u, v, w)
    assert (a * b).substitute(u, v, w) == a.substitute(u, v, w) * b.substitute(u, v, w)


def shifts(variable):
    """Shifts free of ``variable``: up to two terms of degree at most 2."""
    index = "xyz".index(variable)

    def term(exponents):
        exponents = list(exponents)
        exponents.insert(index, 0)
        return tuple(exponents)

    exponents = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(term)
    return st.dictionaries(exponents, st.integers(-3, 3), max_size=2).map(Polynomial)


generators = st.one_of(
    st.just(Transposition()),
    st.sampled_from("xyz").flatmap(
        lambda v: shifts(v).map(lambda shift: Triangular(v, shift))
    ),
    st.sampled_from([1, -1, 2, Fraction(1, 2)]).map(lambda c: NagataShear(1, c)),
)


@REPRODUCIBLE
@given(st.lists(generators, max_size=4), st.integers(0, 4))
def test_carried_quadric_is_the_quadric_of_the_fold(factors, split):
    # factors are listed in composition order: those before the first shear
    # act after the last one
    outer, inner = factors[:split], factors[split:]
    last_shear = next(
        (i for i, g in enumerate(factors) if isinstance(g, NagataShear)),
        len(factors),
    )
    carries = not any(isinstance(g, Triangular) for g in factors[:last_shear])
    map_ = compose(PolyMap(factors=outer), PolyMap(factors=inner))
    u, v, w = map_.coords
    assert (map_._quadric is not None) == carries
    if carries:
        assert map_._quadric == v * v + u * w


# -- the stored form against a tuple-keyed reference ---------------------------
#
# Polynomials store packed keys whose field width is a multiple of 10 bits,
# so exponents 2^10 - 1, 2^10, 2^20 - 1 and 2^20 sit at the edges of the
# widths, and 10^9 needs three fields of 30 bits.  The reference works on
# exponent triples throughout.

EDGE_EXPONENTS = (0, 1, 2, 2**10 - 1, 2**10, 2**20 - 1, 2**20, 10**9)
PROBES = list(product(EDGE_EXPONENTS, repeat=3))


def wide_polynomials(max_terms=3):
    exponent = st.sampled_from(EDGE_EXPONENTS)
    terms = st.tuples(exponent, exponent, exponent)
    return st.dictionaries(terms, coefficients, max_size=max_terms).map(Polynomial)


def ref_add(a, b, scale=1):
    """a + scale*b on term maps."""
    out = dict(a)
    for term, coeff in b.items():
        value = out.get(term, 0) + scale * coeff
        if value:
            out[term] = value
        else:
            out.pop(term, None)
    return out


def ref_mul(a, b):
    out = {}
    for (a0, a1, a2), ca in a.items():
        for (b0, b1, b2), cb in b.items():
            term = (a0 + b0, a1 + b1, a2 + b2)
            out[term] = out.get(term, 0) + ca * cb
    return {term: c for term, c in out.items() if c}


def ref_pow(a, n):
    return reduce(ref_mul, [a] * n, {(0, 0, 0): 1})


def ref_substitute(p, images):
    out = {}
    for exponents, coeff in p.items():
        factors = [ref_pow(image, e) for image, e in zip(images, exponents)]
        out = ref_add(out, reduce(ref_mul, factors, {(0, 0, 0): coeff}))
    return out


def ref_partial(a, index):
    out = {}
    for term, coeff in a.items():
        if term[index]:
            lowered = list(term)
            lowered[index] -= 1
            out[tuple(lowered)] = coeff * term[index]
    return out


def ref_str(a):
    """The module docstring's normal form, written out from exponent triples."""
    if not a:
        return "0"
    chunks = []
    for term in sorted(a, key=lambda t: (sum(t), t), reverse=True):
        coeff = a[term]
        sign = "-" if coeff < 0 else "+"
        coeff = abs(coeff)
        powers = [
            name if e == 1 else f"{name}^{e}" for name, e in zip("xyz", term) if e
        ]
        if not powers:
            body = str(coeff)
        elif coeff == 1:
            body = "*".join(powers)
        else:
            body = f"{coeff}*" + "*".join(powers)
        if not chunks:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f"{sign} {body}")
    return " ".join(chunks)


def agrees(poly, reference):
    """``poly`` holds exactly the reference's terms, and says so through
    every reader of its stored form."""
    assert poly.terms() == reference
    assert str(poly) == ref_str(reference)
    assert len(poly) == len(reference)
    for term, coeff in reference.items():
        assert poly.coefficient(term) == coeff
    # every probe, present or absent, some beyond the stored field width
    for term in PROBES:
        assert poly.coefficient(term) == reference.get(term, 0)
    if reference:
        assert poly.total_degree() == max(map(sum, reference))
    else:
        with pytest.raises(ValueError):
            poly.total_degree()
    for index, name in enumerate("xyz"):
        assert poly.partial(name).terms() == ref_partial(reference, index)
    return True


@REPRODUCIBLE
@given(wide_polynomials(), wide_polynomials(), polynomials(max_terms=3, max_exponent=3))
def test_stored_form_matches_the_tuple_reference(a, b, small):
    # operands of different widths meet in every operation
    ra, rb, rs = a.terms(), b.terms(), small.terms()
    assert agrees(a + b, ref_add(ra, rb))
    assert agrees(a - b, ref_add(ra, rb, -1))
    assert agrees(small - a, ref_add(rs, ra, -1))
    assert agrees(-a, {t: -c for t, c in ra.items()})
    assert agrees(a * b, ref_mul(ra, rb))
    assert agrees(a * small, ref_mul(ra, rs))
    assert agrees(a * a, ref_mul(ra, ra))
    assert agrees(a * Fraction(3, 2), {t: c * Fraction(3, 2) for t, c in ra.items()})


@REPRODUCIBLE
@given(
    wide_polynomials(),
    wide_polynomials(max_terms=2),
    polynomials(max_terms=3, max_exponent=2),
    st.integers(0, 3),
)
def test_powers_and_substitution_match_the_tuple_reference(a, b, outer, n):
    ra, rb, ro = a.terms(), b.terms(), outer.terms()
    assert agrees(a**n, ref_pow(ra, n))
    assert agrees(outer.substitute(a, b, a), ref_substitute(ro, (ra, rb, ra)))
    assert agrees(
        outer.substitute(b, Y, a * b),
        ref_substitute(ro, (rb, Y.terms(), ref_mul(ra, rb))),
    )


@REPRODUCIBLE
@given(wide_polynomials(max_terms=4))
def test_one_polynomial_built_three_ways(poly):
    # from its term map, by parsing its text, and as a sum of products of
    # one-variable powers, whose exponent bounds add up to a wider field
    by_product = sum(
        (c * X**e0 * (Y**e1 * Z**e2) for (e0, e1, e2), c in poly.terms().items()),
        Polynomial(),
    )
    built = [Polynomial(poly.terms()), parse(str(poly)), by_product]
    for one in built:
        for other in built:
            assert one == other
        assert hash(one) == hash(poly)
        assert str(one) == str(poly)
    assert len(set(built)) == 1


def test_equal_values_of_different_widths():
    # exponents up to 2^10 - 1 fit fields of 10 bits; the product's bound
    # 2^10 - 1 + 1 does not
    stored = Polynomial({(2**10 - 1, 1, 0): 1})
    product = X ** (2**10 - 1) * Y
    assert stored._width != product._width
    assert stored == product and product == stored
    assert hash(stored) == hash(product)
    assert stored + product == 2 * product
    assert stored - product == Polynomial()


# -- the point check against exact evaluation ----------------------------------

MODULUS = maps._MODULUS


def exact_residue(poly):
    """``poly`` at ``maps._POINT``, summed exactly in Fractions and then
    reduced modulo 2^61 - 1.

    A power x^e with e > 64 enters as pow(x, e, M), which leaves the sum's
    value modulo M unchanged and keeps exponents of 10^9 affordable.
    """
    total = Fraction(0)
    for exponents, coeff in poly.terms().items():
        total += coeff * prod(
            value**e if e <= 64 else pow(value, e, MODULUS)
            for value, e in zip(maps._POINT, exponents)
        )
    return total.numerator * pow(total.denominator, -1, MODULUS) % MODULUS


point_coefficients = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(
        Fraction,
        st.integers(-9, 9).filter(bool),
        st.sampled_from([1, 2, 3, 7, MODULUS, 2 * MODULUS]),
    ),
)


@REPRODUCIBLE
@given(
    st.dictionaries(
        st.tuples(*[st.one_of(st.integers(0, 12), st.integers(10**9 - 3, 10**9))] * 3),
        point_coefficients,
        max_size=8,
    ).map(Polynomial)
)
def test_point_check_residue_is_exact_evaluation(poly):
    divisible = any(
        isinstance(c, Fraction) and c.denominator % MODULUS == 0
        for c in poly.terms().values()
    )
    if divisible:
        with pytest.raises(ValueError):
            maps._residue(poly)
    else:
        expected = exact_residue(poly)
        assert maps._residue(poly) == expected
        # the second call reads the value kept on the polynomial
        assert maps._residue(poly) == expected


# -- the Nagata shear against the tuple-keyed reference -------------------------

short_coordinates = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3),
    coefficients.filter(bool),
    min_size=1,
    max_size=3,
).map(Polynomial)


def ref_sheared(coords, k, c):
    """(u - 2c*v*q^k - c^2*w*q^2k, v + c*w*q^k, w) with q = v^2 + u*w, on
    term maps."""
    u, v, w = (coord.terms() for coord in coords)
    q = ref_add(ref_mul(v, v), ref_mul(u, w))
    q_k, q_2k = ref_pow(q, k), ref_pow(q, 2 * k)
    first = ref_add(u, ref_mul(v, q_k), -2 * c)
    first = ref_add(first, ref_mul(w, q_2k), -c * c)
    second = ref_add(v, ref_mul(w, q_k), c)
    return first, second, w


@REPRODUCIBLE
@given(
    st.tuples(short_coordinates, short_coordinates, short_coordinates),
    st.sampled_from([1, -1, 2, Fraction(1, 2)]),
    st.sampled_from([1, 2]),
)
def test_shear_matches_the_tuple_reference(coords, c, k):
    shear = NagataShear(k, c)
    sheared, _ = shear.applied_to(coords)
    for output, reference in zip(sheared, ref_sheared(coords, k, c)):
        assert output.terms() == reference
    # after its inverse, the shear's second output is the original v, most
    # often shorter than the v it was given: the first output is then
    # formed from it, the shorter factor of q^k
    undone, _ = NagataShear(k, -c).applied_to(coords)
    (first, second, w), _ = shear.applied_to(undone)
    assert (first, second, w) == coords
    for output, reference in zip((first, second, w), ref_sheared(undone, k, c)):
        assert output.terms() == reference
