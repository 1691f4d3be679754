"""Property tests of the polynomial and map layers, with hypothesis.

Runs are derandomized and keep no example database, so every run tries
the same examples and writes no files.  The tests are skipped when
hypothesis is not installed.
"""

from fractions import Fraction
from functools import reduce
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
    NagataShear,
    PolyMap,
    Polynomial,
    Transposition,
    Triangular,
    compose,
    parse,
)

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
