"""Property tests of the polynomial layer, with hypothesis.

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

from wildmdeg import ONE, X, Y, Z, Polynomial, parse  # noqa: E402

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
