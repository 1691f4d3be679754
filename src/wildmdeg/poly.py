"""Exact sparse polynomials in the variables x, y, z over the rationals.

Polynomials are immutable value objects: every operation returns a new
instance and no floating point is involved anywhere.  Coefficients are
Python ints or :class:`fractions.Fraction` values, so arithmetic is exact
at arbitrary size.  An integral coefficient is always stored as an int.

A polynomial is a mapping from exponent triples ``(ex, ey, ez)`` to
nonzero coefficients, stored under packed keys (see "Arithmetic kernel"
below).  The zero polynomial is the empty mapping; it has no total
degree, and ``total_degree()`` raises ``ValueError`` on it.

Text format, shared by :func:`parse` and ``str()``::

    polynomial = terms joined by '+' / '-'
    term       = optional rational coefficient ('7' or '7/2', digits 0-9) and
                 '*'-separated variable powers 'x^e', 'y^e', 'z^e'

Input may also use parentheses, nested up to 100 deep, and '^' on groups,
e.g. ``x - 2*y*(y^2+z*x) - z*(y^2+z*x)^2``.  Whitespace between tokens is
ASCII only: space, tab, newline, carriage return, form feed and vertical
tab.  Output is always the expanded normal form with terms in descending
graded lexicographic order (total degree first, then x > y > z), so
rendered strings are stable across runs.

Arithmetic kernel.  Every polynomial stores its terms under *packed
keys*: the exponent triple (e0, e1, e2) is the single int
``e0 << 2w | e1 << w | e2``, so multiplying two monomials is one integer
addition.  Each polynomial keeps its field width ``w`` and a bound on its
exponents; ``w`` is the least multiple of 10 bits that holds that bound.
An operation works at the widest width of its operands, widened when the
bound of its result (the sum of the operands' bounds for a product) does
not fit, so no field ever carries into the next at any size; only the
keys of an operand narrower than that are repacked.  ``+``, ``*``,
``**``, ``substitute`` and the shear's fold hand the stored maps straight
to the kernel, and exponent triples appear only at the API boundary:
``Polynomial(mapping)``, ``terms()``, ``coefficient()``, ``str()``,
``hash()`` and :func:`parse`.  Equality and hashing compare values,
whatever the widths.  Terms that cancel are pruned once, when a product
is finished.  A product with a one-term factor, or a power of one, only
shifts or scales exponents and skips the kernel; every other product of
two term lists, a square included, is the one pairwise kernel.

Powers take one of three exact methods.  When the exponent vectors of the
base are affinely independent (every monomial and binomial, and
trinomials such as y^2 + x*z + x^4), each term of the multinomial
expansion is a distinct monomial, so the expansion is written out
directly and the work equals the output size; each row of binomial
coefficients is built incrementally, C(r, j+1) = C(r, j)*(r - j)/(j + 1).
A Nagata shear builds each output from a form over t = q^k, with
q = y^2 + x*z, such as a = z + 2y*t - x*t^2.  An output whose form has
one-term pieces, as on monomial inputs, is dependent over (x, y, z) but
keeps that form; a power of it is expanded over (x, y, z, t) by the
multinomial theorem, terms that meet added up, and t is substituted once
at the end, each t-degree m multiplied by q^(k*m).  The output's
exponent bound is its form's reach, so the power's width holds them all.
Every other base A is raised by successive kernel products: each power
is the one before times A.

:meth:`Polynomial.substitute` builds only the powers of each image that
occur in the polynomial.  For images off the multinomial path it keeps
those powers in a private memo on the image itself, so a later
substitution into the same (immutable) image reuses them instead of
recomputing them.  The memo, like a shear output's form over t, lives
and dies with its polynomial and takes no part in equality or hashing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Mapping, Optional, Tuple, Union

Term = Tuple[int, int, int]
Coeff = Union[int, Fraction]

_VAR_INDEX = {"x": 0, "y": 1, "z": 2}

#: Largest exponent accepted by the parser and by ``Polynomial(mapping)``.
MAX_EXPONENT = 10**9


def _check_coeff(value: object) -> Coeff:
    if isinstance(value, bool):
        raise TypeError("coefficients must be int or Fraction, not bool")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        # keep integral values as plain ints; cheaper and renders identically
        return int(value) if value.denominator == 1 else value
    raise TypeError(
        f"coefficients must be int or Fraction, got {type(value).__name__}"
    )


def _check_term(term: object) -> Term:
    if (
        not isinstance(term, tuple)
        or len(term) != 3
        or not all(isinstance(e, int) and not isinstance(e, bool) for e in term)
    ):
        raise TypeError(f"a monomial is a triple of ints, got {term!r}")
    if any(e < 0 for e in term):
        raise ValueError(f"monomial exponents must be non-negative, got {term!r}")
    return term


def _check_int(value: object, name: str, minimum: int) -> None:
    """Check an integer parameter: TypeError unless ``value`` is an int
    (bools excluded), ValueError when it is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields`` and sets each one in its
    own ``__init__`` with ``object.__setattr__``, then checks them.
    Equality and hashing compare those fields, for instances of the same
    class only; the repr is ``Name(field=value, ...)``; assigning or
    deleting an attribute raises ``AttributeError``.  Instances keep a
    ``__dict__``, where a ``cached_property`` stores its value.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _validate_sorted_triple(triple) -> Tuple[int, int, int]:
    """The triple as a tuple of three sorted positive ints: TypeError for a
    non-int entry, ValueError for a wrong length or an unsorted triple."""
    values = tuple(triple)
    if len(values) != 3:
        raise ValueError(f"a degree triple is three ints, got {triple!r}")
    for name, value in zip(("d1", "d2", "d3"), values):
        _check_int(value, name, 1)
    if not values[0] <= values[1] <= values[2]:
        raise ValueError(f"degree triple must be sorted, got {values}")
    return values


def _grlex(item: Tuple[Term, Coeff]) -> Tuple[int, Term]:
    """Sort key of a (term, coefficient) pair for graded lexicographic
    order with x > y > z."""
    term = item[0]
    return (term[0] + term[1] + term[2], term)


class Polynomial:
    """Immutable sparse polynomial in x, y, z with exact coefficients."""

    # _keys: {packed key: nonzero coefficient}; x^e0*y^e1*z^e2 has the key
    # e0 << 2w | e1 << w | e2 for the field width w = _width
    # _top: an upper bound on every exponent, below 2^_width
    # _powers: memo {exponent: Polynomial} kept by `substitute` on images
    # off the multinomial path (None until first used)
    # _fractions: True exactly when some coefficient is a Fraction; integral
    # coefficients are always stored as ints
    # _t_form: None, or the form (terms, quadric, k) that `_over_t` built
    # this polynomial from, for `_packed_powers`
    # _affine: None until `_independent` caches whether the exponent
    # vectors are affinely independent
    # _point: None until `maps._residue` caches the value at its point
    __slots__ = (
        "_keys", "_width", "_top", "_powers", "_fractions", "_t_form", "_affine",
        "_point",
    )

    def __init__(self, terms: Optional[Mapping[Term, Coeff]] = None):
        clean: dict = {}
        fractions = False
        top = 0
        if terms:
            for term, coeff in terms.items():
                term = _check_term(term)
                if max(term) > MAX_EXPONENT:
                    raise OverflowError(f"monomial exponent exceeds {MAX_EXPONENT}")
                coeff = _check_coeff(coeff)
                if coeff:
                    clean[term] = coeff
                    fractions = fractions or isinstance(coeff, Fraction)
                    top = max(top, *term)
        width = _width(top)
        keys = {
            (e0 << 2 * width) | (e1 << width) | e2: c
            for (e0, e1, e2), c in clean.items()
        }
        self._set(keys, width, top, fractions)

    def _set(self, keys: dict, width: int, top: int, fractions: bool) -> None:
        self._keys = keys
        self._width = width
        self._top = top
        self._fractions = fractions
        self._powers = self._t_form = self._affine = self._point = None

    @classmethod
    def _raw(cls, keys: dict, width: int, top: int, fractions: bool) -> "Polynomial":
        """Internal fast path: ``keys`` is already packed and zero-pruned.

        ``fractions`` says whether an operand that produced ``keys`` held a
        Fraction.  Only then can a coefficient be one, so only then are the
        terms scanned and integral Fractions turned into ints: int-only
        arithmetic pays nothing per term for the normal form.
        """
        if fractions:
            fractions = False
            for key, coeff in keys.items():
                if isinstance(coeff, Fraction):
                    if coeff.denominator == 1:
                        keys[key] = coeff.numerator
                    else:
                        fractions = True
        poly = object.__new__(cls)
        poly._set(keys, width, top, fractions)
        return poly

    @classmethod
    def constant(cls, value: Coeff) -> "Polynomial":
        value = _check_coeff(value)
        return cls._raw(
            {0: value} if value else {}, _FIELD, 0, isinstance(value, Fraction)
        )

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}; expected one of x, y, z")
        return cls._raw({1 << (2 - _VAR_INDEX[name]) * _FIELD: 1}, _FIELD, 1, False)

    # -- structure -----------------------------------------------------

    def terms(self) -> dict:
        """Copy of the term map (exponent triple -> coefficient)."""
        return _decoded(self)

    def coefficient(self, term: Term) -> Coeff:
        """Coefficient of the given exponent triple (0 when absent)."""
        e0, e1, e2 = _check_term(term)
        if max(term) > self._top:
            return 0
        width = self._width
        return self._keys.get((e0 << 2 * width) | (e1 << width) | e2, 0)

    def is_zero(self) -> bool:
        return not self._keys

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def total_degree(self) -> int:
        """Maximal term degree.  Raises ValueError on zero."""
        if not self._keys:
            raise ValueError("the zero polynomial has no total degree")
        return max(map(sum, zip(*_columns(self))))

    def has_integer_coefficients(self) -> bool:
        return not self._fractions

    def partial(self, variable: str) -> "Polynomial":
        """Formal partial derivative with respect to ``variable``."""
        if variable not in _VAR_INDEX:
            raise ValueError(f"unknown variable {variable!r}; expected one of x, y, z")
        width = self._width
        shift = (2 - _VAR_INDEX[variable]) * width
        mask = (1 << width) - 1
        one = 1 << shift
        out = {}
        for key, coeff in self._keys.items():
            e = (key >> shift) & mask
            if e:
                out[key - one] = coeff * e
        return Polynomial._raw(out, width, self._top, self._fractions)

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(
            {k: -c for k, c in self._keys.items()},
            self._width,
            self._top,
            self._fractions,
        )

    def __add__(self, other: object) -> "Polynomial":
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        return _combined(self, rhs, 1)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Polynomial":
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        return _combined(self, rhs, -1)

    def __rsub__(self, other: object) -> "Polynomial":
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        return _combined(rhs, self, -1)

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self._keys or not other._keys:
                return ZERO
            # a monomial factor only shifts exponents: skip the kernel's set-up
            if len(other._keys) == 1:
                return _shifted(self, other)
            if len(self._keys) == 1:
                return _shifted(other, self)
            top = self._top + other._top
            width = max(self._width, other._width, _width(top))
            out: dict = {}
            _accumulate(
                out, _repacked(self, width).items(), _repacked(other, width).items()
            )
            return Polynomial._raw(
                _pruned(out), width, top, self._fractions or other._fractions
            )
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            scalar = _check_coeff(other)
            if not scalar:
                return ZERO
            return Polynomial._raw(
                {k: c * scalar for k, c in self._keys.items()},
                self._width,
                self._top,
                self._fractions or isinstance(scalar, Fraction),
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: object) -> "Polynomial":
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("polynomial exponent must be non-negative")
        if exponent == 0:
            return ONE
        if not self._keys or exponent == 1:
            return self
        top = exponent * self._top
        width = max(self._width, _width(top))
        table = _packed_powers(self, [exponent], width, remember=False)
        return Polynomial._raw(dict(table[exponent]), width, top, self._fractions)

    def substitute(
        self,
        x_image: "Polynomial",
        y_image: "Polynomial",
        z_image: "Polynomial",
    ) -> "Polynomial":
        """Evaluate at three polynomial arguments (map-composition workhorse)."""
        if not self._keys:
            return ZERO
        images = (x_image, y_image, z_image)
        columns = _columns(self)
        used = [sorted(set(column) - {0}) for column in columns]
        top = sum(e[-1] * img._top for e, img in zip(used, images) if e)
        width = max(
            [_width(top)] + [img._width for e, img in zip(used, images) if e]
        )
        tables = [
            _packed_powers(img, e, width, remember=True) if e else None
            for e, img in zip(used, images)
        ]
        out: dict = {}
        for *exponents, coeff in zip(*columns, self._keys.values()):
            # coeff * x_image^ex * y_image^ey * z_image^ez; a constant term
            # multiplies the packed 1, [(0, 1)]
            factors = [
                table[e] for table, e in zip(tables, exponents) if e
            ] or [[(0, 1)]]
            head = [(0, coeff)]
            for factor in factors[:-1]:
                partial: dict = {}
                _accumulate(partial, head, factor)
                head = _pruned(partial).items()
            _accumulate(out, head, factors[-1])
        fractions = self._fractions or any(img._fractions for img in images)
        return Polynomial._raw(_pruned(out), width, top, fractions)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        width = max(self._width, other._width)
        return _repacked(self, width) == _repacked(other, width)

    def __hash__(self) -> int:
        return hash(tuple(sorted(_decoded(self).items())))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._keys:
            return "0"
        chunks = []
        for (e0, e1, e2), coeff in sorted(
            _decoded(self).items(), key=_grlex, reverse=True
        ):
            sign = "+ "
            if coeff < 0:
                sign, coeff = "- ", -coeff
            powers = []
            if e0:
                powers.append("x" if e0 == 1 else f"x^{e0}")
            if e1:
                powers.append("y" if e1 == 1 else f"y^{e1}")
            if e2:
                powers.append("z" if e2 == 1 else f"z^{e2}")
            if not powers:
                body = str(coeff)
            elif coeff == 1:
                body = "*".join(powers)
            else:
                body = f"{coeff}*" + "*".join(powers)
            chunks.append(sign + body)
        # the leading term has no space after its sign, and no '+'
        lead = chunks[0]
        chunks[0] = lead[2:] if lead[0] == "+" else "-" + lead[2:]
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _coerce(value: object) -> Optional[Polynomial]:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return None


# -- the packed-key kernel ---------------------------------------------------
#
# Every polynomial stores its terms under packed keys of its own field
# width (see the module docstring).  A packed term list is a sized
# iterable of (packed key, coefficient) pairs: a list, or the items of a
# stored map.  All keys that one computation adds share one width, wide
# enough for the largest exponent the computation can produce, so adding
# two keys never carries from one exponent field into the next.

PackedTerms = Iterable[Tuple[int, Coeff]]

#: Field widths are multiples of this many bits: three fields then fill
#: whole 30-bit digits of a CPython int, and most polynomials of one
#: computation share a width, so few keys are ever repacked.
_FIELD = 10


def _width(top: int) -> int:
    """The field width for exponents up to ``top``: the least positive
    multiple of ``_FIELD`` bits that holds it."""
    return _FIELD * max(1, -(-top.bit_length() // _FIELD))


def _columns(poly: Polynomial) -> Tuple[List[int], List[int], List[int]]:
    """The x, y and z exponents of ``poly``'s terms, in stored order: the
    one reader of the stored keys' fields."""
    width = poly._width
    mask = (1 << width) - 1
    keys = poly._keys
    return (
        [k >> 2 * width for k in keys],
        [(k >> width) & mask for k in keys],
        [k & mask for k in keys],
    )


def _decoded(poly: Polynomial) -> dict:
    """The term map of ``poly`` under exponent-triple keys.

    The one place stored keys become tuples: only the API boundary
    (``terms``, ``__str__``, ``__hash__``) and the affine-independence
    test of a base of three or four terms call it.
    """
    return dict(zip(zip(*_columns(poly)), poly._keys.values()))


def _repacked(poly: Polynomial, width: int) -> dict:
    """``poly``'s stored map under keys of field width ``width``, which
    must hold ``poly._top``; the stored map itself when that is its width."""
    old = poly._width
    if old == width:
        return poly._keys
    shift = 2 * old
    mask = (1 << old) - 1
    wide = 2 * width
    return {
        ((k >> shift) << wide) | (((k >> old) & mask) << width) | (k & mask): c
        for k, c in poly._keys.items()
    }


def _combined(a: Polynomial, b: Polynomial, sign: int) -> Polynomial:
    """``a + sign*b`` for a sign of 1 or -1: a copy of the map with more
    terms takes in the other's terms."""
    width = max(a._width, b._width)
    large, small = _repacked(a, width), _repacked(b, width)
    if sign < 0:
        small = {k: -c for k, c in small.items()}
    if len(large) < len(small):
        large, small = small, large
    out = dict(large)
    get = out.get
    for key, coeff in small.items():
        value = get(key, 0) + coeff
        if value:
            out[key] = value
        else:
            del out[key]
    return Polynomial._raw(
        out, width, max(a._top, b._top), a._fractions or b._fractions
    )


def _shifted(poly: Polynomial, monomial: Polynomial) -> Polynomial:
    """``poly`` times a one-term polynomial; no two terms merge or cancel."""
    top = poly._top + monomial._top
    width = max(poly._width, monomial._width, _width(top))
    ((m, c),) = _repacked(monomial, width).items()
    return Polynomial._raw(
        {k + m: v * c for k, v in _repacked(poly, width).items()},
        width,
        top,
        poly._fractions or monomial._fractions,
    )


def _pruned(out: dict) -> dict:
    """``out`` without the terms that cancelled."""
    if 0 in out.values():
        return {k: c for k, c in out.items() if c}
    return out


def _accumulate(out: dict, a: PackedTerms, b: PackedTerms) -> None:
    """Add the product of ``a`` and ``b`` into ``out`` (packed key -> coeff).

    Cancelled terms stay in ``out`` as zeros; callers prune once at the end.
    """
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ka, ca in a:
        for kb, cb in b:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb


def _affinely_independent(points) -> bool:
    """True when the exponent vectors ``points`` (a nonempty collection of
    equal-length tuples) are affinely independent.

    Then distinct multinomial exponent tuples (k_i) with sum k_i = n give
    distinct monomials sum k_i * v_i, so no two terms of a power merge.
    """
    if len(points) > len(next(iter(points))) + 1:
        return False
    origin, *others = points
    rows = [[p - o for p, o in zip(point, origin)] for point in others]
    # fraction-free elimination: each row's first nonzero entry is its pivot
    # and is cleared from the rows below; a row that vanishes is dependent
    for i, pivot in enumerate(rows):
        column = next((j for j, e in enumerate(pivot) if e), None)
        if column is None:
            return False
        p = pivot[column]
        for r in range(i + 1, len(rows)):
            f = rows[r][column]
            if f:
                rows[r] = [p * a - f * b for a, b in zip(rows[r], pivot)]
    return True


def _independent(poly: Polynomial) -> bool:
    """Whether the exponent vectors of ``poly``'s terms are affinely
    independent, computed once per polynomial: one or two distinct points
    always are, and five or more points of 3-space never are."""
    flag = poly._affine
    if flag is None:
        n = len(poly._keys)
        flag = n <= 2 or (n <= 4 and _affinely_independent(_decoded(poly)))
        poly._affine = flag
    return flag


def _multinomial(base: PackedTerms, n: int) -> list:
    """``base**n`` by the multinomial theorem, as a packed term list.

    For an affinely independent base every generated term is a distinct
    monomial with a nonzero coefficient; otherwise terms may repeat, and
    the caller adds them up.  Each row of binomial coefficients is built
    incrementally, C(r, j+1) = C(r, j) * (r - j) // (j + 1).
    """
    if len(base) == 1:
        ((key, coeff),) = base
        return [(key * n, coeff**n)]
    keys = [k for k, _ in base]
    powers = []
    for _, c in base:
        row = [1, c]
        for _ in range(n - 1):
            row.append(row[-1] * c)
        powers.append(row)
    out: list = []
    _expand(out, keys, powers, 0, n, 0, 1)
    return out


def _expand(
    out: list, keys: list, powers: list, i: int, remaining: int, key: int, coeff: Coeff
) -> None:
    """Append to ``out`` the multinomial terms that share the exponents of
    the base's terms before ``i``: ``key`` and ``coeff`` are their product
    so far, and ``remaining`` is what is left of the exponent.

    A module-level function, not a closure: a recursive closure is a
    reference cycle, which would keep ``out`` alive until the cyclic
    garbage collector next runs.
    """
    binomial = 1
    last = len(keys) - 1
    if i == last - 1:
        ki, kl = keys[i], keys[last]
        pi, pl = powers[i], powers[last]
        for j in range(remaining + 1):
            out.append(
                (
                    key + j * ki + (remaining - j) * kl,
                    coeff * binomial * pi[j] * pl[remaining - j],
                )
            )
            binomial = binomial * (remaining - j) // (j + 1)
        return
    for j in range(remaining + 1):
        _expand(
            out,
            keys,
            powers,
            i + 1,
            remaining - j,
            key + j * keys[i],
            coeff * binomial * powers[i][j],
        )
        binomial = binomial * (remaining - j) // (j + 1)


def _over_t(quadric: Polynomial, power: int, t_powers: dict, form: tuple) -> Polynomial:
    """The sum of piece * t^m over the pairs (piece, m) of ``form``, with
    t = quadric^power: the first pair's m is 0, and a second pair follows,
    so the sum is a new polynomial; ``t_powers`` keeps each t^m built,
    {m: t^m}, for the caller's next form.  Each t^m is expanded directly as
    quadric^(power*m): the library's quadrics are affinely independent.

    The result keeps its form over t, from which ``_packed_powers`` raises
    it (see ``_t_power``), when every piece is one term, and then only when
    the result holds a Fraction or neither the form nor ``quadric`` does,
    so that the callers' normal form of the powers' coefficients covers
    the t-route's too.  Built from its form, the result's ``_top`` is the
    form's reach, max(piece._top + power*m*quadric._top), for a nonzero
    ``quadric``; with a zero one the result is the one-term piece of m = 0,
    which no power raises over t.
    """
    (result, _), *rest = form
    for piece, m in rest:
        if m not in t_powers:
            t_powers[m] = quadric ** (power * m)
        result = result + piece * t_powers[m]
    one_term = all(len(piece) == 1 for piece, _ in form)
    fractions = quadric._fractions or any(piece._fractions for piece, _ in form)
    if one_term and (result._fractions or not fractions):
        result._t_form = (form, quadric, power)
    return result


def _t_power(form: tuple, n: int, width: int) -> dict:
    """Packed A^n for a polynomial A with the form (terms, q, k) over
    t = q^k; ``width`` holds n * A._top, which is n times the form's reach.

    The form's terms get a fourth packed field for t, above the three of
    x, y, z, and A^n over t is their multinomial expansion, terms that
    meet added up.  Then t is substituted once: the terms of each t-degree
    m are multiplied by the packed q^(k*m).
    """
    terms, quadric, power = form
    shift = 3 * width
    low = (1 << shift) - 1
    packed = []
    for monomial, m in terms:
        ((key, c),) = _repacked(monomial, width).items()
        packed.append(((m << shift) | key, c))
    groups: dict = {}
    for key, c in _multinomial(packed, n):
        groups.setdefault(key >> shift, []).append((key & low, c))
    exponents = [power * m for m in sorted(groups) if m]
    q_powers = _packed_powers(quadric, exponents, width, remember=False)
    out: dict = {}
    get = out.get
    for m, group in groups.items():
        if m:
            _accumulate(out, group, q_powers[power * m])
        else:
            for key, c in group:
                out[key] = get(key, 0) + c
    return _pruned(out)


def _packed_powers(
    base: Polynomial, exponents: List[int], width: int, remember: bool
) -> dict:
    """Packed ``base**e`` for each ``e`` of the ascending positive ``exponents``.

    Affinely independent bases expand by the multinomial theorem.  Every
    other base takes its form over t = q^k when a shear left one
    (``_t_power``; the base's ``_top`` is its form's reach, so ``width``
    holds that route's exponents), and otherwise successive kernel
    products: each power is the one before times A, starting from the
    highest power already found.
    With ``remember`` the requested powers are also kept in the memo
    ``base._powers`` and read back from it on later calls.  ``width`` must
    hold every exponent up to ``max(exponents) * base._top``.
    """
    if not base._keys:
        return {e: () for e in exponents}
    step = _repacked(base, width).items()
    if _independent(base):
        return {e: _multinomial(step, e) for e in exponents}
    memo = base._powers if remember else None
    found = {}
    # the highest power found so far, A^n
    n, last = 1, step
    for e in exponents:
        cached = memo.get(e) if memo else None
        if cached is not None:
            found[e] = _repacked(cached, width).items()
        elif e == 1:
            found[e] = step
        else:
            if base._t_form:
                power = _t_power(base._t_form, e, width)
            else:
                for _ in range(e - n):
                    out: dict = {}
                    _accumulate(out, last, step)
                    power = _pruned(out)
                    last = power.items()
            found[e] = power.items()
            if remember:
                if memo is None:
                    memo = base._powers = {}
                memo[e] = Polynomial._raw(power, width, e * base._top, base._fractions)
        n, last = e, found[e]
    return found


ZERO = Polynomial()
ONE = Polynomial.constant(1)
X = Polynomial.variable("x")
Y = Polynomial.variable("y")
Z = Polynomial.variable("z")


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse(text: str) -> Polynomial:
    """Parse the polynomial grammar described in the module docstring."""
    return _Parser(text).run()


class _Parser:
    """Recursive-descent parser over the +, -, *, ^, () grammar."""

    max_nesting = 100  # levels of '(' it reads; a level is four frames

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def run(self) -> Polynomial:
        value = self._expression()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return value

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n\r\f\v":
            self.pos += 1

    def _peek(self) -> Optional[str]:
        self._skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def _expression(self) -> Polynomial:
        sign = 1
        while self._peek() in ("+", "-"):
            if self.text[self.pos] == "-":
                sign = -sign
            self.pos += 1
        value = self._term()
        if sign < 0:
            value = -value
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                value = value + self._term()
            elif ch == "-":
                self.pos += 1
                value = value - self._term()
            else:
                return value

    def _term(self) -> Polynomial:
        value = self._factor()
        while self._peek() == "*":
            self.pos += 1
            value = value * self._factor()
        return value

    def _factor(self) -> Polynomial:
        atom = self._atom()
        if self._peek() == "^":
            self.pos += 1
            exponent = self._integer("exponent")
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", self.pos)
            atom = atom**exponent
        return atom

    def _atom(self) -> Polynomial:
        ch = self._peek()
        if ch is None:
            raise ParseError("unexpected end of input", self.pos)
        if ch == "(":
            if self.depth == self.max_nesting:
                raise ParseError("parentheses nested too deep", self.pos)
            self.pos += 1
            self.depth += 1
            value = self._expression()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return value
        if "0" <= ch <= "9":
            numerator = self._integer("integer")
            if self._peek() == "/":
                self.pos += 1
                at = self.pos
                denominator = self._integer("denominator")
                if denominator == 0:
                    raise ParseError("zero denominator", at)
                return Polynomial.constant(Fraction(numerator, denominator))
            return Polynomial.constant(numerator)
        if ch in _VAR_INDEX:
            self.pos += 1
            return Polynomial.variable(ch)
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def _integer(self, what: str) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"{what} has too many digits", start) from None

