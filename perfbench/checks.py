"""Output checks that share no code with wildmdeg.

Every check returns a list of ``(tag, message)`` problems; an empty list
means the output is right.  The tags name the property that failed, so the
self-test can see that each property catches its own corruption.

The checks recompute what they need from the paper's formulas with plain
integer and rational arithmetic: numerical evaluation of polynomials and
of the generator formulas, degree reachability in the semigroup
<d1, d2>, and a reader for the documented term grammar of the printed
coordinates.
"""

import json
import operator
import re
from fractions import Fraction
from math import gcd

from inputs import family_triple

_VAR = {"x": 0, "y": 1, "z": 2}


# -- integers ---------------------------------------------------------------


def reachable(d1, d2, limit):
    """Table t with t[n] true exactly when n = a*d1 + b*d2 for some a, b >= 0."""
    table = [False] * (limit + 1)
    table[0] = True
    for n in range(1, limit + 1):
        table[n] = (n >= d1 and table[n - d1]) or (n >= d2 and table[n - d2])
    return table


def in_semigroup(d1, d2, n):
    """n in <d1, d2>, by the modular formula for the least b (no scan)."""
    g = gcd(d1, d2)
    if n % g:
        return False
    # b must satisfy b*(d2/g) = n/g (mod d1/g); the least such b decides
    b = (n // g) * pow(d2 // g, -1, d1 // g) % (d1 // g)
    return b * d2 <= n


# -- polynomials as {(ex, ey, ez): coefficient} -------------------------------


def degree(terms):
    return max((sum(e) for e in terms), default=None)


def evaluate(terms, point):
    """Value of a term map at a point with rational coordinates."""
    x, y, z = point
    total = 0
    powers = ({}, {}, {})
    for (ex, ey, ez), coeff in terms.items():
        value = coeff
        for base, e, cache in ((x, ex, powers[0]), (y, ey, powers[1]), (z, ez, powers[2])):
            if e:
                p = cache.get(e)
                if p is None:
                    p = cache[e] = base**e
                value *= p
        total += value
    return total


def read_polynomial(text):
    """Term map of a printed polynomial (the documented normal form).

    Terms are joined by ' + ' / ' - '; a term is an optional coefficient
    ('7' or '7/2') and '*'-separated powers 'x', 'x^e'.  Raises ValueError
    on anything else.
    """
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    signs = [sign] + [1 if op == "+" else -1 for op in pieces[1::2]]
    out = {}
    for s, term in zip(signs, pieces[0::2]):
        coeff = Fraction(s)
        exponents = [0, 0, 0]
        for i, factor in enumerate(term.split("*")):
            name, caret, e = factor.partition("^")
            if name in _VAR:
                if caret and not e.isdigit():
                    raise ValueError(f"bad power {factor!r}")
                exponents[_VAR[name]] += int(e) if caret else 1
            elif i == 0 and re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
            else:
                raise ValueError(f"bad factor {factor!r} in {term!r}")
        key = tuple(exponents)
        out[key] = out.get(key, 0) + coeff
    return {key: c for key, c in out.items() if c}


# -- generators, evaluated numerically ---------------------------------------


def apply_generator(generator, point):
    """Image of a point under one generator, from its closed formula.

    ``("T",)`` swaps x and z; ``("shift", v, terms)`` adds the shift to
    coordinate v; ``("nagata", k, c)`` is
    (x - 2c*y*q^k - c^2*z*q^2k, y + c*z*q^k, z) with q = y^2 + x*z.
    """
    u, v, w = point
    kind = generator[0]
    if kind == "T":
        return (w, v, u)
    if kind == "shift":
        _, variable, terms = generator
        image = [u, v, w]
        image[_VAR[variable]] += evaluate(terms, point)
        return tuple(image)
    _, k, c = generator
    qk = (v * v + u * w) ** k
    return (u - 2 * c * v * qk - c * c * w * qk * qk, v + c * w * qk, w)


def apply_factors(factors, point):
    """Image of a point under a factor list (the last factor acts first)."""
    for generator in reversed(factors):
        point = apply_generator(generator, point)
    return point


def read_factor(token):
    """Generator tuple of a printed factor token: T, nagata(k)[^c], shift(v, p)."""
    if token == "T":
        return ("T",)
    match = re.fullmatch(r"nagata\((\d+)\)(?:\^(-?\d+(?:/\d+)?))?", token)
    if match:
        return ("nagata", int(match[1]), Fraction(match[2] or 1))
    match = re.fullmatch(r"shift\(([xyz]), (.+)\)", token)
    if match:
        return ("shift", match[1], read_polynomial(match[2]))
    raise ValueError(f"unknown factor token {token!r}")


def _coords_vs_factors(coords, factors, points, what):
    problems = []
    for point in points:
        expected = apply_factors(factors, point)
        got = tuple(evaluate(c, point) for c in coords)
        if got != expected:
            problems.append(
                ("coords_match_factors",
                 f"{what}: coordinates and factor formulas differ at {point}")
            )
            break
    return problems


def _odd_family_nonmember(family, triple, what):
    d1, d2, d3 = triple
    if family.startswith("odd") and reachable(d1, d2, d3)[d3]:
        return [("odd_family_nonmember", f"{what}: {d3} is in <{d1}, {d2}>")]
    return []


# -- wild_certify --------------------------------------------------------------

_IDENTITY = ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})


def wild_certify(case, output, points):
    """Check one wild_certify item.

    ``case`` is (family, d, k).  ``output`` holds ``multidegree`` (as the
    library reported it), ``coords`` (three term maps read from terms()),
    ``factors`` (generator tuples), ``left`` and ``right`` (term maps of
    inverse(F)∘F and F∘inverse(F)) and ``flags`` (the two is_identity()
    results).
    """
    family, d, k = case
    what = f"{family} d={d} k={k}"
    problems = _coords_vs_factors(output["coords"], output["factors"], points, what)
    degrees = tuple(degree(c) for c in output["coords"])
    expected = family_triple(family, d, k)
    if tuple(sorted(degrees)) != expected:
        problems.append(
            ("sorted_degrees_formula", f"{what}: degrees {degrees}, formula {expected}")
        )
    if tuple(output["multidegree"]) != degrees:
        problems.append(
            ("reported_multidegree",
             f"{what}: reported {output['multidegree']}, terms give {degrees}")
        )
    if tuple(output["flags"]) != (True, True) or any(
        tuple(output[side]) != _IDENTITY for side in ("left", "right")
    ):
        problems.append(("inverse_identities", f"{what}: an inverse identity fails"))
    problems += _odd_family_nonmember(family, expected, what)
    return problems


# -- classify_survey -----------------------------------------------------------

_RELATION = re.compile(r" (==|!=|>=|<=|<|>) ")
_COMPARE = {
    "==": operator.eq, "!=": operator.ne, ">=": operator.ge,
    "<=": operator.le, "<": operator.lt, ">": operator.gt,
}


def _audit_problems(d, k, triple, cases, type_iii, what):
    """R7 / check-reductions audit: formula, gcd facts, every relation holds."""
    problems = []
    expected = (d, d + k * (d + 1), d + 2 * k * (d + 1))
    d1, d2, d3 = expected
    if (
        tuple(triple) != expected
        or gcd(d, k) != 1
        or (gcd(d2, d3), gcd(d1, d3), gcd(d1, d2)) != (1, 2, 1)
    ):
        problems.append(("r7_audit", f"{what}: triple is not a family member with gcd(d, k) = 1"))
    for case in cases:
        for check in case["checks"]:
            match = _RELATION.search(check["name"])
            if (
                match is None
                or _COMPARE[match[1]](check["lhs"], check["rhs"]) != check["holds"]
                or not check["holds"]
            ):
                problems.append(("r7_audit", f"{what}: check {check['name']!r} fails"))
        if case["conclusion"] != "reduction_impossible":
            problems.append(("r7_audit", f"{what}: case {case['coordinate']} not excluded"))
    if not type_iii["excluded"] or tuple(type_iii["triple"]) != expected:
        problems.append(("r7_audit", f"{what}: type III not excluded"))
    return problems


def classification(triple, document, member):
    """Check one classify_tame verdict, given as its to_dict() document.

    ``member`` says whether d3 is in <d1, d2>, decided by the caller with
    ``reachable`` or ``in_semigroup``.
    """
    d1, d2, d3 = triple
    what = f"classify {triple}"
    problems = []
    if tuple(document["triple"]) != tuple(triple):
        problems.append(("triple_echo", f"{what}: document names {document['triple']}"))
    status, rule = document["status"], document["rule_id"]
    data = document["certificate"].get("data", {})
    if (d1 == 1 or d2 % d1 == 0 or member) and status == "not_tame":
        problems.append(("tame_not_refuted", f"{what}: constructibly tame, called not_tame"))
    if rule == "R8" and (
        status != "tame" or data.get("a", -1) < 0 or data.get("b", -1) < 0
        or data["a"] * d1 + data["b"] * d2 != d3
    ):
        problems.append(("r8_identity", f"{what}: R8 pair {data} misses d3"))
    if status == "not_tame" and rule in ("R3", "R4", "R6") and member:
        problems.append(("refutation_nonmember", f"{what}: {rule} refutes a member"))
    if rule == "R7":
        problems += _audit_problems(
            data["d"], data["k"], triple, data["cases"], data["type_iii"], what
        )
    return problems


# -- cli_session ----------------------------------------------------------------


def _verify_total(argv):
    """Number of checks a verify call must run, counted from its grid."""
    opts = dict(zip(argv[::2], argv[1::2]))
    suite = opts["--suite"]
    kmax, dmax, lmax = (int(opts.get(f"--{n}", dflt)) for n, dflt in
                        (("kmax", 5), ("dmax", 14), ("lmax", 4)))
    ks = range(1, kmax + 1)
    if suite == "exp-vs-closed-form":
        return len(ks)
    if suite == "identities":
        return 2 * len(ks) + dmax * len(ks) + lmax * len(ks)
    even = sum(1 for d in range(4, dmax + 1, 2) for k in ks if gcd(d, k) == 1)
    if suite == "reductions":
        return even
    odd = sum(1 for r in range(3, dmax + 1, 2) for k in ks if gcd(r, k) == 1)
    return even + 2 * odd


def _construct_triple(argv):
    kind = argv[1]
    opts = {key.lstrip("-"): int(value) for key, value in zip(argv[2::2], argv[3::2])
            if key != "--format"}
    if kind == "nagata":
        k = opts["k"]
        return (1, 2 * k + 1, 4 * k + 1)
    if kind == "lemma1":
        r, k = 4 * opts["l"] + 1, opts["k"]
        return (r, r + 2 * k, r + 4 * k)
    d = opts["d"] if kind == "fdk" else opts["r"]
    return family_triple("odd_general", d, opts["k"])


def _realization(document, expected_degrees, points, what, ordered):
    """Reread printed coordinates: degrees and agreement with the factors."""
    coords = [read_polynomial(c) for c in document["coords"]]
    degrees = tuple(degree(c) for c in coords)
    got = degrees if ordered else tuple(sorted(degrees))
    problems = []
    if got != tuple(expected_degrees):
        problems.append(("term_degrees", f"{what}: printed degrees {degrees}, expected {expected_degrees}"))
    factors = [read_factor(t) for t in document["factors"]]
    return problems + _coords_vs_factors(coords, factors, points, what), degrees


def cli_call(argv, code, stdout, points):
    """Check one CLI call: exit code, printed terms and the JSON's claims."""
    what = " ".join(argv)
    try:
        document = json.loads(stdout)
    except ValueError:
        return [("exit_code", f"{what}: exit {code}, output is not JSON")]
    command = argv[0]
    problems = []
    expected_code = 0
    if command == "classify":
        d1, d2, d3 = (int(v) for v in argv[-3:])
        expected_code = {"tame": 0, "not_tame": 1, "unknown": 2}.get(document["status"], -1)
        problems += classification((d1, d2, d3), document, reachable(d1, d2, d3)[d3])
        if document["rule_id"] == "R8":
            problems += _r8_realization(document, (d1, d2, d3), points, what)
    elif command == "construct":
        triple = _construct_triple(argv)
        found, degrees = _realization(document, triple, points, what, ordered=False)
        problems += found
        if tuple(document["multidegree"]) != degrees:
            problems.append(("term_degrees", f"{what}: multidegree field disagrees with the terms"))
    elif command == "wild-enum":
        d, count = int(argv[2]), int(argv[4])
        results = document["results"]
        if len(results) != count:
            problems.append(("result_count", f"{what}: {len(results)} results for count {count}"))
        for result in results:
            data = result["certificate"]["data"]
            triple = family_triple(data["family"], data["d"], data["k"])
            if (result["status"], data["d"], tuple(result["triple"])) != ("not_tame", d, triple):
                problems.append(("term_degrees", f"{what}: result {result['triple']} is no family member"))
            problems += _realization(result["realization"], triple, points, what, ordered=False)[0]
            problems += _odd_family_nonmember(data["family"], triple, what)
    elif command == "check-reductions":
        d, k = int(argv[2]), int(argv[4])
        problems += _audit_problems(d, k, document["triple"], document["cases"],
                                    document["type_iii"], what)
        if not document["all_excluded"]:
            problems.append(("r7_audit", f"{what}: not all excluded"))
        expected_code = 0 if document["all_excluded"] else 1
    elif command == "verify":
        total = _verify_total(argv[1:])
        passed = sum(1 for check in document["checks"] if check["ok"])
        if document["total"] != total or total <= 0 or len(document["checks"]) != total:
            problems.append(("verify_total", f"{what}: total {document['total']}, grid has {total}"))
        if document["passed"] != passed or not document["all_ok"]:
            problems.append(("verify_total", f"{what}: {document['passed']}/{document['total']} passed"))
        expected_code = 0 if document["all_ok"] else 1
    if code != expected_code:
        problems.append(("exit_code", f"{what}: exit {code}, verdict wants {expected_code}"))
    return problems


def _r8_realization(document, triple, points, what):
    """(x + z^d1, y + z^d2, z + (x + z^d1)^a (y + z^d2)^b) at the points."""
    d1, d2, d3 = triple
    a, b = document["certificate"]["data"]["a"], document["certificate"]["data"]["b"]
    coords = [read_polynomial(c) for c in document["realization"]["coords"]]
    problems = []
    if tuple(degree(c) for c in coords) != triple:
        problems.append(("term_degrees", f"{what}: printed degrees are not {triple}"))
    for x, y, z in points:
        f, g = x + z**d1, y + z**d2
        if tuple(evaluate(c, (x, y, z)) for c in coords) != (f, g, z + f**a * g**b):
            problems.append(("r8_realization", f"{what}: realization differs at {(x, y, z)}"))
            break
    return problems
