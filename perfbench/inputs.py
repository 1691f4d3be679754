"""Seeded inputs of the three workloads.

``generate`` is pure Python and imports nothing from wildmdeg: the seed
decides the inputs, and the library only ever receives the generated
values.  ``prepare`` is the workload's set-up: it generates the inputs,
imports wildmdeg from the checkout's ``src/`` and turns the inputs into
the library's own argument objects.
"""

import random
import sys
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("wild_certify", "classify_survey", "cli_session")

# wild_certify: smallest degree d = 3..9 covers all four families of
# default_family; the first WILD_KS admissible k per d make the largest
# items (d = 6 and 8) carry most of a round.
WILD_DS = range(3, 10)
WILD_KS = 10

# classify_survey: every sorted triple with d3 <= DENSE_MAX, plus FAR_COUNT
# far triples whose d3 lies in [FAR_LO, FAR_HI) and is not divisible by
# gcd(d1, d2) > 1, so the linear semigroup scan runs all d3/d2 steps.
DENSE_MAX = 40
FAR_COUNT = 100
FAR_LO, FAR_HI = 10**5, 10**6
FAR_PAIRS = ((2, 10), (3, 9), (4, 10), (6, 9), (2, 12), (3, 12), (4, 12),
             (8, 12), (6, 10), (9, 12))

# cli_session: R8 witness classifications (d1, d2, lowest d3).  d3 is drawn
# from the next CLI_WINDOW values congruent to the lowest one mod d1, so the
# witness exponent b stays 1, a moves by under 1 %, and every seed costs
# about the same.
CLI_WITNESSES = ((2, 3, 1401), (2, 5, 1201), (3, 4, 1501), (3, 5, 1502))
CLI_WINDOW = 10


def library_path():
    """Put the checkout's src/ first on sys.path; stop if it has no wildmdeg."""
    if not (SRC / "wildmdeg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no wildmdeg package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def family_name(d):
    """The family wildmdeg's default_family picks for smallest degree d."""
    if d == 4:
        return "d_equals_4"
    if d % 2 == 0:
        return "even_gt_4"
    if d % 4 == 1:
        return "odd_1_mod_4"
    return "odd_general"


def admissible(d, k):
    return k % 2 == 1 if d == 4 else gcd(d, k) == 1


def family_triple(family, d, k):
    """Sorted multidegree of the family member (d, k), from the paper's formulas."""
    if family == "odd_1_mod_4":
        return (d, d + 2 * k, d + 4 * k)
    return (d, d + k * (d + 1), d + 2 * k * (d + 1))


def sample_points(rng, count=2):
    """Integer points with no zero coordinate, for evaluating coordinates."""
    return [
        tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))
        for _ in range(count)
    ]


def _wild_certify(rng):
    cases = []
    for d in WILD_DS:
        family = family_name(d)
        ks = [k for k in range(1, 200) if admissible(d, k)][:WILD_KS]
        cases.extend((family, d, k) for k in ks)
    rng.shuffle(cases)
    return cases


def _classify_survey(rng):
    triples = [
        (d1, d2, d3)
        for d3 in range(1, DENSE_MAX + 1)
        for d2 in range(1, d3 + 1)
        for d1 in range(1, d2 + 1)
    ]
    # one far triple per stratum of [FAR_LO, FAR_HI), pairs assigned in a
    # fixed cycle: the scan length d3/d2 then varies little with the seed
    width = (FAR_HI - FAR_LO) // FAR_COUNT
    for j in range(FAR_COUNT):
        d1, d2 = FAR_PAIRS[j % len(FAR_PAIRS)]
        d3 = rng.randrange(FAR_LO + j * width, FAR_LO + (j + 1) * width)
        if d3 % gcd(d1, d2) == 0:
            d3 += 1
        triples.append((d1, d2, d3))
    rng.shuffle(triples)
    return triples


def _cli_session(rng):
    calls = []
    for d1, d2, low in CLI_WITNESSES:
        d3 = low + d1 * rng.randrange(CLI_WINDOW)
        calls.append(["classify", "--format", "json", str(d1), str(d2), str(d3)])
    calls += [
        ["construct", "fdk", "--d", "6", "--k", "31", "--format", "json"],
        ["construct", "lemma1", "--l", "10", "--k", "300", "--format", "json"],
        ["construct", "lemma2", "--r", "7", "--k", "30", "--format", "json"],
        ["construct", "nagata", "--k", "500", "--format", "json"],
        ["wild-enum", "--d", "6", "--count", "10", "--with-maps", "--format", "json"],
        ["wild-enum", "--d", "9", "--count", "50", "--with-maps", "--format", "json"],
    ]
    d = rng.choice((6, 8, 10, 12, 14, 16))
    k = rng.choice([k for k in range(1, 40) if gcd(d, k) == 1])
    calls.append(["check-reductions", "--d", str(d), "--k", str(k), "--format", "json"])
    calls += [
        ["verify", "--suite", "exp-vs-closed-form", "--kmax", "50", "--format", "json"],
        ["verify", "--suite", "identities", "--kmax", "8", "--dmax", "14",
         "--lmax", "8", "--format", "json"],
        ["verify", "--suite", "reductions", "--dmax", "240", "--kmax", "100",
         "--format", "json"],
        ["verify", "--suite", "gcds", "--dmax", "160", "--kmax", "40",
         "--format", "json"],
    ]
    rng.shuffle(calls)
    return calls


def generate(workload, seed):
    """(cases, points) for one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    make = {
        "wild_certify": _wild_certify,
        "classify_survey": _classify_survey,
        "cli_session": _cli_session,
    }[workload]
    cases = make(rng)
    return cases, sample_points(rng)


def prepare(workload, seed):
    """Set-up: generate the inputs, import wildmdeg and build its arguments.

    Returns ``(library, cases, arguments, points)``; ``arguments[i]`` is
    what item ``i`` hands to the library.
    """
    cases, points = generate(workload, seed)
    library_path()
    import wildmdeg

    if workload == "wild_certify":
        arguments = [
            wildmdeg.FamilyParams(wildmdeg.Family(family), d, k)
            for family, d, k in cases
        ]
    elif workload == "classify_survey":
        arguments = list(cases)
    else:
        import wildmdeg.cli  # noqa: F401  (what every CLI process imports)

        arguments = [list(call) for call in cases]
    return wildmdeg, cases, arguments, points
